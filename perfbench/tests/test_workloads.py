"""Workload checks: held-out cell orders and response judging."""

import pytest

from perfbench import checks
from perfbench.stats import OK
from perfbench.workloads import (
    Measure,
    PaperCold,
    paper_cells,
    response_outcome,
)
from repro.runner.summary import RunSummary
from repro.serve.protocol import Request, Response, summary_to_dict


@pytest.fixture(scope="module")
def golden():
    return checks.load_golden()


def test_paper_cold_is_order_independent(tmp_path, golden):
    """Two seeds give two benchmark and capacity orders; the order-
    sensitive shared decode store and schedule caches must still give
    identical per-cell summaries (and the golden ones)."""
    results = []
    orders = []
    for seed in (101, 202):
        workload = PaperCold(seed, tmp_path, golden)
        workload.prepare()
        try:
            results.append(workload.run_pass(Measure()))
        finally:
            workload.close()
        orders.append((tuple(workload.names), tuple(workload.sizes)))
    assert orders[0] != orders[1]
    first, second = results
    assert len(first.digests) == len(paper_cells()) == 187
    assert first.digests == second.digests
    assert first.modelled == second.modelled
    assert first.tally.failed == second.tally.failed == 0


def _summary(**changes):
    fields = dict(name="adpcm_dec", pipeline="aggressive", capacity=16,
                  cycles=100, bundles=50, ops_issued=300,
                  ops_from_buffer=200, ops_from_memory=100, static_ops=40,
                  branch_bubbles=3)
    fields.update(changes)
    return RunSummary(**fields)


def test_refused_timed_out_and_mismatching_responses_fail():
    request = Request(kind="run", benchmark="adpcm_dec",
                      pipeline="aggressive", capacity=16, id="r0")
    good = _summary()
    cells = {checks.cell_key("adpcm_dec", "aggressive", 16):
             checks.summary_digest(good)}

    def respond(status="ok", summary=good):
        payload = {"summary": summary_to_dict(summary)} if summary else None
        return Response(status=status, payload=payload)

    assert response_outcome(request, respond(), cells) == OK
    assert response_outcome(request, respond("overloaded", None),
                            cells).startswith("overloaded")
    assert response_outcome(request, respond("timeout", None),
                            cells).startswith("timeout")
    assert response_outcome(request, respond("trap", None),
                            cells).startswith("trap")
    assert response_outcome(request, respond(summary=_summary(cycles=101)),
                            cells).startswith("summary digest mismatch")
    assert response_outcome(request, respond(summary=None), cells) != OK
