"""Request validation, identity keys and response unwrapping."""

import pytest

from repro.pipeline import RunConfig
from repro.runner.summary import RunSummary
from repro.serve import Service, ServiceConfig
from repro.serve.protocol import (
    ProtocolError,
    Request,
    Response,
    summary_from_dict,
    summary_to_dict,
)


def _summary(**overrides):
    fields = dict(name="adpcm_enc", pipeline="aggressive", capacity=64,
                  cycles=100, bundles=50, ops_issued=200,
                  ops_from_buffer=150, ops_from_memory=50, static_ops=40,
                  branch_bubbles=3)
    fields.update(overrides)
    return RunSummary(**fields)


class TestRequestRoundTrip:
    """A request goes to ``Service.submit`` as the object the caller
    built; its dataclass fields are the whole schema."""

    def test_id_is_echoed(self):
        with Service(ServiceConfig(cache_dir=None)) as service:
            response = service.submit(
                Request(kind="stats", id="r1")).result(timeout=30)
        assert response.ok
        assert response.id == "r1"

    def test_defaults_survive(self):
        request = Request(kind="run", benchmark="x")
        assert request.pipeline == "aggressive"
        assert request.capacity is None
        assert not request.checked
        assert request.validate() == RunConfig()

    def test_unknown_fields_rejected(self):
        with pytest.raises(TypeError, match="surprise"):
            Request(kind="stats", surprise=1)


class TestValidation:
    def test_unknown_kind(self):
        for kind in ("explode", "ping"):
            with pytest.raises(ProtocolError, match="unknown request kind"):
                Request(kind=kind).validate()

    def test_run_needs_exactly_one_program(self):
        with pytest.raises(ProtocolError, match="exactly one"):
            Request(kind="run").validate()
        with pytest.raises(ProtocolError, match="exactly one"):
            Request(kind="run", benchmark="a",
                    source="int main() {}").validate()
        Request(kind="run", benchmark="a").validate()
        Request(kind="compile", source="int main() {}").validate()

    def test_stats_needs_nothing(self):
        Request(kind="stats").validate()

    def test_null_checked_is_a_bad_request(self):
        # the flag is a bool: ``None`` is not "unset", and the service
        # answers it without computing anything
        request = Request(kind="run", benchmark="adpcm_enc", checked=None)
        with pytest.raises(ProtocolError, match="checked"):
            request.validate()
        with Service(ServiceConfig(cache_dir=None)) as service:
            response = service.submit(request).result(timeout=30)
        assert response.status == "error"
        assert response.error.startswith("bad request: ")
        assert "checked" in response.error
        assert service.stats.computations == 0

    def test_step_budget_must_be_a_positive_int(self):
        # the value may come from outside the program as any type
        for bad in (0, -5, 1.5, True, "100"):
            with pytest.raises(ProtocolError, match="max_steps"):
                Request(kind="run", benchmark="a",
                        max_steps=bad).validate()
        Request(kind="run", benchmark="a", max_steps=1).validate()
        Request(kind="run", benchmark="a", max_steps=None).validate()

    def test_capacity_must_be_none_or_a_non_negative_int(self):
        for bad in (-1, 1.5, True, "64"):
            with pytest.raises(ProtocolError, match="capacity"):
                Request(kind="run", benchmark="a", capacity=bad).validate()
        for good in (None, 0, 64):
            Request(kind="run", benchmark="a", capacity=good).validate()


class TestIdentityKeys:
    def test_coalesce_key_covers_base_identity(self):
        base = Request(kind="run", benchmark="a", capacity=64)
        for other in (Request(kind="run", benchmark="b", capacity=64),
                      Request(kind="run", benchmark="a", capacity=64,
                              pipeline="traditional"),
                      Request(kind="run", benchmark="a", capacity=64,
                              checked=True),
                      Request(kind="run", benchmark="a", capacity=64,
                              max_steps=10),
                      # keyed on the budget as given: no budget is not a
                      # zero budget
                      Request(kind="run", benchmark="a", capacity=64,
                              max_steps=0)):
            assert base.coalesce_key() != other.coalesce_key()

    def test_coalesce_key_is_full_identity(self):
        a = Request(kind="run", benchmark="a", capacity=64)
        assert a.coalesce_key() == Request(kind="run", benchmark="a",
                                           capacity=64).coalesce_key()
        assert a.coalesce_key() != Request(kind="run", benchmark="a",
                                           capacity=128).coalesce_key()
        assert a.coalesce_key() != Request(kind="compile",
                                           benchmark="a",
                                           capacity=64).coalesce_key()

    def test_retarget_field_is_rejected(self):
        # with_buffer has one implementation: the field left the schema
        with pytest.raises(TypeError, match="retarget"):
            Request(kind="run", benchmark="a", retarget="legacy")

    @pytest.mark.parametrize("engine", ["ref", "fast"])
    def test_engine_field_is_rejected(self, engine):
        # the fast engine is the only one: the field left the schema
        with pytest.raises(TypeError, match="engine"):
            Request(kind="run", benchmark="a", engine=engine)

    def test_ids_never_affect_identity(self):
        a = Request(kind="run", benchmark="a", capacity=64, id="x")
        b = Request(kind="run", benchmark="a", capacity=64, id="y")
        assert a.coalesce_key() == b.coalesce_key()

    def test_inline_source_hashes_to_program_id(self):
        a = Request(kind="run", source="int main() { return 1; }")
        b = Request(kind="run", source="int main() { return 1; }")
        c = Request(kind="run", source="int main() { return 2; }")
        assert a.program_id == b.program_id
        assert a.program_id != c.program_id
        assert a.program_id.startswith("src:")


class TestResponse:
    def test_round_trip_with_summary(self):
        summary = _summary()
        response = Response(status="ok", id="r1",
                            payload={"summary": summary_to_dict(summary),
                                     "value": 42},
                            meta={"latency_s": 0.5})
        assert response.ok
        assert response.summary() == summary

    def test_summary_raises_on_failure(self):
        response = Response(status="trap", error="StepLimitExceeded")
        assert not response.ok
        with pytest.raises(ProtocolError, match="no summary"):
            response.summary()

    def test_summary_dict_round_trip(self):
        summary = _summary(capacity=None)
        assert summary_from_dict(summary_to_dict(summary)) == summary

    def test_unknown_fields_rejected(self):
        with pytest.raises(TypeError, match="shrug"):
            Response(status="ok", shrug=True)
