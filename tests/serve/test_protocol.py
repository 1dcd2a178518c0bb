"""Wire-form and identity-key tests for the service protocol."""

import pytest

from repro.runner.summary import RunSummary
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    Response,
    decode_request,
    decode_response,
    encode,
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
    def test_encode_decode(self):
        request = Request(kind="run", benchmark="adpcm_enc",
                          pipeline="traditional", capacity=64,
                          checked=True, id="r1")
        line = encode(request)
        assert line.endswith(b"\n")
        assert decode_request(line) == request

    def test_defaults_survive(self):
        request = Request(kind="run", benchmark="x")
        again = decode_request(encode(request))
        assert again.pipeline == "aggressive"
        assert again.capacity is None
        assert not again.checked

    def test_unknown_fields_rejected(self):
        with pytest.raises(ProtocolError, match="unknown request fields"):
            decode_request(b'{"kind": "ping", "surprise": 1, "v": 1}\n')

    def test_version_mismatch_rejected(self):
        bad = f'{{"kind": "ping", "v": {PROTOCOL_VERSION + 1}}}\n'
        with pytest.raises(ProtocolError, match="protocol version"):
            decode_request(bad)

    def test_bad_json_rejected(self):
        with pytest.raises(ProtocolError, match="bad JSON"):
            decode_request(b"not json\n")
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_request(b"[1, 2]\n")


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ProtocolError, match="unknown request kind"):
            Request(kind="explode").validate()

    def test_run_needs_exactly_one_program(self):
        with pytest.raises(ProtocolError, match="exactly one"):
            Request(kind="run").validate()
        with pytest.raises(ProtocolError, match="exactly one"):
            Request(kind="run", benchmark="a",
                    source="int main() {}").validate()
        Request(kind="run", benchmark="a").validate()
        Request(kind="compile", source="int main() {}").validate()

    def test_ping_needs_nothing(self):
        Request(kind="ping").validate()

    def test_step_budget_must_be_a_positive_int(self):
        # the value arrives from the socket as arbitrary JSON
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
        # with_buffer has one implementation: the field left the protocol
        with pytest.raises(ProtocolError,
                           match=r"unknown request fields \['retarget'\]"):
            decode_request(b'{"kind": "run", "benchmark": "a", '
                           b'"retarget": "legacy", "v": 1}\n')

    @pytest.mark.parametrize("engine", ["ref", "fast"])
    def test_engine_field_is_rejected(self, engine):
        # the fast engine is the only one: the field left the protocol
        with pytest.raises(ProtocolError,
                           match=r"unknown request fields \['engine'\]"):
            decode_request(b'{"kind": "run", "benchmark": "a", '
                           b'"engine": "%s", "v": 1}\n' % engine.encode())
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
                            meta={"worker": 1, "latency_s": 0.5})
        again = decode_response(encode(response))
        assert again.ok
        assert again.id == "r1"
        assert again.summary() == summary
        assert again.meta["worker"] == 1

    def test_summary_raises_on_failure(self):
        response = Response(status="trap", error="StepLimitExceeded")
        assert not response.ok
        with pytest.raises(ProtocolError, match="no summary"):
            response.summary()

    def test_summary_dict_round_trip(self):
        summary = _summary(capacity=None)
        assert summary_from_dict(summary_to_dict(summary)) == summary

    def test_unknown_fields_rejected(self):
        with pytest.raises(ProtocolError, match="unknown response fields"):
            decode_response(b'{"status": "ok", "shrug": true, "v": 1}\n')
