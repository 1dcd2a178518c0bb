"""Unit tests for the shared predicate-fact semantics."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.predfacts import (
    MERGE,
    REPLACE,
    STRENGTHEN,
    WEAKEN,
    close_pred_facts,
    dfact,
    facts_disjoint,
    facts_subset,
    kill_for_redefinition,
    redefinition_kind,
)
from repro.ir import Opcode

from tests.analysis.closure_oracle import oracle_close
from tests.conftest import nightly_examples


class TestRedefinitionKind:
    def test_pred_set(self):
        assert redefinition_kind(Opcode.PRED_SET, None, False) is REPLACE
        assert redefinition_kind(Opcode.PRED_SET, None, True) is MERGE

    def test_unconditional_types_replace(self):
        for ptype in ("ut", "uf"):
            assert redefinition_kind(Opcode.PRED_DEF, ptype, False) is REPLACE
            assert redefinition_kind(Opcode.PRED_DEF, ptype, True) is REPLACE

    def test_or_types_strengthen(self):
        for ptype in ("ot", "of"):
            assert redefinition_kind(Opcode.PRED_DEF, ptype, True) \
                is STRENGTHEN

    def test_and_types_weaken(self):
        for ptype in ("at", "af"):
            assert redefinition_kind(Opcode.PRED_DEF, ptype, True) is WEAKEN

    def test_conditional_types_guard_sensitive(self):
        for ptype in ("ct", "cf"):
            assert redefinition_kind(Opcode.PRED_DEF, ptype, False) is REPLACE
            assert redefinition_kind(Opcode.PRED_DEF, ptype, True) is MERGE

    def test_opaque_write_merges(self):
        assert redefinition_kind(Opcode.ADD, None, False) is MERGE


class TestKill:
    FACTS = frozenset({("s", "a", "b"), dfact("a", "c"), ("z", "a"),
                       ("s", "x", "y")})

    def test_replace_kills_all_mentions(self):
        kept = kill_for_redefinition(self.FACTS, "a", REPLACE)
        assert kept == {("s", "x", "y")}

    def test_merge_kills_all_mentions(self):
        kept = kill_for_redefinition(self.FACTS, "a", MERGE)
        assert kept == {("s", "x", "y")}

    def test_strengthen_keeps_subsets_into_atom(self):
        # a only grows: x ⊆ a survives, a ⊆ b / disjointness / zero do not
        facts = frozenset({("s", "x", "a"), ("s", "a", "b"),
                           dfact("a", "c"), ("z", "a")})
        kept = kill_for_redefinition(facts, "a", STRENGTHEN)
        assert kept == {("s", "x", "a")}

    def test_weaken_keeps_supersets_disjointness_zero(self):
        # a only shrinks: a ⊆ b, a ∦ c and z(a) survive, x ⊆ a does not
        facts = frozenset({("s", "x", "a"), ("s", "a", "b"),
                           dfact("a", "c"), ("z", "a")})
        kept = kill_for_redefinition(facts, "a", WEAKEN)
        assert kept == {("s", "a", "b"), dfact("a", "c"), ("z", "a")}


class TestClosureAndQueries:
    def test_subset_transitive(self):
        closed = close_pred_facts({("s", "a", "b"), ("s", "b", "c")})
        assert facts_subset(closed, "a", "c")

    def test_subset_inherits_disjointness(self):
        closed = close_pred_facts({("s", "a", "b"), dfact("b", "c")})
        assert facts_disjoint(closed, "a", "c")
        assert facts_disjoint(closed, "c", "a")

    def test_zero_propagates_down_subsets(self):
        closed = close_pred_facts({("s", "a", "b"), ("z", "b")})
        assert ("z", "a") in closed

    def test_zero_disjoint_with_everything(self):
        closed = close_pred_facts({("z", "a")})
        assert facts_disjoint(closed, "a", "q")
        assert facts_disjoint(closed, "q", "a")

    def test_zero_subset_of_everything(self):
        closed = close_pred_facts({("z", "a")})
        assert facts_subset(closed, "a", "q")
        assert not facts_subset(closed, "q", "a")

    def test_subset_reflexive(self):
        assert facts_subset(frozenset(), "a", "a")

    def test_dfact_normalized(self):
        assert dfact("b", "a") == dfact("a", "b")

    def test_no_unrelated_inference(self):
        closed = close_pred_facts({("s", "a", "b")})
        assert not facts_disjoint(closed, "a", "b")
        assert not facts_subset(closed, "b", "a")


_ATOMS = st.integers(min_value=0, max_value=4)
_FACTS = st.frozensets(st.one_of(
    st.tuples(st.just("s"), _ATOMS, _ATOMS),
    st.builds(dfact, _ATOMS, _ATOMS),
    st.tuples(st.just("z"), _ATOMS),
), max_size=14)


class TestWorklistClosure:
    @settings(max_examples=nightly_examples(300, 2000))
    @given(facts=_FACTS)
    def test_equals_rule_based_oracle(self, facts):
        # the closure is the rules' least fixed point: the worklist must
        # reach exactly the set that re-running every rule reaches
        assert close_pred_facts(facts) == oracle_close(facts)

    def test_long_chain_saturates(self):
        chain = {("s", i, i + 1) for i in range(6)} | {dfact(6, "x"),
                                                        ("z", 5)}
        closed = close_pred_facts(chain)
        assert closed == oracle_close(chain)
        assert ("s", 0, 6) in closed and dfact(0, "x") in closed
        assert ("z", 0) in closed and ("z", 6) not in closed
