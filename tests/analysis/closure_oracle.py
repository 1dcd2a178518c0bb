"""Rule-based predicate-fact closure and predicate web, kept as oracles.

:func:`oracle_close` states the three closure rules of
:func:`repro.analysis.predfacts.close_pred_facts` one by one and re-runs
all of them over the whole set until nothing changes: the rules' least
fixed point by construction, with no indexing to get wrong.
:class:`ReferenceWeb` is the predicate web that re-closes with it at
every op and at every block exit, whether or not the op wrote a
predicate.  Any correct closure gives the identical frozensets, so the
program's web must agree with it point for point.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.predfacts import dfact
from repro.analysis.predweb import PredicateWeb, WebPoint, _pack_env, _State


def _rule_subset_transitive(facts: set) -> Iterable[tuple]:
    # a ⊆ b and b ⊆ d  =>  a ⊆ d
    supers: dict = {}
    for f in facts:
        if f[0] == "s":
            supers.setdefault(f[1], []).append(f[2])
    for f in facts:
        if f[0] == "s":
            for d in supers.get(f[2], ()):
                if f[1] != d:
                    yield ("s", f[1], d)


def _rule_subset_inherits_disjoint(facts: set) -> Iterable[tuple]:
    # a ⊆ b and b ∦ c  =>  a ∦ c
    subs: dict = {}
    for f in facts:
        if f[0] == "s":
            subs.setdefault(f[2], []).append(f[1])
    for f in facts:
        if f[0] == "d":
            _, b, c = f
            for a in subs.get(b, ()):
                if a != c:
                    yield dfact(a, c)
            for a in subs.get(c, ()):
                if a != b:
                    yield dfact(a, b)


def _rule_zero_propagates(facts: set) -> Iterable[tuple]:
    # a ⊆ b and b known-zero  =>  a known-zero
    zeros = {f[1] for f in facts if f[0] == "z"}
    for f in facts:
        if f[0] == "s" and f[2] in zeros:
            yield ("z", f[1])


RULES = (
    _rule_subset_transitive,
    _rule_subset_inherits_disjoint,
    _rule_zero_propagates,
)


def oracle_close(facts: Iterable[tuple]) -> frozenset:
    """Saturate ``facts`` by re-running every rule until none derives a
    new fact."""
    current = set(facts)
    changed = True
    while changed:
        changed = False
        for rule in RULES:
            derived = [f for f in rule(current) if f not in current]
            if derived:
                current.update(derived)
                changed = True
    return frozenset(current)


class ReferenceWeb(PredicateWeb):
    """The predicate web with :func:`oracle_close` at every block exit
    and before every op."""

    def _transfer_block(self, label: str, state: _State) -> _State:
        env = state.env_map()
        facts = set(state.facts)
        for op in self.func.block(label).ops:
            self._transfer_op(op, env, facts)
        return _State(_pack_env(env), oracle_close(facts))

    def points(self, label: str) -> list[WebPoint]:
        block = self.func.block(label)
        state = self._entry_state.get(label)
        if state is None:
            return [WebPoint(self, {}, frozenset())
                    for _ in range(len(block.ops) + 1)]
        env = state.env_map()
        facts = set(state.facts)
        points = []
        for op in block.ops:
            points.append(WebPoint(self, dict(env), oracle_close(facts)))
            self._transfer_op(op, env, facts)
        points.append(WebPoint(self, dict(env), oracle_close(facts)))
        return points


def web_snapshot(web: PredicateWeb) -> dict:
    """Every point's (environment, facts), by block label."""
    return {block.label: [(point._env, point.facts)
                          for point in web.points(block.label)]
            for block in web.func.blocks}
