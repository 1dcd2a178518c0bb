"""Global predicate relation analysis: psi-SSA-style predicate webs.

The block-local :class:`~repro.analysis.predrel.PredicateRelations`
summary cannot see across block boundaries and conflates every value a
register ever holds.  This analysis names each **definition site** — a
(predicate-writing operation, destination) pair, in the spirit of
de Ferrière's psi-SSA, where each partial predicate define is a
psi-merge of the old value with the new contribution — and flows two
pieces of state to every program point:

* an **environment** mapping each predicate register to the set of sites
  whose value may be current there (its *web*), with a distinguished
  :data:`UNDEF` member when some path reaches the point without any
  write;
* a set of **facts** over sites in the shared language of
  :mod:`repro.analysis.predfacts` (subset / disjoint / known-zero).

Site atoms make the facts *time-invariant names*: a fact talks about the
value produced by a particular site's most recent execution, so a
register being redefined does not silently repoint standing facts at a
different value (the hazard that makes flow-insensitive summaries
unsound around redefinitions).  When a site re-executes — a loop
iteration — the transfer first kills every fact mentioning it, then
regenerates from the current state (*kill-then-gen*).

Fact semantics: a fact over sites ``a``, ``b`` holds in every execution
in which both ``a`` and ``b`` are the realized (most recent) writes of
their registers.  Register-level queries quantify over the site
environment — ``disjoint(p, q)`` holds at a point iff the fact holds for
*every* pair in ``sites(p) × sites(q)`` — which matches per-execution
reality because each execution realizes exactly one pair.  The meet
intersects fact sets (facts true along every incoming path) and unions
environments; intersection preserves closure, so queries stay precise
without re-closing at merge points.

Partial defines track *known-zero* webs: ``pred_set p = 0`` roots a web
with a ``z`` fact, and an or-type accumulation into a known-zero
register is exactly ``guard & cond`` — the case Section 3 of the paper
needs for or-combined predicates to participate in disjointness
reasoning at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from repro.ir.function import Function
from repro.ir.opcodes import Opcode
from repro.ir.operation import Operation
from repro.ir.registers import VReg

from .cfgview import CFGView
from .dataflow import FORWARD, TOP, DataflowProblem, DataflowResult, solve
from .predfacts import (
    REPLACE,
    STRENGTHEN,
    WEAKEN,
    close_pred_facts,
    dfact,
    facts_disjoint,
    facts_subset,
    redefinition_kind,
)

#: pseudo-site meaning "no write reaches along some path"
UNDEF = -1

#: destination types computing the compare result (vs its negation)
_T_TYPES = frozenset({"ut", "ot", "at", "ct"})


class Site(NamedTuple):
    """A static predicate definition site."""

    sid: int
    label: str | None       #: block label; ``None`` for entry (parameter)
    index: int              #: op index within the block; ``-1`` for entry
    uid: int | None         #: defining operation uid; ``None`` for entry
    reg: VReg               #: the register this site writes
    ptype: str | None       #: PRED_DEF dest type, ``"set"``, or ``None``


@dataclass(frozen=True)
class _State:
    """Dataflow value: site environment + closed fact set."""

    env: tuple            # sorted tuple of (VReg, frozenset[int])
    facts: frozenset

    def env_map(self) -> dict:
        return dict(self.env)


def _pack_env(env: dict) -> tuple:
    return tuple(sorted(env.items(),
                        key=lambda kv: (kv[0].kind, kv[0].index)))


class _WebProblem(DataflowProblem):
    direction = FORWARD
    name = "predweb"

    def __init__(self, web: "PredicateWeb") -> None:
        self.web = web

    def boundary(self) -> _State:
        env = {site.reg: frozenset((site.sid,))
               for site in self.web.entry_sites}
        return _State(_pack_env(env), frozenset())

    def meet(self, values: list[_State]):
        if not values:
            return TOP
        if len(values) == 1:
            return values[0]
        env: dict = {}
        domain: set = set()
        maps = [value.env_map() for value in values]
        for m in maps:
            domain.update(m)
        for reg in domain:
            merged: frozenset = frozenset()
            for m in maps:
                merged |= m.get(reg, _UNDEF_SITES)
            env[reg] = merged
        facts = frozenset.intersection(*(value.facts for value in values))
        return _State(_pack_env(env), facts)

    def transfer(self, label: str, value: _State,
                 result: DataflowResult) -> _State:
        return self.web._transfer_block(label, value)


_UNDEF_SITES = frozenset((UNDEF,))


class PredicateWeb:
    """Flow-sensitive predicate webs and relation facts for a function.

    Queries go through :meth:`at` / :meth:`points`, which expose the
    state *before* a given operation executes.
    """

    def __init__(self, func: Function, cfg: CFGView | None = None) -> None:
        self.func = func
        self.cfg = cfg if cfg is not None else CFGView(func)
        self.sites: list[Site] = []
        self._site_of: dict[tuple[int, int], int] = {}  # (uid, dest idx)
        self.entry_sites: list[Site] = []
        self._number_sites()
        result = solve(_WebProblem(self), self.cfg)
        self._entry_state: dict[str, _State] = dict(result.input)
        self._points: dict[str, list["WebPoint"]] = {}
        self.stats = result.stats

    # -- construction -------------------------------------------------------------

    def _number_sites(self) -> None:
        for param in self.func.params:
            if param.is_predicate:
                site = Site(len(self.sites), None, -1, None, param, None)
                self.sites.append(site)
                self.entry_sites.append(site)
        for block in self.func.blocks:
            for index, op in enumerate(block.ops):
                for dest_idx, dest in enumerate(op.dests):
                    if not dest.is_predicate:
                        continue
                    ptype = None
                    if op.opcode == Opcode.PRED_DEF:
                        ptype = op.attrs["ptypes"][dest_idx]
                    elif op.opcode == Opcode.PRED_SET:
                        ptype = "set"
                    site = Site(len(self.sites), block.label, index,
                                op.uid, dest, ptype)
                    self.sites.append(site)
                    self._site_of[(op.uid, dest_idx)] = site.sid

    def site(self, sid: int) -> Site:
        return self.sites[sid]

    # -- transfer -----------------------------------------------------------------

    def _transfer_block(self, label: str, state: _State) -> _State:
        env = state.env_map()
        facts = set(state.facts)
        for op in self.func.block(label).ops:
            self._transfer_op(op, env, facts)
        return _State(_pack_env(env), close_pred_facts(facts))

    def _transfer_op(self, op: Operation, env: dict, facts: set) -> None:
        pred_dests = [(i, d) for i, d in enumerate(op.dests)
                      if d.is_predicate]
        if not pred_dests:
            return
        guarded = op.guard is not None
        guard_sites = (env.get(op.guard, _UNDEF_SITES) if guarded
                       else frozenset())
        exact: dict[int, bool] = {}  # dest idx -> value is exactly g&c / g&!c

        for dest_idx, dest in pred_dests:
            sid = self._site_of[(op.uid, dest_idx)]
            # kill-then-gen: this site re-executes, so every standing fact
            # about its previous execution's value dies first
            stale = {f for f in facts if sid in f[1:]}
            facts -= stale

            old = env.get(dest, _UNDEF_SITES)
            zeroish = UNDEF not in old and all(
                ("z", o) in facts for o in old)
            ptype = None
            if op.opcode == Opcode.PRED_DEF:
                ptype = op.attrs["ptypes"][dest_idx]
            kind = redefinition_kind(op.opcode, ptype, guarded)

            if op.opcode == Opcode.PRED_SET:
                writes_zero = not _imm_value(op)
                if kind == REPLACE:
                    env[dest] = frozenset((sid,))
                    if writes_zero:
                        facts.add(("z", sid))
                else:  # guarded: write iff guard, else keep old
                    env[dest] = frozenset((sid,)) | (old & _UNDEF_SITES)
                    if writes_zero and zeroish:
                        facts.add(("z", sid))
                exact[dest_idx] = False
                continue

            if kind == REPLACE:
                env[dest] = frozenset((sid,))
                is_exact = op.opcode == Opcode.PRED_DEF
            elif kind == STRENGTHEN:
                # dest |= g & c: on a known-zero web this is a fresh
                # g & c value (the psi chain root was pred_set 0)
                if zeroish:
                    env[dest] = frozenset((sid,))
                    is_exact = True
                else:
                    env[dest] = frozenset((sid,)) | (old & _UNDEF_SITES)
                    is_exact = False
                    # x ⊆ o for every reaching o  =>  x ⊆ merged value
                    for x in self._common_subsets(facts, old):
                        facts.add(("s", x, sid))
            elif kind == WEAKEN:
                env[dest] = frozenset((sid,)) | (old & _UNDEF_SITES)
                is_exact = False
                if zeroish:
                    facts.add(("z", sid))
                elif UNDEF not in old:
                    # merged ⊆ x / merged ∦ y inherit when every o agrees
                    for x in self._common_supersets(facts, old):
                        facts.add(("s", sid, x))
                    for y in self._common_disjoint(facts, old):
                        facts.add(dfact(sid, y))
            else:  # MERGE: guarded ct/cf or an opaque write
                if ptype in ("ct", "cf") and zeroish:
                    # old was 0, written iff guard: exactly g & c
                    env[dest] = frozenset((sid,))
                    is_exact = True
                else:
                    env[dest] = frozenset((sid,)) | (old & _UNDEF_SITES)
                    is_exact = False

            exact[dest_idx] = is_exact and op.opcode == Opcode.PRED_DEF
            defined_guard = guard_sites - _UNDEF_SITES
            if exact[dest_idx] and len(defined_guard) == 1:
                # value is guard & (condition-ish): site ⊆ the guard site.
                # A guard web merged from several sites only bounds it by
                # their union, which no single subset fact states.
                facts.add(("s", sid, next(iter(defined_guard))))

        # complementary pair: two exact dests of one define with opposite
        # polarity hold g&c and g&!c — never both true
        if op.opcode == Opcode.PRED_DEF and len(pred_dests) == 2:
            (i0, d0), (i1, d1) = pred_dests
            if d0 != d1 and exact.get(i0) and exact.get(i1):
                ptypes = op.attrs["ptypes"]
                pol0 = ptypes[i0] in _T_TYPES
                pol1 = ptypes[i1] in _T_TYPES
                if pol0 != pol1:
                    facts.add(dfact(self._site_of[(op.uid, i0)],
                                    self._site_of[(op.uid, i1)]))

    @staticmethod
    def _common_subsets(facts: set, sites: frozenset) -> set:
        """Atoms x with x ⊆ o for every o in ``sites``."""
        common: set | None = None
        for o in sites:
            subs = {f[1] for f in facts if f[0] == "s" and f[2] == o}
            common = subs if common is None else common & subs
            if not common:
                return set()
        return common or set()

    @staticmethod
    def _common_supersets(facts: set, sites: frozenset) -> set:
        common: set | None = None
        for o in sites:
            sups = {f[2] for f in facts if f[0] == "s" and f[1] == o}
            common = sups if common is None else common & sups
            if not common:
                return set()
        return common or set()

    @staticmethod
    def _common_disjoint(facts: set, sites: frozenset) -> set:
        common: set | None = None
        for o in sites:
            dis = set()
            for f in facts:
                if f[0] == "d":
                    if f[1] == o:
                        dis.add(f[2])
                    elif f[2] == o:
                        dis.add(f[1])
            common = dis if common is None else common & dis
            if not common:
                return set()
        return common or set()

    # -- point queries ------------------------------------------------------------

    def points(self, label: str) -> list["WebPoint"]:
        """One :class:`WebPoint` per op of ``label`` (state *before* the
        op), plus a final point for the block's exit state."""
        cached = self._points.get(label)
        if cached is not None:
            return cached
        block = self.func.block(label)
        state = self._entry_state.get(label)
        points: list[WebPoint] = []
        if state is None:
            # unreachable: everything unknown
            env: dict = {}
            facts: set = set()
            for _ in range(len(block.ops) + 1):
                points.append(WebPoint(self, dict(env), frozenset()))
        else:
            env = state.env_map()
            facts = set(state.facts)
            for op in block.ops:
                points.append(WebPoint(self, dict(env),
                                       close_pred_facts(facts)))
                self._transfer_op(op, env, facts)
            points.append(WebPoint(self, dict(env), close_pred_facts(facts)))
        self._points[label] = points
        return points

    def at(self, label: str, index: int = 0) -> "WebPoint":
        """The state before op ``index`` of block ``label`` (pass
        ``len(block.ops)`` for the block exit state)."""
        return self.points(label)[index]


class WebPoint:
    """Predicate queries at one program point."""

    def __init__(self, web: PredicateWeb, env: dict,
                 facts: frozenset) -> None:
        self._web = web
        self._env = env
        self.facts = facts

    def sites(self, reg: VReg) -> frozenset:
        """Site ids whose value may be current for ``reg`` (may include
        :data:`UNDEF`)."""
        return self._env.get(reg, _UNDEF_SITES)

    def web_of(self, reg: VReg) -> list[Site]:
        """The reaching definition sites of ``reg``, in site order
        (:data:`UNDEF` is reported via :meth:`possibly_undefined`)."""
        return [self._web.site(sid)
                for sid in sorted(self.sites(reg)) if sid != UNDEF]

    def possibly_undefined(self, reg: VReg) -> bool:
        """Some path reaches this point without any write to ``reg``."""
        return UNDEF in self.sites(reg)

    def disjoint(self, a: VReg | None, b: VReg | None) -> bool:
        """Operations guarded by ``a`` and ``b`` can never both execute."""
        if a is None or b is None or a == b:
            return False
        return self.disjoint_sites(self.sites(a), self.sites(b))

    def implies(self, a: VReg | None, b: VReg | None) -> bool:
        """``a`` true at this point implies ``b`` true."""
        if a == b:
            return True
        if a is None or b is None:
            return False
        return self.implies_sites(self.sites(a), self.sites(b))

    def implies_execution(self, a: VReg | None, b: VReg | None) -> bool:
        """Guard ``a`` executing implies guard ``b`` executes."""
        if b is None:
            return True
        if a is None:
            return False
        return self.implies(a, b)

    # -- site-pinned queries (for cross-point reasoning) --------------------------

    def disjoint_sites(self, a: Iterable[int], b: Iterable[int]) -> bool:
        """Every (x, y) pair of the two webs is provably disjoint.

        Site sets captured at *earlier* points of the same block may be
        queried here: sites never re-execute between two points of one
        straight-line block execution, so their facts still describe the
        same values.
        """
        a, b = set(a), set(b)
        if not a or not b:
            return False
        # UNDEF pairs prove nothing on their own, but a known-zero other
        # side still wins (0 ∧ anything = 0); facts_disjoint covers that
        # because no fact ever mentions UNDEF.  Identical sites carry the
        # same value, disjoint from itself only when known zero.
        return all(
            (facts_disjoint(self.facts, x, y) if x != y
             else ("z", x) in self.facts)
            for x in a for y in b)

    def implies_sites(self, a: Iterable[int], b: Iterable[int]) -> bool:
        """Every value pair of the two webs satisfies x ⊆ y."""
        a, b = set(a), set(b)
        if not a or not b or UNDEF in a:
            return False  # an unwritten-path value implies nothing
        return all(facts_subset(self.facts, x, y)
                   for x in a for y in b)


def _imm_value(op: Operation):
    src = op.srcs[0]
    return getattr(src, "value", None)
