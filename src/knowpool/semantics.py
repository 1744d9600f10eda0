"""Truth evaluation: extensions, pointed checks, and global truth.

`extension` computes the set of states where a formula holds.  Share and
resolution operators evaluate the body in the updated model; the update for
a share is anchored at the current evaluation state, so a boxed formula may
build a different model per state.  An `EvalContext` memoizes extensions per
(model, kernel node) and reuses updated models across states that trigger
the same update.  Formula nodes are interned and cache their own expansion
(see `formula`), so a memo key hashes in constant time and a formula seen
before is not expanded again; the same model object should be passed for
the memo to hit without comparing models field by field.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import (_AGENT, And, Atom, Bot, D, Formula, Iff, IdealAtom, Imp,
                      K, MetaFormula, Not, OkAtom, Or, ResolveInfo, Share, Top,
                      _agent_fields, expand)
from .kripke import Model, PointedModel, dep_closure, save
from .update import resolve_update, share_update


class EvalError(ValueError):
    """Evaluation against a model that cannot interpret the formula."""


class EvalContext:
    """Shared memo across evaluations.  With debug=True every cache hit is
    re-derived and compared, trading speed for a self-check."""

    def __init__(self, debug: bool = False):
        self.debug = debug
        self._ext = {}
        self._upd = {}
        self._res = {}

    def updated(self, m: Model, w: str, sender: str, receiver: str) -> Model:
        # the update depends on the state only through (cell, closure)
        key = (m, sender, receiver, m.cell(receiver, w),
               dep_closure(m, sender, w))
        out = self._upd.get(key)
        if out is None:
            out = share_update(m, w, sender, receiver)
            self._upd[key] = out
        elif self.debug:
            assert out == share_update(m, w, sender, receiver)
        return out

    def resolved(self, m: Model, group: tuple) -> Model:
        key = (m, frozenset(group))
        out = self._res.get(key)
        if out is None:
            out = resolve_update(m, group)
            self._res[key] = out
        return out


def extension(m: Model, f: Formula, ctx: EvalContext | None = None) -> frozenset:
    """All states of `m` where `f` holds.  Macros are expanded up front,
    once per node (`expand` caches the kernel on the node)."""
    if ctx is None:
        ctx = EvalContext()
    return _ext(m, expand(f), ctx)


def _ext(m: Model, f: Formula, ctx: EvalContext) -> frozenset:
    key = (m, f)
    hit = ctx._ext.get(key)
    if hit is not None:
        if ctx.debug:
            fresh = _compute(m, f, ctx)
            assert fresh == hit, "memo entry diverged from recomputation"
        return hit
    out = _compute(m, f, ctx)
    ctx._ext[key] = out
    return out


def _compute(m: Model, f: Formula, ctx: EvalContext) -> frozenset:
    for name, role, _ in _agent_fields(type(f)):
        names = getattr(f, name)
        for a in (names,) if role is _AGENT else names:
            if a not in m.rel:
                raise EvalError("unknown agent %r" % (a,))
    states = frozenset(m.states)
    if isinstance(f, Atom):
        if f.name not in m.atoms:
            raise EvalError("unknown atom %r" % f.name)
        return frozenset(s for s in m.states if f.name in m.val[s])
    if isinstance(f, Top):
        return states
    if isinstance(f, Bot):
        return frozenset()
    if isinstance(f, Not):
        return states - _ext(m, f.body, ctx)
    if isinstance(f, And):
        return _ext(m, f.left, ctx) & _ext(m, f.right, ctx)
    if isinstance(f, Or):
        return _ext(m, f.left, ctx) | _ext(m, f.right, ctx)
    if isinstance(f, Imp):
        return (states - _ext(m, f.left, ctx)) | _ext(m, f.right, ctx)
    if isinstance(f, Iff):
        left, right = _ext(m, f.left, ctx), _ext(m, f.right, ctx)
        return states - (left ^ right)
    if isinstance(f, (K, D)):
        body = _ext(m, f.body, ctx)
        return frozenset(w for w in m.states if _reach(m, f, w) <= body)
    if isinstance(f, Share):
        out = set()
        for w in m.states:
            updated = ctx.updated(m, w, f.sender, f.receiver)
            if w in _ext(updated, f.body, ctx):
                out.add(w)
        return frozenset(out)
    if isinstance(f, ResolveInfo):
        return _ext(ctx.resolved(m, f.group), f.body, ctx)
    if isinstance(f, IdealAtom):
        _need_ideal(m, "O")
        return frozenset(s for s in m.states if m.ideal_partners(s))
    if isinstance(f, OkAtom):
        _need_ideal(m, "Ok{%s}" % f.agent)
        return frozenset(s for s in m.states
                         if m.cell(f.agent, s) & m.ideal_partners(s))
    if isinstance(f, MetaFormula):
        raise EvalError("schema variable %r cannot be evaluated" % f.name)
    raise EvalError("cannot evaluate %r" % (f,))


def _reach(m: Model, f: K | D, w: str) -> frozenset:
    """The states the box of `f` ranges over at w: the agent's cell met
    with each dependency's closure, or the meet of the group's cells."""
    if isinstance(f, K):
        reach = m.cell(f.agent, w)
        for d in f.deps:
            reach = reach & dep_closure(m, d, w)
        return reach
    reach = m.cell(f.group[0], w)
    for a in f.group[1:]:
        reach = reach & m.cell(a, w)
    return reach


def _need_ideal(m: Model, what: str) -> None:
    if m.ideal is None:
        raise EvalError("%s needs a model with an ideal relation" % what)


@dataclass(frozen=True)
class CheckResult:
    value: bool
    state: str
    formula: Formula
    witness: object = None

    def __bool__(self) -> bool:
        return self.value


def check(pm: PointedModel, f: Formula, ctx: EvalContext | None = None) -> CheckResult:
    """Truth at the point.  A false knowledge box carries one falsifying
    accessible state; a false share carries the updated model and the inner
    failure."""
    if ctx is None:
        ctx = EvalContext()
    m = pm.model
    g = expand(f)
    value = pm.point in _ext(m, g, ctx)
    witness = None
    if not value:
        if isinstance(g, (K, D)):
            body = _ext(m, g.body, ctx)
            witness = min(_reach(m, g, pm.point) - body, key=m._index.get)
        elif isinstance(g, Share):
            updated = ctx.updated(m, pm.point, g.sender, g.receiver)
            inner = check(PointedModel(updated, pm.point), g.body, ctx)
            witness = (save(updated), inner)
    return CheckResult(value, pm.point, f, witness)


def global_truth(m: Model, f: Formula, ctx: EvalContext | None = None) -> bool:
    """True iff the formula holds at every state."""
    return len(extension(m, f, ctx)) == len(m.states)
