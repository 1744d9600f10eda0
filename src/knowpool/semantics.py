"""Truth evaluation: extensions, pointed checks, and global truth.

`extension` computes the set of states where a formula holds.  Share and
resolution operators evaluate the body in the updated model; the update for
a share is anchored at the current evaluation state, so a boxed formula may
build a different model per state.  An `EvalContext` keeps one memo dict
per model, holding the model's extensions per kernel node and its updated
models, which are reused across states that trigger the same update.  The
evaluator looks a model's memo dict up once when it enters the model, not
once per node, and the context keeps one object per model content: an
update that builds a model equal to one the context built before hands
back the earlier object, so the memo finds it by identity.  Formula nodes
are interned and cache their own expansion (see `formula`), so a memo key
hashes in constant time and a formula seen before is not expanded again.

Evaluation works on state masks (see `kripke`): one rule per kernel node
type maps a model and a node to the mask of the states where it holds, the
update memo is keyed by the receiver, its cell and the sender's closure as
masks, and state names appear only in what `extension` and `check` return.
The sender is not in that key: `share_update` reads it only through its
closure, so senders with equal closures share one updated model.
"""

from __future__ import annotations

from collections import defaultdict

from .formula import (_AGENT, And, Atom, Bot, D, Formula, Iff, IdealAtom, Imp,
                      K, MetaFormula, Not, OkAtom, Or, Record, ResolveInfo,
                      Share, Top, _agent_fields, _fields_only, expand)
from .kripke import Model, PointedModel, _meet, _relation, _state_bit, save
# unused here; bench/layers.py traces `semantics.dep_closure` by name
from .kripke import dep_closure  # noqa: F401
from .update import resolve_update, share_update


class EvalError(ValueError):
    """Evaluation against a model that cannot interpret the formula."""


class EvalContext:
    """Shared memo across evaluations: one dict per model, keyed by the
    model and looked up once per model an evaluation enters.  A model's
    dict maps a kernel node to its extension mask, `(receiver, cell,
    closure)` to the updated model and `frozenset(group)` to the resolved
    model; these key types never compare equal.  Of equal updated models
    the context keeps the first it built and hands that one back, so there
    is one object per model content.  With debug=True every cache hit is
    re-derived, an update with the caller's own sender, and compared,
    trading speed for a self-check."""

    def __init__(self, debug: bool = False):
        self.debug = debug
        self._memo = defaultdict(dict)
        self._models = {}  # each updated model built, keyed by itself

    def updated(self, m: Model, w: str, sender: str, receiver: str) -> Model:
        # the update depends on the state and the sender only through
        # (cell, closure)
        try:
            i = m._frame.index[w]
            key = receiver, m._cell_at[receiver][i], m._closure_at(sender)[i]
        except (KeyError, TypeError):  # a name `m` lacks: say which
            _state_bit(m, w), _relation(m, sender), _relation(m, receiver)
            raise
        return self._model(m, key, share_update, w, sender, receiver)

    def resolved(self, m: Model, group: tuple) -> Model:
        return self._model(m, frozenset(group), resolve_update, group)

    def _model(self, m: Model, key, update, *args) -> Model:
        """`m`'s updated model under `key`, built by `update(m, *args)`."""
        memo = self._memo[m]
        out = memo.get(key)
        if out is None:
            out = update(m, *args)
            out = memo[key] = self._models.setdefault(out, out)
        elif self.debug:
            assert out == update(m, *args), \
                "memo entry diverged from recomputation"
        return out


def extension(m: Model, f: Formula, ctx: EvalContext | None = None) -> frozenset:
    """All states of `m` where `f` holds.  Macros are expanded up front,
    once per node (`expand` caches the kernel on the node)."""
    if ctx is None:
        ctx = EvalContext()
    return m._names(_ext(m, ctx._memo[m], expand(f), ctx))


def _ext(m: Model, memo: dict, f: Formula, ctx: EvalContext) -> int:
    """The states where `f` holds, as a mask of `m`'s states; `memo` is
    `ctx._memo[m]`."""
    hit = memo.get(f)
    if hit is not None and not ctx.debug:
        return hit
    rule, slots = _RULES.get(type(f), (None, ()))
    for name, role, _ in slots:
        names = getattr(f, name)
        for a in (names,) if role is _AGENT else names:
            if a not in m._cell_at:
                raise EvalError("unknown agent %r" % (a,))
    if rule is None:
        raise EvalError("cannot evaluate %r" % (f,))
    out = rule(m, memo, f, ctx)
    if hit is None:
        memo[f] = out
    else:
        assert out == hit, "memo entry diverged from recomputation"
    return out


# One rule per kernel node type: rule(model, its memo dict, node, context)
# -> state mask.  Rules that enter an updated model recurse through `_ext`
# with that model's memo dict, so a nesting level costs no extra frame.


def _atom(m: Model, memo: dict, f: Atom, ctx: EvalContext) -> int:
    if f.name not in m.atoms:
        raise EvalError("unknown atom %r" % f.name)
    return m._frame.val.get(f.name, 0)


def _box(m: Model, memo: dict, f: K | D, ctx: EvalContext) -> int:
    body = _ext(m, memo, f.body, ctx)
    return _states_where(reach & body == reach for reach in _reach(m, f))


def _share(m: Model, memo: dict, f: Share, ctx: EvalContext) -> int:
    out = 0
    for i, w in enumerate(m._frame.names):
        updated = ctx.updated(m, w, f.sender, f.receiver)
        out |= _ext(updated, ctx._memo[updated], f.body, ctx) & 1 << i
    return out


def _resolve(m: Model, memo: dict, f: ResolveInfo, ctx: EvalContext) -> int:
    resolved = ctx.resolved(m, f.group)
    return _ext(resolved, ctx._memo[resolved], f.body, ctx)


def _ideal(m: Model, memo: dict, f: IdealAtom, ctx: EvalContext) -> int:
    _need_ideal(m, "O")
    return _states_where(map(bool, m._frame.partners))


def _ok(m: Model, memo: dict, f: OkAtom, ctx: EvalContext) -> int:
    _need_ideal(m, "Ok{%s}" % f.agent)
    return _states_where(map(int.__and__, m._cell_at[f.agent],
                             m._frame.partners))


def _meta(m: Model, memo: dict, f: MetaFormula, ctx: EvalContext) -> int:
    raise EvalError("schema variable %r cannot be evaluated" % f.name)


# each kernel node type -> (its rule, its agent slots, which `_ext` looks up
# in the model before the rule runs)
_RULES = {cls: (rule, _agent_fields(cls)) for cls, rule in {
    Atom: _atom,
    Top: lambda m, memo, f, ctx: m._frame.full,
    Bot: lambda m, memo, f, ctx: 0,
    Not: lambda m, memo, f, ctx: m._frame.full ^ _ext(m, memo, f.body, ctx),
    And: lambda m, memo, f, ctx:
        _ext(m, memo, f.left, ctx) & _ext(m, memo, f.right, ctx),
    Or: lambda m, memo, f, ctx:
        _ext(m, memo, f.left, ctx) | _ext(m, memo, f.right, ctx),
    Imp: lambda m, memo, f, ctx: m._frame.full
        ^ _ext(m, memo, f.left, ctx) | _ext(m, memo, f.right, ctx),
    Iff: lambda m, memo, f, ctx: m._frame.full
        ^ _ext(m, memo, f.left, ctx) ^ _ext(m, memo, f.right, ctx),
    K: _box,
    D: _box,
    Share: _share,
    ResolveInfo: _resolve,
    IdealAtom: _ideal,
    OkAtom: _ok,
    MetaFormula: _meta,
}.items()}


def _states_where(flags) -> int:
    """The mask of the states whose flag, listed by bit, is set."""
    out = 0
    for i, flag in enumerate(flags):
        if flag:
            out |= 1 << i
    return out


def _reach(m: Model, f: K | D) -> tuple:
    """The states the box of `f` ranges over at each state, by bit:
    the agent's cell met with each dependency's closure, or the meet of
    the group's cells."""
    if type(f) is K:
        return _meet([m._cell_at[f.agent]]
                     + [m._closure_at(d) for d in f.deps])
    return _meet([m._cell_at[a] for a in f.group])


def _need_ideal(m: Model, what: str) -> None:
    if m.ideal is None:
        raise EvalError("%s needs a model with an ideal relation" % what)


@_fields_only
class CheckResult(Record):
    value: bool
    state: str
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
    memo = ctx._memo[m]
    i = m._frame.index[pm.point]
    value = bool(_ext(m, memo, g, ctx) >> i & 1)
    witness = None
    if not value:
        if isinstance(g, (K, D)):
            miss = _reach(m, g)[i] & ~_ext(m, memo, g.body, ctx)
            index = m._frame.index
            witness = next(s for s in m.states if miss >> index[s] & 1)
        elif isinstance(g, Share):
            updated = ctx.updated(m, pm.point, g.sender, g.receiver)
            inner = check(PointedModel(updated, pm.point), g.body, ctx)
            witness = (save(updated), inner)
    return CheckResult(value, pm.point, witness)


def global_truth(m: Model, f: Formula, ctx: EvalContext | None = None) -> bool:
    """True iff the formula holds at every state."""
    if ctx is None:
        ctx = EvalContext()
    return _ext(m, ctx._memo[m], expand(f), ctx) == m._frame.full
