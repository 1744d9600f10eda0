"""Truth evaluation: extensions, point queries, pointed checks, global truth.

`extension` computes the set of states where a formula holds, and `holds`
its truth at one state.  Share and resolution operators evaluate the body
in the updated model; the update for a share is anchored at the current
evaluation state, so a boxed formula may build a different model per
state.  Evaluation is demand-driven (local model checking): each node is
evaluated only on the states its caller needs, so a point query builds the
updated models of the states it reaches and no others, while `extension`
and `global_truth` need every state.  The box and share rules loop over
the needed states' bits (`kripke._members`) rather than every state, so a
one-state need costs one step at each box and share.  An `EvalContext`
keeps one memo dict per model, holding the model's extensions per kernel
node and its updated models, which are reused across states that trigger
the same update.  The evaluator looks a model's memo dict up once when it
enters the model, not once per node, and the context keeps one object per
model content: an update that builds a model equal to one the context
built before hands back the earlier object, so the memo finds it by
identity.  Formula nodes are interned and cache their own expansion (see
`formula`), so a memo key hashes in constant time and a formula seen
before is not expanded again.

Evaluation works on state masks (see `kripke`): one rule per kernel node
type maps a model, a node and a mask of needed states to the mask of the
states where the node holds, right on the needed ones; the update memo is
keyed by the receiver, its cell and the sender's closure as masks, and
state names appear only in what `extension`, `holds` and `check` take and
return.
The sender is not in that key: `share_update` reads it only through its
closure, so senders with equal closures share one updated model.
"""

from __future__ import annotations

from collections import defaultdict

from .formula import (_AGENT, _AGENTS, And, Atom, Bot, D, Formula, Iff,
                      IdealAtom, Imp, K, MetaFormula, Not, OkAtom, Or, Record,
                      ResolveInfo, Share, Top, expand)
from .kripke import Model, PointedModel, _meet, _members, _state_bit
# unused here; bench/layers.py traces `semantics.dep_closure` by name
from .kripke import dep_closure  # noqa: F401
from .update import resolve_update, share_update


class EvalError(ValueError):
    """Evaluation against a model that cannot interpret the formula."""


class EvalContext:
    """Shared memo across evaluations: one dict per model, keyed by the
    model and looked up once per model an evaluation enters.  A model's
    dict maps a kernel node to its extension, `(receiver, cell, closure)`
    to the updated model and `frozenset(group)` to the resolved model;
    these key types never compare equal.  A node's extension is a plain
    int mask once it is known at every state, and a `(known, value)` pair
    of masks while it is known only on `known`; a later ask for other
    states extends the pair.  Of equal updated models
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
            share_update(m, w, sender, receiver)
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
    return m._names(_ext(m, ctx._memo[m], expand(f), ctx, m._frame.full))


def holds(m: Model, w: str, f: Formula, ctx: EvalContext | None = None) -> bool:
    """Whether `f` holds at state `w` of `m`.  Each node is evaluated only
    on the states the query reaches, so a share builds the updated model of
    `w` alone where `extension` would build one per state."""
    if ctx is None:
        ctx = EvalContext()
    bit = 1 << _state_bit(m, w)
    return bool(_ext(m, ctx._memo[m], expand(f), ctx, bit) & bit)


def _ext(m: Model, memo: dict, f: Formula, ctx: EvalContext, need: int) -> int:
    """The states where `f` holds, as a mask of `m`'s states that is right
    on the states of the mask `need` (other bits are unspecified); `memo`
    is `ctx._memo[m]`.  The rule runs only on the needed states the memo
    entry does not know yet, and the entry then knows them too: a plain
    mask once it knows every state, else a `(known, value)` pair whose
    value is right on `known`."""
    hit = memo.get(f)
    if hit is None:
        known = 0
    elif type(hit) is int:
        if not ctx.debug:
            return hit
        known, value = m._frame.full, hit
    else:
        known, value = hit
        if not need & ~known and not ctx.debug:
            return value
    rule, slots = _RULES.get(type(f), (None, ()))
    for name, role, _ in slots:
        names = getattr(f, name)
        for a in (names,) if role is _AGENT else names:
            if a not in m._cell_at:
                raise EvalError("unknown agent %r" % (a,))
    if rule is None:
        raise EvalError("cannot evaluate %r" % (f,))
    if not known:  # nothing known yet: store the answer as it comes
        out = rule(m, memo, f, ctx, need)
        memo[f] = out if need == m._frame.full else (need, out)
        return out
    ask = need if ctx.debug else need & ~known
    out = rule(m, memo, f, ctx, ask)
    assert not (out ^ value) & ask & known, \
        "memo entry diverged from recomputation"
    out = value & ~ask | out & ask
    known |= ask
    memo[f] = out if known == m._frame.full else (known, out)
    return out


# One rule per kernel node type: rule(model, its memo dict, node, context,
# need) -> state mask, right on the states of `need`.  Each rule asks its
# subformulas only for the states it reads.  Rules that enter an updated
# model recurse through `_ext` with that model's memo dict, so a nesting
# level costs no extra frame.


def _atom(m: Model, memo: dict, f: Atom, ctx: EvalContext, need: int) -> int:
    if f.name not in m.atoms:
        raise EvalError("unknown atom %r" % f.name)
    return m._frame.val.get(f.name, 0)


def _box(m: Model, memo: dict, f: K | D, ctx: EvalContext, need: int) -> int:
    # the body is needed on the reach of each needed state only
    reach = _reach(m, f)
    needed = _members(need)
    ask = 0
    for i in needed:
        ask |= reach[i]
    body = _ext(m, memo, f.body, ctx, ask)
    out = 0
    for i in needed:
        r = reach[i]
        if r & body == r:
            out |= 1 << i
    return out


def _share(m: Model, memo: dict, f: Share, ctx: EvalContext, need: int) -> int:
    # each needed state's updated model is asked for that state alone, or
    # for every state when every state is needed, since states that see
    # one updated model then share its one full evaluation
    full = m._frame.full
    names = m._frame.names
    out = 0
    for i in _members(need):
        bit = 1 << i
        updated = ctx.updated(m, names[i], f.sender, f.receiver)
        out |= _ext(updated, ctx._memo[updated], f.body, ctx,
                    full if need == full else bit) & bit
    return out


def _resolve(m: Model, memo: dict, f: ResolveInfo, ctx: EvalContext,
             need: int) -> int:
    resolved = ctx.resolved(m, f.group)
    return _ext(resolved, ctx._memo[resolved], f.body, ctx, need)


def _ideal(m: Model, memo: dict, f: IdealAtom, ctx: EvalContext,
           need: int) -> int:
    _need_ideal(m, "O")
    return _states_where(map(bool, m._frame.partners))


def _ok(m: Model, memo: dict, f: OkAtom, ctx: EvalContext, need: int) -> int:
    _need_ideal(m, "Ok{%s}" % f.agent)
    return _states_where(map(int.__and__, m._cell_at[f.agent],
                             m._frame.partners))


def _meta(m: Model, memo: dict, f: MetaFormula, ctx: EvalContext,
          need: int) -> int:
    raise EvalError("schema variable %r cannot be evaluated" % f.name)


# each kernel node type -> (its rule, its agent slots, which `_ext` looks up
# in the model before the rule runs).  The Boolean rules pass `need` to
# both sides.
_RULES = {cls: (rule, tuple(slot for slot in cls._layout
                            if slot[1] in (_AGENT, _AGENTS)))
          for cls, rule in {
    Atom: _atom,
    Top: lambda m, memo, f, ctx, need: m._frame.full,
    Bot: lambda m, memo, f, ctx, need: 0,
    Not: lambda m, memo, f, ctx, need:
        m._frame.full ^ _ext(m, memo, f.body, ctx, need),
    And: lambda m, memo, f, ctx, need:
        _ext(m, memo, f.left, ctx, need) & _ext(m, memo, f.right, ctx, need),
    Or: lambda m, memo, f, ctx, need:
        _ext(m, memo, f.left, ctx, need) | _ext(m, memo, f.right, ctx, need),
    Imp: lambda m, memo, f, ctx, need: m._frame.full
        ^ _ext(m, memo, f.left, ctx, need) | _ext(m, memo, f.right, ctx, need),
    Iff: lambda m, memo, f, ctx, need: m._frame.full
        ^ _ext(m, memo, f.left, ctx, need) ^ _ext(m, memo, f.right, ctx, need),
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
        if not f.deps:
            return m._cell_at[f.agent]
        return _meet([m._cell_at[f.agent]]
                     + [m._closure_at(d) for d in f.deps])
    return _meet([m._cell_at[a] for a in f.group])


def _need_ideal(m: Model, what: str) -> None:
    if m.ideal is None:
        raise EvalError("%s needs a model with an ideal relation" % what)


class CheckResult(Record):
    value: bool
    state: str
    witness: object = None

    def __bool__(self) -> bool:
        return self.value


def check(pm: PointedModel, f: Formula, ctx: EvalContext | None = None) -> CheckResult:
    """Truth at the point, read through `holds`.  A false knowledge box
    carries one falsifying accessible state, its body asked on the point's
    reach; a false share carries `(updated model, inner CheckResult)`."""
    if ctx is None:
        ctx = EvalContext()
    m = pm.model
    g = expand(f)
    value = holds(m, pm.point, g, ctx)
    witness = None
    if not value:
        if isinstance(g, (K, D)):
            index = m._frame.index
            reach = _reach(m, g)[index[pm.point]]
            miss = reach & ~_ext(m, ctx._memo[m], g.body, ctx, reach)
            witness = next(s for s in m.states if miss >> index[s] & 1)
        elif isinstance(g, Share):
            updated = ctx.updated(m, pm.point, g.sender, g.receiver)
            inner = check(PointedModel(updated, pm.point), g.body, ctx)
            witness = (updated, inner)
    return CheckResult(value, pm.point, witness)


def global_truth(m: Model, f: Formula, ctx: EvalContext | None = None) -> bool:
    """True iff the formula holds at every state."""
    if ctx is None:
        ctx = EvalContext()
    full = m._frame.full
    return _ext(m, ctx._memo[m], expand(f), ctx, full) == full
