"""Independent reference computations used to freeze expected test values.

Everything here is written for clarity over speed and deliberately avoids
the package's own refinement and canonicalisation code paths, so that a
bug in the implementation cannot hide inside its oracle.  The exception is
`fingerprint_plan`, a planner that merges isomorphic nodes through
`fingerprint`: the reference that exact-model deduplication must match.
"""

from __future__ import annotations

import itertools
from collections import deque

from knowpool.formula import (_BINARY, And, Atom, Bot, D, Everybody,
                              IdealAtom, Iff, Imp, K, LeaderResolution, Not,
                              Obliged, OkAtom, Or, Permitted, PermittedShare,
                              Resolution, ResolveInfo, Share, Top, _Parser,
                              meta_formulas_of, substitute)
from knowpool.kripke import Model, PointedModel, dep_closure, fingerprint
from knowpool.norms import Plan
from knowpool.semantics import EvalContext, EvalError, extension
from knowpool.update import resolve_update, share_update


def naive_blocks(m):
    """Fixpoint refinement into state classes definable in the language.

    Start from valuation classes and keep splitting by the multiset of
    classes each agent can reach, until nothing changes.
    """
    groups = {}
    for s in m.states:
        groups.setdefault(m.val[s], set()).add(s)
    part = [frozenset(b) for b in groups.values()]
    while True:
        index = {s: b for b in part for s in b}
        refined = {}
        for s in m.states:
            sig = (index[s],
                   tuple(frozenset(index[u] for u in m.cell(a, s))
                         for a in m.agents))
            refined.setdefault(sig, set()).add(s)
        new_part = [frozenset(b) for b in refined.values()]
        if len(new_part) == len(part):
            return frozenset(part)
        part = new_part


_equiv_cache = {}

# the model `equiv_classes` last refined and its `naive_blocks`: callers ask
# about every agent and state of one model in a row, and models are not
# changed after they are built
_last_blocks = [None, None]


def equiv_classes(m, agent, state):
    """Grouping of states by agreement on everything the agent knows.

    A set of states counts as knowable content when it is a union of
    definable classes covering the agent's cell.  Two states are grouped
    together iff no such set separates them; the quantification over all
    unions is taken literally.
    """
    if _last_blocks[0] is not m:
        _last_blocks[:] = [m, naive_blocks(m)]
    blocks = _last_blocks[1]
    cell = m.cell(agent, state)
    key = (blocks, cell)
    try:
        return _equiv_cache[key]
    except KeyError:
        pass
    forced = [b for b in blocks if b & cell]
    free = [b for b in blocks if not b & cell]
    base = frozenset().union(*forced)
    sigs = {s: [] for s in m.states}
    for k in range(len(free) + 1):
        for combo in itertools.combinations(free, k):
            known = base.union(*combo) if combo else base
            for s in m.states:
                sigs[s].append(s in known)
    grouped = {}
    for s in m.states:
        grouped.setdefault(tuple(sigs[s]), set()).add(s)
    out = frozenset(frozenset(g) for g in grouped.values())
    _equiv_cache[key] = out
    return out


def reference_share_update(m, w, sender, receiver):
    """The share update by its definition: the receiver's cell of w is cut
    by the sender's dependence relation at w, whose classes are those of
    `equiv_classes`; every other cell and every other agent stays."""
    target = m.cell(receiver, w)
    pieces = [target & k for k in equiv_classes(m, sender, w) if target & k]
    cells = [c for c in m.cells(receiver) if c != target] + pieces
    return _with_relations(m, {receiver: cells})


def reference_resolve_update(m, group):
    """Resolution by its definition: each member's cell of a state becomes
    the meet of the group's cells of that state."""
    meet = {frozenset.intersection(*(m.cell(g, s) for g in group))
            for s in m.states}
    return _with_relations(m, {g: tuple(meet) for g in group})


def _with_relations(m, new):
    rel = dict(m.rel)
    rel.update(new)
    return Model(m.states, m.agents, m.atoms, rel, m.val, ideal=m.ideal,
                 point=m.point)


def permuted(m, order):
    """The same model with its states listed in another order."""
    return Model([m.states[i] for i in order], m.agents, m.atoms, m.rel,
                 m.val, ideal=m.ideal, point=m.point)


def isomorphic(m1, m2) -> bool:
    """Exhaustive bijection search deciding model isomorphism."""
    if (len(m1.states) != len(m2.states) or m1.agents != m2.agents
            or m1.atoms != m2.atoms):
        return False
    if (m1.ideal is None) != (m2.ideal is None):
        return False
    for perm in itertools.permutations(m2.states):
        f = dict(zip(m1.states, perm))
        if any(m2.val[f[s]] != m1.val[s] for s in m1.states):
            continue
        if any(frozenset(frozenset(f[s] for s in c) for c in m1.rel[a])
               != frozenset(m2.rel[a]) for a in m1.agents):
            continue
        if m1.ideal is not None:
            mapped = frozenset(frozenset(f[s] for s in pair)
                               for pair in m1.ideal)
            if mapped != m2.ideal:
                continue
        if (m1.point is None) != (m2.point is None):
            continue
        if m1.point is not None and f[m1.point] != m2.point:
            continue
        return True
    return False


def fingerprint_plan(pm, goal, max_len=None, require_permissible=True):
    """Breadth-first share planning that merges isomorphic search nodes.

    Nodes are deduplicated on their canonical fingerprint, so the search
    visits one node per isomorphism class of pointed models.  Returns the
    same `Plan` (or None) that `norms.plan` is required to return.
    """
    ctx = EvalContext()
    base, w = pm.model, pm.point

    def permitted(m, receiver):
        if m.ideal is None:
            return None
        return w in extension(m, OkAtom(receiver), ctx)

    pairs = [(x, y) for x in sorted(base.agents)
             for y in sorted(base.agents) if x != y]
    seen = {fingerprint(PointedModel(base, w))}
    queue = deque([(base, ())])
    while queue:
        m, steps = queue.popleft()
        if w in extension(m, goal, ctx):
            verdicts = []
            m = base
            for sender, receiver in steps:
                m = share_update(m, w, sender, receiver)
                verdicts.append(permitted(m, receiver))
            return Plan(steps, tuple(verdicts), goal, True)
        if max_len is not None and len(steps) >= max_len:
            continue
        for sender, receiver in pairs:
            nxt = share_update(m, w, sender, receiver)
            if nxt is m:
                continue
            if require_permissible and not permitted(nxt, receiver):
                continue
            fp = fingerprint(PointedModel(nxt, w))
            if fp in seen:
                continue
            seen.add(fp)
            queue.append((nxt, steps + ((sender, receiver),)))
    return None


def relaxed_instances(template, pool, agents):
    """Instances of a template over the placeholders A, B and C, with B and
    C distinct and A unrestricted, deduplicated in enumeration order.

    This is the lab's former separate enumeration for `perm_receiver_swap`,
    the reference for `instantiate(..., free=("A",))`.
    """
    fvars = sorted(meta_formulas_of(template))
    seen = set()
    for x in agents:
        for y, z in itertools.permutations(agents, 2):
            amap = {"A": x, "B": y, "C": z}
            for fs in itertools.product(pool, repeat=len(fvars)):
                inst = substitute(template, dict(zip(fvars, fs)), amap)
                if inst not in seen:
                    seen.add(inst)
                    yield inst


def reference_extension(m, f):
    """The states of `m` where `f` holds, by plain recursion on the formula.

    This is the evaluator as it stood before formula nodes were interned:
    no memo, no evaluation context, no shared nodes, and every defined
    operator evaluated by its definition instead of through `expand`, so
    it reads node fields only and never relies on node identity.  A share
    updates the model separately at every state.
    """
    states = frozenset(m.states)

    def holds(g):
        return reference_extension(m, g)

    def boxed(reach_of, body):
        inside = holds(body)
        return frozenset(w for w in m.states if reach_of(w) <= inside)

    for a in _agents_in_slots(f):
        if a not in m.rel:
            raise EvalError("unknown agent %r" % (a,))
    if isinstance(f, Atom):
        if f.name not in m.atoms:
            raise EvalError("unknown atom %r" % f.name)
        return frozenset(s for s in m.states if f.name in m.val[s])
    if isinstance(f, Top):
        return states
    if isinstance(f, Bot):
        return frozenset()
    if isinstance(f, Not):
        return states - holds(f.body)
    if isinstance(f, And):
        return holds(f.left) & holds(f.right)
    if isinstance(f, Or):
        return holds(f.left) | holds(f.right)
    if isinstance(f, Imp):
        return (states - holds(f.left)) | holds(f.right)
    if isinstance(f, Iff):
        return states - (holds(f.left) ^ holds(f.right))
    if isinstance(f, K):
        def reach(w):
            out = m.cell(f.agent, w)
            for d in f.deps:
                out = out & dep_closure(m, d, w)
            return out
        return boxed(reach, f.body)
    if isinstance(f, D):
        return boxed(lambda w: frozenset.intersection(
            *(m.cell(a, w) for a in f.group)), f.body)
    if isinstance(f, Share):
        return _reference_chain(m, ((f.sender, f.receiver),), f.body)
    if isinstance(f, ResolveInfo):
        return reference_extension(resolve_update(m, f.group), f.body)
    if isinstance(f, IdealAtom):
        _need_ideal(m)
        return frozenset(s for s in m.states if m.ideal_partners(s))
    if isinstance(f, OkAtom):
        _need_ideal(m)
        return frozenset(s for s in m.states
                         if m.cell(f.agent, s) & m.ideal_partners(s))
    # the defined operators
    if isinstance(f, Everybody):
        return frozenset.intersection(
            *(boxed(lambda w, a=a: m.cell(a, w), f.body) for a in f.group))
    if isinstance(f, Resolution):
        g = f.group
        forward = [(g[i], g[i + 1]) for i in range(len(g) - 1)]
        back = [(r, s) for s, r in reversed(forward)]
        return _reference_chain(m, tuple(forward + back), f.body)
    if isinstance(f, LeaderResolution):
        g = f.group
        return _reference_chain(
            m, tuple((g[i], g[i + 1]) for i in range(len(g) - 1)), f.body)
    if isinstance(f, Permitted):
        return boxed(lambda w: m.cell(f.agent, w), f.body) \
            & holds(OkAtom(f.agent))
    if isinstance(f, Obliged):
        return states - (boxed(lambda w: m.cell(f.agent, w), Not(f.body))
                         & holds(OkAtom(f.agent)))
    if isinstance(f, PermittedShare):
        return _reference_chain(m, ((f.sender, f.receiver),),
                                OkAtom(f.receiver))
    raise EvalError("cannot evaluate %r" % (f,))


def _reference_chain(m, pairs, body):
    """[s1>r1][s2>r2]...body, each share anchored at the evaluation state."""
    if not pairs:
        return reference_extension(m, body)
    (sender, receiver), rest = pairs[0], pairs[1:]
    return frozenset(
        w for w in m.states
        if w in _reference_chain(share_update(m, w, sender, receiver),
                                 rest, body))


def _agents_in_slots(f):
    names = []
    for slot in ("agent", "sender", "receiver", "leader"):
        if hasattr(f, slot):
            names.append(getattr(f, slot))
    for slot in ("group", "deps"):
        names.extend(getattr(f, slot, ()))
    return names


def _need_ideal(m):
    if m.ideal is None:
        raise EvalError("the deontic atoms need an ideal relation")


class LayeredParser(_Parser):
    """The parser with one recursive-descent level per connective of
    `_BINARY`, as it was before precedence climbing: each level reads the
    next tighter one, then loops over its own connective, reading a
    right-associative one's right side at its own level.  Depth is
    accounted as in the package's parser."""

    def binary(self, level):
        if level == len(_BINARY):
            return self.unary()
        word, cls, right = _BINARY[level]
        f = self.binary(level + 1)
        while self.words[self.pos] == word:
            self.pos += 1
            if right:
                self.enter()
                f = cls(f, self.binary(level))
                self.depth -= 1
            else:
                f = cls(f, self.binary(level + 1))
        return f


def layered_parse(text):
    return LayeredParser(text).run()
