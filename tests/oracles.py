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

from knowpool.formula import OkAtom, meta_formulas_of, substitute
from knowpool.kripke import PointedModel, fingerprint
from knowpool.norms import Plan
from knowpool.semantics import EvalContext, extension
from knowpool.update import share_update


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


def equiv_classes(m, agent, state):
    """Grouping of states by agreement on everything the agent knows.

    A set of states counts as knowable content when it is a union of
    definable classes covering the agent's cell.  Two states are grouped
    together iff no such set separates them; the quantification over all
    unions is taken literally.
    """
    blocks = naive_blocks(m)
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
