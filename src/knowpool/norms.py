"""Permissibility of sharing and breadth-first search for sharing plans.

A share is permissible when the receiver still has an ideal transition at
hand afterwards.  A plan is a sequence of shares, each judged at the moment
it is executed, leading to a model where the goal formula holds at the
point.  Search is breadth-first, so returned plans have minimal length, and
ties break by the lexicographic order of (sender, receiver) pairs.

Search nodes are deduplicated on the exact model.  Every node shares the
states, valuation, ideal relation and point of the start model, so two nodes
differ only in their agent relations and `Model` equality compares exactly
those.  Merging isomorphic nodes as well would not change the plan: a share
anchored at the point commutes with every isomorphism that fixes the point,
so an isomorphic duplicate satisfies the goal exactly when the earlier node
it copies does, and breadth-first order reaches that node first.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .formula import Formula, OkAtom
from .kripke import Model, PointedModel
# unused by the planner; bench/layers.py traces `norms.fingerprint` by name
from .kripke import fingerprint  # noqa: F401
from .semantics import EvalContext, EvalError, extension
from .update import share_update


@dataclass(frozen=True)
class Plan:
    """A share sequence, the per-step verdicts, and the goal outcome."""

    steps: tuple
    verdicts: tuple
    goal: Formula
    achieved: bool

    def __len__(self) -> int:
        return len(self.steps)


def permissible_share(pm: PointedModel, sender: str, receiver: str,
                      ctx: EvalContext | None = None) -> bool:
    """Whether sharing leaves the receiver an ideal transition at the point."""
    m = pm.model
    if m.ideal is None:
        raise EvalError("permissibility needs a model with an ideal relation")
    if ctx is None:
        ctx = EvalContext()
    after = share_update(m, pm.point, sender, receiver)
    return pm.point in extension(after, OkAtom(receiver), ctx)


def _verdict(m: Model, w: str, receiver: str, ctx: EvalContext):
    # None when the model carries no norms at all
    if m.ideal is None:
        return None
    return w in extension(m, OkAtom(receiver), ctx)


def plan(pm: PointedModel, goal: Formula, max_len: int | None = None,
         require_permissible: bool = True,
         ctx: EvalContext | None = None) -> Plan | None:
    """Find a shortest share sequence making `goal` true at the point.

    With `require_permissible` only permissible shares are considered, which
    needs a deontic model.  Without it any share is allowed and the verdicts
    merely record how each step would have been judged (None when the model
    has no ideal relation).  Returns None when no plan exists within
    `max_len` steps; `max_len=None` searches the whole reachable space,
    which is finite because sharing only ever refines relations.  A
    negative `max_len` raises ValueError.

    Nodes are deduplicated on the exact model, which returns the same plan
    as deduplicating up to isomorphism (see the module docstring) without
    canonical labelling, whose cost grows factorially on symmetric models.
    """
    if max_len is not None and max_len < 0:
        raise ValueError("max_len must be non-negative, got %d" % max_len)
    base = pm.model
    w = pm.point
    if require_permissible and base.ideal is None:
        raise EvalError("permissible planning needs an ideal relation; "
                        "pass require_permissible=False for a free search")
    if ctx is None:
        ctx = EvalContext()
    pairs = [(x, y) for x in sorted(base.agents)
             for y in sorted(base.agents) if x != y]
    seen = {base}
    queue = deque([(base, ())])
    while queue:
        m, steps = queue.popleft()
        if w in extension(m, goal, ctx):
            return _finish(base, w, steps, goal, ctx)
        if max_len is not None and len(steps) >= max_len:
            continue
        for sender, receiver in pairs:
            nxt = share_update(m, w, sender, receiver)
            if nxt is m:
                continue
            if require_permissible and not _verdict(nxt, w, receiver, ctx):
                continue
            if nxt in seen:
                continue
            seen.add(nxt)
            queue.append((nxt, steps + ((sender, receiver),)))
    return None


def _finish(base: Model, w: str, steps: tuple, goal: Formula,
            ctx: EvalContext) -> Plan:
    # replay from scratch; the verdict of each step is taken when executed
    m = base
    verdicts = []
    for sender, receiver in steps:
        m = share_update(m, w, sender, receiver)
        verdicts.append(_verdict(m, w, receiver, ctx))
    achieved = w in extension(m, goal, ctx)
    if not achieved:
        raise RuntimeError("plan replay failed to reach the goal")
    return Plan(tuple(steps), tuple(verdicts), goal, achieved)
