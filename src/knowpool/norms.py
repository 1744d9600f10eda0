"""Permissibility of sharing and breadth-first search for sharing plans.

A share is permissible iff `Perm(sender>receiver)` holds at the point.  A
plan is a sequence of shares, each judged at the moment it is executed,
leading to a model where the goal formula holds at the point.  Search is
breadth-first, so returned plans have minimal length, and ties break by the
lexicographic order of (sender, receiver) pairs.

Search nodes are deduplicated on the exact model.  Every node shares the
states, valuation, ideal relation and point of the start model, so two nodes
differ only in their agent relations and `Model` equality compares exactly
those.  Merging isomorphic nodes as well would not change the plan: a share
anchored at the point commutes with every isomorphism that fixes the point,
so an isomorphic duplicate satisfies the goal exactly when the earlier node
it copies does, and breadth-first order reaches that node first.

One map, `came_from`, records each node reached with the node and share it
came from; only permissible nodes enter it in a permissible search.  The
goal is tested on each node as it is reached, in queue order, which finds
the same first goal node as a test at dequeue without expanding the rest
of its layer.  The plan is read back off that map at the goal, and each
step's verdict is judged on the node that step made, so no model is built
twice.
"""

from __future__ import annotations

from collections import deque

from .formula import Formula, OkAtom, PermittedShare, Record
from .kripke import Model, PointedModel
# unused by the planner; bench/layers.py traces `norms.fingerprint` by name
from .kripke import fingerprint  # noqa: F401
from .semantics import EvalContext, EvalError, holds
# unused by the planner, which asks `holds`; bench/layers.py traces
# `norms.extension` by name
from .semantics import extension  # noqa: F401
from .update import share_update


class Plan(Record):
    """A share sequence, the per-step verdicts, and the goal outcome."""

    steps: tuple
    verdicts: tuple
    goal: Formula
    achieved: bool

    def __len__(self) -> int:
        return len(self.steps)


def permissible_share(pm: PointedModel, sender: str, receiver: str) -> bool:
    """Whether `Perm(sender>receiver)`, that is
    `[sender>receiver]Ok{receiver}`, holds at the point."""
    return holds(pm.model, pm.point, PermittedShare(sender, receiver))


def _verdict(m: Model, w: str, receiver: str, ctx: EvalContext):
    # None when the model carries no norms at all
    if m.ideal is None:
        return None
    return holds(m, w, OkAtom(receiver), ctx)


def plan(pm: PointedModel, goal: Formula, max_len: int | None = None,
         require_permissible: bool = True) -> Plan | None:
    """Find a shortest share sequence making `goal` true at the point.

    With `require_permissible` only permissible shares are considered, which
    needs a deontic model.  Without it any share is allowed and the verdicts
    merely record how each step would have been judged (None when the model
    has no ideal relation).  Returns None when no plan exists within
    `max_len` steps; `max_len=None` searches the whole reachable space,
    which is finite because sharing only ever refines relations.  A
    `max_len` that is not a non-negative integer raises ValueError.

    Nodes are deduplicated on the exact model, which returns the same plan
    as deduplicating up to isomorphism (see the module docstring) without
    canonical labelling, whose cost grows factorially on symmetric models.
    """
    if max_len is not None and (type(max_len) is not int or max_len < 0):
        raise ValueError("max_len must be a non-negative integer or None,"
                         " got %r" % (max_len,))
    base = pm.model
    w = pm.point
    if require_permissible and base.ideal is None:
        raise EvalError("permissible planning needs an ideal relation; "
                        "pass require_permissible=False for a free search")
    ctx = EvalContext()
    if holds(base, w, goal, ctx):
        return Plan((), (), goal, True)
    agents = sorted(base.agents)
    pairs = [(x, y) for x in agents for y in agents if x != y]
    came_from = {base: None}  # node -> (previous node, share)
    queue = deque([(base, 0)])
    while queue:
        m, depth = queue.popleft()
        if max_len is not None and depth >= max_len:
            continue
        for share in pairs:
            nxt = share_update(m, w, *share)
            if nxt in came_from:
                continue
            if require_permissible and not _verdict(nxt, w, share[1], ctx):
                continue
            came_from[nxt] = (m, share)
            if holds(nxt, w, goal, ctx):
                return _plan_to(nxt, came_from, w, goal, ctx)
            queue.append((nxt, depth + 1))
    return None


def _plan_to(m: Model, came_from: dict, w: str, goal: Formula,
             ctx: EvalContext) -> Plan:
    # walk back; each verdict is judged on the node its step made
    steps, verdicts = [], []
    while came_from[m] is not None:
        prev, share = came_from[m]
        steps.append(share)
        verdicts.append(_verdict(m, w, share[1], ctx))
        m = prev
    return Plan(tuple(steps[::-1]), tuple(verdicts[::-1]), goal, True)
