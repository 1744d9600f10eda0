"""
Planning who tells whom
=======================

The planner searches breadth-first over sequences of shares, pruning
a situation it has already reached, compared as the exact model.
Pruning isomorphic copies as well would return the same plan, because a
share at the point commutes with every symmetry that fixes the point.
It can be told to use only permissible shares, or to search freely and
report the permission verdict of every step it takes.
"""

from knowpool import parse, plan, pointed
from knowpool.presets import service_desk_deontic

pm = pointed(service_desk_deontic())


def show(result):
    if result is None:
        print("  no plan")
        return
    for (sender, receiver), verdict in zip(result.steps, result.verdicts):
        print("  %s > %s  (permissible: %s)" % (sender, receiver, verdict))
    if not result.steps:
        print("  nothing to do")


# one permissible step suffices for the first goal
print("goal K{c}(p->q), permissible shares only:")
show(plan(pm, parse("K{c}(p->q)")))

# full pooling is reachable, but never permissibly
print("goal K{c}(p->r), permissible shares only, up to 4 steps:")
show(plan(pm, parse("K{c}(p->r)"), max_len=4))

# dropping the constraint finds a two-step route and flags both steps
print("goal K{c}(p->r), free search:")
show(plan(pm, parse("K{c}(p->r)"), max_len=4, require_permissible=False))

# goals already true yield the empty plan
print("goal K{a}(p->q):")
show(plan(pm, parse("K{a}(p->q)")))
