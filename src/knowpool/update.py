"""Model updates: pointed knowledge sharing and group information resolution.

A share from sender to receiver is anchored at a state w: inside the
receiver's cell of w, the receiver's relation is intersected with the
sender's dependence relation at w (computed in the pre-update model); every
other cell and every other agent is untouched.  Resolution gives every group
member the common intersection of the group's relations.

Both work on the state masks of `kripke.Model` and build the updated model
with `Model.replace_relations`, which shares the states, valuation and ideal
relation with the model it starts from and validates nothing again.
"""

from __future__ import annotations

from typing import Iterable

from .kripke import (Model, ModelError, PointedModel, _meet, _members,
                     _relation, _state_bit)


def share_update(m: Model, w: str, a: str, b: str) -> Model:
    """The model after sender `a` conveys their knowledge to receiver `b` at `w`."""
    i = _state_bit(m, w)
    sender_at, receiver_at = _relation(m, a), _relation(m, b)
    # the dependence relation at w: cl_a(w) is one class, and each block
    # outside it another; each state of b's cell keeps its class's part
    target = receiver_at[i]
    if not target & ~sender_at[i]:  # inside a's cell, so inside cl_a(w)
        return m
    outside = target & ~m._closure_at(a)[i]
    if not outside:
        return m
    inside, blocks = target ^ outside, m._blocks()
    at = list(receiver_at)
    for j in _members(target):
        at[j] = outside & blocks[j] if outside >> j & 1 else inside
    return m.replace_relations({b: tuple(at)})


def resolve_update(m: Model, group: Iterable) -> Model:
    """Every group member's relation becomes the meet of the group's relations."""
    # a string is not split into one agent per letter
    if isinstance(group, str) or not hasattr(group, "__iter__"):
        raise ModelError("%r is not a group of agent names" % (group,))
    members = tuple(group)  # a repeated member changes nothing
    if not members:
        raise ModelError("resolution needs a non-empty group")
    relations = [_relation(m, g) for g in members]
    meet = _meet(relations)
    if all(at == meet for at in relations):
        return m
    return m.replace_relations({g: meet for g in members})


def apply_sequence(pm: PointedModel, steps: Iterable) -> PointedModel:
    """Fold `(sender, receiver)` share updates left to right, each anchored
    at the point; the same pointed model if no step changes anything."""
    m = pm.model
    for step in steps:
        if not (isinstance(step, (tuple, list)) and len(step) == 2):
            raise ModelError("share step %r is not a pair" % (step,))
        m = share_update(m, pm.point, *step)
    if m is pm.model:
        return pm
    return PointedModel(m, pm.point)
