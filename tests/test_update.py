"""Sharing and resolution updates: refinement laws and locality."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from knowpool.formula import parse
from knowpool.kripke import Model, ModelError, dep_closure, pointed
from knowpool.lab import GenConfig, gen_model
from knowpool.presets import overlap, service_desk, service_desk_deontic
from knowpool.semantics import extension
from knowpool.update import apply_sequence, resolve_update, share_update

from oracles import (permuted, reference_resolve_update,
                     reference_share_update)


def draws(n, max_states=6):
    cfg = GenConfig(max_states=max_states, samples=n)
    for i in range(n):
        m = gen_model(cfg, i)
        rng_states = m.states
        yield m, rng_states[i % len(rng_states)], \
            m.agents[i % len(m.agents)], m.agents[(i + 1) % len(m.agents)]


def meets(m):
    out = {}
    for k in range(1, len(m.agents) + 1):
        for group in itertools.combinations(m.agents, k):
            cells = set()
            for s in m.states:
                common = m.cell(group[0], s)
                for g in group[1:]:
                    common &= m.cell(g, s)
                cells.add(frozenset(common))
            out[group] = cells
    return out


class TestShare:
    def test_self_share_is_identity(self):
        m = service_desk()
        assert share_update(m, "s0", "a", "a") is m

    def test_a_receiver_inside_the_senders_cell_needs_no_closure(
            self, monkeypatch):
        # b's cell of s0 lies inside c's, so inside cl_c(s0): nothing to cut
        m = service_desk()
        monkeypatch.setattr(Model, "_closure_at",
                            lambda *args: pytest.fail("closure computed"))
        assert share_update(m, "s0", "c", "b") is m

    def test_unknown_names_rejected(self):
        m = service_desk()
        with pytest.raises(ModelError):
            share_update(m, "zz", "a", "b")
        with pytest.raises(ModelError):
            share_update(m, "s0", "zz", "b")
        with pytest.raises(ModelError):
            share_update(m, "s0", "a", "zz")

    @pytest.mark.parametrize("w, a, b", [
        (["s0"], "a", "b"), ({"s0"}, "a", "b"), ("s0", ["a"], "b"),
        ("s0", "a", ["b"])])
    def test_unhashable_names_are_unknown(self, w, a, b):
        with pytest.raises(ModelError, match="unknown"):
            share_update(service_desk(), w, a, b)

    def test_service_desk_single_shares(self):
        m = service_desk()
        assert set(share_update(m, "s0", "a", "c").cells("c")) == \
            {frozenset({"s0", "s1", "s2"}), frozenset({"s3"}),
             frozenset({"s4"})}
        assert set(share_update(m, "s0", "b", "c").cells("c")) == \
            {frozenset({"s0", "s3", "s4"}), frozenset({"s1"}),
             frozenset({"s2"})}

    def test_service_desk_double_share(self):
        m = share_update(service_desk(), "s0", "a", "c")
        m = share_update(m, "s0", "b", "c")
        assert set(m.cells("c")) == {frozenset({"s0"}), frozenset({"s1"}),
                                     frozenset({"s2"}), frozenset({"s3"}),
                                     frozenset({"s4"})}

    def test_only_receiver_cell_at_point_changes(self):
        for m, w, a, b in draws(120):
            nxt = share_update(m, w, a, b)
            for g in m.agents:
                if g != b:
                    assert nxt.rel[g] == m.rel[g]
            target = m.cell(b, w)
            for c in m.cells(b):
                if c != target:
                    assert c in set(nxt.cells(b))
            assert nxt.val == m.val
            assert nxt.ideal == m.ideal

    def test_anchor_keeps_common_ground(self):
        # at the shared state the sender's own cell survives the cut
        for m, w, a, b in draws(200):
            nxt = share_update(m, w, a, b)
            common = m.cell(a, w) & m.cell(b, w)
            assert common <= nxt.cell(b, w)

    def test_severs_sender_links_outside_the_closure(self):
        # the cut tracks what the sender knows at the anchor, not the
        # sender's raw relation: links of theirs in the remainder go too
        m = Model(("w0", "w1", "w2"), ("a", "b"), ("p",),
                  {"a": ({"w0", "w1", "w2"},), "b": ({"w0"}, {"w1", "w2"})},
                  {"w0": set(), "w1": set(), "w2": {"p"}})
        nxt = share_update(m, "w0", "b", "a")
        assert set(nxt.cells("a")) == {frozenset({"w0"}), frozenset({"w1"}),
                                       frozenset({"w2"})}
        assert not m.cell("b", "w1") <= nxt.cell("a", "w1")

    def test_refines_receiver(self):
        for m, w, a, b in draws(120):
            nxt = share_update(m, w, a, b)
            for s in m.states:
                assert nxt.cell(b, s) <= m.cell(b, s)

    def test_result_revalidates(self):
        for m, w, a, b in draws(120):
            nxt = share_update(m, w, a, b)
            Model(nxt.states, nxt.agents, nxt.atoms, nxt.rel, nxt.val,
                  ideal=nxt.ideal, point=nxt.point)

    def test_group_meets_with_sender_fixed_at_anchor(self):
        # pooled knowledge of any group containing the sender is stable
        # at the shared state itself
        for m, w, a, b in draws(80, max_states=5):
            nxt = share_update(m, w, a, b)
            before, after = meets(m), meets(nxt)
            for grp in before:
                if a in grp:
                    cell_b = set.intersection(*[set(m.cell(g, w))
                                                for g in grp])
                    cell_a = set.intersection(*[set(nxt.cell(g, w))
                                                for g in grp])
                    assert cell_a == cell_b
                if b not in grp:
                    assert after[grp] == before[grp]

    def test_group_meet_can_shrink_off_anchor(self):
        # same model as above: the joint relation loses (w1, w2)
        m = Model(("w0", "w1", "w2"), ("a", "b"), ("p",),
                  {"a": ({"w0", "w1", "w2"},), "b": ({"w0"}, {"w1", "w2"})},
                  {"w0": set(), "w1": set(), "w2": {"p"}})
        nxt = share_update(m, "w0", "b", "a")
        assert m.cell("a", "w1") & m.cell("b", "w1") == {"w1", "w2"}
        assert nxt.cell("a", "w1") & nxt.cell("b", "w1") == {"w1"}

    def test_boolean_truth_untouched(self):
        facts = [parse(s) for s in ("p", "~q", "p & (q | ~r)", "p -> r")]
        for m, w, a, b in draws(60):
            nxt = share_update(m, w, a, b)
            for f in facts:
                assert extension(nxt, f) == extension(m, f)

    def test_receiver_cut_matches_sender_closure(self):
        # inside the shared cell the receiver's new cell is R_b & cl_a
        for m, w, a, b in draws(150):
            if a == b:
                continue
            nxt = share_update(m, w, a, b)
            assert nxt.cell(b, w) == m.cell(b, w) & dep_closure(m, a, w)


class TestResolve:
    def test_overlap_pair(self):
        m = resolve_update(overlap(), ("a", "b"))
        want = {frozenset({"s0"}), frozenset({"s1"}), frozenset({"s2"}),
                frozenset({"s3"})}
        assert set(m.cells("a")) == want
        assert set(m.cells("b")) == want

    def test_idempotent_and_order_free(self):
        for m, _, a, b in draws(60, max_states=5):
            if a == b:
                continue
            once = resolve_update(m, (a, b))
            assert resolve_update(once, (a, b)) is once
            assert resolve_update(m, (b, a)) == once

    def test_empty_group_rejected(self):
        with pytest.raises(ModelError):
            resolve_update(service_desk(), ())

    @pytest.mark.parametrize("group", [(["a"], "b"), ("a", {"b"}),
                                       ("a", None)])
    def test_unknown_members_rejected(self, group):
        with pytest.raises(ModelError, match="unknown agent"):
            resolve_update(service_desk(), group)

    @pytest.mark.parametrize("group", ["ab", "a", None])
    def test_a_string_is_not_a_group(self, group):
        with pytest.raises(ModelError, match="not a group"):
            resolve_update(service_desk(), group)

    def test_single_member_is_identity(self):
        m = service_desk()
        assert resolve_update(m, ("a",)) is m
        assert resolve_update(m, ("a", "a")) is m


class TestSequence:
    def test_tuple_steps(self):
        pm = pointed(service_desk())
        out = apply_sequence(pm, [("a", "c"), ("b", "c")])
        assert set(out.model.cells("c")) == \
            {frozenset({s}) for s in pm.model.states}
        assert out.point == "s0"

    def test_share_step_anchor_checked(self):
        # a pair step is anchored at the point, whichever point that is
        pm = pointed(service_desk_deontic())
        ok = apply_sequence(pm, [("a", "c")])
        assert ok.model.ideal == pm.model.ideal
        assert ok.model == share_update(pm.model, "s0", "a", "c")
        at_s3 = apply_sequence(pointed(pm.model, "s3"), [("a", "c")])
        assert at_s3.model == share_update(pm.model, "s3", "a", "c")
        assert at_s3.model != ok.model

    def test_no_op_returns_same_object(self):
        pm = pointed(service_desk())
        assert apply_sequence(pm, []) is pm
        assert apply_sequence(pm, [("a", "a")]) is pm

    @pytest.mark.parametrize("steps", [None, 5])
    def test_steps_must_be_iterable(self, steps):
        # as resolve_update does for a group; iterating raised a TypeError
        with pytest.raises(ModelError, match="not a sequence of share steps"):
            apply_sequence(pointed(service_desk()), steps)

    @pytest.mark.parametrize("step", ["ac", ("a",), ("a", "b", "c"), None])
    def test_a_step_must_be_a_pair(self, step):
        with pytest.raises(ModelError, match="not a pair"):
            apply_sequence(pointed(service_desk()), [step])


_DEONTIC = GenConfig(max_states=5, agents=3, atoms=3, deontic=True, seed=11)


def _content(m):
    """Everything model equality compares, read by state name."""
    return (frozenset(m.states), frozenset(m.agents), frozenset(m.atoms),
            {a: frozenset(m.cells(a)) for a in m.agents}, m.val, m.ideal,
            m.point)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 199), st.data())
def test_updates_match_their_definitions(index, data):
    m = gen_model(_DEONTIC, index)
    agent = st.sampled_from(m.agents)
    w = data.draw(st.sampled_from(m.states))
    a, b = data.draw(agent), data.draw(agent)
    group = data.draw(st.lists(agent, min_size=1, max_size=3, unique=True))
    order = data.draw(st.permutations(range(len(m.states))))
    for nxt, want in ((share_update(m, w, a, b),
                       reference_share_update(m, w, a, b)),
                      (resolve_update(m, group),
                       reference_resolve_update(m, group))):
        assert _content(nxt) == _content(want)
        assert nxt == want and want == nxt and hash(nxt) == hash(want)
        # a copy listing the states in another order is equal
        twin = permuted(nxt, order)
        assert nxt == twin and twin == nxt and hash(nxt) == hash(twin)
        # an update that changes the model is unequal to it
        changed = _content(nxt) != _content(m)
        assert (nxt != m) == (m != nxt) == changed
        assert (nxt is m) == (not changed)
    # equal models reached along different anchors are equal
    first = share_update(m, w, a, b)
    for v in m.states:
        other = share_update(m, v, a, b)
        same = _content(other) == _content(first)
        assert (other == first) == (first == other) == same
        if same:
            assert hash(other) == hash(first)
