"""Permissible sharing and the breadth-first sharing planner."""

import time

import pytest

from knowpool.formula import agents_of, parse
from knowpool import norms
from knowpool.kripke import Model, pointed
from knowpool.lab import GenConfig, gen_model
from knowpool.norms import Plan, permissible_share, plan
from knowpool.presets import PRESETS, service_desk, service_desk_deontic
from knowpool.semantics import EvalError
from knowpool.update import share_update

from oracles import fingerprint_plan

PRESET_GOALS = ("K{c}(p->q)", "K{c}(p->r)", "K{c}(q->r)", "D{a,b}p",
                "K{b}p", "K{a}q")
RANDOM_GOALS = ("K{c}p", "K{c}(p->q)", "D{a,b}q -> K{b}q", "K{b}(p|r)")
BUDGETS = (None, 0, 1, 2)


class TestPermissibleShare:
    def test_single_shares_to_the_customer_are_fine(self):
        pm = pointed(service_desk_deontic())
        assert permissible_share(pm, "a", "c")
        assert permissible_share(pm, "b", "c")

    def test_needs_an_ideal_relation(self):
        with pytest.raises(EvalError):
            permissible_share(pointed(service_desk()), "a", "c")


class TestPlan:
    def test_short_goal_one_permissible_step(self):
        pm = pointed(service_desk_deontic())
        out = plan(pm, parse("K{c}(p->q)"))
        assert out is not None and out.achieved
        assert out.steps == (("a", "c"),)
        assert out.verdicts == (True,)
        assert len(out) == 1

    def test_full_pooling_has_no_permissible_route(self):
        pm = pointed(service_desk_deontic())
        assert plan(pm, parse("K{c}(p->r)"), max_len=4) is None

    def test_free_search_reaches_the_same_goal_in_two_steps(self):
        pm = pointed(service_desk_deontic())
        out = plan(pm, parse("K{c}(p->r)"), max_len=4,
                   require_permissible=False)
        assert out is not None and out.achieved
        assert out.steps == (("a", "b"), ("b", "c"))
        assert out.verdicts == (False, False)

    def test_deterministic(self):
        pm = pointed(service_desk_deontic())
        runs = [plan(pm, parse("K{c}(p->r)"), max_len=4,
                     require_permissible=False) for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]

    def test_goal_already_true_gives_empty_plan(self):
        pm = pointed(service_desk_deontic())
        out = plan(pm, parse("K{a}(p->q)"))
        assert isinstance(out, Plan)
        assert out.steps == () and out.verdicts == () and out.achieved

    def test_zero_budget(self):
        pm = pointed(service_desk_deontic())
        assert plan(pm, parse("p"), max_len=0) is not None
        assert plan(pm, parse("K{c}(p->q)"), max_len=0) is None

    def test_negative_budget_is_an_error(self):
        pm = pointed(service_desk_deontic())
        with pytest.raises(ValueError):
            plan(pm, parse("p"), max_len=-1)

    @pytest.mark.parametrize("bad", [0.5, "2", True],
                             ids=["float", "str", "bool"])
    def test_non_integer_budget_is_a_value_error(self, bad):
        # unchecked, 0.5 and True returned a plan longer than the budget
        # and "2" raised a bare TypeError
        pm = pointed(service_desk())
        with pytest.raises(ValueError) as err:
            plan(pm, parse("K{c}(p->q)"), max_len=bad,
                 require_permissible=False)
        assert str(err.value) == "max_len must be a non-negative integer" \
            " or None, got %r" % (bad,)

    def test_unreachable_goal_exhausts_the_space(self):
        pm = pointed(service_desk_deontic())
        assert plan(pm, parse("K{a}~q"), require_permissible=False) is None

    def test_planning_without_an_ideal(self):
        pm = pointed(service_desk())
        with pytest.raises(EvalError):
            plan(pm, parse("K{c}(p->q)"))
        out = plan(pm, parse("K{c}(p->q)"), require_permissible=False)
        assert out is not None
        assert out.steps == (("a", "c"),)
        assert out.verdicts == (None,)


@pytest.mark.parametrize("build, text, perm", [
    (service_desk_deontic, "K{c}(p->q)", True),
    (service_desk, "K{c}(p->r)", False)], ids=["permissible", "free"])
def test_a_found_plan_builds_each_update_once(monkeypatch, build, text, perm):
    # the plan is read off the search, not replayed from the start model
    built = []

    def counting(m, w, sender, receiver):
        built.append((m, sender, receiver))
        return share_update(m, w, sender, receiver)

    monkeypatch.setattr(norms, "share_update", counting)
    out = plan(pointed(build()), parse(text), require_permissible=perm)
    assert out is not None and len(out) >= 1
    assert len(built) == len(set(built))


def test_the_goal_is_tested_when_a_node_is_reached(monkeypatch):
    # K{c}(p->q) holds after the second share tried from the start, so the
    # search stops there instead of finishing the start's layer first
    built = []

    def counting(m, w, sender, receiver):
        built.append((sender, receiver))
        return share_update(m, w, sender, receiver)

    monkeypatch.setattr(norms, "share_update", counting)
    out = plan(pointed(service_desk()), parse("K{c}(p->q)"),
               require_permissible=False)
    assert out.steps == (("a", "c"),)
    assert built == [("a", "b"), ("a", "c")]


def _same_as_oracle(pm, goal, perm):
    for budget in BUDGETS:
        got = plan(pm, goal, max_len=budget, require_permissible=perm)
        want = fingerprint_plan(pm, goal, max_len=budget,
                                require_permissible=perm)
        assert got == want, (pm.model, goal, perm, budget)


class TestExactDedupMatchesIsomorphismDedup:
    """Deduplicating on the exact model returns the plan of the search
    that merges isomorphic nodes: same steps, verdicts and None cases."""

    def test_presets(self):
        for build in PRESETS.values():
            m = build()
            for text in PRESET_GOALS:
                goal = parse(text)
                if not agents_of(goal) <= set(m.agents):
                    continue
                for perm in (False, True) if m.ideal is not None else (False,):
                    _same_as_oracle(pointed(m), goal, perm)

    def test_random_deontic_models(self):
        cfg = GenConfig(deontic=True, seed=2024)
        goals = [parse(text) for text in RANDOM_GOALS]
        for i in range(200):
            pm = pointed(gen_model(cfg, i))
            for goal in goals:
                for perm in (False, True):
                    _same_as_oracle(pm, goal, perm)


def test_symmetric_model_plans_without_canonical_labelling():
    # every state of a colour class is interchangeable, which made
    # isomorphism dedup branch factorially (about 117 s on this model)
    states = tuple("w%d" % i for i in range(12))
    m = Model(states=states, agents=("a", "b", "c"), atoms=("p", "q"),
              rel={"a": tuple(frozenset({s}) for s in states),
                   "b": (frozenset(states),),
                   "c": (frozenset(states),)},
              val={s: {x for x, k in (("p", 2), ("q", 3)) if i % k == 0}
                   for i, s in enumerate(states)},
              point="w0")
    pm = pointed(m)
    start = time.perf_counter()
    found = plan(pm, parse("K{c}(p&q)"), require_permissible=False)
    assert found is not None and found.steps == (("a", "c"),)
    assert plan(pm, parse("K{c}~p"), require_permissible=False) is None
    assert time.perf_counter() - start < 10.0
