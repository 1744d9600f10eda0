"""Workload inputs, built deterministically from the workload seed.

Every generator takes the input seed (see `input_seed`) and returns fresh
objects, so a round of work never sees caches warmed by an earlier round.
The library is reached only through its public modules.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from knowpool.formula import Formula, agents_of, parse
from knowpool.kripke import Model, PointedModel, pointed
from knowpool.lab import DEFAULT_CONFIG, GenConfig, gen_model
from knowpool.presets import PRESETS

DEFAULT_SEED = 1729

# seeds with a stored reference; any other seed is folded onto one of them
RECORDED_SEEDS = tuple(range(16)) + (DEFAULT_SEED,)

# `golden`: the examples command without the schema library
GOLDEN_PASSES_PER_ROUND = 100

# `lab`: checked in this order.  `rev` is left out so that one round fits
# in a run; `k_share` still covers the share box.  The last five include
# the three red schemas.
LAB_SCHEMAS = ("ak5", "k_share", "pool_forward_to_round", "cl", "int_plus",
               "p_t", "inc_share", "int_minus", "p_4", "perm_transfer",
               "p_5", "perm_receiver_swap")

# `plan`
PRESET_GOALS = ("K{c}(p->q)", "K{c}(p->r)", "K{c}(q->r)", "D{a,b}p",
                "K{b}p", "K{a}q")
RANDOM_GOALS = ("K{c}p", "K{c}(p->q)", "D{a,b}q -> K{b}q", "K{b}(p|r)")
RANDOM_MODELS = 200
SYM_SIZES = tuple(range(4, 11))
SYM_GOALS = ("K{c}p", "K{c}~p")


def input_seed(seed: int) -> int:
    """The seed the inputs are built from: recorded seeds map to themselves,
    any other seed to a recorded one, so every run has a reference."""
    if seed in RECORDED_SEEDS:
        return seed
    return RECORDED_SEEDS[seed % len(RECORDED_SEEDS)]


def golden_argv(seed: int) -> list:
    return ["examples", "--no-schemas", "--seed", str(input_seed(seed))]


def lab_config(seed: int) -> GenConfig:
    return replace(DEFAULT_CONFIG, seed=input_seed(seed))


@dataclass(frozen=True)
class PlanCase:
    """One `plan()` call: where, what goal, and whether only permissible
    shares may be used."""

    pm: PointedModel
    goal: Formula
    permissible: bool


def sym(n: int) -> Model:
    """States w0..w(n-1), `p` on the even ones; `a` sees every state apart,
    `b` and `c` see none apart; the point is w0."""
    states = tuple("w%d" % i for i in range(n))
    return Model(
        states=states,
        agents=("a", "b", "c"),
        atoms=("p",),
        rel={"a": tuple(frozenset({s}) for s in states),
             "b": (frozenset(states),),
             "c": (frozenset(states),)},
        val={s: {"p"} if i % 2 == 0 else set() for i, s in enumerate(states)},
        point="w0",
    )


def _modes(m: Model):
    return (False, True) if m.ideal is not None else (False,)


def plan_presets() -> list:
    out = []
    for build in PRESETS.values():
        m = build()
        for text in PRESET_GOALS:
            goal = parse(text)
            if not agents_of(goal) <= set(m.agents):
                continue
            for perm in _modes(m):
                out.append(PlanCase(pointed(m), goal, perm))
    return out


def plan_random(seed: int) -> list:
    cfg = GenConfig(deontic=True, seed=input_seed(seed))
    out = []
    for i in range(RANDOM_MODELS):
        pm = pointed(gen_model(cfg, i))
        for text in RANDOM_GOALS:
            for perm in (False, True):
                out.append(PlanCase(pm, parse(text), perm))
    return out


def plan_sym() -> list:
    return [PlanCase(pointed(sym(n)), parse(text), False)
            for n in SYM_SIZES for text in SYM_GOALS]


def plan_cases(seed: int) -> list:
    """All `plan` ops of one round, in the order they run."""
    return plan_presets() + plan_random(seed) + plan_sym()
