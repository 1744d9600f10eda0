"""Schema laboratory: stress-test logical laws over generated model banks.

Every schema in the registry is instantiated over small formula pools and
evaluated on two tiers of models: an exhaustive tier of all small models
(every state count up to three, two agents, two atoms, valuations taken in
a sorted normal form so every isomorphism class appears) and a seeded
random tier.  Axioms claimed valid must survive the whole bank; axioms
claimed invalid must exhibit a countermodel, searched for over a dedicated
exhaustive deontic tier of up to four states.  Inference rules are checked
in their per-model form (premise globally true here implies the conclusion
globally true here), which is stronger than rule admissibility; their
failures are reported but tolerated.  A rule has one premise and is stored
as the template `(premise) -> (conclusion)`, instantiated like an axiom.
Axioms, rules and the hand-written checkers share one search loop
(`Lab.check`): each supplies, per model, a generator of cases that either
hold or name a refuted instance and state.

The module also carries the golden fact table for the built-in example
models and a comparison of the two candidate readings of the permission
operator's second conjunct.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import replace

from .formula import (And, Atom, Formula, IdealAtom, Iff, Imp, K, Not,
                      OkAtom, Or, PermittedShare, Record, Schema, Share,
                      expand, instantiate, meta_agents_of, meta_formulas_of,
                      parse, rewrite)
# unused here; bench/layers.py traces `lab.substitute` by name
from .formula import substitute  # noqa: F401
from .kripke import Model, atoms_partition, dep_closure
from .presets import PRESETS
from .semantics import EvalContext, extension, global_truth, holds

AGENT_NAMES = ("a", "b", "c")
ATOM_NAMES = ("p", "q", "r")

# fixed exhaustive tier for validity claims
EXHAUSTIVE = (3, 2, 2)
# larger deontic tier searched for countermodels of invalidity claims
INVALIDITY_TIER = (4, 2, 2)


class GenConfig(Record):
    """Shape of the random model tier; the seed pins every draw."""

    max_states: int = 5
    agents: int = 3
    atoms: int = 3
    deontic: bool = False
    samples: int = 500
    seed: int = 1729

    def __post_init__(self):
        for field in ("max_states", "agents", "atoms", "samples", "seed"):
            value = getattr(self, field)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError("a model config needs an integer %s, got %r"
                                 % (field, value))
        if not isinstance(self.deontic, bool):
            raise ValueError("a model config needs a bool deontic, got %r"
                             % (self.deontic,))
        # AGENT_NAMES and ATOM_NAMES hold three names each
        if not (1 <= self.agents <= 3 and 1 <= self.atoms <= 3
                and self.max_states >= 1 and self.samples >= 0):
            raise ValueError("a model config needs 1 to 3 agents and atoms,"
                             " max_states >= 1 and samples >= 0, got %r"
                             % (self,))


DEFAULT_CONFIG = GenConfig()


# ---------------------------------------------------------------------------
# model generation


def gen_model(cfg: GenConfig, index: int) -> Model:
    """Deterministically generate the index-th random model for a config."""
    rng = random.Random(cfg.seed * 1_000_003 + index)
    n = rng.randint(1, cfg.max_states)
    states = tuple("w%d" % i for i in range(n))
    agents = AGENT_NAMES[:cfg.agents]
    atoms = ATOM_NAMES[:cfg.atoms]
    val = {s: {x for x in atoms if rng.random() < 0.5} for s in states}
    rel = {}
    for ag in agents:
        buckets = {}
        for s in states:
            buckets.setdefault(rng.randrange(n), set()).add(s)
        rel[ag] = tuple(frozenset(c) for c in buckets.values())
    ideal = None
    if cfg.deontic:
        cand = _ideal_candidates(agents, rel)
        picked = tuple(pair for pair in cand if rng.random() < 0.3)
        if not picked:
            picked = (cand[rng.randrange(len(cand))],)
        ideal = picked
    point = rng.choice(states)
    return Model(states, agents, atoms, rel, val, ideal=ideal, point=point)


def _ideal_candidates(agents, rel):
    # undirected pairs lying inside some agent's cell, self-loops included
    cand = set()
    for ag in agents:
        for cell in rel[ag]:
            for u in cell:
                for v in cell:
                    cand.add((u, v) if u <= v else (v, u))
    return sorted(cand)


def set_partitions(items):
    """Yield every partition of `items` into nonempty blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] | {first}] + part[i + 1:]
        yield [{first}] + part


def enumerate_models(max_states: int, n_agents: int, n_atoms: int,
                     deontic: bool = False):
    """All models up to the given size, valuations in sorted normal form.

    State relabelling can sort the valuation codes without loss, so every
    isomorphism class of models has at least one representative here.
    """
    if type(max_states) is not int or max_states < 1:
        raise ValueError("a model bank needs max_states >= 1, got %r"
                         % (max_states,))
    if not all(type(n) is int and 1 <= n <= 3 for n in (n_agents, n_atoms)):
        raise ValueError("a model bank needs 1 to 3 agents and atoms, got"
                         " %r and %r" % (n_agents, n_atoms))
    agents = AGENT_NAMES[:n_agents]
    atoms = ATOM_NAMES[:n_atoms]
    for n in range(1, max_states + 1):
        states = tuple("w%d" % i for i in range(n))
        parts = [tuple(frozenset(b) for b in p)
                 for p in set_partitions(states)]
        codeseqs = itertools.combinations_with_replacement(
            range(2 ** n_atoms), n)
        for codes in codeseqs:
            val = {s: {atoms[i] for i in range(n_atoms) if code >> i & 1}
                   for s, code in zip(states, codes)}
            for rels in itertools.product(parts, repeat=n_agents):
                rel = dict(zip(agents, rels))
                ideals = [None]
                if deontic:
                    # one variant per single ideal pair, plus the full
                    # attainable ideal
                    cand = _ideal_candidates(agents, rel)
                    ideals = [(pair,) for pair in cand]
                    if len(cand) > 1:
                        ideals.append(tuple(cand))
                for ideal in ideals:
                    yield Model(states, agents, atoms, rel, val, ideal=ideal,
                                point="w0")


# ---------------------------------------------------------------------------
# schema registry


class SchemaSpec(Record):
    name: str
    template: str | None          # None runs the checker `_CHECKERS[name]`;
                                  # a rule's is "(premise) -> (conclusion)"
    expect: str = "valid"         # "valid" | "invalid" | "report" | "rule"
    guard: str | None = None      # None | "boolean" | "atom"
    deontic: bool = False
    free: tuple = ()              # agent placeholders that may repeat


def _rule(name, premise, conclusion, deontic=False):
    return SchemaSpec(name, "(%s) -> (%s)" % (premise, conclusion), "rule",
                      deontic=deontic)


_SPECS = (
    # S5 for plain knowledge
    SchemaSpec("kt", "K{A}PHI -> PHI"),
    SchemaSpec("k4", "K{A}PHI -> K{A}K{A}PHI"),
    SchemaSpec("k5", "~K{A}PHI -> K{A}~K{A}PHI"),
    # S5 for dependent knowledge
    SchemaSpec("akt", "K{A|B}PHI -> PHI"),
    SchemaSpec("ak4", "K{A|B}PHI -> K{A|B}K{A|B}PHI"),
    SchemaSpec("ak5", "~K{A|B}PHI -> K{A|B}~K{A|B}PHI"),
    # S5 for distributed knowledge
    SchemaSpec("dt", "D{A,B}PHI -> PHI"),
    SchemaSpec("d4", "D{A,B}PHI -> D{A,B}D{A,B}PHI"),
    SchemaSpec("d5", "~D{A,B}PHI -> D{A,B}~D{A,B}PHI"),
    # dependence sits between individual and distributed knowledge
    SchemaSpec("int", "K{A}PHI -> K{A|B}PHI"),
    SchemaSpec("chain_dep", "K{B}PHI -> K{B|A}PHI"),
    SchemaSpec("chain_dist", "K{B|A}PHI -> D{A,B}PHI"),
    SchemaSpec("cl", None),
    # the share box is a functional update
    SchemaSpec("inv", "(PHI -> [A>B]PHI) & (~PHI -> [A>B]~PHI)",
               guard="atom"),
    SchemaSpec("rev", "~[A>B]PHI -> [A>B]~PHI"),
    SchemaSpec("d_share", "[A>B]~PHI -> ~[A>B]PHI"),
    SchemaSpec("k_share", "[A>B](PHI -> PSI) -> ([A>B]PHI -> [A>B]PSI)"),
    SchemaSpec("c_share", "[A>B]PHI & [A>B]PSI -> [A>B](PHI & PSI)"),
    SchemaSpec("rep", "[A>B]PHI <-> [A>B][A>B]PHI", expect="report"),
    # interaction of sharing with knowledge
    SchemaSpec("int_plus", None),
    SchemaSpec("int_lower", "K{B}[A>B]PHI -> [A>B]K{B}PHI"),
    SchemaSpec("int_minus", "[A>B]K{C}PHI <-> K{C}[A>B]PHI"),
    SchemaSpec("dist", "[A>B]K{B}PHI -> D{A,B}[A>B]PHI"),
    SchemaSpec("boolean", "PHI <-> [A>B]PHI", guard="boolean"),
    SchemaSpec("remain", "K{C}PHI -> [A>B]K{C}PHI", guard="boolean"),
    SchemaSpec("sharing", "K{A}PHI -> [A>B]K{B}PHI", guard="boolean"),
    SchemaSpec("step", "[A>B]K{B}PHI -> [A>B][B>C]K{C}PHI",
               guard="boolean"),
    SchemaSpec("int_r", "Rk{A,B}K{A}PHI -> Ri{A,B}K{A}PHI",
               guard="boolean"),
    # the pooling chain for guarded formulas
    SchemaSpec("pool_everybody_elim", "E{A,B}PHI -> K{A}PHI",
               guard="boolean"),
    SchemaSpec("pool_know_first", "K{A}PHI -> Rk{A;A,B}E{A,B}PHI",
               guard="boolean"),
    SchemaSpec("pool_forward_to_round",
               "Rk{A;A,B}E{A,B}PHI -> Rk{A,B}E{A,B}PHI", guard="boolean"),
    SchemaSpec("pool_everybody_to_round", "E{A,B}PHI -> Rk{A,B}E{A,B}PHI",
               guard="boolean"),
    SchemaSpec("pool_round_to_resolve",
               "Rk{A,B}E{A,B}PHI -> Ri{A,B}E{A,B}PHI", guard="boolean"),
    # static permission
    SchemaSpec("o_poss", None, deontic=True),
    SchemaSpec("p_rfc", "P{A}PHI & P{A}PSI -> P{A}(PHI | PSI)",
               deontic=True),
    SchemaSpec("p_mc", "P{A}(PHI & PSI) <-> P{A}PHI & P{A}PSI",
               deontic=True),
    SchemaSpec("p_k", "P{A}(PHI -> PSI) -> (P{A}PHI -> P{A}PSI)",
               deontic=True),
    SchemaSpec("p_d", "~P{A}false", deontic=True),
    SchemaSpec("p_t", "P{A}PHI -> PHI", deontic=True),
    SchemaSpec("p_4", "P{A}PHI -> P{A}P{A}PHI", deontic=True),
    SchemaSpec("p_5", "~P{A}~PHI -> P{A}~P{A}~PHI", expect="invalid",
               deontic=True),
    SchemaSpec("fcp1", "P{A}(PHI | PSI) -> P{A}PHI & P{A}PSI",
               expect="invalid", deontic=True),
    SchemaSpec("fcp2", "P{A}PHI -> P{A}(PHI & PSI)", expect="invalid",
               deontic=True),
    # dynamic permission
    SchemaSpec("perm_transfer", "[A>B]Perm(B>C) -> Perm(A>C)",
               deontic=True),
    SchemaSpec("perm_sender_swap", None, deontic=True),
    SchemaSpec("perm_receiver_swap",
               "(K{B}PHI <-> K{C}PHI) -> (Perm(A>B) <-> Perm(A>C))",
               expect="invalid", deontic=True, free=("A",)),
    # inference rules, per-model form
    _rule("ns", "PHI", "[A>B]PHI"),
    _rule("nec_a", "PHI", "K{A|B}PHI"),
    _rule("inc_share", "PHI -> [A>B]PSI", "K{A}PHI -> [A>B]K{B}PSI"),
    _rule("rk", "PHI & PSI -> CHI", "[A>B]PHI & [A>B]PSI -> [A>B]CHI"),
    _rule("rm_share", "PHI & PSI -> [A>B]CHI",
          "K{C}PHI & K{C}PSI -> [A>B]K{C}CHI"),
    _rule("p_nec", "PHI", "P{A}PHI", deontic=True),
    _rule("p_re", "PHI -> PSI", "P{A}PHI -> P{A}PSI", deontic=True),
)

SCHEMAS = {spec.name: spec for spec in _SPECS}

REQUIRED_VALID = tuple(s.name for s in _SPECS if s.expect == "valid")
REQUIRED_INVALID = tuple(s.name for s in _SPECS if s.expect == "invalid")
RULES = tuple(s.name for s in _SPECS if s.expect == "rule")
REPORT_ONLY = tuple(s.name for s in _SPECS if s.expect == "report")


class LabReport(Record):
    """Outcome of one schema check over a model bank."""

    name: str
    expect: str
    models: int
    instances: int
    verdict: str                  # "valid-on-sample" | "countermodel"
    countermodel: tuple | None    # (model, instance, state)

    @property
    def note(self) -> str | None:
        if self.expect == "rule" and self.verdict == "countermodel":
            return "rule-form failure (per-model)"
        return None

    @property
    def as_expected(self) -> bool:
        if self.expect == "valid":
            return self.verdict == "valid-on-sample"
        if self.expect == "invalid":
            return self.verdict == "countermodel"
        return True


# ---------------------------------------------------------------------------
# formula pools


def _pools(m: Model):
    p = Atom(m.atoms[0])
    q = Atom(m.atoms[1]) if len(m.atoms) > 1 else Not(p)
    bools = (p, q, Not(p), Not(q), And(p, q), And(p, Not(q)))
    extras = (Or(p, Not(q)), Imp(p, q))
    probes = tuple(K(x, p) for x in m.agents)
    probes += tuple(Not(K(x, p)) for x in m.agents)
    return bools, bools + extras + probes


def _pool_for(spec: SchemaSpec, m: Model, nvars: int):
    bools, general = _pools(m)
    if spec.guard == "atom":
        return tuple(Atom(x) for x in m.atoms)
    if spec.guard == "boolean":
        return bools
    if nvars >= 2:
        # instance counts grow as pool**nvars; keep multi-slot pools tiny
        return (Atom(m.atoms[0]), Not(Atom(m.atoms[0])),
                bools[1], And(Atom(m.atoms[0]), bools[1]))
    return general


# ---------------------------------------------------------------------------
# checking


def _refuted(m: Model, f: Formula, ctx: EvalContext):
    """None if `f` holds at every state, else `(f, first refuting state)`."""
    if global_truth(m, f, ctx):
        return None
    ext = extension(m, f, ctx)
    return f, next(s for s in m.states if s not in ext)


class Lab:
    """Model banks and one eval context shared across schema checks."""

    def __init__(self, cfg: GenConfig = DEFAULT_CONFIG):
        self.cfg = cfg
        self.ctx = EvalContext()
        self._banks = {}
        # instances only depend on the agent and atom inventories
        self._instances = {}

    def bank(self, deontic: bool):
        if deontic not in self._banks:
            models = list(enumerate_models(*EXHAUSTIVE, deontic=deontic))
            cfg = replace(self.cfg, deontic=deontic)
            models += [gen_model(cfg, i) for i in range(cfg.samples)]
            self._banks[deontic] = models
        return self._banks[deontic]

    def check(self, name: str) -> LabReport:
        """Run the schema's cases model by model, up to the first refuted one.

        A case generator yields, for one model, None per case that holds and
        `(instance, state)` for a refuted one; models with fewer agents than
        the schema needs are skipped and not counted.
        """
        spec = SCHEMAS.get(name)
        if spec is None:
            raise ValueError("unknown schema %r; choose from: %s"
                             % (name, ", ".join(SCHEMAS)))
        if spec.template is None:
            cases, need = _CHECKERS[name]
        else:
            cases, need = self._template_cases(spec)
        # lazy: the search stops at the first countermodel
        bank = enumerate_models(*INVALIDITY_TIER, deontic=True) \
            if spec.expect == "invalid" else self.bank(spec.deontic)
        models = instances = 0
        found = None
        for m in bank:
            if len(m.agents) < need:
                continue
            models += 1
            for case in cases(m, self.ctx):
                instances += 1
                if case is not None:
                    found = (m,) + case
                    break
            if found:
                break
        verdict = "countermodel" if found else "valid-on-sample"
        return LabReport(spec.name, spec.expect, models, instances,
                         verdict, found)

    def _template_cases(self, spec: SchemaSpec):
        # An axiom's case is an instance.  A rule's is an instance of its
        # `premise -> conclusion` template whose premise holds globally; the
        # conclusion alone is then checked.
        template = parse(spec.template)
        nvars = len(meta_formulas_of(template))
        need = len(meta_agents_of(template) - set(spec.free))

        def cases(m, ctx):
            key = (spec.name, m.agents, m.atoms)
            if key not in self._instances:
                pool = _pool_for(spec, m, nvars)
                self._instances[key] = list(instantiate(
                    Schema(spec.name, template), pool, m.agents, spec.free))
            for inst in self._instances[key]:
                if spec.expect == "rule":
                    if not global_truth(m, inst.left, ctx):
                        continue
                    inst = inst.right
                yield _refuted(m, inst, ctx)

        return cases, need


# -- custom checkers: per-model case generators ---------------------------


def _cl_cases(m: Model, ctx: EvalContext):
    """Dependent knowledge is knowledge inside the dependence closure.

    A knows PHI dependent on B at w exactly when A's cell of w, met with
    the union of the definability blocks that meet B's cell of w, lies
    inside PHI; and that union is the dependence closure of B at w.  A
    case checks both for one agent pair, state and PHI.
    """
    _, general = _pools(m)
    blocks = atoms_partition(m)
    exts = [extension(m, phi, ctx) for phi in general]
    for x, y in itertools.permutations(m.agents, 2):
        boxes = [K(x, phi, (y,)) for phi in general]
        knows = [extension(m, box, ctx) for box in boxes]
        for w in m.states:
            cell = m.cell(y, w)
            union = frozenset().union(*[b for b in blocks if b & cell])
            closed = union == dep_closure(m, y, w)
            reach = m.cell(x, w) & union
            for box, ext, known in zip(boxes, exts, knows):
                agrees = closed and (w in known) == (reach <= ext)
                yield None if agrees else (box, w)


def _int_plus_cases(m: Model, ctx: EvalContext):
    """Post-share receiver knowledge is grounded before the share.

    If sharing from A makes B know PHI, then B's old cell meets the
    dependence closure of A inside the updated extension of PHI, which is
    the definable witness behind the receiver's new knowledge.
    """
    _, general = _pools(m)
    for x, y in itertools.permutations(m.agents, 2):
        for w in m.states:
            after = ctx.updated(m, w, x, y)
            for phi in general:
                ext = extension(after, phi, ctx)
                grounded = not after.cell(y, w) <= ext or \
                    (m.cell(y, w) & dep_closure(m, x, w)) <= ext
                yield None if grounded else (Share(x, y, K(y, phi)), w)


def _o_poss_cases(m: Model, ctx: EvalContext):
    """An ideal transition somewhere implies some agent can access one."""
    hat = Not(K(m.agents[0], Not(IdealAtom())))
    for ag in m.agents[1:]:
        hat = Or(hat, Not(K(ag, Not(IdealAtom()))))
    yield _refuted(m, Imp(IdealAtom(), hat), ctx)


def _perm_sender_swap_cases(m: Model, ctx: EvalContext):
    """Senders with identical relations grant the same share permissions."""
    for x, y in itertools.permutations(m.agents, 2):
        if m.cells(x) != m.cells(y):
            continue
        for z in m.agents:
            inst = Iff(PermittedShare(x, z), PermittedShare(y, z))
            yield _refuted(m, inst, ctx)


# schema name -> (case generator, agents a model needs)
_CHECKERS = {
    "cl": (_cl_cases, 2),
    "int_plus": (_int_plus_cases, 2),
    "o_poss": (_o_poss_cases, 0),
    "perm_sender_swap": (_perm_sender_swap_cases, 2),
}


_lab = functools.cache(Lab)  # one Lab per config, built on first use


def check_schema(name: str, cfg: GenConfig = DEFAULT_CONFIG) -> LabReport:
    """Check one registered schema, reusing banks across calls."""
    return _lab(cfg).check(name)


def run_all(cfg: GenConfig = DEFAULT_CONFIG):
    """Check every registered schema at the given config."""
    return [check_schema(name, cfg) for name in SCHEMAS]


# ---------------------------------------------------------------------------
# golden facts for the built-in models


class GoldenFact(Record):
    label: str
    model: str
    formula: str
    expected: bool

    def __post_init__(self):
        if self.model not in PRESETS:
            raise ValueError("unknown model %r; choose from: %s"
                             % (self.model, ", ".join(PRESETS)))


GOLDEN_FACTS = (
    # what each agent can classify on their own
    GoldenFact("know-01", "service_desk", "K{a}(p->q)", True),
    GoldenFact("know-02", "service_desk", "K{a}(q->r)", False),
    GoldenFact("know-03", "service_desk", "K{a}(p->r)", False),
    GoldenFact("know-04", "service_desk", "K{b}(p->q)", False),
    GoldenFact("know-05", "service_desk", "K{b}(q->r)", True),
    GoldenFact("know-06", "service_desk", "K{b}(p->r)", False),
    GoldenFact("know-07", "service_desk", "K{c}(p->q)", False),
    GoldenFact("know-08", "service_desk", "K{c}(q->r)", False),
    GoldenFact("know-09", "service_desk", "K{c}(p->r)", False),
    # knowledge dependent on one other agent
    GoldenFact("dep-01", "service_desk", "K{a|c}(p->q)", True),
    GoldenFact("dep-02", "service_desk", "K{a|c}(q->r)", False),
    GoldenFact("dep-03", "service_desk", "K{a|c}(p->r)", False),
    GoldenFact("dep-04", "service_desk", "K{c|a}(p->q)", True),
    GoldenFact("dep-05", "service_desk", "K{c|a}(q->r)", False),
    GoldenFact("dep-06", "service_desk", "K{c|a}(p->r)", False),
    # knowledge dependent on both servers at once
    GoldenFact("dep2-01", "service_desk", "K{c|a,b}(p->q)", True),
    GoldenFact("dep2-02", "service_desk", "K{c|a,b}(q->r)", True),
    GoldenFact("dep2-03", "service_desk", "K{c|a,b}(p->r)", True),
    GoldenFact("dep2-04", "service_desk", "K{c|a,b}p", False),
    # distributed knowledge of the whole group
    GoldenFact("dist-01", "service_desk", "D{a,b,c}(p->q)", True),
    GoldenFact("dist-02", "service_desk", "D{a,b,c}(q->r)", True),
    GoldenFact("dist-03", "service_desk", "D{a,b,c}(p->r)", True),
    GoldenFact("dist-04", "service_desk", "D{a,b,c}p", True),
    GoldenFact("dist-05", "service_desk", "D{a,b,c}q", True),
    GoldenFact("dist-06", "service_desk", "D{a,b,c}r", True),
    # self-defeating reports before and after sharing
    GoldenFact("moore-01", "service_desk",
               "K{c|a}((p->q) & ~K{c}(p->q))", True),
    GoldenFact("moore-02", "service_desk",
               "[a>c]K{c|a}((p->q) & ~K{c}(p->q))", False),
    GoldenFact("moore-03", "service_desk",
               "[a>c]K{c|a}((p->q) & K{c}(p->q))", True),
    # single shares towards the customer
    GoldenFact("share-01", "service_desk", "[a>c]K{c}(p->q)", True),
    GoldenFact("share-02", "service_desk", "[b>c]K{c}(q->r)", True),
    # resolutions led by one agent, and a full round trip
    GoldenFact("leader-01", "service_desk",
               "Rk{a;a,b,c}E{a,b,c}(p->q)", True),
    GoldenFact("leader-02", "service_desk",
               "Rk{a;a,b,c}E{a,b,c}(q->r)", False),
    GoldenFact("leader-03", "service_desk",
               "Rk{b;b,a,c}E{a,b,c}(q->r)", True),
    GoldenFact("leader-04", "service_desk",
               "Rk{b;b,a,c}E{a,b,c}(p->q)", False),
    GoldenFact("round-01", "service_desk",
               "Rk{a,b,c}(E{a,b,c}(p->q) & E{a,b,c}(q->r)"
               " & E{a,b,c}(p->r))", True),
    # resolving information versus sharing knowledge
    GoldenFact("resolve-01", "overlap", "Ri{a,b}E{a,b}(p & q & r)", True),
    GoldenFact("resolve-02", "overlap", "Rk{a,b}E{a,b}p", True),
    GoldenFact("resolve-03", "overlap", "Rk{a,b}E{a,b}q", False),
    GoldenFact("resolve-04", "overlap", "Rk{a,b}E{a,b}r", False),
    # permission to know and to share
    GoldenFact("perm-01", "service_desk_deontic", "[a>c]P{c}(p->q)", True),
    GoldenFact("perm-02", "service_desk_deontic", "[b>c]P{c}(q->r)", True),
    GoldenFact("perm-03", "service_desk_deontic",
               "[a>c][b>c]P{c}(p->r)", False),
    GoldenFact("perm-04", "service_desk_deontic", "[a>c][b>c]Ok{c}", False),
    GoldenFact("perm-05", "service_desk_deontic", "[a>c]Perm(b>c)", False),
)


class FactResult(Record):
    fact: GoldenFact
    got: bool

    @property
    def ok(self) -> bool:
        return self.got == self.fact.expected


class ReadingResult(Record):
    """One permission fact under the two readings of the Ok conjunct."""

    label: str
    formula: str
    transition: bool      # receiver keeps an ideal transition at the point
    possibility: bool     # receiver considers some ideal state possible


class ReferenceReport(Record):
    facts: tuple
    readings: tuple
    schemas: tuple

    @property
    def ok(self) -> bool:
        facts_ok = all(r.ok for r in self.facts)
        schemas_ok = all(r.as_expected for r in self.schemas
                         if r.expect == "valid")
        return facts_ok and schemas_ok


def check_fact(fact: GoldenFact, ctx: EvalContext | None = None) -> FactResult:
    m = PRESETS[fact.model]()
    return FactResult(fact, holds(m, m.point, parse(fact.formula), ctx))


def _possibility_reading(f: Formula) -> Formula:
    """Replace every Ok atom of the expanded formula by 'does not know there
    is no ideal'."""
    return rewrite(expand(f), lambda g: Not(K(g.agent, Not(IdealAtom())))
                   if isinstance(g, OkAtom) else None)


def compare_readings():
    """Evaluate the permission facts under both Ok readings: the readings
    of the reference suite."""
    return run_reference_suite(include_schemas=False).readings


def run_reference_suite(cfg: GenConfig = DEFAULT_CONFIG,
                        include_schemas: bool = True) -> ReferenceReport:
    """Evaluate every golden fact, both Ok readings, and the schema library.

    Each preset is built once per call and each fact is parsed once; every
    fact is evaluated on its one preset object through one `EvalContext`,
    so memo lookups match the model by identity, and a permission fact's
    verdict is its transition reading.  No reference cycle is made and
    nothing keeps those models, the context or the formula nodes past the
    call, so each call starts cold.
    """
    ctx = EvalContext()
    models = {name: build() for name, build in PRESETS.items()}
    facts, readings = [], []
    for fact in GOLDEN_FACTS:
        m = models[fact.model]
        f = parse(fact.formula)
        got = holds(m, m.point, f, ctx)
        facts.append(FactResult(fact, got))
        if fact.model == "service_desk_deontic":  # the permission facts
            alt = holds(m, m.point, _possibility_reading(f), ctx)
            readings.append(ReadingResult(fact.label, fact.formula, got, alt))
    schemas = tuple(run_all(cfg)) if include_schemas else ()
    return ReferenceReport(tuple(facts), tuple(readings), schemas)
