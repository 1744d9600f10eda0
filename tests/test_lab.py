"""Schema library, model generators, and the reference fact suite."""

import dataclasses
import gc

import pytest

from knowpool import formula, lab, semantics
from knowpool.formula import (K, OkAtom, Schema, _walk, expand, instantiate,
                              meta_formulas_of, parse, print_formula)
from knowpool.kripke import Model, PointedModel
from knowpool.lab import (DEFAULT_CONFIG, GOLDEN_FACTS, REQUIRED_INVALID,
                          REQUIRED_VALID, REPORT_ONLY, RULES, SCHEMAS,
                          GenConfig, Lab, LabReport, check_fact,
                          check_schema, compare_readings, enumerate_models,
                          gen_model, run_reference_suite, _pool_for,
                          _possibility_reading)
from knowpool.presets import PRESETS, service_desk_deontic
from knowpool.semantics import extension

from oracles import relaxed_instances

CFG = GenConfig(samples=12)


class TestRegistry:
    def test_partition_of_schema_names(self):
        groups = (REQUIRED_VALID, REQUIRED_INVALID, RULES, REPORT_ONLY)
        assert sum(len(g) for g in groups) == len(SCHEMAS)
        assert set().union(*groups) == set(SCHEMAS)

    def test_core_names_present(self):
        assert {"kt", "cl", "dist", "int_r", "boolean"} <= set(REQUIRED_VALID)
        assert set(REQUIRED_INVALID) == {"fcp1", "fcp2", "p_5",
                                         "perm_receiver_swap"}
        assert {"ns", "nec_a", "rk", "p_nec"} <= set(RULES)
        assert set(REPORT_ONLY) == {"rep"}


    def test_template_less_specs_name_their_checkers(self):
        # a spec names its checker by its own name, not by a field
        assert [f.name for f in dataclasses.fields(lab.SchemaSpec)] == \
            ["name", "template", "expect", "guard", "deontic", "free"]
        assert {s.name for s in SCHEMAS.values() if s.template is None} \
            == set(lab._CHECKERS)


def _report(expect, verdict):
    # fields as a caller outside the lab builds them: no note
    return LabReport("x", expect, 1, 1, verdict, None)


class TestReport:
    def test_note_reads_only_a_refuted_rule(self):
        assert "rule-form" in _report("rule", "countermodel").note
        assert _report("rule", "valid-on-sample").note is None
        assert _report("invalid", "countermodel").note is None

    @pytest.mark.parametrize("expect", ["rule", "report"])
    def test_rules_and_reports_are_always_as_expected(self, expect):
        assert _report(expect, "countermodel").as_expected
        assert _report(expect, "valid-on-sample").as_expected


class TestSchemaChecks:
    def test_reflection_axiom_holds(self):
        rep = check_schema("kt", CFG)
        assert rep.as_expected and rep.verdict == "valid-on-sample"
        assert rep.countermodel is None and rep.instances > 0

    def test_definable_collapse_holds(self):
        assert check_schema("cl", CFG).as_expected

    def test_definable_collapse_catches_a_full_closure(self, monkeypatch):
        # a closure that ignores the blocks: dep_closure and K's deps see
        # every state
        monkeypatch.setattr(Model, "_closure_at", lambda m, agent:
                            ((1 << len(m.states)) - 1,) * len(m.states))
        assert Lab(CFG).check("cl").verdict == "countermodel"

    def test_definable_collapse_catches_ignored_deps(self, monkeypatch):
        reach = semantics._reach
        monkeypatch.setattr(semantics, "_reach", lambda m, f: reach(
            m, K(f.agent, f.body) if type(f) is K else f))
        assert Lab(CFG).check("cl").verdict == "countermodel"

    def test_update_commutation_fails(self):
        # pushing a share through an outside knower breaks on re-anchoring
        rep = check_schema("int_minus", CFG)
        assert rep.expect == "valid" and not rep.as_expected
        model, instance, state = rep.countermodel
        assert state not in extension(model, instance)

    def test_permission_introspection_fails(self):
        rep = check_schema("p_4", CFG)
        assert rep.expect == "valid" and not rep.as_expected

    def test_countermodels_for_the_invalid_family(self):
        for name in sorted(REQUIRED_INVALID):
            rep = check_schema(name, CFG)
            assert rep.as_expected, name
            model, instance, state = rep.countermodel
            Model(model.states, model.agents, model.atoms, model.rel,
                  model.val, ideal=model.ideal, point=model.point)
            assert model.ideal is not None
            assert state not in extension(model, instance)

    def test_deontic_axioms_that_hold(self):
        for name in ("o_poss", "p_d", "perm_sender_swap"):
            assert check_schema(name, CFG).as_expected, name

    def test_rule_transfer(self):
        assert check_schema("nec_a", CFG).verdict == "valid-on-sample"
        rep = check_schema("ns", CFG)
        assert rep.verdict == "countermodel"
        assert "rule-form" in rep.note
        assert check_schema("p_nec", CFG).verdict == "countermodel"


# name -> (models, instances, verdict, (printed instance, state) or None),
# recorded before the lab's checks were folded into one search loop
PINNED = {
    "kt": (556, 13560, "valid-on-sample", None),
    "cl": (556, 40704, "valid-on-sample", None),
    "int_minus": (8, 598, "countermodel",
                  ("[a>b]K{c}K{b}p <-> K{c}[a>b]K{b}p", "w1")),
    "p_4": (5, 99, "countermodel", ("P{a}~p -> P{a}P{a}~p", "w0")),
    "fcp1": (1, 2, "countermodel",
             ("P{a}(p | ~p) -> P{a}p & P{a}~p", "w0")),
    "fcp2": (1, 5, "countermodel", ("P{a}~p -> P{a}(~p & p)", "w0")),
    "p_5": (5, 97, "countermodel", ("~P{a}~p -> P{a}~P{a}~p", "w1")),
    "perm_receiver_swap": (
        10, 433, "countermodel",
        ("(K{a}p <-> K{b}p) -> (Perm(a>a) <-> Perm(a>b))", "w0")),
    "o_poss": (3126, 3126, "valid-on-sample", None),
    "p_d": (3126, 6264, "valid-on-sample", None),
    "perm_sender_swap": (3126, 2490, "valid-on-sample", None),
    "nec_a": (556, 3870, "valid-on-sample", None),
    "ns": (10, 110, "countermodel", ("[b>a]~K{a}p", "w1")),
    "p_nec": (5, 49, "countermodel", ("P{a}~p", "w1")),
    "inc_share": (556, 11846, "valid-on-sample", None),
    "int_plus": (556, 40704, "valid-on-sample", None),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_report_is_pinned(name):
    rep = check_schema(name, CFG)
    shown = None
    if rep.countermodel is not None:
        _, instance, state = rep.countermodel
        shown = (print_formula(instance), state)
    assert (rep.models, rep.instances, rep.verdict, shown) == PINNED[name]


def test_a_shared_lab_reports_as_fresh_labs_do():
    # one Lab keeps one memo across every schema it checks, so equal
    # models, shares and resolutions met by earlier schemas are reused
    mix = ("kt", "d5", "k_share", "int_r", "ns", "p_t", "cl", "int_plus",
           "perm_sender_swap")
    cfg = GenConfig(samples=40)
    shared = Lab(cfg)
    assert [shared.check(name) for name in mix] \
        == [Lab(cfg).check(name) for name in mix]


@pytest.mark.parametrize("field, value", [
    ("agents", 0), ("agents", 5), ("atoms", 0), ("atoms", 4),
    ("max_states", 0), ("samples", -1)])
def test_config_out_of_range_is_a_value_error(field, value):
    # unchecked, each would fail deep inside a run (atoms=0 in the formula
    # pools, max_states=0 in randrange) or quietly run another config
    with pytest.raises(ValueError) as err:
        GenConfig(**{field: value})
    assert str(err.value).startswith(
        "a model config needs 1 to 3 agents and atoms, max_states >= 1 and"
        " samples >= 0, got GenConfig(")
    assert "%s=%d" % (field, value) in str(err.value)


@pytest.mark.parametrize("field, value", [
    ("agents", 2.5), ("atoms", 2.5), ("max_states", 2.5), ("samples", 1.5),
    ("agents", True)])
def test_config_of_a_non_integer_is_a_value_error(field, value):
    # in range, so a range check alone lets each one build; the run then
    # fails deep inside (slice indices, randrange, range)
    with pytest.raises(ValueError) as err:
        GenConfig(**{field: value})
    assert str(err.value) == "a model config needs an integer %s, got %r" \
        % (field, value)


def test_check_schema_builds_one_lab_per_config(monkeypatch):
    # a config seen before reuses its Lab, so no second EvalContext is built
    built = []
    monkeypatch.setattr(lab, "EvalContext",
                        lambda: built.append(1) or semantics.EvalContext())
    cfg = GenConfig(samples=2, seed=11)
    check_schema("kt", cfg)
    check_schema("dt", cfg)
    assert len(built) == 1


@pytest.mark.parametrize("model", [
    next(enumerate_models(1, 2, 2, deontic=True)), service_desk_deontic()],
    ids=["two-agents", "three-agents"])
def test_free_placeholder_matches_the_relaxed_enumeration(model):
    spec = SCHEMAS["perm_receiver_swap"]
    template = parse(spec.template)
    pool = _pool_for(spec, model, len(meta_formulas_of(template)))
    want = list(relaxed_instances(template, pool, model.agents))
    got = instantiate(Schema(spec.name, template), pool, model.agents,
                      free=("A",))
    assert list(got) == want


class TestGenerators:
    def test_gen_model_is_deterministic_and_valid(self):
        for i in range(30):
            m = gen_model(CFG, i)
            assert m == gen_model(CFG, i)
            Model(m.states, m.agents, m.atoms, m.rel, m.val,
                  ideal=m.ideal, point=m.point)
            assert m.point in m.states
        deontic = GenConfig(samples=6, deontic=True)
        assert all(gen_model(deontic, i).ideal is not None
                   for i in range(10))

    def test_enumeration_is_deterministic(self):
        a = list(enumerate_models(2, 2, 1))
        b = list(enumerate_models(2, 2, 1))
        assert a == b
        assert len(set(a)) == len(a)
        for m in a:
            Model(m.states, m.agents, m.atoms, m.rel, m.val, point=m.point)

    def test_enumeration_size_regression(self):
        assert len(list(enumerate_models(3, 2, 2))) == 544


class TestReferenceSuite:
    def test_table_shape(self):
        assert len(GOLDEN_FACTS) == 44
        labels = [f.label for f in GOLDEN_FACTS]
        assert len(set(labels)) == len(labels)
        assert {f.model for f in GOLDEN_FACTS} <= set(PRESETS)

    def test_check_fact(self):
        assert check_fact(GOLDEN_FACTS[0]).ok

    def test_known_open_mismatches(self):
        bad = {r.fact.label for r in map(check_fact, GOLDEN_FACTS)
               if not r.ok}
        assert bad == {"dep2-04", "resolve-03", "resolve-04"}

    def test_readings_diverge_on_the_stacked_shares(self):
        rows = compare_readings()
        assert [r.label for r in rows] == \
            ["perm-01", "perm-02", "perm-03", "perm-04", "perm-05"]
        differing = {r.label for r in rows if r.transition != r.possibility}
        assert differing == {"perm-03", "perm-04", "perm-05"}
        for r in rows:
            if r.label in differing:
                assert not r.transition and r.possibility

    @pytest.mark.parametrize("text", [
        "Ob{c}p", "D{a,b}Ok{c}", "E{a,c}P{c}p", "Ri{a,c}Ok{c}",
        "Rk{a,c}Ok{c}", "Rk{a;a,c}Ok{c}",
    ])
    def test_possibility_reading_rewrites_every_ok_atom(self, text):
        # no Ok atom may survive into the formula that is evaluated
        rewritten = expand(_possibility_reading(parse(text)))
        assert not any(isinstance(g, OkAtom) for g in _walk(rewritten))

    def test_possibility_reading_rewrites_each_distinct_node_once(
            self, monkeypatch):
        # nested E expands to a DAG of 5k+1 distinct nodes but 3^k paths
        f = parse("E{a,b,c}" * 8 + "Ok{a}")
        real = lab.rebuild
        seen = []
        monkeypatch.setattr(lab, "rebuild",
                            lambda g, *rest: seen.append(g) or real(g, *rest))
        _possibility_reading(f)
        assert len(seen) == len(set(seen))
        assert set(seen) <= set(_walk(expand(f)))

    def test_report_without_schemas(self):
        report = run_reference_suite(CFG, include_schemas=False)
        assert len(report.facts) == 44 and report.schemas == ()
        assert not report.ok
        assert len(report.readings) == 5

    def test_a_run_leaves_no_formula_node_behind(self):
        # the intern table is weak and the report holds no node, so once
        # the run returns none of its nodes is live: the next run starts cold
        gc.collect()
        before = len(formula._TABLE)
        report = run_reference_suite(CFG, include_schemas=False)
        gc.collect()
        assert len(formula._TABLE) == before
        assert len(report.facts) == 44

    def test_default_config_shape(self):
        assert DEFAULT_CONFIG.samples == 500
        assert DEFAULT_CONFIG.max_states == 5
