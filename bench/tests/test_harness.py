"""Tests of the benchmark harness itself: span arithmetic, reference checks,
input generators, and agreement of BENCHMARK.json with the code."""

import json
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from knowpool.formula import parse  # noqa: E402
from knowpool.kripke import pointed  # noqa: E402
from knowpool.lab import GOLDEN_FACTS, LabReport  # noqa: E402
from knowpool.norms import Plan  # noqa: E402
from knowpool.presets import service_desk_deontic  # noqa: E402

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# -- spans ----------------------------------------------------------------


def _add(s, name, parent, start, end):
    if name not in s.names:
        s.names.append(name)
    s.name.append(s.names.index(name))
    s.parent.append(parent)
    s.start.append(start)
    s.end.append(end)
    s.mark.append(0)
    return len(s) - 1


def _tree():
    s = spans.Spans()
    root = _add(s, "outer", spans.ROOT, 0.0, 10.0)
    first = _add(s, "inner", root, 1.0, 3.0)
    _add(s, "leaf", first, 1.5, 2.5)
    _add(s, "inner", root, 2.0, 5.0)      # overlaps the first child
    _add(s, "inner", root, 8.0, 12.0)     # runs past its parent's end
    return s


def test_self_time_subtracts_the_union_of_children():
    own = spans.self_times(_tree())
    # children cover [1, 5] and [8, 10] of [0, 10]
    assert own[0] == 4.0
    assert own[1] == 1.0            # 2 s minus the 1 s leaf
    assert own[2] == 1.0
    assert own[3] == 3.0
    assert own[4] == 4.0


def test_layer_totals_sum_per_name():
    totals = spans.layer_totals(_tree())
    assert totals["inner"] == {"calls": 3, "total_s": 9.0, "self_s": 8.0}
    assert totals["outer"]["self_s"] == 4.0


def test_recorder_links_nested_calls_and_restores(tmp_path):
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    original = ns.outer
    rec = spans.Recorder()
    rec.wrap(ns, "inner", "inner", mark=lambda args, out: out)
    rec.wrap(ns, "outer", "outer")
    assert ns.outer(3) == 8
    rec.unwrap()
    assert ns.outer is original
    path = tmp_path / "spans.bin"
    rec.write(path)
    back = spans.load(path)
    assert [back.names[i] for i in back.name] == ["outer", "inner"]
    assert list(back.parent) == [spans.ROOT, 0]
    assert list(back.mark) == [0, 4]
    assert back.start[0] <= back.start[1] <= back.end[1] <= back.end[0]


def test_eager_span_covers_the_generator_it_returns():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.gen = lambda n: (ns.inner(i) for i in range(n))
    rec = spans.Recorder()
    rec.wrap(ns, "inner", "inner")
    rec.wrap(ns, "gen", "gen", eager=True)
    assert list(ns.gen(2)) == [1, 2]
    rec.unwrap()
    assert [rec.names[i] for i in rec.name] == ["gen", "inner", "inner"]
    assert list(rec.parent) == [spans.ROOT, 0, 0]
    assert rec.end[0] >= rec.end[2]


# -- reference checks -----------------------------------------------------


def _report(**change):
    fields = dict(name="ak5", expect="valid", models=1044, instances=55056,
                  verdict="valid-on-sample", countermodel=None)
    fields.update(change)
    return LabReport(**fields)


def test_lab_check_accepts_the_recorded_report():
    out = reference.lab_outcome(_report(), "valid",
                                reference.lab_entry(_report()))
    assert out == reference.Outcome(1, 1, True)


def test_lab_check_flags_a_flipped_verdict():
    recorded = reference.lab_entry(_report())
    out = reference.lab_outcome(_report(verdict="countermodel"), "valid",
                                recorded)
    assert out.agree == 0 and not out.same


def test_lab_check_flags_a_changed_instance_count():
    recorded = reference.lab_entry(_report())
    out = reference.lab_outcome(_report(instances=55055), "valid", recorded)
    assert out.agree == 1 and not out.same


def _desk_case():
    return workloads.PlanCase(pointed(service_desk_deontic()),
                              parse("K{c}(p->q)"), True)


def test_plan_check_replays_the_recorded_plan():
    case = _desk_case()
    found = Plan((("a", "c"),), (True,), case.goal, True)
    out = reference.plan_outcome(case, found, "a>c:T")
    assert out == reference.Outcome(1, 1, True)


def test_plan_check_flags_a_changed_plan():
    case = _desk_case()
    found = Plan((("b", "c"),), (True,), case.goal, True)
    out = reference.plan_outcome(case, found, "a>c:T")
    assert out.agree == 0          # replaying b>c does not reach the goal
    assert not out.same
    assert not reference.plan_outcome(case, None, "a>c:T").same


def test_golden_check_flags_a_flipped_fact():
    recorded = reference.load_record()["golden"]
    stdout = recorded["stdout"]
    base = reference.golden_outcome(stdout, recorded["exit"], GOLDEN_FACTS,
                                    recorded)
    assert base.same and base.checks == len(GOLDEN_FACTS) + 5
    flipped = stdout.replace("K{a}(p->q) expected=true got=true",
                             "K{a}(p->q) expected=true got=false", 1)
    assert flipped != stdout
    out = reference.golden_outcome(flipped, recorded["exit"], GOLDEN_FACTS,
                                   recorded)
    assert out.agree == base.agree - 1 and not out.same


# -- generators -----------------------------------------------------------


def test_generators_are_deterministic():
    assert workloads.plan_cases(7) == workloads.plan_cases(7)
    assert workloads.sym(6) == workloads.sym(6)
    assert workloads.lab_config(7) == workloads.lab_config(7)
    assert workloads.golden_argv(7) == workloads.golden_argv(7)
    assert workloads.plan_random(0) != workloads.plan_random(1)


def test_unrecorded_seeds_fold_onto_recorded_ones():
    assert workloads.input_seed(1729) == 1729
    assert workloads.input_seed(3) == 3
    assert workloads.input_seed(10 ** 6) in workloads.RECORDED_SEEDS
    assert workloads.lab_config(10 ** 6).seed in workloads.RECORDED_SEEDS


def test_sym_shape():
    m = workloads.sym(5)
    assert m.point == "w0"
    assert [s for s in m.states if "p" in m.val[s]] == ["w0", "w2", "w4"]
    assert len(m.cells("a")) == 5 and len(m.cells("c")) == 1


# -- end-to-end figures ---------------------------------------------------


def test_figures_scale_times_and_average_rounds():
    ref = run.REFERENCE_S
    # each op sits between two calibrations averaging twice the reference
    slow = {"cal_s": [ref, 3 * ref, ref], "cal_at": [0, 0, 1]}
    rounds = [{"op_s": [1.0, 2.0, 3.0], **slow},
              {"op_s": [2.0, 4.0, 6.0], **slow}]
    setups = [{"setup_s": 0.2, "cal_s": ref / 2},
              {"setup_s": 0.4, "cal_s": ref},
              {"setup_s": 0.1, "cal_s": ref}]
    raw = run._figures(rounds, setups, scaled=False)
    assert raw == {"wall_s": 9.0, "op_p50_ms": 3000.0, "op_tail_ms": 4500.0,
                   "setup_s": 0.2}
    scaled = run._figures(rounds, setups, scaled=True)
    assert scaled == {"wall_s": 4.5, "op_p50_ms": 1500.0,
                      "op_tail_ms": 2250.0, "setup_s": 0.4}


def test_tail_keeps_ten_ops_beyond_it():
    assert run.tail_index(1635) == 1624
    assert run.tail_index(12) == 11      # too few ops: the slowest


# -- declared metrics and stored reference --------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"])
                for m in spec["end_to_end"]]
    assert declared == list(run.END_TO_END)
    declared = [(m["name"], m["unit"], m["better"])
                for m in spec["per_layer"]]
    assert declared == list(layers.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_record_covers_every_recorded_seed():
    record = reference.load_record()
    for seed in workloads.RECORDED_SEEDS:
        assert sorted(record["lab"][str(seed)]) == \
            sorted(workloads.LAB_SCHEMAS)
        assert len(record["plan"][str(seed)].split()) == \
            len(workloads.plan_cases(seed))
