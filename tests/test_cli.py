"""Command line interface: exit codes and line formats."""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from knowpool import formula
from knowpool.cli import build_parser, main
from knowpool.kripke import Model, load, save
from knowpool.presets import overlap, service_desk, service_desk_deontic
from knowpool.update import apply_sequence
from knowpool.kripke import pointed


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, build in (("plain", service_desk),
                        ("deontic", service_desk_deontic),
                        ("overlap", overlap)):
        p = tmp_path / (name + ".json")
        p.write_bytes(save(build()))
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def _chain(head: str, size: int) -> str:
    return "%s{%s}p" % (head, ",".join("a%d" % i for i in range(size)))


def _one_state_model(directory, agents: int) -> str:
    path = directory / "wide.json"
    names = ["a%d" % i for i in range(agents)]
    path.write_bytes(save(Model(("s0",), names, ("p",), {}, {"s0": {"p"}},
                                point="s0")))
    return str(path)


class TestCheck:
    def test_true(self, files, capsys):
        assert main(["check", "--model", files["plain"],
                     "--formula", "K{a}(p->q)"]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_false_with_witness(self, files, capsys):
        assert main(["check", "--model", files["plain"],
                     "--formula", "K{a}(q->r)"]) == 1
        assert capsys.readouterr().out == "false\nwitness state=s1\n"

    def test_false_share_reports_innermost_state(self, files, capsys):
        code = main(["check", "--model", files["plain"], "--formula",
                     "[a>c]K{c|a}((p->q) & ~K{c}(p->q))"])
        assert code == 1
        assert capsys.readouterr().out == "false\nwitness state=s0\n"

    def test_false_boolean_has_no_witness(self, files, capsys):
        assert main(["check", "--model", files["plain"],
                     "--formula", "q & ~q"]) == 1
        assert capsys.readouterr().out == "false\n"

    def test_state_override(self, files, capsys):
        assert main(["check", "--model", files["plain"],
                     "--formula", "K{a}p", "--state", "s3"]) == 0

    def test_errors_exit_2(self, files, capsys):
        cases = (
            ["check", "--model", files["plain"], "--formula", "K{a"],
            ["check", "--model", files["plain"], "--formula", "zz"],
            ["check", "--model", files["plain"], "--formula", "p",
             "--state", "zz"],
            ["check", "--model", files["plain"], "--formula", "Ok{a}"],
            ["check", "--model", str(files["dir"] / "none.json"),
             "--formula", "p"],
            # nested past the parser's depth bound
            ["check", "--model", files["plain"],
             "--formula", "(" * 250 + "p" + ")" * 250],
            ["check", "--model", files["plain"],
             "--formula", "~" * 5000 + "p"],
            ["plan", "--model", files["plain"],
             "--goal", " & ".join(["p"] * 3000)],
        )
        for argv in cases:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ")

    @pytest.mark.parametrize("command", ["check", "update", "plan"])
    def test_bad_anchors_exit_2(self, files, capsys, command):
        argv = [command] + {
            "check": ["--formula", "p"],
            "update": ["--share", "a>c", "--out",
                       str(files["dir"] / "out.json")],
            "plan": ["--goal", "K{c}(p->q)"]}[command]
        data = json.loads(save(service_desk()))
        del data["point"]
        pointless = files["dir"] / "pointless.json"
        pointless.write_text(json.dumps(data))
        assert main(argv + ["--model", str(pointless)]) == 2
        assert capsys.readouterr().err == \
            "error: no evaluation point given and the model has none\n"
        assert main(argv + ["--model", files["plain"], "--state", "zz"]) == 2
        assert capsys.readouterr().err == \
            "error: point 'zz' is not a state\n"

    @pytest.mark.parametrize("head, size, model", [
        ("E", 600, "plain"), ("Rk", 400, "wide")], ids=["E-600", "Rk-400"])
    def test_deep_expansion_is_an_error(self, files, capsys, head, size,
                                        model):
        # shallow as written, but a chain of `size` nodes once expanded;
        # the wide model declares every agent the formula names
        if model == "wide":
            files[model] = _one_state_model(files["dir"], size)
        assert main(["check", "--model", files[model],
                     "--formula", _chain(head, size)]) == 2
        assert capsys.readouterr().err == \
            "error: formula too deep to evaluate\n"

    def test_long_share_chain_reaches_the_evaluator(self, files, capsys):
        # building and hashing the expanded chain does not recurse, so the
        # evaluator looks up the first share's agents before going deep
        assert main(["check", "--model", files["plain"],
                     "--formula", _chain("Rk", 400)]) == 2
        assert capsys.readouterr().err == "error: unknown agent 'a0'\n"


class TestValidate:
    def test_plain(self, files, capsys):
        assert main(["validate", "--model", files["plain"]]) == 0
        assert capsys.readouterr().out == \
            "ok states=5 agents=3 atoms=3 deontic=false\n"

    def test_deontic(self, files, capsys):
        assert main(["validate", "--model", files["deontic"]]) == 0
        assert capsys.readouterr().out == \
            "ok states=5 agents=3 atoms=3 deontic=true\n"

    def test_broken_file(self, files, capsys):
        bad = files["dir"] / "bad.json"
        data = json.loads(save(service_desk()))
        data["relations"]["a"] = [["s0", "zz"]]
        bad.write_text(json.dumps(data))
        assert main(["validate", "--model", str(bad)]) == 2

    @pytest.mark.parametrize("text", [b"[" * 200_000, b"\xff{}"],
                             ids=["too_deep", "undecodable"])
    def test_unreadable_json_exits_2(self, files, capsys, text):
        bad = files["dir"] / "bad.json"
        bad.write_bytes(text)
        assert main(["validate", "--model", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: invalid JSON: ")

    @pytest.mark.parametrize("mutate", [
        lambda d: d.update(agents=[["a"]], relations={}),
        lambda d: d["valuation"].update(s0=[1, "x"]),
    ], ids=["list_agent", "mixed_atoms"])
    def test_malformed_model_data_exits_2(self, files, capsys, mutate):
        bad = files["dir"] / "bad.json"
        data = json.loads(save(service_desk()))
        mutate(data)
        bad.write_text(json.dumps(data))
        assert main(["validate", "--model", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: malformed model data: ")

    @pytest.mark.parametrize("agent, atom, message", [
        ("a", "true", "bad atom name 'true'"),
        ("false", "p", "bad agent name 'false'"),
    ], ids=["atom_true", "agent_false"])
    def test_keyword_names_exit_2(self, files, capsys, agent, atom, message):
        bad = files["dir"] / "bad.json"
        bad.write_text(json.dumps({
            "states": ["s0"], "agents": [agent], "atoms": [atom],
            "relations": {}, "valuation": {}}))
        assert main(["validate", "--model", str(bad)]) == 2
        assert capsys.readouterr().err == "error: %s\n" % message

    @pytest.mark.parametrize("key, value", [
        ("agents", 5), ("agents", "abc"), ("atoms", "pqr"),
        ("ideal", [[["s0"], "s0"]]), ("relations", {"a": [["s0", ["s1"]]]}),
    ])
    def test_bad_shapes_exit_2(self, files, capsys, key, value):
        bad = files["dir"] / "bad.json"
        data = json.loads(save(service_desk_deontic()))
        data[key] = value
        bad.write_text(json.dumps(data))
        assert main(["validate", "--model", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestUpdate:
    def test_writes_the_updated_model(self, files, capsys):
        out = str(files["dir"] / "out.json")
        assert main(["update", "--model", files["plain"],
                     "--share", "a>c,b>c", "--out", out]) == 0
        assert capsys.readouterr().out == "wrote %s\n" % out
        with open(out, "rb") as fh:
            got = load(fh.read())
        want = apply_sequence(pointed(service_desk()),
                              [("a", "c"), ("b", "c")]).model
        assert got == want

    def test_the_updated_model_validates(self, files, capsys):
        # the shares leave the ideal pair s0-s3 outside every agent's cell
        out = str(files["dir"] / "out.json")
        assert main(["update", "--model", files["deontic"],
                     "--share", "a>b,a>c", "--out", out]) == 0
        capsys.readouterr()
        assert main(["validate", "--model", out]) == 0
        assert capsys.readouterr().out == \
            "ok states=5 agents=3 atoms=3 deontic=true\n"

    def test_bad_share_spec(self, files, capsys):
        out = str(files["dir"] / "out.json")
        assert main(["update", "--model", files["plain"],
                     "--share", "ac", "--out", out]) == 2

    @pytest.mark.parametrize("share, shown", [
        (">b", ">b"), ("a>", "a>"), (" > ", ">"), ("a>b>c", "a>b>c")],
        ids=["no_sender", "no_receiver", "neither", "two_arrows"])
    def test_empty_share_side(self, files, capsys, share, shown):
        out = str(files["dir"] / "out.json")
        assert main(["update", "--model", files["plain"],
                     "--share", share, "--out", out]) == 2
        assert capsys.readouterr().err == \
            "error: bad share %r, expected sender>receiver\n" % shown


class TestPlan:
    def test_permissible_plan(self, files, capsys):
        assert main(["plan", "--model", files["deontic"],
                     "--goal", "K{c}(p->q)"]) == 0
        assert capsys.readouterr().out == \
            "1: a > c  permissible=true\ngoal=K{c}(p -> q) achieved=true\n"

    def test_no_plan(self, files, capsys):
        assert main(["plan", "--model", files["deontic"],
                     "--goal", "K{c}(p->r)", "--max", "4"]) == 1
        assert capsys.readouterr().out == "no plan\n"

    def test_free_plan_without_ideal(self, files, capsys):
        assert main(["plan", "--model", files["plain"],
                     "--goal", "K{c}(p->r)", "--free"]) == 0
        assert capsys.readouterr().out == (
            "1: a > b  permissible=unknown\n"
            "2: b > c  permissible=unknown\n"
            "goal=K{c}(p -> r) achieved=true\n")

    def test_permissible_plan_needs_an_ideal_relation(self, files, capsys):
        assert main(["plan", "--model", files["plain"],
                     "--goal", "K{c}(p->r)"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: model has no ideal relation; "
                                "pass --free for a free search\n")

    def test_negative_max_is_a_usage_error(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--model", files["deontic"],
                  "--goal", "K{c}(p->q)", "--max", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--max: expected a non-negative integer, got '-1'" \
            in captured.err


class TestLab:
    def test_single_valid_schema(self, capsys):
        assert main(["lab", "--schema", "kt", "--samples", "6"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("SCHEMA kt models=")
        assert "verdict=valid-on-sample" in out

    def test_countermodel_output(self, capsys):
        assert main(["lab", "--schema", "p_5", "--samples", "6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("SCHEMA p_5")
        assert "verdict=countermodel" in lines[0]
        tail = [i for i, l in enumerate(lines) if l.startswith("instance=")]
        assert len(tail) == 1
        m = load("\n".join(lines[1:tail[0]]))
        assert m.ideal is not None
        assert " state=" in lines[tail[0]]

    def test_failed_expectation_exits_1(self, capsys):
        assert main(["lab", "--schema", "p_4", "--samples", "6"]) == 1

    def test_note_has_no_spaces(self, capsys):
        assert main(["lab", "--schema", "ns", "--samples", "6"]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert "note=rule-form-failure-(per-model)" in first

    def test_unknown_schema(self, capsys):
        assert main(["lab", "--schema", "zz"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: unknown schema 'zz'; choose from: kt, k4, k5, ")


class TestExamples:
    def test_facts_and_readings(self, capsys):
        assert main(["examples", "--no-schemas"]) == 1
        out = capsys.readouterr().out.splitlines()
        golden = [l for l in out if l.startswith("GOLDEN ")]
        readings = [l for l in out if l.startswith("READING ")]
        assert len(golden) == 44 and len(readings) == 5
        assert not any(l.startswith("SCHEMA ") for l in out)
        fails = [l for l in golden if l.endswith("verdict=fail")]
        assert len(fails) == 3
        assert golden[0].startswith(
            "GOLDEN know-01 K{a}(p->q) expected=true got=true verdict=pass")
        assert ("READING perm-05 transition=false possibility=true"
                in readings)

    def test_output_is_byte_identical_to_the_recording(self, capsys):
        # refactors of the formula layer must not move a single byte
        recorded = Path(__file__).with_name("examples_no_schemas.txt")
        assert main(["examples", "--no-schemas"]) == 1
        assert capsys.readouterr().out == recorded.read_text()

    def test_an_op_leaves_nothing_to_the_cycle_collector(self):
        # each golden op starts cold: with the collector off, one op after
        # a warm-up leaves no formula node or model alive and no cycle
        def op():
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["examples", "--no-schemas"]) == 1

        def models():
            return sum(isinstance(o, Model) for o in gc.get_objects())

        op()
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            nodes, alive = len(formula._TABLE), models()
            op()
            assert len(formula._TABLE) == nodes
            assert models() == alive
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()


def test_lab_output_is_byte_identical_to_the_recording(capsys):
    # every share reads the definability blocks and closures, so a change
    # to either must leave the whole laboratory report as recorded
    recorded = Path(__file__).with_name("lab_output.txt")
    assert main(["lab"]) == 1
    assert capsys.readouterr().out == recorded.read_text()


@pytest.mark.parametrize("argv", [
    ["lab", "--schema", "kt", "--samples", "-5"],
    ["lab", "--schema", "kt", "--max-states", "-1"],
    ["examples", "--no-schemas", "--samples", "-5"],
    ["examples", "--no-schemas", "--max-states", "-1"],
])
def test_negative_sample_sizes_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "%s: expected a non-negative integer, got '%s'" % (
        argv[-2], argv[-1]) in captured.err


@pytest.mark.parametrize("command", ["lab", "examples"])
def test_zero_max_states_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--max-states", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-states: expected at least one state, got '0'" \
        in captured.err


class TestModuleEntry:
    """`python -m knowpool` runs the CLI; importing the module does not."""

    def test_importing_the_main_module_does_not_run_the_cli(self,
                                                            monkeypatch):
        monkeypatch.delitem(sys.modules, "knowpool.__main__", raising=False)
        monkeypatch.setattr(sys, "argv", ["knowpool"])  # no command: exit 2
        assert importlib.import_module("knowpool.__main__").main is main

    def test_run_as_a_module(self):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(root / "src"), os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "knowpool", "validate",
             "--model", "models/overlap.json"],
            cwd=root, env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == \
            (0, "ok states=4 agents=2 atoms=3 deontic=false\n", "")


class TestReusedParser:
    """`main` reuses one parser; nothing carries from one call to the next."""

    @pytest.mark.parametrize("goal, code, out", [
        ("K{c}(p->q)", 0,
         "1: a > c  permissible=true\ngoal=K{c}(p -> q) achieved=true\n"),
        ("K{c}(p->r)", 1, "no plan\n")], ids=["permissible", "none"])
    def test_free_does_not_carry_over(self, files, capsys, goal, code, out):
        argv = ["plan", "--model", files["deontic"], "--goal", goal,
                "--max", "4"]
        assert main(argv + ["--free"]) == 0
        capsys.readouterr()
        assert main(argv) == code
        assert capsys.readouterr().out == out

    def test_state_does_not_carry_over(self, files, capsys):
        argv = ["check", "--model", files["plain"], "--formula", "r"]
        assert main(argv + ["--state", "s1"]) == 1
        assert capsys.readouterr().out == "false\n"
        assert main(argv) == 0  # at the model's point, s0
        assert capsys.readouterr().out == "true\n"

    def test_usage_error_leaves_no_trace(self, files, capsys):
        argv = ["validate", "--model", files["plain"]]
        assert main(argv) == 0
        fresh = capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["lab", "--max-states", "0"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr() == fresh

    def test_parser_is_built_once(self, files, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        build_parser.cache_clear()
        argv = ["validate", "--model", files["plain"]]
        assert main(argv) == 0
        first = len(built)
        assert first > 0
        assert main(argv) == 0
        assert len(built) == first
