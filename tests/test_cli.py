"""Command line interface: exit codes and line formats."""

import json

import pytest

from knowpool.cli import main
from knowpool.kripke import load, save
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
        )
        for argv in cases:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ")


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


class TestUpdate:
    def test_writes_the_updated_model(self, files, capsys):
        out = str(files["dir"] / "out.json")
        assert main(["update", "--model", files["plain"],
                     "--share", "a>c,b>c", "--out", out]) == 0
        assert capsys.readouterr().out == "wrote %s\n" % out
        with open(out, "rb") as fh:
            got = load(fh.read(), strict=True)
        want = apply_sequence(pointed(service_desk()),
                              [("a", "c"), ("b", "c")]).model
        assert got == want

    def test_bad_share_spec(self, files, capsys):
        out = str(files["dir"] / "out.json")
        assert main(["update", "--model", files["plain"],
                     "--share", "ac", "--out", out]) == 2


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
