"""The frozen records: one constructor on `formula.Record`, with the
behaviour of a frozen dataclass."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest

from knowpool.formula import Atom, Formula, Record, Schema, parse, substitute
from knowpool.kripke import ModelError, PointedModel, pointed
from knowpool.lab import (DEFAULT_CONFIG, GOLDEN_FACTS, FactResult, GenConfig,
                          GoldenFact, LabReport, ReadingResult,
                          ReferenceReport, SchemaSpec)
from knowpool.norms import Plan
from knowpool.presets import overlap, service_desk
from knowpool.semantics import CheckResult, check

# each record class with the field values of two records that differ in
# their first field; models and formulas are built once, as records hold
# the caller's objects
_DESK, _OVERLAP = service_desk(), overlap()
_P, _KT = Atom("p"), parse("K{A}PHI -> PHI")
RECORDS = {
    Schema: (("kt", _KT), ("k4", _KT)),
    PointedModel: ((_DESK, "s0"), (_OVERLAP, "s0")),
    GenConfig: ((5, 3, 3, False, 500, 1729), (4, 3, 3, False, 500, 1729)),
    SchemaSpec: (("kt", "K{A}PHI -> PHI", "valid", None, False, ()),
                 ("k4", "K{A}PHI -> PHI", "valid", None, False, ())),
    LabReport: (("kt", "valid", 3, 4, "valid-on-sample", None),
                ("k4", "valid", 3, 4, "valid-on-sample", None)),
    GoldenFact: (("know-01", "service_desk", "K{a}(p->q)", True),
                 ("know-02", "service_desk", "K{a}(p->q)", True)),
    FactResult: ((GOLDEN_FACTS[0], True), (GOLDEN_FACTS[1], True)),
    ReadingResult: (("perm-01", "[a>c]P{c}(p->q)", True, False),
                    ("perm-02", "[a>c]P{c}(p->q)", True, False)),
    ReferenceReport: (((), (), ()), ((1,), (), ())),
    Plan: (((("a", "c"),), (True,), _P, True), ((), (True,), _P, True)),
    CheckResult: ((True, "s0", None), (False, "s0", None)),
}
IDS = [cls.__name__ for cls in RECORDS]


def _dataclass_twin(cls):
    """A frozen dataclass with the fields and defaults of a record class:
    the semantics the record keeps."""
    spec = [(f.name, f.type) if f.default is dataclasses.MISSING
            else (f.name, f.type, f.default) for f in fields(cls)]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def test_importing_the_cli_generates_no_dataclass_method():
    code = (
        "import dataclasses, sys\n"
        "import knowpool.cli\n"
        "names = ('__init__', '__repr__', '__eq__', '__hash__',"
        " '__setattr__', '__delattr__')\n"
        "classes = {c for n, m in list(sys.modules.items())\n"
        "           if n.split('.')[0] == 'knowpool'\n"
        "           for c in vars(m).values() if isinstance(c, type)\n"
        "           and c.__module__ == n and dataclasses.is_dataclass(c)}\n"
        "print(len(classes), sorted(c.__name__ for c in classes\n"
        "                           if set(names) & set(vars(c))))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    # 21 formula nodes and 11 records
    assert (done.returncode, done.stdout, done.stderr) == (0, "32 []\n", "")


def test_a_subclass_is_set_up_when_it_is_defined():
    # no decorator: subclassing Formula or Record makes a fields-only
    # dataclass, and a node class reads its layout off the role table
    class Tell(Formula):
        agent: str
        body: Formula

    class Pair(Record):
        left: int
        right: int = 0

    assert [f.name for f in fields(Tell)] == ["agent", "body"]
    assert [f.name for f in fields(Pair)] == ["left", "right"]
    for cls in (Tell, Pair):
        assert not {"__init__", "__eq__", "__repr__"} & set(vars(cls))
    p = Atom("p")
    assert Tell("a", p) is Tell(agent="a", body=p)
    assert substitute(Tell("a", p), agents={"a": "b"}) is Tell("b", p)
    assert Pair(1, 2) == Pair(1, 2) and Pair(1) == Pair(1, 0) != Pair(2)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
class TestRecord:
    def test_fields_are_the_dataclass_fields(self, cls):
        assert dataclasses.is_dataclass(cls)
        assert cls.__match_args__ == tuple(f.name for f in fields(cls))
        assert len(RECORDS[cls][0]) == len(fields(cls))

    def test_equality_hash_and_repr_are_the_dataclass_ones(self, cls):
        twin = _dataclass_twin(cls)
        one, other = RECORDS[cls]
        a, b, c = cls(*one), cls(*one), cls(*other)
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b) == hash(twin(*one)) == hash(one)
        assert a != c and (a == c) == (twin(*one) == twin(*other))
        assert repr(a) == repr(twin(*one)) and repr(c) == repr(twin(*other))

    def test_equal_only_to_its_own_class(self, cls):
        one = RECORDS[cls][0]
        sub = type("Sub", (cls,), {})
        assert cls(*one) != one and cls(*one) != list(one)
        assert cls(*one) != sub(*one) and sub(*one) == sub(*one)
        assert cls(*one) != _dataclass_twin(cls)(*one)

    def test_fields_are_frozen(self, cls):
        r = cls(*RECORDS[cls][0])
        name = fields(cls)[0].name
        for change in (lambda: setattr(r, name, 1), lambda: delattr(r, name),
                       lambda: setattr(r, "extra", 1)):
            with pytest.raises(FrozenInstanceError):
                change()
        assert getattr(r, name) == RECORDS[cls][0][0]
        assert not hasattr(r, "extra")

    def test_keyword_calls_and_replace(self, cls):
        one, other = RECORDS[cls]
        names = [f.name for f in fields(cls)]
        r = cls(**dict(zip(names, one)))
        assert r == cls(*one)
        assert replace(r, **{names[0]: other[0]}) == cls(*other)
        assert replace(r) == r

    def test_bad_calls_raise_the_dataclass_type_error(self, cls):
        twin = _dataclass_twin(cls)
        one = RECORDS[cls][0]
        names = [f.name for f in fields(cls)]
        calls = [lambda c: c(*one, None),
                 lambda c: c(*one, weight=1),
                 lambda c: c(*one[:1], **{names[0]: one[0]})]
        for call in calls:
            with pytest.raises(TypeError) as got:
                call(cls)
            with pytest.raises(TypeError) as want:
                call(twin)
            assert str(got.value) == str(want.value)

    def test_copy_and_pickle_round_trips(self, cls):
        r = cls(*RECORDS[cls][0])
        for back in (copy.copy(r), copy.deepcopy(r),
                     pickle.loads(pickle.dumps(r))):
            assert type(back) is cls and back == r and hash(back) == hash(r)
            assert repr(back) == repr(r)


class TestDefaultsAndBehaviour:
    def test_defaults_and_replace_on_the_default_config(self):
        assert GenConfig() == DEFAULT_CONFIG
        assert repr(DEFAULT_CONFIG) == (
            "GenConfig(max_states=5, agents=3, atoms=3, deontic=False,"
            " samples=500, seed=1729)")
        changed = replace(DEFAULT_CONFIG, seed=7)
        assert changed == GenConfig(seed=7) and changed.seed == 7
        assert DEFAULT_CONFIG.seed == 1729
        assert SchemaSpec("cl", None) == \
            SchemaSpec("cl", None, "valid", None, False, ())
        assert CheckResult(True, "s0").witness is None

    def test_pointed_model_validates_its_point(self):
        with pytest.raises(ModelError, match="point 'zz' is not a state"):
            PointedModel(service_desk(), "zz")
        pm = pointed(service_desk())
        with pytest.raises(ModelError, match="point 7 is not a state"):
            replace(pm, point=7)

    def test_plan_length_and_check_truth(self):
        assert len(Plan((), (), _P, True)) == 0
        assert len(Plan((("a", "c"), ("b", "c")), (True, True), _P, True)) \
            == 2
        pm = pointed(service_desk())
        assert bool(check(pm, parse("K{a}(p->q)"))) is True
        assert bool(check(pm, parse("K{c}(p->q)"))) is False
        assert not CheckResult(False, "s0", "s1")

    def test_properties(self):
        fact = GOLDEN_FACTS[0]
        assert FactResult(fact, fact.expected).ok
        assert not FactResult(fact, not fact.expected).ok
        report = LabReport("rule_x", "rule", 1, 1, "countermodel", None)
        assert report.note == "rule-form failure (per-model)"
        assert report.as_expected
        assert not LabReport("kt", "valid", 1, 1, "countermodel", None) \
            .as_expected
        assert ReferenceReport((FactResult(fact, fact.expected),), (),
                               (report,)).ok
