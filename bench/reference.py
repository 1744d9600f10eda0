"""Reference checks for every op the benchmark runs.

Each op is checked twice:

* against the specification: a golden fact against its `expected` value,
  a schema against its `SchemaSpec.expect`, a returned plan by replaying it
  with `apply_sequence` and checking the goal (and, for a permissible
  search, that every step was judged permissible);
* against `record.json`, the outputs recorded from the seed commit:
  the whole `examples --no-schemas` output, each schema's
  (verdict, models, instances, countermodel) and each plan's steps and
  verdicts or "no plan".  Any difference there is a regression, including
  a speed-up that skips work.

The red items (facts dep2-04, resolve-03 and resolve-04; schemas
int_minus, p_4 and perm_transfer) disagree with the specification and
agree with the record, so they lower `pass_ratio` without failing an op.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from knowpool.formula import print_formula
from knowpool.kripke import save
from knowpool.semantics import check
from knowpool.update import apply_sequence

RECORD_PATH = Path(__file__).with_name("record.json")


@dataclass(frozen=True)
class Outcome:
    """`agree` of `checks` specification checks held; `same` is whether
    the op's output equals the recorded one."""

    agree: int
    checks: int
    same: bool


def load_record(path=RECORD_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- golden ---------------------------------------------------------------


def _field(line: str, key: str) -> str | None:
    for word in line.split():
        if word.startswith(key + "="):
            return word[len(key) + 1:]
    return None


def golden_outcome(stdout: str, code: int, facts, recorded: dict) -> Outcome:
    """One pass of `examples --no-schemas`.  Facts are judged against
    `facts[i].expected`; the readings have no expected value, so the
    recorded readings are their reference."""
    lines = stdout.splitlines()
    golden = [ln for ln in lines if ln.startswith("GOLDEN ")]
    readings = [ln for ln in lines if ln.startswith("READING ")]
    want_readings = [ln for ln in recorded["stdout"].splitlines()
                     if ln.startswith("READING ")]
    agree = 0
    for fact, line in zip(facts, golden):
        words = line.split()
        if words[1] == fact.label and \
                _field(line, "got") == str(fact.expected).lower():
            agree += 1
    agree += sum(a == b for a, b in zip(readings, want_readings))
    same = stdout == recorded["stdout"] and code == recorded["exit"]
    return Outcome(agree, len(facts) + len(want_readings), same)


# -- lab ------------------------------------------------------------------


def countermodel_digest(report) -> str | None:
    if report.countermodel is None:
        return None
    model, instance, state = report.countermodel
    text = save(model) + ("%s@%s" % (print_formula(instance), state)).encode()
    return hashlib.sha256(text).hexdigest()[:16]


def lab_entry(report) -> list:
    return [report.verdict, report.models, report.instances,
            countermodel_digest(report)]


def lab_outcome(report, expect: str, recorded: list) -> Outcome:
    if expect == "valid":
        agree = report.verdict == "valid-on-sample"
    elif expect == "invalid":
        agree = report.verdict == "countermodel"
    else:
        agree = True          # rules and report-only schemas claim nothing
    return Outcome(int(agree), 1, lab_entry(report) == recorded)


# -- plan -----------------------------------------------------------------

_VERDICT = {True: "T", False: "F", None: "N"}


def plan_entry(found) -> str:
    """`-` for no plan, else `a>c,b>c:TF` (steps, then per-step verdicts)."""
    if found is None:
        return "-"
    steps = ",".join("%s>%s" % step for step in found.steps)
    return "%s:%s" % (steps, "".join(_VERDICT[v] for v in found.verdicts))


def plan_outcome(case, found, recorded: str) -> Outcome:
    if found is None:
        agree = True          # "no plan" is judged by the record alone
    else:
        after = apply_sequence(case.pm, found.steps)
        agree = (found.achieved and found.goal == case.goal
                 and len(found.verdicts) == len(found.steps)
                 and check(after, case.goal).value
                 and (not case.permissible
                      or all(v is True for v in found.verdicts)))
    return Outcome(int(agree), 1, plan_entry(found) == recorded)
