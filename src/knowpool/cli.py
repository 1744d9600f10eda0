"""Command line front end.

Subcommands mirror the library: check a formula on a model, apply share
updates, search for sharing plans, run the schema laboratory, replay the
reference suite, and validate model files.  All regular output goes to
stdout in a line-oriented machine-readable form; diagnostics go to stderr.
Exit codes: 0 success (or formula true), 1 negative outcome (formula
false, no plan, failed suite), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

from .formula import parse, print_formula
from .kripke import load, pointed, save
from .lab import DEFAULT_CONFIG, SCHEMAS, check_schema, run_reference_suite
from .norms import plan as search_plan
from .semantics import CheckResult, check
from .update import apply_sequence


class CliError(Exception):
    pass


def _load_model(path: str):
    try:
        with open(path, "rb") as fh:
            return load(fh.read())
    except OSError as exc:
        raise CliError("cannot read %s: %s" % (path, exc.strerror or exc))


def _count(text: str) -> int:
    # a negative bound would otherwise read as "no plan" or an empty sample
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            "expected a non-negative integer, got %r" % text)
    return value


def _states(text: str) -> int:
    # random models draw between one and this many states
    value = _count(text)
    if value == 0:
        raise argparse.ArgumentTypeError(
            "expected at least one state, got %r" % text)
    return value


def _parse_shares(text: str):
    steps = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        parts = [part.strip() for part in chunk.split(">")]
        if len(parts) != 2 or not all(parts):
            raise CliError("bad share %r, expected sender>receiver" % chunk)
        steps.append(tuple(parts))
    return steps


def _innermost_state(result: CheckResult):
    # a refuted share box carries the refutation inside the updated model
    while result.witness is not None:
        if isinstance(result.witness, tuple):
            result = result.witness[1]
        else:
            return result.witness
    return None


def cmd_check(args) -> int:
    pm = pointed(_load_model(args.model), args.state)
    result = check(pm, parse(args.formula))
    print("true" if result else "false")
    if not result:
        state = _innermost_state(result)
        if state is not None:
            print("witness state=%s" % state)
    return 0 if result else 1


def cmd_update(args) -> int:
    pm = pointed(_load_model(args.model), args.state)
    out = apply_sequence(pm, _parse_shares(args.share))
    data = save(out.model)
    try:
        with open(args.out, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise CliError("cannot write %s: %s" % (args.out, exc.strerror or exc))
    print("wrote %s" % args.out)
    return 0


def cmd_plan(args) -> int:
    pm = pointed(_load_model(args.model), args.state)
    goal = parse(args.goal)
    if pm.model.ideal is None and not args.free:
        raise CliError("model has no ideal relation; pass --free for a free"
                       " search")
    found = search_plan(pm, goal, max_len=args.max,
                        require_permissible=not args.free)
    if found is None:
        print("no plan")
        return 1
    for i, ((sender, receiver), verdict) in enumerate(
            zip(found.steps, found.verdicts), start=1):
        shown = "unknown" if verdict is None else str(verdict).lower()
        print("%d: %s > %s  permissible=%s" % (i, sender, receiver, shown))
    print("goal=%s achieved=%s" % (print_formula(found.goal),
                                   str(found.achieved).lower()))
    return 0


def _print_report(report) -> None:
    line = "SCHEMA %s models=%d instances=%d verdict=%s" % (
        report.name, report.models, report.instances, report.verdict)
    if report.note:
        line += " note=%s" % report.note.replace(" ", "-")
    print(line)
    if report.countermodel is not None:
        model, instance, state = report.countermodel
        sys.stdout.write(save(model).decode("utf-8"))
        print("instance=%s state=%s" % (print_formula(instance), state))


def _config(args):
    return replace(DEFAULT_CONFIG, seed=args.seed, samples=args.samples,
                   max_states=args.max_states)


def cmd_lab(args) -> int:
    cfg = _config(args)
    names = list(SCHEMAS) if args.schema == "all" else [args.schema]
    bad = 0
    for name in names:
        report = check_schema(name, cfg)
        _print_report(report)
        if not report.as_expected:
            bad += 1
    return 1 if bad else 0


def cmd_examples(args) -> int:
    report = run_reference_suite(_config(args),
                                 include_schemas=not args.no_schemas)
    for r in report.facts:
        print("GOLDEN %s %s expected=%s got=%s verdict=%s" % (
            r.fact.label, r.fact.formula,
            str(r.fact.expected).lower(), str(r.got).lower(),
            "pass" if r.ok else "fail"))
    for r in report.readings:
        print("READING %s transition=%s possibility=%s" % (
            r.label, str(r.transition).lower(), str(r.possibility).lower()))
    for r in report.schemas:
        _print_report(r)
    return 0 if report.ok else 1


def cmd_validate(args) -> int:
    m = _load_model(args.model)
    print("ok states=%d agents=%d atoms=%d deontic=%s" % (
        len(m.states), len(m.agents), len(m.atoms),
        str(m.ideal is not None).lower()))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built on the first `main` call and reused: `parse_args` returns a fresh
    # namespace each time and argparse looks up sys.stdout/stderr on print
    top = argparse.ArgumentParser(
        prog="knowpool",
        description="knowledge sharing over finite epistemic models")
    sub = top.add_subparsers(dest="command", required=True)
    # the random-model options of `lab` and `examples`
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--seed", type=int, default=DEFAULT_CONFIG.seed)
    config.add_argument("--samples", type=_count,
                        default=DEFAULT_CONFIG.samples)
    config.add_argument("--max-states", type=_states,
                        default=DEFAULT_CONFIG.max_states)

    p = sub.add_parser("check", help="evaluate a formula on a model")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--state")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("update", help="apply share updates and save")
    p.add_argument("--model", required=True)
    p.add_argument("--share", required=True,
                   help="comma separated, e.g. a>b,b>c")
    p.add_argument("--out", required=True)
    p.add_argument("--state")
    p.set_defaults(fn=cmd_update)

    p = sub.add_parser("plan", help="search for a sharing plan")
    p.add_argument("--model", required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--max", type=_count, default=6)
    p.add_argument("--free", action="store_true",
                   help="allow impermissible shares")
    p.add_argument("--state")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("lab", parents=[config],
                       help="stress-test schemata on random models")
    p.add_argument("--schema", default="all")
    p.set_defaults(fn=cmd_lab)

    p = sub.add_parser("examples", parents=[config],
                       help="run the bundled reference suite")
    p.add_argument("--no-schemas", action="store_true",
                   help="only the fact table and the two readings")
    p.set_defaults(fn=cmd_examples)

    p = sub.add_parser("validate", help="check a model file")
    p.add_argument("--model", required=True)
    p.set_defaults(fn=cmd_validate)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ValueError) as exc:  # the library's errors included
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RecursionError:
        # parse bounds the written depth, but E and Rk expand to chains as
        # long as their group
        print("error: formula too deep to evaluate", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
