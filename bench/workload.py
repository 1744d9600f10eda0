"""One workload in one fresh process: set up, run timed rounds, check.

    python3 bench/workload.py --workload plan --seed 1729 --seconds 25

Prints one JSON line.  `--mode setup` stops after set-up and reports only
its time.  With `--trace 1` spans are recorded around every layer call of
set-up and of exactly one round, and written to `--spans`.

Set-up time runs from before the library is imported until the first
round's inputs and the reference are built.  A round is the workload's
fixed work, run on freshly built inputs.  `golden` repeats rounds while
another one still fits in `--seconds`; `lab` runs one round and `plan`
two.
Results are checked after each round, outside the timed region and with
tracing removed.

Untraced runs also time a fixed calibration kernel that does not touch
the library: once after set-up, and before, during (whenever half a
second has passed) and after each round.  For each op a round records
`cal_at`, the index of the last calibration before it, so run.py can
scale the op by the machine speed measured just before and after it.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import knowpool.cli as cli  # noqa: E402
import knowpool.lab as lab  # noqa: E402
import knowpool.norms as norms  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("golden", "lab", "plan")

RAISED = object()

CALIBRATE_EVERY_S = 0.5


def kernel() -> int:
    """Fixed interpreter work of the kinds the library does: small
    frozensets, tuple-keyed dicts, sorting."""
    cells = [frozenset(range(i, i + 5)) for i in range(40)]
    seen = {}
    total = 0
    for a in cells:
        for b in cells:
            c = a & b
            key = (len(c), min(a) % 7, min(b) % 5)
            seen[key] = seen.get(key, 0) + 1
            total += len(c)
    return total + len(sorted(seen))


def calibrate() -> float:
    """Median time of five kernel calls."""
    times = []
    for _ in range(5):
        t = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t)
    times.sort()
    return times[2]


def run_examples(argv: list):
    """`cli.main(argv)` with its stdout captured: (stdout, exit code)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return buf.getvalue(), code


class Golden:
    """One op is one `knowpool examples --no-schemas`, stdout captured."""

    rounds = None

    def __init__(self, seed: int, record: dict):
        self.argv = workloads.golden_argv(seed)
        self.recorded = record["golden"]

    def round(self) -> list:
        return [self.op] * workloads.GOLDEN_PASSES_PER_ROUND

    def op(self):
        return run_examples(self.argv)

    def outcome(self, index: int, result) -> reference.Outcome:
        stdout, code = result
        return reference.golden_outcome(stdout, code, lab.GOLDEN_FACTS,
                                        self.recorded)


class Lab:
    """One op is one schema check on a shared `Lab`; its banks are built
    before the round starts.  A second round would need a second `Lab`
    and would not fit in a run."""

    rounds = 1

    def __init__(self, seed: int, record: dict):
        self.cfg = workloads.lab_config(seed)
        self.recorded = record["lab"][str(self.cfg.seed)]

    def round(self) -> list:
        bench = lab.Lab(self.cfg)
        bench.bank(False)
        bench.bank(True)
        return [lambda name=name: bench.check(name)
                for name in workloads.LAB_SCHEMAS]

    def outcome(self, index: int, report) -> reference.Outcome:
        name = workloads.LAB_SCHEMAS[index]
        return reference.lab_outcome(report, lab.SCHEMAS[name].expect,
                                     self.recorded[name])


class Plan:
    """One op is one `plan()` call; presets, then random models, then the
    symmetric family.  A round runs that sequence three times on fresh
    inputs, so it holds three copies of each slow `sym` search and its
    tail (ten ops beyond it) is a `sym` search, not whichever random
    model happens to be slowest."""

    rounds = 2
    passes = 3

    def __init__(self, seed: int, record: dict):
        self.seed = seed
        self.recorded = record["plan"][str(workloads.input_seed(seed))].split()
        self.cases = []

    def round(self) -> list:
        self.cases = [c for _ in range(self.passes)
                      for c in workloads.plan_cases(self.seed)]
        return [lambda c=c: norms.plan(c.pm, c.goal,
                                       require_permissible=c.permissible)
                for c in self.cases]

    def outcome(self, index: int, found) -> reference.Outcome:
        return reference.plan_outcome(
            self.cases[index], found,
            self.recorded[index % len(self.recorded)])


KINDS = {"golden": Golden, "lab": Lab, "plan": Plan}


def run_rounds(wl, seconds: float, count: int | None, recorder) -> dict:
    """Time `wl.ops`, then fresh rounds: `count` in all, or while another
    one still fits in `seconds` when `count` is None.  Calibrates between
    ops unless tracing."""
    ops, wl.ops = wl.ops, None      # hold no round longer than it runs
    clock = time.perf_counter
    begin = clock()
    rounds = []
    attempted = failed = agree = checks = 0
    while True:
        # Set-up objects (imports, this round's inputs) go to the permanent
        # generation, so a full collection during an op scans the library's
        # own objects and not the whole input; with that scan one `sym(9)`
        # search spread about twice as wide from call to call.
        gc.collect()
        gc.freeze()
        results, times, cal_at = [], [], []
        cal = [] if recorder is not None else [calibrate()]
        last = clock()
        for op in ops:
            cal_at.append(len(cal) - 1)
            t = clock()
            try:
                results.append(op())
            except Exception:          # an op that raises is a failed op
                traceback.print_exc()
                results.append(RAISED)
            times.append(clock() - t)
            if cal and clock() - last >= CALIBRATE_EVERY_S:
                cal.append(calibrate())
                last = clock()
        if recorder is not None:
            recorder.unwrap()
        else:
            cal.append(calibrate())
        gc.unfreeze()
        for i, result in enumerate(results):
            attempted += 1
            if result is RAISED:
                failed += 1
                continue
            out = wl.outcome(i, result)
            agree += out.agree
            checks += out.checks
            failed += not out.same
        rounds.append({"op_s": times, "cal_s": cal, "cal_at": cal_at})
        del ops, results
        if count is not None and len(rounds) >= count:
            break
        if count is None and clock() - begin + sum(times) > seconds:
            break
        gc.collect()        # else the last round's garbage may raise peak RSS
        ops = wl.round()
    return {"rounds": rounds, "attempted": attempted, "failed": failed,
            "agree": agree, "checks": checks}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--rounds", type=int, default=None,
                    help="run this many rounds (default: the workload's)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="where --trace 1 writes its spans")
    args = ap.parse_args(argv)
    if args.trace and not args.spans:
        ap.error("--trace 1 needs --spans")

    recorder = None
    if args.trace:
        import layers
        import spans
        recorder = spans.Recorder()
        layers.install(recorder)
    wl = KINDS[args.workload](args.seed, reference.load_record())
    wl.ops = wl.round()
    setup_s = time.perf_counter() - T0
    out = {"setup_s": setup_s}
    if not args.trace:
        out["cal_s"] = calibrate()
    if args.mode == "run":
        count = 1 if args.trace else args.rounds or wl.rounds
        out.update(run_rounds(wl, args.seconds, count, recorder))
        out["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if recorder is not None:
            recorder.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
