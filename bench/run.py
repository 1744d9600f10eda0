"""knowpool benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload golden|lab|plan|all [--seed 1729]
                         [--seconds 40] [--trace 0|1]

Every workload runs in fresh child processes (bench/workload.py), one at a
time, so peak RSS and set-up time belong to that workload alone.

--trace 0  runs the workload's timed rounds in one process and
           measures set-up in that process and in SETUP_SAMPLES processes
           that stop after set-up, half of them started before the run and
           half after it; prints the end-to-end metrics, times in
           reference seconds (REFERENCE_S; bench/README.md).
--trace 1  runs one round untraced and one round traced, each in its own
           process, and prints the per-layer metrics (layers.py); the
           tracing overhead is the traced round's time minus the untraced
           one's, both in unscaled seconds.

Metrics go to stderr as `name value unit` lines; the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}.  An op is
failed when it raises or its output differs from bench/record.json.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCES = ROOT / "src" / "knowpool"
SPANS_DIR = ROOT / ".bench_build"

WORKLOADS = ("golden", "lab", "plan")
SETUP_SAMPLES = 6
DEADLINE_S = 170.0

# the calibration kernel's time (workload.calibrate) that defines one
# reference second
REFERENCE_S = 0.0015

# (name, unit, better), printed in this order with --trace 0
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
    ("pass_ratio", "ratio", "higher"),
)


class BenchError(Exception):
    pass


def tail_index(n: int) -> int:
    """Index into a round's n sorted op times of the highest percentile
    with at least ten samples beyond it.  Rounds of fewer than 100 ops
    (the lab's schema checks) would get a low percentile that way, so they
    report their slowest op instead."""
    return n - 11 if n >= 100 else n - 1


def _child(deadline: float, *args: str) -> dict:
    cmd = [sys.executable, str(BENCH / "workload.py"), *args]
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before %s" % " ".join(args))
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: %s" % " ".join(args)) from None
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError("child failed (exit %d): %s"
                         % (done.returncode, " ".join(args)))
    return json.loads(lines[-1])


def _figures(rounds: list, setups: list, scaled: bool) -> dict:
    """Times of a run; `scaled` puts them in reference seconds, each op
    scaled by the mean of the calibrations just before and after it and
    each set-up by its own."""
    def scale(cal_s):
        return REFERENCE_S / cal_s if scaled else 1.0

    per_round = []
    for r in rounds:
        cal = r["cal_s"]
        per_round.append(sorted(
            t * scale((cal[i] + cal[i + 1]) / 2)
            for t, i in zip(r["op_s"], r["cal_at"])))
    return {
        # means over rounds, not medians: what is left of the machine's
        # speed changes after scaling averages out
        "wall_s": statistics.mean(sum(times) for times in per_round),
        "op_p50_ms": 1000 * statistics.mean(
            statistics.median(times) for times in per_round),
        "op_tail_ms": 1000 * statistics.mean(
            times[tail_index(len(times))] for times in per_round),
        "setup_s": statistics.median(r["setup_s"] * scale(r["cal_s"])
                                     for r in setups),
    }


def _end_to_end(result: dict, setups: list) -> dict:
    """Times in reference seconds (see REFERENCE_S); the unscaled figures
    go to stderr."""
    rounds = result["rounds"]
    n = len(rounds[0]["op_s"])
    print("# %d round(s) of %d ops; op_p50_ms and op_tail_ms (p%.2f) are "
          "means over rounds; setup_s is the median of %d processes"
          % (len(rounds), n, 100.0 * (tail_index(n) + 1) / n, len(setups)),
          file=sys.stderr)
    raw = _figures(rounds, setups, scaled=False)
    print("# unscaled: " + " ".join("%s=%.6g" % kv for kv in raw.items()),
          file=sys.stderr)
    out = _figures(rounds, setups, scaled=True)
    out["peak_rss_mb"] = result["peak_rss_mb"]
    out["pass_ratio"] = result["agree"] / result["checks"]
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ("--workload", workload, "--seed", str(seed),
              "--seconds", repr(seconds))
    if not trace:
        def setups():
            return [_child(deadline, *common, "--mode", "setup")
                    for _ in range(SETUP_SAMPLES // 2)]
        before = setups()
        result = _child(deadline, *common)
        after = setups()
        runs = [result]
        values = _end_to_end(result, before + [result] + after)
        table = END_TO_END
    else:
        sys.path.insert(0, str(ROOT / "src"))
        import layers
        import spans
        SPANS_DIR.mkdir(exist_ok=True)
        path = SPANS_DIR / ("spans-%s.bin" % workload)
        plain = _child(deadline, *common, "--rounds", "1")
        traced = _child(deadline, *common, "--trace", "1",
                        "--spans", str(path))
        runs = [plain, traced]
        round_s = sum(traced["rounds"][0]["op_s"])
        overhead = round_s - sum(plain["rounds"][0]["op_s"])
        values = layers.layer_metrics(spans.load(path), round_s, overhead)
        table = layers.PER_LAYER + (layers.LAB_ONLY if workload == "lab"
                                    else ())
    for name, unit, _ in table:
        print("%s %r %s" % (name, values[name], unit), file=sys.stderr)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in table},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    required=True)
    ap.add_argument("--seed", type=int, default=1729)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SOURCES / "__init__.py").is_file():
        print("error: no library sources at %s" % SOURCES, file=sys.stderr)
        return 2
    # the build: byte-compile once so no timed import pays for it
    if not compileall.compile_dir(str(SOURCES), quiet=1):
        print("error: the library does not compile", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        print("## %s" % name, file=sys.stderr)
        try:
            result = measure(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
