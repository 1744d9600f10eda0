"""Write record.json: the outputs every benchmark op is checked against.

    python3 bench/record.py

Run it only on a commit whose outputs are the accepted reference.  Each
seed in RECORDED_SEEDS gets its lab reports and plan results; the golden
output does not depend on the seed.
"""

from __future__ import annotations

import json
import sys

import workload  # puts the library on the import path first
import knowpool.lab as lab
import knowpool.norms as norms

import reference
import workloads


def lab_record(seed: int) -> dict:
    bench = lab.Lab(workloads.lab_config(seed))
    return {name: reference.lab_entry(bench.check(name))
            for name in workloads.LAB_SCHEMAS}


def plan_record(seed: int) -> str:
    return " ".join(
        reference.plan_entry(norms.plan(c.pm, c.goal,
                                        require_permissible=c.permissible))
        for c in workloads.plan_cases(seed))


def main() -> int:
    stdout, code = workload.run_examples(
        workloads.golden_argv(workloads.DEFAULT_SEED))
    record = {"golden": {"stdout": stdout, "exit": code},
              "lab": {}, "plan": {}}
    for seed in workloads.RECORDED_SEEDS:
        print("recording seed %d" % seed, file=sys.stderr, flush=True)
        record["lab"][str(seed)] = lab_record(seed)
        record["plan"][str(seed)] = plan_record(seed)
    with open(reference.RECORD_PATH, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
