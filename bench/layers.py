"""Where the traced run records spans, and the per-layer metrics it yields.

Each public function is wrapped at the attribute its callers look up at
call time, e.g. `knowpool.lab.extension` for the lab's calls into the
evaluator and `knowpool.norms.fingerprint` for the planner's.  Recursion
inside a module (`expand` calling itself) goes through the defining module
and is not wrapped, so each span is one call across a layer boundary.
"""

from __future__ import annotations

import knowpool.cli as cli
import knowpool.formula as formula
import knowpool.kripke as kripke
import knowpool.lab as lab
import knowpool.norms as norms
import knowpool.semantics as semantics
import knowpool.update as update
from knowpool.formula import OkAtom

from spans import ROOT, Spans, layer_totals


def _noop(args, out) -> int:
    # share_update(m, w, a, b) returned m itself
    return int(out is args[0])


def _goal(args, out) -> int:
    # the planner evaluates either its goal or a receiver's Ok atom
    return int(not isinstance(args[1], OkAtom))


def _digest(args, out) -> int:
    return hash(out) & 0x7FFFFFFF


# (owner, attribute, span name, mark).  `lab.check` drains `instantiate`'s
# generator with list(), so that span is eager: it covers building the
# instances and the `substitute` calls made meanwhile.
WRAPS = (
    (lab, "parse", "formula.parse", None),
    (cli, "parse", "formula.parse", None),
    (semantics, "expand", "formula.expand", None),
    (lab, "instantiate", "formula.instantiate", None),
    (lab, "substitute", "formula.substitute", None),
    (formula, "substitute", "formula.substitute", None),
    (lab, "extension", "semantics.extension", None),
    (norms, "extension", "semantics.extension", _goal),
    (semantics, "extension", "semantics.extension", None),
    (semantics.EvalContext, "updated", "semantics.updated", None),
    (semantics, "share_update", "update.share_update", _noop),
    (norms, "share_update", "update.share_update", _noop),
    (update, "share_update", "update.share_update", _noop),
    (semantics, "resolve_update", "update.resolve_update", None),
    (lab, "atoms_partition", "kripke.atoms_partition", None),
    (kripke, "atoms_partition", "kripke.atoms_partition", None),
    (semantics, "dep_closure", "kripke.dep_closure", None),
    (lab, "dep_closure", "kripke.dep_closure", None),
    (kripke, "dep_closure", "kripke.dep_closure", None),
    (norms, "fingerprint", "kripke.fingerprint", _digest),
    (kripke.Model, "replace_relations", "kripke.replace_relations", None),
    (norms, "plan", "norms.plan", None),
    (cli, "run_reference_suite", "lab.run_reference_suite", None),
    (cli, "main", "cli.main", None),
)

LAYERS = ("formula.parse", "formula.expand", "semantics.extension",
          "semantics.updated", "update.share_update", "update.resolve_update",
          "kripke.atoms_partition", "kripke.dep_closure",
          "kripke.fingerprint", "norms.plan", "lab.run_reference_suite",
          "cli.main")


def install(recorder) -> None:
    for owner, attr, name, mark in WRAPS:
        recorder.wrap(owner, attr, name, mark,
                      eager=name == "formula.instantiate")


# reached only by `lab`, which BENCHMARK.json does not declare; printed
# after PER_LAYER when that workload is traced
LAB_LAYERS = ("formula.instantiate", "formula.substitute")


def _rows(layer) -> list:
    return [(layer + ".calls", "count", "lower"),
            (layer + ".self_share", "ratio", "lower")]


def _metric_table() -> list:
    # Layer times are shares of the traced round, not seconds: most layers
    # are not reached by every workload, and a time that always reads 0.0
    # says nothing.  `trace.round_s` turns a share back into seconds.
    rows = []
    for layer in LAYERS:
        rows += _rows(layer)
        if layer == "semantics.updated":
            rows.append(("semantics.updated.reuse_ratio", "ratio", "higher"))
        elif layer == "update.share_update":
            rows.append(("update.share_update.noop_ratio", "ratio", "lower"))
        elif layer == "norms.plan":
            rows.append(("norms.plan.nodes", "count", "lower"))
            rows.append(("norms.plan.dedup_ratio", "ratio", "lower"))
    rows.append(("kripke.replace_relations.calls", "count", "lower"))
    rows.append(("trace.round_s", "s", "lower"))
    rows.append(("trace.overhead_s", "s", "lower"))
    return rows


# (name, unit, better) of every declared per-layer metric, in report order
PER_LAYER = tuple(_metric_table())
LAB_ONLY = tuple(row for layer in LAB_LAYERS for row in _rows(layer))


def layer_metrics(spans: Spans, round_s: float, overhead_s: float) -> dict:
    """Every metric of PER_LAYER and LAB_ONLY for a traced round that took
    `round_s`; layers a workload never reaches read 0."""
    totals = layer_totals(spans)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def row(name):
        return totals.get(name, zero)

    ids = {name: i for i, name in enumerate(spans.names)}
    upd, share, ext, fp, plan_ = (
        ids.get(n, -2) for n in ("semantics.updated", "update.share_update",
                                 "semantics.extension", "kripke.fingerprint",
                                 "norms.plan"))
    names, parents, marks = spans.name, spans.parent, spans.mark
    shares_in_updated = noops = nodes = fps = repeats = 0
    seen = {}
    for i in range(len(spans)):
        nid, p = names[i], parents[i]
        outer = names[p] if p != ROOT else -1
        if nid == share:
            noops += marks[i]
            shares_in_updated += outer == upd
        elif nid == ext:
            nodes += outer == plan_ and marks[i] == 1
        elif nid == fp and outer == plan_:
            fps += 1
            digests = seen.setdefault(p, set())
            repeats += marks[i] in digests
            digests.add(marks[i])

    out = {}
    for layer in LAYERS + LAB_LAYERS:
        out[layer + ".calls"] = row(layer)["calls"]
        out[layer + ".self_share"] = row(layer)["self_s"] / round_s
    updated = row("semantics.updated")["calls"]
    out["semantics.updated.reuse_ratio"] = \
        1 - shares_in_updated / updated if updated else 0.0
    shares = row("update.share_update")["calls"]
    out["update.share_update.noop_ratio"] = noops / shares if shares else 0.0
    out["norms.plan.nodes"] = nodes
    out["norms.plan.dedup_ratio"] = repeats / fps if fps else 0.0
    out["kripke.replace_relations.calls"] = \
        row("kripke.replace_relations")["calls"]
    out["trace.round_s"] = round_s
    out["trace.overhead_s"] = overhead_s
    return out
