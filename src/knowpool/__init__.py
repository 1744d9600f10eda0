"""Epistemic models with knowledge sharing, resolution, and norms.

The package models groups of S5 agents over finite Kripke models.  Agents
can share what they know along directed updates, pool information down to
distributed knowledge, and be judged on whether a share is permissible
with respect to an ideal transition relation.  A small laboratory module
stress-tests the algebraic laws of these operations on generated models.
"""

from .formula import (Atom, Bot, FormulaError, Formula, IdealAtom, OkAtom,
                      ParseError, Schema, Top, expand, instantiate, parse,
                      print_formula)
from .kripke import (Model, ModelError, PointedModel, atoms_partition,
                     dep_closure, dep_partition, fingerprint, load, pointed,
                     save)
from .lab import (DEFAULT_CONFIG, GOLDEN_FACTS, GenConfig, LabReport,
                  SCHEMAS, check_fact, check_schema, compare_readings,
                  enumerate_models, gen_model, run_all, run_reference_suite)
from .norms import Plan, permissible_share, plan
from .presets import PRESETS, overlap, service_desk, service_desk_deontic
from .semantics import (CheckResult, EvalContext, EvalError, check,
                        extension, global_truth, holds)
from .update import apply_sequence, resolve_update, share_update

__version__ = "0.1.0"

__all__ = [
    "Atom", "Bot", "CheckResult", "DEFAULT_CONFIG", "EvalContext",
    "EvalError", "Formula", "FormulaError", "GOLDEN_FACTS", "GenConfig",
    "IdealAtom", "LabReport", "Model", "ModelError", "OkAtom", "PRESETS",
    "ParseError", "Plan", "PointedModel", "SCHEMAS", "Schema", "Top",
    "apply_sequence", "atoms_partition", "check",
    "check_fact", "check_schema", "compare_readings", "dep_closure",
    "dep_partition", "enumerate_models", "expand", "extension",
    "fingerprint", "gen_model", "global_truth", "holds", "instantiate",
    "load", "overlap", "parse", "permissible_share",
    "plan", "pointed", "print_formula", "resolve_update",
    "run_all", "run_reference_suite", "save", "service_desk",
    "service_desk_deontic", "share_update",
]
