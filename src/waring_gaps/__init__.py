"""Exact-arithmetic toolkit for power-sum representation counts, residue
profiles, mild-gap detection on integer power series, and machine-checked
linear-independence certificates.

Importing the package loads none of its modules: each export, and each
module, is imported the first time it is read (PEP 562), so a process
pays only for the modules it uses.
"""

import importlib
from typing import Any

__version__ = "0.1.0"

_SUBMODULES = ("certify", "cli", "exact", "modular", "repcount", "series")

# Each public name and the module that defines it.
_EXPORTS = {
    **dict.fromkeys(
        (
            "ConditionResult", "DegreeCertificate", "MaierCertificate", "NestedGapsCertificate",
            "PipelineConfig", "Report", "Verdict", "check_measure", "check_theta_linear_forms",
            "half_function_from_spec", "maier_qualifying_set", "nested_certificate_from_json",
            "pipeline_dry_run", "verify_degree_criterion", "verify_maier", "verify_maier_inner",
            "verify_nested_gaps",
        ),
        "certify",
    ),
    **dict.fromkeys(
        (
            "GapModulusResult", "PowerHistogram", "ResidueProfile", "crt_combine", "crt_fold",
            "power_histogram", "residue_counts", "search_gap_modulus",
        ),
        "modular",
    ),
    **dict.fromkeys(
        (
            "ExceptionalScan", "RepTable", "WaringParams", "find_gap_runs", "floor_root",
            "greedy_decompose", "read_table_binary", "read_table_csv", "scan_exceptional_set",
            "sieve_pair", "sieve_rep", "write_table_binary", "write_table_csv",
        ),
        "repcount",
    ),
    **dict.fromkeys(
        (
            "Enclosure", "HalfFunction", "MildGapCheck", "MildGapScan", "MildGapWitness",
            "eval_enclosure", "eval_truncated", "is_mild_gap", "linear_combination",
            "mild_gap_checks", "scan_mild_gaps", "tail_norm",
        ),
        "series",
    ),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
