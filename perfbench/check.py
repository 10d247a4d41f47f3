"""Output digests that ignore how a step was invoked.

A report's digest is the SHA-256 of its canonical JSON after removing, at
any depth, the keys that echo the invocation or the environment.  Output
paths, ``--threads`` and a provenance block may therefore change without
changing the digest; any verdict, count or summary value still does.
Tables and CSV files are digested byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

INVOCATION_KEYS = frozenset({"config", "threads", "provenance", "written", "json", "out"})


def strip_invocation(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: strip_invocation(v) for k, v in obj.items() if k not in INVOCATION_KEYS}
    if isinstance(obj, list):
        return [strip_invocation(v) for v in obj]
    return obj


def report_digest(report: dict) -> str:
    canonical = json.dumps(strip_invocation(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def step_outcome(step, exit_code: int) -> dict:
    """Exit status and digests of everything the step wrote."""
    return {
        "exit": exit_code,
        "report": report_digest(json.loads(step.report.read_text())),
        "files": {p.name: file_digest(p) for p in step.outputs},
    }
