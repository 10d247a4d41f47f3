"""Batch command-line front end.

One subcommand per public operation, reproducible runs: the effective
parameter set (flags over config file over defaults) is echoed into every
report, and a previously emitted report can itself be passed back with
--config to replay the run.  Reports are JSON; tables are CSV or the
compact binary form.  Exit status for verdict-producing subcommands:
0 pass, 1 fail, 2 inconclusive, 3 invalid certificate or bad input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from . import certify, modular, repcount, series
from .exact import decimal_str, fraction_str, parse_fraction

TOOL = "waring-gaps"
THREADS_ENV = "WARING_GAPS_THREADS"


@dataclass(frozen=True)
class Param:
    name: str
    kind: str  # int | str | fraction | intlist | path
    default: Any = None
    required: bool = False
    help: str = ""


@dataclass
class RunConfig:
    """Effective, fully-resolved parameters of one subcommand invocation."""

    subcommand: str
    params: dict[str, Any]
    threads: int = 1

    def rendered(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for key, value in self.params.items():
            if isinstance(value, Fraction):
                out[key] = fraction_str(value)
            elif isinstance(value, Path):
                out[key] = str(value)
            elif isinstance(value, tuple):
                out[key] = list(value)
            else:
                out[key] = value
        out["threads"] = self.threads
        return out


COMMANDS: dict[str, list[Param]] = {
    "sieve": [
        Param("ell", "int", required=True, help="power exponent, 3 or 4"),
        Param("s", "int", required=True, help="number of summands"),
        Param("limit", "int", required=True, help="largest index sieved"),
        Param("out", "path", help="table output (.csv for CSV, else binary)"),
        Param("json", "path", help="write the JSON report here"),
    ],
    "gaps": [
        Param("table", "path", required=True, help="table file (binary, or CSV with --ell/--s)"),
        Param("min-len", "int", required=True, help="minimal zero-run length"),
        Param("ell", "int", help="exponent, only for CSV tables"),
        Param("s", "int", help="summands, only for CSV tables"),
        Param("out", "path", help="CSV of runs"),
        Param("json", "path"),
    ],
    "greedy": [
        Param("ell", "int", required=True),
        Param("b", "int", required=True, help="integer to decompose"),
        Param("json", "path"),
    ],
    "modcount": [
        Param("ell", "int", required=True),
        Param("modulus", "int", required=True),
        Param("out", "path", help="CSV of residue counts"),
        Param("json", "path"),
    ],
    "crt": [
        Param("ell", "int", required=True),
        Param("moduli", "intlist", required=True, help="comma-separated coprime moduli"),
        Param("out", "path", help="CSV of combined counts"),
        Param("json", "path"),
    ],
    "modsearch": [
        Param("ell", "int", required=True),
        Param("k1", "int", required=True, help="window of consecutive residues"),
        Param("pool", "intlist", required=True, help="candidate moduli"),
        Param("product-bound", "int", help="largest coprime product explored"),
        Param("json", "path"),
    ],
    "mild-scan": [
        Param("table", "path", required=True),
        Param("lo", "int", required=True),
        Param("hi", "int", required=True),
        Param("k", "int", required=True, help="gap length"),
        Param("e", "fraction", required=True, help="tail bound"),
        Param("cutoff", "int", help="tail cutoff index"),
        Param("ell", "int", help="exponent, only for CSV tables"),
        Param("s", "int", help="summands, only for CSV tables"),
        Param("json", "path"),
    ],
    "theta": [
        Param("ell", "int", required=True),
        Param("q", "int", required=True),
        Param("terms", "int", required=True),
        Param("s", "int", default=1, help="which power of the value to enclose"),
        Param("limit", "int", help="sieve limit backing the series"),
        Param("json", "path"),
    ],
    "maier": [
        Param("cert", "path", required=True, help="certificate JSON"),
        Param("table", "path", required=True, help="binary table for (ell, ell)"),
        Param("json", "path"),
    ],
    "nested": [
        Param("cert", "path", required=True, help="certificate JSON"),
        Param("json", "path"),
    ],
    "measure": [
        Param("cert", "path", required=True),
        Param("terms", "int", help="enclosure term count"),
        Param("json", "path"),
    ],
    "linforms": [
        Param("ell", "int", required=True),
        Param("q", "int", required=True),
        Param("height", "int", required=True),
        Param("terms", "int", required=True),
        Param("limit", "int", help="sieve limit backing the series"),
        Param("json", "path"),
    ],
    "pipeline": [
        Param("ell", "int", required=True),
        Param("q", "int", required=True),
        Param("j", "fraction", default=Fraction(1)),
        Param("pool", "intlist", help="candidate moduli"),
        Param("k1", "int", default=2),
        Param("xi", "fraction", default=Fraction(32, 3)),
        Param("sigma", "fraction"),
        Param("product-bound", "int"),
        Param("max-modulus", "int", default=4096),
        Param("max-limit", "int", default=2_000_000),
        Param("mild-cap", "int", default=200),
        Param("json", "path"),
    ],
    "exceptional": [
        Param("limit", "int", required=True),
        Param("epsilon", "fraction", default=Fraction(0)),
        Param("table", "path", help="binary table for (4, 4); sieved when absent"),
        Param("out", "path", help="CSV of members"),
        Param("json", "path"),
    ],
}


def _parse_value(kind: str, raw: Any) -> Any:
    if raw is None:
        return None
    # JSON floats and booleans are rejected too: int() would truncate them.
    scalar = isinstance(raw, (str, int, Fraction, os.PathLike)) and not isinstance(raw, bool)
    if not (scalar or (kind == "intlist" and isinstance(raw, (list, tuple)))):
        raise TypeError(f"expected {kind}, got {type(raw).__name__}")
    if kind == "int":
        return int(raw)
    if kind == "fraction":
        return parse_fraction(raw)
    if kind == "path":
        return Path(raw)
    if kind == "intlist":
        if isinstance(raw, (list, tuple)):
            return tuple(int(v) for v in raw)
        return tuple(int(part) for part in str(raw).split(",") if part.strip())
    return str(raw)


def load_config_file(path: str | Path) -> dict[str, Any]:
    """Read a flat key = value file, or pull the config out of a report."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = json.loads(text)
        config = obj.get("config", obj)
        if not isinstance(config, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        return dict(config)
    out: dict[str, Any] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


# Output destinations are never read from a config file: a report passed
# back with --config would otherwise overwrite itself.
OUTPUT_PARAMS = ("json", "out")


def _resolve(subcommand: str, flags: dict[str, Any], file_config: dict[str, Any]) -> RunConfig:
    """Effective parameters: flags over config file over defaults.

    Keys may be spelled as flags (min-len) or attributes (min_len); a key
    that names no parameter of the subcommand is rejected.
    """
    specs = {spec.name.replace("-", "_"): spec for spec in COMMANDS[subcommand]}
    flags = {k.replace("-", "_"): v for k, v in flags.items() if v is not None}
    file_config = {k.replace("-", "_"): v for k, v in file_config.items()}
    unknown = sorted((set(flags) | set(file_config)) - set(specs) - {"threads"})
    if unknown:
        raise ValueError(f"{subcommand}: unknown parameter(s) {', '.join(unknown)}")
    params: dict[str, Any] = {}
    for attr, spec in specs.items():
        raw = flags.get(attr)
        if raw is None and spec.name not in OUTPUT_PARAMS:
            raw = file_config.get(attr)
        if raw is None:
            value = spec.default
        else:
            value = _parse_param(subcommand, spec.name, spec.kind, raw)
        if value is None and spec.required:
            raise ValueError(f"{subcommand}: missing required parameter --{spec.name}")
        params[attr] = value

    threads = flags.get("threads")
    if threads is None:
        threads = file_config.get("threads")
    if threads is None:
        threads = os.environ.get(THREADS_ENV)
    threads = _parse_param(subcommand, "threads", "int", threads) if threads is not None else 1
    if threads < 1:
        raise ValueError("threads must be at least 1")
    return RunConfig(subcommand=subcommand, params=params, threads=threads)


def _parse_param(subcommand: str, name: str, kind: str, raw: Any) -> Any:
    """_parse_value, with a value of the wrong type reported by its key."""
    try:
        return _parse_value(kind, raw)
    except TypeError as exc:
        raise ValueError(f"{subcommand}: parameter {name}: {exc}") from exc


def _load_table(path: Path, ell: int | None, s: int | None) -> repcount.RepTable:
    if str(path).endswith(".csv"):
        if ell is None or s is None:
            raise ValueError("CSV tables need --ell and --s")
        return repcount.read_table_csv(path, repcount.WaringParams(ell, s))
    return repcount.read_table_binary(path)


def _emit(report: dict, json_path: Path | None) -> None:
    if json_path is not None:
        _write_report(report, Path(json_path))
        verdict = report.get("report", {}).get("verdict")
        line = f"{TOOL}: report written to {json_path}"
        if verdict:
            line += f" (verdict: {verdict})"
        print(line)
    else:
        print(json.dumps(report, indent=2))


def _write_report(report: dict, path: Path) -> None:
    """Stream the report into a sibling file, then move it onto path.

    A report that fails to encode leaves neither a truncated file at path
    nor the sibling behind.
    """
    partial = path.with_name(f".{path.name}.{os.getpid()}.partial")
    try:
        with open(partial, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _base_report(config: RunConfig) -> dict:
    return {"tool": TOOL, "subcommand": config.subcommand, "config": config.rendered()}


# --------------------------------------------------------------------------
# Handlers
# --------------------------------------------------------------------------


def _cmd_sieve(config: RunConfig) -> int:
    p = config.params
    params = repcount.WaringParams(p["ell"], p["s"])
    table = repcount.sieve_rep(params, p["limit"])
    out = p.get("out")
    if out is not None:
        if str(out).endswith(".csv"):
            repcount.write_table_csv(table, out)
        else:
            repcount.write_table_binary(table, out)
    report = _base_report(config)
    report["summary"] = {
        "limit": table.limit,
        "nonzero": int((table.counts != 0).sum()),
        "max_count": int(table.counts.max()),
        "mass": int(table.counts.sum()),
        "written": str(out) if out is not None else None,
    }
    _emit(report, p.get("json"))
    return 0


def _cmd_gaps(config: RunConfig) -> int:
    p = config.params
    table = _load_table(p["table"], p.get("ell"), p.get("s"))
    runs = repcount.find_gap_runs(table, p["min_len"])
    lines = ["start,length,truncated"]
    lines += [f"{r.start},{r.length},{int(r.truncated)}" for r in runs]
    out = p.get("out")
    if out is not None:
        Path(out).write_text("\n".join(lines) + "\n")
    else:
        print("\n".join(lines))
    report = _base_report(config)
    report["runs"] = [
        {"start": r.start, "length": r.length, "truncated": r.truncated} for r in runs
    ]
    if p.get("json") is not None:
        _emit(report, p["json"])
    return 0


def _cmd_greedy(config: RunConfig) -> int:
    p = config.params
    parts, n = repcount.greedy_decompose(p["ell"], p["b"])
    report = _base_report(config)
    report["result"] = {
        "parts": list(parts),
        "n": n,
        "remainder": p["b"] - n,
    }
    _emit(report, p.get("json"))
    return 0


def _cmd_modcount(config: RunConfig) -> int:
    p = config.params
    profile = modular.residue_counts(p["ell"], p["modulus"])
    if p.get("out") is not None:
        modular.write_profile_csv(profile, p["out"])
    report = _base_report(config)
    report["summary"] = {
        "modulus": profile.modulus,
        "zero_residues": [m for m, c in enumerate(profile.counts) if c == 0],
        "max_count": max(profile.counts),
        "mass": sum(profile.counts),
    }
    _emit(report, p.get("json"))
    return 0


def _cmd_crt(config: RunConfig) -> int:
    p = config.params
    combined = None
    for modulus in p["moduli"]:
        profile = modular.residue_counts(p["ell"], modulus)
        combined = profile if combined is None else modular.crt_combine(combined, profile)
    if combined is None:
        raise ValueError("need at least one modulus")
    if p.get("out") is not None:
        modular.write_profile_csv(combined, p["out"])
    report = _base_report(config)
    report["summary"] = {
        "modulus": combined.modulus,
        "zero_residues": [m for m, c in enumerate(combined.counts) if c == 0],
        "mass": sum(combined.counts),
    }
    _emit(report, p.get("json"))
    return 0


def _cmd_modsearch(config: RunConfig) -> int:
    p = config.params
    result = modular.search_gap_modulus(
        p["ell"], p["k1"], p["pool"], product_bound=p.get("product_bound")
    )
    report = _base_report(config)
    report["found"] = result is not None
    report["result"] = result.to_json_dict() if result is not None else None
    _emit(report, p.get("json"))
    return 0 if result is not None else 1


def _cmd_mild_scan(config: RunConfig) -> int:
    p = config.params
    table = _load_table(p["table"], p.get("ell"), p.get("s"))
    f = series.HalfFunction.from_table(table)
    scan = series.scan_mild_gaps(
        f, p["lo"], p["hi"], p["k"], p["e"], cutoff=p.get("cutoff")
    )
    report = _base_report(config)
    report["witnesses"] = [w.to_json_dict() for w in scan.witnesses]
    report["inconclusive"] = list(scan.inconclusive)
    _emit(report, p.get("json"))
    return 0


def _cmd_theta(config: RunConfig) -> int:
    p = config.params
    terms = p["terms"]
    limit = p.get("limit") or terms + 128
    table = repcount.sieve_rep(repcount.WaringParams(p["ell"], p["s"]), limit)
    f = series.HalfFunction.from_table(table)
    enc = series.eval_enclosure(f, p["q"], terms)
    report = _base_report(config)
    report["enclosure"] = enc.to_json_dict()
    report["width"] = fraction_str(enc.width)
    report["decimal_display_only"] = decimal_str((enc.lo + enc.hi) / 2, 18)
    _emit(report, p.get("json"))
    return 0


def _cmd_maier(config: RunConfig) -> int:
    p = config.params
    cert = certify.MaierCertificate.from_json_dict(json.loads(Path(p["cert"]).read_text()))
    table = repcount.read_table_binary(p["table"])
    profile = modular.residue_counts(cert.ell, cert.M)
    result = certify.verify_maier(cert, table, profile)
    report = _base_report(config)
    report["report"] = result.to_json_dict()
    _emit(report, p.get("json"))
    return result.exit_code


def _cmd_nested(config: RunConfig) -> int:
    p = config.params
    cert_path = Path(p["cert"])
    cert = certify.nested_certificate_from_json(
        json.loads(cert_path.read_text()), base_dir=cert_path.parent
    )
    result = certify.verify_nested_gaps(cert)
    report = _base_report(config)
    report["report"] = result.to_json_dict()
    _emit(report, p.get("json"))
    return result.exit_code


def _cmd_measure(config: RunConfig) -> int:
    p = config.params
    cert_path = Path(p["cert"])
    cert = certify.nested_certificate_from_json(
        json.loads(cert_path.read_text()), base_dir=cert_path.parent
    )
    result = certify.check_measure(cert, terms=p.get("terms"))
    report = _base_report(config)
    report["report"] = result.to_json_dict()
    _emit(report, p.get("json"))
    return result.exit_code


def _cmd_linforms(config: RunConfig) -> int:
    p = config.params
    limit = p.get("limit") or p["terms"] + 128
    tables = [
        repcount.sieve_rep(repcount.WaringParams(p["ell"], s), limit)
        for s in range(1, p["ell"] + 1)
    ]
    result = certify.check_theta_linear_forms(
        p["ell"], p["q"], p["height"], p["terms"], tables
    )
    report = _base_report(config)
    report["report"] = result.to_json_dict()
    _emit(report, p.get("json"))
    return result.exit_code


def _cmd_pipeline(config: RunConfig) -> int:
    p = config.params
    pipe_config = certify.PipelineConfig(
        moduli_pool=p.get("pool"),
        window=p["k1"],
        xi=p["xi"],
        sigma=p.get("sigma"),
        product_bound=p.get("product_bound"),
        max_modulus=p["max_modulus"],
        max_limit=p["max_limit"],
        mild_check_cap=p["mild_cap"],
        threads=config.threads,
    )
    result = certify.pipeline_dry_run(p["ell"], p["q"], p["j"], pipe_config)
    report = _base_report(config)
    report["report"] = result.to_json_dict()
    _emit(report, p.get("json"))
    return result.exit_code


def _cmd_exceptional(config: RunConfig) -> int:
    p = config.params
    if p.get("table") is not None:
        table = repcount.read_table_binary(p["table"])
    else:
        table = repcount.sieve_rep(repcount.WaringParams(4, 4), p["limit"])
    scan = repcount.scan_exceptional_set(4, p["limit"], p["epsilon"], table)
    if p.get("out") is not None:
        lines = ["a"] + [str(a) for a in scan.members]
        Path(p["out"]).write_text("\n".join(lines) + "\n")
    report = _base_report(config)
    report["result"] = scan.to_json_dict()
    _emit(report, p.get("json"))
    return 0


HANDLERS: dict[str, Callable[[RunConfig], int]] = {
    "sieve": _cmd_sieve,
    "gaps": _cmd_gaps,
    "greedy": _cmd_greedy,
    "modcount": _cmd_modcount,
    "crt": _cmd_crt,
    "modsearch": _cmd_modsearch,
    "mild-scan": _cmd_mild_scan,
    "theta": _cmd_theta,
    "maier": _cmd_maier,
    "nested": _cmd_nested,
    "measure": _cmd_measure,
    "linforms": _cmd_linforms,
    "pipeline": _cmd_pipeline,
    "exceptional": _cmd_exceptional,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description="Exact sieves, residue profiles and independence certificates",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, specs in COMMANDS.items():
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="key = value file or prior report")
        cmd.add_argument("--threads", default=None, help="worker cap (results independent)")
        for spec in specs:
            cmd.add_argument(f"--{spec.name}", default=None, help=spec.help, dest=spec.name.replace("-", "_"))
    return parser


def run(config: RunConfig) -> int:
    """Dispatch a resolved configuration to its handler."""
    return HANDLERS[config.subcommand](config)


def _run_guarded(resolve: Callable[[], RunConfig]) -> int:
    """Resolve and run one invocation; bad input ends with a message on
    stderr and exit status 3, never a traceback."""
    try:
        return run(resolve())
    except (ValueError, OSError, LookupError, ArithmeticError) as exc:
        print(f"{TOOL}: error: {exc}", file=sys.stderr)
        return 3


def _report_subcommand(path: str | Path) -> str:
    """The subcommand recorded in an emitted report."""
    obj = json.loads(Path(path).read_text())
    subcommand = obj.get("subcommand") if isinstance(obj, dict) else None
    if not isinstance(subcommand, str) or subcommand not in COMMANDS:
        raise ValueError(f"{path}: not a report naming a known subcommand")
    return subcommand


def replay_report(path: str | Path, overrides: dict[str, Any] | None = None) -> int:
    """Re-run the invocation recorded in an emitted report.

    overrides act as flags; output paths come only from them.  Errors are
    handled as in main.
    """
    return _run_guarded(
        lambda: _resolve(_report_subcommand(path), overrides or {}, load_config_file(path))
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    def resolve() -> RunConfig:
        file_config = load_config_file(args.config) if args.config else {}
        flags = {k: v for k, v in vars(args).items() if k not in ("subcommand", "config")}
        return _resolve(args.subcommand, flags, file_config)

    return _run_guarded(resolve)


if __name__ == "__main__":
    sys.exit(main())
