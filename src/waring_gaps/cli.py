"""Batch command-line front end.

One subcommand per public operation, reproducible runs: the effective
parameter set (flags over config file over defaults) is echoed into every
report, and a previously emitted report can itself be passed back with
--config to replay the run.  Reports are JSON; tables are CSV or the
compact binary form.  Exit status for verdict-producing subcommands:
0 pass, 1 fail, 2 inconclusive, 3 bad input, refused with one message
line on stderr and no report written.

Importing this module loads exact and repcount alone; a handler imports
certify, series or modular where it uses them, so sieve, gaps,
exceptional and greedy never load those three.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

import numpy as np

from . import repcount
from .exact import decimal_str, parse_exact, render_exact

if TYPE_CHECKING:
    from . import certify, modular

TOOL = "waring-gaps"


@dataclass(frozen=True)
class Param:
    name: str
    kind: str  # int | fraction | intlist | path, as exact.parse_exact reads them
    default: Any = None  # or a function of no arguments, called when it is resolved
    required: bool = False
    help: str = ""


# A handler takes the resolved parameters and returns the report body (None
# when nothing is to be reported) and the exit status.
Handler = Callable[[dict[str, Any]], tuple[dict | None, int]]


@dataclass(frozen=True)
class Command:
    params: tuple[Param, ...]
    handler: Handler


COMMANDS: dict[str, Command] = {}

# Every subcommand ends with these two; threads is echoed last in its config.
JSON = Param("json", "path", help="write the JSON report here")
THREADS = Param("threads", "int", default=1, help="accepted and echoed; no effect")


def command(name: str, *params: Param) -> Callable[[Handler], Handler]:
    """Register the decorated handler as subcommand name with params."""

    def register(handler: Handler) -> Handler:
        COMMANDS[name] = Command((*params, JSON, THREADS), handler)
        return handler

    return register


@dataclass
class RunConfig:
    """Effective, fully-resolved parameters of one subcommand invocation."""

    subcommand: str
    params: dict[str, Any]


def _int_or_text(literal: str) -> int | str:
    """A JSON integer literal as an int, or as its text when int() refuses
    it for its length, so that parse_exact refuses it by its field's name."""
    try:
        return int(literal)
    except ValueError:
        return literal


def _load_json(text: str) -> Any:
    """The one JSON reader of every certificate, config file and report."""
    return json.loads(text, parse_int=_int_or_text)


def _config_object(obj: Any, path: str | Path) -> dict[str, Any]:
    """The config of a JSON config file: the object itself, or a report's config."""
    config = obj.get("config", obj)
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return dict(config)


def load_config_file(path: str | Path) -> dict[str, Any]:
    """Read a flat key = value file, or pull the config out of a report."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return _config_object(_load_json(text), path)
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
    specs = {spec.name.replace("-", "_"): spec for spec in COMMANDS[subcommand].params}
    flags = {k.replace("-", "_"): v for k, v in flags.items() if v is not None}
    file_config = {k.replace("-", "_"): v for k, v in file_config.items()}
    unknown = sorted((set(flags) | set(file_config)) - set(specs))
    if unknown:
        raise ValueError(f"{subcommand}: unknown parameter(s) {', '.join(unknown)}")
    params: dict[str, Any] = {}
    for attr, spec in specs.items():
        raw = flags.get(attr)
        if raw is None and spec.name not in OUTPUT_PARAMS:
            raw = file_config.get(attr)
        name = f"{subcommand}: parameter {spec.name}"
        if raw is not None:
            value = parse_exact(raw, spec.kind, name)
        else:
            value = spec.default() if callable(spec.default) else spec.default
        if value is None and spec.required:
            raise ValueError(f"{subcommand}: missing required parameter --{spec.name}")
        params[attr] = value
    if params["threads"] < 1:
        raise ValueError("threads must be at least 1")
    return RunConfig(subcommand=subcommand, params=params)


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
        sys.stdout.writelines(_decoded(chain(_report_chunks(report), ["\n"])))


def _decoded(pieces: Iterable[str | np.ndarray]) -> Iterator[str]:
    """The pieces as str, each array of ASCII bytes decoded, for stdout."""
    for piece in pieces:
        yield piece if isinstance(piece, str) else str(piece, "ascii")


def _write_report(report: dict, path: Path) -> None:
    """Stream the report and a final newline to path through repcount.write_output."""
    repcount.write_output(path, chain(_report_chunks(report), ["\n"]))


# json.dumps(value) with an indent of 2 joins what iterencode(value) yields here.
_INDENTED = json.JSONEncoder(indent=2)


def _holds_array(value: Any) -> bool:
    """Whether value is a numpy array or a dict with one somewhere below it."""
    return isinstance(value, np.ndarray) or (
        isinstance(value, dict) and any(map(_holds_array, value.values()))
    )


def _report_chunks(value: Any, indent: str = "") -> Iterator[str | np.ndarray]:
    """value as json.dumps encodes it with an indent of 2, in pieces, with
    every line after the first indented further by indent.

    The report itself (indent "") and every dict that holds an array are
    walked here; their keys are str, as every report's are.  A numpy array,
    which json cannot encode, comes in pieces, some of them arrays of ASCII
    bytes (see _array_pieces).  Every
    other value streams from one iterencode call, which is cheaper than
    walking its dicts key by key; a JSON string never holds a raw newline,
    so re-indenting each piece is exact.
    """
    inner = indent + "  "
    if isinstance(value, dict) and value and (not indent or _holds_array(value)):
        opening = "{\n" + inner
        for key, item in value.items():
            yield f"{opening}{json.dumps(key)}: "
            yield from _report_chunks(item, inner)
            opening = ",\n" + inner
        yield "\n" + indent + "}"
    elif isinstance(value, np.ndarray):
        yield from _array_pieces(value, indent)
    else:
        # In blocks of up to 1024 pieces: one replace per block, and no more
        # than a block held at once, as json.dump holds no more than a piece.
        newline = "\n" + indent
        chunks = _INDENTED.iterencode(value)
        for first in chunks:
            yield (first + "".join(islice(chunks, 1023))).replace("\n", newline)


def _array_pieces(value: np.ndarray, indent: str) -> Iterator[str | np.ndarray]:
    """The JSON list of a 1-D int array, or of one object per record of a
    structured array of int and bool fields, laid out as _report_chunks
    lays out a list at indent: its brackets as str, its items in the blocks
    repcount.render_rows yields.
    """
    names = value.dtype.names
    columns = [value[name] for name in names] if names else [value]
    if value.ndim != 1 or any(c.ndim != 1 or c.dtype.kind not in "biu" for c in columns):
        raise TypeError(f"cannot encode an array of shape {value.shape} and dtype {value.dtype}")
    if not value.size:
        yield "[]"
        return
    inner = indent + "  "
    # Every item starts with the separator; the first drops its comma.
    separator = ",\n" + inner
    if names:
        first, *rest = (f"{inner}  {json.dumps(name)}: " for name in names)
        seps = [separator + "{\n" + first, *(",\n" + key for key in rest), "\n" + inner + "}"]
    else:
        seps = [separator, ""]
    pieces = repcount.render_rows(columns, seps)
    yield "["
    yield next(pieces)[1:]
    yield from pieces
    yield "\n" + indent + "]"


def _base_report(config: RunConfig) -> dict:
    config_echo = render_exact(config.params)
    return {"tool": TOOL, "subcommand": config.subcommand, "config": config_echo}


def _verdict(result: certify.Report) -> tuple[dict, int]:
    return {"report": result.to_json_dict()}, result.exit_code


def _profile_summary(profile: modular.ResidueProfile, out: Path | None, **extra: Any) -> dict:
    """The summary of a profile subcommand, each entry bounded by
    render_exact; then the profile's CSV is written when asked."""
    from . import modular

    summary = render_exact({
        "modulus": profile.modulus,
        "zero_residues": [m for m, c in enumerate(profile.counts) if c == 0],
        **extra,
        "mass": sum(profile.counts),
    })
    if out is not None:
        modular.write_profile_csv(profile, out)
    return {"summary": summary}


def _sieve_limit(p: dict[str, Any]) -> int:
    """Sieve limit backing a series evaluated to p["terms"] terms."""
    return p["limit"] or p["terms"] + 128


def _nested_certificate(path: Path) -> certify.NestedGapsCertificate:
    from . import certify

    return certify.nested_certificate_from_json(_load_json(path.read_text()), base_dir=path.parent)


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


@command(
    "sieve",
    Param("ell", "int", required=True, help="power exponent, 3 or 4"),
    Param("s", "int", required=True, help="number of summands"),
    Param("limit", "int", required=True, help="largest index sieved"),
    Param("out", "path", help="table output (.csv for CSV, else binary)"),
)
def _cmd_sieve(p: dict[str, Any]) -> tuple[dict, int]:
    table = repcount.sieve_rep(repcount.WaringParams(p["ell"], p["s"]), p["limit"])
    out = p["out"]
    if out is not None:
        if str(out).endswith(".csv"):
            repcount.write_table_csv(table, out)
        else:
            repcount.write_table_binary(table, out)
    summary = {
        "limit": table.limit,
        "nonzero": int(np.count_nonzero(table.counts)),
        "max_count": int(table.counts.max()),
        "mass": int(table.counts.sum()),
        "written": str(out) if out is not None else None,
    }
    return {"summary": summary}, 0


@command(
    "gaps",
    Param("table", "path", required=True, help="table file (binary, or CSV with --ell/--s)"),
    Param("min-len", "int", required=True, help="minimal zero-run length"),
    Param("ell", "int", help="exponent, only for CSV tables"),
    Param("s", "int", help="summands, only for CSV tables"),
    Param("out", "path", help="CSV of runs"),
)
def _cmd_gaps(p: dict[str, Any]) -> tuple[dict | None, int]:
    runs = repcount.find_gap_runs(_load_table(p["table"], p["ell"], p["s"]), p["min_len"])
    columns = [runs[name].astype(np.int64) for name in runs.dtype.names]
    text = repcount.csv_pieces(",".join(runs.dtype.names), columns)
    if p["out"] is not None:
        repcount.write_output(p["out"], text)
    else:
        sys.stdout.writelines(_decoded(text))
    # The runs went to stdout or --out; a report is written only to --json.
    if p["json"] is None:
        return None, 0
    return {"runs": runs}, 0


@command(
    "greedy",
    Param("ell", "int", required=True),
    Param("b", "int", required=True, help="integer to decompose"),
)
def _cmd_greedy(p: dict[str, Any]) -> tuple[dict, int]:
    parts, n = repcount.greedy_decompose(p["ell"], p["b"])
    return {"result": {"parts": list(parts), "n": n, "remainder": p["b"] - n}}, 0


@command(
    "modcount",
    Param("ell", "int", required=True),
    Param("modulus", "int", required=True),
    Param("out", "path", help="CSV of residue counts"),
)
def _cmd_modcount(p: dict[str, Any]) -> tuple[dict, int]:
    from . import modular

    profile = modular.residue_counts(p["ell"], p["modulus"])
    return _profile_summary(profile, p["out"], max_count=max(profile.counts)), 0


@command(
    "crt",
    Param("ell", "int", required=True),
    Param("moduli", "intlist", required=True, help="comma-separated coprime moduli"),
    Param("out", "path", help="CSV of combined counts"),
)
def _cmd_crt(p: dict[str, Any]) -> tuple[dict, int]:
    from . import modular

    combined = modular.crt_fold(modular.residue_counts(p["ell"], m) for m in p["moduli"])
    return _profile_summary(combined, p["out"]), 0


@command(
    "modsearch",
    Param("ell", "int", required=True),
    Param("k1", "int", required=True, help="window of consecutive residues"),
    Param("pool", "intlist", required=True, help="candidate moduli"),
    Param("product-bound", "int", help="largest coprime product explored"),
)
def _cmd_modsearch(p: dict[str, Any]) -> tuple[dict, int]:
    from . import modular

    result = modular.search_gap_modulus(
        p["ell"], p["k1"], p["pool"], product_bound=p["product_bound"]
    )
    found = result is not None
    return {"found": found, "result": result.to_json_dict() if found else None}, 0 if found else 1


@command(
    "mild-scan",
    Param("table", "path", required=True),
    Param("lo", "int", required=True),
    Param("hi", "int", required=True),
    Param("k", "int", required=True, help="gap length"),
    Param("e", "fraction", required=True, help="tail bound"),
    Param("cutoff", "int", help="absolute tail cutoff index, at least n + k for every candidate n"),
    Param("ell", "int", help="exponent, only for CSV tables"),
    Param("s", "int", help="summands, only for CSV tables"),
)
def _cmd_mild_scan(p: dict[str, Any]) -> tuple[dict, int]:
    from . import series

    f = series.HalfFunction.from_table(_load_table(p["table"], p["ell"], p["s"]))
    scan = series.scan_mild_gaps(f, p["lo"], p["hi"], p["k"], p["e"], cutoff=p["cutoff"])
    return {
        "witnesses": [w.to_json_dict() for w in scan.witnesses],
        "inconclusive": list(scan.inconclusive),
    }, 0


@command(
    "theta",
    Param("ell", "int", required=True),
    Param("q", "int", required=True),
    Param("terms", "int", required=True),
    Param("s", "int", default=1, help="which power of the value to enclose"),
    Param("limit", "int", help="sieve limit backing the series"),
)
def _cmd_theta(p: dict[str, Any]) -> tuple[dict, int]:
    from . import series

    table = repcount.sieve_rep(repcount.WaringParams(p["ell"], p["s"]), _sieve_limit(p))
    enc = series.eval_enclosure(series.HalfFunction.from_table(table), p["q"], p["terms"])
    return render_exact({
        "enclosure": enc.to_json_dict(),
        "width": enc.width,
        "decimal_display_only": decimal_str((enc.lo + enc.hi) / 2, 18),
    }), 0


@command(
    "maier",
    Param("cert", "path", required=True, help="certificate JSON"),
    Param("table", "path", required=True, help="binary table for (ell, ell)"),
)
def _cmd_maier(p: dict[str, Any]) -> tuple[dict, int]:
    from . import certify, modular

    cert = certify.MaierCertificate.from_json_dict(_load_json(p["cert"].read_text()))
    table = repcount.read_table_binary(p["table"])
    # A certificate that can pass has M <= M^ell <= N <= limit + 1, and a profile
    # for a larger M may not fit in memory.
    if cert.M > table.limit + 1:
        raise ValueError(f"field M: past the table's limit + 1 = {table.limit + 1}")
    profile = modular.residue_counts(cert.ell, cert.M)
    return _verdict(certify.verify_maier(cert, table, profile))


@command("nested", Param("cert", "path", required=True, help="certificate JSON"))
def _cmd_nested(p: dict[str, Any]) -> tuple[dict, int]:
    from . import certify

    return _verdict(certify.verify_nested_gaps(_nested_certificate(p["cert"])))


@command(
    "measure",
    Param("cert", "path", required=True),
    Param("terms", "int", help="enclosure term count"),
)
def _cmd_measure(p: dict[str, Any]) -> tuple[dict, int]:
    from . import certify

    return _verdict(certify.check_measure(_nested_certificate(p["cert"]), terms=p["terms"]))


@command(
    "linforms",
    Param("ell", "int", required=True),
    Param("q", "int", required=True),
    Param("height", "int", required=True),
    Param("terms", "int", required=True),
    Param("limit", "int", help="sieve limit backing the series"),
)
def _cmd_linforms(p: dict[str, Any]) -> tuple[dict, int]:
    from . import certify

    tables = [
        repcount.sieve_rep(repcount.WaringParams(p["ell"], s), _sieve_limit(p))
        for s in range(1, p["ell"] + 1)
    ]
    return _verdict(certify.check_theta_linear_forms(p["q"], p["height"], p["terms"], tables))


def _pipeline_default(field: str) -> Callable[[], Any]:
    """The default of a pipeline flag: the PipelineConfig field's, read
    when pipeline is resolved, so no other subcommand loads certify."""

    def default() -> Any:
        from . import certify

        return getattr(certify.PipelineConfig(), field)

    return default


@command(
    "pipeline",
    Param("ell", "int", required=True),
    Param("q", "int", required=True),
    Param("j", "fraction", default=Fraction(1)),
    Param("pool", "intlist", help="candidate moduli"),
    Param("k1", "int", default=_pipeline_default("window")),
    Param("xi", "fraction", default=_pipeline_default("xi")),
    Param("sigma", "fraction"),
    Param("product-bound", "int"),
    Param("max-modulus", "int", default=_pipeline_default("max_modulus")),
    Param("max-limit", "int", default=_pipeline_default("max_limit")),
    Param("mild-cap", "int", default=_pipeline_default("mild_check_cap")),
)
def _cmd_pipeline(p: dict[str, Any]) -> tuple[dict, int]:
    from . import certify

    config = certify.PipelineConfig(
        moduli_pool=p["pool"],
        window=p["k1"],
        xi=p["xi"],
        sigma=p["sigma"],
        product_bound=p["product_bound"],
        max_modulus=p["max_modulus"],
        max_limit=p["max_limit"],
        mild_check_cap=p["mild_cap"],
        threads=p["threads"],
    )
    return _verdict(certify.pipeline_dry_run(p["ell"], p["q"], p["j"], config))


@command(
    "exceptional",
    Param("limit", "int", required=True),
    Param("epsilon", "fraction", default=Fraction(0)),
    Param("table", "path", help="binary table for (4, 4); sieved when absent"),
    Param("out", "path", help="CSV of members"),
)
def _cmd_exceptional(p: dict[str, Any]) -> tuple[dict, int]:
    if p["table"] is not None:
        table = repcount.read_table_binary(p["table"])
    else:
        table = repcount.sieve_rep(repcount.WaringParams(4, 4), p["limit"])
    scan = repcount.scan_exceptional_set(p["limit"], p["epsilon"], table)
    if p["out"] is not None:
        repcount.write_output(p["out"], repcount.csv_pieces("a", [scan.members]))
    return {"result": scan.to_json_dict()}, 0


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every registered subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description="Exact sieves, residue profiles and independence certificates",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, cmd in COMMANDS.items():
        sub_parser = sub.add_parser(name)
        sub_parser.add_argument("--config", default=None, help="key = value file or prior report")
        for spec in cmd.params:
            sub_parser.add_argument(
                f"--{spec.name}", default=None, help=spec.help, dest=spec.name.replace("-", "_")
            )
    return parser


def run(config: RunConfig) -> int:
    """Run a resolved configuration; emit its report and return the exit status."""
    body, status = COMMANDS[config.subcommand].handler(config.params)
    if body is not None:
        _emit({**_base_report(config), **body}, config.params["json"])
    return status


def _run_guarded(resolve: Callable[[], RunConfig]) -> int:
    """Resolve and run one invocation; bad input ends with a message on
    stderr and exit status 3, never a traceback.  RecursionError counts as
    bad input: it is how json reports nesting too deep to decode.  So does
    running out of memory, whose message may be empty (a bare MemoryError)
    or numpy's account of the allocation that failed."""
    try:
        return run(resolve())
    except (ValueError, OSError, LookupError, ArithmeticError, RecursionError) as exc:
        print(f"{TOOL}: error: {exc}", file=sys.stderr)
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"{TOOL}: error: ran out of memory{detail}", file=sys.stderr)
    return 3


def replay_report(path: str | Path, overrides: dict[str, Any] | None = None) -> int:
    """Re-run the invocation recorded in an emitted report.

    overrides act as flags; output paths come only from them.  Errors are
    handled as in main.
    """

    def resolve() -> RunConfig:
        report = _load_json(Path(path).read_text())
        subcommand = report.get("subcommand") if isinstance(report, dict) else None
        if not isinstance(subcommand, str) or subcommand not in COMMANDS:
            raise ValueError(f"{path}: not a report naming a known subcommand")
        return _resolve(subcommand, overrides or {}, _config_object(report, path))

    return _run_guarded(resolve)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    def resolve() -> RunConfig:
        file_config = load_config_file(args.config) if args.config else {}
        flags = {k: v for k, v in vars(args).items() if k not in ("subcommand", "config")}
        return _resolve(args.subcommand, flags, file_config)

    return _run_guarded(resolve)


if __name__ == "__main__":
    sys.exit(main())
