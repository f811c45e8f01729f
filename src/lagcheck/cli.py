"""Batch front-end: build immersions from a config, run identity suites and
energy reports, emit JSON, CSV, or fixed-width tables.

Reports are byte-deterministic for a fixed config and seed: keys are sorted,
floats use repr, files are UTF-8 and newline-terminated, and every random
choice flows from the single config seed: the sample points are drawn from
Python's `random.Random(seed)` stream (`immersions.Draws`), which Python
keeps the same across versions, and no command loads `numpy.random`.

A config is one JSON object of top-level keys, the body's and the run's; it
alone says what a report holds, and `--out` and `--format` where and how.

An energy report is its rule and its entries sorted by name: the table and
the CSV print one line per entry, and a `scan` one column per entry after `param`.

Exit status: 0 all requested checks passed, 1 a check failed, 2 config error
(also a config that is not a JSON object; an invalid run parameter: a
`degree` above MAX_DEGREE, a rule over MAX_NODES nodes, `samples` above
MAX_SAMPLES, an empty scan, a scan over a whole list parameter rather than
one of its entries, a format or out path, a malformed report; a run key of
another command; and any other key that is not a parameter of the built
body, such as a misspelt `radius`, `sead` or `out`),
3 immersion construction error (also a parameter that overflows, and a
real parameter that is a bool, a string, a NaN, an infinity or a huge integer), 4
evaluation error (e.g. a non-Lagrangian immersion or an induced metric that
is degenerate or not finite, detected during geometry evaluation, an
identity residual, its headroom or an energy that overflows, or a quadrature rule too
large to allocate), always one line on stderr and no report.

`main` is the application entry point, so it, not an import, sets the C
allocator's thresholds (`keep_freed_memory`).
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import numbers
import sys
from pathlib import Path

import numpy as np

from .cpn import make_cpn_torus, make_rpn, make_whitney_cpn
from .geometry import DegenerateMetricError, NonLagrangianError
from .identities import CHECKS, run_identity_suite
from .immersions import (
    Draws,
    OutOfDomainError,
    jsonable_params,
    make_lagrangian_plane,
    make_nonlagrangian_plane,
    make_perturbed_whitney,
    make_product_torus,
    make_whitney_cn,
)
from .quadrature import energy_report, rule_for

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_CONSTRUCTION_ERROR = 3
EXIT_EVALUATION_ERROR = 4

FORMATS = ("json", "csv", "table")


class ConfigError(ValueError):
    pass


class ConstructionError(ValueError):
    pass


def load_config(path: str) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"a config is a JSON object, got {type(cfg).__name__}")
    return cfg


def is_real(x) -> bool:
    """A finite real number: not a bool, a string, a NaN, an infinity or an
    integer too large for a float."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def integer_param(params: dict, key: str, default: int) -> int:
    """`params[key]` as an int: a fraction, a string or a bool is refused, not truncated."""
    v = params.get(key, default)
    if not (is_real(v) and float(v).is_integer()):
        raise ValueError(f"{key} must be an integer, got {v!r}")
    return int(v)


def real_param(value, what: str) -> float:
    """`value` as a float: a string, a bool, a NaN or an infinity is refused, not coerced."""
    if not is_real(value):
        raise ValueError(f"{what} must be a finite real number, got {value!r}")
    return float(value)


def offset_param(params: dict) -> np.ndarray | None:
    """The `whitney_cn` offset A: each entry a real number or an [re, im] pair."""
    A = params.get("A")
    if A is None:
        return None
    for a in A:
        if not (is_real(a) or isinstance(a, (list, tuple)) and len(a) == 2 and all(map(is_real, a))):
            raise ValueError(f"offset A entry {a!r} is neither a finite number nor an [re, im] pair of them")
    return np.array([complex(*a) if isinstance(a, (list, tuple)) else complex(a) for a in A])


# Each family's body from the parameters of a config.
FAMILIES = {
    "whitney_cn": lambda p: make_whitney_cn(
        real_param(p.get("r", 1.0), "r"), offset_param(p), integer_param(p, "n", 2)
    ),
    "product_torus": lambda p: make_product_torus([real_param(x, "a torus radius") for x in p["radii"]]),
    "lagrangian_plane": lambda p: make_lagrangian_plane(integer_param(p, "n", 2)),
    "nonlagrangian_plane": lambda p: make_nonlagrangian_plane(integer_param(p, "n", 2)),
    "perturbed_whitney": lambda p: make_perturbed_whitney(
        real_param(p.get("r", 1.0), "r"),
        real_param(p.get("eps", 0.0), "eps"),
        integer_param(p, "mode", 1),
        integer_param(p, "n", 2),
    ),
    "whitney_cpn": lambda p: make_whitney_cpn(real_param(p.get("theta", 1.0), "theta"), integer_param(p, "n", 2)),
    "rpn": lambda p: make_rpn(integer_param(p, "n", 2)),
    "cpn_torus": lambda p: make_cpn_torus([real_param(x, "a torus modulus") for x in p["moduli"]]),
}


def build_immersion(cfg: dict, command: str):
    """The body a config of `command` describes: its family keys sit at the
    top level beside the run keys of `command`.  A run key of another
    command, and a key that is neither a run key nor a parameter the built
    body records in its `params`, are refused, not ignored, and so is an `n`
    other than the dimension of the body, which a torus derives from its
    radii or moduli."""
    run_keys = RUN_KEYS[command]
    if foreign := sorted(set(cfg) & (set().union(*RUN_KEYS.values()) - run_keys)):
        raise ConfigError(f"{command} takes no {foreign}: its run keys are {sorted(run_keys)}")
    family = cfg.get("family")
    if not isinstance(family, str) or family not in FAMILIES:
        raise ConfigError(f"unknown or missing immersion family: {family!r}")
    params = {k: v for k, v in cfg.items() if k != "family" and k not in run_keys}
    try:
        imm = FAMILIES[family](params)
        if "n" in params and integer_param(params, "n", imm.source_dim) != imm.source_dim:
            raise ValueError(f"n = {params['n']!r}, but its parameters give n = {imm.source_dim}")
    except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
        raise ConstructionError(f"cannot construct {family}: {exc}") from exc
    if unknown := sorted(set(params) - set(imm.params)):
        raise ConfigError(f"unknown {family} parameters {unknown}: it takes {sorted(imm.params)}")
    return imm


# The keys of a config that are not the body's, by command.
RUN_KEYS = {
    "identities": {"samples", "seed", "tol_scale", "heavy"},
    "energy": {"degree"},
    "scan": {"degree", "scan_param", "values"},
}


def integer(cfg: dict, key: str, default: int, least: int) -> int:
    """The integer run parameter `key`, at least `least`."""
    value = cfg.get(key, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{key!r} must be an integer >= {least}, got {value!r}")
    return value


# `quadrature._gl_nodes` costs about degree^2 before any grid is allocated (one
# process, 2-core VM: 0.20 s at degree 3000, 0.33 s at 4000, 0.47 s at 5000,
# 1.1 s at 8000, 1.8 s at 10^4), so a huge degree would never return.  A rule
# has degree^n nodes, and an energy op takes about 5 us and 0.17 KB of peak RSS
# per node (whitney_cn, n = 4, degree 32: 2^20 nodes in 5.5 s and 175 MB).
MAX_DEGREE = 4000
MAX_NODES = 2**20
# An identities op streams its samples, so its memory does not grow with them;
# the cap bounds the time of one op (whitney_cn, n = 5, heavy, 1024 samples:
# 1.0 s, peak 34 MB, 2-core VM) and its report, which lists every sample (213 kB).
MAX_SAMPLES = 1024


def rule_degree(cfg: dict) -> int:
    """The quadrature `degree` of an `energy` or `scan` run, 1..MAX_DEGREE."""
    degree = integer(cfg, "degree", 30, 1)
    if degree > MAX_DEGREE:
        raise ConfigError(f"'degree' must be at most {MAX_DEGREE}, got {degree}")
    return degree


def number(value, what: str) -> float:
    """A finite real run parameter; an integer too large for a float is not one."""
    if not is_real(value):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def compact_immersion(cfg: dict, command: str, degree: int):
    """The immersion of `cfg`, which must be compact for `command`, with a
    `degree` rule of at most MAX_NODES nodes."""
    imm = build_immersion(cfg, command)
    if not imm.compact:
        raise ConfigError(f"{command} needs a compact body, {imm.name} is not compact")
    if degree**imm.source_dim > MAX_NODES:
        raise ConfigError(f"degree {degree} gives {degree**imm.source_dim} rule nodes, more than {MAX_NODES}")
    return imm


def write_text(path: str | None, text: str):
    if path:
        try:
            Path(path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def output(args, formats: tuple[str, ...] = FORMATS) -> tuple[str | None, str]:
    """The `--out` path and `--format` of a run, checked before any work:
    the format, by default the first of `formats`, must be one of them, and
    the path must lie in a directory that exists."""
    out, fmt = args.out, args.format or formats[0]
    if fmt not in formats:
        raise ConfigError(f"{fmt} format is not available for this report")
    if out and not Path(out).parent.is_dir():
        raise ConfigError(f"cannot write {out}: {Path(out).parent} is not a directory")
    return out, fmt


def render_table(doc: dict) -> str:
    kind = doc.get("kind", "?")
    lines = [f"{kind} report: {doc.get('immersion', '?')}  (schema {doc.get('schema')})"]
    if kind == "identities":
        lines.append(
            f"{'check':34s} {'max residual':>14s} {'tolerance':>12s} {'headroom':>10s} "
            f"{'sample':>6s} {'pass':>6s}"
        )
        for c in doc["checks"]:
            lines.append(
                f"{c['name']:34s} {c['max_residual']:14.3e} {c['tolerance']:12.1e} "
                f"{c['headroom']:10.2e} {c['argmax']:6d} {'ok' if c['pass'] else 'FAIL':>6s}"
            )
        lines.append(f"all_pass: {doc['all_pass']}")
    elif kind == "energy":
        lines.append(f"{'functional':20s} {'value':>24s}")
        for name, value in doc["entries"].items():
            lines.append(f"{name:20s} {value:24.15e}")
    else:
        lines.append(json.dumps(doc, sort_keys=True, indent=2))
    return "\n".join(lines) + "\n"


def render_csv(doc: dict) -> str:
    """An energy report as CSV: one row per entry."""
    degree, node_count = doc["rule"]["degree"], doc["rule"]["node_count"]
    lines = ["name,value,degree,node_count"]
    for name, value in doc["entries"].items():
        lines.append(f"{name},{value!r},{degree},{node_count}")
    return "\n".join(lines) + "\n"


def emit(doc: dict, out: str | None, fmt: str):
    """Write a report document in a format `output` has checked."""
    if fmt == "csv":
        write_text(out, render_csv(doc))
    elif fmt == "table":
        write_text(out, render_table(doc))
    else:
        write_text(out, json.dumps(doc, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_identities(args) -> int:
    cfg = load_config(args.config)
    seed = integer(cfg, "seed", 0, 0)
    samples = integer(cfg, "samples", 20, 1)
    if samples > MAX_SAMPLES:
        raise ConfigError(f"'samples' must be at most {MAX_SAMPLES}, got {samples}")
    tol_scale = number(cfg.get("tol_scale", 1.0), "'tol_scale'")
    tiny = float(np.finfo(float).tiny)
    if not min(c.tol for c in CHECKS) * tol_scale >= tiny:
        raise ConfigError(
            f"'tol_scale' must be positive and leave every tolerance at least {tiny!r}, got {tol_scale!r}"
        )
    heavy = cfg.get("heavy", True)
    if not isinstance(heavy, bool):
        raise ConfigError(f"'heavy' must be true or false, got {heavy!r}")
    out, fmt = output(args, ("json", "table"))
    imm = build_immersion(cfg, "identities")
    charts, coords = imm.atlas.random(Draws(seed), samples)
    doc = run_identity_suite(imm, charts, coords, tol_scale=tol_scale, seed=seed, heavy=heavy)
    emit(doc, out, fmt)
    return EXIT_OK if doc["all_pass"] else EXIT_CHECK_FAILED


def cmd_energy(args) -> int:
    cfg = load_config(args.config)
    degree = rule_degree(cfg)
    out, fmt = output(args)
    imm = compact_immersion(cfg, "energy", degree)
    emit(energy_report(imm, rule_for(imm, degree)), out, fmt)
    return EXIT_OK


def _scan_target(imm, key) -> tuple[str, int | None]:
    """The parameter `key` names, `base` or `base.index`: `base` must be a
    parameter of the built body, and `index` a position in it exactly when
    it is a list, whose entries a scan sets one at a time."""
    base, _, idx = str(key).partition(".")
    if base not in imm.params:
        raise ConfigError(f"scan_param {key!r} is not a parameter of {imm.name}: {sorted(imm.params)}")
    entry = imm.params[base]
    if not idx:
        if np.ndim(entry):
            last = f"{base}.{len(entry) - 1}"
            raise ConfigError(f"scan_param {key!r} is a list: scan one of its entries, {base}.0 to {last}")
        return base, None
    if np.ndim(entry) != 1 or not idx.isdigit() or int(idx) >= len(entry):
        raise ConfigError(f"scan_param {key!r}: {base!r} has no entry {idx!r}")
    return base, int(idx)


def _set_scan_param(cfg: dict, params: dict, target: tuple[str, int | None], value):
    base, idx = target
    if idx is None:
        cfg[base] = value
    else:
        seq = list(cfg.get(base, params[base]))
        seq[idx] = value
        cfg[base] = seq


def cmd_scan(args) -> int:
    cfg = load_config(args.config)
    key = cfg.get("scan_param")
    values = cfg.get("values")
    if not key or not isinstance(values, list) or not values:
        raise ConfigError("scan needs 'scan_param' and a non-empty finite 'values' list")
    values = sorted(number(v, "a scan value") for v in values)
    degree = rule_degree(cfg)
    out, _ = output(args, ("csv",))
    body = compact_immersion(cfg, "scan", degree)
    target, params = _scan_target(body, key), jsonable_params(body.params)
    bodies = []  # every body is built and checked before any rule
    for v in values:
        sub = dict(cfg)
        _set_scan_param(sub, params, target, v)
        bodies.append(compact_immersion(sub, "scan", degree))
    rows = []
    for v, imm in zip(values, bodies):
        entries = energy_report(imm, rule_for(imm, degree))["entries"]
        rows.append(",".join(map(repr, [v, *entries.values()])))
    write_text(out, "\n".join([",".join(["param", *entries]), *rows]) + "\n")
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        doc = json.loads(Path(args.report_file).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read report: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"a report is a JSON object, got {type(doc).__name__}")
    try:
        text = render_table(doc)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {doc.get('kind', '?')} report: {exc!r}") from exc
    write_text(args.out, text)
    return EXIT_OK


# glibc's mallopt parameters (malloc.h)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


@functools.cache
def keep_freed_memory():
    """Once per process, have glibc keep freed memory for reuse.  An energy
    op frees and reallocates the same few MB of jet buffers for every chunk
    of nodes; by default glibc hands them back to the OS (its dynamic mmap
    threshold and 128 KiB trim threshold), and the next chunk page-faults
    them in again.  Fixed thresholds (mmap above 32 MiB, trim above 256 MiB)
    keep them in the heap.  Without glibc's `mallopt` this does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library handle, or not glibc
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 256 << 20)


@functools.cache
def command_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; its `parse_args`
    returns a fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="lagcheck",
        description="identity residuals and energy functionals of Lagrangian immersions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (
        ("identities", "run the identity residual suite"),
        ("energy", "compute the energy functionals"),
        ("scan", "energy functionals along a parameter range"),
    ):
        run = sub.add_parser(name, help=text)
        run.add_argument("--config", required=True, help="config file: one JSON object")
        run.add_argument("--out", help="output path (stdout if omitted)")
        run.add_argument("--format", choices=FORMATS, default=None)
    rep = sub.add_parser("report", help="pretty-print a JSON report")
    rep.add_argument("report_file")
    rep.add_argument("--out")
    return parser


def main(argv=None) -> int:
    keep_freed_memory()
    args = command_parser().parse_args(argv)
    handlers = {
        "identities": cmd_identities,
        "energy": cmd_energy,
        "scan": cmd_scan,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except ConstructionError as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION_ERROR
    except (NonLagrangianError, DegenerateMetricError, OutOfDomainError, OverflowError, MemoryError) as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVALUATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
