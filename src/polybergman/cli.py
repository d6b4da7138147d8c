"""Command-line front end: evaluate kernels, emit grids, run verify suites.

Exit codes: 0 ok, 1 verify-suite failure, 2 usage/validation, 3 numeric
domain error, 4 any failed output write (an OSError from a command, whose
one I/O is that write).  Numeric errors emit machine-readable JSON on
stderr.  eval and grid print their rows through one writer, as CSV under
the grid header or as JSON keyed by it; eval's default JSON record also
carries the kernel and the truncation degree.  info prints the version,
the config (n, p, alpha, beta, r_max, tol, seed), unit_ball_volume and the
suite names.  The parser is the one table of options: each flag carries
its default (n=3, p=2, alpha=0, beta=0, tol=1e-10, r_max=0.95, seed=42;
--format json under eval, csv under grid).  Precedence: flags > --config
JSON file > those defaults, and a flag drops the file's value of the flag it
excludes (_EXCLUDES).  The file is a JSON object keyed by flag dest
(r_max, radial_steps, ...); each key must name an optional flag of some
command and hold a value that flag takes.  Keys of another command's flags
are checked and ignored, so one file serves every command; any other key
or value exits 2 with error "config".
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import __version__
from .core import KernelConfig, make_rotated_point, unit_ball_volume
from .errors import KernelDomainError
from .kernels import (
    bergman,
    evaluation_regime,
    make_truncation,
    poisson,
    weighted_bergman_series,
)
from .verify import SUITES, run_suite
from .zonal import zonal_polyharmonic

KERNELS = ("poisson", "bergman", "wbergman", "zonal")

_EXCLUDES = {"x_phase": "x_sector", "x_sector": "x_phase", "y_phase": "y_sector", "y_sector": "y_phase"}
"""Flag dests that exclude each other; a flag given on the command line
drops the --config value of the flag it excludes."""

_USAGE_EXIT = 2
_NUMERIC_EXIT = 3
_IO_EXIT = 4


class CliError(Exception):
    """Usage/validation failure mapped to exit code 2."""


def _build_parser():
    """The top-level parser and its subparsers by command name; each
    subparser's default "run" is its command's function."""
    parser = argparse.ArgumentParser(
        prog="polybergman",
        description="Polyharmonic Poisson/Bergman kernels on rotated unit balls",
    )
    parser.add_argument("--config", help="JSON file of option defaults, keyed by flag dest")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--n", type=int, default=3, help="ambient dimension")
        sp.add_argument("--p", type=int, default=2, help="polyharmonic order")
        sp.add_argument("--alpha", type=float, default=0.0, help="radial power weight")
        sp.add_argument("--beta", type=float, default=0.0, help="boundary-vanishing weight")
        sp.add_argument("--tol", type=float, default=1e-10, help="series tolerance")
        sp.add_argument("--r-max", dest="r_max", type=float, default=0.95, help="series radius cap")
        sp.add_argument("--output", help="write the result to this path")

    def add_kernel_flags(sp, fmt):
        add_common(sp)
        sp.add_argument("--kernel", choices=KERNELS, default="bergman")
        sp.add_argument("--m", type=int, help="zonal degree (kernel=zonal)")
        sp.add_argument("--format", choices=("csv", "json"), default=fmt, help="output format")

    pe = sub.add_parser("eval", help="evaluate a kernel at a point pair")
    pe.set_defaults(run=cmd_eval)
    add_kernel_flags(pe, "json")
    pe.add_argument("--x", required=True, help="comma-separated coordinates of x")
    pe.add_argument("--x-phase", type=float, help="phase of x in radians")
    pe.add_argument("--x-sector", type=int, help="sector index k (phase k*pi/p)")
    pe.add_argument("--y", required=True, help="comma-separated coordinates of y")
    pe.add_argument("--y-phase", type=float, help="phase of y in radians")
    pe.add_argument("--y-sector", type=int, help="sector index for y")

    pg = sub.add_parser("grid", help="emit a CSV grid of kernel values")
    pg.set_defaults(run=cmd_grid)
    add_kernel_flags(pg, "csv")
    pg.add_argument("--radial-steps", type=int, default=10)
    pg.add_argument("--angle-steps", type=int, default=10)
    pg.add_argument("--x-sector", type=int, default=0)
    pg.add_argument("--y-sector", type=int, default=0)
    pg.add_argument("--r-hi", type=float, default=0.98, help="largest grid radius")

    pv = sub.add_parser("verify", help="run a named verification suite")
    pv.set_defaults(run=cmd_verify)
    pv.add_argument("--suite", required=True, choices=sorted(SUITES))
    pv.add_argument("--cases", type=int, help="override per-combination case count")
    pv.add_argument("--seed", type=int, default=42, help="random seed")
    pv.add_argument("--output", help="write the report to this path")

    pi = sub.add_parser("info", help="print configuration and environment info")
    pi.set_defaults(run=cmd_info)
    add_common(pi)
    pi.add_argument("--seed", type=int, default=42, help="random seed")
    return parser, sub.choices


def _config_from_args(args) -> KernelConfig:
    try:
        return KernelConfig(n=args.n, p=args.p, alpha=args.alpha, beta=args.beta, r_max=args.r_max)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _sector_phase(cfg, k: int) -> float:
    """Phase k*pi/p of sector index k, with k reduced modulo 2p first, which
    is exact since e^{i(k+2p)pi/p} = e^{ik pi/p}: an index beyond float
    range neither overflows nor loses its phase, k and k + 2p give the same
    point, and 0 <= k < 2p keeps the bits of k*pi/p."""
    return math.pi * (k % (2 * cfg.p)) / cfg.p


def _parse_point(cfg, coords_text, phase, sector, label):
    try:
        coords = [float(c) for c in coords_text.split(",") if c.strip() != ""]
    except ValueError as exc:
        raise CliError(f"bad coordinate list for {label}: {coords_text!r}") from exc
    if len(coords) != cfg.n:
        raise CliError(f"{label} has {len(coords)} coordinates, expected n={cfg.n}")
    if phase is not None and sector is not None:
        raise CliError(f"give either --{label}-phase or --{label}-sector, not both")
    if sector is not None:
        phase = _sector_phase(cfg, sector)
    try:
        return make_rotated_point(0.0 if phase is None else phase, coords)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _eval_kernel(cfg, kernel, x, y, tol, m=None):
    """Returns (complex value, truncation degree or None)."""
    if (m is not None) != (kernel == "zonal"):
        raise CliError("--m is required by --kernel zonal and read by no other kernel")
    if (cfg.alpha or cfg.beta) and kernel != "wbergman":
        raise CliError(f"--alpha and --beta weight --kernel wbergman only, not {kernel}")
    if kernel == "poisson":
        return poisson(cfg, x, y), None
    if kernel == "bergman":
        return bergman(cfg, x, y), None
    if kernel == "wbergman":
        trunc = make_truncation(cfg, x.radius * y.radius, tol, "weighted")
        return weighted_bergman_series(cfg, x, y, trunc), trunc.max_degree
    return zonal_polyharmonic(cfg, m, x, y), None


def _format_rows(cfg, entries, fmt) -> str:
    """Entries (x, y, value, regime) under the grid header: one CSV line
    each (fmt "csv") or a JSON list of objects keyed by the header."""
    keys = ["n", "p", "alpha", "beta", "phase_x", "phase_y",
            *(f"ax{i + 1}" for i in range(cfg.n)), *(f"ay{i + 1}" for i in range(cfg.n)), "re", "im", "regime"]
    rows = ([cfg.n, cfg.p, cfg.alpha, cfg.beta, x.phase, y.phase, *x.float_coords, *y.float_coords,
             value.real, value.imag, regime] for x, y, value, regime in entries)
    if fmt == "json":
        return json.dumps([dict(zip(keys, row)) for row in rows]) + "\n"
    return "\n".join([",".join(keys), *(",".join(map(str, row)) for row in rows)]) + "\n"


def _write_text(path, text):
    """text to stdout, or to the file at path; an OSError leaves it
    unwritten, and main maps it to exit 4."""
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


def cmd_eval(args) -> int:
    cfg = _config_from_args(args)
    x = _parse_point(cfg, args.x, args.x_phase, args.x_sector, "x")
    y = _parse_point(cfg, args.y, args.y_phase, args.y_sector, "y")
    value, trunc = _eval_kernel(cfg, args.kernel, x, y, args.tol, args.m)
    regime = evaluation_regime(cfg, x, y)
    if args.format == "csv":
        text = _format_rows(cfg, [(x, y, value, regime)], "csv")
    else:
        record = {
            "kernel": args.kernel,
            "n": cfg.n,
            "p": cfg.p,
            "alpha": cfg.alpha,
            "beta": cfg.beta,
            "x": {"phase": x.phase, "coords": list(map(float, x.coords))},
            "y": {"phase": y.phase, "coords": list(map(float, y.coords))},
            "re": value.real,
            "im": value.imag,
            "truncation": trunc,
            "regime": regime,
        }
        text = json.dumps(record) + "\n"
    _write_text(args.output, text)
    return 0


def cmd_grid(args) -> int:
    cfg = _config_from_args(args)
    if cfg.n > sys.maxsize:
        raise CliError(f"--n {cfg.n} is too large for a grid point's coordinate list")
    radial = args.radial_steps
    angular = args.angle_steps
    if radial < 1 or angular < 1:
        raise CliError("grid step counts must be >= 1")
    if not (0 < args.r_hi < 1):
        raise CliError("--r-hi must lie in (0, 1)")
    phase_x, phase_y = _sector_phase(cfg, args.x_sector), _sector_phase(cfg, args.y_sector)
    entries = []
    for i in range(radial):
        r = (i + 1) / (radial + 1) * args.r_hi
        for j in range(angular):
            theta = math.pi * j / angular
            coords = [r * math.cos(theta), r * math.sin(theta)] + [0.0] * (cfg.n - 2)
            x = make_rotated_point(phase_x, coords)
            y = make_rotated_point(phase_y, coords)
            value, _ = _eval_kernel(cfg, args.kernel, x, y, args.tol, args.m)
            entries.append((x, y, value, evaluation_regime(cfg, x, y)))
    _write_text(args.output, _format_rows(cfg, entries, args.format))
    return 0


def cmd_verify(args) -> int:
    if args.cases is not None and args.cases < 1:
        raise CliError("--cases must be >= 1")
    report = run_suite(args.suite, seed=args.seed, cases=args.cases)
    text = json.dumps(report) + "\n"
    _write_text(args.output, text)
    if args.output is not None:
        sys.stdout.write(text)
    return 0 if report["pass"] else 1


def cmd_info(args) -> int:
    cfg = _config_from_args(args)
    record = {
        "version": __version__,
        "config": {**dataclasses.asdict(cfg), "tol": args.tol, "seed": args.seed},
        "unit_ball_volume": unit_ball_volume(cfg.n),
        "suites": sorted(SUITES),
    }
    _write_text(args.output, json.dumps(record, indent=2) + "\n")
    return 0


def _config_defaults(commands, command, data) -> dict:
    """The defaults that a parsed --config file sets for command's flags.

    data must be a JSON object keyed by dests of optional flags of any
    command (the subparsers in commands), each holding what its flag takes:
    a JSON integer for an int flag, a finite number for a float flag, one
    of the choices of a choice flag, a string otherwise.  The key of
    another command's flag is checked and left out.  ValueError otherwise.
    """
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {json.dumps(data)[:40]}")
    flags = {}  # dest -> (command, Action), the running command's own where it has one
    for name in (command, *commands):
        for action in commands[name]._actions:
            # -h is the one optional flag whose default is SUPPRESS
            if action.option_strings and not action.required and action.default is not argparse.SUPPRESS:
                flags.setdefault(action.dest, (name, action))
    own = {}
    for key, val in data.items():
        if key not in flags:
            raise ValueError(f"{key!r} is not an option of any command")
        name, action = flags[key]
        if action.choices is not None:
            ok, want = val in action.choices, f"one of {list(action.choices)}"
        elif action.type is int:  # a bool is no JSON integer
            ok, want = type(val) is int, "an integer"
        elif action.type is float:
            ok, want = type(val) in (int, float) and math.isfinite(val), "a finite number"
        else:
            ok, want = isinstance(val, str), "a string"
        if not ok:
            raise ValueError(f"{key!r} must be {want}, got {json.dumps(val)[:40]}")
        if name == command:
            own[key] = val if action.type is None else action.type(val)
    return own


def _emit_error(code: str, message: str):
    sys.stderr.write(json.dumps({"error": code, "message": message}) + "\n")


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            try:
                with open(args.config) as fh:
                    defaults = _config_defaults(commands, args.command, json.load(fh))
            # JSONDecodeError is a ValueError; a huge integer overflows isfinite
            except (OSError, ValueError, OverflowError) as exc:
                _emit_error("config", f"cannot read config file: {exc}")
                return _USAGE_EXIT
            # the file's values become the command's defaults: flags still
            # win, also over the file's value for a flag they exclude
            for given, excluded in _EXCLUDES.items():
                if getattr(args, given, None) is not None:
                    defaults.pop(excluded, None)
            commands[args.command].set_defaults(**defaults)
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return _USAGE_EXIT if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except CliError as exc:
        _emit_error("usage", str(exc))
        return _USAGE_EXIT
    except ValueError as exc:
        _emit_error("validation", str(exc))
        return _USAGE_EXIT
    except KernelDomainError as exc:
        _emit_error(exc.code, str(exc))
        return _NUMERIC_EXIT
    except OSError as exc:  # the output write is a command's only I/O
        _emit_error("io", str(exc))
        return _IO_EXIT


if __name__ == "__main__":
    sys.exit(main())
