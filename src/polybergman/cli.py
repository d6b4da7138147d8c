"""Command-line front end: evaluate kernels, emit grids, run verify suites.

Exit codes: 0 ok, 1 verify-suite failure, 2 usage/validation, 3 numeric
domain error, 4 unwritable output.  Numeric errors emit machine-readable
JSON on stderr.  Config precedence: flags > --config JSON file > defaults
(n=3, p=2, alpha=0, beta=0, tol=1e-10, r_max=0.95, seed=42).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .core import KernelConfig, make_rotated_point, unit_ball_volume
from .errors import KernelDomainError
from .kernels import (
    Truncation,
    bergman,
    evaluation_regime,
    make_truncation,
    poisson,
    weighted_bergman_series,
)
from .verify import SUITES, run_suite
from .zonal import BACKEND_NAME, zonal_polyharmonic

DEFAULTS = {
    "n": 3,
    "p": 2,
    "alpha": 0.0,
    "beta": 0.0,
    "tol": 1e-10,
    "r_max": 0.95,
    "seed": 42,
}

KERNELS = ("poisson", "bergman", "wbergman", "zonal")

_USAGE_EXIT = 2
_NUMERIC_EXIT = 3
_IO_EXIT = 4


class CliError(Exception):
    """Usage/validation failure mapped to exit code 2."""


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="polybergman",
        description="Polyharmonic Poisson/Bergman kernels on rotated unit balls",
    )
    parser.add_argument("--config", help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--n", type=int, help="ambient dimension")
        sp.add_argument("--p", type=int, help="polyharmonic order")
        sp.add_argument("--alpha", type=float, help="radial power weight")
        sp.add_argument("--beta", type=float, help="boundary-vanishing weight")
        sp.add_argument("--tol", type=float, help="series tolerance")
        sp.add_argument(
            "--max-degree", dest="max_degree", type=int,
            help="override the series truncation degree",
        )
        sp.add_argument("--r-max", dest="r_max", type=float, help="series radius cap")
        sp.add_argument("--seed", type=int, help="random seed")
        sp.add_argument("--output", help="write the result to this path")
        sp.add_argument("--format", choices=("csv", "json"), help="output format")

    pe = sub.add_parser("eval", help="evaluate a kernel at a point pair")
    add_common(pe)
    pe.add_argument("--kernel", choices=KERNELS, default="bergman")
    pe.add_argument("--m", type=int, help="zonal degree (kernel=zonal)")
    pe.add_argument("--x", required=True, help="comma-separated coordinates of x")
    pe.add_argument("--x-phase", type=float, help="phase of x in radians")
    pe.add_argument("--x-sector", type=int, help="sector index k (phase k*pi/p)")
    pe.add_argument("--y", required=True, help="comma-separated coordinates of y")
    pe.add_argument("--y-phase", type=float, help="phase of y in radians")
    pe.add_argument("--y-sector", type=int, help="sector index for y")

    pg = sub.add_parser("grid", help="emit a CSV grid of kernel values")
    add_common(pg)
    pg.add_argument("--kernel", choices=KERNELS, default="bergman")
    pg.add_argument("--m", type=int, help="zonal degree (kernel=zonal)")
    pg.add_argument("--radial-steps", type=int, default=10)
    pg.add_argument("--angle-steps", type=int, default=10)
    pg.add_argument("--x-sector", type=int, default=0)
    pg.add_argument("--y-sector", type=int, default=0)
    pg.add_argument("--r-hi", type=float, default=0.98, help="largest grid radius")

    pv = sub.add_parser("verify", help="run a named verification suite")
    add_common(pv)
    pv.add_argument("--suite", required=True, choices=sorted(SUITES))
    pv.add_argument("--cases", type=int, help="override per-combination case count")

    pi = sub.add_parser("info", help="print configuration and environment info")
    add_common(pi)
    return parser


def _resolve(args, key):
    val = getattr(args, key, None)
    if val is not None:
        return val
    cfgfile = getattr(args, "_config_data", {})
    if key in cfgfile:
        return cfgfile[key]
    return DEFAULTS.get(key)


def _config_from_args(args) -> KernelConfig:
    try:
        return KernelConfig(
            n=int(_resolve(args, "n")),
            p=int(_resolve(args, "p")),
            alpha=float(_resolve(args, "alpha")),
            beta=float(_resolve(args, "beta")),
            r_max=float(_resolve(args, "r_max")),
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc


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
        phase = math.pi * sector / cfg.p
    try:
        return make_rotated_point(0.0 if phase is None else phase, coords)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _eval_kernel(cfg, kernel, x, y, tol, m=None, max_degree=None):
    """Returns (complex value, truncation degree or None)."""
    if kernel == "poisson":
        return poisson(cfg, x, y), None
    if kernel == "bergman":
        return bergman(cfg, x, y), None
    if kernel == "wbergman":
        if max_degree is not None:
            trunc = Truncation(max_degree=max_degree, tol=tol, calibrated_C=1.0)
        else:
            trunc = make_truncation(cfg, x.radius * y.radius, tol, "weighted")
        return weighted_bergman_series(cfg, x, y, trunc), trunc.max_degree
    if kernel == "zonal":
        if m is None:
            raise CliError("kernel=zonal requires --m")
        return zonal_polyharmonic(cfg, m, x, y), None
    raise CliError(f"unknown kernel {kernel!r}")


def _grid_header(cfg):
    return (
        ["n", "p", "alpha", "beta", "phase_x", "phase_y"]
        + [f"ax{i + 1}" for i in range(cfg.n)]
        + [f"ay{i + 1}" for i in range(cfg.n)]
        + ["re", "im", "regime"]
    )


def _grid_row_values(cfg, x, y, value, regime):
    return (
        [cfg.n, cfg.p, cfg.alpha, cfg.beta, x.phase, y.phase]
        + [float(c) for c in x.coords]
        + [float(c) for c in y.coords]
        + [value.real, value.imag, regime]
    )


def _grid_lines(cfg, entries):
    lines = [",".join(_grid_header(cfg))]
    for x, y, value, regime in entries:
        vals = _grid_row_values(cfg, x, y, value, regime)
        lines.append(",".join(v if isinstance(v, str) else repr(v) for v in vals))
    return lines


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _IoFailure(str(exc)) from exc


class _IoFailure(Exception):
    pass


def cmd_eval(args) -> int:
    cfg = _config_from_args(args)
    tol = float(_resolve(args, "tol"))
    x = _parse_point(cfg, args.x, args.x_phase, args.x_sector, "x")
    y = _parse_point(cfg, args.y, args.y_phase, args.y_sector, "y")
    value, trunc = _eval_kernel(cfg, args.kernel, x, y, tol, args.m, args.max_degree)
    regime = evaluation_regime(cfg, x, y)
    if _resolve(args, "format") == "csv":
        text = "\n".join(_grid_lines(cfg, [(x, y, value, regime)])) + "\n"
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
    _write_text(getattr(args, "output", None), text)
    return 0


def cmd_grid(args) -> int:
    cfg = _config_from_args(args)
    tol = float(_resolve(args, "tol"))
    radial = args.radial_steps
    angular = args.angle_steps
    if radial < 1 or angular < 1:
        raise CliError("grid step counts must be >= 1")
    if not (0 < args.r_hi < 1):
        raise CliError("--r-hi must lie in (0, 1)")
    phase_x = math.pi * args.x_sector / cfg.p
    phase_y = math.pi * args.y_sector / cfg.p
    entries = []
    for i in range(radial):
        r = (i + 1) / (radial + 1) * args.r_hi
        for j in range(angular):
            theta = math.pi * j / angular
            direction = np.zeros(cfg.n)
            direction[0] = math.cos(theta)
            direction[1] = math.sin(theta)
            coords = r * direction
            x = make_rotated_point(phase_x, coords)
            y = make_rotated_point(phase_y, coords)
            value, _ = _eval_kernel(cfg, args.kernel, x, y, tol, args.m, args.max_degree)
            entries.append((x, y, value, evaluation_regime(cfg, x, y)))
    if _resolve(args, "format") == "json":
        keys = _grid_header(cfg)
        rows = [
            dict(zip(keys, _grid_row_values(cfg, x, y, v, reg)))
            for x, y, v, reg in entries
        ]
        text = json.dumps(rows) + "\n"
    else:
        text = "\n".join(_grid_lines(cfg, entries)) + "\n"
    _write_text(getattr(args, "output", None), text)
    return 0


def cmd_verify(args) -> int:
    seed = int(_resolve(args, "seed"))
    report = run_suite(args.suite, seed=seed, cases=args.cases)
    text = json.dumps(report) + "\n"
    _write_text(getattr(args, "output", None), text)
    if getattr(args, "output", None) is not None:
        sys.stdout.write(text)
    return 0 if report["pass"] else 1


def cmd_info(args) -> int:
    cfg = _config_from_args(args)
    record = {
        "version": __version__,
        "backend": BACKEND_NAME,
        "config": {
            "n": cfg.n,
            "p": cfg.p,
            "alpha": cfg.alpha,
            "beta": cfg.beta,
            "r_max": cfg.r_max,
            "tol": float(_resolve(args, "tol")),
            "seed": int(_resolve(args, "seed")),
        },
        "unit_ball_volume": unit_ball_volume(cfg.n),
        "suites": sorted(SUITES),
    }
    _write_text(getattr(args, "output", None), json.dumps(record, indent=2) + "\n")
    return 0


_COMMANDS = {
    "eval": cmd_eval,
    "grid": cmd_grid,
    "verify": cmd_verify,
    "info": cmd_info,
}


def _emit_error(code: str, message: str):
    sys.stderr.write(json.dumps({"error": code, "message": message}) + "\n")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return _USAGE_EXIT if exc.code not in (0, None) else 0
    if args.config:
        try:
            with open(args.config) as fh:
                args._config_data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            _emit_error("config", f"cannot read config file: {exc}")
            return _USAGE_EXIT
    else:
        args._config_data = {}
    try:
        return _COMMANDS[args.command](args)
    except CliError as exc:
        _emit_error("usage", str(exc))
        return _USAGE_EXIT
    except ValueError as exc:
        _emit_error("validation", str(exc))
        return _USAGE_EXIT
    except KernelDomainError as exc:
        _emit_error(exc.code, str(exc))
        return _NUMERIC_EXIT
    except _IoFailure as exc:
        _emit_error("io", str(exc))
        return _IO_EXIT


if __name__ == "__main__":
    sys.exit(main())
