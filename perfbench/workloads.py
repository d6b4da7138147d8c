"""Workload definitions: seeded inputs, the op each input drives, its check.

Every workload is a pool of distinct ops generated from the seed.  The timed
loop cycles through the pool with one caller; each op is checked against
the library's other route after the timed phase.  Cost drivers (kernel kind,
n, p) cycle deterministically through the pool and each combination's radius
products lie on a fixed grid, so runs on different seeds carry the same mix
of work and differ only in the sampled points (directions, phases, the split
of a radius product into two radii, the order).

The library is imported by the caller and passed in as ``pb``; nothing here
imports it, so the set-up probe can time the import itself.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

TOL = 1e-10  # series truncation tolerance (the CLI default)
CLOSED_REL_TOL = 1e-12  # the library's decomposition-suite tolerance
CUBATURE_TOL = 1e-8  # the library's reproduce / mean-value tolerance
ORTHO_TOL = 1e-9  # the library's orthogonality tolerance
R_MAX = 0.95  # KernelConfig default
CLI_RHO_MAX = 0.999  # CLI evals and the bergman grid reach into the extension regime
# Radius products of the closed and series pools: the range of the library's
# verify sweeps (radii below 0.7), where it states the tolerances the checks
# use.  Beyond it the float64 routes and the truncation bound miss those
# tolerances on a few pairs; KNOWN_DEFECTS keeps such pairs in every report.
VERIFIED_RHO_MAX = 0.49
NON_SECTOR_SHARE = 0.25
WEIGHTS = ((0.0, 0.0), (1.0, 0.5), (-0.5, 2.0))
DIMS = (2, 3, 4, 5)
ORDERS = (1, 2, 3)

# Salts keep the workloads' random streams apart for one seed.
SALT = {"closed": 11, "series": 23, "cubature": 37, "cli": 53}


class Op:
    """One user call: ``fn(*args)``, its inputs for witnesses, its check.

    ``check(out)`` returns (error, tolerance); the op fails when
    error > tolerance or when the call raised.
    """

    __slots__ = ("kind", "fn", "args", "inputs", "check")

    def __init__(self, kind, fn, args, inputs, check):
        self.kind = kind
        self.fn = fn
        self.args = args
        self.inputs = inputs
        self.check = check


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, SALT[workload]])


def _direction(rng, n):
    d = rng.normal(size=n)
    return d / np.linalg.norm(d)


def _radius_pair(rng, rho):
    """Split a radius product into two radii, each below 1."""
    e = rng.uniform(0.3, 0.7)
    rx = rho**e
    return rx, (rho / rx if rx > 0.0 else 0.0)


def _phase(rng, cfg, non_sector_share):
    if rng.uniform() < non_sector_share:
        return float(rng.uniform(-math.pi, math.pi))
    return cfg.sector_phase(int(rng.integers(0, cfg.p)))


def _radius_grid(rng, combos, per_combo, hi):
    """Pool order: op i has combo i % len(combos); each combo's radius
    products are the grid hi * k / per_combo, k = 1..per_combo, in shuffled
    order.  The grid is fixed because the series cost grows steeply with the
    radius product: drawn radius products moved the series tail by 0.14 of
    its median from seed to seed.  It ends at hi on every seed."""
    strata = [rng.permutation(per_combo) for _ in combos]
    for j in range(per_combo):
        for c, combo in enumerate(combos):
            yield combo, hi * (strata[c][j] + 1) / per_combo


def _point_inputs(x):
    return {"phase": x.phase, "coords": [float(c) for c in x.coords]}


def _pair_inputs(cfg, x, y, **extra):
    out = {"n": cfg.n, "p": cfg.p, "alpha": cfg.alpha, "beta": cfg.beta,
           "x": _point_inputs(x), "y": _point_inputs(y)}
    out.update(extra)
    return out


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# --------------------------------------------------------------- closed


def _mp_poisson(cfg, x, y):
    """50-digit Poisson kernel (1 - q^p) / w^(n/2) from the exact float inputs."""
    import mpmath

    with mpmath.workdps(50):
        a = [mpmath.mpf(float(c)) for c in x.coords]
        b = [mpmath.mpf(float(c)) for c in y.coords]
        ex = mpmath.expj(mpmath.mpf(x.phase))
        ey = mpmath.expj(-mpmath.mpf(y.phase))
        s = ex * ey * mpmath.fsum(i * j for i, j in zip(a, b))
        u = ex**2 * mpmath.fsum(i * i for i in a)
        v = ey**2 * mpmath.fsum(j * j for j in b)
        q = u * v
        w = 1 - 2 * s + q
        return complex((1 - q**cfg.p) / mpmath.power(w, mpmath.mpf(cfg.n) / 2))


CLOSED_COMBOS = tuple(itertools.product(("poisson", "bergman", "bergman_decomposed"), DIMS, ORDERS))


def closed_pool(pb, rng, per_combo=100):
    ops = []
    for (kind, n, p), rho in _radius_grid(rng, CLOSED_COMBOS, per_combo, VERIFIED_RHO_MAX):
        cfg = pb.KernelConfig(n=n, p=p)
        rx, ry = _radius_pair(rng, rho)
        x = pb.make_rotated_point(_phase(rng, cfg, NON_SECTOR_SHARE), rx * _direction(rng, n))
        y = pb.make_rotated_point(_phase(rng, cfg, NON_SECTOR_SHARE), ry * _direction(rng, n))
        regime = pb.evaluation_regime(cfg, x, y)
        fn = getattr(pb, kind)
        ops.append(Op(kind, fn, (cfg, x, y), _pair_inputs(cfg, x, y, regime=regime),
                      _closed_check(pb, kind, cfg, x, y, regime)))
    return ops


def _closed_check(pb, kind, cfg, x, y, regime):
    def check(out):
        if kind == "bergman":
            return _rel(out, pb.bergman_decomposed(cfg, x, y)), CLOSED_REL_TOL
        if kind == "bergman_decomposed":
            return _rel(out, pb.bergman(cfg, x, y)), CLOSED_REL_TOL
        if regime == "standard":
            trunc = pb.make_truncation(cfg, x.radius * y.radius, TOL, "poisson")
            return abs(out - pb.poisson_series(cfg, x, y, trunc)), TOL
        # extension regime: no series route, so a 50-digit oracle
        return _rel(out, _mp_poisson(cfg, x, y)), CLOSED_REL_TOL

    return check


# --------------------------------------------------------------- series


SERIES_KINDS = (("poisson", 0.0, 0.0), ("bergman", 0.0, 0.0)) + tuple(
    ("weighted", a, b) for a, b in WEIGHTS
)
SERIES_COMBOS = tuple(itertools.product(SERIES_KINDS, DIMS, ORDERS))


def _series_fn(pb, kind):
    return {"poisson": pb.poisson_series, "bergman": pb.bergman_series,
            "weighted": pb.weighted_bergman_series}[kind]


def series_op(make_truncation, series, cfg, x, y, rho, kind):
    """The user's call: choose the truncation, then sum the series."""
    trunc = make_truncation(cfg, rho, TOL, kind)
    return series(cfg, x, y, trunc), trunc.max_degree


def series_pool(pb, rng, per_combo=10):
    ops = []
    for ((kind, a, b), n, p), rho in _radius_grid(rng, SERIES_COMBOS, per_combo, VERIFIED_RHO_MAX):
        cfg = pb.KernelConfig(n=n, p=p, alpha=a, beta=b)
        rx, ry = _radius_pair(rng, rho)
        x = pb.make_rotated_point(_phase(rng, cfg, 0.0), rx * _direction(rng, n))
        y = pb.make_rotated_point(_phase(rng, cfg, 0.0), ry * _direction(rng, n))
        rho = x.radius * y.radius
        args = (pb.make_truncation, _series_fn(pb, kind), cfg, x, y, rho, kind)
        ops.append(Op(f"{kind}_series", series_op, args, _pair_inputs(cfg, x, y),
                      _series_check(pb, kind, cfg, x, y)))
    return ops


def _series_check(pb, kind, cfg, x, y):
    def check(out):
        value, degree = out
        if kind == "poisson":
            return abs(value - pb.poisson(cfg, x, y)), TOL
        if kind == "bergman":
            return abs(value - pb.bergman(cfg, x, y)), TOL
        trunc = pb.Truncation(max_degree=degree, tol=TOL,
                              calibrated_C=pb.calibrated_constant(cfg))
        err = abs(value - pb.weighted_bergman_decomposed(cfg, x, y, trunc))
        if cfg.alpha == 0.0 and cfg.beta == 0.0:
            err = max(err, abs(value - pb.bergman(cfg, x, y)))
        return err, TOL

    return check


def calibrate_all(pb):
    for n, p in itertools.product(DIMS, ORDERS):
        pb.calibrated_constant(pb.KernelConfig(n=n, p=p))


# ------------------------------------------------------------- cubature

REPRODUCE_DEGREE = 6  # test polynomial degree and kernel truncation m_top
RULE_DEGREE = 2 * REPRODUCE_DEGREE + 4  # as in the reproduce verify suite
IP_RULE_DEGREE = 20  # as in the orthogonality verify suite
IP_MAX_DEGREE = 8
MV_RULE_DEGREE = 50  # as in the mean-value verify suite
MV_RADIUS = 0.6
MV_X_MAX = 0.3
CUBATURE_DIMS = (2, 3, 4)
MV_DIMS = (2, 3)
# Total degree of each block of a test polynomial: fixed, so that every
# seed asks for the same recurrence work; poles, coefficients and the split
# of each degree into |x|^(2k) Z_d are seeded.
BLOCK_DEGREES = (1, 2, 3, 4, 5, 6)
IP_PAIRS = tuple((m, l) for m in range(IP_MAX_DEGREE + 1) for l in range(m + 1, IP_MAX_DEGREE + 1))


def build_rules(pb):
    rules = {}
    for n in CUBATURE_DIMS:
        for a, b in WEIGHTS[:2]:
            rules[("reproduce", n, a, b)] = pb.build_ball_rule(n, a, b, RULE_DEGREE)
        rules[("ip", n)] = pb.build_ball_rule(n, 0.0, 0.0, IP_RULE_DEGREE)
    for n in MV_DIMS:
        rules[("mv", n)] = pb.build_sphere_rule(n, MV_RULE_DEGREE)
    return rules


def _polynomial(pb, rng, cfg, degrees):
    """Seeded polyharmonic test polynomial, one zonal block per total degree."""
    out = []
    for degree in degrees:
        k = int(rng.integers(0, min(cfg.p - 1, degree // 2) + 1))
        d = degree - 2 * k
        pole = _direction(rng, cfg.n)
        pole.flags.writeable = False
        coeff = complex(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
        out.append(pb.ZonalBlock(k=k, d=d, pole=pole, coeff=coeff))
    return pb.PolyharmonicPolynomial(blocks=tuple(out), n=cfg.n, p=cfg.p)


def _poly_inputs(pb, u):
    return json.loads(pb.to_json(u))


CUBATURE_COMBOS = (
    tuple(("reproduce", n, p, w) for w in WEIGHTS[:2] for n in CUBATURE_DIMS for p in ORDERS)
    + tuple(("inner_product_ball", n, p, WEIGHTS[0]) for n in CUBATURE_DIMS for p in ORDERS)
    + tuple(("mean_value_eval", n, p, WEIGHTS[0]) for n in MV_DIMS for p in ORDERS)
)


def cubature_pool(pb, rng, rules, per_combo=4):
    ops = []
    for i in range(per_combo * len(CUBATURE_COMBOS)):
        kind, n, p, (a, b) = CUBATURE_COMBOS[i % len(CUBATURE_COMBOS)]
        cfg = pb.KernelConfig(n=n, p=p, alpha=a, beta=b)
        ops.append(_cubature_op(pb, rng, rules, kind, cfg, IP_PAIRS[i % len(IP_PAIRS)]))
    return ops


def _cubature_op(pb, rng, rules, kind, cfg, ip_pair):
    n, p, a, b = cfg.n, cfg.p, cfg.alpha, cfg.beta
    base = {"n": n, "p": p, "alpha": a, "beta": b}
    if kind == "reproduce":
        u = _polynomial(pb, rng, cfg, BLOCK_DEGREES)
        x = pb.make_rotated_point(_phase(rng, cfg, 0.0), rng.uniform(0.0, 0.9) * _direction(rng, n))
        rule = rules[("reproduce", n, a, b)]
        args = (cfg, a, b, u, x, REPRODUCE_DEGREE, rule)
        inputs = dict(base, x=_point_inputs(x), m_top=REPRODUCE_DEGREE,
                      rule_degree=RULE_DEGREE, u=_poly_inputs(pb, u))

        def check(out):
            ref = pb.evaluate(u, x)
            return abs(out - ref) / (1.0 + abs(ref)), CUBATURE_TOL

        return Op(kind, pb.reproduce, args, inputs, check)
    if kind == "inner_product_ball":
        m, l = ip_pair
        f = _polynomial(pb, rng, cfg, (m,) * 4)
        g = _polynomial(pb, rng, cfg, (l,) * 4)
        rule = rules[("ip", n)]
        args = (cfg, 0.0, 0.0, f, g, rule)
        inputs = dict(base, rule_degree=IP_RULE_DEGREE,
                      f=_poly_inputs(pb, f), g=_poly_inputs(pb, g))

        def check(out):
            norm_f = math.sqrt(abs(pb.inner_product_ball(cfg, 0.0, 0.0, f, f, rule)))
            norm_g = math.sqrt(abs(pb.inner_product_ball(cfg, 0.0, 0.0, g, g, rule)))
            return abs(out) / max(1e-300, norm_f * norm_g), ORTHO_TOL

        return Op(kind, pb.inner_product_ball, args, inputs, check)
    u = _polynomial(pb, rng, cfg, BLOCK_DEGREES)
    x = pb.make_rotated_point(0.0, rng.uniform(0.0, MV_X_MAX) * _direction(rng, n))
    center = np.zeros(n)
    rule = rules[("mv", n)]
    args = (cfg, u, center, MV_RADIUS, x, rule)
    inputs = dict(base, x=_point_inputs(x), center=[0.0] * n, r=MV_RADIUS,
                  rule_degree=MV_RULE_DEGREE, u=_poly_inputs(pb, u))

    def check(out):
        ref = pb.evaluate(u, x)
        return abs(out - ref) / (1.0 + abs(ref)), CUBATURE_TOL

    return Op(kind, pb.mean_value_eval, args, inputs, check)


# ------------------------------------------------------------------ cli

CLI_KINDS = ("eval:poisson", "eval:bergman", "eval:wbergman", "eval:zonal",
             "grid:bergman", "grid:wbergman")
GRID_STEPS = {"bergman": 40, "wbergman": 20}
ZONAL_MAX_M = 12


def _num(v):
    return repr(float(v))


def _coords_arg(flag, coords):
    # the "=" form keeps argparse from reading a leading minus as an option
    return f"--{flag}=" + ",".join(_num(c) for c in coords)


def cli_pool(pb, rng, size=len(CLI_KINDS)):
    """Argument lists for ``python -m polybergman.cli`` plus their checks.

    One round, so that each op runs about eight times in a 20 s run and its
    best call is steady."""
    ops = []
    for i in range(size):
        ops.append(_cli_op(pb, rng, CLI_KINDS[i % len(CLI_KINDS)]))
    return ops


def _cli_point_args(rng, cfg, label, radius, sector_only):
    """A point as CLI flags, either by sector index or by explicit phase."""
    coords = radius * _direction(rng, cfg.n)
    if sector_only or rng.uniform() < 0.5:
        k = int(rng.integers(0, cfg.p))
        return [_coords_arg(label, coords), f"--{label}-sector", str(k)], (math.pi * k / cfg.p, coords)
    phase = _phase(rng, cfg, 0.5)
    return [_coords_arg(label, coords), f"--{label}-phase={_num(phase)}"], (phase, coords)


def _cli_op(pb, rng, kind):
    command, kernel = kind.split(":")
    if command == "eval":
        n, p = int(rng.choice(DIMS)), int(rng.choice(ORDERS))
        a, b = WEIGHTS[int(rng.integers(0, 3))] if kernel == "wbergman" else (0.0, 0.0)
        cfg = pb.KernelConfig(n=n, p=p, alpha=a, beta=b)
        hi = R_MAX - 1e-9 if kernel == "wbergman" else CLI_RHO_MAX
        rx, ry = _radius_pair(rng, rng.uniform(0.0, hi))
        series = kernel == "wbergman"
        xa, xp = _cli_point_args(rng, cfg, "x", rx, series)
        ya, yp = _cli_point_args(rng, cfg, "y", ry, series)
        argv = ["eval", "--kernel", kernel, "--n", str(n), "--p", str(p),
                "--alpha", _num(a), "--beta", _num(b), "--tol", _num(TOL)] + xa + ya
        m = None
        if kernel == "zonal":
            m = int(rng.integers(0, ZONAL_MAX_M + 1))
            argv += ["--m", str(m)]
        x = pb.make_rotated_point(*xp)
        y = pb.make_rotated_point(*yp)
        return Op(kind, None, argv, {"argv": argv}, _cli_eval_check(pb, cfg, kernel, x, y, m))
    # n and p are fixed at the CLI's defaults: a grid's cost depends strongly
    # on them (the series degree; 2n printed coordinates per row), and the
    # pool holds one grid of each kernel
    n, p = 3, 2
    if kernel == "wbergman":
        a, b = WEIGHTS[int(rng.integers(0, 3))]
        r_hi = float(rng.uniform(0.9, 0.99))
    else:
        a, b = 0.0, 0.0
        r_hi = float(rng.uniform(R_MAX, CLI_RHO_MAX))
    cfg = pb.KernelConfig(n=n, p=p, alpha=a, beta=b)
    steps = GRID_STEPS[kernel]
    argv = ["grid", "--kernel", kernel, "--n", str(n), "--p", str(p),
            "--alpha", _num(a), "--beta", _num(b), "--tol", _num(TOL),
            "--radial-steps", str(steps), "--angle-steps", str(steps),
            "--r-hi", _num(r_hi), "--x-sector", str(int(rng.integers(0, p))),
            "--y-sector", str(int(rng.integers(0, p)))]
    return Op(kind, None, argv, {"argv": argv}, _cli_grid_check(pb, cfg, kernel, steps * steps))


def _kernel_value(pb, cfg, kernel, x, y, m=None):
    """In-process library call for the value the CLI prints."""
    if kernel == "poisson":
        return pb.poisson(cfg, x, y), None
    if kernel == "bergman":
        return pb.bergman(cfg, x, y), None
    if kernel == "zonal":
        return pb.zonal_polyharmonic(cfg, m, x, y), None
    trunc = pb.make_truncation(cfg, x.radius * y.radius, TOL, "weighted")
    return pb.weighted_bergman_series(cfg, x, y, trunc), trunc.max_degree


def _value_error(kernel, got, want):
    """Error and tolerance: truncation tol for the series, relative otherwise."""
    if kernel == "wbergman":
        return abs(got - want), TOL
    return _rel(got, want), CLOSED_REL_TOL


_MISMATCH = (math.inf, 0.0)


def _cli_eval_check(pb, cfg, kernel, x, y, m):
    def check(out):
        code, text = out
        if code != 0:
            return _MISMATCH
        rec = json.loads(text)
        want, degree = _kernel_value(pb, cfg, kernel, x, y, m)
        same_points = (
            rec["x"]["coords"] == [float(c) for c in x.coords]
            and rec["y"]["coords"] == [float(c) for c in y.coords]
            and rec["x"]["phase"] == x.phase and rec["y"]["phase"] == y.phase
        )
        if (not same_points or rec["truncation"] != degree
                or rec["regime"] != pb.evaluation_regime(cfg, x, y)):
            return _MISMATCH
        return _value_error(kernel, complex(rec["re"], rec["im"]), want)

    return check


def _cli_grid_check(pb, cfg, kernel, rows_expected):
    n = cfg.n

    def check(out):
        code, text = out
        lines = text.splitlines()
        if code != 0 or len(lines) != rows_expected + 1:
            return _MISMATCH
        worst = (0.0, 1.0)
        for line in lines[1:]:
            f = line.split(",")
            x = pb.make_rotated_point(float(f[4]), [float(c) for c in f[6:6 + n]])
            y = pb.make_rotated_point(float(f[5]), [float(c) for c in f[6 + n:6 + 2 * n]])
            want, _ = _kernel_value(pb, cfg, kernel, x, y)
            if f[-1] != pb.evaluation_regime(cfg, x, y):
                return _MISMATCH
            err, tol = _value_error(kernel, complex(float(f[-3]), float(f[-2])), want)
            if err / tol > worst[0] / worst[1]:
                worst = (err, tol)
        return worst

    return check


# -------------------------------------------------------- known defects

# Pairs outside VERIFIED_RHO_MAX on which a check fails today, found in pools
# of an earlier design that ran radius products up to 0.999 (closed) and
# r_max (series).  They are evaluated after every timed run and reported
# with their error; they are not ops of any workload.
KNOWN_DEFECTS = (
    {"kind": "bergman_decomposed", "n": 4, "p": 3,
     "x": (0.0, (-0.5636891550271542, 0.1907691060363671, -0.47726613632442366, 0.26565393096394674)),
     "y": (0.0, (0.44333422664761635, 0.6262947363689311, 0.25863168582345664, 0.17584218800511098))},
    {"kind": "bergman_decomposed", "n": 3, "p": 2,
     "x": (0.0, (-0.13380232736180012, 0.6515339055031818, -0.3460404779674177)),
     "y": (0.0, (-0.346007588086086, -0.6724458330333322, 0.0700449343473781))},
    {"kind": "poisson", "n": 2, "p": 1,
     "x": (0.0, (-0.892819988854518, -0.44910853464780304)),
     "y": (0.0, (-0.8916798290627092, -0.4517533667386234))},
    {"kind": "weighted_series", "n": 5, "p": 2,
     "x": (0.0, (0.8017192817807445, 0.06695955746422459, 0.39575254702541046,
                 0.336125208066375, 0.20817000452466208)),
     "y": (math.pi / 2, (-0.8194815903183785, 0.19083558545980298, -0.2977433561052639,
                         -0.0262353937959072, -0.37766081871961743))},
)


def known_defects(pb):
    """Each KNOWN_DEFECTS pair checked as its workload would check it."""
    out = []
    for case in KNOWN_DEFECTS:
        cfg = pb.KernelConfig(n=case["n"], p=case["p"])
        x = pb.make_rotated_point(case["x"][0], list(case["x"][1]))
        y = pb.make_rotated_point(case["y"][0], list(case["y"][1]))
        rho = x.radius * y.radius
        rec = dict(_pair_inputs(cfg, x, y, radius_product=rho), op=case["kind"])
        try:
            if case["kind"] == "weighted_series":
                args = (pb.make_truncation, pb.weighted_bergman_series, cfg, x, y, rho, "weighted")
                value, check = series_op(*args), _series_check(pb, "weighted", cfg, x, y)
            else:
                regime = pb.evaluation_regime(cfg, x, y)
                value = getattr(pb, case["kind"])(cfg, x, y)
                check = _closed_check(pb, case["kind"], cfg, x, y, regime)
            err, tol = check(value)
            rec.update(error=err, tolerance=tol, fails=not err <= tol)
        except Exception as exc:  # a probe never stops the run's result
            rec.update(raised=f"{type(exc).__name__}: {exc}", fails=True)
        out.append(rec)
    return out


# ---------------------------------------------------------------- entry

# Ops in one round of a pool: one per combination of kind, n and p, so every
# round asks for the same mix of work.  One round runs before timing.
ROUND = {"closed": len(CLOSED_COMBOS), "series": len(SERIES_COMBOS),
         "cubature": len(CUBATURE_COMBOS), "cli": len(CLI_KINDS)}


def corrupt(out):
    """A wrong output of the same shape, for the checker self-test."""
    if isinstance(out, complex):
        return out + 1e-6 * max(1.0, abs(out))
    if isinstance(out[1], int):  # series: (value, truncation degree)
        return corrupt(out[0]), out[1]
    code, text = out  # CLI: shift the first printed real part
    if text.startswith("{"):
        rec = json.loads(text)
        rec["re"] += 1e-6 * max(1.0, abs(rec["re"]))
        return code, json.dumps(rec) + "\n"
    lines = text.splitlines()
    fields = lines[1].split(",")
    re_part = float(fields[-3])
    fields[-3] = repr(re_part + 1e-6 * max(1.0, abs(re_part)))
    lines[1] = ",".join(fields)
    return code, "\n".join(lines) + "\n"


def prepare(workload, pb):
    """The library's one-time work the workload needs; returns its state."""
    if workload == "series":
        calibrate_all(pb)
    if workload == "cubature":
        return build_rules(pb)
    return None


def make_pool(workload, pb, seed, state):
    rng = rng_for(workload, seed)
    if workload == "closed":
        return closed_pool(pb, rng)
    if workload == "series":
        return series_pool(pb, rng)
    if workload == "cubature":
        return cubature_pool(pb, rng, state)
    return cli_pool(pb, rng)
