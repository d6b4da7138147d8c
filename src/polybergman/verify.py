"""Named verification suites cross-checking every implemented identity.

Each suite runs a seeded randomized sweep and returns a report dict
{suite, cases, max_abs_err, max_rel_err, tolerance, bounds, pass}, where
bounds names the error that the tolerance bounds; the CLI exposes
them through ``verify --suite NAME`` and the acceptance tests drive the same
functions.  Default sweeps: dimensions 2..5, orders 1..3, 200 point pairs
with radii below 0.7, at sector phases, and in the five suites that
compare two kernel routes on pairs (_pair_sweep) at uniform phases for
every fourth pair.
"""

from __future__ import annotations

import math

import numpy as np

from .core import KernelConfig, RotatedPoint, make_rotated_point, zonal_terms
from .kernels import (
    bergman,
    bergman_decomposed,
    bergman_series,
    derivative_form_check,
    make_truncation,
    poisson,
    poisson_series,
    weighted_bergman_decomposed,
    weighted_bergman_series,
    weighted_coefficient,
)
from .polyspace import (
    eval_complex,
    evaluate,
    random_homogeneous,
    random_polyharmonic,
)
from .quadrature import (
    build_ball_rule,
    build_sphere_rule,
    inner_product_ball,
    inner_product_sphere,
    mean_value_eval,
    reproduce,
)
from .zonal import polyharmonic_dim, zonal_poly_sum

DEFAULT_DIMS = (2, 3, 4, 5)
DEFAULT_ORDERS = (1, 2, 3)


class _Sweep:
    """Running worst absolute and relative error and case count of a suite,
    and the case of the worst error of the kind the tolerance bounds
    ("max_abs_err" or "max_rel_err")."""

    def __init__(self, bounds):
        self.bounds = bounds
        self.max_abs = self.max_rel = 0.0
        self.count = 0
        self.worst = None

    def add(self, err, scale, cases=1, **case):
        """Record one error against its scale; cases=0 adds a second check
        to a case already counted.  case names what re-runs the check (cfg,
        the points x and y, the truncation degree, ...); it is kept while
        its bounded error is the largest so far."""
        rel = err / max(1e-300, scale)
        if self.worst is None or (err if self.bounds == "max_abs_err" else rel) > self._bounded():
            self.worst = case
        self.max_abs = max(self.max_abs, err)
        self.max_rel = max(self.max_rel, rel)
        self.count += cases

    def _bounded(self):
        return self.max_abs if self.bounds == "max_abs_err" else self.max_rel

    def report(self, suite, tol, ok=True, **extra):
        """Report dict; the suite passes when it checked at least one case,
        the bounded error is within tol and ok holds.  "worst" is the case
        of the bounded error as JSON values (None when nothing was checked):
        a config as its fields, a point as its phase and coords."""
        return {
            "suite": suite,
            "cases": self.count,
            "max_abs_err": self.max_abs,
            "max_rel_err": self.max_rel,
            "tolerance": tol,
            "bounds": self.bounds,
            "pass": bool(self.count > 0 and self._bounded() <= tol and ok),
            "worst": None if self.worst is None else {k: _as_json(v) for k, v in self.worst.items()},
            **extra,
        }


def _as_json(value):
    """A case field as JSON values: KernelConfig -> its fields, RotatedPoint
    -> {phase, coords}; numbers and strings as they are."""
    if isinstance(value, KernelConfig):
        return {"n": value.n, "p": value.p, "alpha": value.alpha, "beta": value.beta}
    if isinstance(value, RotatedPoint):
        return {"phase": value.phase, "coords": value.coords.tolist()}
    return value


def _random_point(cfg, rng, r_hi=0.7, r_lo=0.0, sector=True) -> RotatedPoint:
    """A point of random direction and radius in [r_lo, r_hi), at a random
    sector phase or, if not sector, a uniform phase in [-pi, pi)."""
    direction = rng.normal(size=cfg.n)
    direction /= np.linalg.norm(direction)
    radius = rng.uniform(r_lo, r_hi)
    phase = cfg.sector_phase(int(rng.integers(0, cfg.p))) if sector else rng.uniform(-math.pi, math.pi)
    return make_rotated_point(phase, radius * direction)


def _pair_sweep(seed, cases, weights=((0.0, 0.0),), r_hi=0.7):
    """(cfg, x, y) for cases pairs per dimension, order and (alpha, beta)
    weight, drawn from one seeded generator in that loop order; every
    fourth pair has uniform phases, where the closed forms and the series
    agree as well (kernels.evaluation_regime), the others sector phases."""
    rng = np.random.default_rng(seed)
    for n in DEFAULT_DIMS:
        for p in DEFAULT_ORDERS:
            for alpha, beta in weights:
                cfg = KernelConfig(n=n, p=p, alpha=alpha, beta=beta)
                for i in range(cases):
                    x, y = (_random_point(cfg, rng, r_hi, sector=i % 4 != 3) for _ in range(2))
                    yield cfg, x, y


def _series_suite(suite, kind, closed_fn, series_fn, tol, seed, cases):
    sweep = _Sweep("max_abs_err")
    for cfg, x, y in _pair_sweep(seed, cases):
        trunc = make_truncation(cfg, x.radius * y.radius, tol, kind)
        closed = closed_fn(cfg, x, y)
        err = abs(series_fn(cfg, x, y, trunc) - closed)
        sweep.add(err, abs(closed), cfg=cfg, x=x, y=y, degree=trunc.max_degree)
    return sweep.report(suite, tol, seed=seed)


def suite_poisson_series(seed: int = 42, cases: int = 200) -> dict:
    """Zonal series versus the closed-form Poisson kernel."""
    return _series_suite("poisson_series", "poisson", poisson, poisson_series, 1e-10, seed, cases)


def suite_bergman_series(seed: int = 42, cases: int = 200) -> dict:
    """Zonal series versus the closed-form Bergman kernel."""
    return _series_suite("bergman_series", "bergman", bergman, bergman_series, 1e-9, seed, cases)


def suite_decomposition(seed: int = 42, cases: int = 200) -> dict:
    """Harmonic-kernel decomposition versus the direct closed form."""
    tol = 1e-12
    sweep = _Sweep("max_rel_err")
    for cfg, x, y in _pair_sweep(seed, cases):
        direct = bergman(cfg, x, y)
        sweep.add(abs(bergman_decomposed(cfg, x, y) - direct), abs(direct), cfg=cfg, x=x, y=y)
    return sweep.report("decomposition", tol, seed=seed)


def suite_weighted(seed: int = 42, cases: int = 200) -> dict:
    """Weighted series vs weighted decomposition, plus the unweighted limit.

    The termwise check pins the beta = 0 coefficient collapse to n + 2m at
    1e-12 relative.
    """
    tol = 1e-9
    termwise_tol = 1e-12
    termwise_rel = max(
        abs(weighted_coefficient(n, 0.0, 0.0, m) - (n + 2 * m)) / (n + 2 * m)
        for n in DEFAULT_DIMS
        for m in range(0, 61)
    )
    sweep = _Sweep("max_abs_err")
    for cfg, x, y in _pair_sweep(seed, cases // 4, ((0.0, 0.0), (1.0, 0.5), (-0.5, 2.0))):
        trunc = make_truncation(cfg, x.radius * y.radius, tol / 10, "weighted")
        series = weighted_bergman_series(cfg, x, y, trunc)
        decomposed = weighted_bergman_decomposed(cfg, x, y, trunc)
        case = dict(cfg=cfg, x=x, y=y, degree=trunc.max_degree)
        sweep.add(abs(series - decomposed), abs(series), check="decomposed", **case)
        if cfg.alpha == 0.0 and cfg.beta == 0.0:
            closed = bergman(cfg, x, y)
            sweep.add(abs(series - closed), abs(closed), cases=0, check="closed", **case)
    return sweep.report(
        "weighted", tol, termwise_rel <= termwise_tol,
        termwise_rel_err=termwise_rel, termwise_tolerance=termwise_tol, seed=seed,
    )


def suite_derivative_form(seed: int = 42, cases: int = 200) -> dict:
    """Exact derivative form versus the weighted series."""
    tol = 1e-11
    sweep = _Sweep("max_abs_err")
    for cfg, x, y in _pair_sweep(seed, cases // 8, ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))):
        got = derivative_form_check(cfg, x, y)
        trunc = make_truncation(cfg, x.radius * y.radius, tol / 10, "weighted")
        ref = weighted_bergman_series(cfg, x, y, trunc)
        sweep.add(abs(got - ref), abs(ref), cfg=cfg, x=x, y=y, degree=trunc.max_degree)
    return sweep.report("derivative_form", tol, seed=seed)


def suite_reproduce(seed: int = 42, cases: int = 50) -> dict:
    """Reproducing integral against direct evaluation, unweighted and weighted."""
    tol = 1e-8
    degree = 6
    m_top = degree
    sweep = _Sweep("max_rel_err")
    rng = np.random.default_rng(seed)
    rules = {}
    for n in (2, 3):
        for alpha, beta in ((0.0, 0.0), (1.0, 0.5)):
            rules[(n, alpha, beta)] = build_ball_rule(n, alpha, beta, 2 * m_top + 4)
        for p in DEFAULT_ORDERS:
            cfgs = [KernelConfig(n=n, p=p, alpha=alpha, beta=beta) for alpha, beta in ((0.0, 0.0), (1.0, 0.5))]
            for i in range(cases):
                u_seed = seed + 1000 * n + 100 * p + i
                u = random_polyharmonic(cfgs[0], degree, blocks=6, seed=u_seed)
                x = _random_point(cfgs[0], rng)
                ux = evaluate(u, x)
                for cfg in cfgs:
                    got = reproduce(cfg, cfg.alpha, cfg.beta, u, x, m_top, rules[(n, cfg.alpha, cfg.beta)])
                    sweep.add(abs(got - ux), 1.0 + abs(ux), cfg=cfg, x=x, u_seed=u_seed)
    return sweep.report("reproduce", tol, seed=seed)


def suite_zonal_reproduce(seed: int = 42, cases: int = 20) -> dict:
    """Sphere reproduction of homogeneous polynomials by zonal polyharmonics.

    Both slots are sphere sums of q, evaluated at the sector points
    e^{i k pi/p} zeta_j (eval_complex), against the section of Z^p_m at the
    same points (zonal_poly_sum of the node cosines zeta_j . x/|x| and
    zeta = |x| e^{i (phase(x) - k pi/p)}): the sector-averaged sum against
    the kernel in its first slot, reproducing q(eta) at a unit point eta,
    and the single-sphere sum against its second slot, reproducing q(x) at
    a ball point x.  The zonal factors are real, so Z^p_m(., eta)
    conjugated is the section Z^p_m(eta, .).
    """
    tol = 1e-8
    sweep = _Sweep("max_rel_err")
    rng = np.random.default_rng(seed)
    for n in (2, 3):
        rule = build_sphere_rule(n, 20)
        for p in DEFAULT_ORDERS:
            cfg = KernelConfig(n=n, p=p)
            phases = cfg.sector_phases()
            points = (np.exp(1j * phases)[:, None, None] * rule.nodes).reshape(-1, n)
            for m in range(0, 9):
                g = [0.0] * m + [1.0]
                for i in range(max(1, cases // 9)):
                    q_seed = seed + 977 * n + 61 * p + 13 * m + i
                    q = random_homogeneous(cfg, m, blocks=4, seed=q_seed)
                    qv = eval_complex(q, points).reshape(p, -1)
                    direction = rng.normal(size=n)
                    direction /= np.linalg.norm(direction)
                    eta = make_rotated_point(cfg.sector_phase(int(rng.integers(0, p))), direction)
                    zeta = np.exp(1j * (eta.phase - phases))[:, None]
                    kv = zonal_poly_sum(g, p, rule.nodes @ direction, zeta, n)
                    got = complex(np.sum(rule.weights * qv * kv)) / p
                    expected = evaluate(q, eta)
                    sweep.add(abs(got - expected), 1.0 + abs(expected), cfg=cfg, degree=m, x=eta, q_seed=q_seed)

                    xin = _random_point(cfg, rng)
                    zeta = xin.radius * np.exp(1j * xin.phase)
                    kv = zonal_poly_sum(g, p, rule.nodes @ (xin.coords / xin.radius), zeta, n)
                    got_ball = complex(np.sum(rule.weights * qv[0] * kv))
                    expected_ball = evaluate(q, xin)
                    sweep.add(abs(got_ball - expected_ball), 1.0 + abs(expected_ball), cfg=cfg, degree=m, x=xin, q_seed=q_seed)
    return sweep.report("zonal_reproduce", tol, seed=seed)


def suite_orthogonality(seed: int = 42, cases: int = 12) -> dict:
    """Cross-degree inner products vanish on both the spheres and the balls."""
    tol = 1e-9
    sweep = _Sweep("max_rel_err")
    for n in (2, 3):
        sphere = build_sphere_rule(n, 20)
        ball = build_ball_rule(n, 0.0, 0.0, 20)
        for p in DEFAULT_ORDERS:
            cfg = KernelConfig(n=n, p=p)
            polys = {
                m: random_homogeneous(cfg, m, blocks=4, seed=seed + 389 * n + 17 * p + m)
                for m in range(0, 9)
            }
            norms_s = {
                m: math.sqrt(abs(inner_product_sphere(cfg, q, q, sphere)))
                for m, q in polys.items()
            }
            norms_b = {
                m: math.sqrt(abs(inner_product_ball(cfg, 0.0, 0.0, q, q, ball)))
                for m, q in polys.items()
            }
            for m in range(0, 9):
                for l in range(m + 1, 9):
                    ip_s = inner_product_sphere(cfg, polys[m], polys[l], sphere)
                    ip_b = inner_product_ball(cfg, 0.0, 0.0, polys[m], polys[l], ball)
                    sweep.add(abs(ip_s), norms_s[m] * norms_s[l], cfg=cfg, degrees=[m, l], domain="sphere")
                    sweep.add(abs(ip_b), norms_b[m] * norms_b[l], cfg=cfg, degrees=[m, l], domain="ball")
    return sweep.report("orthogonality", tol, seed=seed)


def suite_mean_value(seed: int = 42, cases: int = 50) -> dict:
    """Rotated mean-value formula against direct evaluation (n = 3)."""
    tol = 1e-8
    sweep = _Sweep("max_abs_err")
    rng = np.random.default_rng(seed)
    # degree-50 rule: the non-polynomial weight decays like (|x|/r)^m, so
    # capping |x| at 0.3 leaves the cubature tail far below tolerance
    rule = build_sphere_rule(3, 50)
    r = 0.6
    for p in DEFAULT_ORDERS:
        cfg = KernelConfig(n=3, p=p)
        for i in range(cases):
            u_seed = seed + 71 * p + i
            u = random_polyharmonic(cfg, 6, blocks=6, seed=u_seed)
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            x = make_rotated_point(0.0, rng.uniform(0.0, 0.3) * direction)
            got = mean_value_eval(cfg, u, np.zeros(3), r, x, rule)
            expected = evaluate(u, x)
            sweep.add(abs(got - expected), 1.0 + abs(expected), cfg=cfg, x=x, radius=r, u_seed=u_seed)
    # the scale 1 + |u(x)| >= 1 makes the relative error at most the absolute
    return sweep.report("mean_value", tol, seed=seed)


def suite_growth(seed: int = 42, cases: int = 65) -> dict:
    """The proven bound |Z^p_m(x, y)| <= D_p(m) (|x||y|)^m for m = 0..40.

    Per dimension and order: cases random sector pairs with radii in
    [0.5, 1), and the pairs (x, 0.8 x) and (x, -0.8 x), where the bound is
    attained (t = 1 and t = -1).  The errors are the ratios of the two sides.
    """
    sweep = _Sweep("max_abs_err")
    rng = np.random.default_rng(seed)
    for n in DEFAULT_DIMS:
        for p in DEFAULT_ORDERS:
            cfg = KernelConfig(n=n, p=p)
            pairs = [(_random_point(cfg, rng, 1.0, 0.5), _random_point(cfg, rng, 1.0, 0.5)) for _ in range(cases)]
            x = _random_point(cfg, rng, 1.0, 0.5)
            pairs += [(x, make_rotated_point(x.phase, c * x.coords)) for c in (0.8, -0.8)]
            t, zeta = map(np.array, zip(*(zonal_terms(x, y) for x, y in pairs)))
            for m in range(41):
                z = zonal_poly_sum([0.0] * m + [1.0], p, t, zeta, n)
                ratios = np.abs(z) / (polyharmonic_dim(n, p, m) * np.abs(zeta) ** m)
                j = int(np.argmax(ratios))
                sweep.add(float(ratios[j]), 1.0, cases=len(pairs), cfg=cfg, x=pairs[j][0], y=pairs[j][1], degree=m)
    note = "errors are ratios |Z^p_m| / (D_p(m) (|x||y|)^m), not absolute errors"
    return sweep.report("growth", 1.0 + 1e-12, seed=seed, note=note)


SUITES = {
    "poisson_series": suite_poisson_series,
    "bergman_series": suite_bergman_series,
    "decomposition": suite_decomposition,
    "weighted": suite_weighted,
    "derivative_form": suite_derivative_form,
    "reproduce": suite_reproduce,
    "zonal_reproduce": suite_zonal_reproduce,
    "orthogonality": suite_orthogonality,
    "mean_value": suite_mean_value,
    "growth": suite_growth,
}


def run_suite(name: str, seed: int = 42, cases: int | None = None) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    fn = SUITES[name]
    if cases is None:
        return fn(seed=seed)
    return fn(seed=seed, cases=cases)
