"""Named verification suites cross-checking every implemented identity.

Each suite runs a seeded randomized sweep and returns a report dict
{suite, cases, max_abs_err, max_rel_err, tolerance, bounds, pass}, where
bounds names the error that the tolerance bounds; the CLI exposes
them through ``verify --suite NAME`` and the acceptance tests drive the same
functions.  Default sweeps: dimensions 2..5, orders 1..3, 200 point pairs
with sector phases and radii below 0.7.
"""

from __future__ import annotations

import math

import numpy as np

from .core import KernelConfig, RotatedPoint, make_rotated_point
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
    eval_polar,
    evaluate,
    mean_value_eval,
    random_homogeneous,
    random_polyharmonic,
)
from .quadrature import (
    build_ball_rule,
    build_sphere_rule,
    inner_product_ball,
    inner_product_sphere,
    reproduce,
)
from .zonal import degree_coefficients, zonal_growth_ratio, zonal_section

DEFAULT_DIMS = (2, 3, 4, 5)
DEFAULT_ORDERS = (1, 2, 3)


class _Sweep:
    """Running worst absolute and relative error and case count of a suite."""

    def __init__(self):
        self.max_abs = self.max_rel = 0.0
        self.count = 0

    def add(self, err, scale, cases=1):
        """Record one error against its scale; cases=0 adds a second check
        to a case already counted."""
        self.max_abs = max(self.max_abs, err)
        self.max_rel = max(self.max_rel, err / max(1e-300, scale))
        self.count += cases

    def report(self, suite, tol, bounds, ok=True, **extra):
        """Report dict; the suite passes when the error named by bounds
        ("max_abs_err" or "max_rel_err") is within tol and ok holds."""
        errors = {"max_abs_err": self.max_abs, "max_rel_err": self.max_rel}
        return {
            "suite": suite,
            "cases": self.count,
            **errors,
            "tolerance": tol,
            "bounds": bounds,
            "pass": bool(errors[bounds] <= tol and ok),
            **extra,
        }


def _random_point(cfg, rng, r_hi=0.7) -> RotatedPoint:
    direction = rng.normal(size=cfg.n)
    direction /= np.linalg.norm(direction)
    radius = rng.uniform(0.0, r_hi)
    sector = int(rng.integers(0, cfg.p))
    return make_rotated_point(cfg.sector_phase(sector), radius * direction)


def _pair_sweep(seed, cases, weights=((0.0, 0.0),), r_hi=0.7):
    """(cfg, x, y) for cases pairs per dimension, order and (alpha, beta)
    weight, drawn from one seeded generator in that loop order."""
    rng = np.random.default_rng(seed)
    for n in DEFAULT_DIMS:
        for p in DEFAULT_ORDERS:
            for alpha, beta in weights:
                cfg = KernelConfig(n=n, p=p, alpha=alpha, beta=beta)
                for _ in range(cases):
                    yield cfg, _random_point(cfg, rng, r_hi), _random_point(cfg, rng, r_hi)


def _series_suite(suite, kind, closed_fn, series_fn, tol, seed, cases):
    sweep = _Sweep()
    for cfg, x, y in _pair_sweep(seed, cases):
        trunc = make_truncation(cfg, x.radius * y.radius, tol, kind)
        closed = closed_fn(cfg, x, y)
        sweep.add(abs(series_fn(cfg, x, y, trunc) - closed), abs(closed))
    return sweep.report(suite, tol, "max_abs_err", seed=seed)


def suite_poisson_series(seed: int = 42, cases: int = 200) -> dict:
    """Zonal series versus the closed-form Poisson kernel."""
    return _series_suite("poisson_series", "poisson", poisson, poisson_series, 1e-10, seed, cases)


def suite_bergman_series(seed: int = 42, cases: int = 200) -> dict:
    """Zonal series versus the closed-form Bergman kernel."""
    return _series_suite("bergman_series", "bergman", bergman, bergman_series, 1e-9, seed, cases)


def suite_decomposition(seed: int = 42, cases: int = 200) -> dict:
    """Harmonic-kernel decomposition versus the direct closed form."""
    tol = 1e-12
    sweep = _Sweep()
    for cfg, x, y in _pair_sweep(seed, cases):
        direct = bergman(cfg, x, y)
        sweep.add(abs(bergman_decomposed(cfg, x, y) - direct), abs(direct))
    return sweep.report("decomposition", tol, "max_rel_err", seed=seed)


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
    sweep = _Sweep()
    for cfg, x, y in _pair_sweep(seed, cases // 4, ((0.0, 0.0), (1.0, 0.5), (-0.5, 2.0))):
        trunc = make_truncation(cfg, x.radius * y.radius, tol / 10, "weighted")
        series = weighted_bergman_series(cfg, x, y, trunc)
        decomposed = weighted_bergman_decomposed(cfg, x, y, trunc)
        sweep.add(abs(series - decomposed), abs(series))
        if cfg.alpha == 0.0 and cfg.beta == 0.0:
            closed = bergman(cfg, x, y)
            sweep.add(abs(series - closed), abs(closed), cases=0)
    return sweep.report(
        "weighted", tol, "max_abs_err", termwise_rel <= termwise_tol,
        termwise_rel_err=termwise_rel, termwise_tolerance=termwise_tol, seed=seed,
    )


def suite_derivative_form(seed: int = 42, cases: int = 200) -> dict:
    """Exact derivative form versus the weighted series."""
    tol = 1e-11
    sweep = _Sweep()
    for cfg, x, y in _pair_sweep(seed, cases // 8, ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0))):
        got = derivative_form_check(cfg, x, y)
        trunc = make_truncation(cfg, x.radius * y.radius, tol / 10, "weighted")
        ref = weighted_bergman_series(cfg, x, y, trunc)
        sweep.add(abs(got - ref), abs(ref))
    return sweep.report("derivative_form", tol, "max_abs_err", seed=seed)


def suite_reproduce(seed: int = 42, cases: int = 50) -> dict:
    """Reproducing integral against direct evaluation, unweighted and weighted."""
    tol = 1e-8
    degree = 6
    m_top = degree
    sweep = _Sweep()
    rng = np.random.default_rng(seed)
    rules = {}
    for n in (2, 3):
        for alpha, beta in ((0.0, 0.0), (1.0, 0.5)):
            rules[(n, alpha, beta)] = build_ball_rule(n, alpha, beta, 2 * m_top + 4)
        for p in DEFAULT_ORDERS:
            cfg = KernelConfig(n=n, p=p)
            for i in range(cases):
                u = random_polyharmonic(cfg, degree, blocks=6, seed=seed + 1000 * n + 100 * p + i)
                x = _random_point(cfg, rng)
                ux = evaluate(u, x)
                for alpha, beta in ((0.0, 0.0), (1.0, 0.5)):
                    got = reproduce(cfg, alpha, beta, u, x, m_top, rules[(n, alpha, beta)])
                    sweep.add(abs(got - ux), 1.0 + abs(ux))
    return sweep.report("reproduce", tol, "max_rel_err", seed=seed)


def suite_zonal_reproduce(seed: int = 42, cases: int = 20) -> dict:
    """Sphere reproduction of homogeneous polynomials by zonal polyharmonics.

    Both slots are sphere sums of q against a zonal_section of Z^p_m: the
    sector-averaged sum against the kernel in its first slot, reproducing
    q(eta) at a unit point eta, and the single-sphere sum against its second
    slot, reproducing q(x) at a ball point x.  The zonal factors are real, so
    Z^p_m(., eta) conjugated is the section Z^p_m(eta, .).
    """
    tol = 1e-8
    sweep = _Sweep()
    rng = np.random.default_rng(seed)
    one = np.ones(1)
    for n in (2, 3):
        rule = build_sphere_rule(n, 20)
        for p in DEFAULT_ORDERS:
            cfg = KernelConfig(n=n, p=p)
            phases = cfg.sector_phases()
            for m in range(0, 9):
                coef = degree_coefficients(p, m)
                for i in range(max(1, cases // 9)):
                    q = random_homogeneous(cfg, m, blocks=4, seed=seed + 977 * n + 61 * p + 13 * m + i)
                    qv = eval_polar(q, phases, one, rule.nodes)
                    direction = rng.normal(size=n)
                    direction /= np.linalg.norm(direction)
                    eta = make_rotated_point(cfg.sector_phase(int(rng.integers(0, p))), direction)
                    kv = zonal_section(coef, eta, phases, one, rule.nodes, n)
                    got = complex(np.sum(rule.weights * qv * kv)) / p
                    expected = evaluate(q, eta)
                    sweep.add(abs(got - expected), 1.0 + abs(expected))

                    xin = _random_point(cfg, rng)
                    kv = zonal_section(coef, xin, [0.0], one, rule.nodes, n)[0, 0]
                    got_ball = complex(np.sum(rule.weights * qv[0, 0] * kv))
                    expected_ball = evaluate(q, xin)
                    sweep.add(abs(got_ball - expected_ball), 1.0 + abs(expected_ball))
    return sweep.report("zonal_reproduce", tol, "max_rel_err", seed=seed)


def suite_orthogonality(seed: int = 42, cases: int = 12) -> dict:
    """Cross-degree inner products vanish on both the spheres and the balls."""
    tol = 1e-9
    sweep = _Sweep()
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
                    sweep.add(abs(ip_s), norms_s[m] * norms_s[l])
                    sweep.add(abs(ip_b), norms_b[m] * norms_b[l])
    return sweep.report("orthogonality", tol, "max_rel_err", seed=seed)


def suite_mean_value(seed: int = 42, cases: int = 50) -> dict:
    """Rotated mean-value formula against direct evaluation (n = 3)."""
    tol = 1e-8
    sweep = _Sweep()
    rng = np.random.default_rng(seed)
    # degree-50 rule: the non-polynomial weight decays like (|x|/r)^m, so
    # capping |x| at 0.3 leaves the cubature tail far below tolerance
    rule = build_sphere_rule(3, 50)
    r = 0.6
    for p in DEFAULT_ORDERS:
        cfg = KernelConfig(n=3, p=p)
        for i in range(cases):
            u = random_polyharmonic(cfg, 6, blocks=6, seed=seed + 71 * p + i)
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            x = make_rotated_point(0.0, rng.uniform(0.0, 0.3) * direction)
            got = mean_value_eval(cfg, u, np.zeros(3), r, x, rule)
            expected = evaluate(u, x)
            sweep.add(abs(got - expected), 1.0 + abs(expected))
    # the scale 1 + |u(x)| >= 1 makes the relative error at most the absolute
    return sweep.report("mean_value", tol, "max_abs_err", seed=seed)


def suite_growth(seed: int = 42, cases: int = 65) -> dict:
    """Boundedness of |Z^p_m| / (p m^(n-2)) across the degree window 10..40."""
    factor_tol = 2.0
    sweep = _Sweep()
    for n in (3, 4):
        for p in DEFAULT_ORDERS:
            cfg = KernelConfig(n=n, p=p)
            ratios = [zonal_growth_ratio(cfg, m, cases) for m in range(10, 41)]
            sweep.add(max(ratios) / min(ratios), 1.0, cases=len(ratios))
    return sweep.report(
        "growth", factor_tol, "max_abs_err", seed=seed,
        note="errors are max/min trend factors, not absolute errors",
    )


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
