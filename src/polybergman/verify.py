"""Named verification suites cross-checking every implemented identity.

Each suite runs a seeded randomized sweep and returns a report dict
{suite, cases, max_abs_err, max_rel_err, tolerance, pass}; the CLI exposes
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
    eval_at_phase,
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
from .zonal import degree_coefficients, zonal_growth_ratio, zonal_poly_sum

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

    def report(self, suite, tol, ok, **extra):
        return {
            "suite": suite,
            "cases": self.count,
            "max_abs_err": self.max_abs,
            "max_rel_err": self.max_rel,
            "tolerance": tol,
            "pass": bool(ok),
            **extra,
        }


def _random_point(cfg, rng, r_hi=0.7) -> RotatedPoint:
    direction = rng.normal(size=cfg.n)
    direction /= np.linalg.norm(direction)
    radius = rng.uniform(0.0, r_hi)
    sector = int(rng.integers(0, cfg.p))
    return make_rotated_point(cfg.sector_phase(sector), radius * direction)


def _pair_sweep(seed, cases, dims=DEFAULT_DIMS, orders=DEFAULT_ORDERS, r_hi=0.7):
    rng = np.random.default_rng(seed)
    for n in dims:
        for p in orders:
            cfg = KernelConfig(n=n, p=p)
            for _ in range(cases):
                yield cfg, _random_point(cfg, rng, r_hi), _random_point(cfg, rng, r_hi)


def _series_suite(suite, kind, closed_fn, series_fn, tol, seed, cases):
    sweep = _Sweep()
    for cfg, x, y in _pair_sweep(seed, cases):
        trunc = make_truncation(cfg, x.radius * y.radius, tol, kind)
        closed = closed_fn(cfg, x, y)
        sweep.add(abs(series_fn(cfg, x, y, trunc) - closed), abs(closed))
    return sweep.report(suite, tol, sweep.max_abs <= tol, seed=seed)


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
    return sweep.report("decomposition", tol, sweep.max_rel <= tol, seed=seed)


def suite_weighted(seed: int = 42, cases: int = 200) -> dict:
    """Weighted series vs weighted decomposition, plus the unweighted limit.

    The termwise check pins the beta = 0 coefficient collapse to n + 2m at
    1e-12 relative.
    """
    tol = 1e-9
    termwise_tol = 1e-12
    sweep = _Sweep()
    termwise_rel = 0.0
    rng = np.random.default_rng(seed)
    for n in DEFAULT_DIMS:
        for m in range(0, 61):
            cm = weighted_coefficient(n, 0.0, 0.0, m)
            termwise_rel = max(termwise_rel, abs(cm - (n + 2 * m)) / (n + 2 * m))
        for p in DEFAULT_ORDERS:
            for alpha, beta in ((0.0, 0.0), (1.0, 0.5), (-0.5, 2.0)):
                cfg = KernelConfig(n=n, p=p, alpha=alpha, beta=beta)
                for _ in range(cases // 4):
                    x = _random_point(cfg, rng)
                    y = _random_point(cfg, rng)
                    trunc = make_truncation(cfg, x.radius * y.radius, tol / 10, "weighted")
                    series = weighted_bergman_series(cfg, x, y, trunc)
                    decomposed = weighted_bergman_decomposed(cfg, x, y, trunc)
                    sweep.add(abs(series - decomposed), abs(series))
                    if alpha == 0.0 and beta == 0.0:
                        closed = bergman(cfg, x, y)
                        sweep.add(abs(series - closed), abs(closed), cases=0)
    ok = sweep.max_abs <= tol and termwise_rel <= termwise_tol
    return sweep.report(
        "weighted", tol, ok,
        termwise_rel_err=termwise_rel, termwise_tolerance=termwise_tol, seed=seed,
    )


def suite_derivative_form(seed: int = 42, cases: int = 200, h: float = 1e-3) -> dict:
    """Finite-difference derivative form versus the weighted series."""
    tol = 1e-5
    sweep = _Sweep()
    rng = np.random.default_rng(seed)
    for n in DEFAULT_DIMS:
        for p in DEFAULT_ORDERS:
            for beta_int in (0, 1):
                for alpha in (0.0, 1.0):
                    cfg = KernelConfig(n=n, p=p, alpha=alpha, beta=float(beta_int))
                    for _ in range(cases // 8):
                        x = _random_point(cfg, rng)
                        y = _random_point(cfg, rng)
                        fd = derivative_form_check(cfg, alpha, beta_int, x, y, h)
                        trunc = make_truncation(cfg, x.radius * y.radius, 1e-11, "weighted")
                        ref = weighted_bergman_series(cfg, x, y, trunc)
                        sweep.add(abs(fd - ref), abs(ref))
    return sweep.report("derivative_form", tol, sweep.max_abs <= tol, seed=seed, h=h)


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
    return sweep.report("reproduce", tol, sweep.max_rel <= tol, seed=seed)


def _zonal_poly_first_slot(cfg, m, eta):
    """Z^p_m(e^{i phase} pts, eta) as a batched sector evaluator."""
    eta_hat = eta.coords / eta.radius
    coef = degree_coefficients(cfg.p, m)

    def g(phase, pts):
        pts = np.asarray(pts, dtype=float)
        r = np.linalg.norm(pts, axis=-1)
        t = (pts / np.where(r == 0.0, 1.0, r)[:, None]) @ eta_hat
        zeta = np.exp(1j * (phase - eta.phase)) * r * eta.radius
        q = np.exp(2j * phase) * r * r * (np.exp(-2j * eta.phase) * eta.radius**2)
        return zonal_poly_sum(coef, t, zeta, q, cfg.n)

    return g


def _zonal_poly_second_slot(cfg, m, x, pts):
    """Z^p_m(x, zeta_j) at real sphere nodes zeta_j (phase 0, radius 1)."""
    rx = x.radius
    t = pts @ (x.coords / rx) if rx else np.zeros(pts.shape[0])
    coef = degree_coefficients(cfg.p, m)
    return zonal_poly_sum(coef, t, np.exp(1j * x.phase) * rx, np.exp(2j * x.phase) * rx * rx, cfg.n)


def suite_zonal_reproduce(seed: int = 42, cases: int = 20) -> dict:
    """Sphere reproduction of homogeneous polynomials by zonal polyharmonics.

    Checks both the sector-averaged inner-product form against the kernel in
    its first slot and the single-sphere integral against the second slot.
    """
    tol = 1e-8
    sweep = _Sweep()
    rng = np.random.default_rng(seed)
    for n in (2, 3):
        rule = build_sphere_rule(n, 20)
        for p in DEFAULT_ORDERS:
            cfg = KernelConfig(n=n, p=p)
            for m in range(0, 9):
                for i in range(max(1, cases // 9)):
                    q = random_homogeneous(cfg, m, blocks=4, seed=seed + 977 * n + 61 * p + 13 * m + i)
                    direction = rng.normal(size=n)
                    direction /= np.linalg.norm(direction)
                    eta = make_rotated_point(cfg.sector_phase(int(rng.integers(0, p))), direction)
                    expected = evaluate(q, eta)
                    got = inner_product_sphere(cfg, q, _zonal_poly_first_slot(cfg, m, eta), rule)
                    sweep.add(abs(got - expected), 1.0 + abs(expected))

                    xin = _random_point(cfg, rng)
                    kv = _zonal_poly_second_slot(cfg, m, xin, rule.nodes)
                    qv = eval_at_phase(q, 0.0, rule.nodes)
                    got_ball = complex(np.sum(rule.weights * qv * kv))
                    expected_ball = evaluate(q, xin)
                    sweep.add(abs(got_ball - expected_ball), 1.0 + abs(expected_ball))
    return sweep.report("zonal_reproduce", tol, sweep.max_rel <= tol, seed=seed)


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
    return sweep.report("orthogonality", tol, sweep.max_rel <= tol, seed=seed)


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
    ok = sweep.max_abs <= tol and sweep.max_rel <= tol
    return sweep.report("mean_value", tol, ok, seed=seed)


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
        "growth", factor_tol, sweep.max_abs <= factor_tol, seed=seed,
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
