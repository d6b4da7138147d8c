"""Poisson and Bergman kernels on the union of rotated unit balls.

Every identity is implemented along two independent routes so they can be
tested against each other:

  * closed forms in the pair invariants (rational in s, q over a principal
    power of w = 1 - 2s + q),
  * zonal series sum_m g(m) Z^p_m(x, y) with truncation degrees derived from
    a calibrated growth bound.

The weighted family replaces the g(m) = n + 2m weight with a Gamma-ratio
coefficient and admits both a direct series and a decomposition into
harmonic (order-1) kernels with shifted radial weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    KernelConfig,
    RotatedPoint,
    int_pow,
    pair_invariants,
    principal_pow,
    scale,
    unit_ball_volume,
)
from .errors import ConvergenceDomain, NearSingular, StencilOutOfDomain
from .zonal import series_coefficients, zonal_growth_ratio, zonal_pair_args, zonal_poly_sum

_CAL_DEGREES = 40
_CAL_SAMPLES = 65


@dataclass(frozen=True)
class Truncation:
    """Series truncation: highest retained degree, target tail, constant."""

    max_degree: int
    tol: float
    calibrated_C: float

    def __post_init__(self):
        if self.max_degree < 0 or self.tol <= 0 or self.calibrated_C <= 0:
            raise ValueError("invalid truncation parameters")


@lru_cache(maxsize=None)
def _calibrated_constant(n: int, p: int) -> float:
    cfg = KernelConfig(n=n, p=p)
    return max(
        zonal_growth_ratio(cfg, m, _CAL_SAMPLES) for m in range(1, _CAL_DEGREES + 1)
    )


def calibrated_constant(cfg: KernelConfig) -> float:
    """Empirical constant C with |Z^p_m(x,y)| <= C p m^(n-2) (r_x r_y)^m.

    Maximized over sphere-pair samples for m <= 40; the growth-ratio suite
    checks the sequence stays bounded beyond the calibration window.
    """
    return _calibrated_constant(cfg.n, cfg.p)


def weighted_coefficient(n: int, alpha: float, beta: float, m: int) -> float:
    """Series weight 2 Gamma(m + (n+a)/2 + b + 1) / (Gamma(b+1) Gamma(m + (n+a)/2)).

    Computed through log-Gamma differences; for beta = 0 it collapses to
    n + 2m + alpha.
    """
    if n + alpha <= 0:
        raise ValueError(f"need n + alpha > 0, got {n + alpha}")
    if beta <= -1:
        raise ValueError(f"need beta > -1, got {beta}")
    if m < 0:
        raise ValueError(f"degree must be >= 0, got {m}")
    z = m + 0.5 * (n + alpha)
    return 2.0 * math.exp(math.lgamma(z + beta + 1.0) - math.lgamma(beta + 1.0) - math.lgamma(z))


def _series_weight(cfg: KernelConfig, kind: str, m: int) -> float:
    if kind == "poisson":
        return 1.0
    if kind == "bergman":
        return cfg.n + 2.0 * m
    if kind == "weighted":
        return weighted_coefficient(cfg.n, cfg.alpha, cfg.beta, m)
    raise ValueError(f"unknown series weight kind {kind!r}")


def truncation_degree(cfg: KernelConfig, r: float, tol: float, kind: str = "poisson") -> int:
    """Smallest M with C p sum_{m>M} g(m) m^(n-2) r^m below tol.

    The tail is bounded by a geometric-ratio estimate: term ratios of
    a_m = g(m) m^(n-2) r^m decrease monotonically toward r, so
    sum_{m>M} a_m <= a_{M+1} / (1 - a_{M+2}/a_{M+1}) once that ratio is
    below one.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    if r > cfg.r_max:
        raise ConvergenceDomain(f"radius {r} exceeds r_max={cfg.r_max}")
    if r == 0.0:
        return 0
    chat = calibrated_constant(cfg) * cfg.p

    def term(m: int) -> float:
        return _series_weight(cfg, kind, m) * float(m) ** (cfg.n - 2) * r**m

    m_cap = 100_000
    for big_m in range(m_cap):
        a1 = term(big_m + 1)
        rho = term(big_m + 2) / a1
        if rho < 1.0 and chat * a1 / (1.0 - rho) < tol:
            return big_m
    raise ConvergenceDomain(f"no truncation below {tol} found for r={r}")


def make_truncation(cfg: KernelConfig, r: float, tol: float, kind: str = "poisson") -> Truncation:
    return Truncation(
        max_degree=truncation_degree(cfg, r, tol, kind),
        tol=tol,
        calibrated_C=calibrated_constant(cfg),
    )


def _check_pair(cfg: KernelConfig, x: RotatedPoint, y: RotatedPoint):
    if x.dim != cfg.n or y.dim != cfg.n:
        raise ValueError(f"dimension mismatch: n={cfg.n}, x:{x.dim}, y:{y.dim}")


def _closed_form_guard(cfg: KernelConfig, x: RotatedPoint, y: RotatedPoint):
    _check_pair(cfg, x, y)
    if x.radius * y.radius >= 1.0 - cfg.eps_sing:
        raise NearSingular(
            f"radius product {x.radius * y.radius:.17g} too close to 1"
        )
    inv = pair_invariants(x, y)
    if abs(inv.w) <= cfg.eps_sing:
        raise NearSingular(f"|w|={abs(inv.w):.3g} within eps_sing={cfg.eps_sing:g}")
    return inv


def poisson(cfg: KernelConfig, x: RotatedPoint, y: RotatedPoint) -> complex:
    """Closed-form polyharmonic Poisson kernel (1 - q^p) / w^(n/2)."""
    inv = _closed_form_guard(cfg, x, y)
    num = 1.0 - int_pow(inv.q, cfg.p)
    den = principal_pow(inv.w, 0.5 * cfg.n, cfg.eps_branch)
    return num / den


def bergman(cfg: KernelConfig, x: RotatedPoint, y: RotatedPoint) -> complex:
    """Closed-form polyharmonic Bergman kernel.

    [(n-4p) q^(p+1) + (8p s - n - 4p) q^p + n (1-q)] / (n Vol_n w^(n/2+1));
    p = 1 recovers the classical harmonic Bergman kernel.
    """
    inv = _closed_form_guard(cfg, x, y)
    n, p = cfg.n, cfg.p
    qp = int_pow(inv.q, p)
    num = (n - 4 * p) * qp * inv.q + (8 * p * inv.s - n - 4 * p) * qp + n * (1.0 - inv.q)
    den = n * unit_ball_volume(n) * principal_pow(inv.w, 0.5 * n + 1.0, cfg.eps_branch)
    return num / den


def bergman_decomposed(cfg: KernelConfig, x: RotatedPoint, y: RotatedPoint) -> complex:
    """Bergman kernel assembled from the harmonic (p=1) closed forms.

    R_p = (sum_{k<p} q^k) R_1 + (sum_{k<p} 4k q^k) P_1 / (n Vol_n); the
    geometric ratio (1-q^p)/(1-q) is always expanded as the polynomial, which
    removes the spurious singularity at q = 1 exactly.
    """
    inv = _closed_form_guard(cfg, x, y)
    cfg1 = KernelConfig(
        n=cfg.n, p=1, alpha=cfg.alpha, beta=cfg.beta,
        eps_branch=cfg.eps_branch, eps_sing=cfg.eps_sing, r_max=cfg.r_max,
    )
    qpow = [int_pow(inv.q, k) for k in range(cfg.p)]
    geo = sum(qpow)
    lin = sum(4 * k * qk for k, qk in enumerate(qpow))
    return geo * bergman(cfg1, x, y) + lin * poisson(cfg1, x, y) / (
        cfg.n * unit_ball_volume(cfg.n)
    )


def _series_domain_guard(cfg: KernelConfig, x: RotatedPoint, y: RotatedPoint):
    _check_pair(cfg, x, y)
    if x.radius * y.radius > cfg.r_max:
        raise ConvergenceDomain(
            f"radius product {x.radius * y.radius:.17g} exceeds r_max={cfg.r_max}"
        )


def _zonal_series(cfg: KernelConfig, x: RotatedPoint, y: RotatedPoint, trunc: Truncation, kind: str) -> complex:
    """sum_{m<=max_degree} g(m) Z^p_m(x, y) with the series weight of kind,
    normalized by n Vol_n for the Bergman kinds."""
    _series_domain_guard(cfg, x, y)
    g = np.array([_series_weight(cfg, kind, m) for m in range(trunc.max_degree + 1)])
    if kind != "poisson":
        g /= cfg.n * unit_ball_volume(cfg.n)
    return complex(zonal_poly_sum(series_coefficients(cfg.p, g), *zonal_pair_args(x, y), cfg.n))


def poisson_series(cfg: KernelConfig, x: RotatedPoint, y: RotatedPoint, trunc: Truncation) -> complex:
    """Partial zonal sum of the Poisson kernel up to trunc.max_degree."""
    return _zonal_series(cfg, x, y, trunc, "poisson")


def bergman_series(cfg: KernelConfig, x: RotatedPoint, y: RotatedPoint, trunc: Truncation) -> complex:
    """Partial sum (1/(n Vol_n)) sum_m (n+2m) Z^p_m(x, y)."""
    return _zonal_series(cfg, x, y, trunc, "bergman")


def weighted_bergman_series(cfg: KernelConfig, x: RotatedPoint, y: RotatedPoint, trunc: Truncation) -> complex:
    """Partial sum of the weighted kernel with Gamma-ratio coefficients."""
    return _zonal_series(cfg, x, y, trunc, "weighted")


def weighted_bergman_decomposed(cfg: KernelConfig, x: RotatedPoint, y: RotatedPoint, trunc: Truncation) -> complex:
    """Weighted kernel as sum_{k<p} q^k R_{1, alpha+4k, beta}(x, y).

    Each harmonic factor is evaluated by its own order-1 series with the
    radial weight shifted by 4k; inner truncations max_degree - 2k make the
    double sum an exact rearrangement of the direct series.
    """
    _series_domain_guard(cfg, x, y)
    top = trunc.max_degree
    coef = np.zeros((min(cfg.p, top // 2 + 1), top + 1))
    for k in range(coef.shape[0]):
        coef[k, : top + 1 - 2 * k] = [
            weighted_coefficient(cfg.n, cfg.alpha + 4.0 * k, cfg.beta, l) for l in range(top + 1 - 2 * k)
        ]
    coef /= cfg.n * unit_ball_volume(cfg.n)
    return complex(zonal_poly_sum(coef, *zonal_pair_args(x, y), cfg.n))


# Central stencils for the t-derivative of order beta+1; offsets in units of h.
_STENCILS = {
    0: ((-1, 1), (-0.5, 0.5)),
    1: ((-2, -1, 0, 1, 2), (-1 / 12, 16 / 12, -30 / 12, 16 / 12, -1 / 12)),
    2: ((-3, -2, -1, 1, 2, 3), (1 / 8, -1.0, 13 / 8, -13 / 8, 1.0, -1 / 8)),
}


def derivative_form_check(
    cfg: KernelConfig,
    alpha: float,
    beta_int: int,
    x: RotatedPoint,
    y: RotatedPoint,
    h: float,
) -> complex:
    """Weighted kernel via the derivative form, for integer beta.

    Approximates (2 / (n Gamma(b+1) Vol_n)) d^(b+1)/dt^(b+1)
    [t^((n+alpha)/2+b) P_p(t x, y)] at t = 1 by a central stencil.
    """
    if beta_int not in _STENCILS:
        raise ValueError(f"integer beta must be one of {sorted(_STENCILS)}, got {beta_int}")
    if not (1e-4 <= h <= 1e-2):
        raise ValueError(f"step h must lie in [1e-4, 1e-2], got {h}")
    offsets, coeffs = _STENCILS[beta_int]
    if (1.0 + max(offsets) * h) * x.radius >= 1.0:
        raise StencilOutOfDomain(
            f"stencil point at t={1 + max(offsets) * h} pushes |x| past 1"
        )
    gamma_exp = 0.5 * (cfg.n + alpha) + beta_int

    def f(t: float) -> complex:
        return t**gamma_exp * poisson(cfg, scale(x, t), y)

    deriv = sum(c * f(1.0 + k * h) for k, c in zip(offsets, coeffs))
    deriv /= h ** (beta_int + 1)
    norm = 2.0 / (cfg.n * math.factorial(beta_int) * unit_ball_volume(cfg.n))
    return norm * deriv


def is_sector_phase(cfg: KernelConfig, phase: float, tol: float = 1e-9) -> bool:
    """True when the phase is an integer multiple of pi/p."""
    return abs(math.remainder(phase, math.pi / cfg.p)) <= tol


def evaluation_regime(cfg: KernelConfig, *points: RotatedPoint) -> str:
    """'standard' inside the calibrated domain, 'extension' otherwise.

    Points at radius >= r_max or at non-sector phases are flagged as the
    extension regime: the closed forms still evaluate there, but series
    guarantees are only calibrated on sector data below r_max.
    """
    for pt in points:
        if pt.radius >= cfg.r_max or not is_sector_phase(cfg, pt.phase):
            return "extension"
    return "standard"
