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
    PairInvariants,
    RotatedPoint,
    pair_invariants,
    principal_pow,
    unit_ball_volume,
)
from .errors import ConvergenceDomain, NearSingular
from .zonal import _growth_ratios, series_coefficients, zonal_pair_args, zonal_poly_sum

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
    return float(np.max(_growth_ratios(KernelConfig(n=n, p=p), _CAL_DEGREES, _CAL_SAMPLES)))


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


def _series_weights(n: int, alpha: float, beta: float, kind: str, top: int) -> np.ndarray:
    """Series weights g(0..top) of kind: 1 (poisson), n + 2m (bergman) or
    the Gamma ratio of weighted_coefficient (weighted, which also checks
    n + alpha > 0 and beta > -1; the other kinds read n only).

    The weighted ratios come from Gamma(z+1) = z Gamma(z):
    g(m+1) = g(m) (z + beta + 1) / z with z = m + (n+alpha)/2, so only g(0)
    needs log-Gamma values.
    """
    if kind == "poisson":
        return np.ones(top + 1)
    if kind == "bergman":
        return n + 2.0 * np.arange(top + 1)
    if kind == "weighted":
        z = np.arange(top) + 0.5 * (n + alpha)
        g0 = weighted_coefficient(n, alpha, beta, 0)
        return np.cumprod(np.concatenate(([g0], (z + beta + 1.0) / z)))
    raise ValueError(f"unknown series weight kind {kind!r}")


def truncation_degree(cfg: KernelConfig, r: float, tol: float, kind: str = "poisson") -> int:
    """Smallest M with C p sum_{m>M} g(m) m^(n-2) r^m below tol.

    The tail is bounded by a geometric-ratio estimate: term ratios of
    a_m = g(m) m^(n-2) r^m decrease monotonically toward r, so
    sum_{m>M} a_m <= a_{M+1} / (1 - a_{M+2}/a_{M+1}) once that ratio is
    below one.  The terms come as one array over a window of degrees that
    starts at 64 and doubles (recomputed from degree 0) until it holds M.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if not 0 <= r < math.inf:
        raise ValueError(f"radius must be nonnegative and finite, got {r}")
    if r > cfg.r_max:
        raise ConvergenceDomain(f"radius {r} exceeds r_max={cfg.r_max}")
    if r == 0.0:
        return 0
    chat = calibrated_constant(cfg) * cfg.p
    m_cap = 100_000
    top = 64
    while True:
        m = np.arange(top + 2, dtype=float)
        a = _series_weights(cfg.n, cfg.alpha, cfg.beta, kind, top + 1) * m ** (cfg.n - 2) * r**m
        a1, a2 = a[1:-1], a[2:]
        # rho = a2/a1 < 1 and chat a1 / (1 - rho) < tol, without dividing
        # by terms that may underflow to 0 far beyond M
        done = (a2 < a1) & (chat * a1 * a1 < tol * (a1 - a2))
        big_m = int(done.argmax())
        if done[big_m]:
            return big_m
        if top >= m_cap:
            raise ConvergenceDomain(f"no truncation below {tol} found for r={r}")
        top = min(2 * top, m_cap)


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


def _poisson_from(cfg: KernelConfig, inv: PairInvariants, p: int) -> complex:
    """(1 - q^p) / w^(n/2) from the pair invariants."""
    return (1.0 - inv.q**p) / principal_pow(inv.w, 0.5 * cfg.n, cfg.eps_branch)


def _bergman_from(cfg: KernelConfig, inv: PairInvariants, p: int) -> complex:
    """The order-p Bergman closed form from the pair invariants."""
    n = cfg.n
    qp = inv.q**p
    num = (n - 4 * p) * qp * inv.q + (8 * p * inv.s - n - 4 * p) * qp + n * (1.0 - inv.q)
    den = n * unit_ball_volume(n) * principal_pow(inv.w, 0.5 * n + 1.0, cfg.eps_branch)
    return num / den


def poisson(cfg: KernelConfig, x: RotatedPoint, y: RotatedPoint) -> complex:
    """Closed-form polyharmonic Poisson kernel (1 - q^p) / w^(n/2)."""
    return _poisson_from(cfg, _closed_form_guard(cfg, x, y), cfg.p)


def bergman(cfg: KernelConfig, x: RotatedPoint, y: RotatedPoint) -> complex:
    """Closed-form polyharmonic Bergman kernel.

    [(n-4p) q^(p+1) + (8p s - n - 4p) q^p + n (1-q)] / (n Vol_n w^(n/2+1));
    p = 1 recovers the classical harmonic Bergman kernel.
    """
    return _bergman_from(cfg, _closed_form_guard(cfg, x, y), cfg.p)


def bergman_decomposed(cfg: KernelConfig, x: RotatedPoint, y: RotatedPoint) -> complex:
    """Bergman kernel assembled from the harmonic (p=1) closed forms.

    R_p = (sum_{k<p} q^k) R_1 + (sum_{k<p} 4k q^k) P_1 / (n Vol_n); the
    geometric ratio (1-q^p)/(1-q) is always expanded as the polynomial, which
    removes the spurious singularity at q = 1 exactly.
    """
    inv = _closed_form_guard(cfg, x, y)
    qpow = [inv.q**k for k in range(cfg.p)]
    geo = sum(qpow)
    lin = sum(4 * k * qk for k, qk in enumerate(qpow))
    return geo * _bergman_from(cfg, inv, 1) + lin * _poisson_from(cfg, inv, 1) / (
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
    g = _series_weights(cfg.n, cfg.alpha, cfg.beta, kind, trunc.max_degree)
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
        coef[k, : top + 1 - 2 * k] = _series_weights(
            cfg.n, cfg.alpha + 4.0 * k, cfg.beta, "weighted", top - 2 * k
        )
    coef /= cfg.n * unit_ball_volume(cfg.n)
    return complex(zonal_poly_sum(coef, *zonal_pair_args(x, y), cfg.n))


def _power_jet(a, e: float, order: int, eps_branch: float) -> np.ndarray:
    """Taylor coefficients 0..order of a(eps)**e, with a given by its leading
    coefficients (a[0] != 0), by J.C.P. Miller's recurrence

        b_k = sum_{j=1..k} ((e+1) j - k) a_j b_{k-j} / (k a_0).
    """
    a = np.pad(np.asarray(a, dtype=complex), (0, order + 1))[: order + 1]
    b = np.zeros(order + 1, dtype=complex)
    b[0] = principal_pow(a[0], e, eps_branch)
    for k in range(1, order + 1):
        j = np.arange(1, k + 1)
        b[k] = np.sum(((e + 1.0) * j - k) * a[j] * b[k - j]) / (k * a[0])
    return b


def derivative_form_check(cfg: KernelConfig, x: RotatedPoint, y: RotatedPoint) -> complex:
    """Weighted kernel via the derivative form, for integer beta >= 0.

    Evaluates (2 / (n Gamma(b+1) Vol_n)) d^(b+1)/dt^(b+1)
    [t^((n+alpha)/2+b) P_p(t x, y)] at t = 1 exactly, as (b+1)! times the
    coefficient of eps^(b+1) in the product of three Taylor jets in
    eps = t - 1: (1+eps)^gamma, 1 - q^p (1+eps)^(2p), and w(t)^(-n/2) with
    w(t) = w + 2 (q - s) eps + q eps^2.
    """
    if not float(cfg.beta).is_integer():  # KernelConfig already has beta > -1
        raise ValueError(f"derivative form needs an integer beta >= 0, got {cfg.beta}")
    inv = _closed_form_guard(cfg, x, y)
    beta = int(cfg.beta)
    order = beta + 1
    gamma_exp = 0.5 * (cfg.n + cfg.alpha) + beta
    t_jet = _power_jet((1.0, 1.0), gamma_exp, order, cfg.eps_branch)
    num_jet = -(inv.q**cfg.p) * _power_jet((1.0, 1.0), 2 * cfg.p, order, cfg.eps_branch)
    num_jet[0] += 1.0
    w_jet = _power_jet((inv.w, 2.0 * (inv.q - inv.s), inv.q), -0.5 * cfg.n, order, cfg.eps_branch)
    f = np.convolve(np.convolve(t_jet, num_jet)[: order + 1], w_jet)[: order + 1]
    norm = 2.0 / (cfg.n * math.factorial(beta) * unit_ball_volume(cfg.n))
    return complex(norm * math.factorial(order) * f[order])


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
