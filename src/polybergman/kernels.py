"""Poisson and Bergman kernels on the union of rotated unit balls.

Every identity is implemented along two independent routes so they can be
tested against each other:

  * closed forms in the pair terms s, q, w (rational in s, q over a
    principal power of w = 1 - 2s + q),
  * zonal series sum_m g(m) Z^p_m(x, y) in the pair terms t, zeta,
    truncated by the proven bound |Z^p_m(x, y)| <= D_p(m) (|x||y|)^m
    (zonal.polyharmonic_dim, an exact integer).

Each route reads a pair through its own checked entry, after the one
dimension check (core.check_dimension): _closed_pair returns
core.closed_terms, and _series_pair core.zonal_terms.  So a closed form
computes no cosine and no zeta, and a series sum no s, q or w; the
weighted decomposition, which also reads q, takes it from closed_terms.

The weighted family replaces the g(m) = n + 2m weight with a Gamma-ratio
coefficient and admits both a direct series and a decomposition into
harmonic (order-1) kernels with shifted radial weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from operator import mul

from .core import (
    EPS_SING,
    KernelConfig,
    RotatedPoint,
    check_dimension,
    check_integer,
    check_real,
    check_weight_parameters,
    closed_terms,
    principal_pow,
    sphere_area,
    zonal_terms,
)
from .errors import ConvergenceDomain, NearSingular
from .zonal import _scalar_poly_sum, _window, polyharmonic_dim


@dataclass(frozen=True)
class Truncation:
    """Series truncation: highest retained degree, target tail, constant."""

    max_degree: int
    tol: float
    calibrated_C: float

    def __post_init__(self):
        # stored as a Python int, so a numpy integer behaves as its value;
        # the int that truncation_degree returns skips the check's call
        if type(self.max_degree) is not int or self.max_degree < 0:
            object.__setattr__(self, "max_degree", check_integer("max_degree", self.max_degree, 0))
        if not (0 < self.tol < math.inf and 0 < self.calibrated_C < math.inf):
            raise ValueError("invalid truncation parameters")


@lru_cache(maxsize=None)
def _calibrated_constant(n: int, p: int) -> float:
    return max(polyharmonic_dim(n, p, m) / (p * m ** (n - 2)) for m in range(1, 41))


def calibrated_constant(cfg: KernelConfig) -> float:
    """max_{1<=m<=40} D_p(m) / (p m^(n-2)), Truncation's record field.

    Nothing in the library reads it: truncation_degree bounds |Z^p_m| by
    D_p(m) itself (zonal.polyharmonic_dim)."""
    return _calibrated_constant(cfg.n, cfg.p)


def weighted_coefficient(n: int, alpha: float, beta: float, m: int) -> float:
    """Series weight 2 Gamma(m + (n+a)/2 + b + 1) / (Gamma(b+1) Gamma(m + (n+a)/2)).

    Computed through log-Gamma differences; for beta = 0 it collapses to
    n + 2m + alpha.  Its reciprocal is quadrature.radial_moment.  n and m
    are integers (check_integer); ValueError otherwise.
    """
    n = check_integer("dimension n", n, 1)
    alpha, beta = check_weight_parameters(n, alpha, beta)
    m = check_integer("degree", m, 0)
    z = m + 0.5 * (n + alpha)
    return 2.0 * math.exp(math.lgamma(z + beta + 1.0) - math.lgamma(beta + 1.0) - math.lgamma(z))


@lru_cache(maxsize=128)
def _weight_table(n: int, alpha: float, beta: float, kind: str, window: int) -> tuple[float, ...]:
    """Series weights g(0..window-1) of kind as Python floats, the memo of
    one configuration and window: 1 (poisson), n + 2m (bergman) or the
    Gamma ratio of weighted_coefficient (weighted, which also checks alpha
    and beta; the other kinds read n only).

    The weighted ratios come from Gamma(z+1) = z Gamma(z):
    g(m+1) = g(m) (z + beta + 1) / z with z = m + (n+alpha)/2, so only g(0)
    needs log-Gamma values.  The product runs in degree order, so a larger
    window repeats the smaller one's values bit for bit.  The memo keeps
    the 128 latest tables, as _tail_terms does: a sweep over the weights
    cannot grow either without limit.  A table of the largest window,
    131072 degrees, holds about 4.2 MB of float objects, so the two memos
    together are bounded by about 1.1 GB, a bound that only 128
    configurations each scanned to the degree cap reach.
    """
    if kind == "poisson":
        return (1.0,) * window
    if kind == "bergman":
        return tuple(n + 2.0 * m for m in range(window))
    if kind == "weighted":
        half = 0.5 * (n + alpha)
        ratios = ((m + half + beta + 1.0) / (m + half) for m in range(window - 1))
        return tuple(accumulate(ratios, mul, initial=weighted_coefficient(n, alpha, beta, 0)))
    raise ValueError(f"unknown series weight kind {kind!r}")


def _series_weights(n: int, alpha: float, beta: float, kind: str, top: int) -> tuple[float, ...]:
    """Series weights g(0..top) of kind as a slice of the memoised table,
    for an array sum over degrees 0..top (quadrature.reproduce); the
    scalar series read the table itself up to top."""
    return _weight_table(n, alpha, beta, kind, _window(top))[: top + 1]


@lru_cache(maxsize=128)
def _tail_terms(n: int, p: int, alpha: float, beta: float, kind: str, window: int) -> tuple[float, ...]:
    """log(g(m) D_p(m)) for m = 0..window-1 as Python floats: the logs of
    the tail bound's factors, without their factor r^m, each taken of the
    rounded float product of g(m) and the exact integer D_p(m).  The factors
    increase in m (truncation_degree), and so do their rounded products and
    logs, since rounding is monotone."""
    weights = _weight_table(n, alpha, beta, kind, window)
    return tuple(map(math.log, map(mul, weights, map(polyharmonic_dim, repeat(n), repeat(p), range(window)))))


def truncation_degree(cfg: KernelConfig, r: float, tol: float, kind: str = "poisson") -> int:
    """Smallest M with sum_{m>M} g(m) D_p(m) r^m below tol: a bound on the
    series tail at radius product r, as |Z^p_m| <= D_p(m) (|x||y|)^m.

    The factors c[m] = g(m) D_p(m) increase in m for every kind: D_p(m)
    does, and so does g(m), which is 1, n + 2m, or the Gamma ratio with
    g(m+1)/g(m) = (z + beta + 1)/z > 1 for beta > -1.  So with
    rho = (c[M+2] / c[M+1]) r >= r the terms a_m = c[m] r^m after M sum to
    at most a_{M+1} / (1 - rho) once rho < 1.  Degrees are scanned in
    order in log space, where no term underflows, and M passes when
    rho < 1 and

        log c[M+1] + (M+1) log r - log1p(-rho) + slack < log tol,

    with log c[m] read from the table of the window of 64 * 2^j degrees
    that holds M + 2 (_tail_terms) and rho = exp(log c[M+2] - log c[M+1]) r.
    Each logarithm is within an ulp of its magnitude, below 2^10, so rho's
    relative rounding is below 2^-41 and moves log1p(-rho) by less than
    2^-41 / (1 - rho); the product by M+1 and the sums add a few ulp of the
    sum A of the four logarithms' magnitudes.  slack =
    2^-40 (A + 1 / (1 - rho)) exceeds both, so at the first degree that
    passes, the one returned, the exact bound on the table's factors is
    below tol.  Every passing degree has log a_{M+1} < log tol + log1p(-r),
    as rho >= r, and a degree pays for rho only once it meets that gate.

    The scan starts at floor(log(tol / c[1]) / log r) less a rounding
    margin of 1e-12 in the logarithm and one degree: a pass needs
    a_{M+1} < tol, and c[1] is the least factor of m >= 1.  A start at or
    above the degree cap m_cap = 100,000 raises ConvergenceDomain at once,
    with no table beyond the first, and so does a scan that reaches the
    cap.  r and tol are real numbers (check_real), r nonnegative and tol
    positive, both finite; ValueError otherwise.
    """
    tol, r = check_real("tolerance", tol), check_real("radius", r)
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if not 0 <= r < math.inf:
        raise ValueError(f"radius must be nonnegative and finite, got {r}")
    if r > cfg.r_max:
        raise ConvergenceDomain(f"radius {r} exceeds r_max={cfg.r_max}")
    m_cap = 100_000
    config = (cfg.n, cfg.p, cfg.alpha, cfg.beta, kind)
    log_c = _tail_terms(*config, 64)  # ValueError for an unknown kind
    if r == 0.0:
        return 0
    log_r, log_tol = math.log(r), math.log(tol)
    start = (log_tol - log_c[1] + 1e-12) / log_r - 1.0
    if start >= m_cap:
        raise ConvergenceDomain(f"no truncation below {tol} found for r={r}: the tail passes beyond degree {m_cap}")
    gate, end = log_tol + math.log1p(-r), len(log_c) - 2
    for big_m in range(max(0, int(start)), m_cap):
        if big_m >= end:  # the window that holds big_m + 2
            log_c = _tail_terms(*config, _window(big_m + 2))
            end = len(log_c) - 2
        log_rm = (big_m + 1) * log_r
        if log_c[big_m + 1] + log_rm < gate:
            log_c1 = log_c[big_m + 1]
            rho = math.exp(log_c[big_m + 2] - log_c1) * r
            if rho < 1.0:
                log_q = math.log1p(-rho)
                slack = 2.0**-40 * (abs(log_c1) - log_rm - log_q + abs(log_tol) + 1.0 / (1.0 - rho))
                if log_c1 + log_rm - log_q + slack < log_tol:
                    return big_m
    raise ConvergenceDomain(f"no truncation below {tol} found for r={r}")


def make_truncation(cfg: KernelConfig, r: float, tol: float, kind: str = "poisson") -> Truncation:
    return Truncation(truncation_degree(cfg, r, tol, kind), tol, calibrated_constant(cfg))


def _closed_pair(cfg: KernelConfig, x: RotatedPoint, y: RotatedPoint) -> tuple[complex, complex, complex]:
    """The closed forms' one read of a pair: (s, q, w) = closed_terms(x, y)
    after the dimension check (ValueError) and the check of |x||y|, then
    the check of |w| (NearSingular near either singularity)."""
    check_dimension(cfg, x, y)
    rr = x.radius * y.radius
    if rr >= 1.0 - EPS_SING:
        raise NearSingular(f"radius product {rr:.17g} too close to 1")
    terms = closed_terms(x, y)
    if abs(terms[2]) <= EPS_SING:
        raise NearSingular(f"|w|={abs(terms[2]):.3g} within eps_sing={EPS_SING:g}")
    return terms


def _series_pair(cfg: KernelConfig, x: RotatedPoint, y: RotatedPoint) -> tuple[float, complex]:
    """The zonal series' one read of a pair: (t, zeta) = zonal_terms(x, y)
    after the dimension check (ValueError) and the check of |x||y| against
    r_max (ConvergenceDomain)."""
    check_dimension(cfg, x, y)
    rr = x.radius * y.radius
    if rr > cfg.r_max:
        raise ConvergenceDomain(f"radius product {rr:.17g} exceeds r_max={cfg.r_max}")
    return zonal_terms(x, y)


def _poisson_from(q: complex, p: int, root: complex) -> complex:
    """(1 - q^p) / w^(n/2) from the pair's q and root = w^(n/2)."""
    return (1.0 - q**p) / root


def _bergman_from(n: int, s: complex, q: complex, w: complex, p: int, root: complex) -> complex:
    """The order-p Bergman closed form from the pair's terms s, q, w and
    root = w^(n/2): the numerator over n Vol_n * root * w, so w^(n/2+1)
    costs one multiplication more than the Poisson kernel's power."""
    qp = q**p
    num = (n - 4 * p) * qp * q + (8 * p * s - n - 4 * p) * qp + n * (1.0 - q)
    return num / (sphere_area(n) * root * w)


def poisson(cfg: KernelConfig, x: RotatedPoint, y: RotatedPoint) -> complex:
    """Closed-form polyharmonic Poisson kernel (1 - q^p) / w^(n/2)."""
    _, q, w = _closed_pair(cfg, x, y)
    return _poisson_from(q, cfg.p, principal_pow(w, 0.5 * cfg.n))


def bergman(cfg: KernelConfig, x: RotatedPoint, y: RotatedPoint) -> complex:
    """Closed-form polyharmonic Bergman kernel.

    [(n-4p) q^(p+1) + (8p s - n - 4p) q^p + n (1-q)] / (n Vol_n w^(n/2+1));
    p = 1 recovers the classical harmonic Bergman kernel.
    """
    s, q, w = _closed_pair(cfg, x, y)
    return _bergman_from(cfg.n, s, q, w, cfg.p, principal_pow(w, 0.5 * cfg.n))


def bergman_decomposed(cfg: KernelConfig, x: RotatedPoint, y: RotatedPoint) -> complex:
    """Bergman kernel assembled from the harmonic (p=1) closed forms.

    R_p = (sum_{k<p} q^k) R_1 + (sum_{k<p} 4k q^k) P_1 / (n Vol_n); the
    geometric ratio (1-q^p)/(1-q) is always expanded as the polynomial, which
    removes the spurious singularity at q = 1 exactly.  Both polynomials are
    summed by one Horner loop.  R_1 and P_1 share the pair's one root
    w^(n/2), the power bergman takes too, so p = 1 (geo = 1, lin = 0) is
    bergman exactly.
    """
    s, q, w = _closed_pair(cfg, x, y)
    n = cfg.n
    root = principal_pow(w, 0.5 * n)
    geo, lin = 1.0, 4.0 * (cfg.p - 1)
    for k in range(cfg.p - 2, -1, -1):
        geo = geo * q + 1.0
        lin = lin * q + 4 * k
    return geo * _bergman_from(n, s, q, w, 1, root) + lin * _poisson_from(q, 1, root) / sphere_area(n)


def _zonal_series(cfg: KernelConfig, x: RotatedPoint, y: RotatedPoint, trunc: Truncation, kind: str) -> complex:
    """sum_{m<=max_degree} g(m) Z^p_m(x, y) with the series weight of kind,
    normalized by n Vol_n for the Bergman kinds: one scalar zonal sum
    (zonal_poly_sum's scalar branch) over the memoised weight window, read
    up to max_degree."""
    t, zeta = _series_pair(cfg, x, y)
    top = trunc.max_degree
    g = _weight_table(cfg.n, cfg.alpha, cfg.beta, kind, _window(top))
    total = _scalar_poly_sum(g, top, cfg.p, t, zeta, cfg.n)
    return total if kind == "poisson" else total / sphere_area(cfg.n)


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

    Each harmonic factor R_{1, alpha+4k, beta} is its own order-1 zonal
    series, with the radial weight shifted by 4k and inner truncation
    max_degree - 2k, which makes the double sum an exact rearrangement of
    the direct series; the p factors are combined by Horner in q.  It is
    the direct series' second, independent route: p order-1 sums against
    one window-form sum of order p.  It reads (t, zeta) as the series do
    and q from closed_terms, not the square of a rounded zeta.
    """
    (t, zeta), q = _series_pair(cfg, x, y), closed_terms(x, y)[1]
    top = trunc.max_degree
    total = 0j
    for k in reversed(range(min(cfg.p, top // 2 + 1))):
        g = _weight_table(cfg.n, cfg.alpha + 4.0 * k, cfg.beta, "weighted", _window(top - 2 * k))
        total = total * q + _scalar_poly_sum(g, top - 2 * k, 1, t, zeta, cfg.n)
    return total / sphere_area(cfg.n)


def _power_jet(a, e: float, order: int) -> list:
    """Taylor coefficients 0..order of a(eps)**e, with a given by its leading
    coefficients (a[0] != 0, the rest zero), by J.C.P. Miller's recurrence

        b_k = sum_{j=1..k} ((e+1) j - k) a_j b_{k-j} / (k a_0),

    on Python numbers: the jets have a few terms, where numpy's per-call
    cost outweighs the arithmetic.
    """
    b = [principal_pow(a[0], e)]
    for k in range(1, order + 1):
        terms = (((e + 1.0) * j - k) * a[j] * b[k - j] for j in range(1, min(k, len(a) - 1) + 1))
        b.append(sum(terms) / (k * a[0]))
    return b


def _jet_mul(f: list, g: list) -> list:
    """Product of two Taylor jets, truncated to the shorter one's order."""
    return [sum(f[j] * g[k - j] for j in range(k + 1)) for k in range(min(len(f), len(g)))]


def derivative_form_check(cfg: KernelConfig, x: RotatedPoint, y: RotatedPoint) -> complex:
    """Weighted kernel via the derivative form, for integer beta >= 0.

    Evaluates (2 / (n Gamma(b+1) Vol_n)) d^(b+1)/dt^(b+1)
    [t^((n+alpha)/2+b) P_p(t x, y)] at t = 1 exactly, as (b+1)! times the
    coefficient of eps^(b+1) in the product of three Taylor jets in
    eps = t - 1: (1+eps)^gamma, 1 - q^p (1+eps)^(2p), and w(t)^(-n/2) with
    w(t) = w + 2 (q - s) eps + q eps^2.  The jets have b + 2 terms and are
    Python lists of complex numbers: no numpy call per term.
    """
    if not float(cfg.beta).is_integer():  # KernelConfig already has beta > -1
        raise ValueError(f"derivative form needs an integer beta >= 0, got {cfg.beta}")
    s, q, w = _closed_pair(cfg, x, y)
    beta = int(cfg.beta)
    order = beta + 1
    gamma_exp = 0.5 * (cfg.n + cfg.alpha) + beta
    t_jet = _power_jet((1.0, 1.0), gamma_exp, order)
    qp = q**cfg.p
    num_jet = [-qp * c for c in _power_jet((1.0, 1.0), 2 * cfg.p, order)]
    num_jet[0] += 1.0
    w_jet = _power_jet((w, 2.0 * (q - s), q), -0.5 * cfg.n, order)
    f = _jet_mul(_jet_mul(t_jet, num_jet), w_jet)
    norm = 2.0 / (math.factorial(beta) * sphere_area(cfg.n))
    return complex(norm * math.factorial(order) * f[order])


def is_sector_phase(cfg: KernelConfig, phase: float) -> bool:
    """True when the phase is within 1e-9 of an integer multiple of pi/p."""
    return abs(math.remainder(phase, math.pi / cfg.p)) <= 1e-9


def evaluation_regime(cfg: KernelConfig, *points: RotatedPoint) -> str:
    """'standard' inside the union of rotated balls and below r_max,
    'extension' otherwise.

    Points at radius >= r_max or at non-sector phases are flagged as the
    extension regime: outside the union, which holds sector points only, or
    beyond the radius products the series serves.  It does not mean
    unchecked.  With t = cos a, w = (1 - zeta e^{ia})(1 - zeta e^{-ia}),
    and for |zeta| = |x||y| < 1 both factors have a positive real part, so
    arg w is the sum of their arguments and the principal power of w is
    the series' continuation at every phase, with |w| >= (1 - |x||y|)^2
    (tests/test_core.py checks both).  So the closed forms serve any phase,
    and the series any phase at radius products up to r_max.
    """
    for pt in points:
        if pt.radius >= cfg.r_max or not is_sector_phase(cfg, pt.phase):
            return "extension"
    return "standard"
