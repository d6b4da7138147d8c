"""Sphere cubature, weighted radial rules and the sector inner products.

The sphere rule is a product rule in spherical angles: Gauss-Jacobi nodes in
the cosine of each polar angle (weight exponents from the surface measure)
and equispaced azimuth nodes, which integrate every trigonometric monomial
of bounded degree exactly.  Radial rules use Gauss-Jacobi in t = r^2, where
the weight r^(n-1+alpha) (1-r^2)^beta dr becomes a textbook Jacobi weight.
Ball integrals compose the two in polar form with the n*Vol_n surface factor.

Both rule builders are memoised per process (functools.lru_cache): a rule is
built once for each distinct argument tuple and the same read-only object is
returned on every later call.  Their cache_info() counts the hits and misses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .core import KernelConfig, RotatedPoint, check_weight_parameters, unit_ball_volume
from .kernels import _series_weights
from .polyspace import PolyharmonicPolynomial, eval_polar
from .zonal import series_coefficients, zonal_section

NODE_CAP = 10**7


@dataclass(frozen=True)
class SphereRule:
    """Cubature nodes and weights for the normalized sphere measure."""

    nodes: np.ndarray
    weights: np.ndarray
    exact_degree: int

    def __post_init__(self):
        if self.nodes.ndim != 2 or self.weights.shape != self.nodes.shape[:1]:
            raise ValueError("sphere rule needs one weight per node")
        if abs(float(np.sum(self.weights)) - 1.0) > 1e-13:
            raise ValueError("sphere rule weights must sum to 1")
        self.nodes.flags.writeable = False
        self.weights.flags.writeable = False


@dataclass(frozen=True)
class RadialRule:
    """Nodes/weights for int_0^1 r^(n-1+alpha) (1-r^2)^beta f(r) dr."""

    nodes: np.ndarray
    weights: np.ndarray
    n: int
    alpha: float
    beta: float

    def __post_init__(self):
        if self.nodes.ndim != 1 or self.weights.shape != self.nodes.shape:
            raise ValueError("radial rule needs one weight per node")
        total = float(np.sum(self.weights))
        if abs(total - radial_moment(self.n, 0, self.alpha, self.beta)) > 1e-13 * max(1.0, total):
            raise ValueError("radial rule mass disagrees with the Gamma moment")
        self.nodes.flags.writeable = False
        self.weights.flags.writeable = False


@dataclass(frozen=True)
class BallRule:
    """Polar composition: int_B f |y|^a (1-|y|^2)^b dy as
    normalization * sum_ij w_rad_i w_sph_j f(r_i zeta_j)."""

    sphere: SphereRule
    radial: RadialRule

    @property
    def normalization(self) -> float:
        """Surface factor n Vol_n of the polar composition."""
        return self.radial.n * unit_ball_volume(self.radial.n)


@lru_cache(maxsize=None)
def build_sphere_rule(n: int, exact_degree: int) -> SphereRule:
    """Product cubature exact for all polynomials of degree <= exact_degree."""
    if n < 2 or exact_degree < 0:
        raise ValueError(f"invalid sphere rule request n={n}, degree={exact_degree}")
    n_azim = max(2, 2 * (exact_degree // 2) + 2)
    n_polar = exact_degree // 2 + 1
    count = n_azim * n_polar ** (n - 2)
    if count > NODE_CAP:
        raise ValueError(f"sphere rule would need {count} nodes (cap {NODE_CAP})")
    phis = 2.0 * math.pi * np.arange(n_azim) / n_azim
    nodes = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    weights = np.full(n_azim, 1.0 / n_azim)
    # peel polar angles inward: at each step the existing rule covers the
    # last coordinates and a new cos(theta) coordinate is prepended, one
    # block of the existing nodes per polar node
    for j in range(n - 3, -1, -1):
        gamma = 0.5 * (n - 2 - (j + 1))
        t, w = roots_jacobi(n_polar, gamma, gamma)
        sin_t = np.sqrt(1.0 - t * t)
        grid = np.empty((t.size, nodes.shape[0], nodes.shape[1] + 1))
        grid[..., 0] = t[:, None]
        grid[..., 1:] = sin_t[:, None, None] * nodes
        nodes = grid.reshape(-1, grid.shape[2])
        weights = np.outer(w, weights).ravel()
    weights = weights / np.sum(weights)
    return SphereRule(nodes=nodes, weights=weights, exact_degree=exact_degree)


def radial_moment(n: int, m: int, alpha: float, beta: float) -> float:
    """int_0^1 r^(n+2m+alpha-1) (1-r^2)^beta dr by the Gamma closed form."""
    check_weight_parameters(n, alpha, beta)
    if m < 0:
        raise ValueError(f"degree must be >= 0, got {m}")
    z = m + 0.5 * (n + alpha)
    return 0.5 * math.exp(math.lgamma(beta + 1.0) + math.lgamma(z) - math.lgamma(z + beta + 1.0))


@lru_cache(maxsize=None)
def build_radial_rule(n: int, alpha: float, beta: float, node_count: int) -> RadialRule:
    """Gauss-Jacobi rule in t = r^2; exact for polynomials in r^2 of degree
    <= node_count - 1 (in fact up to 2*node_count - 1)."""
    check_weight_parameters(n, alpha, beta)
    if node_count < 1:
        raise ValueError(f"radial rule needs at least one node, got {node_count}")
    a = beta
    b = 0.5 * (n + alpha) - 1.0
    t, w = roots_jacobi(node_count, a, b)
    r = np.sqrt((t + 1.0) / 2.0)
    weights = w / 2.0 ** (a + b + 2.0)
    order = np.argsort(r)
    return RadialRule(nodes=r[order], weights=weights[order], n=n, alpha=alpha, beta=beta)


def build_ball_rule(n: int, alpha: float, beta: float, exact_degree: int) -> BallRule:
    """Sphere x radial composition adequate for polynomial integrands of
    total degree <= exact_degree under the (alpha, beta) weight."""
    sphere = build_sphere_rule(n, exact_degree)
    radial = build_radial_rule(n, alpha, beta, exact_degree // 2 + 2)
    return BallRule(sphere=sphere, radial=radial)


def sphere_monomial_moment(kappa) -> float:
    """Closed-form int_S zeta^kappa dsigma under the normalized measure.

    Zero whenever an exponent is odd; otherwise
    Gamma(n/2) prod_j Gamma((kappa_j+1)/2) / (pi^(n/2) Gamma((n+|kappa|)/2)),
    the Gamma form of the double-factorial ratio.  Serves as the independent
    exactness oracle for the sphere rules.
    """
    kappa = list(kappa)
    if any(k < 0 for k in kappa):
        raise ValueError("exponents must be nonnegative")
    if any(k % 2 for k in kappa):
        return 0.0
    n = len(kappa)
    total = sum(kappa)
    log_val = (
        math.lgamma(0.5 * n)
        + sum(math.lgamma(0.5 * (k + 1)) for k in kappa)
        - 0.5 * n * math.log(math.pi)
        - math.lgamma(0.5 * (n + total))
    )
    return math.exp(log_val)


def _check_ball_rule(cfg: KernelConfig, alpha: float, beta: float, rule: BallRule):
    if rule.radial.alpha != alpha or rule.radial.beta != beta or rule.radial.n != cfg.n:
        raise ValueError("ball rule weight parameters do not match the request")


def _ball_values(cfg: KernelConfig, f, radii, unit: np.ndarray) -> np.ndarray:
    """f at e^{ik pi/p} r_i unit_j for every sector k, radius i and node j;
    shape (p, R, N).

    f is a PolyharmonicPolynomial or a callable f(phase, points) returning
    the values at the rotated points e^{i*phase} * points.
    """
    phases = cfg.sector_phases()
    if isinstance(f, PolyharmonicPolynomial):
        return eval_polar(f, phases, radii, unit)
    return np.array([[f(ph, r * unit) for r in radii] for ph in phases], dtype=complex)


def _sector_sum(f, g, w_rad, w_sph) -> complex:
    """(1/p) sum_kij w_rad_i w_sph_j f_kij g_kij over (p, R, N) grids, with
    no product array formed."""
    return complex(np.einsum("kij,kij,i,j->", f, g, w_rad, w_sph)) / f.shape[0]


def _inner_product(cfg, f, g, radii, w_rad, sphere: SphereRule) -> complex:
    fv = _ball_values(cfg, f, radii, sphere.nodes)
    gv = _ball_values(cfg, g, radii, sphere.nodes)
    return _sector_sum(fv, np.conjugate(gv, out=gv), w_rad, sphere.weights)


def inner_product_sphere(cfg: KernelConfig, f, g, rule: SphereRule) -> complex:
    """(1/p) sum_j int_S f(e^{ij pi/p} zeta) conj(g(e^{ij pi/p} zeta)) dsigma.

    conj is literal complex conjugation of the evaluated value.
    """
    one = np.ones(1)
    return _inner_product(cfg, f, g, one, one, rule)


def inner_product_ball(cfg: KernelConfig, alpha: float, beta: float, f, g, rule: BallRule) -> complex:
    """Sector-averaged weighted ball inner product in polar composition."""
    _check_ball_rule(cfg, alpha, beta, rule)
    rad = rule.radial
    return rule.normalization * _inner_product(cfg, f, g, rad.nodes, rad.weights, rule.sphere)


def reproduce(
    cfg: KernelConfig,
    alpha: float,
    beta: float,
    u: PolyharmonicPolynomial,
    x: RotatedPoint,
    m_top: int,
    rule: BallRule,
) -> complex:
    """Reproducing integral of u against the degree-<=m_top weighted kernel.

    Returns (1/p) sum_k int_B u(e^{ik pi/p} y) K(x, e^{ik pi/p} y)
    |y|^alpha (1-|y|^2)^beta dy, which equals u(x) up to cubature error when
    the rule is exact to 2*m_top + 2.
    """
    if u.degree > m_top:
        raise ValueError(f"kernel truncation {m_top} below polynomial degree {u.degree}")
    if rule.sphere.exact_degree < 2 * m_top + 2:
        raise ValueError(
            f"rule exactness {rule.sphere.exact_degree} insufficient for degree {m_top}"
        )
    if x.radius >= 1.0:
        raise ValueError("evaluation point must lie in the open rotated ball cone")
    _check_ball_rule(cfg, alpha, beta, rule)
    sph = rule.sphere
    rad = rule.radial
    g = _series_weights(cfg.n, alpha, beta, "weighted", m_top) / rule.normalization
    phases = cfg.sector_phases()
    # the kernel's second slot is conjugate-symmetric already: no conjugation
    kv = zonal_section(series_coefficients(cfg.p, g), x, phases, rad.nodes, sph.nodes, cfg.n)
    uv = eval_polar(u, phases, rad.nodes, sph.nodes)
    return rule.normalization * _sector_sum(uv, kv, rad.weights, sph.weights)
