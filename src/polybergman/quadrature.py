"""Sphere cubature, weighted radial rules and the sector inner products.

The sphere rule is a product rule in spherical angles: Gauss-Jacobi nodes in
the cosine of each polar angle (weight exponents from the surface measure)
and equispaced azimuth nodes, which integrate every trigonometric monomial
of bounded degree exactly.  Radial rules use Gauss-Jacobi in t = r^2, where
the weight r^(n-1+alpha) (1-r^2)^beta dr becomes a textbook Jacobi weight.
Ball integrals compose the two in polar form with the n*Vol_n surface factor.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from scipy.special import roots_jacobi

from .core import KernelConfig, RotatedPoint, unit_ball_volume
from .kernels import weighted_coefficient
from .polyspace import PolyharmonicPolynomial, eval_at_phase
from .zonal import series_coefficients, zonal_poly_sum

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


@dataclass(frozen=True)
class BallRule:
    """Polar composition: int_B f |y|^a (1-|y|^2)^b dy as
    normalization * sum_ij w_rad_i w_sph_j f(r_i zeta_j)."""

    sphere: SphereRule
    radial: RadialRule
    normalization: float


def _cache_path(name: str):
    root = os.environ.get("POLYBERGMAN_CACHE_DIR")
    if not root:
        return None
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path / name


def rule_to_json(rule) -> str:
    """JSON text of a SphereRule or RadialRule: its fields by name, arrays as
    nested lists (float repr round-trips exactly)."""
    return json.dumps(
        {
            f.name: v.tolist() if isinstance(v := getattr(rule, f.name), np.ndarray) else v
            for f in fields(rule)
        }
    )


def rule_from_json(cls, text: str):
    """Inverse of rule_to_json; the rule's own validation runs on the result."""
    data = json.loads(text)
    return cls(
        **{
            f.name: np.array(v, dtype=float) if isinstance(v := data[f.name], list) else v
            for f in fields(cls)
        }
    )


def _read_cache(path, cls):
    """The rule stored at path, or None when it is missing, unreadable or
    fails validation; the caller then rebuilds and overwrites it."""
    if path is None:
        return None
    try:
        return rule_from_json(cls, path.read_text())
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _write_cache(path, rule):
    """Write through a temporary file in the same directory, so readers only
    ever see a complete file."""
    if path is None:
        return
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(rule_to_json(rule))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def build_sphere_rule(n: int, exact_degree: int) -> SphereRule:
    """Product cubature exact for all polynomials of degree <= exact_degree."""
    if n < 2 or exact_degree < 0:
        raise ValueError(f"invalid sphere rule request n={n}, degree={exact_degree}")
    n_azim = max(2, 2 * (exact_degree // 2) + 2)
    n_polar = exact_degree // 2 + 1
    count = n_azim * n_polar ** (n - 2)
    if count > NODE_CAP:
        raise ValueError(f"sphere rule would need {count} nodes (cap {NODE_CAP})")
    cache = _cache_path(f"sphere_n{n}_d{exact_degree}.json")
    rule = _read_cache(cache, SphereRule)
    if rule is not None and rule.exact_degree == exact_degree and rule.nodes.shape == (count, n):
        return rule

    phis = 2.0 * math.pi * np.arange(n_azim) / n_azim
    circle = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    nodes = circle
    weights = np.full(n_azim, 1.0 / n_azim)
    # peel polar angles inward: at each step the existing rule covers the
    # last coordinates and a new cos(theta) coordinate is prepended
    for j in range(n - 3, -1, -1):
        gamma = 0.5 * (n - 2 - (j + 1))
        t, w = roots_jacobi(n_polar, gamma, gamma)
        sin_t = np.sqrt(1.0 - t * t)
        new_nodes = np.empty((t.size * nodes.shape[0], nodes.shape[1] + 1))
        new_weights = np.empty(t.size * nodes.shape[0])
        row = 0
        for ti, si, wi in zip(t, sin_t, w):
            blk = slice(row, row + nodes.shape[0])
            new_nodes[blk, 0] = ti
            new_nodes[blk, 1:] = si * nodes
            new_weights[blk] = wi * weights
            row += nodes.shape[0]
        nodes, weights = new_nodes, new_weights
    weights = weights / np.sum(weights)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    rule = SphereRule(nodes=nodes, weights=weights, exact_degree=exact_degree)
    _write_cache(cache, rule)
    return rule


def radial_moment(n: int, m: int, alpha: float, beta: float) -> float:
    """int_0^1 r^(n+2m+alpha-1) (1-r^2)^beta dr by the Gamma closed form."""
    if n + alpha <= 0 or beta <= -1 or m < 0:
        raise ValueError(f"invalid radial moment parameters n={n}, m={m}, alpha={alpha}, beta={beta}")
    z = m + 0.5 * (n + alpha)
    return 0.5 * math.exp(math.lgamma(beta + 1.0) + math.lgamma(z) - math.lgamma(z + beta + 1.0))


def build_radial_rule(n: int, alpha: float, beta: float, node_count: int) -> RadialRule:
    """Gauss-Jacobi rule in t = r^2; exact for polynomials in r^2 of degree
    <= node_count - 1 (in fact up to 2*node_count - 1)."""
    if n + alpha <= 0 or beta <= -1 or node_count < 1:
        raise ValueError(
            f"invalid radial rule parameters n={n}, alpha={alpha}, beta={beta}, nodes={node_count}"
        )
    cache = _cache_path(f"radial_n{n}_a{alpha!r}_b{beta!r}_k{node_count}.json")
    rule = _read_cache(cache, RadialRule)
    if rule is not None and (rule.n, rule.alpha, rule.beta, rule.nodes.size) == (n, alpha, beta, node_count):
        return rule
    a = beta
    b = 0.5 * (n + alpha) - 1.0
    t, w = roots_jacobi(node_count, a, b)
    r = np.sqrt((t + 1.0) / 2.0)
    weights = w / 2.0 ** (a + b + 2.0)
    order = np.argsort(r)
    rule = RadialRule(nodes=r[order], weights=weights[order], n=n, alpha=alpha, beta=beta)
    _write_cache(cache, rule)
    return rule


def build_ball_rule(n: int, alpha: float, beta: float, exact_degree: int) -> BallRule:
    """Sphere x radial composition adequate for polynomial integrands of
    total degree <= exact_degree under the (alpha, beta) weight."""
    sphere = build_sphere_rule(n, exact_degree)
    radial = build_radial_rule(n, alpha, beta, exact_degree // 2 + 2)
    return BallRule(sphere=sphere, radial=radial, normalization=n * unit_ball_volume(n))


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


def integrate_sphere(rule: SphereRule, values: np.ndarray) -> complex:
    return complex(np.sum(rule.weights * values))


def _as_evaluator(f):
    if isinstance(f, PolyharmonicPolynomial):
        return lambda phase, pts: eval_at_phase(f, phase, pts)
    return f


def inner_product_sphere(cfg: KernelConfig, f, g, rule: SphereRule) -> complex:
    """(1/p) sum_j int_S f(e^{ij pi/p} zeta) conj(g(e^{ij pi/p} zeta)) dsigma.

    conj is literal complex conjugation of the evaluated value.
    """
    fe, ge = _as_evaluator(f), _as_evaluator(g)
    total = 0.0 + 0.0j
    for j in range(cfg.p):
        phase = cfg.sector_phase(j)
        fv = fe(phase, rule.nodes)
        gv = ge(phase, rule.nodes)
        total += complex(np.sum(rule.weights * fv * np.conj(gv)))
    return total / cfg.p


def inner_product_ball(cfg: KernelConfig, alpha: float, beta: float, f, g, rule: BallRule) -> complex:
    """Sector-averaged weighted ball inner product in polar composition."""
    if rule.radial.alpha != alpha or rule.radial.beta != beta or rule.radial.n != cfg.n:
        raise ValueError("ball rule weight parameters do not match the request")
    fe, ge = _as_evaluator(f), _as_evaluator(g)
    sph = rule.sphere
    total = 0.0 + 0.0j
    for j in range(cfg.p):
        phase = cfg.sector_phase(j)
        for r, wr in zip(rule.radial.nodes, rule.radial.weights):
            pts = r * sph.nodes
            fv = fe(phase, pts)
            gv = ge(phase, pts)
            total += wr * complex(np.sum(sph.weights * fv * np.conj(gv)))
    return rule.normalization * total / cfg.p


def _kernel_section_values(cfg, alpha, beta, x, m_top, radial_nodes, sphere_nodes):
    """Truncated weighted kernel sum_{m<=M} c_m Z^p_m(x, .) / (n Vol_n) at the
    ball nodes of every sector; shape (p, n_radial, n_sphere).

    The kernel's second-slot dependence is already conjugate-symmetric (its
    zonal expansion carries reversed phase factors), so reproducing integrals
    consume these values directly without further conjugation.  The cosines
    against x depend on the sphere node only, so one recurrence serves all
    sectors and radii.
    """
    norm = cfg.n * unit_ball_volume(cfg.n)
    g = np.array([weighted_coefficient(cfg.n, alpha, beta, m) / norm for m in range(m_top + 1)])
    rx = x.radius
    t = sphere_nodes @ (x.coords / rx) if rx else np.zeros(sphere_nodes.shape[0])
    phases = np.array([cfg.sector_phase(k) for k in range(cfg.p)])[:, None, None]
    r = radial_nodes[:, None]
    zeta = rx * r * np.exp(1j * (x.phase - phases))
    q = np.exp(2j * x.phase) * rx * rx * (np.exp(-2j * phases) * r * r)
    return zonal_poly_sum(series_coefficients(cfg.p, g), t, zeta, q, cfg.n)


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
    if rule.radial.alpha != alpha or rule.radial.beta != beta or rule.radial.n != cfg.n:
        raise ValueError("ball rule weight parameters do not match the request")
    sph = rule.sphere
    rad = rule.radial
    kv = _kernel_section_values(cfg, alpha, beta, x, m_top, rad.nodes, sph.nodes)
    total = 0.0 + 0.0j
    for k in range(cfg.p):
        phase = cfg.sector_phase(k)
        for i, (r, wr) in enumerate(zip(rad.nodes, rad.weights)):
            uv = eval_at_phase(u, phase, r * sph.nodes)
            total += wr * complex(np.sum(sph.weights * uv * kv[k, i]))
    return rule.normalization * total / cfg.p
