"""Sphere cubature, weighted radial rules and every contraction on them.

The sphere rule is a product rule in spherical angles: Gauss-Jacobi nodes in
the cosine of each polar angle (weight exponents from the surface measure)
and equispaced azimuth nodes, which integrate every trigonometric monomial
of bounded degree exactly.  The azimuth count is even and the polar nodes
are symmetric, so the rule is antipodal, and it is stored that way: nodes
[H; -H] and weights [w_H; w_H], where the half H takes the first half of
the azimuths through the same polar peel.  Radial rules use Gauss-Jacobi in
t = r^2, where the weight r^(n-1+alpha) (1-r^2)^beta dr becomes a textbook
Jacobi weight.  Ball integrals compose the two in polar form with the
n*Vol_n surface factor.  This module is the only reader of the half H.

The sector inner products, reproduce and the centred mean_value_eval sum
over the product grid sector k x radial node i x sphere node j.  A
polynomial operand is separable there, sum_b rot[b, k] rad[b, i] zon[b, j],
and so is the kernel section, sum_m W[k, i, m] S[m, j]; _stacked_factors is
the one producer of both.  The grid sum is then contracted one factor at a
time through small Gram matrices, and no (p, R, N) array is formed: with N
sphere nodes, operands of B and B' blocks cost O(B B' N) and reproduce with
L kernel degrees O(B L N), where the values on the grid cost
O(p R N (B + B')) and O(p R N (B + L)).  The zonal factors are taken on the
half H only: by Gegenbauer parity z_d(-t) = (-1)^d z_d(t), a product of
zonal rows of degrees d and d' sums over [H; -H] to 2 sum_H w_H z_d z_d'
when d + d' is even and to 0 when it is odd (_half_gram), and the
mean-value integrand mirrors each block's row onto -H by (-1)^d.  Each op
pays for one real zonal recurrence over the N/2 nodes of H: the node
cosines of both operands' poles, or of the polynomial's poles and x/|x|,
are stacked into one (C, N/2) array and run to the largest degree any of
them needs, so an op makes one round of numpy calls per degree whatever its
number of blocks.  The grid route, on all N nodes, is kept for callable
operands and off-centre balls only; a polynomial there is evaluated by
eval_complex, the one point evaluator.

laplacian_power_residual, the independent check of a test polynomial's
order, averages it over sphere rules and so lives here, beside
build_sphere_rule.

Both rule builders are memoised per process (functools.lru_cache): each
checks and converts its arguments first (Python ints, and floats for the
weights) and looks the converted tuple up in one memo, so a rule is built
once for each distinct request whatever the numeric types it came in, and
the same read-only object is returned on every later call.  Their
cache_info() and cache_clear() are the memo's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .core import (EPS_SING, KernelConfig, RotatedPoint, check_integer, check_real, check_weight_parameters,
                   principal_pow, reduce_by_constructor, sphere_area)
from .errors import NearSingular
from .kernels import _series_weights, weighted_coefficient
from .polyspace import PolyharmonicPolynomial, eval_complex
from .zonal import _degree_weights, _window_sums, zonal_values

NODE_CAP = 10**7


@dataclass(frozen=True, eq=False)
class SphereRule:
    """Cubature nodes and weights for the normalized sphere measure.

    The rule is antipodal: nodes = [H; -H] and weights = [w_H; w_H] for a
    half H of the nodes, and any other layout raises ValueError.  An even
    integrand then sums to 2 sum_H w_H f and an odd one to 0, so
    (half_nodes, half_weights), a view of H and the weights 2 w_H, is the
    rule for even integrands.  Rules compare and hash by identity, as
    rotated points do: their fields are arrays.
    """

    nodes: np.ndarray
    weights: np.ndarray
    exact_degree: int
    half_nodes: np.ndarray = field(init=False, repr=False, compare=False)
    half_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.nodes.ndim != 2 or self.weights.shape != self.nodes.shape[:1]:
            raise ValueError("sphere rule needs one weight per node")
        h, odd = divmod(self.weights.size, 2)
        if odd or not (
            np.array_equal(self.nodes[h:], -self.nodes[:h]) and np.array_equal(self.weights[h:], self.weights[:h])
        ):
            raise ValueError("sphere rule must be antipodal: nodes [H; -H] and weights [w_H; w_H]")
        if abs(float(np.sum(self.weights)) - 1.0) > 1e-13:
            raise ValueError("sphere rule weights must sum to 1")
        self.nodes.flags.writeable = False
        self.weights.flags.writeable = False
        half_weights = 2.0 * self.weights[:h]
        half_weights.flags.writeable = False
        object.__setattr__(self, "half_nodes", self.nodes[:h])
        object.__setattr__(self, "half_weights", half_weights)

    __reduce__ = reduce_by_constructor


@dataclass(frozen=True, eq=False)
class RadialRule:
    """Nodes/weights for int_0^1 r^(n-1+alpha) (1-r^2)^beta f(r) dr; it
    compares and hashes by identity, as SphereRule does."""

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

    __reduce__ = reduce_by_constructor


@dataclass(frozen=True)
class BallRule:
    """Polar composition: int_B f |y|^a (1-|y|^2)^b dy as
    normalization * sum_ij w_rad_i w_sph_j f(r_i zeta_j)."""

    sphere: SphereRule
    radial: RadialRule

    @property
    def normalization(self) -> float:
        """Surface factor n Vol_n of the polar composition."""
        return sphere_area(self.radial.n)


def build_sphere_rule(n: int, exact_degree: int) -> SphereRule:
    """Product cubature exact for all polynomials of degree <= exact_degree,
    in the antipodal layout [H; -H] of SphereRule.

    The arguments are checked (check_integer: numpy integers pass, bools
    and floats do not) before the memo lookup, so equal integers of any
    type share one rule."""
    return _sphere_rule(check_integer("dimension n", n, 2), check_integer("exactness degree", exact_degree, 0))


@lru_cache(maxsize=None)
def _sphere_rule(n: int, exact_degree: int) -> SphereRule:
    n_azim = max(2, 2 * (exact_degree // 2) + 2)
    n_polar = exact_degree // 2 + 1
    count = n_azim * n_polar ** (n - 2)
    if count > NODE_CAP:
        raise ValueError(f"sphere rule would need {count} nodes (cap {NODE_CAP})")
    # the half H: the azimuths in [0, pi), then the polar peel; the rule is
    # [H; -H], the product rule's nodes up to rounding, since the polar
    # Gauss-Jacobi nodes are symmetric and the azimuth count is even
    phis = 2.0 * math.pi * np.arange(n_azim // 2) / n_azim
    nodes = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    weights = np.full(n_azim // 2, 1.0 / n_azim)
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
    weights = weights / (2.0 * np.sum(weights))
    return SphereRule(
        nodes=np.concatenate([nodes, -nodes]), weights=np.concatenate([weights, weights]), exact_degree=exact_degree
    )


build_sphere_rule.cache_info, build_sphere_rule.cache_clear = _sphere_rule.cache_info, _sphere_rule.cache_clear


def laplacian_power_residual(
    q: PolyharmonicPolynomial, x: RotatedPoint, order: int | None = None
) -> float:
    """|Delta^order q(x)| by Pizzetti's mean-value expansion, exact up to
    rounding in every dimension n.

    The mean of a polynomial u over the sphere of radius rho about x is

        M(rho) = sum_j rho^(2j) Delta^j u(x) / (2^j j! n (n+2) ... (n+2j-2))

    (Aronszajn, Creese & Lipkin, *Polyharmonic Functions*, 1983), a
    polynomial of degree J = deg(u) // 2 in rho^2; Delta^j u vanishes for
    j > J.  One sphere rule exact to deg(u) gives M at rho^2 = 0, 1/J, ..., 1
    and one Vandermonde solve in rho^2 gives every Delta^j u(x).

    order defaults to the polynomial's own class order p, where the exact
    value is 0; negative controls pass a lower order to land on a genuinely
    nonzero iterated Laplacian.  An order that is not an integer >= 1
    (check_integer) or a point of another dimension than q raises ValueError.
    """
    p = q.p if order is None else check_integer("Laplacian power", order, 1)
    if x.dim != q.n:
        raise ValueError(f"dimension mismatch: polynomial n={q.n}, point {x.dim}")
    if abs(math.remainder(x.phase, 2 * math.pi)) > 1e-12:
        raise ValueError("residual check expects a real (phase-0) point")
    top = q.degree // 2
    if p > top:
        return 0.0
    rule = build_sphere_rule(q.n, q.degree)
    rho2 = np.arange(top + 1) / top
    pts = x.coords + np.sqrt(rho2)[:, None, None] * rule.nodes
    means = eval_complex(q, pts.reshape(-1, q.n)).reshape(top + 1, -1) @ rule.weights
    lap = np.linalg.solve(np.vander(rho2, increasing=True), means)[p]
    return float(abs(lap) * 2.0**p * math.factorial(p) * math.prod(range(q.n, q.n + 2 * p, 2)))


def radial_moment(n: int, m: int, alpha: float, beta: float) -> float:
    """int_0^1 r^(n+2m+alpha-1) (1-r^2)^beta dr by the Gamma closed form
    Gamma(b+1) Gamma(z) / (2 Gamma(z + b + 1)), z = m + (n+a)/2: the
    reciprocal of kernels.weighted_coefficient, which checks the arguments."""
    return 1.0 / weighted_coefficient(n, alpha, beta, m)


def build_radial_rule(n: int, alpha: float, beta: float, node_count: int) -> RadialRule:
    """Gauss-Jacobi rule in t = r^2; exact for polynomials in r^2 of degree
    <= node_count - 1 (in fact up to 2*node_count - 1).

    The arguments are checked before the memo lookup (check_integer,
    check_weight_parameters), so a numpy integer or an integral weight
    shares the rule of the equal int and float request, and a bool or
    complex weight is rejected rather than answered from the memo."""
    n = check_integer("dimension n", n, 1)
    node_count = check_integer("node count", node_count, 1)
    alpha, beta = check_weight_parameters(n, alpha, beta)
    return _radial_rule(n, alpha, beta, node_count)


@lru_cache(maxsize=None)
def _radial_rule(n: int, alpha: float, beta: float, node_count: int) -> RadialRule:
    a = beta
    b = 0.5 * (n + alpha) - 1.0
    t, w = roots_jacobi(node_count, a, b)
    r = np.sqrt((t + 1.0) / 2.0)
    weights = w / 2.0 ** (a + b + 2.0)
    order = np.argsort(r)
    return RadialRule(nodes=r[order], weights=weights[order], n=n, alpha=alpha, beta=beta)


build_radial_rule.cache_info, build_radial_rule.cache_clear = _radial_rule.cache_info, _radial_rule.cache_clear


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
    exactness oracle for the sphere rules.  kappa is a non-empty sequence
    of integer exponents >= 0 (check_integer); ValueError otherwise.
    """
    kappa = [check_integer("exponent", k, 0) for k in kappa]
    if not kappa:
        raise ValueError("need at least one exponent")
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

    f is a PolyharmonicPolynomial, evaluated by one eval_complex call on
    the p R N points, or a callable f(phase, points) returning the values
    at the rotated points e^{i*phase} * points.  The points take the
    nodes' dimension, unit.shape[1], so a polynomial of another dimension
    raises ValueError (dimension mismatch).
    """
    phases = cfg.sector_phases()
    if isinstance(f, PolyharmonicPolynomial):
        pts = np.exp(1j * phases)[:, None, None, None] * np.multiply.outer(radii, unit)
        return eval_complex(f, pts.reshape(-1, unit.shape[1])).reshape(pts.shape[:-1])
    return np.array([[f(ph, r * unit) for r in radii] for ph in phases], dtype=complex)


def _stacked_factors(phases, radii, unit, polys, section=None):
    """Separable factors of each polynomial in polys and, for
    section = (g, p, x), of that kernel section, all on the polar grid
    e^{i phases_k} radii_i unit_j and from one zonal recurrence: the only
    producer of polar-grid factors.

    A polynomial there is sum_b rot[b, k] rad[b, i] zon[b, j]: a block
    c |x|^(2k) Z_d(x, pole) at a grid point is c e^{i deg phases_k}
    radii_i^deg Z_d(unit_j, pole) with deg = d + 2k.  The section
    zonal_poly_sum(g, p, t, zeta, n) at the pairs (x, grid point) is
    sum_m W[k, i, m] S[m, j] in window form: its cosine t = unit_j . x/|x|
    depends on the node only and zeta = |x| radii_i e^{i (phase(x) - phases_k)}
    on the phase and radius only, so W = _degree_weights(g, zeta), the
    weights g[m] zeta^m, and S holds the window sums
    S_m = sum_{k<p, 2k<=m} z_{m-2k}(t) (zonal._window_sums).  The origin
    x = 0 takes the zero vector for x/|x|, where zeta = 0 and t = 0.

    The recurrence runs on the stacked cosines
    [poles of every block; x/|x|] @ unit^T, one row of node cosines per
    pole, up to the largest block degree d and the section's top degree:
    each block's zonal factor is z_d of its own row and the section's S is
    window-summed from z_0..z_L of the last row, into a copy.  The poles are
    the polynomials' stored pole arrays, stacked by one concatenation, and
    each polynomial's factors come from its own stored k, d and coeff
    arrays: no block is read here.  Every polynomial and the section's x
    must have the dimension of the nodes, unit.shape[1]; ValueError
    (dimension mismatch) otherwise.  unit holds unit vectors.
    Returns a list of (rot, rad, zon) per polynomial, shapes (B, K), (B, I)
    and (B, J) for B blocks, followed by (W, S), shapes (K, I, L) and
    (L, J), when section is given.  A zonal row's degree is q.d[b] for a
    block and m for the section (S_m has the parity of m), and its parity
    at the mirrored nodes -unit_j is left to the contractions (_half_gram,
    mean_value_eval).
    """
    phases, radii, unit = (np.asarray(v, dtype=float) for v in (phases, radii, unit))
    n = unit.shape[1]
    if any(q.n != n for q in polys) or (section is not None and section[2].dim != n):
        raise ValueError(f"dimension mismatch: nodes of dimension {n}, polynomials {[q.n for q in polys]}")
    poles = [q.poles for q in polys]
    top = max((max(q.d.tolist(), default=0) for q in polys), default=0)
    if section is not None:
        g, p, x = section
        w = _degree_weights(g, x.radius * radii * np.exp(1j * (x.phase - phases[:, None])))
        poles.append((x.coords / x.radius if x.radius else np.zeros(n))[None, :])
        top = max(top, len(g) - 1)
    z = zonal_values(np.concatenate(poles) @ unit.T, top, n)
    out, row = [], 0
    for q in polys:
        deg = q.d + 2 * q.k
        rot = q.coeff[:, None] * np.exp(1j * (deg[:, None] * phases))
        zon = z[q.d, np.arange(row, row + q.d.size)]
        out.append((rot, radii[None, :] ** deg[:, None], zon))
        row += q.d.size
    if section is not None:
        out.append((w, _window_sums(z[: len(g), -1], p)))
    return out


def _half_gram(sphere: SphereRule, zon_f, d_f, zon_g, d_g):
    """Zonal Gram matrix G[b, b'] = sum_j w_j z_b(node_j) z_b'(node_j) over
    the whole antipodal rule [H; -H], from the rows zon_f (degrees d_f) and
    zon_g (degrees d_g) taken on its half H: the one statement of the
    rule's parity for a product of zonal rows.

    z_d(-t) = (-1)^d z_d(t) (Szego, Orthogonal Polynomials, 4.7), bit for
    bit, since the recurrence is odd or even in t by degree, so a product
    of rows of degrees d and d' sums over [H; -H] to (zon_f 2 w_H) zon_g^T
    where d + d' is even and to 0 where it is odd.
    """
    return ((zon_f * sphere.half_weights) @ zon_g.T) * ((d_f[:, None] - d_g) % 2 == 0)


def _inner_product(cfg, f, g, radii, w_rad, sphere: SphereRule) -> complex:
    """(1/p) sum_kij w_rad_i w_sph_j f_kij conj(g_kij) on the sector x radius
    x sphere grid.

    Two polynomial operands are contracted factor by factor: with
    f = sum_b rot_bk rad_bi zon_bj (_stacked_factors) and g likewise, the sum is
    sum_{b,b'} (rot_f rot_g^H)_{bb'} ((rad_f w_rad) rad_g^T)_{bb'}
    ((zon_f w_sph) zon_g^T)_{bb'} / p, O(B_f B_g N) work for N sphere nodes
    against O(p R N (B_f + B_g)) for the values on the grid.  Both
    operands' zonal factors come from one recurrence on their stacked poles
    at the half H of the rule, and _half_gram gives the zonal Gram factor.
    A callable operand takes the grid route: p R calls of N points each,
    and a polynomial partner one eval_complex call on the p R N points; the
    sum is one einsum, with no product array formed.
    """
    polys = [h for h in (f, g) if isinstance(h, PolyharmonicPolynomial)]
    if any(h.n != cfg.n for h in polys):
        raise ValueError(f"dimension mismatch: n={cfg.n}, polynomials {[h.n for h in polys]}")
    if len(polys) == 2:
        (rot_f, rad_f, zon_f), (rot_g, rad_g, zon_g) = _stacked_factors(
            cfg.sector_phases(), radii, sphere.half_nodes, (f, g)
        )
        zonal = _half_gram(sphere, zon_f, f.d, zon_g, g.d)
        gram = (rot_f @ rot_g.conj().T) * ((rad_f * w_rad) @ rad_g.T) * zonal
        return complex(gram.sum()) / cfg.p
    fv = _ball_values(cfg, f, radii, sphere.nodes)
    gv = _ball_values(cfg, g, radii, sphere.nodes)
    return complex(np.einsum("kij,kij,i,j->", fv, np.conjugate(gv, out=gv), w_rad, sphere.weights)) / cfg.p


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
    the rule is exact to 2*m_top + 2 and u is of order at most p.

    Both factors are separable on the rule's grid and come from one
    _stacked_factors call: u = sum_b rot_bk rad_bi zon_bj and, in window
    form, K = sum_m W_kim S_mj with W_kim = g(m) zeta_ki^m from the memoised
    weights g(0..m_top) (kernels._series_weights) and S_m the window sums
    of the zonal rows, so the sum is sum_{b,m} H_bm G_bm / p with
    H = sum_ki rot_bk rad_bi w_rad_i W_kim and G = (zon w_sph) S^T:
    O(B L N) work for B blocks, L = m_top + 1 degrees and N sphere nodes,
    against O(p R N (B + L)) for both factors' values on the grid.  zon and
    S come from one recurrence, to degree m_top, on the stacked cosines
    [poles; x/|x|] @ H^T at the half H of the sphere rule; S_m has the
    parity of m, so G is their _half_gram.
    m_top is an integer (check_integer); ValueError otherwise.
    """
    m_top = check_integer("kernel truncation m_top", m_top, 0)
    if u.n != cfg.n or x.dim != cfg.n:
        raise ValueError(f"dimension mismatch: n={cfg.n}, polynomial {u.n}, point {x.dim}")
    if u.p > cfg.p:
        raise ValueError(f"polynomial order {u.p} above the kernel order {cfg.p}")
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
    phases = cfg.sector_phases()
    # the kernel's factor 1/(n Vol_n) cancels the rule's normalization n Vol_n,
    # and its second slot is conjugate-symmetric already: no conjugation
    section = (_series_weights(cfg.n, alpha, beta, "weighted", m_top), cfg.p, x)
    (rot, radial, zon), (w, window) = _stacked_factors(phases, rad.nodes, sph.half_nodes, (u,), section)
    h = np.einsum("bk,bi,kim->bm", rot, radial * rad.weights, w)
    gram = _half_gram(sph, zon, u.d, window, np.arange(len(window)))
    return complex((h * gram).sum()) / len(phases)


def mean_value_eval(cfg, u, a, r: float, x: RotatedPoint, rule) -> complex:
    """Sector-averaged mean-value integral recovering u(x).

    (1/p) sum_k int_S (r^2p - |x-a|^2p)
                      / (r^(2p-n) |e^{-i k pi/p}(x-a) - r zeta|^n)
                      u(a + r e^{i k pi/p} zeta) dsigma(zeta),
    where |.|^n is the principal power of the bilinear square.  Exact for
    polyharmonic u of order at most p up to cubature error; a centre a,
    point x, sphere rule or polynomial u of another dimension, a polynomial
    of a higher order and a radius r that is not a positive real number
    (check_real) raise ValueError.

    With a = 0 the points r e^{i k pi/p} zeta_j are rotated points, so a
    polynomial u there is the contraction of its polar factors
    (_stacked_factors) on the sector phases and the one radius r.  They
    are taken on the half H of the antipodal rule [H; -H]: one real
    recurrence on its N/2 nodes, to the largest block degree, shared by
    the p sectors; on -H each block's zonal row is mirrored by its parity
    (-1)^d.  An off-centre ball takes eval_complex on the p N complex
    points, sum_b (d_b + 1) recurrence rows of p N values, and a callable
    u is called once on them.  The denominator's power n/2 is, at odd n,
    one integer power and one square root (principal_pow).
    """
    a = np.asarray(a, dtype=float)
    polynomial = isinstance(u, PolyharmonicPolynomial)
    if a.shape != (cfg.n,) or x.dim != cfg.n or rule.nodes.shape[1] != cfg.n or (polynomial and u.n != cfg.n):
        raise ValueError("dimension mismatch in mean_value_eval")
    if polynomial and u.p > cfg.p:
        raise ValueError(f"polynomial order {u.p} above the kernel order {cfg.p}")
    r = check_real("radius r", r)
    if not 0.0 < r:
        raise ValueError(f"radius r must be positive, got {r}")
    # negated comparisons: a NaN in the centre fails them
    if not np.linalg.norm(a) + r < 1.0:
        raise ValueError("ball B(a, r) must stay inside the unit ball")
    if abs(math.remainder(x.phase, 2 * math.pi)) > 1e-12:
        raise ValueError("mean-value evaluation point must be real (phase 0)")
    d = x.coords - a
    d2 = float(d @ d)
    if not d2 < r * r:
        raise ValueError("need |x - a| < r")
    nodes = rule.nodes
    num = r ** (2 * cfg.p) - d2**cfg.p
    pref = r ** (cfg.n - 2 * cfg.p)
    phases = cfg.sector_phases()
    rot = np.exp(1j * phases)[:, None]
    back = np.conj(rot)
    bsq = back * back * d2 - 2.0 * r * back * (nodes @ d) + r * r
    if np.any(np.abs(bsq) <= EPS_SING * r * r):
        raise NearSingular("mean-value kernel denominator vanished")
    den = principal_pow(bsq, 0.5 * cfg.n)
    if polynomial and not a.any():
        rot_u, rad_u, zon = _stacked_factors(phases, (r,), rule.half_nodes, (u,))[0]
        coef = (rot_u * rad_u).T
        uv = np.concatenate((coef @ zon, (coef * (-1.0) ** u.d) @ zon), axis=1)
    else:
        pts = (a + r * rot[:, :, None] * nodes).reshape(-1, cfg.n)
        uv = (eval_complex(u, pts) if polynomial else u(pts)).reshape(den.shape)
    return complex(np.sum(rule.weights * (num * pref / den) * uv)) / cfg.p
