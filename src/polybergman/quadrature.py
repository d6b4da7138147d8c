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
over the product grid sector k x radial node i x sphere node j.  A block
c |y|^(2k) Z_d(y, pole) of degree D = d + 2k is c e^{i D phi_k} r_i^D
z_d(zeta_j . pole) there, and a kernel section sum_m g(m) Z^p_m(x, .) is
sum_m g(m) (|x| e^{i phi_x})^m e^{-i m phi_k} r_i^m S_m(zeta_j . x/|x|) in
window form, so every grid sum of two such terms of degrees D and D'
factors into a sector sum, a radial sum and a zonal Gram entry.  With the
sector phases phi_k = k pi/p, the sector sum is
E_p(D - D') = sum_{k<p} e^{i pi k (D - D')/p}, which is p when 2p divides
D - D' and 0 for its other even values, and the radial sum is
M(D + D') = sum_i w_i r_i^(D + D').  An odd D - D' means an odd d - d',
whose zonal Gram entry over the whole rule is exactly 0 (below), so the
two sums enter every contraction as one real table
T_p[D, D'] = p [2p divides D - D'] M(D + D'), which is 0 for odd D - D':
one table per radial rule, p and window of 16 * 2^j degrees, memoised
(_degree_table), and an op reads its entries by one fancy-index
(_sector_radial).  So no value on the grid is formed: an op costs
O(B B' N) for the zonal Gram of operands of B and B' blocks on N sphere
nodes and O(B B') lookups besides.  An inner product reads its entries
first, and where all of them are 0 (no block degree D of one operand is
congruent to a block degree D' of the other modulo 2p, so the sector sums
vanish) its value is exactly 0: it returns 0j after the dimension checks,
with no zonal work at all.
The zonal factors are taken on the half H only: by Gegenbauer parity
z_d(-t) = (-1)^d z_d(t), a product of zonal rows of degrees d and d' sums
over [H; -H] to 2 sum_H w_H z_d z_d' when d + d' is even and to 0 when it
is odd (_half_gram), and the mean-value integrand mirrors each block's row
onto -H by (-1)^d and its kernel denominators by conjugation.  Every
other op pays for one real zonal recurrence over the N/2 nodes of H: the
node cosines of both operands' poles, or of the polynomial's poles and
x/|x|, are stacked into one (C, N/2) array and run to the largest degree
any of them needs (_stacked_factors), so an op makes one round of numpy
calls per degree whatever its number of blocks.  The cosines are of unit
poles (ZonalBlock checks them) and unit nodes (SphereRule checks them
once, when the rule is built), so they are clipped to [-1, 1] with no
further check.
The grid route, on all N nodes, is kept for callable operands and
off-centre balls only; a polynomial there is evaluated by eval_complex,
the one point evaluator.

laplacian_power_residual, the independent check of a test polynomial's
order, averages it over sphere rules and so lives here, beside
build_sphere_rule.

Both rule builders are memoised per process (functools.lru_cache): each
checks and converts its arguments first (Python ints, and floats for the
weights) and looks the converted tuple up in one memo, so a rule is built
once for each distinct request whatever the numeric types it came in, and
the same read-only object is returned on every later call while it stays
in the memo.  The sphere rules' memo is keyed by integers; the radial
rules', keyed by float weights, keeps the 128 latest.  Their cache_info()
and cache_clear() are the memo's.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from . import zonal
from .core import (EPS_SING, KernelConfig, RotatedPoint, check_integer, check_real, check_weight_parameters,
                   principal_pow, reduce_by_constructor, sphere_area)
from .errors import NearSingular
from .kernels import _series_weights, weighted_coefficient
from .polyspace import PolyharmonicPolynomial, eval_complex

NODE_CAP = 10**7


@dataclass(frozen=True, eq=False)
class SphereRule:
    """Cubature nodes and weights for the normalized sphere measure.

    The rule is antipodal: nodes = [H; -H] and weights = [w_H; w_H] for a
    half H of the nodes, and any other layout raises ValueError.  An even
    integrand then sums to 2 sum_H w_H f and an odd one to 0, so
    (half_nodes, half_weights), a view of H and the weights 2 w_H, is the
    rule for even integrands.  Every node is a unit vector to 1e-12, as a
    block's pole is, and ValueError otherwise: this check, made once here,
    is what lets the cubature clip node cosines without one.  Rules compare
    and hash by identity, as rotated points do: their fields are arrays.
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
        if not (np.abs(np.linalg.norm(self.nodes, axis=1) - 1.0) <= 1e-12).all():
            raise ValueError("sphere rule nodes must be unit vectors (to 1e-12)")
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


@lru_cache(maxsize=128)
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
    """ValueError unless alpha and beta pass check_weight_parameters and
    the rule was built for them and for the dimension cfg.n."""
    alpha, beta = check_weight_parameters(cfg.n, alpha, beta)
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


def _stacked_factors(unit, polys, section=None):
    """Zonal factors of each polynomial in polys and, for
    section = (top, p, x), of that kernel section, on the nodes unit_j and
    from one zonal recurrence: the only producer of cubature factors.

    A block c |y|^(2k) Z_d(y, pole) contributes its zonal row
    z_d(unit_j . pole); its coefficient, phase and radius enter the
    contractions as numbers (_sector_radial).  The section
    sum_{m<=top} g(m) Z^p_m(x, .) contributes the window sums
    S_m = sum_{k<p, 2k<=m} z_{m-2k}(unit_j . x/|x|) (zonal._window_sums),
    m = 0..top, where the origin x = 0 takes the zero vector for x/|x|.

    The recurrence (zonal._zonal_rows, looked up on the module) runs on the
    stacked cosines [poles of every block; x/|x|] @ unit^T, one row of node
    cosines per pole, clipped to [-1, 1] in place with no domain check: the
    poles and nodes are unit vectors, checked when the block and the rule
    were built.  It runs up to the largest block degree d and the section's
    top: each block's factor is z_d of its own row and the section's S is
    window-summed from z_0..z_top of the last row, into a copy.  The poles
    are the polynomials' stored pole arrays, stacked by one concatenation,
    and each polynomial's rows are picked by its stored d array: no block
    is read here.  Every polynomial and the section's x must have the
    dimension of the nodes, unit.shape[1]; ValueError (dimension mismatch)
    otherwise.  unit is a float array of unit vectors, a sphere rule's.
    Returns a list of one (B, J) array per polynomial of B blocks, followed
    by S, shape (top + 1, J), when section is given.  A row's degree is
    q.d[b] for a block and m for the section (S_m has the parity of m), and
    its parity at the mirrored nodes -unit_j is left to the contractions
    (_half_gram, _sector_radial, mean_value_eval).
    """
    n = unit.shape[1]
    if any(q.n != n for q in polys) or (section is not None and section[2].dim != n):
        raise ValueError(f"dimension mismatch: nodes of dimension {n}, polynomials {[q.n for q in polys]}")
    poles = [q.poles for q in polys]
    top = max((max(q.d.tolist(), default=0) for q in polys), default=0)
    if section is not None:
        m_top, p, x = section
        poles.append((x.coords / x.radius if x.radius else np.zeros(n))[None, :])
        top = max(top, m_top)
    t = np.concatenate(poles) @ unit.T
    z = zonal._zonal_rows(np.minimum(np.maximum(t, -1.0, out=t), 1.0, out=t), 1.0, top, n)
    out, row = [], 0
    for q in polys:
        out.append(z[q.d, np.arange(row, row + q.d.size)])
        row += q.d.size
    if section is not None:
        out.append(zonal._window_sums(z[: m_top + 1, -1], p))
    return out


class _UnitRadial:
    """The sphere inner product's radial factor, one node r = 1 of weight 1,
    read as a radial rule: a _degree_table key of its own."""

    nodes = weights = np.ones(1)


@lru_cache(maxsize=64)
def _degree_table(radial, p: int, window: int) -> np.ndarray:
    """Read-only T_p[D, D'] = p [2p divides D - D'] M(D + D') for
    D, D' < window, with M(j) = sum_i w_i r_i^j over the radial rule: the
    sum over the sectors k and radial nodes i of the phase and radius
    factors e^{i (D - D') phi_k} r_i^(D + D') of a product of two terms
    whose zonal rows have a whole-rule Gram entry that can be nonzero.

    The sector sum E_p(j) = sum_{k<p} e^{i pi k j/p} is p where 2p divides
    j and (1 - e^{i pi j}) / (1 - e^{i pi j/p}) elsewhere, which is 0 for
    even j.  For odd j it is 1 + i cot(pi j/2p), but an odd D - D' is an
    odd d - d', whose Gram entry over the whole rule is exactly 0
    (_half_gram), so the table holds 0 there and is real.  radial is a
    RadialRule or _UnitRadial, both keyed by identity; the memo keeps the
    64 latest tables.
    """
    moments = radial.weights @ np.power.outer(radial.nodes, np.arange(2 * window - 1))
    deg = np.arange(window)
    out = np.where((deg[:, None] - deg) % (2 * p) == 0, p * moments[deg[:, None] + deg], 0.0)
    out.flags.writeable = False
    return out


def _sector_radial(p: int, radial, deg, deg2) -> np.ndarray:
    """T_p[D, D'] for D in deg (rows) and D' in deg2 (columns): one
    fancy-index into the memoised table of the smallest window of 16 * 2^j
    degrees above both (_degree_table)."""
    top = max(deg.tolist() + deg2.tolist(), default=0)
    return _degree_table(radial, p, 16 << (top >> 4).bit_length())[deg[:, None], deg2]


def _half_gram(sphere: SphereRule, zon_f, zon_g):
    """2 sum_H w_H z_b z_b' for the rows zon_f and zon_g taken on the half H
    of the antipodal rule [H; -H]: the zonal Gram matrix
    G[b, b'] = sum_j w_j z_b(node_j) z_b'(node_j) over the whole rule
    wherever the degrees d and d' of the rows have even sum, and the one
    statement of the rule's parity for a product of zonal rows.

    z_d(-t) = (-1)^d z_d(t) (Szego, Orthogonal Polynomials, 4.7), bit for
    bit, since the recurrence is odd or even in t by degree, so the -H half
    of the sum repeats the H half where d + d' is even and cancels it
    exactly where d + d' is odd.  Those odd entries of the whole-rule Gram
    are 0; here they hold the H half alone, and every contraction
    multiplies them by the 0 that T_p holds for an odd D - D'
    (_sector_radial), so they never reach a sum.
    """
    return (zon_f * sphere.half_weights) @ zon_g.T


def _inner_product(cfg, f, g, radial, sphere: SphereRule) -> complex:
    """(1/p) sum_kij w_rad_i w_sph_j f_kij conj(g_kij) on the sector x radius
    x sphere grid.

    Two polynomial operands are contracted block by block: blocks b of f and
    b' of g, of degrees D_b and D_b', give
    c_b conj(c_b') T_p[D_b, D_b'] G[b, b'] with the sector and radial sums'
    table T_p of the radial rule radial (_sector_radial) and the zonal
    Gram matrix G of the two operands' rows (_half_gram), which come from
    one recurrence on their stacked poles at the half H of the rule.  That
    is O(B_f B_g N) work for N sphere nodes, against O(p R N (B_f + B_g))
    for the values on the grid.  The entries T_p[D_b, D_b'] are read
    first: where all of them are 0 the pair is sector-orthogonal and its
    value is exactly 0, so 0j is returned with no recurrence and no Gram,
    and no product of large coefficients can overflow into an inf times
    0.  Sphere nodes of another dimension than cfg.n still take the full
    route, to _stacked_factors' ValueError.  A callable operand takes the
    grid route: p R calls of N points each, and a polynomial partner one
    eval_complex call on the p R N points; the sum is one einsum, with no
    product array formed.
    """
    polys = [h for h in (f, g) if isinstance(h, PolyharmonicPolynomial)]
    if any(h.n != cfg.n for h in polys):
        raise ValueError(f"dimension mismatch: n={cfg.n}, polynomials {[h.n for h in polys]}")
    if len(polys) == 2:
        table = _sector_radial(cfg.p, radial, f.degrees, g.degrees)
        # nodes of another dimension take the full route to its error
        if not table.any() and sphere.half_nodes.shape[1] == cfg.n:
            return 0j
        zon_f, zon_g = _stacked_factors(sphere.half_nodes, (f, g))
        gram = np.multiply.outer(f.coeff, g.coeff.conj()) * _half_gram(sphere, zon_f, zon_g)
        return complex((gram * table).sum()) / cfg.p
    fv = _ball_values(cfg, f, radial.nodes, sphere.nodes)
    gv = _ball_values(cfg, g, radial.nodes, sphere.nodes)
    return complex(np.einsum("kij,kij,i,j->", fv, np.conjugate(gv, out=gv), radial.weights, sphere.weights)) / cfg.p


def inner_product_sphere(cfg: KernelConfig, f, g, rule: SphereRule) -> complex:
    """(1/p) sum_j int_S f(e^{ij pi/p} zeta) conj(g(e^{ij pi/p} zeta)) dsigma.

    conj is literal complex conjugation of the evaluated value.
    """
    return _inner_product(cfg, f, g, _UnitRadial, rule)


def inner_product_ball(cfg: KernelConfig, alpha: float, beta: float, f, g, rule: BallRule) -> complex:
    """Sector-averaged weighted ball inner product in polar composition."""
    _check_ball_rule(cfg, alpha, beta, rule)
    return rule.normalization * _inner_product(cfg, f, g, rule.radial, rule.sphere)


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

    With xi = |x| e^{i phase(x)}, the section is
    sum_m g(m) xi^m e^{-i m phi_k} r_i^m S_m(zeta_j . x/|x|) in window form,
    with the memoised weights g(0..m_top) (kernels._series_weights), so a
    block of u of degree D_b and coefficient c_b meets its degree-m term in
    c_b g(m) xi^m T_p[D_b, m] G[b, m]: the sector and radial sums' table
    T_p of the rule's radial rule (_sector_radial) and the zonal Gram
    matrix G of the block rows and the window sums S_m (_half_gram; S_m has
    the parity of m), both from one recurrence, to degree m_top, on the
    stacked cosines [poles; x/|x|] @ H^T at the half H of the sphere rule
    (_stacked_factors).  That is O(B L N) work for B blocks, L = m_top + 1
    degrees and N sphere nodes, against O(p R N (B + L)) for both factors'
    values on the grid.
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
        raise ValueError(f"rule exactness {rule.sphere.exact_degree} insufficient for degree {m_top}")
    if x.radius >= 1.0:
        raise ValueError("evaluation point must lie in the open rotated ball cone")
    _check_ball_rule(cfg, alpha, beta, rule)
    sph, rad, p = rule.sphere, rule.radial, cfg.p
    # the kernel's factor 1/(n Vol_n) cancels the rule's normalization n Vol_n,
    # and its second slot is conjugate-symmetric already: no conjugation
    zon, window = _stacked_factors(sph.half_nodes, (u,), (m_top, p, x))
    m = np.arange(m_top + 1)
    kernel = (x.radius * cmath.exp(1j * x.phase)) ** m * _series_weights(cfg.n, alpha, beta, "weighted", m_top)
    h = u.coeff[:, None] * kernel * _sector_radial(p, rad, u.degrees, m)
    return complex((h * _half_gram(sph, zon, window)).sum()) / p


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
    polynomial u there is sum_b c_b e^{i D_b phi_k} r^(D_b) z_(d_b)(zeta_j
    . pole_b) for blocks of degree D_b = d_b + 2 k_b: coefficients per
    sector and block times zonal rows (_stacked_factors).  The rows are
    taken on the half H of the antipodal rule [H; -H]: one real recurrence
    on its N/2 nodes, to the largest block degree, shared by the p sectors;
    on -H each block's row is mirrored by its parity (-1)^d.  An off-centre
    ball takes eval_complex on the p N complex points, sum_b (d_b + 1)
    recurrence rows of p N values, and a callable u is called once on them.

    The reciprocals of the denominators are taken on H as well, in one
    (2, p, N/2) array for [H; -H], sector and node, that every route
    shares.  With d = x - a, the bilinear square of sector k at a node
    zeta is bsq_k(zeta) = e^{-2 i phi_k} |d|^2 - 2 r e^{-i phi_k} zeta . d
    + r^2; sector 0 is real on both halves, |d|^2 -+ 2 r zeta . d + r^2,
    and takes a real power, and for k >= 1, since
    e^{-i phi_(p-k)} = -e^{i phi_k}, bsq_k(-zeta) = conj(bsq_(p-k)(zeta)),
    so 1 / principal_pow (an integer power and, at odd n, one square root)
    runs on the (p - 1) N/2 complex values of sectors 1..p-1 on H, and -H
    reads their conjugates in reversed sector order.  At p = 1 there are no
    such sectors and no complex denominator work.  The centred route's
    values on [H; -H] are one matmul of the stacked sector coefficients
    [coef; coef (-1)^d] with the rows, and the other routes' values are
    viewed in the same (2, p, N/2) layout.
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
    p, half = cfg.p, rule.half_nodes.shape[0]
    scale = (r ** (2 * p) - d2**p) * r ** (cfg.n - 2 * p)
    phases = cfg.sector_phases()
    dots = rule.nodes @ d  # [H; -H] @ d = [h; -h], exactly
    real = (d2 - 2.0 * r * dots + r * r).reshape(2, 1, half)
    if real.min() <= EPS_SING * r * r:
        raise NearSingular("mean-value kernel denominator vanished")
    recip = real ** (-0.5 * cfg.n)
    if p > 1:
        back = np.exp(-1j * phases[1:, None])
        bsq = back * back * d2 - 2.0 * r * back * dots[:half] + r * r
        if (np.abs(bsq) <= EPS_SING * r * r).any():
            raise NearSingular("mean-value kernel denominator vanished")
        inv = 1.0 / principal_pow(bsq, 0.5 * cfg.n)
        recip = np.concatenate((recip, np.array((inv, inv[::-1].conj()))), axis=1)
    if polynomial and not a.any():
        zon = _stacked_factors(rule.half_nodes, (u,))[0]
        coef = u.coeff * np.exp(1j * (phases[:, None] * u.degrees)) * r**u.degrees
        uv = (np.concatenate((coef, coef * (-1.0) ** u.d)) @ zon).reshape(2, p, half)
    else:
        pts = (a + r * np.exp(1j * phases)[:, None, None] * rule.nodes).reshape(-1, cfg.n)
        uv = (eval_complex(u, pts) if polynomial else u(pts)).reshape(p, 2, half).swapaxes(0, 1)
    return complex(((recip * uv) @ rule.weights[:half]).sum()) * scale / p
