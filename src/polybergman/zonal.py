"""Zonal harmonics and zonal polyharmonics on rotated balls.

The real zonal kernel z_m on S x S is evaluated through one recurrence
(Gegenbauer; Chebyshev for the degenerate n = 2 case), written once for
arrays (_zonal_rows) and once for one float cosine (_scalar_poly_sum); the
extension to pairs of rotated ball points multiplies in the exact phase
factor e^{i m (phi-psi)} and the radial homogeneity (|a||b|)^m, i.e.
Z_m(x, y) = zeta^m z_m(t) with zeta = |a||b| e^{i (phi-psi)}.  Zonal
polyharmonics of order p are the finite sums

    Z^p_m(x, y) = sum_{k<p} q^k Z_{m-2k}(x, y),

with q = zeta^2 and terms dropped once m - 2k < 0; t and zeta of a pair come
from core.zonal_terms, as the closed forms' s, q and w come from
core.closed_terms.  Since
q^k zeta^(m-2k) = zeta^m, this is Z^p_m = zeta^m S_m(t) with the real window
sum S_m = sum_{k<p, 2k<=m} z_{m-2k}(t) (_window_sums), and a series
sum_m g[m] Z^p_m is one polynomial in zeta with the real coefficients
g[m] S_m(t).  Every zonal sum in the package goes through one assembly in
that form, zonal_poly_sum; on a polar grid of pairs,
quadrature._stacked_factors returns the window sums S_m(t) at the nodes,
and the cubature sums the factors g[m] zeta^m over sectors and radii in
closed form.  The bound |Z^p_m(x, y)| <= D_p(m) (|x||y|)^m that truncates
every series reads the dimension D_p(m) as one exact integer,
polyharmonic_dim.
"""

from __future__ import annotations

import math
import sys
from operator import add, mul

import numpy as np

from .core import KernelConfig, RotatedPoint, check_dimension, check_integer, zonal_terms

BACKEND_NAME = "numpy"
"""Array backend of the zonal recurrence; only the benchmark's run stamp
reads it."""

_T_DOMAIN_TOL = 1e-12


def _clip_cosine(t: float) -> float:
    """t clipped to [-1, 1]; ValueError beyond the roundoff margin or NaN."""
    if not abs(t) <= 1.0 + _T_DOMAIN_TOL:
        raise ValueError(f"cosine argument {t} outside [-1, 1]")
    return min(1.0, max(-1.0, t))


_RECURRENCE: dict[int, tuple[tuple[float, ...], tuple[float, ...]]] = {}
"""Recurrence constants per dimension n, filled by _recurrence_constants."""


def _window(top: int) -> int:
    """Smallest 64 * 2^j above top: the doubling window of degree tables."""
    return 64 << (top >> 6).bit_length()


def _recurrence_constants(n: int, m_max: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The constants (2 f_m, f_m c_m) of the zonal recurrence (_zonal_rows)
    for m = 0..(at least m_max), with 2 f_1 = 2 (1+lam) the start z_1 / s;
    entries m < 2 of f_m c_m are 0.0, which the scalar statement in
    _scalar_poly_sum reads at m = 1.  One table per n, rebuilt at twice its
    window when a higher degree is asked for."""
    table = _RECURRENCE.get(n)
    if table is None or len(table[0]) <= m_max:
        lam = 0.5 * (n - 2)
        two_f, fc = [0.0, 2.0 * (1.0 + lam)], [0.0, 0.0]
        for m in range(2, _window(m_max)):
            c = 2.0 if m == 2 else (m + 2.0 * lam - 2.0) / (m + lam - 2.0)
            f = (m + lam) / m
            two_f.append(2.0 * f)
            fc.append(f * c)
        table = _RECURRENCE[n] = (tuple(two_f), tuple(fc))
    return table


def _zonal_rows(s, b, m_max: int, n: int) -> np.ndarray:
    """Rows m = 0..m_max of the homogeneous zonal forms b^(m/2) z_m(s / sqrt(b))
    as one array: the array statement of the zonal recurrence.

    The Gegenbauer recurrence in homogeneous form,
    m C_m = 2(m+lam-1) s C_{m-1} - (m+2lam-2) b C_{m-2} with lam = (n-2)/2
    (T_m = 2 s T_{m-1} - b T_{m-2} for n = 2), needs no square root, so s
    and b may be complex arrays of one shape or b a scalar.  Written for
    z_m = ((m+lam)/lam) C_m (2 T_m for n = 2) it is one recurrence for
    every n,

        z_m = ((m+lam)/m) (2 s z_{m-1} - c_m b z_{m-2}),
        c_m = (m+2lam-2)/(m+lam-2) for m >= 3, c_2 = 2,

    started from z_0 = 1, z_1 = 2 (1+lam) s, and evaluated with the
    association (2 f_m s) z_{m-1} - (f_m c_m b) z_{m-2}, f_m = (m+lam)/m,
    which the scalar statement in _scalar_poly_sum keeps at b = 1.  Each row
    is written in place into the preallocated result by ufuncs given their
    output, with one scratch row: no temporaries per row and no copy.
    s is an array; b is one of its shape or a scalar.
    """
    out = np.empty((m_max + 1,) + s.shape, dtype=np.result_type(s, b))
    two_f, fc = _recurrence_constants(n, m_max)
    # one view per row and positional out arguments: on a few hundred
    # cosines the per-call overhead is most of a row's cost
    rows = list(out)
    out[0] = 1.0
    if m_max >= 1:
        np.multiply(two_f[1], s, rows[1])
    tmp = np.empty_like(rows[0])
    for m in range(2, m_max + 1):
        # operands in the expression's order: numpy's complex loops may use
        # fused multiply-adds, which are not symmetric in their operands; and
        # no product is written over an operand, which on one complex
        # element sends numpy to another loop, an ulp off the expression
        row = rows[m]
        np.multiply(two_f[m], s, tmp)
        np.multiply(tmp, rows[m - 1], row)
        np.multiply(fc[m] * b, rows[m - 2], tmp)
        np.subtract(row, tmp, row)
    return out


def zonal_values(t, m_max: int, n: int) -> np.ndarray:
    """Matrix z_m(t_j) for m = 0..m_max; rows are degrees.

    Accepts a scalar or an array of cosines; the result has shape
    (m_max+1,) + atleast_1d(t).shape.  Conventions: z_0 = 1; for n >= 3,
    z_m = ((m+lam)/lam) * C^lam_m with lam = (n-2)/2 (Gegenbauer); for
    n = 2, z_m = 2 T_m (Chebyshev).  The normalization is pinned by the
    Poisson generating identity sum_m z_m(t) r^m = (1-r^2)/(1-2rt+r^2)^(n/2)
    and by z_m(1) equalling the dimension of the degree-m spherical
    harmonics.  ValueError for a cosine outside [-1, 1] (beyond roundoff)
    or NaN, and unless m_max >= 0 and n >= 2 are integers (check_integer).
    """
    m_max = check_integer("degree m_max", m_max, 0)
    n = check_integer("dimension n", n, 2)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    # the ufuncs and the array method, not np.all and np.clip: on the few
    # hundred cosines of a cubature op their Python wrappers cost more than
    # the arithmetic
    if not (np.abs(t) <= 1.0 + _T_DOMAIN_TOL).all():
        raise ValueError("cosine argument outside [-1, 1]")
    return _zonal_rows(np.minimum(np.maximum(t, -1.0), 1.0), 1.0, m_max, n)


def _window_sums(rows, p: int) -> np.ndarray:
    """S[m] = sum_{k<p, 2k<=m} rows[m-2k] along the first axis, by p - 1
    shifted adds into a copy: rows itself is never written."""
    out = rows.copy()
    for k in range(1, min(p, (len(rows) + 1) // 2)):
        out[2 * k :] += rows[: -2 * k]
    return out


def _scalar_poly_sum(g, top: int, p: int, t: float, zeta, n: int) -> complex:
    """sum_{m<=top} g[m] zeta^m S_m(t) on Python numbers, for one cosine t
    in [-1, 1]: the scalar branch of zonal_poly_sum.  g may run past top,
    as a memoised window of series weights does; only g[0..top] is read,
    and nothing is sliced from it.

    The recurrence of _zonal_rows at b = 1 is one float loop,
    z_m = (2 f_m t) z_{m-1} - (f_m c_m) z_{m-2}, into a preallocated list.
    It starts from z_{-1} = 0 and z_0 = 1: the table's f_1 c_1 is 0.0, so
    its first step is 2 f_1 t, the start z_1, exactly.  The window sums
    S_m are p - 1 C-level map(add, ...) passes over a copy (none at p = 1),
    and one Horner pass in zeta over the real coefficients g[m] S_m sums
    the series.
    """
    two_f, fc = _recurrence_constants(n, top)
    z = [1.0] * (top + 1)
    z2, z1 = 0.0, 1.0
    for m in range(1, top + 1):
        z2, z1 = z1, two_f[m] * t * z1 - fc[m] * z2
        z[m] = z1
    s = z if p == 1 else z[:]
    for k in range(1, min(p, (top + 2) // 2)):
        s[2 * k :] = map(add, s[2 * k :], z)
    total = 0j
    for v in reversed(list(map(mul, g, s))):
        total = total * zeta + v
    return total


def zonal_poly_sum(g, p: int, t, zeta, n: int):
    """sum_m g[m] Z^p_m = sum_m g[m] zeta^m S_m(t), broadcast over t, zeta.

    With t the cosine between the real parts of a pair and zeta = |a||b|
    e^{i (phi-psi)}, Z^p_m = zeta^m S_m(t) with the real window sum
    S_m = sum_{k<p, 2k<=m} z_{m-2k}(t), so this is the single assembly of
    every zonal polyharmonic sum of order p.  g is a sequence of the real
    weights of degrees 0..M; a one-hot g at m gives Z^p_m alone.  t and
    zeta are scalars or arrays of mutually broadcastable shapes and the
    result has their broadcast shape.  A zero radius is zeta = 0 (any t):
    only the m = 0 term survives.

    For a scalar t and zeta the sum runs on Python numbers, with no numpy
    call (_scalar_poly_sum).  For arrays the degree weights g[m] zeta^m,
    with the degree axis appended to zeta's shape, are contracted with the
    window sums of the rows of zonal_values.  An empty g raises ValueError
    on both branches.
    """
    top = len(g) - 1
    if top < 0:
        raise ValueError("zonal_poly_sum needs the weight of at least one degree")
    if isinstance(t, (int, float)) and isinstance(zeta, (int, float, complex)):
        return _scalar_poly_sum(g, top, p, _clip_cosine(t), zeta, n)
    s = _window_sums(zonal_values(t, top, n), p)
    zmat = s.reshape(top + 1, -1).T.reshape(np.shape(t) + (top + 1,))
    weights = np.asarray(g, dtype=float) * np.asarray(zeta, dtype=complex)[..., None] ** np.arange(top + 1)
    return np.einsum("...m,...m->...", weights, zmat)


def sph_dim(n: int, m: int) -> int:
    """Dimension of the space of degree-m spherical harmonics in R^n, integers n >= 2, m >= 0."""
    n, m = check_integer("dimension n", n, 2), check_integer("degree m", m, 0)
    if m == 0:
        return 1
    if n == 2:
        return 2
    return (2 * m + n - 2) * math.comb(m + n - 3, m) // (n - 2)


def polyharmonic_dim(n: int, p: int, m: int) -> int:
    """D_p(m), the dimension of the degree-m order-p homogeneous
    polyharmonics in R^n, integers n >= 2, p >= 1, m >= 0 (check_integer).

    The degree-m homogeneous polynomials are the degree-m harmonics plus
    |x|^2 times the degree-(m-2) polynomials (Axler, Bourdon & Ramey,
    Harmonic Function Theory, ch. 5), so the sum
    D_p(m) = sum_{k<p, 2k<=m} sph_dim(n, m-2k) telescopes to
    C(m+n-1, n-1) - C(m-2p+n-1, n-1), the second term 0 for m < 2p (a
    binomial C(j, n-1) is 0 for 0 <= j < n-1, and j is clamped at 0).  It is
    the sharp bound |Z^p_m(x, y)| <= D_p(m) (|x||y|)^m, since
    Z^p_m = zeta^m sum_k z_{m-2k}(t) and |z_l(t)| <= z_l(1) = sph_dim(n, l)
    on [-1, 1] (Szego, Orthogonal Polynomials, Thm 7.33.1).
    """
    n = check_integer("dimension n", n, 2)
    p, m = check_integer("polyharmonic order p", p, 1), check_integer("degree m", m, 0)
    return math.comb(m + n - 1, n - 1) - math.comb(max(m - 2 * p + n - 1, 0), n - 1)


_LOG_HALF_TINY = -1075.0 * math.log(2.0)
"""log 2^-1075, half the least subnormal: a smaller value rounds to 0."""


def zonal_polyharmonic(
    cfg: KernelConfig, m: int, x: RotatedPoint, y: RotatedPoint
) -> complex:
    """Zonal polyharmonic Z^p_m(x, y) = sum_{k<p, 2k<=m} q^k Z_{m-2k}(x, y).

    At p = 1 this is the extended zonal harmonic
    Z_m(x, y) = e^{i m (phi-psi)} (|a||b|)^m z_m(a.b / |a||b|).
    m is a nonnegative integer (check_integer) no larger than sys.maxsize,
    the longest list; ValueError otherwise, before anything is allocated.

    Where the bound D_p(m) rr^m (polyharmonic_dim), with rr = |x||y| the
    radius product that zeta carries (zonal_terms), is below half the least
    subnormal, 0j, the correctly rounded value, returns at once, with no
    recurrence.  The test runs in log space, with D_p(m) an exact integer,
    and only where rr^m alone is below that, as D_p(m) >= 1;
    a zero rr is replaced by the least subnormal, which only raises the
    bound.  Each logarithm is within a few ulp of its magnitude, so with the
    product by m and the sums the test errs by less than
    2^-50 (log D_p(m) + |m log rr| + 745), and its margin is 2^-40 times
    that sum.
    """
    m = check_integer("degree", m, 0)
    if m > sys.maxsize:
        raise ValueError(f"degree {m} exceeds the longest list, sys.maxsize = {sys.maxsize}")
    check_dimension(cfg, x, y)
    log_rm = m * math.log(max(x.radius * y.radius, 5e-324))
    if log_rm < _LOG_HALF_TINY:
        log_dim = math.log(polyharmonic_dim(cfg.n, cfg.p, m))
        if log_dim + log_rm + 2.0**-40 * (log_dim - log_rm + 745.0) < _LOG_HALF_TINY:
            return 0j
    t, zeta = zonal_terms(x, y)
    return complex(zonal_poly_sum([0.0] * m + [1.0], cfg.p, t, zeta, cfg.n))
