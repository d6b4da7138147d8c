"""Zonal harmonics and zonal polyharmonics on rotated balls.

The real zonal kernel z_m on S x S is evaluated through one recurrence,
_zonal_rows (Gegenbauer; Chebyshev for the degenerate n = 2 case); the
extension to pairs of rotated ball points multiplies in the exact phase
factor e^{i m (phi-psi)} and the radial homogeneity (|a||b|)^m, i.e.
Z_m(x, y) = zeta^m z_m(t) with zeta = |a||b| e^{i (phi-psi)}.  Zonal
polyharmonics of order p are the finite sums

    Z^p_m(x, y) = sum_{k<p} q^k Z_{m-2k}(x, y),

with q = zeta^2 and terms dropped once m - 2k < 0; t and zeta of a pair come
from core.pair_invariants, as the closed forms' s, q and w do, and those of
a polar grid of pairs from zonal_section.  Every zonal sum in the package
goes through one assembly, zonal_poly_sum.
"""

from __future__ import annotations

import math

import numpy as np

from .core import KernelConfig, RotatedPoint, pair_invariants

BACKEND_NAME = "numpy"
"""Array backend of the zonal recurrence, reported by ``polybergman info``."""

_T_DOMAIN_TOL = 1e-12


def _clip_cosine(t: float) -> float:
    """t clipped to [-1, 1]; ValueError beyond the roundoff margin or NaN."""
    if not abs(t) <= 1.0 + _T_DOMAIN_TOL:
        raise ValueError(f"cosine argument {t} outside [-1, 1]")
    return min(1.0, max(-1.0, t))


def _zonal_rows(s, b, m_max: int, n: int) -> np.ndarray:
    """Rows m = 0..m_max of the homogeneous zonal form b^(m/2) z_m(s / sqrt(b)).

    The Gegenbauer recurrence in homogeneous form,
    m C_m = 2(m+lam-1) s C_{m-1} - (m+2lam-2) b C_{m-2} with lam = (n-2)/2
    (T_m = 2 s T_{m-1} - b T_{m-2} for n = 2), needs no square root, so s
    and b may be complex arrays of one shape or b a scalar.  Written for
    z_m = ((m+lam)/lam) C_m (2 T_m for n = 2) it is one recurrence for
    every n,

        z_m = ((m+lam)/m) (2 s z_{m-1} - c_m b z_{m-2}),
        c_m = (m+2lam-2)/(m+lam-2) for m >= 3, c_2 = 2,

    started from z_0 = 1, z_1 = 2 (1+lam) s.  The two previous rows are
    carried as values of s's own type, so a Python float or complex s runs
    on Python numbers and an array s on whole arrays.
    """
    lam = 0.5 * (n - 2)
    out = np.empty((m_max + 1,) + np.shape(s), dtype=np.result_type(s, b))
    z2, z1 = 1.0, 2.0 * (1.0 + lam) * s
    out[0] = z2
    if m_max >= 1:
        out[1] = z1
    for m in range(2, m_max + 1):
        c = 2.0 if m == 2 else (m + 2.0 * lam - 2.0) / (m + lam - 2.0)
        f = (m + lam) / m
        z2, z1 = z1, (2.0 * f) * s * z1 - (f * c * b) * z2
        out[m] = z1
    return out


def zonal_values(t, m_max: int, n: int) -> np.ndarray:
    """Matrix z_m(t_j) for m = 0..m_max; rows are degrees.

    Accepts a scalar or an array of cosines; the result has shape
    (m_max+1,) + atleast_1d(t).shape.  Conventions: z_0 = 1; for n >= 3,
    z_m = ((m+lam)/lam) * C^lam_m with lam = (n-2)/2 (Gegenbauer); for
    n = 2, z_m = 2 T_m (Chebyshev).  The normalization is pinned by the
    Poisson generating identity sum_m z_m(t) r^m = (1-r^2)/(1-2rt+r^2)^(n/2)
    and by z_m(1) equalling the dimension of the degree-m spherical
    harmonics.  A cosine outside [-1, 1] (beyond roundoff) or NaN raises
    ValueError.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        return _zonal_rows(_clip_cosine(float(t)), 1.0, m_max, n)[:, None]
    if not np.all(np.abs(t) <= 1.0 + _T_DOMAIN_TOL):
        raise ValueError("cosine argument outside [-1, 1]")
    return _zonal_rows(np.clip(t, -1.0, 1.0), 1.0, m_max, n)


def series_coefficients(p: int, g) -> np.ndarray:
    """Matrix C[k, l] = g[l + 2k] of the harmonic rearrangement

        sum_{m<=M} g[m] Z^p_m = sum_{k<p} q^k sum_{l<=M-2k} g[l+2k] Z_l,

    in the form zonal_poly_sum consumes; g holds the weights of degrees
    0..M.  A one-hot g at degree m gives Z^p_m itself.
    """
    g = np.asarray(g)
    top = g.shape[0] - 1
    coef = np.zeros((min(p, top // 2 + 1), top + 1), dtype=g.dtype)
    for k in range(coef.shape[0]):
        coef[k, : top + 1 - 2 * k] = g[2 * k :]
    return coef


def zonal_poly_sum(coef, t, zeta, n: int):
    """sum_k zeta^(2k) sum_l coef[k, l] zeta^l z_l(t), broadcast over t, zeta.

    With t the cosine between the real parts of a pair and zeta = |a||b|
    e^{i (phi-psi)}, zeta^l z_l(t) is the extended harmonic Z_l and
    zeta^2 = q, so this is the single assembly of every zonal
    polyharmonic sum.  t and zeta are scalars or arrays of mutually
    broadcastable shapes and the result has their broadcast shape.  A zero
    radius is zeta = 0 (any t): only the l = 0 column survives.
    """
    coef = np.asarray(coef)
    top = coef.shape[1] - 1
    zeta = np.asarray(zeta, dtype=complex)[..., None]
    zpow = zeta ** np.arange(top + 1)
    qpow = zeta ** np.arange(0, 2 * coef.shape[0], 2)
    # contract k first: when t varies along other axes than zeta (the
    # ball nodes of every sector and radius), no array of that full shape
    # times the degree axis is ever formed
    w = (qpow @ coef) * zpow
    zmat = zonal_values(t, top, n).reshape(top + 1, -1).T.reshape(np.shape(t) + (top + 1,))
    return np.einsum("...l,...l->...", w, zmat)


def zonal_section(coef, x: RotatedPoint, phases, radii, unit: np.ndarray, n: int) -> np.ndarray:
    """zonal_poly_sum(coef, t, zeta, n) at the pairs (x, e^{i phases_k} radii_i unit_j),
    shape (K, I, J).

    The array form of pair_invariants on a polar grid of unit vectors: the
    cosine t = unit_j . x/|x| depends on the node only (0 when x is the
    origin, where zeta = 0) and zeta = |x| radii_i e^{i (phase(x) - phases_k)}
    on the phase and radius only, so one recurrence serves the whole grid.
    """
    rx = x.radius
    t = unit @ (x.coords / rx) if rx else np.zeros(unit.shape[0])
    radii = np.asarray(radii, dtype=float)
    phases = np.asarray(phases, dtype=float)
    zeta = rx * radii[:, None] * np.exp(1j * (x.phase - phases[:, None, None]))
    return zonal_poly_sum(coef, t, zeta, n)


def degree_coefficients(p: int, m: int) -> np.ndarray:
    """zonal_poly_sum coefficients of Z^p_m alone (one-hot weight at m)."""
    g = np.zeros(m + 1)
    g[m] = 1.0
    return series_coefficients(p, g)


def sph_dim(n: int, m: int) -> int:
    """Dimension of the space of degree-m spherical harmonics in R^n."""
    if n < 2 or m < 0:
        raise ValueError(f"invalid range n={n}, m={m}")
    if m == 0:
        return 1
    if n == 2:
        return 2
    return (2 * m + n - 2) * math.comb(m + n - 3, m) // (n - 2)


def zonal_polyharmonic(
    cfg: KernelConfig, m: int, x: RotatedPoint, y: RotatedPoint
) -> complex:
    """Zonal polyharmonic Z^p_m(x, y) = sum_{k<p, 2k<=m} q^k Z_{m-2k}(x, y).

    At p = 1 this is the extended zonal harmonic
    Z_m(x, y) = e^{i m (phi-psi)} (|a||b|)^m z_m(a.b / |a||b|).
    """
    if m < 0:
        raise ValueError(f"degree must be >= 0, got {m}")
    if x.dim != y.dim or x.dim != cfg.n:
        raise ValueError(f"dimension mismatch: n={cfg.n}, x:{x.dim}, y:{y.dim}")
    inv = pair_invariants(x, y)
    return complex(zonal_poly_sum(degree_coefficients(cfg.p, m), inv.t, inv.zeta, cfg.n))


def _growth_ratios(cfg: KernelConfig, m_max: int, samples: int) -> np.ndarray:
    """max over sphere-pair cosines of |Z^p_m| / (p * m^(n-2)) for m = 1..m_max.

    The modulus of Z^p_m at sector sphere points equals its value at the
    underlying real pair, where zeta = 1 and Z^p_m(t) = sum_{k<p, 2k<=m}
    z_{m-2k}(t); so one recurrence on a cosine grid (endpoints included)
    serves every degree.  The maximum sits at t = 1.
    """
    if m_max < 1:
        raise ValueError(f"degree must be >= 1, got {m_max}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    z = zonal_values(np.linspace(-1.0, 1.0, max(2, samples)), m_max, cfg.n)
    zp = z.copy()
    for k in range(1, min(cfg.p, m_max // 2 + 1)):
        zp[2 * k :] += z[: m_max + 1 - 2 * k]
    m = np.arange(1, m_max + 1, dtype=float)
    return np.max(np.abs(zp[1:]), axis=1) / (cfg.p * m ** (cfg.n - 2))


def zonal_growth_ratio(cfg: KernelConfig, m: int, samples: int) -> float:
    """max over sphere-pair cosines of |Z^p_m| / (p * m^(n-2)); see
    _growth_ratios."""
    return float(_growth_ratios(cfg, m, samples)[-1])
