"""Zonal harmonics and zonal polyharmonics on rotated balls.

The real zonal kernel z_m on S x S is evaluated through the Gegenbauer
recurrence (Chebyshev for the degenerate n = 2 case); the extension to pairs
of rotated ball points multiplies in the exact phase factor e^{i m (phi-psi)}
and the radial homogeneity (|a||b|)^m, i.e. Z_m(x, y) = zeta^m z_m(t) with
zeta = |a||b| e^{i (phi-psi)}.  Zonal polyharmonics of order p are the
finite sums

    Z^p_m(x, y) = sum_{k<p} u^k v^k Z_{m-2k}(x, y),

with u, v the bilinear pair invariants and terms dropped once m - 2k < 0.
Every zonal sum in the package goes through one assembly, zonal_poly_sum.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import KernelConfig, RotatedPoint, pair_invariants

BACKEND_NAME = "numpy"
"""Array backend of the zonal recurrence, reported by ``polybergman info``."""

_T_DOMAIN_TOL = 1e-12


@dataclass(frozen=True)
class ZonalParams:
    """Gegenbauer index lam = (n-2)/2 attached to a dimension."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"dimension must be >= 2, got {self.n}")

    @property
    def lam(self) -> float:
        return 0.5 * (self.n - 2)


def gegenbauer(m: int, lam: float, t: float) -> float:
    """Gegenbauer polynomial C^lam_m(t) by the three-term recurrence."""
    if m < 0:
        raise ValueError(f"degree must be >= 0, got {m}")
    if lam <= 0:
        raise ValueError(f"gegenbauer index must be positive, got {lam}")
    if abs(t) > 1.0 + _T_DOMAIN_TOL:
        raise ValueError(f"argument {t} outside [-1, 1]")
    t = min(1.0, max(-1.0, t))
    if m == 0:
        return 1.0
    cm2, cm1 = 1.0, 2.0 * lam * t
    for k in range(2, m + 1):
        cm2, cm1 = cm1, (2.0 * t * (k + lam - 1.0) * cm1 - (k + 2.0 * lam - 2.0) * cm2) / k
    return cm1


def chebyshev_t(m: int, t: float) -> float:
    """Chebyshev polynomial T_m(t), the n = 2 degenerate zonal backbone."""
    if m < 0:
        raise ValueError(f"degree must be >= 0, got {m}")
    if abs(t) > 1.0 + _T_DOMAIN_TOL:
        raise ValueError(f"argument {t} outside [-1, 1]")
    t = min(1.0, max(-1.0, t))
    if m == 0:
        return 1.0
    tm2, tm1 = 1.0, t
    for _ in range(2, m + 1):
        tm2, tm1 = tm1, 2.0 * t * tm1 - tm2
    return tm1


def zonal_values(t, m_max: int, n: int) -> np.ndarray:
    """Matrix z_m(t_j) for m = 0..m_max; rows are degrees.

    Accepts a scalar or an array of cosines; the result has shape
    (m_max+1,) + atleast_1d(t).shape.  Conventions: z_0 = 1; for n >= 3,
    z_m = ((m+lam)/lam) * C^lam_m with lam = (n-2)/2 (Gegenbauer); for
    n = 2, z_m = 2 T_m (Chebyshev).  The normalization is pinned by the
    Poisson generating identity sum_m z_m(t) r^m = (1-r^2)/(1-2rt+r^2)^(n/2)
    and by z_m(1) equalling the dimension of the degree-m spherical
    harmonics.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(np.abs(t) > 1.0 + _T_DOMAIN_TOL):
        raise ValueError("cosine argument outside [-1, 1]")
    t = np.clip(t, -1.0, 1.0)
    out = np.empty((m_max + 1,) + t.shape)
    out[0] = 1.0
    if m_max == 0:
        return out
    if n == 2:
        tm2 = np.ones_like(t)
        tm1 = t
        out[1] = 2.0 * t
        for m in range(2, m_max + 1):
            cur = 2.0 * t * tm1 - tm2
            out[m] = 2.0 * cur
            tm2, tm1 = tm1, cur
    else:
        lam = 0.5 * (n - 2)
        cm2 = np.ones_like(t)
        cm1 = 2.0 * lam * t
        out[1] = ((1.0 + lam) / lam) * cm1
        for m in range(2, m_max + 1):
            cur = (2.0 * t * (m + lam - 1.0) * cm1 - (m + 2.0 * lam - 2.0) * cm2) / m
            out[m] = ((m + lam) / lam) * cur
            cm2, cm1 = cm1, cur
    return out


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


def zonal_poly_sum(coef, t, zeta, q, n: int):
    """sum_k q^k sum_l coef[k, l] zeta^l z_l(t), broadcast over t, zeta, q.

    With t the cosine between the real parts of a pair, zeta = |a||b|
    e^{i (phi-psi)} and q = uv, zeta^l z_l(t) is the extended harmonic
    Z_l, so this is the single assembly of every zonal polyharmonic sum.
    t, zeta and q are scalars or arrays of mutually broadcastable shapes and
    the result has their broadcast shape.  A zero radius is zeta = 0 (any t):
    only the l = 0 column survives.
    """
    coef = np.asarray(coef)
    top = coef.shape[1] - 1
    zpow = np.asarray(zeta, dtype=complex)[..., None] ** np.arange(top + 1)
    qpow = np.asarray(q, dtype=complex)[..., None] ** np.arange(coef.shape[0])
    # contract k first: when t varies along other axes than zeta and q (the
    # ball nodes of every sector and radius), no array of that full shape
    # times the degree axis is ever formed
    w = (qpow @ coef) * zpow
    zmat = zonal_values(t, top, n).reshape(top + 1, -1).T.reshape(np.shape(t) + (top + 1,))
    return np.einsum("...l,...l->...", w, zmat)


def zonal_pair_args(x: RotatedPoint, y: RotatedPoint):
    """(t, zeta, q) of zonal_poly_sum for one pair of rotated points."""
    rr = x.radius * y.radius
    t = 0.0 if rr == 0.0 else min(1.0, max(-1.0, float(x.coords @ y.coords) / rr))
    return t, rr * cmath.exp(1j * (x.phase - y.phase)), pair_invariants(x, y).q


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


def zonal_harmonic(n: int, m: int, x: RotatedPoint, y: RotatedPoint) -> complex:
    """Extended zonal harmonic Z_m(x, y) for rotated ball points.

    Z_m(x, y) = e^{i m (phi-psi)} (|a||b|)^m z_m(a.b / |a||b|); degree-m
    homogeneous in the first slot and conjugate-homogeneous in the second.
    """
    if m < 0:
        raise ValueError(f"degree must be >= 0, got {m}")
    if x.dim != y.dim or x.dim != n:
        raise ValueError(f"dimension mismatch: n={n}, x:{x.dim}, y:{y.dim}")
    coef = degree_coefficients(1, m)
    return complex(zonal_poly_sum(coef, *zonal_pair_args(x, y), n))


def zonal_polyharmonic(
    cfg: KernelConfig, m: int, x: RotatedPoint, y: RotatedPoint
) -> complex:
    """Zonal polyharmonic Z^p_m(x, y) = sum_{k<p, 2k<=m} (uv)^k Z_{m-2k}(x, y)."""
    if m < 0:
        raise ValueError(f"degree must be >= 0, got {m}")
    if x.dim != y.dim or x.dim != cfg.n:
        raise ValueError(f"dimension mismatch: n={cfg.n}, x:{x.dim}, y:{y.dim}")
    coef = degree_coefficients(cfg.p, m)
    return complex(zonal_poly_sum(coef, *zonal_pair_args(x, y), cfg.n))


@lru_cache(maxsize=None)
def zonal_coefficients(n: int, m: int) -> tuple[float, ...]:
    """Coefficients (c_0, c_1, ...) with z_m(t) = sum_j c_j t^(m-2j).

    Needed to evaluate zonal blocks at general complex vectors, where only
    the bilinear products z.pole and |z|^2 are available.
    """
    if m == 0:
        return (1.0,)
    if n == 2:
        prev2 = np.array([1.0])
        prev1 = np.array([1.0, 0.0])
        for k in range(2, m + 1):
            cur = np.zeros(k + 1)
            cur[:-1] += 2.0 * prev1
            cur[2:] -= prev2
            prev2, prev1 = prev1, cur
        dense = 2.0 * prev1
    else:
        lam = 0.5 * (n - 2)
        prev2 = np.array([1.0])
        prev1 = np.array([2.0 * lam, 0.0])
        for k in range(2, m + 1):
            cur = np.zeros(k + 1)
            cur[:-1] += 2.0 * (k + lam - 1.0) / k * prev1
            cur[2:] -= (k + 2.0 * lam - 2.0) / k * prev2
            prev2, prev1 = prev1, cur
        dense = (m + lam) / lam * prev1
    # dense[i] multiplies t^(m-i); odd i entries vanish by parity
    return tuple(float(dense[2 * j]) for j in range(m // 2 + 1))


def zonal_harmonic_complex(n: int, m: int, z: np.ndarray, pole: np.ndarray):
    """Z_m(z, pole) for a batch of general complex vectors z (shape (N, n)).

    Uses the polynomial form sum_j c_j (z.pole)^(m-2j) (|z|^2)^j, the
    holomorphic continuation of the real zonal harmonic in its first slot;
    pole must be a real unit vector.
    """
    z = np.asarray(z, dtype=complex)
    s = z @ pole
    if m == 0:
        return np.ones_like(s)
    bil = np.sum(z * z, axis=-1)
    out = np.zeros_like(s)
    for j, c in enumerate(zonal_coefficients(n, m)):
        out += c * s ** (m - 2 * j) * bil**j
    return out


def zonal_growth_ratio(cfg: KernelConfig, m: int, samples: int) -> float:
    """max over sphere-pair cosines of |Z^p_m| / (p * m^(n-2)).

    The modulus of Z^p_m at sector sphere points equals its value at the
    underlying real pair, so a cosine grid (endpoints included) covers the
    maximum; it sits at t = 1.
    """
    if m < 1:
        raise ValueError(f"degree must be >= 1, got {m}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    t = np.linspace(-1.0, 1.0, max(2, samples))
    tot = zonal_poly_sum(degree_coefficients(cfg.p, m), t, 1.0, 1.0, cfg.n)
    return float(np.max(np.abs(tot)) / (cfg.p * float(m) ** (cfg.n - 2)))
