"""Rotated points, complex pair invariants and principal-branch powers.

Every point handled by this package has the form ``z = e^{i*phase} * a`` with
``a`` a real vector; storing (phase, a) keeps all homogeneity factors exact
phase multiplications and avoids complex square roots entirely.  The three
bilinear invariants of a pair of such points,

    s = x . conj(y),   u = |x|^2,   v = |conj(y)|^2,

(with |.|^2 the bilinear sum of squares, not the Hermitian norm) are the only
quantities any kernel formula needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BranchCutProximity

TAU = 2.0 * math.pi


def _as_coords(coords) -> np.ndarray:
    a = np.asarray(coords, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"coordinate vector must be 1-d, got shape {a.shape}")
    return a


@dataclass(frozen=True, eq=False)
class RotatedPoint:
    """A point e^{i*phase} * coords of a rotated ball or sphere.

    Points compare and hash by identity: the generated field-wise equality
    would compare the coords arrays, whose truth value is ambiguous.
    """

    phase: float
    coords: np.ndarray

    @cached_property
    def radius(self) -> float:
        return math.sqrt(self.coords @ self.coords)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]


def make_rotated_point(phase: float, coords) -> RotatedPoint:
    """Validated constructor: normalizes the phase into (-pi, pi].

    Sector phases k*pi/p with 0 <= k < p are fixed points of the
    normalization.
    """
    a = _as_coords(coords)
    if not np.all(np.isfinite(a)) or not math.isfinite(phase):
        raise ValueError("non-finite input to make_rotated_point")
    ph = math.remainder(phase, TAU)
    if ph <= -math.pi:
        ph += TAU
    a = a.copy()
    a.flags.writeable = False
    return RotatedPoint(ph, a)


@dataclass(frozen=True)
class PairInvariants:
    """Bilinear invariants of a pair of rotated points.

    q = u*v and w = 1 - 2s + q are stored so kernel code never rebuilds them
    inconsistently.
    """

    s: complex
    u: complex
    v: complex
    q: complex
    w: complex


def pair_invariants(x: RotatedPoint, y: RotatedPoint) -> PairInvariants:
    """s, u, v, q, w for points x = e^{i*phi} a, y = e^{i*psi} b.

    Purely algebraic; no branch cuts are involved.
    """
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    a, b = x.coords, y.coords
    s = complex(np.exp(1j * (x.phase - y.phase)) * float(a @ b))
    u = complex(np.exp(2j * x.phase) * float(a @ a))
    v = complex(np.exp(-2j * y.phase) * float(b @ b))
    q = u * v
    w = 1.0 - 2.0 * s + q
    return PairInvariants(s=s, u=u, v=v, q=q, w=w)


def principal_pow(w, e: float, eps_branch: float = 1e-12):
    """w**e with the principal logarithm (cut along the non-positive reals).

    w is a complex scalar or a numpy array of them.  Integer exponents are
    the integer power w ** k and never hit the cut.  For
    non-integer e, w = 0 and values with Re(w) <= 0 and
    |Im(w)| < eps_branch * |w| raise BranchCutProximity (for an array, if
    any element does).
    """
    er = round(e)
    if isinstance(w, np.ndarray):
        w = w.astype(complex)
        if e == er:
            if er < 0 and np.any(w == 0):
                raise ZeroDivisionError("principal_pow of 0 to a negative power")
            return w ** int(er)
        near = (w == 0) | ((w.real <= 0) & (np.abs(w.imag) < eps_branch * np.abs(w)))
        if np.any(near):
            raise BranchCutProximity(
                f"{np.count_nonzero(near)} of {w.size} values within "
                f"eps_branch={eps_branch:g} of the branch cut"
            )
        return np.exp(e * np.log(w))
    w = complex(w)
    if e == er:
        # Python's complex ** int is binary powering for |k| <= 100 and
        # raises ZeroDivisionError at 0 for k < 0
        return w ** int(er)
    if w == 0:
        raise BranchCutProximity("principal_pow at 0 with non-integer exponent")
    if w.real <= 0 and abs(w.imag) < eps_branch * abs(w):
        raise BranchCutProximity(
            f"w={w!r} within eps_branch={eps_branch:g} of the branch cut"
        )
    return complex(np.exp(e * np.log(w)))


def unit_ball_volume(n: int) -> float:
    """Volume pi^(n/2) / Gamma(n/2 + 1) of the unit ball in R^n."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return math.exp(0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0))


@dataclass(frozen=True)
class KernelConfig:
    """Dimension, polyharmonic order, weights and numeric guards."""

    n: int
    p: int
    alpha: float = 0.0
    beta: float = 0.0
    eps_branch: float = 1e-12
    eps_sing: float = 1e-12
    r_max: float = 0.95

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"dimension n must be >= 2, got {self.n}")
        if self.p < 1:
            raise ValueError(f"polyharmonic order p must be >= 1, got {self.p}")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError(f"alpha and beta must be finite, got {self.alpha}, {self.beta}")
        if self.n + self.alpha <= 0:
            raise ValueError(f"need n + alpha > 0, got {self.n + self.alpha}")
        if self.beta <= -1:
            raise ValueError(f"need beta > -1, got {self.beta}")
        for name in ("eps_branch", "eps_sing"):
            v = getattr(self, name)
            if not (0 < v <= 1e-8):
                raise ValueError(f"{name} must lie in (0, 1e-8], got {v}")
        if not (0 < self.r_max < 1):
            raise ValueError(f"r_max must lie in (0, 1), got {self.r_max}")

    def sector_phase(self, k: int) -> float:
        """Phase k*pi/p of the k-th rotated copy of the ball."""
        return math.pi * (k % self.p) / self.p
