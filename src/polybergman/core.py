"""Rotated points, the pair invariants and principal-branch powers.

Every point handled by this package has the form ``z = e^{i*phase} * a`` with
``a`` a real vector; storing (phase, a) keeps all homogeneity factors exact
phase multiplications and avoids complex square roots entirely.  Every
kernel formula reads a pair x = e^{i*phi} a, y = e^{i*psi} b through one
record, pair_invariants(x, y): the closed forms read s = x . conj(y),
q = |x|^2 |conj(y)|^2 (bilinear squares, not Hermitian norms) and
w = 1 - 2s + q; the zonal series read the cosine t = a.b / (|a||b|) and
zeta = |a||b| e^{i(phi-psi)}, with s = zeta t and q = zeta^2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import BranchCutProximity

TAU = 2.0 * math.pi
EPS_BRANCH = 1e-12  # principal_pow raises within this relative distance of its cut
EPS_SING = 1e-12  # closed forms raise NearSingular within this of |x||y| = 1 or w = 0


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
    def norm2(self) -> float:
        return float(self.coords @ self.coords)

    @cached_property
    def radius(self) -> float:
        return math.sqrt(self.norm2)

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


class PairInvariants(NamedTuple):
    """Everything a kernel formula reads about a pair of rotated points:
    s, q and w = 1 - 2s + q for the closed forms, the cosine t and zeta for
    the zonal series (s = zeta t, q = zeta^2 up to rounding), all from one
    phase factor, one dot product a.b and the points' cached norms."""

    s: complex
    q: complex
    w: complex
    t: float
    zeta: complex


def pair_invariants(x: RotatedPoint, y: RotatedPoint) -> PairInvariants:
    """s, q, w, t, zeta for points x = e^{i*phi} a, y = e^{i*psi} b.

    s = e^{i(phi-psi)} a.b, zeta = |a||b| e^{i(phi-psi)}, t = a.b / (|a||b|)
    clipped to [-1, 1] (0 at a zero radius, where zeta = 0), and
    q = e^{2i(phi-psi)} (a.a)(b.b), not the square of the rounded zeta, whose
    two square roots add roundings that the Bergman numerator's cancellation
    near the boundary amplifies.
    """
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    rot = cmath.exp(1j * (x.phase - y.phase))
    ab = float(x.coords @ y.coords)
    rr = x.radius * y.radius
    t = 0.0 if rr == 0.0 else min(1.0, max(-1.0, ab / rr))
    zeta = rr * rot
    s = rot * ab
    q = rot * rot * (x.norm2 * y.norm2)
    return PairInvariants(s, q, 1.0 - 2.0 * s + q, t, zeta)


def principal_pow(w, e: float, eps_branch: float = EPS_BRANCH):
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


def check_weight_parameters(n: int, alpha: float, beta: float) -> None:
    """ValueError unless the weight |y|^alpha (1-|y|^2)^beta is integrable on
    the n-ball with finite alpha, beta; negated comparisons reject NaN."""
    if not (math.isfinite(alpha) and math.isfinite(beta) and n + alpha > 0 and beta > -1):
        raise ValueError(f"need finite alpha, beta, n + alpha > 0, beta > -1; got {alpha}, {beta}")


@dataclass(frozen=True)
class KernelConfig:
    """Dimension, polyharmonic order, weights and the series radius bound."""

    n: int
    p: int
    alpha: float = 0.0
    beta: float = 0.0
    r_max: float = 0.95
    eps_branch: ClassVar[float] = EPS_BRANCH
    eps_sing: ClassVar[float] = EPS_SING

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"dimension n must be >= 2, got {self.n}")
        if self.p < 1:
            raise ValueError(f"polyharmonic order p must be >= 1, got {self.p}")
        check_weight_parameters(self.n, self.alpha, self.beta)
        if not (0 < self.r_max < 1):
            raise ValueError(f"r_max must lie in (0, 1), got {self.r_max}")

    def sector_phase(self, k: int) -> float:
        """Phase k*pi/p of the k-th rotated copy of the ball."""
        return math.pi * (k % self.p) / self.p

    def sector_phases(self) -> np.ndarray:
        """Phases k*pi/p of all p rotated copies, k = 0..p-1."""
        return math.pi * np.arange(self.p) / self.p
