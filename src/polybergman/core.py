"""Rotated points, the pair invariants and principal-branch powers.

Every point handled by this package has the form ``z = e^{i*phase} * a`` with
``a`` a real vector; storing (phase, a) keeps all homogeneity factors exact
phase multiplications and avoids complex square roots entirely.  Each
route of a kernel reads a pair x = e^{i*phi} a, y = e^{i*psi} b through its
own function, after the one dimension check (check_dimension): the closed
forms read closed_terms(x, y), that is s = x . conj(y),
q = |x|^2 |conj(y)|^2 (bilinear squares, not Hermitian norms) and
w = 1 - 2s + q; the zonal series read zonal_terms(x, y), the cosine
t = a.b / (|a||b|) and zeta = |a||b| e^{i(phi-psi)}, with s = zeta t and
q = zeta^2.  The public record pair_invariants(x, y) holds all five, built
from the two functions; no route reads it.  A point is checked, converted
and frozen by its own constructor, as KernelConfig is, and stores what the
pair layer reads: its coordinates as a tuple of floats, its squared norm
and its radius.  So a closed form spends a few Python operations per pair,
where a numpy call on 2-5 coordinates costs a µs.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
import sys
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import BranchCutProximity

TAU = 2.0 * math.pi
EPS_BRANCH = 1e-12  # principal_pow raises within this relative distance of its cut
EPS_SING = 1e-12  # closed forms raise NearSingular within this of |x||y| = 1 or w = 0


def reduce_by_constructor(value):
    """__reduce__ of the frozen value types that hold arrays: pickle and
    copy rebuild a value from its init fields through its constructor, which
    checks it and makes its arrays read-only again; numpy does not keep the
    writeable flag of a copied array."""
    return type(value), tuple(getattr(value, f.name) for f in fields(value) if f.init)


@dataclass(frozen=True, eq=False)
class RotatedPoint:
    """A point e^{i*phase} * coords of a rotated ball or sphere, checked and
    frozen when it is built; make_rotated_point is the same constructor.

    The phase is a real number (check_real), normalized into (-pi, pi],
    where the sector phases k*pi/p, 0 <= k < p, are fixed points; coords is
    a non-empty 1-d vector of finite reals (numpy integer or float dtype;
    no bools, complex numbers or strings) whose squared norm is finite;
    ValueError otherwise.  The point stores a read-only float copy of
    coords and, at construction, all that the pair terms read: the
    coordinates as a tuple of Python floats (float_coords), the squared
    norm coords @ coords and the radius, sqrt(norm2), or math.hypot of the
    coordinates where norm2 is below the least normal float.

    Points compare and hash by identity: the generated field-wise equality
    would compare the coords arrays, whose truth value is ambiguous.
    """

    phase: float
    coords: np.ndarray
    float_coords: tuple[float, ...] = field(init=False, repr=False)
    norm2: float = field(init=False, repr=False)
    radius: float = field(init=False, repr=False)

    def __post_init__(self):
        phase = check_real("phase", self.phase)
        a = np.array(self.coords)  # a copy, whatever the caller passed
        if a.dtype.kind not in "iuf" or a.ndim != 1 or a.size == 0:
            raise ValueError(f"coordinates must be a non-empty real vector, got {self.coords!r}")
        a = a.astype(float, copy=False)
        a.flags.writeable = False
        coords = tuple(a.tolist())
        if not (math.isfinite(phase) and all(map(math.isfinite, coords))):
            raise ValueError(f"non-finite point: phase {phase!r}, coordinates {coords!r}")
        if (hypot := math.hypot(*coords)) > 1e154:  # below it, a @ a cannot overflow
            with np.errstate(over="ignore"):
                if math.isinf(a @ a):
                    raise ValueError(f"squared norm of coordinates {coords!r} overflows")
        phase = math.remainder(phase, TAU)
        norm2 = float(a @ a)
        object.__setattr__(self, "phase", phase + TAU if phase <= -math.pi else phase)
        object.__setattr__(self, "coords", a)
        object.__setattr__(self, "float_coords", coords)
        object.__setattr__(self, "norm2", norm2)
        # a @ a below the least normal float has lost bits or underflowed
        # to 0, where hypot keeps the radius of a point that is not the origin
        object.__setattr__(self, "radius", math.sqrt(norm2) if norm2 >= sys.float_info.min else hypot)

    __reduce__ = reduce_by_constructor

    @property
    def dim(self) -> int:
        return len(self.float_coords)


make_rotated_point = RotatedPoint


def closed_terms(x: RotatedPoint, y: RotatedPoint) -> tuple[complex, complex, complex]:
    """(s, q, w), the closed forms' terms of points x = e^{i*phi} a and
    y = e^{i*psi} b of one dimension, which the caller checks.

    s = e^{i(phi-psi)} a.b, q = e^{2i(phi-psi)} (a.a)(b.b), not the square
    of a rounded zeta, whose two square roots add roundings that the
    Bergman numerator's cancellation near the boundary amplifies, and
    w = 1 - 2s + q.  a.b is math.fsum of the products of the points'
    stored float_coords (each product rounded once, their sum exactly),
    and the tuple is a plain one: a closed form reads no cosine and no
    zeta, and builds no record.
    """
    rot = cmath.exp(1j * (x.phase - y.phase))
    s = rot * math.fsum(map(operator.mul, x.float_coords, y.float_coords))
    q = rot * rot * (x.norm2 * y.norm2)
    return s, q, 1.0 - 2.0 * s + q


def zonal_terms(x: RotatedPoint, y: RotatedPoint) -> tuple[float, complex]:
    """(t, zeta), the zonal series' terms of points x = e^{i*phi} a and
    y = e^{i*psi} b of one dimension, which the caller checks.

    t = a.b / (|a||b|) clipped to [-1, 1] (0 at a zero radius, where
    zeta = 0) and zeta = |a||b| e^{i(phi-psi)}, from the same phase factor
    and the same math.fsum of a.b as closed_terms, so s = zeta t and
    q = zeta^2 up to rounding.
    """
    rr = x.radius * y.radius
    t = 0.0 if rr == 0.0 else math.fsum(map(operator.mul, x.float_coords, y.float_coords)) / rr
    if t > 1.0:
        t = 1.0
    elif t < -1.0:
        t = -1.0
    return t, rr * cmath.exp(1j * (x.phase - y.phase))


class PairInvariants(NamedTuple):
    """Both routes' terms of a pair of rotated points: s, q and w for the
    closed forms (closed_terms), the cosine t and zeta for the zonal series
    (zonal_terms)."""

    s: complex
    q: complex
    w: complex
    t: float
    zeta: complex


_tuple_new = tuple.__new__  # PairInvariants without its Python-level __new__


def pair_invariants(x: RotatedPoint, y: RotatedPoint) -> PairInvariants:
    """s, q, w, t, zeta for points x = e^{i*phi} a, y = e^{i*psi} b, as
    closed_terms and zonal_terms compute them, after the dimension check
    (ValueError); the record is built by tuple.__new__, which skips the
    NamedTuple's Python-level __new__.  No route of the library reads it:
    each reads its own term function.
    """
    if len(x.float_coords) != len(y.float_coords):
        raise ValueError(f"dimension mismatch: {len(x.float_coords)} vs {len(y.float_coords)}")
    return _tuple_new(PairInvariants, closed_terms(x, y) + zonal_terms(x, y))


def check_dimension(cfg: KernelConfig, x: RotatedPoint, y: RotatedPoint) -> None:
    """ValueError unless both points have dimension cfg.n: the one check of
    a pair's dimension for the kernels and zonal_polyharmonic, on the
    lengths of the stored float_coords, as a closed form costs a few µs and
    each numpy attribute read is a noticeable share of it."""
    if len(x.float_coords) != cfg.n or len(y.float_coords) != cfg.n:
        raise ValueError(f"dimension mismatch: n={cfg.n}, x:{x.dim}, y:{y.dim}")


def principal_pow(w, e: float, eps_branch: float = EPS_BRANCH):
    """w**e with the principal logarithm (cut along the non-positive reals).

    w is a complex scalar or a numpy array of them.  Integer exponents are
    the integer power w ** k and never hit the cut.  For
    non-integer e, w = 0 and values with Re(w) <= 0 and
    |Im(w)| < eps_branch * |w| raise BranchCutProximity (for an array, if
    any element does).  A half-integer e (the kernels' n/2 at odd n) is
    w ** (e - 1/2) * sqrt(w): the principal square root has the same cut,
    and the result is within a few ulp, where exp(e log w), which serves
    every other e, carries the rounding of e log w times |e log w|.

    A Python complex (the w of closed_terms) takes the scalar route
    after one type test; any other scalar (a float, a numpy complex) is
    converted to complex first, and an array takes the numpy route.  The
    scalar and array routes agree to a few ulp, not bit for bit: numpy's
    complex multiply and log round differently from CPython's.
    """
    frac = e % 1.0  # 0 for an integer e, 0.5 for a half-integer one
    if type(w) is not complex:
        if isinstance(w, np.ndarray):
            w = w.astype(complex, copy=False)  # never written to
            if frac == 0.0:
                if e < 0 and np.any(w == 0):
                    raise ZeroDivisionError("principal_pow of 0 to a negative power")
                return w ** int(e)
            mod = np.abs(w)
            near = (mod == 0) | ((w.real <= 0) & (np.abs(w.imag) < eps_branch * mod))
            if np.any(near):
                raise BranchCutProximity(
                    f"{np.count_nonzero(near)} of {w.size} values within "
                    f"eps_branch={eps_branch:g} of the branch cut"
                )
            if frac == 0.5:
                # an integer exponent: numpy's complex power by a float one
                # (and by 1) is a general power, several times the cost
                k = int(e - 0.5)
                return (w if k == 1 else w**k) * np.sqrt(w)
            return np.exp(e * np.log(w))
        w = complex(w)
    if frac == 0.0:
        # Python's complex ** int is binary powering for |k| <= 100 and
        # raises ZeroDivisionError at 0 for k < 0
        return w ** int(e)
    if w == 0:
        raise BranchCutProximity("principal_pow at 0 with non-integer exponent")
    if w.real <= 0 and abs(w.imag) < eps_branch * abs(w):
        raise BranchCutProximity(
            f"w={w!r} within eps_branch={eps_branch:g} of the branch cut"
        )
    if frac == 0.5:
        # an integral float exponent takes the same binary powering
        return w ** (e - 0.5) * cmath.sqrt(w)
    return cmath.exp(e * cmath.log(w))


def unit_ball_volume(n: int) -> float:
    """Volume pi^(n/2) / Gamma(n/2 + 1) of the unit ball in R^n, integer n >= 1."""
    n = check_integer("dimension n", n, 1)
    return math.exp(0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0))


@lru_cache(maxsize=None)
def sphere_area(n: int) -> float:
    """n Vol_n, the area of the unit sphere in R^n: the Bergman kernels'
    normalization and the ball rules' polar factor, computed once per n."""
    return n * unit_ball_volume(n)


def check_integer(name: str, value, low: int) -> int:
    """value as an int, if it is an integer (numpy integers pass, bools do
    not) and at least low; ValueError otherwise."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        k = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if k < low:
        raise ValueError(f"{name} must be >= {low}, got {k}")
    return k


def check_real(name: str, value) -> float:
    """value as a float, if it is a real number (numpy reals pass; bools,
    strings and complex numbers do not); ValueError otherwise.  A float
    returns at once: the numbers.Real test costs about 1 µs."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def check_weight_parameters(n: int, alpha, beta) -> tuple[float, float]:
    """(alpha, beta) as floats; ValueError unless both are real numbers
    (check_real) and the weight |y|^alpha (1-|y|^2)^beta is integrable on
    the n-ball with finite alpha, beta; negated comparisons reject NaN."""
    alpha, beta = check_real("alpha", alpha), check_real("beta", beta)
    if not (math.isfinite(alpha) and math.isfinite(beta) and n + alpha > 0 and beta > -1):
        raise ValueError(f"need finite alpha, beta, n + alpha > 0, beta > -1; got {alpha}, {beta}")
    return alpha, beta


@dataclass(frozen=True)
class KernelConfig:
    """Dimension, polyharmonic order, weights and the series radius bound.

    Checked and frozen when it is built.
    """

    n: int
    p: int
    alpha: float = 0.0
    beta: float = 0.0
    r_max: float = 0.95
    eps_branch: ClassVar[float] = EPS_BRANCH

    def __post_init__(self):
        # stored as Python ints, so a numpy integer behaves as its value
        object.__setattr__(self, "n", check_integer("dimension n", self.n, 2))
        object.__setattr__(self, "p", check_integer("polyharmonic order p", self.p, 1))
        # stored as floats, so a bool or a string never reaches a formula
        alpha, beta = check_weight_parameters(self.n, self.alpha, self.beta)
        r_max = check_real("r_max", self.r_max)
        if not (0 < r_max < 1):
            raise ValueError(f"r_max must lie in (0, 1), got {r_max}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "r_max", r_max)

    def sector_phase(self, k: int) -> float:
        """Phase k*pi/p of the k-th rotated copy of the ball, for an integer
        k taken modulo p (check_integer: bools and floats raise ValueError)."""
        return math.pi * (check_integer("sector index k", k, -math.inf) % self.p) / self.p

    def sector_phases(self) -> np.ndarray:
        """Phases k*pi/p of all p rotated copies, k = 0..p-1: one read-only
        array per p, built once and shared by every configuration."""
        return _sector_phases(self.p)


@lru_cache(maxsize=None)
def _sector_phases(p: int) -> np.ndarray:
    phases = math.pi * np.arange(p) / p
    phases.flags.writeable = False
    return phases
