"""Polyharmonic polynomial test functions and the rotated mean-value formula.

Test polynomials are finite sums of blocks c * |x|^(2k) * Z_d(x, pole) with
k below the polyharmonic order, so membership in the order-p class holds by
construction; quadrature.laplacian_power_residual checks it independently.
Points, rotated or general complex vectors, evaluate along one route:
eval_complex, the bilinear polynomial form of each block.

On a polar grid e^{i phases_k} radii_i unit_j, test polynomials and kernel
sections are separable, and _stacked_factors is the one producer of their
factors, for the cubature contractions that read them: reproduce and the
two-polynomial inner product of quadrature, and the centred mean_value_eval.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .core import EPS_SING, KernelConfig, RotatedPoint, check_integer, check_real, principal_pow, reduce_by_constructor
from .errors import NearSingular
from .zonal import _degree_weights, _zonal_iter, zonal_values


@dataclass(frozen=True, eq=False)
class ZonalBlock:
    """x -> coeff * |x|^(2k) * Z_d(x, pole); homogeneous of degree d + 2k.

    Checked and frozen when it is built: k and d are stored as ints, the
    pole as a read-only float copy of a real 1-d unit vector (to 1e-12) and
    the coefficient as a finite Python complex; ValueError otherwise.
    Blocks compare and hash by identity, as rotated points do: the pole is
    an array.
    """

    k: int
    d: int
    pole: np.ndarray
    coeff: complex

    def __post_init__(self):
        object.__setattr__(self, "k", check_integer("block radial index k", self.k, 0))
        object.__setattr__(self, "d", check_integer("block harmonic degree d", self.d, 0))
        pole = np.array(self.pole)  # a copy, whatever the caller passed
        # the negated comparison rejects a NaN norm
        if pole.dtype.kind not in "iuf" or pole.ndim != 1 or not abs(np.linalg.norm(pole) - 1.0) <= 1e-12:
            raise ValueError(f"block pole must be a real unit vector, got {self.pole!r}")
        pole = pole.astype(float, copy=False)
        pole.flags.writeable = False
        object.__setattr__(self, "pole", pole)
        c = self.coeff
        if isinstance(c, bool) or not isinstance(c, numbers.Complex) or not cmath.isfinite(c):
            raise ValueError(f"block coefficient must be a finite number, got {c!r}")
        object.__setattr__(self, "coeff", complex(c))

    __reduce__ = reduce_by_constructor

    @property
    def degree(self) -> int:
        return self.d + 2 * self.k


@dataclass(frozen=True)
class PolyharmonicPolynomial:
    """Sum of its blocks, stored as a tuple of ZonalBlocks of dimension n
    and radial index below the order p.

    Checked and frozen when it is built, and it stores its blocks' fields
    as read-only arrays in block order, which the polar-grid factors
    (_stacked_factors) and eval_complex read: the radial indices k and
    harmonic degrees d (ints, shape (B,)), the coefficients coeff (complex,
    shape (B,)) and the poles (float, shape (B, n)).  They do not take
    part in equality, which compares the block tuples.
    """

    blocks: tuple
    n: int
    p: int
    k: np.ndarray = field(init=False, repr=False, compare=False)
    d: np.ndarray = field(init=False, repr=False, compare=False)
    coeff: np.ndarray = field(init=False, repr=False, compare=False)
    poles: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", check_integer("dimension n", self.n, 2))
        object.__setattr__(self, "p", check_integer("polyharmonic order p", self.p, 1))
        object.__setattr__(self, "blocks", tuple(self.blocks))
        for b in self.blocks:
            if not isinstance(b, ZonalBlock):
                raise ValueError(f"blocks must be ZonalBlocks, got {b!r}")
            if b.k >= self.p:
                raise ValueError(f"block radial index {b.k} not below order {self.p}")
            if b.pole.shape != (self.n,):
                raise ValueError("block pole dimension mismatch")
        object.__setattr__(self, "k", np.array([b.k for b in self.blocks], dtype=int))
        object.__setattr__(self, "d", np.array([b.d for b in self.blocks], dtype=int))
        object.__setattr__(self, "coeff", np.array([b.coeff for b in self.blocks], dtype=complex))
        object.__setattr__(self, "poles", np.array([b.pole for b in self.blocks], dtype=float).reshape(-1, self.n))
        for array in (self.k, self.d, self.coeff, self.poles):
            array.flags.writeable = False

    __reduce__ = reduce_by_constructor

    @property
    def degree(self) -> int:
        return max((b.degree for b in self.blocks), default=0)

    def __call__(self, x: RotatedPoint) -> complex:
        return evaluate(self, x)


def _random_blocks(cfg: KernelConfig, degree: int, blocks: int, seed: int, homogeneous: bool):
    """Seeded random test polynomial of total degree <= degree (== degree
    when homogeneous); per block, in this draw order: radial index uniform
    below the order, harmonic degree uniform within the bound (unless
    homogeneous), pole uniform on the sphere, coefficient uniform in the unit
    square of the complex plane."""
    if degree < 0 or blocks < 1:
        raise ValueError("need degree >= 0 and blocks >= 1")
    rng = np.random.default_rng(seed)
    out = []
    k_hi = min(cfg.p - 1, degree // 2)
    for _ in range(blocks):
        k = int(rng.integers(0, k_hi + 1))
        d = degree - 2 * k if homogeneous else int(rng.integers(0, degree - 2 * k + 1))
        pole = rng.normal(size=cfg.n)
        pole /= np.linalg.norm(pole)
        coeff = complex(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
        out.append(ZonalBlock(k=k, d=d, pole=pole, coeff=coeff))
    return PolyharmonicPolynomial(blocks=tuple(out), n=cfg.n, p=cfg.p)


def random_polyharmonic(
    cfg: KernelConfig, max_total_degree: int, blocks: int, seed: int
) -> PolyharmonicPolynomial:
    """Seeded random test polynomial of total degree <= max_total_degree."""
    return _random_blocks(cfg, max_total_degree, blocks, seed, homogeneous=False)


def random_homogeneous(
    cfg: KernelConfig, degree: int, blocks: int, seed: int
) -> PolyharmonicPolynomial:
    """Random element of the homogeneous degree-`degree` order-p class."""
    return _random_blocks(cfg, degree, blocks, seed, homogeneous=True)


def _stacked_factors(phases, radii, unit, polys, section=None):
    """Separable factors of each polynomial in polys and, for
    section = (coef, x), of that kernel section, all on the polar grid
    e^{i phases_k} radii_i unit_j and from one zonal recurrence: the only
    producer of polar-grid factors.

    A polynomial there is sum_b rot[b, k] rad[b, i] zon[b, j]: a block
    c |x|^(2k) Z_d(x, pole) at a grid point is c e^{i deg phases_k}
    radii_i^deg Z_d(unit_j, pole) with deg = d + 2k.  The section
    zonal_poly_sum(coef, t, zeta, n) at the pairs (x, grid point) is
    sum_l W[k, i, l] z[l, j]: its cosine t = unit_j . x/|x| depends on the
    node only and zeta = |x| radii_i e^{i (phase(x) - phases_k)} on the
    phase and radius only, so W = _degree_weights(coef, zeta).  The origin
    x = 0 takes the zero vector for x/|x|, where zeta = 0 and t = 0.

    The recurrence runs on the stacked cosines
    [poles of every block; x/|x|] @ unit^T, one row of node cosines per
    pole, up to the largest block degree d and the section's top degree:
    each block's zonal factor is z_d of its own row and the section's z is
    z_0..z_L of the last row.  The poles are the polynomials' stored pole
    arrays, stacked by one concatenation, and each polynomial's factors
    come from its own stored k, d and coeff arrays: no block is read here.
    Every polynomial and the section's x must have the dimension of the
    nodes, unit.shape[1]; ValueError (dimension mismatch) otherwise.  unit
    holds unit vectors.
    Each set of zonal rows comes with its parities: z_d(-t) = (-1)^d z_d(t)
    (Szego, Orthogonal Polynomials, 4.7), bit for bit, since the recurrence
    is odd or even in t by degree, so at the node -unit_j a block's zonal
    factor is sign[b] zon[b, j] and the section's z[l, j] is sign[l] z[l, j]
    with sign = (-1)^degree.  Returns a list of (rot, rad, zon, sign) per
    polynomial, shapes (B, K), (B, I), (B, J) and (B,) for B blocks,
    followed by (W, z, sign), shapes (K, I, L), (L, J) and (L,), when
    section is given.
    """
    unit = np.asarray(unit, dtype=float)
    phases = np.asarray(phases, dtype=float)
    radii = np.asarray(radii, dtype=float)
    n = unit.shape[1]
    if any(q.n != n for q in polys) or (section is not None and section[1].dim != n):
        raise ValueError(f"dimension mismatch: nodes of dimension {n}, polynomials {[q.n for q in polys]}")
    poles = [q.poles for q in polys]
    top = max((max(q.d.tolist(), default=0) for q in polys), default=0)
    if section is not None:
        coef, x = section
        w = _degree_weights(coef, x.radius * radii * np.exp(1j * (x.phase - phases[:, None])))
        poles.append((x.coords / x.radius if x.radius else np.zeros(n))[None, :])
        top = max(top, w.shape[-1] - 1)
    z = zonal_values(np.concatenate(poles) @ unit.T, top, n)
    out, row = [], 0
    for q in polys:
        deg = q.d + 2 * q.k
        rot = q.coeff[:, None] * np.exp(1j * (deg[:, None] * phases))
        zon = z[q.d, np.arange(row, row + q.d.size)]
        out.append((rot, radii[None, :] ** deg[:, None], zon, (-1.0) ** q.d))
        row += q.d.size
    if section is not None:
        out.append((w, z[: w.shape[-1], -1], (-1.0) ** np.arange(w.shape[-1])))
    return out


def eval_complex(q: PolyharmonicPolynomial, z: np.ndarray):
    """Evaluate at a batch of general complex vectors (shape (M, n)): the
    one point evaluator, which evaluate and eval_at_phase call for rotated
    points.

    Uses the bilinear polynomial form of each block, bil^k Z_d(z, pole)
    with bil = z.z: each block runs its own homogeneous recurrence at
    s = z.pole, b = bil up to its own degree d and keeps the last row, and
    the rows summed per radial index k are combined by Horner in bil.  The
    cost is sum_b (d_b + 1) recurrence rows of M values, and no array has a
    degree axis.  z of any shape but (M, q.n) raises ValueError.
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim != 2 or z.shape[1] != q.n:
        raise ValueError(f"dimension mismatch: polynomial n={q.n}, points of shape {z.shape}")
    bil = np.sum(z * z, axis=-1)
    s = q.poles @ z.T
    acc = np.zeros((1 + max(q.k.tolist(), default=0), len(z)), dtype=complex)
    for b, s_b in zip(q.blocks, s):
        for z_d in _zonal_iter(s_b, bil, b.d, q.n):
            pass
        acc[b.k] += b.coeff * z_d
    out = acc[-1]
    for row in acc[-2::-1]:
        out = out * bil + row
    return out


def eval_at_phase(q: PolyharmonicPolynomial, phase: float, coords: np.ndarray):
    """Evaluate at the batch of rotated points e^{i*phase} * coords, coords
    (N, n) real: eval_complex on those complex vectors."""
    return eval_complex(q, np.exp(1j * phase) * np.asarray(coords, dtype=float))


def evaluate(q: PolyharmonicPolynomial, x: RotatedPoint) -> complex:
    return complex(eval_complex(q, cmath.exp(1j * x.phase) * x.coords[None, :])[0])


def to_json(q: PolyharmonicPolynomial) -> str:
    return json.dumps(
        {
            "n": q.n,
            "p": q.p,
            "blocks": [
                {
                    "k": b.k,
                    "d": b.d,
                    "pole": [repr(float(c)) for c in b.pole],
                    "coeff": [repr(b.coeff.real), repr(b.coeff.imag)],
                }
                for b in q.blocks
            ],
        }
    )


def from_json(text: str) -> PolyharmonicPolynomial:
    """The polynomial to_json wrote; ValueError for a block coeff that is not
    a list of exactly two entries [real, imag], and for invalid fields."""
    data = json.loads(text)
    blocks = []
    for b in data["blocks"]:
        coeff = b["coeff"]
        if not isinstance(coeff, list) or len(coeff) != 2:
            raise ValueError(f"block coeff must be a list [real, imag], got {coeff!r}")
        blocks.append(ZonalBlock(k=b["k"], d=b["d"], pole=[float(c) for c in b["pole"]],
                                 coeff=complex(float(coeff[0]), float(coeff[1]))))
    return PolyharmonicPolynomial(blocks=blocks, n=data["n"], p=data["p"])


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
        rot_u, rad_u, zon, sign = _stacked_factors(phases, (r,), rule.half_nodes, (u,))[0]
        coef = (rot_u * rad_u).T
        uv = np.concatenate((coef @ zon, (coef * sign) @ zon), axis=1)
    else:
        pts = (a + r * rot[:, :, None] * nodes).reshape(-1, cfg.n)
        uv = (eval_complex(u, pts) if polynomial else u(pts)).reshape(den.shape)
    return complex(np.sum(rule.weights * (num * pref / den) * uv)) / cfg.p
