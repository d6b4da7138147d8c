"""Polyharmonic polynomial test functions, their point evaluator and their
JSON codec.

Test polynomials are finite sums of blocks c * |x|^(2k) * Z_d(x, pole) with
k below the polyharmonic order, so membership in the order-p class holds by
construction; quadrature.laplacian_power_residual checks it independently.
Points, rotated or general complex vectors, evaluate along one route:
eval_complex, the bilinear polynomial form of each block.  The cubature
that reads a polynomial on a polar grid, its separable factors included,
lives in quadrature.
"""

from __future__ import annotations

import cmath
import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .core import KernelConfig, RotatedPoint, check_integer, reduce_by_constructor
from .zonal import _zonal_rows


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
    as read-only arrays in block order, which eval_complex and the
    cubature factors (quadrature._stacked_factors) read: the radial
    indices k and harmonic degrees d (ints, shape (B,)), the coefficients
    coeff (complex, shape (B,)) and the poles (float, shape (B, n)), and
    its degree, the largest block degree d + 2k (0 without blocks).  They
    do not take part in equality, which compares the block tuples.
    """

    blocks: tuple
    n: int
    p: int
    k: np.ndarray = field(init=False, repr=False, compare=False)
    d: np.ndarray = field(init=False, repr=False, compare=False)
    coeff: np.ndarray = field(init=False, repr=False, compare=False)
    poles: np.ndarray = field(init=False, repr=False, compare=False)
    degree: int = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "degree", max((b.degree for b in self.blocks), default=0))
        for array in (self.k, self.d, self.coeff, self.poles):
            array.flags.writeable = False

    __reduce__ = reduce_by_constructor

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


def eval_complex(q: PolyharmonicPolynomial, z: np.ndarray):
    """Evaluate at a batch of general complex vectors (shape (M, n)): the
    one point evaluator, which evaluate and eval_at_phase call for rotated
    points.

    Uses the bilinear polynomial form of each block, bil^k Z_d(z, pole)
    with bil = z.z: each block runs its own homogeneous recurrence
    (zonal._zonal_rows) at s = z.pole, b = bil up to its own degree d and
    keeps the last row, and the rows summed per radial index k are combined
    by Horner in bil.  The cost is sum_b (d_b + 1) recurrence rows of M
    values; one block's (d_b + 1, M) rows are alive at a time, and no array
    has a block axis and a degree axis together.  z of any shape but
    (M, q.n) raises ValueError.
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim != 2 or z.shape[1] != q.n:
        raise ValueError(f"dimension mismatch: polynomial n={q.n}, points of shape {z.shape}")
    bil = np.sum(z * z, axis=-1)
    s = q.poles @ z.T
    acc = np.zeros((1 + max(q.k.tolist(), default=0), len(z)), dtype=complex)
    for b, s_b in zip(q.blocks, s):
        acc[b.k] += b.coeff * _zonal_rows(s_b, bil, b.d, q.n)[-1]
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
