"""Polyharmonic polynomial test functions and the rotated mean-value formula.

Test polynomials are finite sums of blocks c * |x|^(2k) * Z_d(x, pole) with
k below the polyharmonic order, so membership in the order-p class holds by
construction; an independent power-of-Laplacian check, exact up to rounding
in every dimension n (Pizzetti's sphere-mean expansion), is provided as a
safety net.  Blocks evaluate along two routes: an exact phase-split route
for rotated points, and a bilinear polynomial route for general complex
vectors (needed off the rotated-point family by the mean-value formula).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import EPS_SING, KernelConfig, RotatedPoint, principal_pow
from .errors import NearSingular
from .zonal import _zonal_rows, zonal_values


@dataclass(frozen=True, eq=False)
class ZonalBlock:
    """x -> coeff * |x|^(2k) * Z_d(x, pole); homogeneous of degree d + 2k.

    Blocks compare and hash by identity, as rotated points do: the pole is
    an array.
    """

    k: int
    d: int
    pole: np.ndarray
    coeff: complex

    def __post_init__(self):
        if self.k < 0 or self.d < 0:
            raise ValueError("block indices must be nonnegative")
        if abs(np.linalg.norm(self.pole) - 1.0) > 1e-12:
            raise ValueError("block pole must be a unit vector")

    @property
    def degree(self) -> int:
        return self.d + 2 * self.k


@dataclass(frozen=True)
class PolyharmonicPolynomial:
    blocks: tuple
    n: int
    p: int

    def __post_init__(self):
        for b in self.blocks:
            if b.k >= self.p:
                raise ValueError(f"block radial index {b.k} not below order {self.p}")
            if b.pole.shape != (self.n,):
                raise ValueError("block pole dimension mismatch")

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
        pole.flags.writeable = False
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


def _block_arrays(q: PolyharmonicPolynomial):
    """(k, d, coefficients, poles) of the blocks, one entry (row) per block."""
    k = np.array([b.k for b in q.blocks], dtype=int)
    d = np.array([b.d for b in q.blocks], dtype=int)
    coeff = np.array([b.coeff for b in q.blocks], dtype=complex)
    poles = np.array([b.pole for b in q.blocks]).reshape(-1, q.n)
    return k, d, coeff, poles


def _block_factors(q: PolyharmonicPolynomial, unit: np.ndarray):
    """(degrees, coefficients, Z_d(unit_j, pole)) of the blocks; the last has
    shape (blocks, N).

    unit holds unit vectors; a zero row stands for the origin, where only
    degree-0 blocks survive and z_0 = 1.  One zonal recurrence, to the
    largest d, serves every block.
    """
    k, d, coeff, poles = _block_arrays(q)
    z = zonal_values(unit @ poles.T, int(max(d, default=0)), q.n)
    return d + 2 * k, coeff, z[d, :, np.arange(d.size)]


def eval_at_phase(q: PolyharmonicPolynomial, phase: float, coords: np.ndarray):
    """Evaluate at the batch of rotated points e^{i*phase} * coords.

    coords is (N, n) real; the |x|^(2k) factors become exact phase
    multiplications e^{2ik*phase} r^(2k).
    """
    coords = np.asarray(coords, dtype=float)
    r = np.linalg.norm(coords, axis=-1)
    deg, coeff, zon = _block_factors(q, coords / np.where(r == 0.0, 1.0, r)[:, None])
    return (coeff * np.exp(1j * deg * phase)) @ (r ** deg[:, None] * zon)


def eval_polar(q: PolyharmonicPolynomial, phases, radii, unit: np.ndarray):
    """Values at the polar grid e^{i phases_k} radii_i unit_j, shape (K, I, J).

    A block c |x|^(2k) Z_d(x, pole) there is
    c e^{i deg phases_k} radii_i^deg Z_d(unit_j, pole), so each block's
    zonal factor is computed once on the unit vectors, whatever the number
    of phases and radii.
    """
    deg, coeff, zon = _block_factors(q, np.asarray(unit, dtype=float))
    rot = coeff[:, None] * np.exp(1j * np.outer(deg, phases))
    rad = np.asarray(radii, dtype=float)[None, :] ** deg[:, None]
    return np.einsum("bk,bi,bj->kij", rot, rad, zon)


def eval_complex(q: PolyharmonicPolynomial, z: np.ndarray):
    """Evaluate at a batch of general complex vectors (shape (N, n)).

    Uses the bilinear polynomial form of each block, bil^k Z_d(z, pole)
    with bil = z.z, the zonal factors of all blocks from one homogeneous
    recurrence at s = z.pole, b = bil; agrees with eval_at_phase on the
    rotated-point family up to roundoff.
    """
    z = np.asarray(z, dtype=complex)
    bil = np.sum(z * z, axis=-1)
    k, d, coeff, poles = _block_arrays(q)
    zon = _zonal_rows(z @ poles.T, bil[:, None], int(max(d, default=0)), q.n)
    return coeff @ (bil ** k[:, None] * zon[d, :, np.arange(d.size)])


def evaluate(q: PolyharmonicPolynomial, x: RotatedPoint) -> complex:
    if x.dim != q.n:
        raise ValueError(f"dimension mismatch: polynomial n={q.n}, point {x.dim}")
    return complex(eval_at_phase(q, x.phase, x.coords[None, :])[0])


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
    data = json.loads(text)
    blocks = []
    for b in data["blocks"]:
        pole = np.array([float(c) for c in b["pole"]])
        pole.flags.writeable = False
        blocks.append(
            ZonalBlock(
                k=int(b["k"]),
                d=int(b["d"]),
                pole=pole,
                coeff=complex(float(b["coeff"][0]), float(b["coeff"][1])),
            )
        )
    return PolyharmonicPolynomial(blocks=tuple(blocks), n=int(data["n"]), p=int(data["p"]))


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
    nonzero iterated Laplacian.
    """
    from .quadrature import build_sphere_rule  # quadrature imports this module

    p = q.p if order is None else order
    if p < 1:
        raise ValueError(f"Laplacian power must be >= 1, got {p}")
    if abs(math.remainder(x.phase, 2 * math.pi)) > 1e-12:
        raise ValueError("residual check expects a real (phase-0) point")
    top = q.degree // 2
    if p > top:
        return 0.0
    rule = build_sphere_rule(q.n, q.degree)
    rho2 = np.arange(top + 1) / top
    pts = x.coords + np.sqrt(rho2)[:, None, None] * rule.nodes
    means = eval_at_phase(q, 0.0, pts.reshape(-1, q.n)).reshape(top + 1, -1) @ rule.weights
    lap = np.linalg.solve(np.vander(rho2, increasing=True), means)[p]
    return float(abs(lap) * 2.0**p * math.factorial(p) * math.prod(range(q.n, q.n + 2 * p, 2)))


def mean_value_eval(cfg, u, a, r: float, x: RotatedPoint, rule) -> complex:
    """Sector-averaged mean-value integral recovering u(x).

    (1/p) sum_k int_S (r^2p - |x-a|^2p)
                      / (r^(2p-n) |e^{-i k pi/p}(x-a) - r zeta|^n)
                      u(a + r e^{i k pi/p} zeta) dsigma(zeta),
    where |.|^n is the principal power of the bilinear square.  Exact for
    polyharmonic u up to cubature error.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (cfg.n,) or x.dim != cfg.n:
        raise ValueError("dimension mismatch in mean_value_eval")
    if np.linalg.norm(a) + r >= 1.0:
        raise ValueError("ball B(a, r) must stay inside the unit ball")
    if abs(math.remainder(x.phase, 2 * math.pi)) > 1e-12:
        raise ValueError("mean-value evaluation point must be real (phase 0)")
    d = x.coords - a
    d2 = float(d @ d)
    if d2 >= r * r:
        raise ValueError("need |x - a| < r")
    if hasattr(u, "blocks"):
        ufun = lambda z: eval_complex(u, z)  # noqa: E731
    else:
        ufun = u
    nodes = rule.nodes
    num = r ** (2 * cfg.p) - d2**cfg.p
    pref = r ** (cfg.n - 2 * cfg.p)
    rot = np.exp(1j * cfg.sector_phases())[:, None]
    back = np.conj(rot)
    bsq = back * back * d2 - 2.0 * r * back * (nodes @ d) + r * r
    if np.any(np.abs(bsq) <= EPS_SING * r * r):
        raise NearSingular("mean-value kernel denominator vanished")
    den = principal_pow(bsq, 0.5 * cfg.n)
    pts = a + r * rot[:, :, None] * nodes
    uv = ufun(pts.reshape(-1, cfg.n)).reshape(den.shape)
    return complex(np.sum(rule.weights * (num * pref / den) * uv)) / cfg.p
