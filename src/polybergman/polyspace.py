"""Polyharmonic polynomial test functions and the rotated mean-value formula.

Test polynomials are finite sums of blocks c * |x|^(2k) * Z_d(x, pole) with
k below the polyharmonic order, so membership in the order-p class holds by
construction; an independent finite-difference power-of-Laplacian check is
provided as a safety net.  Blocks evaluate along two routes: an exact
phase-split route for rotated points, and a bilinear polynomial route for
general complex vectors (needed off the rotated-point family by the
mean-value formula).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import KernelConfig, RotatedPoint, principal_pow
from .errors import NearSingular, StencilOutOfDomain
from .zonal import zonal_harmonic_complex, zonal_values


@dataclass(frozen=True)
class ZonalBlock:
    """x -> coeff * |x|^(2k) * Z_d(x, pole); homogeneous of degree d + 2k."""

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


def random_polyharmonic(
    cfg: KernelConfig, max_total_degree: int, blocks: int, seed: int
) -> PolyharmonicPolynomial:
    """Seeded random test polynomial; poles uniform on the sphere,
    radial index uniform below the order, coefficients uniform in the unit
    square of the complex plane."""
    if max_total_degree < 0 or blocks < 1:
        raise ValueError("need max_total_degree >= 0 and blocks >= 1")
    rng = np.random.default_rng(seed)
    out = []
    k_hi = min(cfg.p - 1, max_total_degree // 2)
    for _ in range(blocks):
        k = int(rng.integers(0, k_hi + 1))
        d = int(rng.integers(0, max_total_degree - 2 * k + 1))
        pole = rng.normal(size=cfg.n)
        pole /= np.linalg.norm(pole)
        pole.flags.writeable = False
        coeff = complex(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
        out.append(ZonalBlock(k=k, d=d, pole=pole, coeff=coeff))
    return PolyharmonicPolynomial(blocks=tuple(out), n=cfg.n, p=cfg.p)


def random_homogeneous(
    cfg: KernelConfig, degree: int, blocks: int, seed: int
) -> PolyharmonicPolynomial:
    """Random element of the homogeneous degree-`degree` order-p class."""
    if degree < 0 or blocks < 1:
        raise ValueError("need degree >= 0 and blocks >= 1")
    rng = np.random.default_rng(seed)
    out = []
    k_hi = min(cfg.p - 1, degree // 2)
    for _ in range(blocks):
        k = int(rng.integers(0, k_hi + 1))
        d = degree - 2 * k
        pole = rng.normal(size=cfg.n)
        pole /= np.linalg.norm(pole)
        pole.flags.writeable = False
        coeff = complex(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
        out.append(ZonalBlock(k=k, d=d, pole=pole, coeff=coeff))
    return PolyharmonicPolynomial(blocks=tuple(out), n=cfg.n, p=cfg.p)


def eval_at_phase(q: PolyharmonicPolynomial, phase: float, coords: np.ndarray):
    """Evaluate at the batch of rotated points e^{i*phase} * coords.

    coords is (N, n) real; the |x|^(2k) factors become exact phase
    multiplications e^{2ik*phase} r^(2k).
    """
    coords = np.asarray(coords, dtype=float)
    r = np.linalg.norm(coords, axis=-1)
    safe_r = np.where(r == 0.0, 1.0, r)
    unit = coords / safe_r[:, None]
    val = np.zeros(coords.shape[0], dtype=complex)
    for b in q.blocks:
        deg = b.degree
        if b.d == 0:
            radial = r ** (2 * b.k)
        else:
            t = np.clip(unit @ b.pole, -1.0, 1.0)
            zd = zonal_values(t, b.d, q.n)[b.d]
            radial = np.where(r == 0.0, 0.0, r**deg * zd)
        val += b.coeff * np.exp(1j * deg * phase) * radial
    return val


def eval_complex(q: PolyharmonicPolynomial, z: np.ndarray):
    """Evaluate at a batch of general complex vectors (shape (N, n)).

    Uses the bilinear polynomial form of each block; agrees with
    eval_at_phase on the rotated-point family up to roundoff.
    """
    z = np.asarray(z, dtype=complex)
    bil = np.sum(z * z, axis=-1)
    val = np.zeros(z.shape[0], dtype=complex)
    for b in q.blocks:
        val += b.coeff * bil**b.k * zonal_harmonic_complex(q.n, b.d, z, b.pole)
    return val


def evaluate(q: PolyharmonicPolynomial, x: RotatedPoint) -> complex:
    if x.dim != q.n:
        raise ValueError(f"dimension mismatch: polynomial n={q.n}, point {x.dim}")
    return complex(eval_at_phase(q, x.phase, x.coords[None, :])[0])


def homogeneous_part(q: PolyharmonicPolynomial, m: int) -> PolyharmonicPolynomial:
    """Sub-polynomial of the blocks with total degree exactly m."""
    if m < 0:
        raise ValueError(f"degree must be >= 0, got {m}")
    keep = tuple(b for b in q.blocks if b.degree == m)
    return PolyharmonicPolynomial(blocks=keep, n=q.n, p=q.p)


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


def _iterated_stencil(n: int, p: int):
    """Offset -> coefficient map of the p-fold (2n+1)-point Laplacian stencil."""
    coef = {(0,) * n: 1.0}
    for _ in range(p):
        new: dict = {}
        for off, c in coef.items():
            new[off] = new.get(off, 0.0) - 2.0 * n * c
            for j in range(n):
                for sgn in (1, -1):
                    o = off[:j] + (off[j] + sgn,) + off[j + 1 :]
                    new[o] = new.get(o, 0.0) + c
        coef = new
    return coef


def laplacian_power_residual(
    q: PolyharmonicPolynomial, x: RotatedPoint, h: float, order: int | None = None
) -> float:
    """|Delta^order q(x)| estimated by the iterated second-order FD Laplacian.

    order defaults to the polynomial's own class order p, where the residual
    is pure finite-difference error; negative controls pass a lower order to
    land on a genuinely nonzero iterated Laplacian.
    """
    p = q.p if order is None else order
    if p < 1:
        raise ValueError(f"Laplacian power must be >= 1, got {p}")
    if q.n > 4:
        raise ValueError("finite-difference check restricted to n <= 4")
    if not (1e-3 <= h <= 1e-2):
        raise ValueError(f"step h must lie in [1e-3, 1e-2], got {h}")
    if abs(math.remainder(x.phase, 2 * math.pi)) > 1e-12:
        raise ValueError("residual check expects a real (phase-0) point")
    if x.radius + p * h * math.sqrt(q.n) >= 1.0:
        raise StencilOutOfDomain("stencil lattice leaves the unit ball")
    coef = _iterated_stencil(q.n, p)
    offsets = np.array(list(coef.keys()), dtype=float)
    weights = np.array(list(coef.values()))
    pts = x.coords[None, :] + h * offsets
    vals = eval_at_phase(q, 0.0, pts)
    return float(abs(np.sum(weights * vals)) / h ** (2 * p))


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
    weights = rule.weights
    num = r ** (2 * cfg.p) - d2**cfg.p
    pref = r ** (cfg.n - 2 * cfg.p)
    total = 0.0 + 0.0j
    for k in range(cfg.p):
        rot = np.exp(1j * math.pi * k / cfg.p)
        back = np.conj(rot)
        bsq = back * back * d2 - 2.0 * r * back * (nodes @ d) + r * r
        if np.any(np.abs(bsq) <= cfg.eps_sing * r * r):
            raise NearSingular("mean-value kernel denominator vanished")
        den = principal_pow(bsq, 0.5 * cfg.n, cfg.eps_branch)
        pts = a[None, :] + r * rot * nodes
        uv = ufun(pts)
        total += complex(np.sum(weights * (num * pref / den) * uv))
    return total / cfg.p
