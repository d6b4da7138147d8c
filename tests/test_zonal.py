import math
import struct
import sys
import time
from operator import add, mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from polybergman import (
    KernelConfig,
    make_rotated_point,
    pair_invariants,
    sph_dim,
    zonal_polyharmonic,
)
from polybergman import quadrature, zonal
from polybergman.zonal import (
    _zonal_rows,
    polyharmonic_dim,
    zonal_poly_sum,
    zonal_values,
)


def classical_poisson(n, x, zeta_hat):
    """Textbook Poisson kernel for the real unit ball (test oracle)."""
    r2 = float(x @ x)
    s = float(x @ zeta_hat)
    return (1.0 - r2) / (r2 - 2.0 * s + 1.0) ** (n / 2.0)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def zonal_harmonic(n, m, x, y):
    """Extended zonal harmonic Z_m(x, y): the order-1 zonal polyharmonic."""
    return zonal_polyharmonic(KernelConfig(n=n, p=1), m, x, y)


class TestZonalValues:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_scalar_oracles(self, n):
        # z_m = 2 T_m (n = 2) or ((m+lam)/lam) C^lam_m, evaluated by mpmath
        # at 30 digits; the error is scaled by the growth m^(n-2) of z_m(1)
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(n)
        t = rng.uniform(-1.0, 1.0, size=20)
        zv = zonal_values(t, 60, n)
        assert zv.shape == (61, 20)
        assert_allclose(zv[0], 1.0)
        lam = mpmath.mpf(n - 2) / 2
        with mpmath.workdps(30):
            for m in range(1, 61):
                for tj, got in zip(t, zv[m]):
                    if n == 2:
                        ref = 2 * mpmath.chebyt(m, tj)
                    else:
                        ref = (m + lam) / lam * mpmath.gegenbauer(m, lam, tj)
                    assert abs(got - ref) <= 1e-13 * max(1, m ** (n - 2)), (m, tj)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_scalar_cosine_equals_one_element_array(self, n):
        # a scalar is taken as a one-element array, the same bits
        for t in (-1.0, -0.37, 0.0, 0.3, 1.0, 1.0 + 5e-13):
            want = zonal_values(np.array([t]), 71, n)
            for scalar in (t, np.float64(t), np.array(t)):
                got = zonal_values(scalar, 71, n)
                assert got.shape == (72, 1)
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("m_max, n", [(-1, 3), (2.5, 3), (True, 3), (3, 1), (3, 2.5), (3, True)])
    def test_non_integer_degree_or_dimension_rejected(self, m_max, n):
        for t in (0.3, np.array([0.3, -0.2])):
            with pytest.raises(ValueError):
                zonal_values(t, m_max, n)

    def test_nan_and_out_of_range_cosines_rejected(self):
        for bad in (math.nan, 1.1, -1.0 - 1e-9):
            with pytest.raises(ValueError):
                zonal_values(bad, 3, 3)
            with pytest.raises(ValueError):
                zonal_values(np.array([0.2, bad]), 3, 3)


class TestSphDim:
    def test_known_values(self):
        assert sph_dim(3, 1) == 3
        assert sph_dim(2, 5) == 2
        for n in range(2, 7):
            assert sph_dim(n, 0) == 1
        assert sph_dim(4, 2) == 9  # (m+1)^2 for n=4

    def test_invalid(self):
        for n, m in ((1, 0), (3, -1), (2, 1.5), (3, 1.5), (2.5, 3), (True, 2), (3, True)):
            with pytest.raises(ValueError):
                sph_dim(n, m)


class TestZonalHarmonic:
    def test_constant_degree(self):
        x = make_rotated_point(0.7, (0.3, 0.1))
        y = make_rotated_point(-0.2, (0.5, 0.5))
        assert zonal_harmonic(2, 0, x, y) == 1.0

    def test_zero_radius(self):
        o = make_rotated_point(0.0, (0.0, 0.0, 0.0))
        y = make_rotated_point(0.0, (0.5, 0.0, 0.0))
        assert zonal_harmonic(3, 3, o, y) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_diagonal_dimension_identity(self, n):
        zeta = make_rotated_point(0.0, unit(np.arange(1.0, n + 1.0)))
        for m in range(0, 31):
            val = zonal_harmonic(n, m, zeta, zeta)
            dim = sph_dim(n, m)
            assert abs(val - dim) <= 1e-10 * dim

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_poisson_generating_identity(self, n):
        # sum_m Z_m(x, zeta) reproduces the classical Poisson kernel; the
        # truncation degree comes from the proven tail bound
        from polybergman import truncation_degree

        rng = np.random.default_rng(n)
        zeta_hat = unit(rng.normal(size=n))
        for r in (0.3, 0.8):
            x = r * unit(rng.normal(size=n))
            target = classical_poisson(n, x, zeta_hat)
            big_m = truncation_degree(KernelConfig(n=n, p=1), r, 1e-10, "poisson")
            t = float(np.clip(unit(x) @ zeta_hat, -1, 1))
            zv = zonal_values(t, big_m, n)[:, 0]
            total = float(np.sum(zv * r ** np.arange(big_m + 1)))
            assert abs(total - target) <= 1e-10

    def test_sector_phase_rule(self):
        # order 2, sectors (j=1, l=0), degree 2: the value flips sign
        zeta = make_rotated_point(0.0, unit([1.0, 2.0, 0.5]))
        eta = make_rotated_point(0.0, unit([0.3, -1.0, 0.2]))
        rotated = make_rotated_point(math.pi / 2, zeta.coords)
        lhs = zonal_harmonic(3, 2, rotated, eta)
        rhs = -zonal_harmonic(3, 2, zeta, eta)
        assert_allclose([lhs.real, lhs.imag], [rhs.real, rhs.imag], atol=1e-13)


class TestZonalPolyharmonic:
    def test_order_one_reduces_to_harmonic(self):
        # Z^1_m(x, y) = e^{i m (phi-psi)} (|a||b|)^m z_m(a.b / |a||b|)
        cfg = KernelConfig(n=3, p=1)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = make_rotated_point(rng.uniform(-3, 3), rng.uniform(-0.5, 0.5, 3))
            y = make_rotated_point(rng.uniform(-3, 3), rng.uniform(-0.5, 0.5, 3))
            rr = x.radius * y.radius
            z = zonal_values(float(x.coords @ y.coords) / rr, 5, 3)[:, 0]
            for m in range(0, 6):
                want = np.exp(1j * m * (x.phase - y.phase)) * rr**m * z[m]
                got = zonal_polyharmonic(cfg, m, x, y)
                assert abs(got - want) <= 1e-14 * max(1.0, abs(want))

    def test_low_degree_drops_vanishing_terms(self):
        # order 2, degree 1: the k=1 term would need degree -1 and vanishes
        cfg = KernelConfig(n=3, p=2)
        x = make_rotated_point(0.0, (0.4, 0.1, 0.0))
        y = make_rotated_point(math.pi / 2, (0.2, 0.3, 0.1))
        assert zonal_polyharmonic(cfg, 1, x, y) == zonal_harmonic(3, 1, x, y)

    def test_a_degree_beyond_a_list_length_raises_before_allocating(self):
        # the degree's weight list [0.0] * m + [1.0] raised OverflowError
        cfg = KernelConfig(n=3, p=2)
        x = make_rotated_point(0.0, (0.4, 0.1, 0.0))
        for m in (sys.maxsize + 1, 10**21):
            with pytest.raises(ValueError, match=f"degree {m} exceeds"):
                zonal_polyharmonic(cfg, m, x, x)

    def test_a_degree_whose_bound_underflows_returns_zero_at_once(self):
        # |Z^p_m| <= D_p(m) (|x||y|)^m, below 10^-156000 at m = 2 * 10^5 and
        # radius product 0.164, where the recurrence took seconds and kept
        # 16.8 MB of constants in _RECURRENCE to return 0j
        cfg = KernelConfig(n=3, p=2)
        x = make_rotated_point(0.0, (0.4, 0.0, 0.0))
        y = make_rotated_point(1.0, (0.0, 0.41, 0.0))
        zonal_polyharmonic(cfg, 5, x, y)
        sizes = {n: len(table[0]) for n, table in zonal._RECURRENCE.items()}
        times = []
        for _ in range(5):
            start = time.perf_counter()
            assert zonal_polyharmonic(cfg, 200_000, x, y) == 0j
            times.append(time.perf_counter() - start)
        assert min(times) < 0.01
        assert {n: len(table[0]) for n, table in zonal._RECURRENCE.items()} == sizes

    @pytest.mark.parametrize("n,p,radius", [(2, 1, 0.5), (3, 2, 0.41), (5, 3, 0.9), (6, 4, 0.95)])
    def test_the_recurrence_runs_up_to_the_degree_whose_bound_underflows(self, monkeypatch, n, p, radius):
        # the least degree m0 whose bound D_p(m0) rr^m0, from exact integers
        # in 60-digit mpmath, is below half the least subnormal returns 0j
        # without the recurrence, and the degree before it still runs it
        mpmath = pytest.importorskip("mpmath")
        cfg = KernelConfig(n=n, p=p)
        x = make_rotated_point(0.0, (radius,) + (0.0,) * (n - 1))
        y = make_rotated_point(cfg.sector_phase(p - 1), (0.0, 1.0) + (0.0,) * (n - 2))
        rr = x.radius * y.radius
        with mpmath.workdps(60):
            m0 = int(-1075 * math.log(2.0) / math.log(rr)) - 2
            while sum(sph_dim(n, m0 - 2 * k) for k in range(p)) * mpmath.mpf(rr) ** m0 >= mpmath.mpf(2) ** -1075:
                m0 += 1
        calls = []

        def recorded(*args):
            calls.append(len(args[0]) - 1)
            return zonal_poly_sum(*args)

        monkeypatch.setattr(zonal, "zonal_poly_sum", recorded)
        assert zonal_polyharmonic(cfg, m0, x, y) == 0j
        assert calls == []
        zonal_polyharmonic(cfg, m0 - 1, x, y)
        assert calls == [m0 - 1]

    def test_real_diagonal_order_two(self):
        # degree 2 on the diagonal picks up exactly the q = r^4 correction
        cfg = KernelConfig(n=3, p=2)
        x = make_rotated_point(0.0, (0.5, 0.2, -0.1))
        r = x.radius
        expected = zonal_harmonic(3, 2, x, x) + r**4
        assert_allclose(zonal_polyharmonic(cfg, 2, x, x).real, expected.real, rtol=1e-14)

    @pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (3, 3), (4, 3)])
    def test_homogeneity(self, n, p):
        cfg = KernelConfig(n=n, p=p)
        rng = np.random.default_rng(n * 10 + p)
        x = make_rotated_point(
            cfg.sector_phase(1 % p), 0.8 * unit(rng.normal(size=n))
        )
        y = make_rotated_point(0.0, 0.6 * unit(rng.normal(size=n)))
        for m in range(0, 9):
            base = zonal_polyharmonic(cfg, m, x, y)
            for t in (0.0, 0.3, 1.0):
                scaled = zonal_polyharmonic(cfg, m, make_rotated_point(x.phase, t * x.coords), y)
                assert abs(scaled - t**m * base) <= 1e-12 * max(1.0, abs(base))

    def test_sector_phase_consistency(self):
        # at sector sphere points every term carries the same phase factor
        for n, p in [(2, 2), (3, 2), (3, 3)]:
            cfg = KernelConfig(n=n, p=p)
            rng = np.random.default_rng(7 * n + p)
            zeta = unit(rng.normal(size=n))
            eta = unit(rng.normal(size=n))
            for m in range(0, 8):
                real_val = zonal_polyharmonic(
                    cfg, m, make_rotated_point(0.0, zeta), make_rotated_point(0.0, eta)
                )
                for j in range(p):
                    for l in range(p):
                        got = zonal_polyharmonic(
                            cfg,
                            m,
                            make_rotated_point(cfg.sector_phase(j), zeta),
                            make_rotated_point(cfg.sector_phase(l), eta),
                        )
                        want = np.exp(1j * m * (j - l) * math.pi / p) * real_val
                        assert abs(got - want) <= 1e-13 * max(1.0, abs(real_val))

    def test_symmetry_on_real_points(self):
        cfg = KernelConfig(n=4, p=3)
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = make_rotated_point(0.0, rng.uniform(-0.6, 0.6, 4))
            y = make_rotated_point(0.0, rng.uniform(-0.6, 0.6, 4))
            for m in range(0, 7):
                a = zonal_polyharmonic(cfg, m, x, y)
                b = zonal_polyharmonic(cfg, m, y, x)
                assert abs(a - b) <= 1e-13 * max(1.0, abs(a))

    def test_negative_degree_rejected(self):
        cfg = KernelConfig(n=3, p=2)
        x = make_rotated_point(0.0, (0.1, 0.0, 0.0))
        with pytest.raises(ValueError):
            zonal_polyharmonic(cfg, -1, x, x)

    @pytest.mark.parametrize("m", [1.5, 2.0, True])
    def test_non_integral_degree_rejected(self, m):
        cfg = KernelConfig(n=3, p=2)
        x = make_rotated_point(0.0, (0.1, 0.0, 0.0))
        with pytest.raises(ValueError, match="degree must be an integer"):
            zonal_polyharmonic(cfg, m, x, x)


def section_grid(g, p, x, phases, radii, unit_nodes):
    """zonal_poly_sum(g, p, t, zeta, n) at the pairs (x, e^{i phases_k} radii_i unit_j),
    shape (K, I, J), contracted here from its factors: the degree weights
    W[k, i, m] = g[m] zeta_ki^m with zeta_ki = |x| radii_i e^{i (phase(x) - phases_k)},
    built here, and the window sums S_m at the nodes (_stacked_factors)."""
    s = quadrature._stacked_factors(unit_nodes, (), (len(g) - 1, p, x))[0]
    zeta = x.radius * np.asarray(radii) * np.exp(1j * (x.phase - np.asarray(phases)[:, None]))
    w = np.asarray(g, dtype=float) * zeta[..., None] ** np.arange(len(g))
    return np.einsum("kim,mj->kij", w, s)


class TestZonalSection:
    """The kernel section's window sums (_stacked_factors) times its degree
    weights, contracted to values, against the scalar zonal polyharmonic at
    every grid point."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_scalar_pairs(self, n, p, monkeypatch):
        # every entry of the (phase, radius, node) grid equals the scalar
        # Z^p_m(x, e^{i phase} r u) within 8 ulp of its scale: the same sum
        # with every cosine and phase factor set to 1 (|z_l(t)| <= z_l(1)),
        # times 1 + m^2 for the two routes' differently rounded cosines
        # (|z_l'(t)| <= z_l'(1) = l (l+n-2)/(n-1) z_l(1) <= m^2 z_l(1));
        # every array recurrence runs through zonal._zonal_rows, and a
        # section runs one
        calls = []

        def counted(*args):
            calls.append(args)
            return zonal_rows(*args)

        zonal_rows = zonal._zonal_rows

        cfg = KernelConfig(n=n, p=p)
        rng = np.random.default_rng(10 * n + p)
        unit_nodes = np.array([unit(rng.normal(size=n)) for _ in range(7)])
        phases = np.concatenate([cfg.sector_phases(), [0.37, -2.5]])
        radii = np.array([0.0, 0.3, 0.9])
        points = [
            make_rotated_point(0.0, np.zeros(n)),
            make_rotated_point(cfg.sector_phase(p - 1), 0.6 * unit(rng.normal(size=n))),
            make_rotated_point(1.1, 0.8 * unit(rng.normal(size=n))),
        ]
        eps = np.finfo(float).eps
        for x in points:
            for m in range(0, 7):
                g = [0.0] * m + [1.0]
                with monkeypatch.context() as mp:
                    mp.setattr(zonal, "_zonal_rows", counted)
                    got = section_grid(g, p, x, phases, radii, unit_nodes)
                assert len(calls) == 1
                calls.clear()
                assert got.shape == (phases.size, radii.size, len(unit_nodes))
                for k, ph in enumerate(phases):
                    for i, r in enumerate(radii):
                        scale = (1 + m * m) * abs(zonal_poly_sum(g, p, 1.0, x.radius * r, n))
                        for j, u in enumerate(unit_nodes):
                            want = zonal_polyharmonic(cfg, m, x, make_rotated_point(ph, r * u))
                            assert abs(got[k, i, j] - want) <= 8 * eps * scale, (m, k, i, j)


    def test_dimension_mismatch(self):
        x = make_rotated_point(0.0, (0.1, 0.2, 0.3))
        section = (2, 1, x)
        for nodes in (np.eye(4), np.eye(3)[:, :2]):
            with pytest.raises(ValueError, match="dimension mismatch"):
                quadrature._stacked_factors(nodes, (), section)


def _inline_zonal_rows(s, b, m_max, n):
    """The recurrence of _zonal_rows with its constants computed inline, as
    it was written before they moved into one table per n."""
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


class TestRecurrenceTable:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_rows_bit_identical_to_inline_constants(self, n):
        rng = np.random.default_rng(40 + n)
        t = rng.uniform(-1.0, 1.0, size=9)
        s = rng.normal(size=4) + 1j * rng.normal(size=4)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        for m_max in (0, 1, 2, 63, 64, 300):
            for args in ((t, 1.0), (s, b), (np.array([0.3]), 1.0), (np.array([0.2 + 0.1j]), 0.5 - 0.2j)):
                assert np.array_equal(_zonal_rows(*args, m_max, n), _inline_zonal_rows(*args, m_max, n))

    def test_one_table_per_dimension_grown_by_doubling(self):
        zonal._RECURRENCE.pop(7, None)
        zonal_values(0.5, 10, 7)
        table = zonal._RECURRENCE[7]
        assert len(table[0]) == len(table[1]) == 64
        zonal_values(0.5, 63, 7)
        assert zonal._RECURRENCE[7] is table
        zonal_values(0.5, 64, 7)
        assert len(zonal._RECURRENCE[7][0]) == 128
        assert zonal._RECURRENCE[7][0][:64] == table[0]
        zonal_values(0.5, 300, 7)
        assert len(zonal._RECURRENCE[7][0]) == 512


def _reference_poly_sum(g, p, t, zeta, n):
    """sum_m g[m] sum_{k<p, 2k<=m} q^k zeta^(m-2k) z_{m-2k}(t) with q = zeta^2,
    term by term from the rows of zonal_values, for arrays t and zeta of one
    shape; and the sum of the terms' magnitudes."""
    z = zonal_values(t, len(g) - 1, n)
    q = zeta * zeta
    total = np.zeros(zeta.shape, dtype=complex)
    terms = np.zeros(zeta.shape)
    for m, c in enumerate(g):
        for k in range(min(p, m // 2 + 1)):
            total += c * q**k * zeta ** (m - 2 * k) * z[m - 2 * k]
            terms += abs(c * z[m - 2 * k]) * np.abs(zeta) ** m
    return total, terms


class TestScalarAssembly:
    @pytest.mark.parametrize(
        "t, zeta",
        [(0.3, 0.5 + 0.1j), (1, 0.0), (np.array([0.3, -0.2]), 0.5), (0.3, np.array([0.5, 0.1j]))],
        ids=["scalar", "scalar-int", "array-t", "array-zeta"],
    )
    def test_an_empty_weight_list_raises_on_both_branches(self, t, zeta):
        # the scalar branch returned 0j, and the array branch raised from
        # zonal_values; both now raise the same error before either runs
        for g in ([], (), np.array([])):
            with pytest.raises(ValueError, match="at least one degree"):
                zonal_poly_sum(g, 2, t, zeta, 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_scalar_branch_matches_array_path(self, n, p):
        # Python-number Horner against the numpy assembly on one-element
        # arrays, relative to the sum of the terms' magnitudes
        rng = np.random.default_rng(100 * n + p)
        for top in (0, 1, 2, 3, 7, 40, 300):
            g = rng.uniform(0.5, 2.0, top + 1)
            for t in (-1.0, 0.0, 1.0, float(rng.uniform(-1.0, 1.0))):
                zv = np.abs(zonal_values(t, top, n)[:, 0])
                for zeta in (0j, complex(rng.uniform(0.0, 0.99) * np.exp(1j * rng.uniform(-math.pi, math.pi)))):
                    got = zonal_poly_sum(g.tolist(), p, t, zeta, n)
                    assert type(got) is complex
                    want = zonal_poly_sum(g, p, np.array([t]), np.array([zeta]), n)[0]
                    terms = sum(
                        g[m] * zv[m - 2 * k] * abs(zeta) ** m for m in range(top + 1) for k in range(min(p, m // 2 + 1))
                    )
                    assert abs(got - want) <= 1e-14 * terms, (top, t, zeta)
                    # weights that are a numpy array: the same Python arithmetic
                    assert zonal_poly_sum(g, p, t, zeta, n) == got

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_window_form_matches_term_by_term_reference(self, n, p):
        # both branches against sum_m g[m] sum_k q^k zeta^(m-2k) z_{m-2k}(t),
        # relative to the sum of the terms' magnitudes
        rng = np.random.default_rng(200 * n + p)
        for top in (0, 1, 2, 3, 7, 40, 300):
            g = rng.uniform(-2.0, 2.0, top + 1)
            t = np.concatenate([[-1.0, 0.0, 1.0], rng.uniform(-1.0, 1.0, 5)])
            zeta = rng.uniform(0.0, 0.99, t.size) * np.exp(1j * rng.uniform(-math.pi, math.pi, t.size))
            zeta[0] = 0.0
            want, terms = _reference_poly_sum(g, p, t, zeta, n)
            got = zonal_poly_sum(g, p, t, zeta, n)
            assert got.shape == t.shape
            assert np.all(np.abs(got - want) <= 1e-14 * terms), top
            for j in range(t.size):
                got = zonal_poly_sum(g.tolist(), p, float(t[j]), complex(zeta[j]), n)
                assert abs(got - want[j]) <= 1e-14 * terms[j], (top, j)
            # broadcast shapes: cosines along one axis, zeta along the other
            grid = zonal_poly_sum(g, p, t, zeta[:, None], n)
            assert grid.shape == (t.size, t.size)
            for i in range(t.size):
                want, terms = _reference_poly_sum(g, p, t, np.full(t.size, zeta[i]), n)
                assert np.all(np.abs(grid[i] - want) <= 1e-14 * terms), (top, i)

    def test_weights_and_cosines_are_not_written(self):
        g = np.linspace(1.0, 2.0, 9)
        t = np.linspace(-1.0, 1.0, 5)
        rows = zonal_values(t, 8, 3)
        before = (g.copy(), t.copy(), rows.copy())
        zonal_poly_sum(g, 4, t, 0.5 + 0.1j, 3)
        window = zonal._window_sums(rows, 4)
        assert window is not rows and not np.shares_memory(window, rows)
        for a, b in zip((g, t, rows), before):
            assert np.array_equal(a, b)


def _generator_rows(s, b, m_max, n):
    """The recurrence as the generator it was written as before the scalar
    float loop: rows z_0..z_m_max with the factor b on every degree."""
    two_f, fc = zonal._recurrence_constants(n, m_max)
    z2, z1 = 1.0, two_f[1] * s
    yield z2
    if m_max >= 1:
        yield z1
    for m in range(2, m_max + 1):
        z2, z1 = z1, two_f[m] * s * z1 - (fc[m] * b) * z2
        yield z1


def _generator_poly_sum(g, p, t, zeta, n):
    """The scalar zonal sum as it was computed before the float loop: the
    generator's rows at b = 1.0, p - 1 window passes into a copy, and Horner
    over the reversed weights and window sums."""
    z = list(_generator_rows(t, 1.0, len(g) - 1, n))
    s = z[:]
    for k in range(1, min(p, (len(z) + 1) // 2)):
        s[2 * k :] = map(add, s[2 * k :], z)
    total = 0j
    for v in map(mul, reversed(g), reversed(s)):
        total = total * zeta + v
    return total


class TestScalarFloatLoop:
    @given(
        n=st.integers(2, 6),
        p=st.integers(1, 4),
        top=st.integers(0, 200),
        t=st.floats(-1.0, 1.0),
        zeta=st.complex_numbers(max_magnitude=1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_for_bit_the_generator_sum(self, n, p, top, t, zeta, seed):
        # the float loop drops the factor b = 1.0, the copy at p = 1 and the
        # slice of the weight window; none of them moves a bit
        def bits(z):
            assert type(z) is complex
            return struct.pack("<dd", z.real, z.imag)

        g = np.random.default_rng(seed).uniform(-2.0, 2.0, top + 40).tolist()
        want = bits(_generator_poly_sum(g[: top + 1], p, t, zeta, n))
        assert bits(zonal_poly_sum(g[: top + 1], p, t, zeta, n)) == want
        # the weights past top, as in a memoised window, are not read
        assert bits(zonal._scalar_poly_sum(g, top, p, t, zeta, n)) == want

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_rows_are_the_generator_rows_at_unit_b(self, n):
        # a one-hot weight at m with zeta = 1 returns the loop's row z_m alone
        for t in (-1.0, -0.3, 0.0, 0.7, 1.0):
            rows = list(_generator_rows(t, 1.0, 80, n))
            for m, row in enumerate(rows):
                assert zonal._scalar_poly_sum([0.0] * m + [1.0], m, 1, t, 1.0, n) == complex(row, 0.0), (t, m)


class TestZonalComplexEvaluation:
    def test_coefficient_form_matches_phase_form(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 4, 5):
            pole = unit(rng.normal(size=n))
            for m in range(0, 13):
                a = rng.uniform(-0.6, 0.6, size=n)
                phase = rng.uniform(-math.pi, math.pi)
                z = np.exp(1j * phase) * a
                via_bilinear = _zonal_rows(np.array([z @ pole]), complex(z @ z), m, n)[m, 0]
                via_phases = zonal_harmonic(
                    n, m, make_rotated_point(phase, a), make_rotated_point(0.0, pole)
                )
                assert abs(via_bilinear - via_phases) <= 1e-12 * max(1.0, abs(via_phases))


class TestGrowthRatio:
    """|Z^p_m(x, y)| <= D_p(m) (|x||y|)^m with D_p(m) = polyharmonic_dim."""

    def test_harmonic_degree_one(self):
        # D_1(1) = sph_dim(3, 1) = 3, attained on the diagonal
        cfg = KernelConfig(n=3, p=1)
        x = make_rotated_point(0.0, (0.0, 0.75, 0.0))
        assert [polyharmonic_dim(3, 1, m) for m in range(2)] == [1, 3]
        assert_allclose(zonal_polyharmonic(cfg, 1, x, x), 3.0 * 0.75**2, rtol=1e-15)

    @pytest.mark.parametrize("n,p", [(3, 1), (3, 2), (4, 2), (4, 3)])
    def test_bounded_over_degrees(self, n, p):
        # random sector pairs, both radii in [0.5, 1): the ratio to the bound
        # stays at most 1 beyond the degrees 0..40 that the growth suite checks
        cfg = KernelConfig(n=n, p=p)
        rng = np.random.default_rng(10 * n + p)
        dims = [polyharmonic_dim(n, p, m) for m in range(61)]
        def point():
            radius = rng.uniform(0.5, 1.0)
            return make_rotated_point(cfg.sector_phase(int(rng.integers(0, p))), radius * unit(rng.normal(size=n)))

        for _ in range(10):
            x, y = point(), point()
            for m in range(61):
                bound = dims[m] * (x.radius * y.radius) ** m
                assert abs(zonal_polyharmonic(cfg, m, x, y)) <= (1.0 + 1e-13) * bound

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_one_recurrence_matches_per_degree_sums(self, n, p):
        # the closed form against the integer sums, degree by degree
        dims = [polyharmonic_dim(n, p, m) for m in range(201)]
        ref = [sum(sph_dim(n, m - 2 * k) for k in range(p) if 2 * k <= m) for m in range(201)]
        assert dims == ref

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_bound_attained_at_coincident_points(self, n):
        # Z^p_m(x, x) = D_p(m) |x|^(2m) at phase 0, where t = 1 exactly; the
        # recurrence adds a few ulp of rounding per degree
        for p in (1, 2, 3, 4):
            cfg = KernelConfig(n=n, p=p)
            dims = [polyharmonic_dim(n, p, m) for m in range(61)]
            for r in (0.5, 0.75, 1.0):
                x = make_rotated_point(0.0, np.eye(n)[n - 1] * r)
                for m in range(61):
                    ref = dims[m] * r ** (2 * m)
                    got = zonal_polyharmonic(cfg, m, x, x)
                    assert abs(got - ref) <= 4 * (m + 1) * np.spacing(ref), (p, r, m)

    def test_preconditions(self):
        # checked as sph_dim is: bools and non-integral floats raise too
        bad = ((1, 1, 3), (3, 0, 3), (3, 1, -1), (3, 1, 1.5), (2.5, 1, 3), (3, 1.0, 3), (True, 1, 2), (3, True, 2))
        for n, p, m in bad:
            with pytest.raises(ValueError):
                polyharmonic_dim(n, p, m)
