import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import eval_gegenbauer

from polybergman import (
    KernelConfig,
    calibrated_constant,
    gegenbauer,
    make_rotated_point,
    pair_invariants,
    sph_dim,
    zonal_growth_ratio,
    zonal_polyharmonic,
)
from polybergman.zonal import (
    _growth_ratios,
    _zonal_rows,
    chebyshev_t,
    degree_coefficients,
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


class TestGegenbauer:
    def test_degree_zero(self):
        for lam in (0.5, 1.0, 2.5):
            for t in (-1.0, 0.0, 0.7):
                assert gegenbauer(0, lam, t) == 1.0

    def test_degree_two_at_one(self):
        # 2 lam (lam+1) t^2 - lam evaluated by hand at lam = 1/2, t = 1
        assert_allclose(gegenbauer(2, 0.5, 1.0), 1.0, rtol=1e-14)

    def test_degree_one(self):
        assert_allclose(gegenbauer(1, 0.5, 0.5), 0.5, rtol=1e-15)

    def test_against_scipy(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m = int(rng.integers(0, 40))
            lam = float(rng.uniform(0.1, 4.0))
            t = float(rng.uniform(-1.0, 1.0))
            ours = gegenbauer(m, lam, t)
            ref = eval_gegenbauer(m, lam, t)
            assert_allclose(ours, ref, rtol=1e-10, atol=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gegenbauer(2, 0.5, 1.1)
        with pytest.raises(ValueError):
            gegenbauer(2, 0.0, 0.5)
        with pytest.raises(ValueError):
            gegenbauer(-1, 0.5, 0.5)


class TestZonalValues:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_scalar_oracles(self, n):
        rng = np.random.default_rng(n)
        t = rng.uniform(-1.0, 1.0, size=40)
        zv = zonal_values(t, 60, n)
        assert zv.shape == (61, 40)
        assert_allclose(zv[0], 1.0)
        lam = 0.5 * (n - 2)
        for m in range(1, 61):
            if n == 2:
                ref = [2.0 * chebyshev_t(m, tj) for tj in t]
            else:
                ref = [(m + lam) / lam * gegenbauer(m, lam, tj) for tj in t]
            assert_allclose(zv[m], ref, rtol=1e-12, atol=1e-12 * m ** (n - 2))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_scalar_cosine_equals_one_element_array(self, n):
        # a scalar runs the recurrence on Python floats, an array on numpy
        for t in (-1.0, -0.37, 0.0, 0.3, 1.0, 1.0 + 5e-13):
            want = zonal_values(np.array([t]), 71, n)
            for scalar in (t, np.float64(t), np.array(t)):
                got = zonal_values(scalar, 71, n)
                assert got.shape == (72, 1)
                assert np.array_equal(got, want)

    def test_nan_and_out_of_range_cosines_rejected(self):
        for bad in (math.nan, 1.1, -1.0 - 1e-9):
            with pytest.raises(ValueError):
                zonal_values(bad, 3, 3)
            with pytest.raises(ValueError):
                zonal_values(np.array([0.2, bad]), 3, 3)
            with pytest.raises(ValueError):
                gegenbauer(3, 0.5, bad)
            with pytest.raises(ValueError):
                chebyshev_t(3, bad)


class TestSphDim:
    def test_known_values(self):
        assert sph_dim(3, 1) == 3
        assert sph_dim(2, 5) == 2
        for n in range(2, 7):
            assert sph_dim(n, 0) == 1
        assert sph_dim(4, 2) == 9  # (m+1)^2 for n=4

    def test_invalid(self):
        with pytest.raises(ValueError):
            sph_dim(1, 0)
        with pytest.raises(ValueError):
            sph_dim(3, -1)


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
        # truncation degree comes from the calibrated tail bound
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


class TestZonalComplexEvaluation:
    def test_coefficient_form_matches_phase_form(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 4, 5):
            pole = unit(rng.normal(size=n))
            for m in range(0, 13):
                a = rng.uniform(-0.6, 0.6, size=n)
                phase = rng.uniform(-math.pi, math.pi)
                z = np.exp(1j * phase) * a
                via_bilinear = _zonal_rows(complex(z @ pole), complex(z @ z), m, n)[m]
                via_phases = zonal_harmonic(
                    n, m, make_rotated_point(phase, a), make_rotated_point(0.0, pole)
                )
                assert abs(via_bilinear - via_phases) <= 1e-12 * max(1.0, abs(via_phases))


class TestGrowthRatio:
    def test_harmonic_degree_one(self):
        cfg = KernelConfig(n=3, p=1)
        # max at coincident poles: Z_1 diagonal value is 3
        assert_allclose(zonal_growth_ratio(cfg, 1, 65), 3.0, rtol=1e-12)

    @pytest.mark.parametrize("n,p", [(3, 1), (3, 2), (4, 2), (4, 3)])
    def test_bounded_over_degrees(self, n, p):
        cfg = KernelConfig(n=n, p=p)
        ratios = [zonal_growth_ratio(cfg, m, 65) for m in range(1, 41)]
        assert max(ratios) < 10.0
        # the sector prefactors only rescale: order p stays comparable to p=1
        assert max(ratios[9:]) <= 2.0 * min(ratios[9:])

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_one_recurrence_matches_per_degree_sums(self, n, p):
        # Z^p_m at zeta = 1 through the general assembly, one degree at a time
        cfg = KernelConfig(n=n, p=p)
        t = np.linspace(-1.0, 1.0, 65)
        ref = [
            np.max(np.abs(zonal_poly_sum(degree_coefficients(p, m), t, 1.0, n))) / (p * float(m) ** (n - 2))
            for m in range(1, 41)
        ]
        assert_allclose(_growth_ratios(cfg, 40, 65), ref, rtol=1e-13, atol=0)
        assert_allclose(calibrated_constant(cfg), max(ref), rtol=1e-13, atol=0)
        assert zonal_growth_ratio(cfg, 17, 65) == _growth_ratios(cfg, 40, 65)[16]

    def test_preconditions(self):
        cfg = KernelConfig(n=3, p=1)
        with pytest.raises(ValueError):
            zonal_growth_ratio(cfg, 0, 10)
        with pytest.raises(ValueError):
            zonal_growth_ratio(cfg, 1, 0)
