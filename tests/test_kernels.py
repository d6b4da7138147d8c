import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from polybergman import (
    ConvergenceDomain,
    KernelConfig,
    NearSingular,
    Truncation,
    bergman,
    bergman_decomposed,
    bergman_series,
    derivative_form_check,
    evaluation_regime,
    make_rotated_point,
    make_truncation,
    pair_invariants,
    poisson,
    poisson_series,
    truncation_degree,
    unit_ball_volume,
    weighted_bergman_decomposed,
    weighted_bergman_series,
    weighted_coefficient,
)
from polybergman import kernels
from polybergman.kernels import _series_weights


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_sector_pair(cfg, rng, r_hi=0.7):
    pts = []
    for _ in range(2):
        direction = unit(rng.normal(size=cfg.n))
        radius = rng.uniform(0.0, r_hi)
        sector = int(rng.integers(0, cfg.p))
        pts.append(make_rotated_point(cfg.sector_phase(sector), radius * direction))
    return pts


ORIGIN3 = make_rotated_point(0.0, (0.0, 0.0, 0.0))
DIAG3 = make_rotated_point(0.0, (0.5, 0.0, 0.0))


class TestPoissonClosedForm:
    def test_origin_is_one(self):
        for n in (2, 3, 5):
            for p in (1, 2, 3):
                cfg = KernelConfig(n=n, p=p)
                o = make_rotated_point(0.0, np.zeros(n))
                y = make_rotated_point(cfg.sector_phase(p - 1), 0.3 * np.ones(n) / math.sqrt(n))
                assert_allclose(poisson(cfg, o, y), 1.0 + 0.0j)

    def test_hand_value_order_two(self):
        cfg = KernelConfig(n=3, p=2)
        assert_allclose(poisson(cfg, DIAG3, DIAG3), 255.0 / 108.0, rtol=1e-14)

    def test_harmonic_case_matches_textbook_formula(self):
        cfg = KernelConfig(n=4, p=1)
        rng = np.random.default_rng(1)
        for _ in range(25):
            a = rng.uniform(-0.6, 0.6, 4)
            b = rng.uniform(-0.6, 0.6, 4)
            x = make_rotated_point(0.0, a)
            y = make_rotated_point(0.0, b)
            expected = (1 - float(a @ a) * float(b @ b)) / (
                float(a @ a) * float(b @ b) - 2 * float(a @ b) + 1
            ) ** (cfg.n / 2)
            assert_allclose(poisson(cfg, x, y).real, expected, rtol=1e-13)

    def test_near_singular_guard(self):
        cfg = KernelConfig(n=3, p=1)
        x = make_rotated_point(0.0, (0.9999999, 0.0, 0.0))
        with pytest.raises(NearSingular):
            poisson(cfg, x, x)


class TestPoissonSeries:
    def test_origin_exact_at_any_truncation(self):
        cfg = KernelConfig(n=3, p=2)
        y = make_rotated_point(math.pi / 2, (0.4, 0.1, 0.0))
        for md in (0, 1, 5):
            trunc = Truncation(max_degree=md, tol=1e-10, calibrated_C=3.0)
            assert poisson_series(cfg, ORIGIN3, y, trunc) == 1.0 + 0.0j

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_closed_form(self, n, p):
        cfg = KernelConfig(n=n, p=p)
        rng = np.random.default_rng(100 * n + p)
        for _ in range(200):
            x, y = random_sector_pair(cfg, rng)
            trunc = make_truncation(cfg, x.radius * y.radius, 1e-10, "poisson")
            got = poisson_series(cfg, x, y, trunc)
            want = poisson(cfg, x, y)
            assert abs(got - want) <= 1e-10

    def test_order_shift_rearrangement(self):
        # order-2 partial sums equal order-1 sums plus q times the shifted sum
        cfg2 = KernelConfig(n=3, p=2)
        cfg1 = KernelConfig(n=3, p=1)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x, y = random_sector_pair(cfg2, rng)
            q = pair_invariants(x, y).q
            m = 12
            t_m = Truncation(max_degree=m, tol=1.0, calibrated_C=1.0)
            t_shift = Truncation(max_degree=m - 2, tol=1.0, calibrated_C=1.0)
            lhs = poisson_series(cfg2, x, y, t_m)
            rhs = poisson_series(cfg1, x, y, t_m) + q * poisson_series(cfg1, x, y, t_shift)
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))

    def test_convergence_domain_guard(self):
        cfg = KernelConfig(n=3, p=1, r_max=0.5)
        x = make_rotated_point(0.0, (0.8, 0.0, 0.0))
        trunc = Truncation(max_degree=10, tol=1e-8, calibrated_C=3.0)
        with pytest.raises(ConvergenceDomain):
            poisson_series(cfg, x, x, trunc)


class TestBergman:
    def test_origin_value(self):
        for n in (2, 3, 4):
            cfg = KernelConfig(n=n, p=2)
            o = make_rotated_point(0.0, np.zeros(n))
            assert_allclose(bergman(cfg, o, o), 1.0 / unit_ball_volume(n), rtol=1e-14)

    def test_series_agreement_harmonic_diagonal(self):
        cfg = KernelConfig(n=3, p=1)
        trunc = make_truncation(cfg, 0.25, 1e-10, "bergman")
        got = bergman_series(cfg, DIAG3, DIAG3, trunc)
        assert abs(got - bergman(cfg, DIAG3, DIAG3)) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_series_agreement_sweep(self, n, p):
        cfg = KernelConfig(n=n, p=p)
        rng = np.random.default_rng(7 * n + p)
        for _ in range(100):
            x, y = random_sector_pair(cfg, rng)
            trunc = make_truncation(cfg, x.radius * y.radius, 1e-9, "bergman")
            assert abs(bergman_series(cfg, x, y, trunc) - bergman(cfg, x, y)) <= 1e-9

    def test_origin_series_any_truncation(self):
        cfg = KernelConfig(n=3, p=2)
        trunc = Truncation(max_degree=0, tol=1.0, calibrated_C=1.0)
        got = bergman_series(cfg, ORIGIN3, ORIGIN3, trunc)
        assert_allclose(got, 1.0 / unit_ball_volume(3), rtol=1e-14)

    def test_conjugate_symmetry_and_positivity_real_points(self):
        rng = np.random.default_rng(12)
        for n, p in [(2, 2), (3, 2), (3, 3), (5, 1)]:
            cfg = KernelConfig(n=n, p=p)
            for _ in range(25):
                x = make_rotated_point(0.0, rng.uniform(-0.6, 0.6, n))
                y = make_rotated_point(0.0, rng.uniform(-0.6, 0.6, n))
                a = bergman(cfg, x, y)
                b = bergman(cfg, y, x)
                assert abs(a - np.conj(b)) <= 1e-13 * max(1.0, abs(a))
                assert abs(a.imag) <= 1e-13 * max(1.0, abs(a))
            for _ in range(25):
                x = make_rotated_point(0.0, rng.uniform(0, 0.95) * unit(rng.normal(size=n)))
                assert bergman(cfg, x, x).real > 0


class TestBergmanDecomposed:
    def test_order_one_is_exact_identity(self):
        cfg = KernelConfig(n=3, p=1)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, y = random_sector_pair(cfg, rng)
            assert bergman_decomposed(cfg, x, y) == bergman(cfg, x, y)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_direct_closed_form(self, n, p):
        cfg = KernelConfig(n=n, p=p)
        rng = np.random.default_rng(13 * n + p)
        for _ in range(100):
            x, y = random_sector_pair(cfg, rng)
            direct = bergman(cfg, x, y)
            decomposed = bergman_decomposed(cfg, x, y)
            assert abs(decomposed - direct) <= 1e-12 * abs(direct)

    def test_origin(self):
        cfg = KernelConfig(n=4, p=3)
        o = make_rotated_point(0.0, np.zeros(4))
        assert_allclose(bergman_decomposed(cfg, o, o), 1.0 / unit_ball_volume(4), rtol=1e-14)

    def test_pair_invariants_computed_once(self, monkeypatch):
        calls = []

        def counted(x, y):
            calls.append((x, y))
            return pair_invariants(x, y)

        monkeypatch.setattr(kernels, "pair_invariants", counted)
        cfg = KernelConfig(n=3, p=2)
        x, y = random_sector_pair(cfg, np.random.default_rng(5))
        expected = bergman(cfg, x, y)
        calls.clear()
        got = bergman_decomposed(cfg, x, y)
        assert len(calls) == 1
        assert abs(got - expected) <= 1e-12 * abs(expected)


class TestWeightedCoefficient:
    def test_beta_zero_collapses(self):
        for n in (2, 3, 5):
            for alpha in (0.0, 1.0, -0.5):
                for m in (0, 1, 7, 40):
                    got = weighted_coefficient(n, alpha, 0.0, m)
                    assert_allclose(got, n + 2 * m + alpha, rtol=1e-13)

    def test_unweighted_matches_series_weight(self):
        for n in (2, 3, 4, 5):
            for m in range(0, 61):
                assert_allclose(weighted_coefficient(n, 0.0, 0.0, m), n + 2 * m, rtol=1e-12)

    def test_hand_gamma_value(self):
        # 2 Gamma(7/2) / (Gamma(2) Gamma(3/2)) = 2 * (5/2) * (3/2)
        assert_allclose(weighted_coefficient(3, 0.0, 1.0, 0), 7.5, rtol=1e-13)

    def test_no_overflow_at_large_degree(self):
        val = weighted_coefficient(3, 0.5, 2.0, 10_000)
        assert np.isfinite(val) and val > 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            weighted_coefficient(2, -2.0, 0.0, 0)
        with pytest.raises(ValueError):
            weighted_coefficient(3, 0.0, -1.0, 0)
        with pytest.raises(ValueError):
            weighted_coefficient(3, 0.0, 0.0, -1)


class TestSeriesWeights:
    def test_weighted_recurrence_matches_gamma_ratio(self):
        # the ratio recurrence accumulates one rounding per degree; the
        # log-Gamma form loses digits as lgamma grows, so both stay within
        # 1e-11 relative of each other up to degree 2000
        for n, alpha, beta in [(2, 0.0, 0.0), (3, 1.0, 0.5), (5, -0.5, 2.0), (4, 3.0, 40.0)]:
            g = _series_weights(n, alpha, beta, "weighted", 2000)
            ref = np.array([weighted_coefficient(n, alpha, beta, m) for m in range(2001)])
            assert_allclose(g, ref, rtol=1e-11, atol=0)

    def test_unweighted_kinds(self):
        assert np.array_equal(_series_weights(4, 0.0, 0.0, "poisson", 5), np.ones(6))
        assert np.array_equal(_series_weights(4, 0.0, 0.0, "bergman", 5), 4.0 + 2.0 * np.arange(6))
        assert _series_weights(4, 0.0, 0.0, "weighted", 0).tolist() == [weighted_coefficient(4, 0.0, 0.0, 0)]
        with pytest.raises(ValueError):
            _series_weights(4, 0.0, 0.0, "szego", 5)

    def test_weighted_parameters_are_checked(self):
        with pytest.raises(ValueError):
            _series_weights(2, -2.0, 0.0, "weighted", 5)
        with pytest.raises(ValueError):
            _series_weights(3, 0.0, -1.0, "weighted", 5)

    def test_weighted_coefficient_is_called_once_per_weight_array(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return weighted_coefficient(*args)

        monkeypatch.setattr(kernels, "weighted_coefficient", counted)
        cfg = KernelConfig(n=3, p=2, alpha=1.0, beta=0.5)
        x = make_rotated_point(0.0, (0.7, 0.0, 0.0))
        y = make_rotated_point(cfg.sector_phase(1), (0.5, 0.5, 0.0))
        trunc = make_truncation(cfg, x.radius * y.radius, 1e-10, "weighted")
        weighted_bergman_series(cfg, x, y, trunc)
        assert trunc.max_degree >= 20
        assert len(calls) == 2


class TestWeightedSeries:
    def test_unweighted_limit_matches_bergman_series(self):
        cfg = KernelConfig(n=3, p=2)
        rng = np.random.default_rng(9)
        for _ in range(20):
            x, y = random_sector_pair(cfg, rng)
            trunc = make_truncation(cfg, x.radius * y.radius, 1e-10, "weighted")
            a = weighted_bergman_series(cfg, x, y, trunc)
            b = bergman_series(cfg, x, y, trunc)
            assert abs(a - b) <= 1e-13 * max(1.0, abs(a))

    def test_origin_value(self):
        cfg = KernelConfig(n=3, p=2, alpha=1.0, beta=0.5)
        trunc = Truncation(max_degree=4, tol=1.0, calibrated_C=1.0)
        got = weighted_bergman_series(cfg, ORIGIN3, ORIGIN3, trunc)
        expected = weighted_coefficient(3, 1.0, 0.5, 0) / (3 * unit_ball_volume(3))
        assert_allclose(got, expected, rtol=1e-14)

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.0, 0.5), (-0.5, 2.0)])
    def test_decomposition_identity(self, alpha, beta):
        rng = np.random.default_rng(17)
        for n in (2, 3, 4):
            for p in (1, 2, 3):
                cfg = KernelConfig(n=n, p=p, alpha=alpha, beta=beta)
                for _ in range(25):
                    x, y = random_sector_pair(cfg, rng)
                    trunc = make_truncation(cfg, x.radius * y.radius, 1e-10, "weighted")
                    a = weighted_bergman_series(cfg, x, y, trunc)
                    b = weighted_bergman_decomposed(cfg, x, y, trunc)
                    assert abs(a - b) <= 1e-9


class TestWeightedDecomposed:
    def test_order_one_identical(self):
        cfg = KernelConfig(n=3, p=1, alpha=1.0, beta=0.5)
        rng = np.random.default_rng(21)
        for _ in range(10):
            x, y = random_sector_pair(cfg, rng)
            trunc = make_truncation(cfg, x.radius * y.radius, 1e-10, "weighted")
            a = weighted_bergman_series(cfg, x, y, trunc)
            b = weighted_bergman_decomposed(cfg, x, y, trunc)
            assert a == b

    def test_unweighted_special_case_matches_closed_form(self):
        rng = np.random.default_rng(23)
        for p in (2, 3):
            cfg = KernelConfig(n=3, p=p)
            for _ in range(20):
                x, y = random_sector_pair(cfg, rng)
                trunc = make_truncation(cfg, x.radius * y.radius, 1e-10, "weighted")
                got = weighted_bergman_decomposed(cfg, x, y, trunc)
                assert abs(got - bergman(cfg, x, y)) <= 1e-9

    def test_origin_only_first_terms_survive(self):
        cfg = KernelConfig(n=3, p=3, alpha=0.5, beta=1.5)
        trunc = Truncation(max_degree=6, tol=1.0, calibrated_C=1.0)
        got = weighted_bergman_decomposed(cfg, ORIGIN3, ORIGIN3, trunc)
        expected = weighted_coefficient(3, 0.5, 1.5, 0) / (3 * unit_ball_volume(3))
        assert_allclose(got, expected, rtol=1e-14)


def _assert_matches_weighted_series(cfg, x, y):
    trunc = make_truncation(cfg, x.radius * y.radius, 1e-13, "weighted")
    ref = weighted_bergman_series(cfg, x, y, trunc)
    assert abs(derivative_form_check(cfg, x, y) - ref) <= 1e-11


class TestDerivativeForm:
    def test_beta_zero_matches_bergman(self):
        rng = np.random.default_rng(31)
        for n in (2, 3, 4, 5):
            for p in (1, 2, 3):
                cfg = KernelConfig(n=n, p=p)
                for _ in range(5):
                    x, y = random_sector_pair(cfg, rng)
                    ref = bergman(cfg, x, y)
                    assert abs(derivative_form_check(cfg, x, y) - ref) <= 1e-13 * abs(ref)

    def test_origin_value(self):
        # the integrand collapses to t^gamma
        y = make_rotated_point(0.0, (0.3, 0.2, 0.0))
        for beta in (0.0, 1.0, 2.0, 3.0):
            cfg = KernelConfig(n=3, p=2, alpha=0.5, beta=beta)
            expected = weighted_coefficient(3, 0.5, beta, 0) / (3 * unit_ball_volume(3))
            assert_allclose(derivative_form_check(cfg, ORIGIN3, y), expected, rtol=1e-14)

    def test_beta_one_matches_weighted_series(self):
        _assert_matches_weighted_series(KernelConfig(n=3, p=2, beta=1.0), DIAG3, DIAG3)

    def test_beta_two_matches_weighted_series(self):
        x = make_rotated_point(0.0, (0.4, 0.0, 0.0))
        _assert_matches_weighted_series(KernelConfig(n=3, p=1, beta=2.0), x, x)

    def test_higher_betas_match_weighted_series(self):
        rng = np.random.default_rng(37)
        for n in (2, 3, 4, 5):
            for p in (1, 2, 3):
                for beta in (3.0, 4.0):
                    cfg = KernelConfig(n=n, p=p, alpha=1.0, beta=beta)
                    _assert_matches_weighted_series(cfg, *random_sector_pair(cfg, rng))

    def test_near_boundary_point_matches_series(self):
        # t x leaves the ball for t > 1.0001; the jets only use t = 1
        x = make_rotated_point(0.0, (0.9999, 0.0, 0.0))
        y = make_rotated_point(0.0, (0.1, 0.0, 0.0))
        _assert_matches_weighted_series(KernelConfig(n=3, p=1, beta=1.0), x, y)

    def test_parameter_validation(self):
        for beta in (0.5, -0.5):
            with pytest.raises(ValueError):
                derivative_form_check(KernelConfig(n=3, p=1, beta=beta), DIAG3, DIAG3)


class TestTruncationDegree:
    def test_zero_radius(self):
        cfg = KernelConfig(n=3, p=2)
        assert truncation_degree(cfg, 0.0, 1e-10) == 0

    def test_monotone_in_radius(self):
        cfg = KernelConfig(n=3, p=2)
        assert truncation_degree(cfg, 0.8, 1e-10) >= truncation_degree(cfg, 0.5, 1e-10)

    def test_monotone_in_tolerance(self):
        cfg = KernelConfig(n=4, p=2)
        assert truncation_degree(cfg, 0.5, 1e-12) >= truncation_degree(cfg, 0.5, 1e-6)

    def test_radius_cap(self):
        cfg = KernelConfig(n=3, p=1, r_max=0.9)
        with pytest.raises(ConvergenceDomain):
            truncation_degree(cfg, 0.95, 1e-10)

    @pytest.mark.parametrize(
        "r,tol", [(math.nan, 1e-10), (math.inf, 1e-10), (0.5, math.nan), (0.5, math.inf), (0.5, 0.0)]
    )
    def test_rejects_non_finite_or_non_positive_input(self, r, tol):
        cfg = KernelConfig(n=3, p=2)
        with pytest.raises(ValueError):
            truncation_degree(cfg, r, tol, "weighted")

    @pytest.mark.parametrize("kind", ["poisson", "bergman", "weighted"])
    def test_a_posteriori_self_consistency(self, kind):
        # enlarging the truncation by 10 degrees moves the sum by < tol
        tol = 1e-9
        rng = np.random.default_rng(31)
        series = {
            "poisson": poisson_series,
            "bergman": bergman_series,
            "weighted": weighted_bergman_series,
        }[kind]
        for _ in range(100):
            n = int(rng.integers(2, 6))
            p = int(rng.integers(1, 4))
            cfg = KernelConfig(n=n, p=p, alpha=0.5 if kind == "weighted" else 0.0)
            x, y = random_sector_pair(cfg, rng)
            m = truncation_degree(cfg, x.radius * y.radius, tol, kind)
            cal = 1.0
            a = series(cfg, x, y, Truncation(m, tol, cal))
            b = series(cfg, x, y, Truncation(m + 10, tol, cal))
            assert abs(a - b) < tol


def _reference_truncation_degree(cfg, r, tol, kind):
    """The term-by-term search: two terms per step, weights from
    weighted_coefficient."""
    if r == 0.0:
        return 0
    chat = kernels.calibrated_constant(cfg) * cfg.p

    def term(m):
        g = {"poisson": 1.0, "bergman": cfg.n + 2.0 * m}.get(kind)
        if g is None:
            g = weighted_coefficient(cfg.n, cfg.alpha, cfg.beta, m)
        return g * float(m) ** (cfg.n - 2) * r**m

    for big_m in range(100_000):
        a1 = term(big_m + 1)
        rho = term(big_m + 2) / a1
        if rho < 1.0 and chat * a1 / (1.0 - rho) < tol:
            return big_m
    raise AssertionError("reference search did not stop")


class TestTruncationReference:
    @pytest.mark.parametrize("kind", ["poisson", "bergman", "weighted"])
    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.5), (-0.5, 2.0)])
    def test_degrees_match_term_by_term_search(self, kind, alpha, beta):
        for n in (2, 3, 4, 5):
            for p in (1, 2, 3):
                cfg = KernelConfig(n=n, p=p, alpha=alpha, beta=beta)
                for r in np.linspace(0.0, cfg.r_max, 40):
                    r = float(r)
                    assert truncation_degree(cfg, r, 1e-10, kind) == _reference_truncation_degree(
                        cfg, r, 1e-10, kind
                    ), (kind, n, p, alpha, beta, r)


class TestCrossSectorConjugateSymmetry:
    def test_cross_sector_residuals_recorded_not_asserted(self):
        # conjugate symmetry is only claimed on real arguments; across sectors
        # we record the residual as data (it is genuinely nonzero there)
        cfg = KernelConfig(n=3, p=2)
        rng = np.random.default_rng(77)
        residuals = []
        for _ in range(50):
            x = make_rotated_point(cfg.sector_phase(1), rng.uniform(-0.5, 0.5, 3))
            y = make_rotated_point(0.0, rng.uniform(-0.5, 0.5, 3))
            a = bergman(cfg, x, y)
            b = bergman(cfg, y, x)
            residuals.append(abs(a - np.conj(b)) / max(1.0, abs(a)))
        finite = [r for r in residuals if math.isfinite(r)]
        assert len(finite) == len(residuals)
        print(
            f"cross-sector conjugate-symmetry residuals: "
            f"max={max(residuals):.3e} median={sorted(residuals)[25]:.3e}"
        )


class TestRegime:
    def test_standard_inside(self):
        cfg = KernelConfig(n=3, p=2)
        x = make_rotated_point(cfg.sector_phase(1), (0.5, 0.0, 0.0))
        assert evaluation_regime(cfg, x, x) == "standard"

    def test_extension_past_radius_cap(self):
        cfg = KernelConfig(n=3, p=2, r_max=0.9)
        x = make_rotated_point(0.0, (0.95, 0.0, 0.0))
        assert evaluation_regime(cfg, x) == "extension"

    def test_extension_off_sector_phase(self):
        cfg = KernelConfig(n=3, p=2)
        x = make_rotated_point(0.3, (0.5, 0.0, 0.0))
        assert evaluation_regime(cfg, x) == "extension"
