import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import roots_jacobi

from polybergman import (
    KernelConfig,
    build_ball_rule,
    build_radial_rule,
    build_sphere_rule,
    inner_product_ball,
    inner_product_sphere,
    make_rotated_point,
    radial_moment,
    random_homogeneous,
    random_polyharmonic,
    reproduce,
    sphere_monomial_moment,
    unit_ball_volume,
)
from polybergman import kernels, polyspace
from polybergman.kernels import weighted_coefficient
from polybergman.polyspace import eval_at_phase, evaluate
from polybergman.quadrature import RadialRule, SphereRule


def rule_monomial(rule, kappa):
    vals = np.prod(rule.nodes ** np.asarray(kappa), axis=1)
    return float(np.sum(rule.weights * vals))


class TestSphereMonomialMoment:
    def test_odd_exponents_vanish(self):
        assert sphere_monomial_moment((1, 0, 0)) == 0.0
        assert sphere_monomial_moment((2, 3, 0)) == 0.0

    def test_second_moment_is_one_over_n(self):
        for n in (2, 3, 4, 5):
            kappa = [0] * n
            kappa[0] = 2
            assert_allclose(sphere_monomial_moment(kappa), 1.0 / n, rtol=1e-14)

    def test_against_direct_angular_quadrature(self):
        # independent oracle: explicit angular integrals on the circle and 2-sphere
        for a, b in [(2, 0), (4, 2), (0, 6), (2, 2)]:
            val, _ = quad(lambda t: math.cos(t) ** a * math.sin(t) ** b, 0, 2 * math.pi)
            assert_allclose(sphere_monomial_moment((a, b)), val / (2 * math.pi), atol=1e-13)
        for kappa in [(2, 0, 0), (2, 2, 0), (4, 0, 2)]:
            def integrand(theta, kappa=kappa):
                c, s = math.cos(theta), math.sin(theta)
                inner, _ = quad(
                    lambda ph: (s * math.cos(ph)) ** kappa[1] * (s * math.sin(ph)) ** kappa[2],
                    0,
                    2 * math.pi,
                )
                return c ** kappa[0] * s * inner
            val, _ = quad(integrand, 0, math.pi)
            assert_allclose(sphere_monomial_moment(kappa), val / (4 * math.pi), atol=1e-12)


class TestSphereRule:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_mass_and_basic_moments(self, n):
        rule = build_sphere_rule(n, 12)
        assert abs(float(np.sum(rule.weights)) - 1.0) <= 1e-13
        kappa = [0] * n
        assert_allclose(rule_monomial(rule, kappa), 1.0, rtol=1e-14)
        kappa[0] = 2
        assert_allclose(rule_monomial(rule, kappa), 1.0 / n, atol=1e-13)
        kappa[0] = 1
        assert abs(rule_monomial(rule, kappa)) <= 1e-15

    @pytest.mark.parametrize("n,degree", [(2, 11), (3, 12), (4, 9), (5, 8)])
    def test_monomial_exactness(self, n, degree):
        rule = build_sphere_rule(n, degree)
        rng = np.random.default_rng(n * degree)
        for _ in range(60):
            kappa = rng.multinomial(int(rng.integers(0, degree + 1)), np.ones(n) / n)
            got = rule_monomial(rule, kappa)
            want = sphere_monomial_moment(kappa)
            assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("n,degree", [(2, 9), (3, 12), (4, 7), (5, 6), (6, 4)])
    def test_matches_polar_node_loop(self, n, degree):
        # reference: one block of the inner rule per polar node, the same
        # products in the same order, so the rule must agree bit for bit
        n_azim = max(2, 2 * (degree // 2) + 2)
        phis = 2.0 * math.pi * np.arange(n_azim) / n_azim
        nodes = np.stack([np.cos(phis), np.sin(phis)], axis=1)
        weights = np.full(n_azim, 1.0 / n_azim)
        for j in range(n - 3, -1, -1):
            gamma = 0.5 * (n - 2 - (j + 1))
            t, w = roots_jacobi(degree // 2 + 1, gamma, gamma)
            sin_t = np.sqrt(1.0 - t * t)
            nodes = np.concatenate([np.column_stack([np.full(len(nodes), ti), si * nodes])
                                    for ti, si in zip(t, sin_t)])
            weights = np.concatenate([wi * weights for wi in w])
        rule = build_sphere_rule(n, degree)
        assert np.array_equal(rule.nodes, nodes)
        assert np.array_equal(rule.weights, weights / np.sum(weights))

    def test_node_cap(self):
        with pytest.raises(ValueError):
            build_sphere_rule(6, 200)

    def test_rejects_weight_count_mismatch(self):
        rule = build_sphere_rule(3, 4)
        weights = rule.weights[:-1] / np.sum(rule.weights[:-1])
        with pytest.raises(ValueError):
            SphereRule(nodes=rule.nodes, weights=weights, exact_degree=4)


class TestRadialRule:
    def test_elementary_integrals(self):
        # int_0^1 r^2 dr = 1/3 and int_0^1 r^3 (1-r^2) dr = 1/12
        r3 = build_radial_rule(3, 0.0, 0.0, 6)
        assert_allclose(float(np.sum(r3.weights)), 1.0 / 3.0, rtol=1e-14)
        r2 = build_radial_rule(2, 0.0, 1.0, 6)
        got = float(np.sum(r2.weights * r2.nodes**2))
        assert_allclose(got, 1.0 / 12.0, rtol=1e-13)

    @pytest.mark.parametrize("n,alpha,beta", [(2, 0.0, 0.0), (3, 1.0, 0.5), (4, -0.5, 2.0), (5, 0.0, 1.0)])
    def test_matches_gamma_moments(self, n, alpha, beta):
        rule = build_radial_rule(n, alpha, beta, 24)
        for m in range(0, 21):
            got = float(np.sum(rule.weights * rule.nodes ** (2 * m)))
            want = radial_moment(n, m, alpha, beta)
            assert abs(got - want) <= 1e-12 * max(1.0, want)

    def test_mass_equals_zeroth_moment(self):
        for n, alpha, beta in [(2, 0.3, -0.2), (3, 0.0, 0.0), (4, 1.5, 3.0)]:
            rule = build_radial_rule(n, alpha, beta, 10)
            assert abs(float(np.sum(rule.weights)) - radial_moment(n, 0, alpha, beta)) <= 1e-13

    def test_rejects_invalid_rules(self):
        rule = build_radial_rule(3, 1.0, 0.5, 7)
        with pytest.raises(ValueError):
            RadialRule(nodes=rule.nodes, weights=rule.weights[:-1], n=3, alpha=1.0, beta=0.5)
        with pytest.raises(ValueError):
            RadialRule(nodes=rule.nodes, weights=2.0 * rule.weights, n=3, alpha=1.0, beta=0.5)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_radial_rule(2, -3.0, 0.0, 5)
        with pytest.raises(ValueError):
            build_radial_rule(3, 0.0, -1.0, 5)
        with pytest.raises(ValueError):
            build_radial_rule(3, 0.0, 0.0, 0)


def test_rules_are_read_only_whether_built_or_loaded():
    # "loaded" is the memoised rule a repeated call returns
    for build in (build_sphere_rule, build_radial_rule):
        build.cache_clear()
    for build in (lambda: build_sphere_rule(3, 6), lambda: build_radial_rule(3, 1.0, 0.5, 7)):
        built = build()
        memoised = build()
        for arr in (built.nodes, built.weights, memoised.nodes, memoised.weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0
    assert build_sphere_rule.cache_info().hits == 1
    assert build_radial_rule.cache_info().hits == 1


def test_rules_are_memoised():
    assert build_sphere_rule(3, 6) is build_sphere_rule(3, 6)
    assert build_radial_rule(3, 1.0, 0.5, 7) is build_radial_rule(3, 1.0, 0.5, 7)
    ball = build_ball_rule(3, 1.0, 0.5, 10)
    assert ball.sphere is build_sphere_rule(3, 10)
    assert ball.radial is build_radial_rule(3, 1.0, 0.5, 7)


def test_residual_builds_its_sphere_rule_once():
    cfg = KernelConfig(n=4, p=2)
    q = random_polyharmonic(cfg, 7, 6, 11)
    assert q.degree >= 2 * cfg.p  # so the residual needs a sphere rule
    x = make_rotated_point(0.0, (0.2, -0.1, 0.3, 0.0))
    misses = build_sphere_rule.cache_info().misses
    first = polyspace.laplacian_power_residual(q, x)
    second = polyspace.laplacian_power_residual(q, x)
    assert first == second
    assert build_sphere_rule.cache_info().misses - misses <= 1


def test_ball_rule_normalization_is_derived():
    for n in (2, 3, 5):
        rule = build_ball_rule(n, 0.0, 0.0, 4)
        assert rule.normalization == n * unit_ball_volume(n)
    with pytest.raises(TypeError):
        type(rule)(sphere=rule.sphere, radial=rule.radial, normalization=1.0)


class TestRadialMoment:
    def test_hand_values(self):
        assert_allclose(radial_moment(3, 0, 0.0, 0.0), 1.0 / 3.0, rtol=1e-14)
        assert_allclose(radial_moment(2, 1, 0.0, 1.0), 1.0 / 12.0, rtol=1e-14)

    def test_beta_zero_closed_form(self):
        for n in (2, 3, 5):
            for m in (0, 1, 4):
                for alpha in (0.0, 0.7, -0.3):
                    assert_allclose(
                        radial_moment(n, m, alpha, 0.0), 1.0 / (n + 2 * m + alpha), rtol=1e-13
                    )

    def test_against_scipy_quad(self):
        for n, m, alpha, beta in [(3, 2, 0.0, 0.5), (2, 5, 1.0, 2.0), (4, 0, -0.5, -0.4)]:
            val, _ = quad(
                lambda r: r ** (n + 2 * m + alpha - 1) * (1 - r * r) ** beta, 0, 1
            )
            assert_allclose(radial_moment(n, m, alpha, beta), val, rtol=1e-10)


class TestInnerProducts:
    def test_sphere_constants(self):
        cfg = KernelConfig(n=3, p=2)
        rule = build_sphere_rule(3, 8)
        one = lambda ph, pts: np.ones(pts.shape[0], dtype=complex)  # noqa: E731
        assert_allclose(inner_product_sphere(cfg, one, one, rule), 1.0 + 0.0j, rtol=1e-14)

    def test_ball_constant_gives_volume(self):
        cfg = KernelConfig(n=3, p=2)
        rule = build_ball_rule(3, 0.0, 0.0, 8)
        one = lambda ph, pts: np.ones(pts.shape[0], dtype=complex)  # noqa: E731
        got = inner_product_ball(cfg, 0.0, 0.0, one, one, rule)
        assert_allclose(got.real, unit_ball_volume(3), rtol=1e-13)

    @pytest.mark.parametrize("n,p", [(2, 1), (2, 3), (3, 2)])
    def test_cross_degree_orthogonality(self, n, p):
        cfg = KernelConfig(n=n, p=p)
        sphere = build_sphere_rule(n, 20)
        ball = build_ball_rule(n, 0.0, 0.0, 20)
        polys = {m: random_homogeneous(cfg, m, 4, seed=50 + m) for m in range(9)}
        for m in range(9):
            nm_s = math.sqrt(abs(inner_product_sphere(cfg, polys[m], polys[m], sphere)))
            for l in range(m + 1, 9):
                nl_s = math.sqrt(abs(inner_product_sphere(cfg, polys[l], polys[l], sphere)))
                ip = inner_product_sphere(cfg, polys[m], polys[l], sphere)
                assert abs(ip) <= 1e-9 * nm_s * nl_s
                ipb = inner_product_ball(cfg, 0.0, 0.0, polys[m], polys[l], ball)
                nm_b = math.sqrt(abs(inner_product_ball(cfg, 0.0, 0.0, polys[m], polys[m], ball)))
                nl_b = math.sqrt(abs(inner_product_ball(cfg, 0.0, 0.0, polys[l], polys[l], ball)))
                assert abs(ipb) <= 1e-9 * nm_b * nl_b

    def test_diagonal_is_positive_real(self):
        cfg = KernelConfig(n=3, p=3)
        rule = build_sphere_rule(3, 20)
        q = random_homogeneous(cfg, 5, 4, seed=2)
        val = inner_product_sphere(cfg, q, q, rule)
        assert val.real > 0
        assert abs(val.imag) <= 1e-14 * val.real

    def test_polar_factorization(self):
        # ball norm of a homogeneous polynomial = n Vol_n * radial moment * sphere norm
        cfg = KernelConfig(n=3, p=2)
        sphere = build_sphere_rule(3, 20)
        ball = build_ball_rule(3, 0.0, 0.0, 20)
        for m in range(7):
            q = random_homogeneous(cfg, m, 4, seed=m)
            via_ball = inner_product_ball(cfg, 0.0, 0.0, q, q, ball)
            via_sphere = inner_product_sphere(cfg, q, q, sphere)
            factor = 3 * unit_ball_volume(3) * radial_moment(3, m, 0.0, 0.0)
            assert_allclose(via_ball.real, factor * via_sphere.real, rtol=1e-12)

    @pytest.mark.parametrize("n,p", [(2, 3), (3, 2)])
    def test_callable_route_matches_polynomial_route(self, n, p):
        cfg = KernelConfig(n=n, p=p)
        sphere = build_sphere_rule(n, 12)
        ball = build_ball_rule(n, 0.0, 0.0, 12)
        f = random_polyharmonic(cfg, 5, blocks=4, seed=n + p)
        g = random_polyharmonic(cfg, 5, blocks=4, seed=n * p + 9)
        fc = lambda ph, pts: eval_at_phase(f, ph, pts)  # noqa: E731
        gc = lambda ph, pts: eval_at_phase(g, ph, pts)  # noqa: E731
        for got, want in [
            (inner_product_sphere(cfg, fc, gc, sphere), inner_product_sphere(cfg, f, g, sphere)),
            (inner_product_ball(cfg, 0.0, 0.0, fc, gc, ball), inner_product_ball(cfg, 0.0, 0.0, f, g, ball)),
        ]:
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    def test_one_recurrence_per_polynomial_per_call(self, monkeypatch):
        # the zonal factors depend on the sphere node only: one recurrence
        # per operand, whatever the number of sectors and radial nodes
        calls = []

        def counted(*args):
            calls.append(args)
            return zonal_values(*args)

        zonal_values = polyspace.zonal_values
        monkeypatch.setattr(polyspace, "zonal_values", counted)
        cfg = KernelConfig(n=3, p=3)
        ball = build_ball_rule(3, 0.0, 0.0, 12)
        q = random_polyharmonic(cfg, 6, blocks=5, seed=1)
        inner_product_ball(cfg, 0.0, 0.0, q, q, ball)
        assert len(calls) == 2
        x = make_rotated_point(cfg.sector_phase(1), (0.2, 0.1, -0.3))
        reproduce(cfg, 0.0, 0.0, q, x, 6, build_ball_rule(3, 0.0, 0.0, 14))
        assert len(calls) == 3

    def test_weight_mismatch_rejected(self):
        cfg = KernelConfig(n=3, p=1)
        rule = build_ball_rule(3, 1.0, 0.5, 8)
        one = lambda ph, pts: np.ones(pts.shape[0], dtype=complex)  # noqa: E731
        with pytest.raises(ValueError):
            inner_product_ball(cfg, 0.0, 0.0, one, one, rule)


class TestReproduce:
    def test_constant_at_origin(self):
        cfg = KernelConfig(n=3, p=2)
        rule = build_ball_rule(3, 0.0, 0.0, 10)
        u = random_polyharmonic(cfg, 0, blocks=1, seed=0)
        origin = make_rotated_point(0.0, np.zeros(3))
        got = reproduce(cfg, 0.0, 0.0, u, origin, 2, rule)
        want = evaluate(u, origin)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_random_polynomials(self, n, p):
        cfg = KernelConfig(n=n, p=p)
        rule = build_ball_rule(n, 0.0, 0.0, 16)
        rng = np.random.default_rng(5 * n + p)
        for i in range(12):
            u = random_polyharmonic(cfg, 6, blocks=6, seed=100 * n + 10 * p + i)
            direction = rng.normal(size=n)
            direction /= np.linalg.norm(direction)
            x = make_rotated_point(
                cfg.sector_phase(int(rng.integers(0, p))), rng.uniform(0, 0.7) * direction
            )
            got = reproduce(cfg, 0.0, 0.0, u, x, 6, rule)
            want = evaluate(u, x)
            assert abs(got - want) <= 1e-8 * (1.0 + abs(want))

    def test_weighted_case(self):
        cfg = KernelConfig(n=3, p=2)
        rule = build_ball_rule(3, 1.0, 0.5, 16)
        for i in range(8):
            u = random_polyharmonic(cfg, 6, blocks=6, seed=40 + i)
            x = make_rotated_point(cfg.sector_phase(1), (0.3, -0.2, 0.1))
            got = reproduce(cfg, 1.0, 0.5, u, x, 6, rule)
            want = evaluate(u, x)
            assert abs(got - want) <= 1e-8 * (1.0 + abs(want))

    def test_kernel_weights_take_one_log_gamma_value(self, monkeypatch):
        # the weights of every degree come from the Gamma-ratio recurrence
        # started at one weighted_coefficient value
        calls = []

        def counted(*args):
            calls.append(args)
            return weighted_coefficient(*args)

        monkeypatch.setattr(kernels, "weighted_coefficient", counted)
        cfg = KernelConfig(n=3, p=2)
        rule = build_ball_rule(3, 1.0, 0.5, 16)
        u = random_polyharmonic(cfg, 6, blocks=6, seed=40)
        x = make_rotated_point(cfg.sector_phase(1), (0.3, -0.2, 0.1))
        reproduce(cfg, 1.0, 0.5, u, x, 6, rule)
        assert calls == [(3, 1.0, 0.5, 0)]

    def test_degree_and_exactness_guards(self):
        cfg = KernelConfig(n=3, p=1)
        rule = build_ball_rule(3, 0.0, 0.0, 8)
        u = random_polyharmonic(cfg, 6, blocks=3, seed=0)
        x = make_rotated_point(0.0, (0.1, 0.0, 0.0))
        with pytest.raises(ValueError):
            reproduce(cfg, 0.0, 0.0, u, x, 4, rule)  # truncation below degree
        with pytest.raises(ValueError):
            reproduce(cfg, 0.0, 0.0, u, x, 6, rule)  # rule too weak for 2M+2


class TestMeanValueInequality:
    def test_point_evaluation_bounded_by_ball_norm(self):
        # |u(x)|^2 / ||u||^2 stays bounded on the radius-0.5 ball, with no
        # growth trend beyond 2x between the degree-4 and degree-8 samples
        cfg = KernelConfig(n=3, p=2)
        ball = build_ball_rule(3, 0.0, 0.0, 20)
        rng = np.random.default_rng(19)

        def max_ratio(degree):
            worst = 0.0
            for i in range(50):
                u = random_polyharmonic(cfg, degree, blocks=5, seed=1000 * degree + i)
                norm2 = inner_product_ball(cfg, 0.0, 0.0, u, u, ball).real
                for _ in range(4):
                    direction = rng.normal(size=3)
                    direction /= np.linalg.norm(direction)
                    x = make_rotated_point(0.0, rng.uniform(0, 0.5) * direction)
                    worst = max(worst, abs(evaluate(u, x)) ** 2 / norm2)
            return worst

        ratio4 = max_ratio(4)
        ratio8 = max_ratio(8)
        assert math.isfinite(ratio4) and math.isfinite(ratio8)
        assert ratio8 <= 2.0 * ratio4


class TestBallRuleComposition:
    def test_weighted_ball_integral_of_radial_monomial(self):
        # int_B |y|^(2m) |y|^alpha (1-|y|^2)^beta dy via polar closed form
        n, alpha, beta = 3, 1.0, 0.5
        rule = build_ball_rule(n, alpha, beta, 12)
        for m in (0, 1, 3):
            f = lambda ph, pts, m=m: (np.sum(pts * pts, axis=1) ** m).astype(complex)  # noqa: E731
            one = lambda ph, pts: np.ones(pts.shape[0], dtype=complex)  # noqa: E731
            cfg = KernelConfig(n=n, p=1)
            got = inner_product_ball(cfg, alpha, beta, f, one, rule)
            want = n * unit_ball_volume(n) * radial_moment(n, m, alpha, beta)
            assert_allclose(got.real, want, rtol=1e-12)
