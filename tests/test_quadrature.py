import math
import tracemalloc

import mpmath
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
    mean_value_eval,
    radial_moment,
    random_homogeneous,
    random_polyharmonic,
    reproduce,
    sphere_monomial_moment,
    unit_ball_volume,
)
from polybergman import NearSingular, kernels, quadrature, zonal
from polybergman.core import principal_pow
from polybergman.kernels import _weight_table, weighted_coefficient
from polybergman.polyspace import eval_at_phase, eval_complex, evaluate
from polybergman.quadrature import RadialRule, SphereRule
from polybergman.zonal import zonal_poly_sum


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def rule_monomial(rule, kappa):
    vals = np.prod(rule.nodes ** np.asarray(kappa), axis=1)
    return float(np.sum(rule.weights * vals))


def polar_node_loop(n, degree, half=False):
    """Reference rule: the equispaced azimuths (those in [0, pi) for half),
    then one block of the inner rule per polar node; weights summing to 1.
    The full loop is the plain product rule: the antipodal rule's nodes in
    another order, up to rounding."""
    n_azim = max(2, 2 * (degree // 2) + 2)
    phis = 2.0 * math.pi * np.arange(n_azim // 2 if half else n_azim) / n_azim
    nodes = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    weights = np.full(len(phis), 1.0 / n_azim)
    for j in range(n - 3, -1, -1):
        gamma = 0.5 * (n - 2 - (j + 1))
        t, w = roots_jacobi(degree // 2 + 1, gamma, gamma)
        sin_t = np.sqrt(1.0 - t * t)
        nodes = np.concatenate([np.column_stack([np.full(len(nodes), ti), si * nodes])
                                for ti, si in zip(t, sin_t)])
        weights = np.concatenate([wi * weights for wi in w])
    return nodes, weights / np.sum(weights)


class TestSphereMonomialMoment:
    @pytest.mark.parametrize("kappa", [[1.5, 0], [2.0, 0], [True, 0], ["2", 0], []])
    def test_rejects_non_integer_or_missing_exponents(self, kappa):
        with pytest.raises(ValueError, match="exponent"):
            sphere_monomial_moment(kappa)

    def test_numpy_integer_exponents(self):
        assert sphere_monomial_moment(np.array([2, 0, 2])) == sphere_monomial_moment((2, 0, 2))

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
        # reference: the half H followed by -H, the same products in the
        # same order, so the rule must agree bit for bit
        nodes, weights = polar_node_loop(n, degree, half=True)
        rule = build_sphere_rule(n, degree)
        assert np.array_equal(rule.nodes, np.concatenate([nodes, -nodes]))
        assert np.array_equal(rule.weights, np.concatenate([weights, weights]) / 2.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("degree", [4, 6])  # 3 and 4 polar nodes
    def test_antipodal_layout(self, n, degree):
        rule = build_sphere_rule(n, degree)
        h, odd = divmod(rule.nodes.shape[0], 2)
        assert odd == 0
        assert np.array_equal(rule.nodes[h:], -rule.nodes[:h])
        assert np.array_equal(rule.weights[h:], rule.weights[:h])
        assert np.shares_memory(rule.half_nodes, rule.nodes)
        assert np.array_equal(rule.half_nodes, rule.nodes[:h])
        assert np.array_equal(rule.half_weights, 2.0 * rule.weights[:h])
        assert not rule.half_nodes.flags.writeable and not rule.half_weights.flags.writeable

    @pytest.mark.parametrize("n,degree", [(2, 9), (3, 12), (3, 6), (4, 7), (5, 6)])
    def test_product_rule_up_to_rounding(self, n, degree):
        # each product node has exactly one rule node within a few ulps, of
        # the same weight to a few ulps: cos and sin of an azimuth in
        # [pi, 2 pi) carry the rounding of its larger argument, where -H
        # negates the values at [0, pi)
        rule = build_sphere_rule(n, degree)
        nodes, weights = polar_node_loop(n, degree)
        dist = np.abs(nodes[:, None, :] - rule.nodes[None, :, :]).max(axis=2)
        match = dist.argmin(axis=1)
        assert sorted(match) == list(range(len(nodes)))
        assert dist[np.arange(len(nodes)), match].max() <= 2e-15
        assert_allclose(rule.weights[match], weights, rtol=2e-15)

    def test_rejects_a_rule_that_is_not_antipodal(self):
        rule = build_sphere_rule(3, 6)
        nodes, weights = polar_node_loop(3, 6)
        for bad_nodes, bad_weights in [
            (nodes, weights),  # the product layout
            (rule.nodes[[1, 0, *range(2, len(rule.nodes))]], rule.weights),  # H in another order than -H
            (rule.nodes[1:], rule.weights[1:] / np.sum(rule.weights[1:])),  # an odd count
            (rule.nodes, np.concatenate([rule.half_weights * 0.75, rule.half_weights * 0.25])),
        ]:
            with pytest.raises(ValueError, match="antipodal"):
                SphereRule(nodes=bad_nodes.copy(), weights=bad_weights.copy(), exact_degree=6)

    def test_node_cap(self):
        with pytest.raises(ValueError):
            build_sphere_rule(6, 200)

    def test_rejects_weight_count_mismatch(self):
        rule = build_sphere_rule(3, 4)
        weights = rule.weights[:-1] / np.sum(rule.weights[:-1])
        with pytest.raises(ValueError):
            SphereRule(nodes=rule.nodes, weights=weights, exact_degree=4)

    @pytest.mark.parametrize("scale", [1.0 + 1e-10, 1.0 - 1e-10, 0.0])
    def test_rejects_a_node_that_is_not_a_unit_vector(self, scale):
        # the cubature clips node cosines with no check of its own, so every
        # node is checked once, here
        rule = build_sphere_rule(3, 6)
        nodes = rule.nodes.copy()
        half = nodes.shape[0] // 2
        nodes[[2, half + 2]] *= scale
        with pytest.raises(ValueError, match="unit vectors"):
            SphereRule(nodes=nodes, weights=rule.weights.copy(), exact_degree=6)


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


class TestIntegerArguments:
    """The rule builders and radial_moment reject non-integer and bool
    integer arguments with ValueError, also when an equal integer call is
    memoised."""

    @pytest.mark.parametrize("n, degree", [(3, 4.0), (3.0, 4), (True, 4), (3, True), (3, -1), (1, 4), (3, "4")])
    def test_sphere_rule(self, n, degree):
        build_sphere_rule(3, 4)
        build_sphere_rule(3, 1)
        with pytest.raises(ValueError):
            build_sphere_rule(n, degree)

    @pytest.mark.parametrize("n, nodes", [(3, True), (3, 1.0), (3.0, 1), (3, 0), (3, "1")])
    def test_radial_rule(self, n, nodes):
        build_radial_rule(3, 0.0, 0.0, 1)
        with pytest.raises(ValueError):
            build_radial_rule(n, 0.0, 0.0, nodes)

    @pytest.mark.parametrize("n, m", [(3, 1.5), (3, True), (3, 1.0), (3.0, 1), (True, 1), (3, -1)])
    def test_radial_moment(self, n, m):
        with pytest.raises(ValueError):
            radial_moment(n, m, 0.0, 0.0)

    def test_numpy_integers_pass(self):
        assert radial_moment(np.int64(3), np.int32(1), 0.0, 0.0) == radial_moment(3, 1, 0.0, 0.0)
        assert build_sphere_rule(np.int64(3), np.int64(4)) is build_sphere_rule(3, 4)

    def test_equal_requests_share_one_rule(self):
        # the arguments are converted before the memo lookup, so equal
        # requests of other numeric types neither build nor keep a second rule
        sphere, radial = build_sphere_rule(3, 40), build_radial_rule(3, 0.0, 0.0, 4)
        misses = build_sphere_rule.cache_info().misses, build_radial_rule.cache_info().misses
        assert build_sphere_rule(np.int64(3), 40) is sphere
        assert build_sphere_rule(3, np.int32(40)) is sphere
        for args in ((3, 0, 0, 4), (np.int64(3), np.float64(0.0), np.float32(0.0), np.int64(4)), (3, -0.0, 0, 4)):
            assert build_radial_rule(*args) is radial
        assert (build_sphere_rule.cache_info().misses, build_radial_rule.cache_info().misses) == misses
        assert (type(radial.n), type(radial.alpha), type(radial.beta)) == (int, float, float)


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
    first = quadrature.laplacian_power_residual(q, x)
    second = quadrature.laplacian_power_residual(q, x)
    assert first == second
    assert build_sphere_rule.cache_info().misses - misses <= 1


def test_ball_rule_normalization_is_derived():
    for n in (2, 3, 5):
        rule = build_ball_rule(n, 0.0, 0.0, 4)
        assert rule.normalization == n * unit_ball_volume(n)
    with pytest.raises(TypeError):
        type(rule)(sphere=rule.sphere, radial=rule.radial, normalization=1.0)


@pytest.mark.parametrize("alpha, beta", [(math.nan, 0.0), (0.0, math.nan)])
def test_nan_weight_parameters_raise(alpha, beta):
    with pytest.raises(ValueError):
        weighted_coefficient(3, alpha, beta, 2)
    with pytest.raises(ValueError):
        radial_moment(3, 0, alpha, beta)
    with pytest.raises(ValueError):
        build_radial_rule(3, alpha, beta, 5)


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
        # radial_moment is 1 / weighted_coefficient; both agree with the
        # Gamma closed form Gamma(b+1) Gamma(z) / (2 Gamma(z+b+1)), z = m + (n+a)/2
        for n in range(2, 8):
            for m in (0, 1, 7, 60, 199):
                for alpha, beta in [(0.0, 0.0), (40.0, 7.0), (-1.5, -0.5), (3.25, 2.0)]:
                    got = radial_moment(n, m, alpha, beta)
                    z = m + 0.5 * (n + alpha)
                    gamma = 0.5 * math.exp(math.lgamma(beta + 1.0) + math.lgamma(z) - math.lgamma(z + beta + 1.0))
                    assert_allclose(got, gamma, rtol=1e-13)
                    assert_allclose(got * weighted_coefficient(n, alpha, beta, m), 1.0, rtol=1e-15)


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

    def test_one_recurrence_per_op(self, monkeypatch):
        # every array recurrence runs through zonal._zonal_rows, whichever
        # binding of zonal_values calls it; the zonal factors depend on the
        # sphere node only, so each op stacks all its node cosines (both
        # operands' poles, or the polynomial's poles and x/|x|) into one
        # recurrence, whatever the number of sectors and radial nodes
        calls = []

        def counted(*args):
            calls.append(args)
            return zonal_rows(*args)

        zonal_rows = zonal._zonal_rows
        monkeypatch.setattr(zonal, "_zonal_rows", counted)
        cfg = KernelConfig(n=3, p=3)
        ball = build_ball_rule(3, 0.0, 0.0, 14)
        f = random_polyharmonic(cfg, 6, blocks=5, seed=1)
        g = random_polyharmonic(cfg, 6, blocks=4, seed=2)
        x = make_rotated_point(cfg.sector_phase(1), (0.2, 0.1, -0.3))
        for op in (
            lambda: inner_product_ball(cfg, 0.0, 0.0, f, g, ball),
            lambda: inner_product_sphere(cfg, f, g, ball.sphere),
            lambda: reproduce(cfg, 0.0, 0.0, f, x, 6, ball),
            lambda: mean_value_eval(cfg, f, np.zeros(3), 0.6, make_rotated_point(0.0, (0.1, 0.2, 0.0)), ball.sphere),
        ):
            calls.clear()
            op()
            assert len(calls) == 1
        # the recurrence reaches the largest degree the op needs
        calls.clear()
        reproduce(cfg, 0.0, 0.0, f, x, 6, ball)
        assert calls[0][2] == 6 and calls[0][0].shape == (6, ball.sphere.nodes.shape[0] // 2)

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
        # started at one weighted_coefficient value, built once into the
        # memoised weight table and read from it on every later call
        calls = []

        def counted(*args):
            calls.append(args)
            return weighted_coefficient(*args)

        monkeypatch.setattr(kernels, "weighted_coefficient", counted)
        kernels._weight_table.cache_clear()
        cfg = KernelConfig(n=3, p=2)
        rule = build_ball_rule(3, 1.0, 0.5, 16)
        u = random_polyharmonic(cfg, 6, blocks=6, seed=40)
        x = make_rotated_point(cfg.sector_phase(1), (0.3, -0.2, 0.1))
        reproduce(cfg, 1.0, 0.5, u, x, 6, rule)
        assert calls == [(3, 1.0, 0.5, 0)]
        calls.clear()
        y = make_rotated_point(0.4, (-0.1, 0.2, 0.3))
        reproduce(cfg, 1.0, 0.5, random_polyharmonic(cfg, 5, blocks=3, seed=41), y, 6, rule)
        assert calls == []

    def test_degree_and_exactness_guards(self):
        cfg = KernelConfig(n=3, p=1)
        rule = build_ball_rule(3, 0.0, 0.0, 8)
        u = random_polyharmonic(cfg, 6, blocks=3, seed=0)
        x = make_rotated_point(0.0, (0.1, 0.0, 0.0))
        with pytest.raises(ValueError):
            reproduce(cfg, 0.0, 0.0, u, x, 4, rule)  # truncation below degree
        with pytest.raises(ValueError):
            reproduce(cfg, 0.0, 0.0, u, x, 6, rule)  # rule too weak for 2M+2

    def test_truncation_must_be_an_integer(self):
        cfg = KernelConfig(n=3, p=2)
        rule = build_ball_rule(3, 0.0, 0.0, 16)
        u = random_polyharmonic(cfg, 4, blocks=3, seed=2)
        x = make_rotated_point(cfg.sector_phase(1), (0.1, 0.2, -0.3))
        assert reproduce(cfg, 0.0, 0.0, u, x, np.int64(6), rule) == reproduce(cfg, 0.0, 0.0, u, x, 6, rule)
        for m_top in (6.5, 6.0, True, "6", -1):
            with pytest.raises(ValueError, match="m_top"):
                reproduce(cfg, 0.0, 0.0, u, x, m_top, rule)


def _grid_sum(fv, gv, w_rad, w_sph):
    """(1/p) sum_kij w_rad_i w_sph_j f_kij g_kij over (p, R, N) value grids,
    and the same sum of magnitudes, the scale of its rounding error."""
    w = w_rad[:, None] * w_sph[None, :]
    p = fv.shape[0]
    return complex(np.sum(w * fv * gv)) / p, float(np.sum(w * np.abs(fv * gv))) / p


def value_grid(q, phases, radii, unit_nodes):
    """q at the polar grid e^{i phases_k} radii_i unit_j, shape (K, I, J),
    by eval_complex."""
    pts = np.exp(1j * np.asarray(phases))[:, None, None, None] * np.multiply.outer(radii, unit_nodes)
    return eval_complex(q, pts.reshape(-1, unit_nodes.shape[1])).reshape(pts.shape[:-1])


def section_grid(g, p, x, phases, radii, unit_nodes):
    """zonal_poly_sum(g, p, t, zeta, n) at the pairs (x, e^{i phases_k} radii_i unit_j),
    shape (K, I, J), with t = unit_j . x/|x| (0 at the origin) and
    zeta = |x| radii_i e^{i (phase(x) - phases_k)}."""
    direction = x.coords / x.radius if x.radius else np.zeros(x.dim)
    zeta = x.radius * np.multiply.outer(np.exp(1j * (x.phase - np.asarray(phases))), radii)
    return zonal_poly_sum(g, p, unit_nodes @ direction, zeta[..., None], x.dim)


class TestFactorRoute:
    """The factor contraction against the grid it replaces, built here from
    eval_complex, zonal_poly_sum and the rule weights."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (1.0, 0.5)])
    def test_matches_grid_reference(self, n, p, alpha, beta):
        cfg = KernelConfig(n=n, p=p)
        m_top = 5
        rule = build_ball_rule(n, alpha, beta, 2 * m_top + 2)
        sphere = build_sphere_rule(n, 10)
        phases = cfg.sector_phases()
        rad, sph = rule.radial, rule.sphere
        f = random_polyharmonic(cfg, m_top, blocks=5, seed=10 * n + p)
        g = random_polyharmonic(cfg, m_top, blocks=4, seed=10 * n + p + 100)
        one = np.ones(1)

        fv = value_grid(f, phases, one, sphere.nodes)
        gv = value_grid(g, phases, one, sphere.nodes)
        want, scale = _grid_sum(fv, np.conj(gv), one, sphere.weights)
        got = inner_product_sphere(cfg, f, g, sphere)
        assert abs(got - want) <= 1e-13 * scale

        fv = value_grid(f, phases, rad.nodes, sph.nodes)
        gv = value_grid(g, phases, rad.nodes, sph.nodes)
        want, scale = _grid_sum(fv, np.conj(gv), rad.weights, sph.weights)
        got = inner_product_ball(cfg, alpha, beta, f, g, rule)
        assert abs(got - rule.normalization * want) <= 1e-13 * rule.normalization * scale

        weights = _weight_table(n, alpha, beta, "weighted", m_top + 1)
        direction = np.random.default_rng(n + 7 * p).normal(size=n)
        direction /= np.linalg.norm(direction)
        for x in (
            make_rotated_point(0.0, np.zeros(n)),
            make_rotated_point(cfg.sector_phase(p - 1), 0.6 * direction),
            make_rotated_point(0.37, 0.45 * direction),
        ):
            kv = section_grid(weights, p, x, phases, rad.nodes, sph.nodes)
            want, scale = _grid_sum(fv, kv, rad.weights, sph.weights)
            got = reproduce(cfg, alpha, beta, f, x, m_top, rule)
            assert abs(got - want) <= 1e-13 * scale, x

    def test_polynomial_operands_never_reach_the_grid(self, monkeypatch):
        def grid(*args):
            raise AssertionError("polynomial operand evaluated on the grid")

        for module, name in [
            (quadrature, "_ball_values"),
            (quadrature, "eval_complex"),
        ]:
            monkeypatch.setattr(module, name, grid)
        cfg = KernelConfig(n=3, p=2)
        ball = build_ball_rule(3, 1.0, 0.5, 14)
        f = random_polyharmonic(cfg, 6, blocks=4, seed=3)
        g = random_polyharmonic(cfg, 6, blocks=4, seed=4)
        x = make_rotated_point(0.3, (0.2, -0.1, 0.3))
        inner_product_sphere(cfg, f, g, ball.sphere)
        inner_product_ball(cfg, 1.0, 0.5, f, g, ball)
        reproduce(cfg, 1.0, 0.5, f, x, 6, ball)

    def test_peak_memory_below_one_value_grid(self):
        # the grid route holds at least one complex (p, R, N) array of
        # values; the factor route's largest array is the blocks' zonal rows
        cfg = KernelConfig(n=3, p=3)
        ball = build_ball_rule(3, 0.0, 0.0, 40)
        grid_bytes = 16 * cfg.p * ball.radial.nodes.size * ball.sphere.nodes.shape[0]
        f = random_polyharmonic(cfg, 4, blocks=3, seed=5)
        g = random_polyharmonic(cfg, 4, blocks=3, seed=6)
        x = make_rotated_point(cfg.sector_phase(1), (0.2, 0.1, -0.3))
        for call in (
            lambda: inner_product_ball(cfg, 0.0, 0.0, f, g, ball),
            lambda: reproduce(cfg, 0.0, 0.0, f, x, 4, ball),
        ):
            call()  # warm the memos
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < grid_bytes / 2, (peak, grid_bytes)


class TestHalfRule:
    """Polynomial operands are contracted on the half H of the rule [H; -H]
    by parity; callable operands are evaluated on all its nodes.  The two
    routes agree to rounding, with odd (7) and even (6) polar node counts."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_callable_grid_route(self, n, p):
        cfg = KernelConfig(n=n, p=p)
        m_top = 5
        ball = build_ball_rule(n, 1.0, 0.5, 2 * m_top + 2)
        sphere = build_sphere_rule(n, 10)
        phases = cfg.sector_phases()
        f = random_polyharmonic(cfg, m_top, blocks=5, seed=20 * n + p)
        g = random_polyharmonic(cfg, m_top, blocks=4, seed=20 * n + p + 100)
        fc = lambda ph, pts: eval_at_phase(f, ph, pts)  # noqa: E731
        gc = lambda ph, pts: eval_at_phase(g, ph, pts)  # noqa: E731

        def norm(ip, h):
            return math.sqrt(abs(ip(h, h)))

        for ip in (
            lambda a, b: inner_product_sphere(cfg, a, b, sphere),
            lambda a, b: inner_product_ball(cfg, 1.0, 0.5, a, b, ball),
        ):
            want = ip(fc, gc)
            assert abs(ip(f, g) - want) <= 1e-13 * norm(ip, fc) * norm(ip, gc)

        # reproduce against the grid sum of u's values and of the kernel
        # section on all sphere nodes
        rad, sph = ball.radial, ball.sphere
        uv = value_grid(f, phases, rad.nodes, sph.nodes)
        weights = _weight_table(n, 1.0, 0.5, "weighted", m_top + 1)
        direction = np.random.default_rng(n + 5 * p).normal(size=n)
        for x in (
            make_rotated_point(0.0, np.zeros(n)),
            make_rotated_point(cfg.sector_phase(p - 1), 0.55 * direction / np.linalg.norm(direction)),
        ):
            kv = section_grid(weights, p, x, phases, rad.nodes, sph.nodes)
            want, scale = _grid_sum(uv, kv, rad.weights, sph.weights)
            assert abs(reproduce(cfg, 1.0, 0.5, f, x, m_top, ball) - want) <= 1e-13 * scale, x

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_centred_mean_value_matches_callable_route(self, n, p):
        cfg = KernelConfig(n=n, p=p)
        rule = build_sphere_rule(n, 12)
        u = random_polyharmonic(cfg, 6, blocks=6, seed=30 * n + p)
        x = make_rotated_point(0.0, np.linspace(0.05, 0.2, n))
        got = mean_value_eval(cfg, u, np.zeros(n), 0.6, x, rule)
        want = mean_value_eval(cfg, lambda z: eval_complex(u, z), np.zeros(n), 0.6, x, rule)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def _direct_sector_sum(p, j):
    """sum_{k<p} e^{i pi k j/p} in 30 digits."""
    with mpmath.workdps(30):
        return complex(mpmath.fsum(mpmath.expj(mpmath.pi * k * j / p) for k in range(p)))


class TestDegreeTables:
    """The sector-parity-radial table T_p[D, D'] = p [2p divides D - D']
    M(D + D') that the cubature contractions look up."""

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_the_pair_table_is_the_product_of_the_two_sums(self, p):
        rule = build_radial_rule(3, 1.0, 0.5, 6)
        deg, deg2 = np.array([0, 3, 4, 7, 9, 12]), np.array([1, 2, 6, 7])
        table = quadrature._sector_radial(p, rule, deg, deg2)
        assert table.shape == (deg.size, deg2.size) and table.dtype == float
        for i, big_d in enumerate(deg):
            for j, big_d2 in enumerate(deg2):
                radial = float(rule.weights @ rule.nodes ** (big_d + big_d2))
                sector = _direct_sector_sum(p, big_d - big_d2)
                if (big_d - big_d2) % 2:
                    # an odd d - d' has a whole-rule Gram entry of 0
                    assert table[i, j] == 0 and abs(sector) >= 1, (big_d, big_d2)
                else:
                    # an even difference sums to the integer p or 0, here
                    # to 30 digits
                    assert abs(sector - round(sector.real)) <= 1e-25
                    sector = round(sector.real)
                    assert abs(table[i, j] - sector * radial) <= 1e-15 * abs(sector) * radial

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_the_table_is_the_direct_double_sum(self, p):
        # sum_k sum_i w_i r_i^(D + D') e^{i pi k (D - D')/p} in 30 digits
        rule = build_radial_rule(3, 1.0, 0.5, 6)
        deg = np.arange(14)
        table = quadrature._sector_radial(p, rule, deg, deg)
        nodes, weights = rule.nodes.tolist(), rule.weights.tolist()
        for big_d in deg.tolist():
            for big_d2 in deg.tolist():
                with mpmath.workdps(30):
                    radial = mpmath.fsum(w * mpmath.mpf(r) ** (big_d + big_d2) for r, w in zip(nodes, weights))
                    direct = complex(radial * mpmath.fsum(
                        mpmath.expj(mpmath.pi * k * (big_d - big_d2) / p) for k in range(p)))
                got = table[big_d, big_d2]
                if (big_d - big_d2) % 2:
                    assert got == 0
                else:
                    assert abs(got - direct) <= 1e-14 * p * float(radial), (big_d, big_d2, got, direct)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_sector_sums_match_the_direct_sum(self, p):
        # on the unit radial factor M is 1, so the table is the sector sum
        # wherever D - D' is even, and 0 where it is odd
        deg, deg2 = np.arange(121), np.array([60])
        table = quadrature._sector_radial(p, quadrature._UnitRadial, deg, deg2)[:, 0]
        for j in range(-60, 61):
            got = table[j + 60]
            direct = _direct_sector_sum(p, j)
            if j % 2:
                assert got == 0, (p, j)
                continue
            assert abs(got - direct) <= 1e-15, (p, j, got, direct)
            assert got == (p if j % (2 * p) == 0 else 0)

    @pytest.mark.parametrize("n, alpha, beta, count", [(2, 0.0, 0.0, 5), (3, 1.0, 0.5, 8), (4, 0.0, 2.0, 12)])
    def test_radial_sums_match_the_direct_sum(self, n, alpha, beta, count):
        # at p = 1 the diagonal T_1[D, D] is M(2D); the table holds only
        # the even moments, as only an even D + D' has an even D - D'
        rule = build_radial_rule(n, alpha, beta, count)
        top = 3 * count
        deg = np.arange(top + 1)
        got = quadrature._sector_radial(1, rule, deg, deg).diagonal()
        for big_d in range(top + 1):
            j = 2 * big_d
            direct = math.fsum(w * r**j for r, w in zip(rule.nodes.tolist(), rule.weights.tolist()))
            assert abs(got[big_d] - direct) <= 1e-14 * direct, (j, got[big_d], direct)
            if big_d <= 2 * count - 1:
                # the rule is exact for polynomials in r^2 of degree < 2 count
                assert abs(got[big_d] - radial_moment(n, big_d, alpha, beta)) <= 1e-13 * direct

    def test_one_read_only_table_per_rule_order_and_window(self):
        rule = build_radial_rule(3, 1.0, 0.5, 6)
        table = quadrature._degree_table(rule, 2, 16)
        assert table.shape == (16, 16) and not table.flags.writeable
        assert quadrature._degree_table(rule, 2, 16) is table
        # degrees up to 15 read the window of 16, degree 16 the next one
        quadrature._degree_table.cache_clear()
        quadrature._sector_radial(2, rule, np.array([15]), np.array([3]))
        quadrature._sector_radial(2, rule, np.array([16]), np.array([3]))
        assert quadrature._degree_table(rule, 2, 16).shape == (16, 16)
        assert quadrature._degree_table(rule, 2, 32).shape == (32, 32)
        assert quadrature._degree_table.cache_info().hits == 2
        # an equal rule of another identity has a table of its own
        other = RadialRule(nodes=rule.nodes.copy(), weights=rule.weights.copy(), n=3, alpha=1.0, beta=0.5)
        assert quadrature._degree_table(other, 2, 16) is not quadrature._degree_table(rule, 2, 16)
        assert np.array_equal(quadrature._degree_table(other, 2, 16), table)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_the_whole_rule_gram_of_an_odd_degree_sum_is_zero(self, n):
        # the rows on -H are those on H times (-1)^d bit for bit, so the two
        # halves of a whole-rule Gram entry of odd d + d' cancel exactly
        rule = build_sphere_rule(n, 14)
        rng = np.random.default_rng(n)
        poles = np.array([unit(rng.normal(size=n)) for _ in range(3)])
        half = rule.half_nodes.shape[0]
        z = zonal.zonal_values(poles @ rule.nodes.T, 9, n)
        on_h = np.einsum("dcj,eqj,j->dceq", z[:, :, :half], z[:, :, :half], rule.weights[:half])
        on_minus_h = np.einsum("dcj,eqj,j->dceq", z[:, :, half:], z[:, :, half:], rule.weights[half:])
        checked = 0
        for d in range(10):
            for e in range(10):
                if (d + e) % 2:
                    assert np.array_equal(on_h[d, :, e] + on_minus_h[d, :, e], np.zeros((3, 3)))
                    assert on_h[d, :, e].any()
                    checked += 1
        assert checked == 50


def mean_value_full_rule(cfg, u, a, r, x, rule):
    """mean_value_eval's sum as it was taken before the half rule: the
    principal power of all p N bilinear squares, and u by eval_complex at
    all p N points."""
    a = np.asarray(a, dtype=float)
    d = x.coords - a
    d2 = float(d @ d)
    rot = np.exp(1j * cfg.sector_phases())[:, None]
    back = np.conj(rot)
    bsq = back * back * d2 - 2.0 * r * back * (rule.nodes @ d) + r * r
    den = principal_pow(bsq, 0.5 * cfg.n)
    uv = eval_complex(u, (a + r * rot[:, :, None] * rule.nodes).reshape(-1, cfg.n)).reshape(den.shape)
    num = r ** (2 * cfg.p) - d2**cfg.p
    pref = r ** (cfg.n - 2 * cfg.p)
    return complex(np.sum(rule.weights * (num * pref / den) * uv)) / cfg.p


class TestMeanValueHalfRule:
    """mean_value_eval takes its denominators on the half H of the rule:
    sector 0 real on both halves and bsq_k(-zeta) = conj(bsq_(p-k)(zeta))."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_the_full_rule_reference(self, n, p):
        cfg = KernelConfig(n=n, p=p)
        rule = build_sphere_rule(n, 12)
        rng = np.random.default_rng(40 * n + p)
        u = random_polyharmonic(cfg, 6, blocks=6, seed=50 * n + p)
        for a in (np.zeros(n), 0.15 * unit(rng.normal(size=n))):
            x = make_rotated_point(0.0, a + 0.3 * unit(rng.normal(size=n)))
            got = mean_value_eval(cfg, u, a, 0.5, x, rule)
            want = mean_value_full_rule(cfg, u, a, 0.5, x, rule)
            assert abs(got - want) <= 1e-13 * abs(want), (a, got, want)

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("centre", [(0.0, 0.0, 0.0), (0.1, -0.05, 0.0)])
    def test_a_node_of_the_mirrored_half_meets_the_singularity(self, p, centre):
        # d = x - a points at -zeta_j from just inside the sphere of radius
        # r, so the sector-0 square |d - r zeta|^2 is r^2 1e-14 at the node
        # -zeta_j of -H only
        cfg = KernelConfig(n=3, p=p)
        rule = build_sphere_rule(3, 10)
        u = random_polyharmonic(cfg, 4, blocks=3, seed=p)
        a, r = np.array(centre), 0.5
        zeta = rule.half_nodes[5]
        x = make_rotated_point(0.0, a - (1.0 - 1e-7) * r * zeta)
        with pytest.raises(NearSingular):
            mean_value_eval(cfg, u, a, r, x, rule)
        # the same direction further inside the sphere does not raise
        x = make_rotated_point(0.0, a - 0.99 * r * zeta)
        mean_value_eval(cfg, u, a, r, x, rule)

    def test_a_rotated_sector_meets_the_singularity(self):
        # at p = 2 the sector phase pi/2 gives bsq_1 = r^2 - |d|^2 at the
        # nodes +-zeta_j orthogonal to d, which is r^2 2e-13 here
        cfg = KernelConfig(n=3, p=2)
        rule = build_sphere_rule(3, 10)
        u = random_polyharmonic(cfg, 4, blocks=3, seed=9)
        zeta = rule.half_nodes[3]
        d = unit(np.cross(zeta, [0.3, -0.2, 0.9]))
        r = 0.5
        x = make_rotated_point(0.0, (1.0 - 1e-13) * r * d)
        with pytest.raises(NearSingular):
            mean_value_eval(cfg, u, np.zeros(3), r, x, rule)


    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("centre", [(0.0, 0.0, 0.0), (0.1, -0.05, 0.0)])
    def test_one_sector_takes_no_principal_power(self, monkeypatch, n, centre):
        # at p = 1 sector 0 is real on both halves and takes a real power:
        # no complex bilinear square is formed or raised to a power
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return principal_pow(*args, **kwargs)

        monkeypatch.setattr(quadrature, "principal_pow", counted)
        rule = build_sphere_rule(n, 12)
        a = np.array(centre[:n])
        x = make_rotated_point(0.0, a + 0.2 * unit(np.arange(1.0, n + 1.0)))
        for p in (1, 2):
            cfg = KernelConfig(n=n, p=p)
            u = random_polyharmonic(cfg, 4, blocks=3, seed=p)
            got = mean_value_eval(cfg, u, a, 0.5, x, rule)
            assert len(calls) == p - 1
            assert abs(got - mean_value_full_rule(cfg, u, a, 0.5, x, rule)) <= 1e-13 * abs(got)


class TestMismatchedInputs:
    """Inputs of another dimension or a higher order raise a ValueError that
    names the mismatch, instead of a wrong answer or a raw matmul error."""

    CFG = KernelConfig(n=3, p=1)
    X = make_rotated_point(0.0, (0.1, 0.2, 0.0))

    @pytest.mark.parametrize(
        "u_cfg, x, match",
        [
            (KernelConfig(n=3, p=3), X, "order"),
            (KernelConfig(n=3, p=2), X, "order"),
            (KernelConfig(n=2, p=1), X, "dimension mismatch"),
            (KernelConfig(n=4, p=1), X, "dimension mismatch"),
            (KernelConfig(n=3, p=1), make_rotated_point(0.0, (0.1, 0.2)), "dimension mismatch"),
        ],
    )
    def test_reproduce(self, u_cfg, x, match):
        u = random_polyharmonic(u_cfg, 5, blocks=3, seed=7)
        rule = build_ball_rule(3, 0.0, 0.0, 14)
        with pytest.raises(ValueError, match=match):
            reproduce(self.CFG, 0.0, 0.0, u, x, 6, rule)

    @pytest.mark.parametrize(
        "u_cfg, match",
        [
            (KernelConfig(n=3, p=3), "order"),
            (KernelConfig(n=2, p=1), "dimension mismatch"),
            (KernelConfig(n=4, p=1), "dimension mismatch"),
        ],
    )
    def test_mean_value_eval(self, u_cfg, match):
        u = random_polyharmonic(u_cfg, 5, blocks=3, seed=8)
        with pytest.raises(ValueError, match=match):
            mean_value_eval(self.CFG, u, np.zeros(3), 0.6, self.X, build_sphere_rule(3, 20))

    @pytest.mark.parametrize("polynomial", [True, False])
    @pytest.mark.parametrize("rule_n", [2, 4])
    def test_mean_value_rule_of_another_dimension(self, polynomial, rule_n):
        # an n = 2 rule raised numpy's raw matmul error from nodes @ (x - a)
        cfg = KernelConfig(n=3, p=2)
        u = random_polyharmonic(cfg, 4, blocks=3, seed=8)
        if not polynomial:
            u = lambda z, q=u: eval_complex(q, z)  # noqa: E731
        rule = build_sphere_rule(rule_n, 10)
        for a in (np.zeros(3), np.array([0.05, 0.0, 0.0])):
            with pytest.raises(ValueError, match="dimension mismatch"):
                mean_value_eval(cfg, u, a, 0.6, self.X, rule)

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("slot", [0, 1])
    @pytest.mark.parametrize("callable_other", [False, True])
    def test_inner_products(self, n, slot, callable_other):
        bad = random_polyharmonic(KernelConfig(n=n, p=1), 4, blocks=3, seed=9)
        good = random_polyharmonic(self.CFG, 4, blocks=3, seed=10)
        if callable_other:
            good = lambda ph, pts, q=good: eval_at_phase(q, ph, pts)  # noqa: E731
        ops = (bad, good) if slot == 0 else (good, bad)
        ball = build_ball_rule(3, 0.0, 0.0, 10)
        with pytest.raises(ValueError, match="dimension mismatch"):
            inner_product_sphere(self.CFG, *ops, ball.sphere)
        with pytest.raises(ValueError, match="dimension mismatch"):
            inner_product_ball(self.CFG, 0.0, 0.0, *ops, ball)

    @pytest.mark.parametrize("callable_other", [False, True])
    def test_sphere_rule_of_another_dimension(self, callable_other):
        # n = 3 operands on an n = 2 rule returned a value for about half the
        # seeds; the others raised a cosine-domain error
        rule = build_sphere_rule(2, 10)
        for seed in range(20):
            f = random_polyharmonic(self.CFG, 4, blocks=2 * (1 + seed % 3), seed=seed)
            g = random_polyharmonic(self.CFG, 4, blocks=4, seed=100 + seed)
            if callable_other:
                g = lambda ph, pts, q=g: eval_at_phase(q, ph, pts)  # noqa: E731
            with pytest.raises(ValueError, match="dimension mismatch"):
                inner_product_sphere(self.CFG, f, g, rule)

    @pytest.mark.parametrize("coords", [(0.1,), (0.1, 0.1)])
    @pytest.mark.parametrize("order", [None, 1])
    def test_laplacian_power_residual(self, coords, order):
        # a 1-d point was broadcast across the rule's nodes and gave the
        # residual at (0.1, 0.1, 0.1); a 2-d one raised numpy's broadcast error
        q = random_polyharmonic(KernelConfig(n=3, p=2), 6, blocks=4, seed=12)
        assert q.degree >= 2 * q.p  # so the residual reaches the sphere rule
        with pytest.raises(ValueError, match="dimension mismatch"):
            quadrature.laplacian_power_residual(q, make_rotated_point(0.0, coords), order)


class TestBallRuleWeights:
    """The weights of reproduce and inner_product_ball pass the checks that
    build_radial_rule makes before they are compared with the rule's: a bool
    equal to the rule's weight was answered, and NaN was reported as a
    mismatch."""

    CFG = KernelConfig(n=3, p=2)

    @pytest.mark.parametrize("bad", [True, False, "1.0", float("nan")])
    @pytest.mark.parametrize("slot", ["alpha", "beta"])
    def test_non_real_or_nan_weights_raise(self, bad, slot):
        alpha, beta = (bad, 0.0) if slot == "alpha" else (0.0, bad)
        # the rule of the bool's value, which the comparison alone accepted
        rule = build_ball_rule(3, *(float(w) if type(w) is bool else 0.0 for w in (alpha, beta)), 12)
        u = random_polyharmonic(self.CFG, 3, blocks=2, seed=3)
        x = make_rotated_point(0.0, (0.2, 0.1, 0.0))
        match = "real number" if isinstance(bad, (bool, str)) else "need finite"
        with pytest.raises(ValueError, match=match):
            reproduce(self.CFG, alpha, beta, u, x, 4, rule)
        with pytest.raises(ValueError, match=match):
            inner_product_ball(self.CFG, alpha, beta, u, u, rule)
        with pytest.raises(ValueError, match=match):
            build_radial_rule(3, alpha, beta, 8)

    def test_equal_weights_of_another_type_share_the_rule(self):
        # an integral weight or a numpy float still matches the rule's float
        rule = build_ball_rule(3, 1.0, 0.5, 12)
        u = random_polyharmonic(self.CFG, 3, blocks=2, seed=4)
        want = inner_product_ball(self.CFG, 1.0, 0.5, u, u, rule)
        assert inner_product_ball(self.CFG, 1, np.float64(0.5), u, u, rule) == want


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
