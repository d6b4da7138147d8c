import cmath
import math
import operator
import struct
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from polybergman import (
    ConvergenceDomain,
    KernelConfig,
    NearSingular,
    Truncation,
    bergman,
    bergman_decomposed,
    bergman_series,
    calibrated_constant,
    derivative_form_check,
    evaluation_regime,
    make_rotated_point,
    make_truncation,
    pair_invariants,
    poisson,
    poisson_series,
    principal_pow,
    sph_dim,
    truncation_degree,
    unit_ball_volume,
    weighted_bergman_decomposed,
    weighted_bergman_series,
    weighted_coefficient,
    zonal_polyharmonic,
)
from polybergman import core, kernels, zonal
from polybergman.core import EPS_SING, sphere_area
from polybergman.errors import KernelDomainError
from polybergman.kernels import _jet_mul, _power_jet, _weight_table


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
PAIR_KERNELS = (poisson, bergman, bergman_decomposed, derivative_form_check)
SERIES_KERNELS = (poisson_series, bergman_series, weighted_bergman_series, weighted_bergman_decomposed)


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
        # both routes divide by the same n Vol_n w^(n/2) w, so geo = 1 and
        # lin = 0 leave bergman's bits, on the sectors and off them, at
        # radius products up to 0.9
        rng = np.random.default_rng(3)
        for n in (2, 3, 4, 5):
            cfg = KernelConfig(n=n, p=1)
            for k in range(40):
                x, y = random_sector_pair(cfg, rng, r_hi=0.95)
                if k % 2:
                    x = make_rotated_point(rng.uniform(-math.pi, math.pi), x.coords)
                    y = make_rotated_point(rng.uniform(-math.pi, math.pi), y.coords)
                assert bergman_decomposed(cfg, x, y) == bergman(cfg, x, y)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_one_principal_power_per_pair(self, monkeypatch, n, p):
        # each closed form takes w^(n/2) once; bergman's w^(n/2+1) and the
        # decomposition's R_1 and P_1 reuse it
        calls = []

        def counted(w, e, *rest):
            calls.append(e)
            return principal_pow(w, e, *rest)

        monkeypatch.setattr(kernels, "principal_pow", counted)
        cfg = KernelConfig(n=n, p=p)
        x, y = random_sector_pair(cfg, np.random.default_rng(7 * n + p))
        for kernel in (poisson, bergman, bergman_decomposed):
            calls.clear()
            kernel(cfg, x, y)
            assert calls == [0.5 * n], kernel.__name__

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_direct_closed_form(self, n, p):
        # radius products up to 0.49, half of the pairs at arbitrary phases
        cfg = KernelConfig(n=n, p=p)
        rng = np.random.default_rng(13 * n + p)
        for k in range(200):
            x, y = random_sector_pair(cfg, rng)
            if k % 2:
                x = make_rotated_point(rng.uniform(-math.pi, math.pi), x.coords)
                y = make_rotated_point(rng.uniform(-math.pi, math.pi), y.coords)
            direct = bergman(cfg, x, y)
            decomposed = bergman_decomposed(cfg, x, y)
            assert abs(decomposed - direct) <= 1e-12 * abs(direct)

    def test_origin(self):
        cfg = KernelConfig(n=4, p=3)
        o = make_rotated_point(0.0, np.zeros(4))
        assert_allclose(bergman_decomposed(cfg, o, o), 1.0 / unit_ball_volume(4), rtol=1e-14)

    def test_pair_invariants_computed_once(self, monkeypatch):
        # every kernel entry point reads its pair exactly once, through its
        # route's pair function: the closed forms read (s, q, w), the series
        # (t, zeta), and the decomposition, which also reads q, (t, zeta)
        # and then closed_terms; the three are counted wherever they are
        # bound, and any nested call shows at depth 1, so a closed form that
        # computed t or zeta, or a route that read the record, would show
        calls = []
        depth = [0]

        def counted(fn):
            def wrapper(x, y):
                calls.append((depth[0], fn.__name__))
                depth[0] += 1
                try:
                    return fn(x, y)
                finally:
                    depth[0] -= 1

            return wrapper

        for fn in (core.closed_terms, core.zonal_terms, core.pair_invariants):
            for module in (core, kernels, zonal):
                if hasattr(module, fn.__name__):
                    monkeypatch.setattr(module, fn.__name__, counted(fn))
        cfg = KernelConfig(n=3, p=2, alpha=0.5, beta=1.0)
        x, y = random_sector_pair(cfg, np.random.default_rng(5))
        expected = bergman(cfg, x, y)
        trunc = Truncation(max_degree=12, tol=1.0, calibrated_C=1.0)
        routes = [(kernel, (cfg, x, y), ["closed_terms"]) for kernel in PAIR_KERNELS]
        routes += [(kernel, (cfg, x, y, trunc), ["zonal_terms"]) for kernel in SERIES_KERNELS[:3]]
        routes.append((weighted_bergman_decomposed, (cfg, x, y, trunc), ["zonal_terms", "closed_terms"]))
        routes.append((zonal_polyharmonic, (cfg, 5, x, y), ["zonal_terms"]))
        for kernel, args, names in routes:
            calls.clear()
            kernel(*args)
            assert [name for _, name in calls] == names, kernel.__name__
            assert [d for d, _ in calls] == [0] * len(names), kernel.__name__
        got = bergman_decomposed(cfg, x, y)
        assert abs(got - expected) <= 1e-12 * abs(expected)


def _one_record_terms(x, y):
    """The five pair terms as one record computed them: one phase factor,
    one math.fsum of a.b and the points' cached norms."""
    a, b = x.float_coords, y.float_coords
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    rot = cmath.exp(1j * (x.phase - y.phase))
    ab = math.fsum(map(operator.mul, a, b))
    rr = x.radius * y.radius
    t = 0.0 if rr == 0.0 else ab / rr
    if t > 1.0:
        t = 1.0
    elif t < -1.0:
        t = -1.0
    zeta = rr * rot
    s = rot * ab
    q = rot * rot * (x.norm2 * y.norm2)
    return s, q, 1.0 - 2.0 * s + q, t, zeta


def _record_closed_route(kernel, cfg, x, y):
    """A closed form along the route that read the whole record: the checks,
    the record, principal_pow(w, n/2) and the formulas."""
    if kernel is derivative_form_check and not float(cfg.beta).is_integer():
        raise ValueError(f"derivative form needs an integer beta >= 0, got {cfg.beta}")
    if len(x.float_coords) != cfg.n or len(y.float_coords) != cfg.n:
        raise ValueError(f"dimension mismatch: n={cfg.n}, x:{x.dim}, y:{y.dim}")
    rr = x.radius * y.radius
    if rr >= 1.0 - EPS_SING:
        raise NearSingular(f"radius product {rr:.17g} too close to 1")
    s, q, w, _, _ = _one_record_terms(x, y)
    if abs(w) <= EPS_SING:
        raise NearSingular(f"|w|={abs(w):.3g} within eps_sing={EPS_SING:g}")
    n, p = cfg.n, cfg.p

    def bergman_of(order, root):
        qp = q**order
        num = (n - 4 * order) * qp * q + (8 * order * s - n - 4 * order) * qp + n * (1.0 - q)
        return num / (sphere_area(n) * root * w)

    if kernel is derivative_form_check:
        beta = int(cfg.beta)
        order = beta + 1
        t_jet = _power_jet((1.0, 1.0), 0.5 * (n + cfg.alpha) + beta, order)
        qp = q**p
        num_jet = [-qp * c for c in _power_jet((1.0, 1.0), 2 * p, order)]
        num_jet[0] += 1.0
        w_jet = _power_jet((w, 2.0 * (q - s), q), -0.5 * n, order)
        f = _jet_mul(_jet_mul(t_jet, num_jet), w_jet)
        return complex(2.0 / (math.factorial(beta) * sphere_area(n)) * math.factorial(order) * f[order])
    root = principal_pow(w, 0.5 * n)
    if kernel is poisson:
        return (1.0 - q**p) / root
    if kernel is bergman:
        return bergman_of(p, root)
    geo, lin = 1.0, 4.0 * (p - 1)
    for k in range(p - 2, -1, -1):
        geo = geo * q + 1.0
        lin = lin * q + 4 * k
    return geo * bergman_of(1, root) + lin * ((1.0 - q) / root) / sphere_area(n)


def _outcome(fn, *args):
    """fn(*args) as packed bits, or the type and message of what it raised."""
    try:
        value = fn(*args)
    except (ValueError, ArithmeticError, KernelDomainError) as exc:
        return type(exc), str(exc)
    return struct.pack("<dd", value.real, value.imag)


@st.composite
def closed_cases(draw):
    """A configuration and a pair: n 2-6, p 1-4, integer and non-integer
    beta, sector or arbitrary phases and radius products up to 0.999, with
    a share near it; in some cases the second direction is a jitter of the
    first at the same phase, so that w gets small, the radius product is 1
    or within 1e-7 or 1e-13 of it (|w| or |x||y| then meets its
    NearSingular check), or a point has another dimension."""
    n, p = draw(st.integers(2, 6)), draw(st.integers(1, 4))
    cfg = KernelConfig(n=n, p=p, alpha=draw(st.sampled_from([0.0, 0.5, 2.0])), beta=draw(st.sampled_from([0.0, 1.0, 2.0, 0.5])))
    unit = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n).filter(lambda v: math.hypot(*v) > 1e-3)
    a = np.array(draw(unit))
    phase = st.one_of(st.integers(0, 2 * p - 1).map(cfg.sector_phase), st.floats(-math.pi, math.pi))
    phase_x = draw(phase)
    if draw(st.booleans()):
        b, phase_y = a + draw(st.floats(1e-9, 1e-2)) * np.array(draw(unit)), phase_x
    else:
        b, phase_y = np.array(draw(unit)), draw(phase)
    rr = draw(st.one_of(st.floats(0.0, 0.999), st.floats(0.0, 3.0).map(lambda e: 1.0 - 10.0**-e)))
    if draw(st.sampled_from([False] * 9 + [True])):
        rr = draw(st.sampled_from([1.0 - 1e-7, 1.0 - 1e-13, 1.0]))
    split = draw(st.floats(0.25, 0.75))
    x = make_rotated_point(phase_x, rr**split * a / np.linalg.norm(a))
    yb = rr ** (1.0 - split) * b / np.linalg.norm(b)
    if draw(st.sampled_from([False] * 9 + [True])):
        yb = np.append(yb, 0.0)
    return cfg, x, make_rotated_point(phase_y, yb)


class TestClosedRouteBits:
    """The closed forms read the three closed terms and nothing else; every
    value and every error is the one that the route through the whole
    record gave."""

    @given(case=closed_cases())
    @settings(max_examples=400, deadline=None)
    def test_bit_for_bit_the_record_route(self, case):
        cfg, x, y = case
        for kernel in PAIR_KERNELS:
            assert _outcome(kernel, cfg, x, y) == _outcome(_record_closed_route, kernel, cfg, x, y), kernel.__name__

    @given(case=closed_cases())
    @settings(max_examples=400, deadline=None)
    def test_the_term_functions_are_the_record_fields(self, case):
        _, x, y = case
        try:
            record = _one_record_terms(x, y)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                pair_invariants(x, y)
            assert str(raised.value) == str(exc)
            return
        packed = [struct.pack("<dd", v.real, v.imag) for v in record]
        terms = core.closed_terms(x, y) + core.zonal_terms(x, y)
        assert [struct.pack("<dd", v.real, v.imag) for v in terms] == packed
        assert type(terms[3]) is float
        assert [struct.pack("<dd", v.real, v.imag) for v in pair_invariants(x, y)] == packed


class TestDimensionMismatch:
    # pairs whose dimensions differ from each other or from cfg.n = 3
    PAIRS = [((0.1, 0.2, 0.0), (0.3, 0.1)), ((0.1, 0.2), (0.3, 0.1)), ((0.1, 0.2, 0.0), (0.3, 0.1, 0.0, 0.2))]

    @pytest.mark.parametrize("a,b", PAIRS)
    @pytest.mark.parametrize("kernel", PAIR_KERNELS + SERIES_KERNELS + (zonal_polyharmonic,))
    def test_every_entry_point_raises(self, kernel, a, b):
        cfg = KernelConfig(n=3, p=2, beta=1.0)
        x, y = make_rotated_point(0.0, a), make_rotated_point(0.0, b)
        with pytest.raises(ValueError, match="dimension mismatch"):
            if kernel in SERIES_KERNELS:
                kernel(cfg, x, y, Truncation(max_degree=6, tol=1e-10, calibrated_C=1.0))
            elif kernel is zonal_polyharmonic:
                kernel(cfg, 4, x, y)
            else:
                kernel(cfg, x, y)


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
        for m in (-1, 1.5, 2.0, math.nan, True):
            with pytest.raises(ValueError, match="degree"):
                weighted_coefficient(3, 0.0, 0.0, m)
        for n in (2.5, 3.0, True, 0):
            with pytest.raises(ValueError, match="dimension n"):
                weighted_coefficient(n, 0.0, 0.0, 1)
        assert weighted_coefficient(3, 0.0, 0.0, np.int64(2)) == weighted_coefficient(3, 0.0, 0.0, 2)
        assert weighted_coefficient(np.int64(3), 0.0, 0.0, 2) == weighted_coefficient(3, 0.0, 0.0, 2)


class TestSeriesWeights:
    def test_weighted_recurrence_matches_gamma_ratio(self):
        # the ratio recurrence accumulates one rounding per degree; the
        # log-Gamma form loses digits as lgamma grows, so both stay within
        # 1e-11 relative of each other up to degree 2000
        for n, alpha, beta in [(2, 0.0, 0.0), (3, 1.0, 0.5), (5, -0.5, 2.0), (4, 3.0, 40.0)]:
            g = _weight_table(n, alpha, beta, "weighted", 2001)
            ref = np.array([weighted_coefficient(n, alpha, beta, m) for m in range(2001)])
            assert_allclose(g, ref, rtol=1e-11, atol=0)

    def test_unweighted_kinds(self):
        assert np.array_equal(_weight_table(4, 0.0, 0.0, "poisson", 6), np.ones(6))
        assert np.array_equal(_weight_table(4, 0.0, 0.0, "bergman", 6), 4.0 + 2.0 * np.arange(6))
        assert _weight_table(4, 0.0, 0.0, "weighted", 1) == (weighted_coefficient(4, 0.0, 0.0, 0),)
        with pytest.raises(ValueError):
            _weight_table(4, 0.0, 0.0, "szego", 6)

    def test_weighted_parameters_are_checked(self):
        with pytest.raises(ValueError):
            _weight_table(2, -2.0, 0.0, "weighted", 6)
        with pytest.raises(ValueError):
            _weight_table(3, 0.0, -1.0, "weighted", 6)

    def test_weighted_coefficient_is_called_once_per_weight_array(self, monkeypatch):
        # the weight tables are memoised per configuration and window: one
        # log-Gamma evaluation builds a table, and a later pair and radius at
        # the same configuration build nothing
        calls = []

        def counted(*args):
            calls.append(args)
            return weighted_coefficient(*args)

        monkeypatch.setattr(kernels, "weighted_coefficient", counted)
        kernels._weight_table.cache_clear()
        kernels._tail_terms.cache_clear()
        cfg = KernelConfig(n=3, p=2, alpha=1.0, beta=0.5)
        x = make_rotated_point(0.0, (0.7, 0.0, 0.0))
        y = make_rotated_point(cfg.sector_phase(1), (0.5, 0.5, 0.0))
        trunc = make_truncation(cfg, x.radius * y.radius, 1e-10, "weighted")
        weighted_bergman_series(cfg, x, y, trunc)
        assert trunc.max_degree >= 20
        assert len(calls) == kernels._weight_table.cache_info().misses == 1
        x2 = make_rotated_point(0.0, (0.0, 0.6, 0.1))
        y2 = make_rotated_point(0.0, (0.3, 0.0, 0.4))
        trunc2 = make_truncation(cfg, x2.radius * y2.radius, 1e-10, "weighted")
        weighted_bergman_series(cfg, x2, y2, trunc2)
        assert len(calls) == 1


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

    @pytest.mark.parametrize("e", [-2.5, -1.5, 2, 3.5])
    def test_power_jet_matches_50_digit_taylor_expansion(self, e):
        # (a0 + a1 eps + a2 eps^2)^e, the shape of the w(t) jet; a coefficient
        # that is exactly 0 (past degree 2e for an integer e) is checked
        # against the jet's largest one
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = [complex(*rng.uniform(-1.0, 1.0, 2)) for _ in range(3)]
            a[0] *= rng.uniform(0.5, 2.0) / abs(a[0])
            for order in range(1, 6):
                got = _power_jet(a, e, order)
                assert len(got) == order + 1 and all(type(b) is complex for b in got)
                with mpmath.workdps(50):
                    c = [mpmath.mpc(v.real, v.imag) for v in a]
                    want = mpmath.taylor(lambda t: (c[0] + c[1] * t + c[2] * t * t) ** e, 0, order)
                    scale = max(abs(v) for v in want)
                    for g, v in zip(got, want):
                        err = abs(mpmath.mpc(g.real, g.imag) - v)
                        assert err <= 1e-14 * (abs(v) if abs(v) > 1e-30 * scale else scale)


class TestTruncationDegree:
    def test_zero_radius(self):
        cfg = KernelConfig(n=3, p=2)
        assert truncation_degree(cfg, 0.0, 1e-10) == 0

    @pytest.mark.parametrize("r", [0.0, 0.3])
    def test_unknown_kind_raises_at_every_radius(self, r):
        cfg = KernelConfig(n=3, p=2)
        with pytest.raises(ValueError, match="kind"):
            truncation_degree(cfg, r, 1e-10, "nonsense")
        with pytest.raises(ValueError, match="kind"):
            make_truncation(cfg, r, 1e-10, "nonsense")

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

    @pytest.mark.parametrize(
        "r,tol",
        [(True, 1e-10), (False, 1e-10), (0.5j, 1e-10), ("0.5", 1e-10), (None, 1e-10),
         (0.5, True), (0.5, 1e-10j), (0.5, "1e-10"), (0.5, None), (np.bool_(True), 1e-10)],
    )
    def test_rejects_a_radius_or_tolerance_that_is_not_a_real_number(self, r, tol):
        # a complex r raised TypeError, r = True was read as 1.0 and reported
        # ConvergenceDomain, and tol = True was accepted
        cfg = KernelConfig(n=3, p=2)
        with pytest.raises(ValueError, match="real number") as err:
            truncation_degree(cfg, r, tol)
        assert type(err.value) is ValueError

    def test_numpy_reals_and_integers_are_accepted(self):
        cfg = KernelConfig(n=3, p=2)
        assert truncation_degree(cfg, np.float64(0.5), np.float64(1e-10)) == truncation_degree(cfg, 0.5, 1e-10)
        assert truncation_degree(cfg, 0, 1) == 0

    @pytest.mark.parametrize(
        "max_degree,tol,cal",
        [
            (3, math.nan, math.nan),
            (3, math.nan, 1.0),
            (3, math.inf, 1.0),
            (3, 0.0, 1.0),
            (3, 1e-10, math.nan),
            (3, 1e-10, math.inf),
            (3, 1e-10, -1.0),
            (-1, 1e-10, 1.0),
            (2.5, 1e-10, 1.0),
            (3.0, 1e-10, 1.0),
            (math.nan, 1e-10, 1.0),
            (True, 1e-10, 1.0),
        ],
    )
    def test_truncation_rejects_invalid_parameters(self, max_degree, tol, cal):
        with pytest.raises(ValueError):
            Truncation(max_degree=max_degree, tol=tol, calibrated_C=cal)

    def test_numpy_integer_degree_is_stored_as_an_int(self):
        cfg = KernelConfig(n=3, p=2)
        x, y = make_rotated_point(0.0, (0.3, 0.1, 0.0)), make_rotated_point(math.pi / 2, (0.2, -0.4, 0.1))
        trunc = Truncation(max_degree=np.int64(20), tol=1e-10, calibrated_C=1.0)
        assert type(trunc.max_degree) is int
        plain = Truncation(max_degree=20, tol=1e-10, calibrated_C=1.0)
        assert trunc == plain
        for kernel in SERIES_KERNELS:
            assert kernel(cfg, x, y, trunc) == kernel(cfg, x, y, plain)

    def test_make_truncation_is_the_record_of_the_degree(self):
        # built positionally from the int that truncation_degree returns,
        # with no field converted or moved
        for kind, alpha, beta in SIX_KINDS:
            for n, p in ((2, 1), (3, 2), (5, 3)):
                cfg = KernelConfig(n=n, p=p, alpha=alpha, beta=beta)
                for r in (0.0, 0.1, 0.49, 0.9):
                    for tol in (1e-14, 1e-10, 1e-2):
                        trunc = make_truncation(cfg, r, tol, kind)
                        want = Truncation(truncation_degree(cfg, r, tol, kind), tol, calibrated_constant(cfg))
                        assert type(trunc.max_degree) is int
                        assert (trunc.max_degree, trunc.tol, trunc.calibrated_C) == (
                            want.max_degree, want.tol, want.calibrated_C
                        )

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
    """The term-by-term search on the bound sum_{m>M} g(m) D_p(m) r^m: two
    terms per step, D_p(m) summed in integers from sph_dim, weights from
    weighted_coefficient.  Once a float power r^m falls below the least
    normal float, where it keeps only a few bits or none, the search goes
    on from that degree with the bound a_{M+1} / (1 - rho) taken in
    30-digit mpmath, where no term underflows."""
    if r == 0.0:
        return 0

    def factor(m):
        g = {"poisson": 1.0, "bergman": cfg.n + 2.0 * m}.get(kind)
        if g is None:
            g = weighted_coefficient(cfg.n, cfg.alpha, cfg.beta, m)
        return g * _polyharmonic_dim(cfg.n, cfg.p, m)

    for first in range(100_000):
        # a normal product of a subnormal power is as coarse as the power
        if r ** (first + 2) < sys.float_info.min:
            break
        a1 = factor(first + 1) * r ** (first + 1)
        rho = factor(first + 2) * r ** (first + 2) / a1
        if rho < 1.0 and a1 / (1.0 - rho) < tol:
            return first
    else:
        raise AssertionError("reference search did not stop")
    with mpmath.workdps(30):
        for big_m in range(first, 100_000):
            a1 = mpmath.mpf(factor(big_m + 1)) * mpmath.mpf(r) ** (big_m + 1)
            rho = mpmath.mpf(factor(big_m + 2)) / factor(big_m + 1) * r
            if rho < 1 and a1 / (1 - rho) < tol:
                return big_m
    raise AssertionError("reference search did not stop")


def _polyharmonic_dim(n, p, m):
    """D_p(m) = sum_{k<p, 2k<=m} sph_dim(n, m-2k), an exact integer."""
    return sum(sph_dim(n, m - 2 * k) for k in range(p) if 2 * k <= m)


class TestTruncationReference:
    # beta = -0.999 makes the least term factor g(m) D_p(m) smallest, where
    # the scan's proven start is furthest below the first passing degree
    @pytest.mark.parametrize("kind", ["poisson", "bergman", "weighted"])
    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.5), (-0.5, 2.0), (0.5, -0.999)])
    def test_degrees_match_term_by_term_search(self, kind, alpha, beta):
        for n in (2, 3, 4, 5):
            for p in (1, 2, 3):
                cfg = KernelConfig(n=n, p=p, alpha=alpha, beta=beta)
                for r in np.linspace(0.0, cfg.r_max, 40):
                    r = float(r)
                    for tol in (1e-14, 1e-10, 1e-6, 1e-2):
                        assert truncation_degree(cfg, r, tol, kind) == _reference_truncation_degree(
                            cfg, r, tol, kind
                        ), (kind, n, p, alpha, beta, r, tol)

    # terms that are subnormal: a1 * a1 and tol * (a1 - a2) both underflowed
    # to 0, no degree passed, and the scan ran to the cap and raised
    @pytest.mark.parametrize("kind", ["poisson", "bergman", "weighted"])
    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.0, 0.5)])
    @pytest.mark.parametrize("r", [1e-300, 1e-310, 1e-315, 1e-320, 5e-324])
    def test_subnormal_radius_products_match_the_search(self, kind, alpha, beta, r):
        for n, p in ((2, 1), (3, 2), (5, 3)):
            cfg = KernelConfig(n=n, p=p, alpha=alpha, beta=beta)
            for tol in (1e-14, 1e-10, 1e-2):
                expected = _reference_truncation_degree(cfg, r, tol, kind)
                assert truncation_degree(cfg, r, tol, kind) == expected == 0, (kind, n, p, r, tol)

    # a least factor c_min = g(1) D_p(1) below 1 (0.006 at beta = -0.999)
    # sends the first term c_min r to 0 at radius products near the least
    # subnormal: no term could pass a2 < a1, and the scan ran to the cap
    # and raised, although the tail is below every positive tol
    @pytest.mark.parametrize("r", [1e-300, 1e-320, 1e-322, 1e-323, 5e-324])
    def test_a_first_term_that_underflows_passes_at_degree_0(self, r):
        for n, p in ((2, 1), (3, 2), (5, 3)):
            cfg = KernelConfig(n=n, p=p, alpha=0.0, beta=-0.999)
            underflows = math.exp(kernels._tail_terms(n, p, 0.0, -0.999, "weighted", 64)[1]) * r == 0.0
            assert underflows == (r <= 1e-322)
            # the least tolerance, 5e-324, only where the first term
            # underflows: elsewhere the first term exceeds it, and the
            # answer is a later degree (next tests)
            for tol in (5e-324, 1e-300, 1e-10, 1e-2)[0 if underflows else 1 :]:
                expected = _reference_truncation_degree(cfg, r, tol, "weighted")
                assert truncation_degree(cfg, r, tol, "weighted") == expected == 0, (n, p, r, tol)

    # later terms that underflow to 0 before the bound passes: a2 < a1 no
    # longer held, the scan ran to the cap and raised ConvergenceDomain
    def test_terms_that_underflow_after_the_first_pass_at_the_provable_degree(self):
        cfg = KernelConfig(n=3, p=2, alpha=0.0, beta=-0.999)
        assert truncation_degree(cfg, 1e-300, 1e-310, "weighted") == _reference_truncation_degree(
            cfg, 1e-300, 1e-310, "weighted"
        ) == 1
        for kind in ("poisson", "bergman", "weighted"):
            cfg = KernelConfig(n=3, p=2)
            assert truncation_degree(cfg, 1e-200, 5e-324, kind) == _reference_truncation_degree(
                cfg, 1e-200, 5e-324, kind
            ) == 1, kind

    # r ** m rounds to 0, or to a subnormal of few bits, while the factor
    # c[m] is large, so a term computed as 0 is not small: the answer lies
    # beyond the first 0 term, and at 5e-324 the float test passes nowhere
    @pytest.mark.parametrize("kind", ["poisson", "bergman", "weighted"])
    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.0, 0.5), (0.5, -0.999)])
    @pytest.mark.parametrize(
        "r,tol", [(1e-300, 1e-310), (1e-200, 5e-324), (1e-160, 1e-320), (0.5, 5e-324), (0.5, 1e-320)]
    )
    def test_underflowing_terms_match_the_search(self, kind, alpha, beta, r, tol):
        for n, p in ((2, 1), (3, 2), (5, 3)):
            cfg = KernelConfig(n=n, p=p, alpha=alpha, beta=beta)
            expected = _reference_truncation_degree(cfg, r, tol, kind)
            assert truncation_degree(cfg, r, tol, kind) == expected, (kind, n, p, r, tol)

    # r ** m subnormal but not 0, so that a term c[m] r^m of normal size
    # keeps only the power's few bits: a float pass test took 9422 in the
    # first case, where the bound is 3.12 tol (r ** 9423 is 1.5e-323), and
    # 7756 in the second, where it is 1.019 tol
    @pytest.mark.parametrize(
        "kind,n,p,r,tol",
        [
            ("poisson", 6, 1, 0.9241341384148183, 3.68892420623855e-308),
            ("bergman", 5, 4, 0.9089762326086444, 3.248123710623537e-305),
        ],
    )
    def test_subnormal_powers_return_the_first_degree_whose_bound_passes(self, kind, n, p, r, tol):
        cfg = KernelConfig(n=n, p=p)
        big_m = truncation_degree(cfg, r, tol, kind)
        assert big_m == {6: 9437, 5: 7757}[n]
        assert _table_tail_bound(cfg, kind, r, big_m) < tol <= _table_tail_bound(cfg, kind, r, big_m - 1)

    def test_tiny_tolerances_return_the_first_degree_whose_bound_passes(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            kind, alpha, beta = SIX_KINDS[rng.integers(len(SIX_KINDS))]
            cfg = KernelConfig(n=int(rng.integers(2, 7)), p=int(rng.integers(1, 5)), alpha=alpha, beta=beta)
            r, tol = float(rng.uniform(0.05, 0.95)), float(10.0 ** rng.uniform(-323, -290))
            big_m = truncation_degree(cfg, r, tol, kind)
            assert _table_tail_bound(cfg, kind, r, big_m) < tol, (kind, cfg, r, tol, big_m)
            assert big_m == 0 or _table_tail_bound(cfg, kind, r, big_m - 1) >= tol, (kind, cfg, r, tol, big_m)


def _table_tail_bound(cfg, kind, r, big_m):
    """The tail bound a_{M+1} / (1 - rho), rho = (c[M+2] / c[M+1]) r, in
    40-digit mpmath on the float factors c[m] = g(m) D_p(m) whose logs
    truncation_degree reads (_tail_terms); inf where rho >= 1."""
    window = zonal._window(big_m + 2)
    g = _weight_table(cfg.n, cfg.alpha, cfg.beta, kind, window)
    c1, c2 = (g[m] * zonal.polyharmonic_dim(cfg.n, cfg.p, m) for m in (big_m + 1, big_m + 2))
    with mpmath.workdps(40):
        rho = mpmath.mpf(c2) / c1 * r
        return mpmath.mpf(c1) * mpmath.mpf(r) ** (big_m + 1) / (1 - rho) if rho < 1 else mpmath.inf


def _numpy_window_truncation_degree(cfg, r, tol, kind):
    """The truncation search as one numpy array of terms per window: 64
    degrees, doubled and recomputed from degree 0 until it holds M."""
    if r == 0.0:
        return 0
    m_cap = 100_000
    top = 64
    while True:
        g = np.array(_weight_table(cfg.n, cfg.alpha, cfg.beta, kind, top + 2))
        dims = np.array([zonal.polyharmonic_dim(cfg.n, cfg.p, m) for m in range(top + 2)], dtype=float)
        a = g * dims * r ** np.arange(top + 2, dtype=float)
        a1, a2 = a[1:-1], a[2:]
        done = (a2 < a1) & (a1 * a1 < tol * (a1 - a2))
        big_m = int(done.argmax())
        if done[big_m]:
            return big_m
        if top >= m_cap:
            raise ConvergenceDomain(f"no truncation below {tol} found for r={r}")
        top = min(2 * top, m_cap)


SIX_KINDS = (
    ("poisson", 0.0, 0.0),
    ("bergman", 0.0, 0.0),
    ("weighted", 0.0, 0.0),
    ("weighted", 1.0, 0.5),
    ("weighted", -0.5, 2.0),
    ("weighted", 0.5, 1.7),
    ("weighted", 0.5, -0.999),
)


class TestTruncationStart:
    """The proven start of the truncation scan comes from the first window
    of 64 degrees, whose least factor g(m) D_p(m), m >= 1, bounds every
    window since the factors increase in m.  The scan reads the factors'
    logs, one memoised table per configuration and window (_tail_terms)."""

    @pytest.mark.parametrize("kind,alpha,beta", SIX_KINDS)
    def test_factors_increase_so_the_first_window_bounds_every_window(self, kind, alpha, beta):
        for n in (2, 3, 5):
            for p in (1, 2, 4):
                log_terms = kernels._tail_terms(n, p, alpha, beta, kind, 1024)
                weights = _weight_table(n, alpha, beta, kind, 1024)
                factors = map(operator.mul, weights, (zonal.polyharmonic_dim(n, p, m) for m in range(1024)))
                assert log_terms == tuple(math.log(c) for c in factors), (n, p)
                assert all(a <= b for a, b in zip(log_terms, log_terms[1:])), (n, p)
                assert min(log_terms[1:]) == log_terms[1] == kernels._tail_terms(n, p, alpha, beta, kind, 64)[1]

    def test_a_table_checks_no_degree(self, monkeypatch):
        # the table reads D_p(m) from polyharmonic_dim's unchecked closed
        # form: the checks of n, p and m cost most of a large cold table
        checked = []
        check_integer = zonal.check_integer
        monkeypatch.setattr(zonal, "check_integer", lambda *args: checked.append(args) or check_integer(*args))
        kernels._tail_terms.cache_clear()
        log_terms = kernels._tail_terms(7, 4, 0.0, 0.0, "bergman", 1024)
        assert not checked
        assert log_terms[1000] == math.log((7 + 2000.0) * zonal.polyharmonic_dim(7, 4, 1000))
        assert checked

    @staticmethod
    def windows_asked(monkeypatch):
        asked = []
        tail_terms = kernels._tail_terms

        def recorded(*args):
            log_terms = tail_terms(*args)
            asked.append(len(log_terms))
            return log_terms

        monkeypatch.setattr(kernels, "_tail_terms", recorded)
        return asked

    def test_a_start_beyond_the_cap_raises_without_a_second_window(self, monkeypatch):
        # the proven start at r = 0.9999, tol 1e-14 is 349,424 degrees, so
        # no degree below the cap of 100,000 can pass
        asked = self.windows_asked(monkeypatch)
        cfg = KernelConfig(n=3, p=2, r_max=0.99995)
        with pytest.raises(ConvergenceDomain, match="beyond degree 100000"):
            truncation_degree(cfg, 0.9999, 1e-14, "bergman")
        assert asked == [64]

    def test_the_first_table_scanned_holds_the_start(self, monkeypatch):
        # the start at r = 0.99, tol 1e-10 is about 2560: the scan begins
        # in the window of 4096 degrees, not at 64, and ends in the next one
        asked = self.windows_asked(monkeypatch)
        cfg = KernelConfig(n=3, p=2, r_max=0.99995)
        assert truncation_degree(cfg, 0.99, 1e-10, "bergman") == 4640
        assert asked == [64, 4096, 8192]

    def test_a_start_in_the_first_window_reads_its_table_once(self, monkeypatch):
        # the least factor and the scan's terms come from one lookup
        asked = self.windows_asked(monkeypatch)
        for kind in ("poisson", "bergman", "weighted"):
            assert truncation_degree(KernelConfig(n=3, p=2), 0.3, 1e-10, kind) < 62
        assert asked == [64, 64, 64]

    def test_underflowing_terms_are_tested_at_the_window_boundary(self, monkeypatch):
        # r ** m underflows near degree 1075 at r = 0.5, in the window of
        # 2048 degrees that holds the start; the log-space scan needs no
        # further table: the tail after 1098 is 0.58 of the least
        # subnormal, after 1097 1.15 (mpmath sums of (3 + 2m)(4m - 2) 2^-m)
        asked = self.windows_asked(monkeypatch)
        assert truncation_degree(KernelConfig(n=3, p=2), 0.5, 5e-324, "bergman") == 1098
        assert asked == [64, 2048]


class TestTruncationScan:
    @pytest.mark.parametrize("kind,alpha,beta", SIX_KINDS)
    def test_early_exit_scan_matches_numpy_window_search(self, kind, alpha, beta):
        radii = [0.049 * k for k in range(1, 11)] + [0.9, 0.95]
        for n in range(2, 7):
            for p in range(1, 5):
                cfg = KernelConfig(n=n, p=p, alpha=alpha, beta=beta)
                for r in radii:
                    for tol in (1e-2, 1e-6, 1e-10, 1e-12, 1e-14):
                        want = _numpy_window_truncation_degree(cfg, r, tol, kind)
                        assert truncation_degree(cfg, r, tol, kind) == want, (n, p, r, tol)

    def test_memos_do_not_grow_with_pairs_radii_or_tolerances(self):
        # the weight and tail tables are keyed by configuration and window
        # only: after one warm-up op per kind, new pairs, radius products and
        # tolerances at the same configuration build no table
        cfg = KernelConfig(n=3, p=2, alpha=1.0, beta=0.5)
        rng = np.random.default_rng(44)
        routes = (
            ("poisson", poisson_series),
            ("bergman", bergman_series),
            ("weighted", weighted_bergman_series),
            ("weighted", weighted_bergman_decomposed),
        )

        def evaluate(x, y, tol):
            for kind, series in routes:
                trunc = make_truncation(cfg, x.radius * y.radius, tol, kind)
                assert trunc.max_degree < 62  # one window of 64 degrees
                series(cfg, x, y, trunc)

        far = make_rotated_point(0.0, (0.67, 0.0, 0.0))
        evaluate(far, far, 1e-10)
        memos = (kernels._weight_table, kernels._tail_terms)
        sizes = [memo.cache_info().currsize for memo in memos]
        recurrence = dict(zonal._RECURRENCE)
        for tol in (1e-6, 1e-10):
            for _ in range(10):
                x, y = random_sector_pair(cfg, rng, r_hi=0.67)
                evaluate(x, y, tol)
        assert [memo.cache_info().currsize for memo in memos] == sizes
        assert zonal._RECURRENCE == recurrence
        assert type(kernels._weight_table(3, 1.0, 0.5, "weighted", 64)) is tuple


class TestTruncationSoundness:
    @pytest.mark.parametrize("kind", ["poisson", "bergman"])
    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    @pytest.mark.parametrize("r", [0.9, 0.95])
    @pytest.mark.parametrize("p", [2, 3])
    def test_summed_tail_below_tolerance(self, p, r, tol, kind):
        # n = 3, p >= 2: D_p(m) / (p m) nears 2 only beyond m = 40, where a
        # constant fitted on degrees up to 40 undershoots the bound
        cfg = KernelConfig(n=3, p=p)
        big_m = truncation_degree(cfg, r, tol, kind)
        g = {"poisson": lambda m: 1.0, "bergman": lambda m: 3.0 + 2.0 * m}[kind]
        tail = math.fsum(
            g(m) * _polyharmonic_dim(3, p, m) * r**m for m in range(big_m + 1, big_m + 4001)
        )
        assert tail < tol, (big_m, tail / tol)


class TestScalarSeriesCall:
    def test_a_warm_series_call_makes_no_numpy_call(self):
        # a series call for one pair, its make_truncation included, runs on
        # Python numbers once the memos hold its tables, and so does a
        # closed form or the derivative form: the profile hook sees every
        # Python frame and every builtin function called, and no numpy
        # function, in Python or in C, is among them
        cfg = KernelConfig(n=3, p=2, alpha=1.0, beta=0.5)
        integer_beta = KernelConfig(n=3, p=2, alpha=1.0, beta=1.0)
        x = make_rotated_point(0.0, (0.5, 0.3, 0.1))
        y = make_rotated_point(cfg.sector_phase(1), (0.4, -0.3, 0.2))
        r = x.radius * y.radius
        routes = (
            ("poisson", poisson_series),
            ("bergman", bergman_series),
            ("weighted", weighted_bergman_series),
            ("weighted", weighted_bergman_decomposed),
        )

        def calls():
            values = [series(cfg, x, y, make_truncation(cfg, r, 1e-10, kind)) for kind, series in routes]
            return values + [kernel(integer_beta, x, y) for kernel in PAIR_KERNELS]

        warm = calls()
        seen = []

        def profile(frame, event, arg):
            if event == "call":
                seen.append(frame.f_code.co_filename)
            elif event == "c_call":
                seen.append(f"{getattr(arg, '__module__', None)} {type(getattr(arg, '__self__', None)).__module__}")

        sys.setprofile(profile)
        try:
            values = calls()
        finally:
            sys.setprofile(None)
        assert values == warm and all(type(v) is complex for v in values)
        assert any(entry.endswith("zonal.py") for entry in seen)
        assert not [entry for entry in seen if "numpy" in entry]

    def test_a_cold_series_call_makes_no_numpy_call(self):
        # with the series memos cleared, make_truncation builds its weight
        # table, its tail table from the exact integer D_p(m) and the
        # calibrated constant on Python numbers, and the series sum runs on
        # them: the profile hook sees no numpy function, in Python or in C
        cfg = KernelConfig(n=4, p=3, alpha=1.0, beta=0.5)
        x = make_rotated_point(0.0, (0.5, 0.3, 0.1, -0.2))
        y = make_rotated_point(cfg.sector_phase(2), (0.4, -0.3, 0.2, 0.1))
        for memo in (kernels._weight_table, kernels._tail_terms, kernels._calibrated_constant):
            memo.cache_clear()
        seen = []

        def profile(frame, event, arg):
            if event == "call":
                seen.append(frame.f_code.co_filename)
            elif event == "c_call":
                seen.append(f"{getattr(arg, '__module__', None)} {type(getattr(arg, '__self__', None)).__module__}")

        sys.setprofile(profile)
        try:
            trunc = make_truncation(cfg, x.radius * y.radius, 1e-10, "weighted")
            value = weighted_bergman_series(cfg, x, y, trunc)
        finally:
            sys.setprofile(None)
        assert type(value) is complex and trunc.calibrated_C == calibrated_constant(cfg)
        assert kernels._tail_terms.cache_info().currsize == 1
        assert not [entry for entry in seen if "numpy" in entry]


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
