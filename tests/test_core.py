import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from polybergman import (
    BranchCutProximity,
    KernelConfig,
    make_rotated_point,
    pair_invariants,
    principal_pow,
    unit_ball_volume,
)

finite_floats = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
small_coords = st.lists(st.floats(-0.9, 0.9), min_size=2, max_size=4)


class TestMakeRotatedPoint:
    def test_identity_case(self):
        x = make_rotated_point(0.0, (0.5, 0.0, 0.0))
        assert x.phase == 0.0
        assert x.radius == 0.5

    def test_radius_is_the_euclidean_norm_computed_once(self):
        rng = np.random.default_rng(6)
        for n in (2, 3, 5):
            x = make_rotated_point(0.4, rng.normal(size=n))
            assert x.radius == float(np.linalg.norm(x.coords))
            assert isinstance(x.radius, float)
            assert vars(x)["radius"] is x.radius

    def test_phase_periodicity(self):
        x = make_rotated_point(2 * math.pi, (0.1, 0.2, 0.3))
        assert abs(x.phase) < 1e-15

    def test_sphere_point_sector(self):
        # sector k=1 of the order-2 rotated sphere
        x = make_rotated_point(math.pi / 2, (1.0, 0.0))
        assert x.radius == 1.0
        assert_allclose(x.phase, math.pi / 2)

    def test_normalization_range_and_fixed_points(self):
        assert make_rotated_point(math.pi, (1.0, 0.0)).phase == pytest.approx(math.pi)
        assert make_rotated_point(-math.pi, (1.0, 0.0)).phase == pytest.approx(math.pi)
        for p in (1, 2, 3, 5):
            for k in range(p):
                ph = math.pi * k / p
                assert make_rotated_point(ph, (1.0, 0.0)).phase == ph

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            make_rotated_point(0.0, (float("nan"), 0.0))
        with pytest.raises(ValueError):
            make_rotated_point(float("inf"), (1.0, 0.0))
        with pytest.raises(ValueError):
            make_rotated_point(0.0, [[1.0, 0.0]])

    def test_points_compare_and_hash_by_identity(self):
        # equal-valued points are distinct objects; neither == nor hash may
        # reach the coords array
        x = make_rotated_point(0.1, [0.3, 0.4, 0.0])
        y = make_rotated_point(0.1, [0.3, 0.4, 0.0])
        assert x == x and x != y
        assert len({x, y, x}) == 2

    @given(phase=finite_floats, coords=small_coords)
    @settings(max_examples=100, deadline=None)
    def test_phase_always_in_halfopen_interval(self, phase, coords):
        x = make_rotated_point(phase, coords)
        assert -math.pi < x.phase <= math.pi


class TestPairInvariants:
    def test_real_diagonal_hand_values(self):
        x = make_rotated_point(0.0, (0.5, 0.0, 0.0))
        inv = pair_invariants(x, x)
        assert_allclose(inv.s, 0.25)
        assert_allclose(inv.u, 0.25)
        assert_allclose(inv.v, 0.25)
        assert_allclose(inv.q, 0.0625)
        assert_allclose(inv.w, 0.5625)

    def test_orthogonal_quarter_turn(self):
        # a.b = 0 kills s; q picks up the phase e^{2i phi} = e^{i pi}
        a = np.array([0.3, 0.0, 0.0])
        b = np.array([0.0, 0.4, 0.0])
        inv = pair_invariants(
            make_rotated_point(math.pi / 2, a), make_rotated_point(0.0, b)
        )
        assert abs(inv.s) == 0.0
        expected_q = np.exp(1j * math.pi) * 0.09 * 0.16
        assert_allclose([inv.q.real, inv.q.imag], [expected_q.real, expected_q.imag], atol=1e-16)

    def test_origin(self):
        o = make_rotated_point(0.3, (0.0, 0.0))
        y = make_rotated_point(0.1, (0.5, 0.2))
        inv = pair_invariants(o, y)
        assert inv.s == 0 and inv.u == 0 and inv.q == 0 and inv.w == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pair_invariants(
                make_rotated_point(0.0, (1.0, 0.0)), make_rotated_point(0.0, (1.0, 0.0, 0.0))
            )

    @given(
        phx=finite_floats, phy=finite_floats,
        a=small_coords, b=small_coords,
    )
    @settings(max_examples=150, deadline=None)
    def test_w_identity_and_q_factorization(self, phx, phy, a, b):
        m = min(len(a), len(b))
        x = make_rotated_point(phx, a[:m])
        y = make_rotated_point(phy, b[:m])
        inv = pair_invariants(x, y)
        assert abs(inv.w - (1 - 2 * inv.s + inv.q)) <= 1e-15
        assert abs(inv.q - inv.u * inv.v) <= 1e-15 * max(1.0, abs(inv.q))

    @given(phx=finite_floats, phy=finite_floats, c=finite_floats, a=small_coords, b=small_coords)
    @settings(max_examples=100, deadline=None)
    def test_phase_shift_covariance(self, phx, phy, c, a, b):
        m = min(len(a), len(b))
        base = pair_invariants(make_rotated_point(phx, a[:m]), make_rotated_point(phy, b[:m]))
        shifted = pair_invariants(
            make_rotated_point(phx + c, a[:m]), make_rotated_point(phy + c, b[:m])
        )
        rot = np.exp(2j * c)
        assert abs(shifted.s - base.s) <= 1e-12 * (1 + abs(base.s))
        assert abs(shifted.u - base.u * rot) <= 1e-12 * (1 + abs(base.u))
        assert abs(shifted.v - base.v * np.conj(rot)) <= 1e-12 * (1 + abs(base.v))
        assert abs(shifted.q - base.q) <= 1e-12 * (1 + abs(base.q))
        assert abs(shifted.w - base.w) <= 1e-12 * (1 + abs(base.w))

    def test_same_sector_real_specialization(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b = rng.uniform(-0.7, 0.7, size=(2, 3))
            inv = pair_invariants(make_rotated_point(0.0, a), make_rotated_point(0.0, b))
            for val in (inv.s, inv.u, inv.v, inv.q, inv.w):
                assert val.imag == 0.0
            assert_allclose(inv.w, float(a @ a) * float(b @ b) - 2 * float(a @ b) + 1.0)
            assert inv.w >= (1 - np.linalg.norm(a) * np.linalg.norm(b)) ** 2 - 1e-15


class TestPrincipalPow:
    def test_positive_real_square_root(self):
        assert_allclose(principal_pow(4.0 + 0.0j, 0.5), 2.0 + 0.0j)

    def test_integer_power_on_axis(self):
        assert_allclose(principal_pow(1j, 2), -1.0 + 0.0j)

    def test_on_cut_raises(self):
        with pytest.raises(BranchCutProximity):
            principal_pow(-1.0 + 0.0j, 0.5)

    def test_near_cut_guard(self):
        with pytest.raises(BranchCutProximity):
            principal_pow(complex(-1.0, 1e-14), 0.5, eps_branch=1e-12)
        # safely off the cut
        principal_pow(complex(-1.0, 1e-10), 0.5, eps_branch=1e-12)

    def test_array_matches_scalar_and_guards_the_cut(self):
        w = np.array([4.0, 1j, complex(-1.0, 1e-10), complex(0.3, -2.0)])
        for e in (0.5, 1.5, 2, -1):
            got = principal_pow(w, e)
            assert got.shape == w.shape
            assert_allclose(got, [principal_pow(complex(v), e) for v in w], rtol=1e-14)
        with pytest.raises(BranchCutProximity):
            principal_pow(np.array([4.0, complex(-1.0, 1e-14)]), 0.5)
        with pytest.raises(BranchCutProximity):
            principal_pow(np.array([1.0, 0.0]), 1.5)

    def test_zero_to_a_negative_integer_power_raises(self):
        with pytest.raises(ZeroDivisionError):
            principal_pow(0j, -2)
        with pytest.raises(ZeroDivisionError):
            principal_pow(np.array([1.0, 0.0]), -1)

    def test_integer_matches_repeated_multiplication(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(w) < 1e-3:
                continue
            for k in (0, 1, 2, 3, 7):
                direct = 1.0 + 0.0j
                for _ in range(k):
                    direct *= w
                assert abs(principal_pow(w, k) - direct) <= 1e-13 * max(1.0, abs(direct))

    @given(
        re=st.floats(0.05, 3.0), im=st.floats(-3.0, 3.0),
        a=st.floats(-1.5, 1.5), b=st.floats(-1.5, 1.5),
    )
    @settings(max_examples=150, deadline=None)
    def test_exponent_addition(self, re, im, a, b):
        w = complex(re, im)  # right half plane, far from the cut
        lhs = principal_pow(w, a + b)
        rhs = principal_pow(w, a) * principal_pow(w, b)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestUnitBallVolume:
    def test_disk(self):
        assert_allclose(unit_ball_volume(2), math.pi, rtol=1e-14)

    def test_ball(self):
        assert_allclose(unit_ball_volume(3), 4 * math.pi / 3, rtol=1e-14)

    def test_five_dimensions(self):
        # Gamma(7/2) = 15 sqrt(pi) / 8 gives 8 pi^2 / 15
        assert_allclose(unit_ball_volume(5), 8 * math.pi**2 / 15, rtol=1e-14)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            unit_ball_volume(0)


class TestKernelConfig:
    def test_defaults_valid(self):
        cfg = KernelConfig(n=3, p=2)
        assert cfg.eps_branch == 1e-12 and cfg.eps_sing == 1e-12
        assert cfg.sector_phase(1) == math.pi / 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=1, p=1),
            dict(n=3, p=0),
            dict(n=2, p=1, alpha=-2.5),
            dict(n=2, p=1, beta=-1.0),
            dict(n=2, p=1, eps_sing=0.0),
            dict(n=2, p=1, eps_branch=1e-6),
            dict(n=2, p=1, r_max=1.0),
            dict(n=2, p=1, alpha=math.nan),
            dict(n=2, p=1, alpha=math.inf),
            dict(n=2, p=1, beta=math.nan),
            dict(n=2, p=1, beta=math.inf),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            KernelConfig(**kwargs)
