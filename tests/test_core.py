import cmath
import math
import sys
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from polybergman import (
    BranchCutProximity,
    KernelConfig,
    RotatedPoint,
    build_radial_rule,
    make_rotated_point,
    pair_invariants,
    principal_pow,
    radial_moment,
    unit_ball_volume,
    weighted_coefficient,
    zonal_polyharmonic,
)
from polybergman.core import check_weight_parameters

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

    def test_float_coords_are_python_floats_stored_at_construction(self):
        # pair_invariants reads the coordinates as a tuple of Python floats,
        # built once with the point, also when RotatedPoint is called directly
        rng = np.random.default_rng(8)
        for n in (2, 3, 5):
            x = make_rotated_point(-1.2, rng.normal(size=n))
            for pt in (x, RotatedPoint(x.phase, x.coords)):
                assert "float_coords" in vars(pt)
                assert type(pt.float_coords) is tuple
                assert [type(c) for c in pt.float_coords] == [float] * n
                assert pt.float_coords == tuple(x.coords)

    def test_direct_construction_is_the_checked_constructor(self):
        # one construction path: a list, a numpy phase and a phase outside
        # (-pi, pi] are taken as make_rotated_point takes them, and every
        # value pair_invariants reads is stored when the point is built
        assert make_rotated_point is RotatedPoint
        x = RotatedPoint(np.float64(7.0), [3, 4])
        assert type(x.phase) is float and x.phase == math.remainder(7.0, 2 * math.pi)
        assert {"float_coords", "norm2", "radius"} <= set(vars(x))
        assert x.coords.dtype == float and x.float_coords == (3.0, 4.0)
        assert x.norm2 == 25.0 and x.radius == 5.0 and x.dim == 2

    @pytest.mark.parametrize(
        "phase, coords",
        [
            (7.0, np.array([np.nan, 0.0, 0.0])),
            (0.0, np.array([0.1, np.inf])),
            (np.nan, np.array([0.1, 0.2])),
            (True, (0.1, 0.2)),
            ("0.5", (0.1, 0.2)),
            (0.5j, (0.1, 0.2)),
            (0.0, [1j, 0.0]),
            (0.0, np.array([0.1 + 0j, 0.2])),
            (0.0, ["0.1", "0.2"]),
            (0.0, [True, False]),
            (0.0, []),
            (0.0, 0.5),
            (0.0, [0.1, [0.2]]),
        ],
    )
    def test_direct_construction_rejects_invalid_input(self, phase, coords):
        with pytest.raises(ValueError):
            RotatedPoint(phase, coords)

    @pytest.mark.parametrize("coords", [[1e200, 0.0, 0.0], [1e154, 1e154, 1e154], [-1e308, 1e308]])
    def test_an_overflowing_squared_norm_is_rejected_without_a_warning(self, coords):
        # a @ a overflowed to inf with numpy's RuntimeWarning, and the point
        # stored radius inf; warnings are errors in this suite
        with pytest.raises(ValueError, match="squared norm"):
            RotatedPoint(0.0, coords)

    def test_squared_norm_is_the_matmul_up_to_the_overflow(self):
        # the guard leaves every finite norm2 the bits of a @ a, also just
        # below the overflow, where hypot passes its threshold
        rng = np.random.default_rng(21)
        big = [[1.34e154, 0.0], [1e154, 1e154 / 3.0, 0.0], [1e-200, 1e-170]]
        for coords in [rng.normal(size=n) * 10.0 ** e for n in (1, 2, 3, 7) for e in (-150, -3, 0, 3, 150)] + big:
            a = np.array(coords, dtype=float)
            x = RotatedPoint(0.0, coords)
            assert x.norm2 == float(a @ a) and math.isfinite(x.norm2)
            if x.norm2 >= sys.float_info.min:
                assert x.radius == math.sqrt(x.norm2)
            else:  # [1e-200, 1e-170]: a @ a underflows to 0
                assert x.radius == math.hypot(*coords) == 1e-170

    def test_a_radius_whose_square_underflows_is_the_hypot(self):
        # a @ a of (1e-170, 0, 0) underflows to 0, and the point was taken
        # for the origin: Z_1 at n = 3 is 3 |x||y| t = 1.5e-170, not 0
        x = make_rotated_point(0.0, (1e-170, 0.0, 0.0))
        y = make_rotated_point(0.0, (0.5, 0.0, 0.0))
        assert x.norm2 == 0.0 and x.radius == 1e-170
        got = zonal_polyharmonic(KernelConfig(n=3, p=1), 1, x, y)
        assert abs(got - 1.5e-170) <= 1e-15 * 1.5e-170
        for coords in ((3e-160, 4e-160), (1e-155, 0.0, 2e-155), (5e-324,)):
            assert make_rotated_point(0.7, coords).radius == math.hypot(*coords) > 0.0

    def test_caller_writes_after_the_build_change_nothing(self):
        a = np.array([0.3, 0.4, 0.0])
        x = RotatedPoint(0.2, a)
        a[:] = [1.0, 2.0, 3.0]
        assert x.coords.tolist() == [0.3, 0.4, 0.0] and x.float_coords == (0.3, 0.4, 0.0)
        assert x.radius == 0.5
        with pytest.raises(ValueError):
            x.coords[0] = 1.0

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
        assert_allclose(inv.q, 0.0625)
        assert_allclose(inv.w, 0.5625)
        assert inv.t == 1.0
        assert_allclose(inv.zeta, 0.25)

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
        assert inv.s == 0 and inv.q == 0 and inv.w == 1
        assert inv.t == 0 and inv.zeta == 0

    def test_invariants_are_python_numbers(self):
        # the scalar zonal sum runs on Python numbers, never numpy scalars
        inv = pair_invariants(make_rotated_point(0.4, (0.3, 0.1, 0.2)), make_rotated_point(0.0, (0.1, 0.5, 0.0)))
        assert [type(v) for v in inv] == [complex, complex, complex, float, complex]

    def test_dimension_mismatch(self):
        x, y = make_rotated_point(0.0, (1.0, 0.0)), make_rotated_point(0.0, (1.0, 0.0, 0.0))
        for a, b in ((x, y), (y, x)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                pair_invariants(a, b)

    @given(
        phx=finite_floats, phy=finite_floats,
        a=small_coords, b=small_coords,
    )
    @settings(max_examples=150, deadline=None)
    def test_w_identity_and_q_factorization(self, phx, phy, a, b):
        # the closed-form invariants are the zonal ones: s = zeta t, q = zeta^2
        m = min(len(a), len(b))
        x = make_rotated_point(phx, a[:m])
        y = make_rotated_point(phy, b[:m])
        inv = pair_invariants(x, y)
        assert abs(inv.w - (1 - 2 * inv.s + inv.q)) <= 1e-15
        assert -1.0 <= inv.t <= 1.0
        eps = np.finfo(float).eps
        assert abs(inv.s - inv.zeta * inv.t) <= 8 * eps * max(1.0, abs(inv.zeta))
        assert abs(inv.q - inv.zeta**2) <= 8 * eps * max(1.0, abs(inv.q))

    @given(phx=finite_floats, phy=finite_floats, c=finite_floats, a=small_coords, b=small_coords)
    @settings(max_examples=100, deadline=None)
    def test_phase_shift_covariance(self, phx, phy, c, a, b):
        # a common phase shift leaves every invariant unchanged
        m = min(len(a), len(b))
        base = pair_invariants(make_rotated_point(phx, a[:m]), make_rotated_point(phy, b[:m]))
        shifted = pair_invariants(
            make_rotated_point(phx + c, a[:m]), make_rotated_point(phy + c, b[:m])
        )
        for name in ("s", "q", "w", "zeta"):
            got, want = getattr(shifted, name), getattr(base, name)
            assert abs(got - want) <= 1e-12 * (1 + abs(want)), name
        assert shifted.t == base.t

    def test_same_sector_real_specialization(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b = rng.uniform(-0.7, 0.7, size=(2, 3))
            inv = pair_invariants(make_rotated_point(0.0, a), make_rotated_point(0.0, b))
            for val in (inv.s, inv.q, inv.w, inv.zeta):
                assert val.imag == 0.0
            assert_allclose(inv.w, float(a @ a) * float(b @ b) - 2 * float(a @ b) + 1.0)
            assert inv.w >= (1 - np.linalg.norm(a) * np.linalg.norm(b)) ** 2 - 1e-15

    def test_w_is_the_product_of_two_factors_in_the_right_half_plane(self):
        # with t = cos a, w = (1 - zeta e^{ia})(1 - zeta e^{-ia}), and for
        # |zeta| = |x||y| < 1 both factors have a positive real part: arg w
        # is the sum of their arguments, inside (-pi, pi) at every phase, so
        # the principal power of w continues the series off the sectors, and
        # |w| >= (1 - |x||y|)^2.  The checks allow w's rounding, a few ulp
        # of its terms 1 + 2|s| + |q|, which moves arg w by that over |w|
        eps = np.finfo(float).eps
        rng = np.random.default_rng(17)
        for n in (2, 3, 4, 5):
            for k in range(400):
                a = rng.normal(size=n)
                a /= np.linalg.norm(a)
                # every fourth pair near the singularity w = 0: a radius
                # product near 0.99, nearly aligned, at nearly equal phases
                near = k % 4 == 0
                b = a + 1e-3 * rng.normal(size=n) if near else rng.normal(size=n)
                b /= np.linalg.norm(b)
                rr = 0.99 * (1.0 - 1e-3 * rng.uniform() if near else rng.uniform())
                ra = rng.uniform(rr, 1.0)
                phase = rng.uniform(-math.pi, math.pi)
                x = make_rotated_point(phase, ra * a)
                phase = phase + 1e-3 * rng.normal() if near else rng.uniform(-math.pi, math.pi)
                y = make_rotated_point(phase, rr / ra * b)
                inv = pair_invariants(x, y)
                rr = x.radius * y.radius
                turn = cmath.exp(1j * math.acos(inv.t))
                plus, minus = 1.0 - inv.zeta * turn, 1.0 - inv.zeta / turn
                assert plus.real > 0.0 and minus.real > 0.0
                scale = 1.0 + 2.0 * abs(inv.s) + abs(inv.q)
                err = abs(cmath.phase(plus) + cmath.phase(minus) - cmath.phase(inv.w))
                assert err <= 16 * eps * scale / abs(inv.w), (n, k, err)
                assert abs(inv.w) >= (1.0 - rr) ** 2 - 16 * eps * scale, (n, k)

    def test_matches_50_digit_oracle(self):
        # every invariant within a few ulp of mpmath on the same float
        # inputs: s, q and zeta relative to their size, t absolutely, and w
        # relative to its terms 1 + 2|s| + |q|, whose cancellation near the
        # boundary is a property of the formula w = 1 - 2s + q, not of its
        # rounding.  Measured worst: s 2.4, q 4.5, w 1.8, t 1.06 (1.41 with
        # a numpy dot, before the fsum one) and zeta 2.4 ulp
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        rng = np.random.default_rng(2024)
        worst = dict.fromkeys(("s", "q", "w", "t", "zeta"), 0.0)
        for n in (2, 3, 4, 5):
            for k in range(100):
                a = rng.normal(size=n)
                a /= np.linalg.norm(a)
                if k < 50:
                    b = rng.normal(size=n)
                    b /= np.linalg.norm(b)
                    ra, rb = rng.uniform(0.0, 0.9999, 2)
                else:  # nearly aligned at radius 0.9999
                    b = a + 1e-3 * rng.normal(size=n)
                    b /= np.linalg.norm(b)
                    ra = rb = 0.9999
                x = make_rotated_point(rng.uniform(-math.pi, math.pi), ra * a)
                y = make_rotated_point(rng.uniform(-math.pi, math.pi), rb * b)
                inv = pair_invariants(x, y)
                with mpmath.workdps(50):
                    xa = [mpmath.mpf(float(c)) for c in x.coords]
                    yb = [mpmath.mpf(float(c)) for c in y.coords]
                    ab = mpmath.fsum(u * v for u, v in zip(xa, yb))
                    rr = mpmath.sqrt(mpmath.fsum(u * u for u in xa)) * mpmath.sqrt(
                        mpmath.fsum(v * v for v in yb)
                    )
                    rot = mpmath.expj(mpmath.mpf(x.phase) - mpmath.mpf(y.phase))
                    s, zeta = rot * ab, rot * rr
                    q = zeta * zeta
                    want = dict(s=s, q=q, w=1 - 2 * s + q, t=ab / rr, zeta=zeta)
                    scale = dict(s=rr, q=abs(q), w=1 + 2 * abs(s) + abs(q), t=1, zeta=rr)
                    for name, val in want.items():
                        err = abs(mpmath.mpc(getattr(inv, name)) - val) / scale[name]
                        worst[name] = max(worst[name], float(err) / eps)
        bound = dict(s=3.0, q=6.0, w=3.0, t=1.25, zeta=3.0)
        assert all(worst[name] <= bound[name] for name in worst), worst


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

    def test_array_route_does_not_copy_a_complex_input(self):
        # the input is only read: a read-only complex array is taken as it
        # is, and an integer power allocates its result and nothing else
        w = np.exp(1j * np.linspace(-3.0, 3.0, 100_000))
        w.flags.writeable = False
        want = principal_pow(w.copy(), 2)
        tracemalloc.start()
        try:
            got = principal_pow(w, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak < 1.5 * w.nbytes, (peak, w.nbytes)

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

    def test_matches_30_digit_oracle(self):
        # the kernel exponents n/2 and n/2 + 1 for |w| in [1e-6, 1e3], at
        # random phases and just off the cut.  Integer exponents are binary
        # powering, within a few ulp.  A non-integer one is exp(e log w),
        # whose result carries the rounding of e log w times |e log w|, so
        # its ulp count is scaled by 1 + |e log w| (up to about 30 ulp
        # unscaled near |w| = 1e3, under 1 scaled)
        mpmath = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        rng = np.random.default_rng(12)
        worst_int = worst_frac = 0.0
        for n in range(2, 7):
            for e in (n / 2, n / 2 + 1):
                for k in range(300):
                    if k % 2:  # within 1e-11..1e-3 radians of the cut
                        angle = math.copysign(math.pi - 10 ** rng.uniform(-11, -3), rng.uniform(-1, 1))
                    else:
                        angle = rng.uniform(-math.pi, math.pi)
                    w = complex(10 ** rng.uniform(-6, 3) * np.exp(1j * angle))
                    got = principal_pow(w, e)
                    with mpmath.workdps(30):
                        want = mpmath.power(mpmath.mpc(w.real, w.imag), mpmath.mpf(e))
                        ulps = float(abs(mpmath.mpc(got.real, got.imag) - want) / abs(want)) / eps
                    if e == round(e):
                        worst_int = max(worst_int, ulps)
                    else:
                        worst_frac = max(worst_frac, ulps / (1.0 + abs(e * np.log(w))))
        assert worst_int <= 4.0, worst_int
        assert worst_frac <= 2.0, worst_frac

    # |w| from 1e-2 to 1e2 in all four quadrants, and within 1e-11..1e-3
    # radians of the cut on both sides (outside the eps_branch guard)
    HALF_INTEGER_W = [
        r * cmath.exp(1j * angle)
        for r in (1e-2, 0.37, 1.0, 2.9, 1e2)
        for angle in (0.3, 1.9, -2.4, -0.8, math.pi - 1e-3, math.pi - 1e-11, 1e-11 - math.pi)
    ]

    @pytest.mark.parametrize("e", [-1.5, -0.5, 0.5, 1.5, 2.5, 3.5])
    def test_half_integer_matches_50_digit_oracle(self, e):
        # w ** (e - 1/2) * sqrt(w) is a few correctly rounded operations,
        # within 1e-15 relative wherever |w| lies
        mpmath = pytest.importorskip("mpmath")
        w = np.array(self.HALF_INTEGER_W)
        got_array = principal_pow(w, e)
        got_scalar = [principal_pow(v, e) for v in self.HALF_INTEGER_W]
        with mpmath.workdps(50):
            want = [mpmath.power(mpmath.mpc(v.real, v.imag), mpmath.mpf(e)) for v in w]
            for got in (got_array, got_scalar):
                rel = max(float(abs(mpmath.mpc(g.real, g.imag) - x) / abs(x)) for g, x in zip(got, want))
                assert rel <= 1e-15, rel
        assert_allclose(got_array, got_scalar, rtol=1e-15)

    @pytest.mark.parametrize("e", [-1.5, 0.5, 3.5])
    def test_half_integer_guards_the_cut_and_zero(self, e):
        for w in (complex(-1.0, 1e-14), complex(-1.0, -1e-14), 0j):
            with pytest.raises(BranchCutProximity):
                principal_pow(w, e)
            with pytest.raises(BranchCutProximity):
                principal_pow(np.array([4.0, w]), e)

    # integer, half-integer and other exponents
    EXPONENTS = [-3, -1, 0, 2, 3.0, 7, -2.5, -0.5, 0.5, 1.5, 3.5, -1.7, 0.3, 2.25]

    @pytest.mark.parametrize("e", EXPONENTS)
    def test_scalar_routes_agree_and_match_the_array_route(self, e):
        # a Python complex takes the scalar route directly, a numpy complex
        # or a float after conversion: the same bits.  The array route runs
        # numpy's complex arithmetic (vectorised multiplies, its own division
        # and log), which rounds differently: within 1e-15 relative
        rng = np.random.default_rng(17)
        w = [cmath.rect(r, a) for r in (1e-2, 0.37, 1.0, 2.9, 1e2) for a in (0.3, 1.9, -2.4, -0.8)]
        w += [complex(*rng.uniform(-3.0, 3.0, 2)) for _ in range(60)]
        scalar = [principal_pow(v, e) for v in w]
        assert all(type(v) is complex for v in scalar)
        for v, want in zip(w, scalar):
            got = principal_pow(np.complex128(v), e)
            assert (got.real, got.imag) == (want.real, want.imag)
        for v in (0.37, 2.9):
            got, want = principal_pow(v, e), principal_pow(complex(v), e)
            assert (got.real, got.imag) == (want.real, want.imag)
        array = principal_pow(np.array(w), e)
        assert_allclose(array, scalar, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("e", [-1.5, 0.5, 0.3])
    @pytest.mark.parametrize("w", [complex(-1.0, 1e-14), complex(-1.0, -1e-14), 0j])
    def test_every_input_type_guards_the_cut(self, e, w):
        for arg in (w, np.complex128(w), np.array([w])):
            with pytest.raises(BranchCutProximity):
                principal_pow(arg, e)

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
        for n in (0, 2.5, True, "3"):
            with pytest.raises(ValueError):
                unit_ball_volume(n)

    def test_numpy_integer_dimension(self):
        assert unit_ball_volume(np.int64(3)) == unit_ball_volume(3)


class TestKernelConfig:
    def test_defaults_valid(self):
        cfg = KernelConfig(n=3, p=2)
        assert cfg.eps_branch == 1e-12
        # the library reads core.EPS_SING; the config carries no copy of it
        assert not hasattr(cfg, "eps_sing")
        assert cfg.sector_phase(1) == math.pi / 2

    def test_settable_fields(self):
        assert [f.name for f in fields(KernelConfig)] == ["n", "p", "alpha", "beta", "r_max"]
        for guard in ("eps_sing", "eps_branch"):
            with pytest.raises(TypeError):
                KernelConfig(n=2, p=1, **{guard: 1e-9})

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=1, p=1),
            dict(n=3, p=0),
            dict(n=2, p=1, alpha=-2.5),
            dict(n=2, p=1, beta=-1.0),
            dict(n=2, p=1, r_max=0.0),
            dict(n=2, p=1, alpha=-math.inf),
            dict(n=2, p=1, r_max=1.0),
            dict(n=2, p=1, alpha=math.nan),
            dict(n=2, p=1, alpha=math.inf),
            dict(n=2, p=1, beta=math.nan),
            dict(n=2, p=1, beta=math.inf),
            dict(n=3, p=1.5),
            dict(n=3.5, p=1),
            dict(n=3.0, p=1),
            dict(n=3, p=np.float64(2.0)),
            dict(n=True, p=1),
            dict(n=3, p=True),
            dict(n=3, p=math.nan),
            dict(n="3", p=1),
            dict(n=3, p=1, alpha=False, beta=True),
            dict(n=3, p=1, beta=True),
            dict(n=3, p=1, alpha=np.True_),
            dict(n=3, p=1, alpha="1"),
            dict(n=3, p=1, beta="0"),
            dict(n=3, p=1, alpha=1 + 0j),
            dict(n=3, p=1, beta=np.complex128(0.5)),
            dict(n=3, p=1, alpha=None),
            dict(n=3, p=1, r_max="0.5"),
            dict(n=3, p=1, r_max=True),
            dict(n=3, p=1, r_max=0.5 + 0j),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            KernelConfig(**kwargs)

    def test_weights_and_radius_bound_are_stored_as_floats(self):
        cfg = KernelConfig(n=3, p=1, alpha=1, beta=np.float32(0.5), r_max=np.float64(0.9))
        assert [type(v) for v in (cfg.alpha, cfg.beta, cfg.r_max)] == [float, float, float]
        assert (cfg.alpha, cfg.beta, cfg.r_max) == (1.0, 0.5, 0.9)
        assert cfg == KernelConfig(n=3, p=1, alpha=1.0, beta=0.5, r_max=0.9)

    @pytest.mark.parametrize("alpha, beta", [(False, 0.0), (0.0, True), ("1", 0.0), (0.0, "0"), (1j, 0.0), (None, 0.0)])
    def test_weight_checks_reject_non_real_values(self, alpha, beta):
        # one check serves the config, the radial moments, the series weights
        # and the radial rules; memoised rules at the equal float weights
        # (False == 0.0, True == 1.0) do not answer for a bool
        build_radial_rule(3, 0.0, 0.0, 4)
        build_radial_rule(3, 0.0, 1.0, 4)
        for call in (
            lambda: check_weight_parameters(3, alpha, beta),
            lambda: radial_moment(3, 1, alpha, beta),
            lambda: weighted_coefficient(3, alpha, beta, 2),
            lambda: build_radial_rule(3, alpha, beta, 4),
        ):
            with pytest.raises(ValueError, match="real number"):
                call()

    def test_sector_phase_takes_an_integer_modulo_p(self):
        cfg = KernelConfig(n=3, p=2)
        assert cfg.sector_phase(np.int64(1)) == cfg.sector_phase(3) == cfg.sector_phase(-1) == math.pi / 2
        for k in (0.5, 1.0, True, "1", None):
            with pytest.raises(ValueError, match="sector index"):
                cfg.sector_phase(k)

    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_sector_phases_are_stored_once_and_read_only(self, p):
        cfg = KernelConfig(n=3, p=p)
        phases = cfg.sector_phases()
        assert phases is cfg.sector_phases()
        assert not phases.flags.writeable
        assert phases.tolist() == [cfg.sector_phase(k) for k in range(p)]
        with pytest.raises(ValueError):
            phases[0] = 1.0

    def test_configs_of_equal_order_share_one_phase_array(self):
        # a configuration holds its five fields only; the phases are built
        # once per p
        cfg, other = KernelConfig(n=3, p=4), KernelConfig(n=5, p=4, alpha=1.0, beta=0.5)
        assert cfg.sector_phases() is other.sector_phases()
        assert not cfg.sector_phases().flags.writeable
        assert cfg.sector_phases() is not KernelConfig(n=3, p=3).sector_phases()
        assert set(vars(cfg)) == {"n", "p", "alpha", "beta", "r_max"}

    def test_stored_phases_leave_equality_and_hashing_by_value(self):
        cfg, same, other = KernelConfig(n=3, p=2), KernelConfig(n=3, p=2), KernelConfig(n=3, p=3)
        assert cfg == same and hash(cfg) == hash(same) and cfg != other
        assert len({cfg, same, other}) == 2
        assert repr(cfg) == "KernelConfig(n=3, p=2, alpha=0.0, beta=0.0, r_max=0.95)"
        assert replace(cfg, p=3).sector_phases().tolist() == other.sector_phases().tolist()

    def test_numpy_integers_are_stored_as_ints(self):
        cfg = KernelConfig(n=np.int64(4), p=np.int32(2))
        assert (type(cfg.n), type(cfg.p)) == (int, int)
        assert cfg == KernelConfig(n=4, p=2)
