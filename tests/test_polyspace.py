import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from polybergman import (
    KernelConfig,
    PolyharmonicPolynomial,
    ZonalBlock,
    build_sphere_rule,
    evaluate,
    from_json,
    laplacian_power_residual,
    make_rotated_point,
    mean_value_eval,
    random_homogeneous,
    random_polyharmonic,
    to_json,
)
from polybergman import polyspace, quadrature, zonal
from polybergman.polyspace import eval_at_phase, eval_complex
from polybergman.zonal import _zonal_rows


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def polar_grid(q, phases, radii, unit_nodes):
    """q at the polar grid e^{i phases_k} radii_i unit_j, shape (K, I, J),
    contracted here from its separable factors: a block of degree
    D = d + 2k is coeff e^{i D phases_k} radii_i^D times its zonal row
    (_stacked_factors)."""
    zon = quadrature._stacked_factors(unit_nodes, (q,))[0]
    deg = q.d + 2 * q.k
    rot = q.coeff[:, None] * np.exp(1j * (deg[:, None] * np.asarray(phases, dtype=float)))
    rad = np.asarray(radii, dtype=float)[None, :] ** deg[:, None]
    return np.einsum("bk,bi,bj->kij", rot, rad, zon)


def monomial_ball_control(n, p):
    """|x|^(2p): annihilated by Delta^(p+1) but not by Delta^p."""
    pole = np.zeros(n)
    pole[0] = 1.0
    pole.flags.writeable = False
    block = ZonalBlock(k=p, d=0, pole=pole, coeff=1.0 + 0.0j)
    return PolyharmonicPolynomial(blocks=(block,), n=n, p=p + 1)


class TestGenerator:
    def test_deterministic(self):
        cfg = KernelConfig(n=3, p=2)
        a = random_polyharmonic(cfg, 6, blocks=5, seed=99)
        b = random_polyharmonic(cfg, 6, blocks=5, seed=99)
        assert to_json(a) == to_json(b)

    def test_harmonic_order_has_no_radial_factors(self):
        cfg = KernelConfig(n=3, p=1)
        q = random_polyharmonic(cfg, 8, blocks=12, seed=1)
        assert all(b.k == 0 for b in q.blocks)

    def test_single_constant_block(self):
        cfg = KernelConfig(n=2, p=1)
        q = random_polyharmonic(cfg, 0, blocks=1, seed=5)
        assert q.degree == 0
        rng = np.random.default_rng(0)
        vals = [
            evaluate(q, make_rotated_point(rng.uniform(-3, 3), rng.uniform(-0.5, 0.5, 2)))
            for _ in range(5)
        ]
        assert max(abs(v - vals[0]) for v in vals) == 0.0

    def test_degree_bound_and_order_bound(self):
        for p in (1, 2, 3):
            cfg = KernelConfig(n=3, p=p)
            q = random_polyharmonic(cfg, 6, blocks=20, seed=p)
            assert q.degree <= 6
            assert all(b.k < p for b in q.blocks)

    def test_homogeneous_generator(self):
        cfg = KernelConfig(n=3, p=3)
        for m in range(0, 9):
            q = random_homogeneous(cfg, m, blocks=5, seed=m)
            assert all(b.degree == m for b in q.blocks)

    @pytest.mark.parametrize("homogeneous", [False, True])
    def test_draw_order_is_pinned(self, homogeneous):
        # the seed -> polynomial map every verify suite depends on: k, then d
        # (unless homogeneous), then the pole, then the coefficient, per block
        for n, p, degree, seed in [(2, 1, 0, 3), (3, 2, 6, 11), (4, 3, 7, 42)]:
            cfg = KernelConfig(n=n, p=p)
            rng = np.random.default_rng(seed)
            want = []
            for _ in range(5):
                k = int(rng.integers(0, min(p - 1, degree // 2) + 1))
                d = degree - 2 * k if homogeneous else int(rng.integers(0, degree - 2 * k + 1))
                pole = rng.normal(size=n)
                pole /= np.linalg.norm(pole)
                coeff = complex(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
                want.append((k, d, pole.tolist(), coeff))
            gen = random_homogeneous if homogeneous else random_polyharmonic
            got = gen(cfg, degree, 5, seed)
            assert [(b.k, b.d, b.pole.tolist(), b.coeff) for b in got.blocks] == want


class TestEvaluate:
    def test_constant_block(self):
        pole = unit([1.0, 1.0, 0.0])
        pole.flags.writeable = False
        q = PolyharmonicPolynomial(
            blocks=(ZonalBlock(k=0, d=0, pole=pole, coeff=2.5 - 1.0j),), n=3, p=1
        )
        x = make_rotated_point(1.1, (0.3, 0.2, 0.1))
        assert evaluate(q, x) == 2.5 - 1.0j

    def test_homogeneity_of_homogeneous_parts(self):
        cfg = KernelConfig(n=3, p=2)
        q = random_homogeneous(cfg, 5, blocks=4, seed=3)
        x = make_rotated_point(math.pi / 2, (0.5, 0.2, -0.3))
        base = evaluate(q, x)
        for t in (0.0, 0.25, 0.8, 1.0):
            assert abs(evaluate(q, make_rotated_point(x.phase, t * x.coords)) - t**5 * base) <= 1e-12 * max(1.0, abs(base))

    def test_sector_phase_rule(self):
        for p in (1, 2, 3):
            cfg = KernelConfig(n=3, p=p)
            for m in (0, 1, 4, 7):
                q = random_homogeneous(cfg, m, blocks=4, seed=10 * p + m)
                a = np.array([0.4, -0.2, 0.1])
                v0 = evaluate(q, make_rotated_point(0.0, a))
                v1 = evaluate(q, make_rotated_point(math.pi / p, a))
                want = np.exp(1j * m * math.pi / p) * v0
                assert abs(v1 - want) <= 1e-13 * max(1.0, abs(v0))

    def test_complex_route_matches_phase_route(self):
        cfg = KernelConfig(n=4, p=3)
        q = random_polyharmonic(cfg, 7, blocks=8, seed=8)
        rng = np.random.default_rng(2)
        for _ in range(20):
            phase = rng.uniform(-math.pi, math.pi)
            a = rng.uniform(-0.6, 0.6, 4)
            via_phase = evaluate(q, make_rotated_point(phase, a))
            via_complex = eval_complex(q, (np.exp(1j * phase) * a)[None, :])[0]
            assert abs(via_phase - via_complex) <= 1e-12 * max(1.0, abs(via_phase))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_complex_route_matches_block_by_block_sum(self, n):
        # general complex vectors, not only rotated points: every block's
        # own recurrence at s = z.pole, b = z.z, summed one block at a time;
        # degree-0 blocks (z_0 = 1) at every radial index
        cfg = KernelConfig(n=n, p=3)
        q = random_polyharmonic(cfg, 7, blocks=8, seed=n)
        pole = unit(np.arange(1.0, n + 1))
        const = tuple(ZonalBlock(k=k, d=0, pole=pole, coeff=0.5 - 0.25j * k) for k in range(3))
        q = PolyharmonicPolynomial(blocks=q.blocks + const, n=n, p=3)
        rng = np.random.default_rng(n)
        z = rng.uniform(-0.5, 0.5, (30, n)) + 1j * rng.uniform(-0.5, 0.5, (30, n))
        bil = np.sum(z * z, axis=-1)
        want = sum(
            b.coeff * bil**b.k * _zonal_rows(z @ b.pole, bil, b.d, n)[b.d] for b in q.blocks
        )
        assert_allclose(eval_complex(q, z), want, rtol=1e-13, atol=1e-13)
        empty = PolyharmonicPolynomial(blocks=(), n=n, p=3)
        assert np.array_equal(eval_complex(empty, z), np.zeros(30, dtype=complex))

    def test_dimension_mismatch(self):
        cfg = KernelConfig(n=3, p=1)
        q = random_polyharmonic(cfg, 2, blocks=2, seed=0)
        with pytest.raises(ValueError):
            evaluate(q, make_rotated_point(0.0, (0.1, 0.2)))
        # two 3-vector poles reshape to three 2-vectors: without the check
        # the polar grid factors were built on 2-d nodes
        nodes = np.array([[0.6, 0.8], [1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(ValueError, match="dimension mismatch"):
            quadrature._stacked_factors(nodes, (q,))
        with pytest.raises(ValueError, match="dimension mismatch"):
            eval_at_phase(q, 0.3, 0.5 * nodes)
        with pytest.raises(ValueError, match="dimension mismatch"):
            eval_at_phase(q, 0.3, np.ones((4, 4)))

    def test_complex_route_rejects_points_of_another_shape(self):
        q = random_polyharmonic(KernelConfig(n=3, p=2), 4, blocks=3, seed=0)
        for z in (np.ones(3), np.ones((5, 2)), np.ones((5, 4)), np.ones((2, 5, 3))):
            with pytest.raises(ValueError, match="dimension mismatch"):
                eval_complex(q, z)

    def test_complex_route_runs_each_block_to_its_own_degree(self, monkeypatch):
        cfg = KernelConfig(n=3, p=3)
        q = random_polyharmonic(cfg, 6, blocks=6, seed=42 + 71 * 3)
        rows = []

        def counted(*args):
            out = zonal._zonal_rows(*args)
            rows.append(len(out))
            return out

        monkeypatch.setattr(polyspace, "_zonal_rows", counted)
        eval_complex(q, np.ones((4, 3), dtype=complex))
        assert rows == [b.d + 1 for b in q.blocks]

    def test_complex_route_forms_no_degree_axis(self):
        # one call at the mean-value suite's 4056 points (n = 3, p = 3,
        # degree-50 sphere rule) peaks below half of one complex
        # (max_d + 1, points, blocks) array
        cfg = KernelConfig(n=3, p=3)
        q = random_polyharmonic(cfg, 6, blocks=6, seed=42 + 71 * 3)
        rot = np.exp(1j * cfg.sector_phases())[:, None, None]
        z = (0.6 * rot * build_sphere_rule(3, 50).nodes).reshape(-1, 3)
        eval_complex(q, z)
        tracemalloc.start()
        try:
            eval_complex(q, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        max_d = max(b.d for b in q.blocks)
        assert len(z) == 4056 and max_d == 6
        assert peak < 0.5 * (max_d + 1) * len(z) * len(q.blocks) * 16

    def test_origin_returns_the_constant_block_exactly(self):
        cfg = KernelConfig(n=3, p=3)
        others = random_polyharmonic(cfg, 6, blocks=8, seed=4).blocks
        const = ZonalBlock(k=0, d=0, pole=unit([0.0, 1.0, 1.0]), coeff=0.3 - 0.7j)
        q = PolyharmonicPolynomial(blocks=others + (const,), n=3, p=3)
        for phase in (0.0, 1.3, -2.9):
            assert evaluate(q, make_rotated_point(phase, np.zeros(3))) == 0.3 - 0.7j


class TestEvalPolar:
    """The zonal rows (_stacked_factors) times each block's phase and
    radius factors, contracted to values, against the point evaluator at
    every grid point."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_eval_at_phase_at_every_grid_point(self, n, p):
        cfg = KernelConfig(n=n, p=p)
        rng = np.random.default_rng(10 * n + p)
        unit_nodes = rng.normal(size=(7, n))
        unit_nodes /= np.linalg.norm(unit_nodes, axis=1)[:, None]
        phases = [cfg.sector_phase(k) for k in range(p)]
        radii = np.array([0.0, 0.25, 0.6, 1.0])
        const = ZonalBlock(k=0, d=0, pole=unit(rng.normal(size=n)), coeff=1.5 + 0.5j)
        polys = [
            PolyharmonicPolynomial(blocks=(), n=n, p=p),
            PolyharmonicPolynomial(blocks=(const,), n=n, p=p),
            random_polyharmonic(cfg, 7, blocks=6, seed=n + 7 * p),
        ]
        for q in polys:
            grid = polar_grid(q, phases, radii, unit_nodes)
            assert grid.shape == (p, radii.size, unit_nodes.shape[0])
            for k, phase in enumerate(phases):
                for i, r in enumerate(radii):
                    want = eval_complex(q, np.exp(1j * phase) * r * unit_nodes)
                    assert_allclose(grid[k, i], want, rtol=1e-13, atol=1e-14)


def stacked_factors_from_blocks(unit, polys, section=None):
    """_stacked_factors as it was built from the block tuples on every call:
    the reference for the polynomials' stored arrays."""
    unit = np.asarray(unit, dtype=float)
    blocks = [b for q in polys for b in q.blocks]
    degrees = [b.d for b in blocks]
    d = np.array(degrees, dtype=int)
    poles = [b.pole for b in blocks]
    top = max(degrees, default=0)
    if section is not None:
        m_top, p, x = section
        rx = x.radius
        poles.append(x.coords / rx if rx else np.zeros(x.coords.shape[0]))
        top = max(top, m_top)
    z = zonal.zonal_values(np.reshape(poles, (-1, unit.shape[1])) @ unit.T, top, unit.shape[1])
    zon = z[d, np.arange(d.size)]
    out, start = [], 0
    for q in polys:
        part = slice(start, start + len(q.blocks))
        out.append(zon[part])
        start = part.stop
    if section is not None:
        window = z[: m_top + 1, -1].copy()
        for k in range(1, p):
            window[2 * k :] += z[: m_top + 1 - 2 * k, -1]
        out.append(window)
    return out


class TestStoredArrays:
    """A polynomial stores its blocks' fields as read-only arrays, and the
    zonal factors read them with the same values, bit for bit, as the
    block-by-block construction."""

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_arrays_are_read_only_and_equal_to_the_block_fields(self, n):
        q = random_polyharmonic(KernelConfig(n=n, p=3), 7, blocks=5, seed=n)
        fields = {
            "k": [b.k for b in q.blocks],
            "d": [b.d for b in q.blocks],
            "degrees": [b.degree for b in q.blocks],
            "coeff": [b.coeff for b in q.blocks],
            "poles": [b.pole.tolist() for b in q.blocks],
        }
        for name, want in fields.items():
            array = getattr(q, name)
            assert not array.flags.writeable
            assert array.tolist() == want
        assert q.k.dtype.kind == q.d.dtype.kind == q.degrees.dtype.kind == "i"
        assert q.degree == max(q.degrees.tolist())
        assert q.coeff.dtype == complex and q.poles.dtype == float
        assert q.poles.shape == (5, n)
        with pytest.raises(ValueError):
            q.poles[0, 0] = 0.0

    def test_empty_polynomial_has_empty_arrays(self):
        q = PolyharmonicPolynomial(blocks=(), n=4, p=2)
        assert q.k.shape == q.d.shape == q.degrees.shape == q.coeff.shape == (0,)
        assert q.poles.shape == (0, 4)

    def test_arrays_do_not_take_part_in_equality_or_repr(self):
        q = random_polyharmonic(KernelConfig(n=3, p=2), 4, blocks=3, seed=1)
        same = PolyharmonicPolynomial(blocks=q.blocks, n=3, p=2)
        assert same == q and hash(same) == hash(q)
        assert "poles" not in repr(q) and "coeff=array" not in repr(q)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("with_section", [False, True])
    def test_factors_match_the_block_by_block_reference(self, n, p, with_section):
        cfg = KernelConfig(n=n, p=p)
        rng = np.random.default_rng(31 * n + p)
        nodes = rng.normal(size=(9, n))
        nodes /= np.linalg.norm(nodes, axis=1)[:, None]
        f = random_polyharmonic(cfg, 6, blocks=5, seed=n + p)
        g = random_polyharmonic(cfg, 5, blocks=3, seed=n + p + 50)
        empty = PolyharmonicPolynomial(blocks=(), n=n, p=p)
        section = None
        if with_section:
            section = (7, p, make_rotated_point(cfg.sector_phase(p - 1), 0.4 * unit(rng.normal(size=n))))
        cases = [(f,), (f, g), (empty,), (g, empty, f)]
        if with_section:
            cases.append(())
        for polys in cases:
            got = quadrature._stacked_factors(nodes, polys, section)
            want = stacked_factors_from_blocks(nodes, polys, section)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.dtype == b.dtype
                assert a.tobytes() == b.tobytes()

    def test_section_at_the_origin_matches_the_reference(self):
        cfg = KernelConfig(n=3, p=2)
        nodes = build_sphere_rule(3, 6).half_nodes
        f = random_polyharmonic(cfg, 4, blocks=3, seed=5)
        section = (3, 2, make_rotated_point(0.0, np.zeros(3)))
        got = quadrature._stacked_factors(nodes, (f,), section)
        want = stacked_factors_from_blocks(nodes, (f,), section)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


class TestLaplacianResidual:
    def test_constant_is_exact(self):
        cfg = KernelConfig(n=3, p=1)
        q = random_polyharmonic(cfg, 0, blocks=1, seed=0)
        x = make_rotated_point(0.0, (0.2, 0.1, 0.0))
        assert laplacian_power_residual(q, x) == 0.0
        # Delta^2 |x|^2 = 0: an order above half the degree is exactly zero
        assert laplacian_power_residual(monomial_ball_control(3, 1), x, order=2) == 0.0

    def test_negative_control_radial_square(self):
        # Delta |x|^2 = 2n exactly
        control = monomial_ball_control(3, 1)
        x = make_rotated_point(0.0, (0.2, 0.1, -0.3))
        got = laplacian_power_residual(control, x, order=1)
        assert_allclose(got, 6.0, rtol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_control_matches_closed_form_in_every_dimension(self, n, p):
        # Delta^p |x|^(2p) = 2^p p! n (n+2) ... (n+2p-2) at every point, up
        # to the edge of the ball and beyond n = 4
        control = monomial_ball_control(n, p)
        want = 2**p * math.factorial(p) * math.prod(n + 2 * i for i in range(p))
        rng = np.random.default_rng(10 * n + p)
        for radius in (0.0, 0.3, 0.99):
            x = make_rotated_point(0.0, radius * unit(rng.normal(size=n)))
            assert_allclose(laplacian_power_residual(control, x, order=p), want, rtol=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_generated_polynomials_separate_from_control(self, p):
        # Construction soundness: generated residuals of degree <= 8, exactly
        # 0 but for rounding, sit >= 1e9 below the order-p negative control
        # |x|^(2p) at the same points, n = 2..6
        for n in range(2, 7):
            cfg = KernelConfig(n=n, p=p)
            control = monomial_ball_control(n, p)
            rng = np.random.default_rng(100 * n + p)
            worst = 0.0
            control_worst = np.inf
            for i in range(10):
                q = random_polyharmonic(cfg, 8, blocks=8, seed=1000 * p + 10 * n + i)
                x = make_rotated_point(0.0, rng.uniform(0.05, 0.99) * unit(rng.normal(size=n)))
                worst = max(worst, laplacian_power_residual(q, x))
                control_worst = min(
                    control_worst, laplacian_power_residual(control, x, order=p)
                )
            assert worst * 1e9 <= control_worst, n

    def test_preconditions(self):
        cfg = KernelConfig(n=3, p=2)
        q = random_polyharmonic(cfg, 4, blocks=3, seed=0)
        with pytest.raises(ValueError):
            laplacian_power_residual(q, make_rotated_point(0.0, (0.1, 0, 0)), order=0)
        with pytest.raises(ValueError):
            laplacian_power_residual(q, make_rotated_point(0.4, (0.1, 0, 0)))

    @pytest.mark.parametrize("order", [0, -1, True, False, 1.5, 2.0, "2", 1j, np.float64(1.0)])
    def test_order_must_be_an_integer_of_at_least_one(self, order):
        # True was read as 1, and 1.5 raised IndexError
        q = random_polyharmonic(KernelConfig(n=3, p=2), 4, blocks=3, seed=0)
        with pytest.raises(ValueError, match="Laplacian power"):
            laplacian_power_residual(q, make_rotated_point(0.0, (0.1, 0, 0)), order=order)

    def test_numpy_integer_order_is_accepted(self):
        q = monomial_ball_control(3, 1)
        x = make_rotated_point(0.0, (0.2, 0.1, -0.3))
        assert laplacian_power_residual(q, x, order=np.int64(1)) == laplacian_power_residual(q, x, order=1)


class TestSerialization:
    def test_roundtrip_preserves_values(self):
        cfg = KernelConfig(n=3, p=2)
        q = random_polyharmonic(cfg, 6, blocks=6, seed=123)
        q2 = from_json(to_json(q))
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = make_rotated_point(rng.uniform(-3, 3), rng.uniform(-0.7, 0.7, 3))
            assert evaluate(q, x) == evaluate(q2, x)

    def test_roundtrip_copy_compares_and_hashes_by_identity(self):
        # blocks hold pole arrays: == and hash go by identity instead of
        # reaching them
        cfg = KernelConfig(n=3, p=2)
        q = random_polyharmonic(cfg, 4, blocks=3, seed=0)
        q2 = from_json(to_json(q))
        assert q == q and q != q2
        assert q.blocks[0] == q.blocks[0] and q.blocks[0] != q2.blocks[0]
        assert len({q, q2, q}) == 2
        assert len(set(q.blocks + q2.blocks + q.blocks)) == 6

    def test_schema_fields(self):
        import json

        cfg = KernelConfig(n=2, p=1)
        q = random_polyharmonic(cfg, 2, blocks=2, seed=1)
        data = json.loads(to_json(q))
        assert set(data) == {"n", "p", "blocks"}
        assert set(data["blocks"][0]) == {"k", "d", "pole", "coeff"}
        assert len(data["blocks"][0]["pole"]) == 2
        assert len(data["blocks"][0]["coeff"]) == 2

    @pytest.mark.parametrize("coeff", [["9", "0.5", "0.25"], ["0.5", "0.25", "junk"], ["0.5"], [], "0.5", 0.5, None])
    def test_from_json_rejects_a_coeff_that_is_not_two_entries(self, coeff):
        import json

        data = json.loads(to_json(random_polyharmonic(KernelConfig(n=3, p=2), 4, blocks=2, seed=7)))
        data["blocks"][1]["coeff"] = coeff
        with pytest.raises(ValueError, match="coeff"):
            from_json(json.dumps(data))


class TestIntegerFields:
    """Block indices, dimension and order go through core.check_integer,
    whether they come from code or from JSON."""

    POLE = np.array([1.0, 0.0, 0.0])

    @pytest.mark.parametrize("k, d", [(0.5, 1), (1, 2.9), (True, 1), (1, "2"), (-1, 0), (0, -1)])
    def test_block_rejects_non_integer_indices(self, k, d):
        with pytest.raises(ValueError):
            ZonalBlock(k=k, d=d, pole=self.POLE, coeff=1j)

    def test_block_stores_python_ints(self):
        block = ZonalBlock(k=np.int64(1), d=np.int32(2), pole=self.POLE, coeff=1j)
        assert type(block.k) is int and type(block.d) is int and block.degree == 4

    @pytest.mark.parametrize("n, p", [(3, 0), (1, 1), (3.0, 1), (3, 1.5), (True, 1), (3, True)])
    def test_polynomial_rejects_invalid_dimension_or_order(self, n, p):
        with pytest.raises(ValueError):
            PolyharmonicPolynomial(blocks=(), n=n, p=p)

    @pytest.mark.parametrize(
        "field, value", [("k", 1.7), ("d", 2.9), ("k", 1.0), ("d", "2"), ("p", 0), ("p", 2.0), ("n", 3.5)]
    )
    def test_from_json_rejects_non_integer_fields(self, field, value):
        import json

        data = json.loads(to_json(random_polyharmonic(KernelConfig(n=3, p=2), 4, blocks=2, seed=7)))
        if field in ("n", "p"):
            data["blocks"] = []  # no block whose pole or index could fail first
            data[field] = value
        else:
            data["blocks"][0][field] = value
        with pytest.raises(ValueError):
            from_json(json.dumps(data))


class TestBlockValues:
    """A block stores a read-only float copy of a real unit pole and a
    finite complex coefficient; a polynomial stores a tuple of blocks."""

    POLE = np.array([1.0, 0.0, 0.0])

    @pytest.mark.parametrize(
        "pole",
        [
            [np.nan, 0.0, 0.0],
            np.array([np.nan, 0.0, 0.0]),
            np.array([1.0 + 0j, 0.0, 0.0]),
            [1j, 0.0, 0.0],
            [[1.0, 0.0, 0.0]],
            np.eye(3)[:1],
            ["1", "0", "0"],
        ],
    )
    def test_block_rejects_a_pole_that_is_not_a_real_unit_vector(self, pole):
        with pytest.raises(ValueError):
            ZonalBlock(k=0, d=1, pole=pole, coeff=1j)

    @pytest.mark.parametrize("coeff", [math.nan, complex(1.0, math.inf), "1+2j", None, True, np.array([1.0, 2.0])])
    def test_block_rejects_a_non_numeric_or_non_finite_coefficient(self, coeff):
        with pytest.raises(ValueError):
            ZonalBlock(k=0, d=1, pole=self.POLE, coeff=coeff)

    def test_block_stores_a_read_only_float_pole_and_a_complex_coefficient(self):
        pole = np.array([0.6, 0.8, 0.0])
        block = ZonalBlock(k=0, d=2, pole=pole, coeff=np.float64(0.5))
        pole[:] = [1.0, 0.0, 0.0]  # the caller's vector, not the block's
        assert block.pole.tolist() == [0.6, 0.8, 0.0] and not block.pole.flags.writeable
        assert type(block.coeff) is complex and block.coeff == 0.5
        listed = ZonalBlock(k=0, d=2, pole=[0, 1, 0], coeff=2)
        assert listed.pole.dtype == float and type(listed.coeff) is complex
        q = PolyharmonicPolynomial(blocks=[block, listed], n=3, p=1)
        assert q.blocks == (block, listed)
        assert from_json(to_json(q)).blocks[0].coeff == 0.5

    def test_polynomial_rejects_blocks_that_are_not_zonal_blocks(self):
        with pytest.raises(ValueError):
            PolyharmonicPolynomial(blocks=((0, 1, self.POLE, 1j),), n=3, p=1)


class TestMeanValue:
    def test_constant_function_at_center(self):
        # at x = a every node weight collapses to 1: exact up to roundoff
        rule = build_sphere_rule(3, 20)
        for p in (1, 2, 3):
            cfg = KernelConfig(n=3, p=p)
            x = make_rotated_point(0.0, (0.0, 0.0, 0.0))
            got = mean_value_eval(cfg, lambda z: np.ones(z.shape[0], dtype=complex),
                                  np.zeros(3), 0.6, x, rule)
            assert abs(got - 1.0) <= 1e-14

    def test_constant_function_off_center(self):
        rule = build_sphere_rule(3, 44)
        for p in (1, 2, 3):
            cfg = KernelConfig(n=3, p=p)
            x = make_rotated_point(0.0, (0.2, 0.0, 0.0))
            got = mean_value_eval(cfg, lambda z: np.ones(z.shape[0], dtype=complex),
                                  np.zeros(3), 0.6, x, rule)
            assert abs(got - 1.0) <= 1e-12

    def test_matches_direct_evaluation_centered(self):
        rule = build_sphere_rule(3, 44)
        x = make_rotated_point(0.0, (0.2, 0.0, 0.0))
        for p in (1, 2, 3):
            cfg = KernelConfig(n=3, p=p)
            for seed in range(5):
                u = random_polyharmonic(cfg, 6, blocks=6, seed=seed)
                got = mean_value_eval(cfg, u, np.zeros(3), 0.6, x, rule)
                want = evaluate(u, x)
                assert abs(got - want) <= 1e-8 * (1.0 + abs(want))

    @pytest.mark.parametrize("r", [-0.6, 0.0, -0.0, math.nan, True, "0.6", 0.6j, None])
    def test_rejects_a_radius_that_is_not_a_positive_real(self, r):
        # r = -0.6 passes the ball and distance checks and returned -u(x)
        cfg = KernelConfig(n=3, p=2)
        rule = build_sphere_rule(3, 20)
        u = random_polyharmonic(cfg, 4, blocks=3, seed=1)
        x = make_rotated_point(0.0, (0.1, 0.0, 0.0))
        for a in (np.zeros(3), np.array([0.05, 0.0, 0.0])):
            with pytest.raises(ValueError, match="radius r"):
                mean_value_eval(cfg, u, a, r, x, rule)

    def test_centred_ball_makes_no_complex_evaluation(self, monkeypatch):
        def complex_route(*args):
            raise AssertionError("centred mean value took eval_complex")

        rule = build_sphere_rule(3, 20)
        cfg = KernelConfig(n=3, p=2)
        u = random_polyharmonic(cfg, 6, blocks=4, seed=3)
        x = make_rotated_point(0.0, (0.1, -0.2, 0.05))
        want = evaluate(u, x)  # evaluate is eval_complex: taken before the patch
        monkeypatch.setattr(quadrature, "eval_complex", complex_route)
        got = mean_value_eval(cfg, u, np.zeros(3), 0.6, x, rule)
        assert abs(got - want) <= 1e-8 * (1.0 + abs(want))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_centred_route_matches_complex_route(self, n, p):
        # the centred nodes r e^{ik pi/p} zeta_j as rotated points (the
        # polynomial route) against the same nodes as complex vectors
        # (eval_complex, which a callable u reaches)
        cfg = KernelConfig(n=n, p=p)
        rule = build_sphere_rule(n, 12)
        r = 0.6
        u = random_polyharmonic(cfg, 6, blocks=6, seed=10 * n + p)
        polar = polar_grid(u, cfg.sector_phases(), (r,), rule.nodes)[:, 0]
        rot = np.exp(1j * cfg.sector_phases())[:, None, None]
        pts = (r * rot * rule.nodes).reshape(-1, n)
        direct = eval_complex(u, pts).reshape(polar.shape)
        assert_allclose(polar, direct, rtol=1e-13, atol=1e-13 * np.max(np.abs(direct)))
        direction = unit(np.arange(1.0, n + 1))
        x = make_rotated_point(0.0, 0.25 * direction)
        got = mean_value_eval(cfg, u, np.zeros(n), r, x, rule)
        want = mean_value_eval(cfg, lambda z: eval_complex(u, z), np.zeros(n), r, x, rule)
        assert_allclose(got, want, rtol=1e-13)

    def test_harmonic_case_is_classical_poisson_integral(self):
        # single sector: the weight reduces to the textbook Poisson kernel
        rule = build_sphere_rule(3, 30)
        cfg = KernelConfig(n=3, p=1)
        u = random_polyharmonic(cfg, 4, blocks=4, seed=7)
        a = np.zeros(3)
        r = 0.5
        x = make_rotated_point(0.0, (0.15, -0.1, 0.05))
        d = x.coords
        direct = 0.0 + 0.0j
        for zeta, w in zip(rule.nodes, rule.weights):
            dist2 = float((d - r * zeta) @ (d - r * zeta))
            weight = (r * r - float(d @ d)) / (r ** (2 - 3) * dist2**1.5)
            direct += w * weight * eval_complex(u, (r * zeta)[None, :])[0]
        got = mean_value_eval(cfg, u, a, r, x, rule)
        assert abs(got - direct) <= 1e-12 * max(1.0, abs(direct))

    def test_off_center_ball_with_rotations(self):
        rule = build_sphere_rule(3, 44)
        a = np.array([0.2, -0.1, 0.05])
        r = 0.5
        for p in (2, 3):
            cfg = KernelConfig(n=3, p=p)
            u = random_polyharmonic(cfg, 5, blocks=5, seed=31 + p)
            x = make_rotated_point(0.0, a + np.array([0.1, 0.04, -0.06]))
            got = mean_value_eval(cfg, u, a, r, x, rule)
            want = evaluate(u, x)
            assert abs(got - want) <= 1e-8 * (1.0 + abs(want))

    @pytest.mark.parametrize("centre", [(math.nan, 0.0, 0.0), (0.0, math.nan, 0.1), (math.inf, 0.0, 0.0)])
    def test_rejects_a_centre_that_is_not_finite(self, centre):
        # a NaN centre passed both geometry checks and returned nan+nanj
        cfg = KernelConfig(n=3, p=2)
        u = random_polyharmonic(cfg, 4, blocks=3, seed=1)
        x = make_rotated_point(0.0, (0.1, 0.0, 0.0))
        with pytest.raises(ValueError, match="unit ball"):
            mean_value_eval(cfg, u, np.array(centre), 0.3, x, build_sphere_rule(3, 10))

    def test_geometry_violations(self):
        rule = build_sphere_rule(3, 10)
        cfg = KernelConfig(n=3, p=1)
        u = random_polyharmonic(cfg, 2, blocks=2, seed=0)
        with pytest.raises(ValueError):
            mean_value_eval(cfg, u, np.zeros(3), 1.1, make_rotated_point(0.0, (0.1, 0, 0)), rule)
        with pytest.raises(ValueError):
            mean_value_eval(cfg, u, np.zeros(3), 0.3, make_rotated_point(0.0, (0.5, 0, 0)), rule)
        with pytest.raises(ValueError):
            mean_value_eval(cfg, u, np.zeros(3), 0.3, make_rotated_point(0.4, (0.1, 0, 0)), rule)
