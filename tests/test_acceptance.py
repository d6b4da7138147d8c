"""Acceptance criteria, one test per criterion, each printing a summary line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the suite sweeps dimensions 2..5 and orders 1..3 with 200 seeded
point pairs (sector phases, radii <= 0.7) unless a criterion states
otherwise.
"""

import numpy as np
from numpy.testing import assert_allclose

from polybergman import (
    build_radial_rule,
    build_sphere_rule,
    radial_moment,
    sphere_monomial_moment,
)
from polybergman.verify import (
    suite_bergman_series,
    suite_decomposition,
    suite_derivative_form,
    suite_growth,
    suite_mean_value,
    suite_orthogonality,
    suite_poisson_series,
    suite_reproduce,
    suite_weighted,
    suite_zonal_reproduce,
)


def _announce(idx, name, report):
    status = "PASS" if report["pass"] else "FAIL"
    print(
        f"[acceptance {idx}] {name}: {status} "
        f"(cases={report['cases']}, max_abs_err={report['max_abs_err']:.3e}, "
        f"max_rel_err={report['max_rel_err']:.3e}, tolerance={report['tolerance']:.1e})"
    )
    assert report["pass"], f"criterion {idx} ({name}) failed: {report}"
    assert report[report["bounds"]] <= report["tolerance"]


def test_criterion_1_poisson_series_identity():
    _announce(1, "poisson series vs closed form", suite_poisson_series(seed=42, cases=200))


def test_criterion_2_bergman_series_vs_closed_form():
    _announce(2, "bergman series vs closed form", suite_bergman_series(seed=42, cases=200))


def test_criterion_3_decomposition_identity():
    _announce(3, "harmonic-kernel decomposition", suite_decomposition(seed=42, cases=200))


def test_criterion_4_weighted_identities():
    _announce(4, "weighted series vs decomposition", suite_weighted(seed=42, cases=200))


def test_criterion_5_derivative_form():
    _announce(5, "derivative form vs weighted series", suite_derivative_form(seed=42, cases=200))


def test_criterion_6_reproducing_property():
    _announce(6, "reproducing integral", suite_reproduce(seed=42, cases=50))


def test_criterion_7_zonal_reproduction_and_orthogonality():
    _announce(7, "zonal sphere reproduction", suite_zonal_reproduce(seed=42))
    _announce(7, "cross-degree orthogonality", suite_orthogonality(seed=42))


def test_criterion_8_mean_value_formula():
    _announce(8, "rotated mean-value formula", suite_mean_value(seed=42, cases=50))


def test_criterion_9_growth_bound_sanity():
    _announce(9, "proven zonal growth bound |Z^p_m| <= D_p(m) (|x||y|)^m", suite_growth(seed=42))


def test_criterion_10_quadrature_self_tests():
    max_sphere_err = 0.0
    rng = np.random.default_rng(42)
    for n in (2, 3, 4, 5):
        rule = build_sphere_rule(n, 10)
        for _ in range(40):
            kappa = rng.multinomial(int(rng.integers(0, 11)), np.ones(n) / n)
            got = float(np.sum(rule.weights * np.prod(rule.nodes**kappa, axis=1)))
            max_sphere_err = max(max_sphere_err, abs(got - sphere_monomial_moment(kappa)))

    max_radial_err = 0.0
    for n, alpha, beta in [(2, 0.0, 0.0), (3, 1.0, 0.5), (4, -0.5, 2.0), (5, 0.0, 0.0)]:
        rule = build_radial_rule(n, alpha, beta, 24)
        for m in range(21):
            got = float(np.sum(rule.weights * rule.nodes ** (2 * m)))
            max_radial_err = max(max_radial_err, abs(got - radial_moment(n, m, alpha, beta)))

    ok = max_sphere_err <= 1e-12 and max_radial_err <= 1e-12
    print(
        f"[acceptance 10] quadrature self-tests: {'PASS' if ok else 'FAIL'} "
        f"(sphere_monomial_err={max_sphere_err:.3e}, radial_gamma_err={max_radial_err:.3e}, "
        f"tolerance=1.0e-12)"
    )
    assert max_sphere_err <= 1e-12
    assert max_radial_err <= 1e-12
