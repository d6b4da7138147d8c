"""Verify reports name their worst case, and that case re-runs from the
report's JSON line to the reported error, bit for bit."""

import json

import pytest

from polybergman import (
    KernelConfig,
    bergman,
    bergman_decomposed,
    bergman_series,
    derivative_form_check,
    make_rotated_point,
    make_truncation,
    poisson,
    poisson_series,
    weighted_bergman_decomposed,
    weighted_bergman_series,
)
from polybergman.verify import SUITES, run_suite


def _worst(suite, seed, cases):
    """The report as printed by the CLI, read back: (report, cfg, x, y, case)."""
    rep = json.loads(json.dumps(run_suite(suite, seed=seed, cases=cases)))
    case = rep["worst"]
    point = lambda rec: make_rotated_point(rec["phase"], rec["coords"])  # noqa: E731
    return rep, KernelConfig(**case["cfg"]), point(case["x"]), point(case["y"]), case


def _truncation(cfg, x, y, tol, kind, case):
    trunc = make_truncation(cfg, x.radius * y.radius, tol, kind)
    assert trunc.max_degree == case["degree"]
    return trunc


@pytest.mark.parametrize("seed", [1, 42])
@pytest.mark.parametrize(
    "suite, kind, closed_fn, series_fn, tol",
    [
        ("poisson_series", "poisson", poisson, poisson_series, 1e-10),
        ("bergman_series", "bergman", bergman, bergman_series, 1e-9),
    ],
)
def test_series_suites_worst_case_reproduces(seed, suite, kind, closed_fn, series_fn, tol):
    rep, cfg, x, y, case = _worst(suite, seed, 6)
    trunc = _truncation(cfg, x, y, tol, kind, case)
    assert abs(series_fn(cfg, x, y, trunc) - closed_fn(cfg, x, y)) == rep["max_abs_err"]


@pytest.mark.parametrize("seed", [1, 42])
def test_decomposition_worst_case_reproduces(seed):
    rep, cfg, x, y, _ = _worst("decomposition", seed, 6)
    assert rep["bounds"] == "max_rel_err"
    direct = bergman(cfg, x, y)
    assert abs(bergman_decomposed(cfg, x, y) - direct) / max(1e-300, abs(direct)) == rep["max_rel_err"]


@pytest.mark.parametrize("seed", [1, 42])
def test_weighted_worst_case_reproduces(seed):
    rep, cfg, x, y, case = _worst("weighted", seed, 12)
    trunc = _truncation(cfg, x, y, 1e-10, "weighted", case)
    series = weighted_bergman_series(cfg, x, y, trunc)
    other = weighted_bergman_decomposed(cfg, x, y, trunc) if case["check"] == "decomposed" else bergman(cfg, x, y)
    assert abs(series - other) == rep["max_abs_err"]


@pytest.mark.parametrize("seed", [1, 42])
def test_derivative_form_worst_case_reproduces(seed):
    rep, cfg, x, y, case = _worst("derivative_form", seed, 8)
    trunc = _truncation(cfg, x, y, 1e-12, "weighted", case)
    assert abs(derivative_form_check(cfg, x, y) - weighted_bergman_series(cfg, x, y, trunc)) == rep["max_abs_err"]


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_report_names_a_worst_case_with_its_config(suite):
    rep = run_suite(suite, cases=8)
    assert rep["cases"] > 0
    assert set(rep["worst"]["cfg"]) == {"n", "p", "alpha", "beta"}
    json.dumps(rep)


def test_a_report_that_checked_nothing_names_no_case():
    assert run_suite("mean_value", cases=0)["worst"] is None
