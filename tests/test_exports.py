import ast
import inspect
from pathlib import Path

import polybergman


def _names_bound_by_init():
    """Public names that polybergman/__init__.py imports or assigns."""
    tree = ast.parse(Path(polybergman.__file__).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_all_lists_exactly_the_bound_public_names():
    assert len(polybergman.__all__) == len(set(polybergman.__all__))
    assert set(polybergman.__all__) == _names_bound_by_init()


def test_every_exported_name_resolves():
    for name in polybergman.__all__:
        assert hasattr(polybergman, name), name


def _parameters(fn):
    return list(inspect.signature(fn).parameters)


def test_names_the_benchmark_calls_keep_their_signatures():
    # perfbench calls these positionally or by keyword; a renamed or
    # reordered parameter would fail its traced run
    from polybergman import polyspace, zonal

    assert _parameters(polybergman.principal_pow) == ["w", "e", "eps_branch"]
    assert _parameters(polybergman.pair_invariants) == ["x", "y"]
    assert _parameters(polybergman.calibrated_constant) == ["cfg"]
    assert _parameters(polybergman.Truncation) == ["max_degree", "tol", "calibrated_C"]
    # workloads.series_op calls these positionally
    assert _parameters(polybergman.make_truncation) == ["cfg", "r", "tol", "kind"]
    for series in (polybergman.poisson_series, polybergman.bergman_series, polybergman.weighted_bergman_series):
        assert _parameters(series) == ["cfg", "x", "y", "trunc"], series.__name__
    assert _parameters(zonal.zonal_values) == ["t", "m_max", "n"]
    assert len(_parameters(polyspace.eval_at_phase)) == 3  # (polynomial, phase, coords)
    assert isinstance(polybergman.BACKEND_NAME, str) and polybergman.BACKEND_NAME == zonal.BACKEND_NAME
    assert isinstance(polybergman.KernelConfig.eps_branch, float)


def test_the_half_rule_and_polyspace_privates_stay_in_their_modules():
    # quadrature alone reads the antipodal half of a sphere rule, and no
    # module reaches into polyspace for a private name
    for path in sorted(Path(polybergman.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("half_nodes", "half_weights"):
                assert path.stem == "quadrature", (path.name, node.lineno, node.attr)
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "polyspace":
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, (path.name, node.lineno, private)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "polyspace":
                assert not node.attr.startswith("_"), (path.name, node.lineno, node.attr)


def test_only_the_factor_producer_runs_a_recurrence_in_quadrature():
    # every cubature op but a sector-orthogonal inner product, which runs
    # none, runs one zonal recurrence, in _stacked_factors, on cosines of
    # checked unit vectors: zonal._zonal_rows, looked up on the module so
    # that a monkeypatch of it counts the op's recurrences; any other
    # reference to a recurrence entry point in quadrature would be a second
    # one per op, or a second check of the cosines
    recurrences = {"zonal_values", "_zonal_rows", "_zonal_iter", "zonal_poly_sum"}
    tree = ast.parse(Path(polybergman.__file__).with_name("quadrature.py").read_text())
    calls = []
    for top in tree.body:
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name in recurrences:
                owner = getattr(top, "name", None)
                assert owner == "_stacked_factors", (owner, node.lineno, name)
                calls.append(name)
    assert calls == ["_zonal_rows"]


# integer-keyed memos may stay unbounded: their keys are few
UNBOUNDED_MEMOS = {
    "sphere_area",
    "_sector_phases",
    "_calibrated_constant",
    "_sphere_rule",
}


def _memo_bound(deco):
    """maxsize of an lru_cache or cache decorator node (None: unbounded),
    or False for any other decorator."""
    call = deco.func if isinstance(deco, ast.Call) else deco
    name = call.id if isinstance(call, ast.Name) else getattr(call, "attr", None)
    if name == "cache":
        return None
    if name != "lru_cache":
        return False
    if not isinstance(deco, ast.Call):
        return 128  # functools' default
    args = [k.value for k in deco.keywords if k.arg == "maxsize"] + deco.args[:1]
    return ast.literal_eval(args[0]) if args else 128


def test_every_memo_is_bounded_or_integer_keyed():
    # a new memo keyed by floats grows without limit under a sweep of its
    # arguments unless it has a finite maxsize
    found = {}
    for path in sorted(Path(polybergman.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                for bound in map(_memo_bound, node.decorator_list):
                    if bound is not False:
                        found[node.name] = bound
                        assert bound is not None or node.name in UNBOUNDED_MEMOS, (path.name, node.lineno, node.name)
    assert UNBOUNDED_MEMOS <= set(found), UNBOUNDED_MEMOS - set(found)
    assert found["_radial_rule"] == 128 and found["_degree_table"] == 64
    # the benchmark's series pool and its checks fill 48 and 66 entries,
    # and the ten verify suites after them take the two to 60 and 102
    assert found["_weight_table"] == found["_tail_terms"] == 128
