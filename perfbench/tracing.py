"""Traced run: per-layer spans and counters, recorded from the benchmark's side.

Spans are kept in memory and written to ``perfbench/out`` at the end.  Each
span is (name, start_ns, end_ns, parent, op).  The library is not edited or
patched: each op is called once as in the timed run, and then the lower-layer
primitives it uses are replayed on the same arguments, so a layer's self
time is measured (op time minus the replayed primitives) rather than
guessed.  Replays follow the library's present call structure:

* closed:   pair_invariants(x, y) and principal_pow(w, e) per pair;
* series:   pair_invariants(x, y) and zonal_values(t, M, n) per pair;
* cubature: zonal_values(t_nodes, m_top, n) per sector for the kernel
            sections, and eval_at_phase(u, phase, r * nodes) per radial
            node and sector.

Counts come from a fixed number of ops at the head of each pool, so they
repeat exactly for one seed.  Every traced run covers all four workloads, so
it reports every per-layer metric; the named workload is also run untraced
for half of ``seconds`` to give the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time

import numpy as np

import run
import workloads

# rounds traced per workload (a round holds one op per combination)
TRACED_ROUNDS = {"closed": 60, "series": 3, "cubature": 2, "cli": 2}
PROBE_REPEATS = 3
INTERPRETER_REPEATS = 5


class Tracer:
    def __init__(self):
        self.spans = []

    def open(self, name, op, parent=None):
        self.spans.append([name, time.perf_counter_ns(), 0, parent, op])
        return len(self.spans) - 1

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter_ns()

    def call(self, name, op, parent, fn, *args):
        idx = self.open(name, op, parent)
        try:
            return fn(*args)
        finally:
            self.close(idx)

    def per_op(self, name, workload):
        """{op: summed duration in ns} of the spans called ``name`` in the
        pass over ``workload``; passes share span names (the recurrence, the
        pair invariants), so each metric keeps to its own pass."""
        out = {}
        for span_name, start, end, _, op in self.spans:
            if span_name == name and op[0] == workload:
                out[op] = out.get(op, 0) + end - start
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")


def _median(values, scale=1.0):
    values = list(values)
    return statistics.median(values) * scale if values else 0.0


def _share(part: dict, whole: dict):
    total = sum(whole.values())
    return sum(part.get(op, 0) for op in whole) / total if total else 0.0


class Pass:
    """One traced pass: runs ops with a root span each and keeps outputs."""

    def __init__(self, tracer, workload, ops):
        self.tracer = tracer
        self.workload = workload
        self.ops = ops
        self.outputs = []
        self.errors = {}
        self.wall_s = 0.0

    def run(self, body):
        start = time.perf_counter()
        for k, op in enumerate(self.ops):
            root = self.tracer.open(f"{self.workload}.op", (self.workload, k))
            try:
                self.outputs.append(body(self.tracer, (self.workload, k), root, op))
            except Exception as exc:  # counted as a failed op
                self.outputs.append(None)
                self.errors[k] = f"{type(exc).__name__}: {exc}"
            self.tracer.close(root)
        self.wall_s = time.perf_counter() - start
        return self


# -------------------------------------------------------------- closed


def _closed_body(pb):
    def body(tr, k, root, op):
        name = "kernels.decomposed" if op.kind == "bergman_decomposed" else "kernels.closed"
        out = tr.call(name, k, root, op.fn, *op.args)
        cfg, x, y = op.args
        inv = tr.call("core.pair_invariants", k, root, pb.pair_invariants, x, y)
        if op.kind != "bergman_decomposed":
            e = 0.5 * cfg.n + (1.0 if op.kind == "bergman" else 0.0)
            tr.call("core.principal_pow", k, root, pb.principal_pow, inv.w, e, cfg.eps_branch)
        return out

    return body


def _closed_metrics(tr):
    closed = tr.per_op("kernels.closed", "closed")
    inv = tr.per_op("core.pair_invariants", "closed")
    pow_ = tr.per_op("core.principal_pow", "closed")
    core = {op: v for op, v in inv.items() if op in closed}
    for op, v in pow_.items():
        core[op] = core.get(op, 0) + v
    return {
        "closed.core.pair_invariants.us": (_median(inv.values(), 1e-3), "us"),
        "closed.core.principal_pow.us": (_median(pow_.values(), 1e-3), "us"),
        "closed.core.busy_share": (_share(core, closed), "ratio"),
        "closed.kernels.closed.us": (_median(closed.values(), 1e-3), "us"),
        "closed.kernels.decomposed.us": (
            _median(tr.per_op("kernels.decomposed", "closed").values(), 1e-3), "us"),
    }


# -------------------------------------------------------------- series


def _series_reference(pb, cfg, x, y, kind, rho):
    """Closed form where one exists, else the series at a 1000x tighter tol."""
    if kind == "poisson":
        return pb.poisson(cfg, x, y)
    if kind == "bergman" or (cfg.alpha == 0.0 and cfg.beta == 0.0):
        return pb.bergman(cfg, x, y)
    fine = pb.make_truncation(cfg, rho, workloads.TOL * 1e-3, "weighted")
    return pb.weighted_bergman_series(cfg, x, y, fine)


def _useful_degree(pb, series, cfg, x, y, degree, ref):
    """Smallest degree whose partial sum meets tol against ref (bisection)."""
    lo, hi = 0, degree
    while lo < hi:
        mid = (lo + hi) // 2
        trunc = pb.Truncation(max_degree=mid, tol=workloads.TOL, calibrated_C=1.0)
        if abs(series(cfg, x, y, trunc) - ref) <= workloads.TOL:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _series_body(pb, counts):
    from polybergman.zonal import zonal_values

    def body(tr, k, root, op):
        make_truncation, series, cfg, x, y, rho, kind = op.args
        trunc = tr.call("kernels.truncation", k, root, make_truncation, cfg, rho, workloads.TOL, kind)
        value = tr.call("kernels.series", k, root, series, cfg, x, y, trunc)
        degree = trunc.max_degree
        tr.call("core.pair_invariants", k, root, pb.pair_invariants, x, y)
        rx, ry = x.radius, y.radius
        if rx > 0.0 and ry > 0.0:
            t = float(np.clip(float(x.coords @ y.coords) / (rx * ry), -1.0, 1.0))
            tr.call("zonal.zonal_values", k, root, zonal_values, t, degree, cfg.n)
            counts["calls"] += 1
            counts["values"] += degree + 1
        counts["degrees"].append(degree)
        return value, degree

    return body


def _useful_ratio(pb, ops, outputs):
    """Useful over chosen truncation degree, summed over the pass; computed
    after the pass so that it does not count as tracing overhead."""
    useful = chosen = 0
    for op, out in zip(ops, outputs):
        if out is None:
            continue
        _, series, cfg, x, y, rho, kind = op.args
        ref = _series_reference(pb, cfg, x, y, kind, rho)
        useful += _useful_degree(pb, series, cfg, x, y, out[1], ref)
        chosen += out[1]
    return useful / max(1, chosen)


def _series_metrics(tr, counts, probes):
    series = tr.per_op("kernels.series", "series")
    trunc = tr.per_op("kernels.truncation", "series")
    inv = tr.per_op("core.pair_invariants", "series")
    zonal = tr.per_op("zonal.zonal_values", "series")
    ops_total = {op: series[op] + trunc[op] for op in series}
    degrees = counts["degrees"]
    return {
        "series.core.pair_invariants.us": (_median(inv.values(), 1e-3), "us"),
        "series.core.busy_share": (_share(inv, ops_total), "ratio"),
        "series.zonal.recurrence.ns_per_value": (
            sum(zonal.values()) / max(1, counts["values"]), "ns"),
        "series.zonal.recurrence.values": (counts["values"], "count"),
        "series.zonal.recurrence.calls": (counts["calls"], "count"),
        "series.kernels.truncation.us": (_median(trunc.values(), 1e-3), "us"),
        "series.kernels.truncation.degree_mean": (sum(degrees) / len(degrees), "degree"),
        "series.kernels.truncation.degree_max": (max(degrees), "degree"),
        "series.kernels.series.us": (_median(series.values(), 1e-3), "us"),
        "series.kernels.series.self_us": (
            _median((series[op] - inv.get(op, 0) - zonal.get(op, 0) for op in series), 1e-3), "us"),
        "series.kernels.calibration_s": (min(p["work_s"] for p in probes), "s"),
    }


# ------------------------------------------------------------ cubature


def _cubature_body(pb, counts):
    from polybergman.polyspace import eval_at_phase
    from polybergman.zonal import zonal_values

    def replay_evals(tr, k, root, cfg, polys, rule):
        nodes = rule.sphere.nodes
        for j in range(cfg.p):
            phase = cfg.sector_phase(j)
            for r in rule.radial.nodes:
                pts = r * nodes
                for u in polys:
                    tr.call("polyspace.eval_at_phase", k, root, eval_at_phase, u, phase, pts)
                    counts["evals"] += 1
                    counts["eval_nodes"] += nodes.shape[0]
        counts["nodes"] += cfg.p * rule.radial.nodes.size * nodes.shape[0]
        counts["cubature_ops"] += 1

    def body(tr, k, root, op):
        if op.kind == "mean_value_eval":
            return tr.call("polyspace.mean_value", k, root, op.fn, *op.args)
        out = tr.call(f"quadrature.{op.kind}", k, root, op.fn, *op.args)
        if op.kind == "inner_product_ball":
            cfg, _, _, f, g, rule = op.args
            replay_evals(tr, k, root, cfg, (f, g), rule)
            return out
        cfg, _, _, u, x, m_top, rule = op.args
        nodes = rule.sphere.nodes
        rx = x.radius
        if rx > 0.0:
            t = np.clip(nodes @ (x.coords / rx), -1.0, 1.0)
            for _ in range(cfg.p):
                tr.call("zonal.zonal_values", k, root, zonal_values, t, m_top, cfg.n)
                counts["calls"] += 1
                counts["values"] += (m_top + 1) * nodes.shape[0]
        replay_evals(tr, k, root, cfg, (u,), rule)
        return out

    return body


def _cubature_metrics(tr, counts, probes):
    reproduce = tr.per_op("quadrature.reproduce", "cubature")
    inner = tr.per_op("quadrature.inner_product_ball", "cubature")
    mean_value = tr.per_op("polyspace.mean_value", "cubature")
    ops = dict(reproduce)
    ops.update(inner)
    evals = tr.per_op("polyspace.eval_at_phase", "cubature")
    zonal = tr.per_op("zonal.zonal_values", "cubature")
    lower = dict(evals)
    for op, v in zonal.items():
        lower[op] = lower.get(op, 0) + v
    return {
        "cubature.zonal.recurrence.ns_per_value": (sum(zonal.values()) / max(1, counts["values"]), "ns"),
        "cubature.zonal.recurrence.values": (counts["values"], "count"),
        "cubature.zonal.recurrence.calls": (counts["calls"], "count"),
        "cubature.polyspace.eval_at_phase.ns_per_node": (
            sum(evals.values()) / max(1, counts["eval_nodes"]), "ns"),
        "cubature.polyspace.eval_at_phase.calls": (counts["evals"], "count"),
        "cubature.polyspace.busy_share": (_share(evals, ops), "ratio"),
        "cubature.polyspace.mean_value.ms": (_median(mean_value.values(), 1e-6), "ms"),
        "cubature.quadrature.reproduce.ms": (_median(reproduce.values(), 1e-6), "ms"),
        "cubature.quadrature.inner_product_ball.ms": (_median(inner.values(), 1e-6), "ms"),
        "cubature.quadrature.self_share": (1.0 - _share(lower, ops), "ratio"),
        "cubature.quadrature.nodes_per_op": (counts["nodes"] / max(1, counts["cubature_ops"]), "count"),
        "cubature.quadrature.rule_build_s": (min(p["work_s"] for p in probes), "s"),
    }


# ----------------------------------------------------------------- cli


def _cli_in_process(argv):
    from polybergman import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _cli_body(counts):
    def body(tr, k, root, op):
        command = op.kind.split(":")[0]
        out = tr.call(f"cli.{command}", k, root, _cli_in_process, op.args)
        if op.kind == "grid:bergman":
            counts["grid_rows"][k] = len(out[1].splitlines()) - 1
        return out

    return body


def _import_times():
    """(import polybergman, import scipy.special) cumulative seconds from
    ``-X importtime``."""
    proc = run.run_child(["-X", "importtime", "-c", "import polybergman"])
    found = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            found[parts[2].strip()] = int(parts[1]) * 1e-6
    return found["polybergman"], found["scipy.special"]


def _cli_metrics(tr, counts, probes):
    interp = []
    for _ in range(INTERPRETER_REPEATS):
        start = time.perf_counter()
        run.run_child(["-c", "pass"])
        interp.append(time.perf_counter() - start)
    imports = [_import_times() for _ in range(PROBE_REPEATS)]
    grid = tr.per_op("cli.grid", "cli")
    # per row of the closed-form bergman grid: a wbergman row costs several
    # times more, and the two kinds together would read as the mean grid
    # time over the mean row count
    per_row = (grid[op] * 1e-3 / rows for op, rows in counts["grid_rows"].items())
    # set-up figures are the fastest of their repeats, as for setup_s
    return {
        "cli.interpreter_s": (min(interp), "s"),
        "cli.import_s": (min(i[0] for i in imports), "s"),
        "cli.import.scipy_special_s": (min(i[1] for i in imports), "s"),
        "cli.eval.ms": (_median(tr.per_op("cli.eval", "cli").values(), 1e-6), "ms"),
        "cli.grid.ms": (_median(grid.values(), 1e-6), "ms"),
        "cli.grid.us_per_row": (_median(per_row), "us"),
        "cli.kernels.calibration_s": (min(p["calibration_s"] for p in probes), "s"),
    }


# ----------------------------------------------------------------- run


def _throughput_untraced(workload, ops, seconds):
    """Wall-clock throughput of the timed loop, comparable with a traced
    pass's."""
    if workload == "cli":
        ops = run.cli_ops_as_calls(list(ops))
    loop = run.timed_loop(ops, seconds, workloads.ROUND[workload])
    return loop["calls"] / loop["elapsed_s"]


def traced_run(workload, seed, seconds):
    pb = run.import_library()
    probes = {w: run.setup_probes(w, PROBE_REPEATS) for w in ("series", "cubature", "cli")}
    stamp = run.env_stamp(pb)
    tracer = Tracer()
    metrics = {}
    passes = {}
    for w in run.WORKLOADS:
        state = workloads.prepare(w, pb)
        size = TRACED_ROUNDS[w] * workloads.ROUND[w]
        if w == "cli":  # two rounds, longer than the timed pool of one
            ops = workloads.cli_pool(pb, workloads.rng_for(w, seed), size)
        else:
            ops = workloads.make_pool(w, pb, seed, state)[:size]
        counts = {"calls": 0, "values": 0, "degrees": [], "evals": 0,
                  "eval_nodes": 0, "nodes": 0, "cubature_ops": 0, "grid_rows": {}}
        if w == "closed":
            passes[w] = Pass(tracer, w, ops).run(_closed_body(pb))
            metrics.update(_closed_metrics(tracer))
        elif w == "series":
            passes[w] = Pass(tracer, w, ops).run(_series_body(pb, counts))
            metrics.update(_series_metrics(tracer, counts, probes[w]))
            metrics["series.kernels.truncation.useful_ratio"] = (
                _useful_ratio(pb, ops, passes[w].outputs), "ratio")
        elif w == "cubature":
            passes[w] = Pass(tracer, w, ops).run(_cubature_body(pb, counts))
            metrics.update(_cubature_metrics(tracer, counts, probes[w]))
        else:
            passes[w] = Pass(tracer, w, ops).run(_cli_body(counts))
            metrics.update(_cli_metrics(tracer, counts, probes[w]))
        if w == workload:
            untraced = _throughput_untraced(w, workloads.make_pool(w, pb, seed, state), seconds / 2)
            traced_ops = passes[w]
    # the CLI pass runs in-process, so its overhead is measured on processes
    if workload == "cli":
        cli_ops = run.cli_ops_as_calls(workloads.make_pool("cli", pb, seed, None)[: workloads.ROUND["cli"]])
        traced_ops = Pass(tracer, "cli.process", cli_ops).run(
            lambda tr, k, root, op: tr.call("cli.process", k, root, op.fn, *op.args))
        passes["cli.process"] = traced_ops
    traced = len(traced_ops.ops) / traced_ops.wall_s
    metrics["trace.throughput_ratio"] = (traced / untraced, "ratio")

    attempted = failed = 0
    failures = []
    for name, ps in passes.items():
        found, _ = run.check_outputs(ps.ops, ps.outputs, ps.errors, set())
        attempted += len(ps.ops)
        failed += len(found)
        failures += [dict(ps.ops[j].inputs, op=ps.ops[j].kind, why=why) for j, why in found.items()]
    run.OUT.mkdir(exist_ok=True)
    spans_path = run.OUT / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(spans_path)
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "traced_ops": {name: len(ps.ops) for name, ps in passes.items()},
        "throughput_traced": traced,
        "throughput_untraced": untraced,
        "spans": str(spans_path.relative_to(run.ROOT)),
        "span_count": len(tracer.spans),
        "selftest_passed": run.self_test(passes["closed"].ops, passes["closed"].outputs,
                                         workloads.corrupt),
        "failures": failures[:20],
        "setup_probes": probes,
        "env": stamp,
    }
    return metrics, report
