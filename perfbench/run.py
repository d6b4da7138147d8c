"""polybergman benchmark: one seeded workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload {closed,series,cubature,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from its
``src`` directory and nowhere else.  With ``--trace 0`` the run measures the
end-to-end metrics of the named workload; with ``--trace 1`` it makes the
traced run of ``tracing.py`` instead.  The loop cycles through a pool of
ops many times; the latency metrics are taken over the pool's ops, each at
its fastest call, and set-up is the fastest of eight fresh-interpreter
probes spread through the run.  Every op's output is checked against
the library's other route after the timed phase.  The last line of standard
output is the result object {correct, attempted, failed, metrics}; the full
report (witnesses, environment stamp, tail level) goes to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

# One caller in one thread: BLAS helper threads only spin on this 2-vCPU
# class of machine (arrays are at most ~2700 x 7), and a descheduled helper
# stalls the caller, so they are switched off before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("closed", "series", "cubature", "cli")
# Latency metrics are taken over the pool's ops, each at its best (fastest)
# call in the run: this machine class slows down in bursts of seconds, by up
# to 1.8x, and an op's best call is steadier across runs than its median
# call.  Pools are sized so that each op runs at least about eight times in
# 20 s.  Tail levels are fixed per workload so that a faster change is
# compared at the same level; each leaves at least ten ops of the pool
# beyond it (3600, 600 and 132 ops), except for cli: its pool is one op of
# each of the six kinds, and p80 is the cheaper of the two grid ops.
TAIL_LEVEL = {"closed": 99.7, "series": 98.0, "cubature": 92.0, "cli": 80.0}
# Set-up probes are spread through the timed phase, one after each slice,
# and the fastest is reported, for the same reason.
SETUP_PROBES = 8
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # rule builds must really run, not come from a user's cache
    env.pop("POLYBERGMAN_CACHE_DIR", None)
    return env


def run_child(argv, timeout=CHILD_TIMEOUT_S):
    """Run ``python <argv>`` from the checkout root and wait for it."""
    return subprocess.run([sys.executable] + list(argv), cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)


def import_library():
    """Import polybergman from this checkout's src, refusing any other copy."""
    if not (SRC / "polybergman" / "__init__.py").is_file():
        raise BenchError(f"no polybergman sources under {SRC}")
    os.environ.pop("POLYBERGMAN_CACHE_DIR", None)
    sys.path.insert(0, str(SRC))
    import polybergman

    if SRC not in Path(polybergman.__file__).resolve().parents:
        raise BenchError(f"imported polybergman from {polybergman.__file__}, not {SRC}")
    return polybergman


def setup_probe(workload):
    """One fresh-interpreter set-up timing (see setup_probe.py)."""
    proc = run_child([str(HERE / "setup_probe.py"), workload])
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    if SRC not in Path(rec["module"]).resolve().parents:
        raise BenchError(f"set-up probe imported {rec['module']}")
    return rec


def setup_probes(workload, repeats):
    """Back-to-back set-up probes; one warm-up probe is discarded so that
    bytecode compilation in a new checkout is not counted."""
    setup_probe(workload)
    return [setup_probe(workload) for _ in range(repeats)]


def env_stamp(pb) -> dict:
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "backend": pb.BACKEND_NAME,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def timed_loop(ops, seconds, round_size, slices=1, between=None):
    """Closed loop over the op pool for ``seconds``; one caller.

    The loop runs in ``slices`` slices of equal wall time and calls
    ``between()`` after each, outside the timing.  The last slice ends at
    the first round boundary after its time and after one whole pass over
    the pool, so every run holds whole rounds of the same mix and every op
    runs at least once.  Only the user's call sits between the two clock
    reads.  Returns a dict: ``best`` (each op's fastest call, ns), ``calls``,
    ``elapsed_s`` (the slices' wall time), ``slowest`` (ns, pool index of the
    slowest single call), ``outputs`` of the first pass, ``errors`` and
    ``mismatched`` (ops whose repeated output differs from the first).
    """
    pool = len(ops)
    calls = [(op.fn, op.args) for op in ops]
    best = [1 << 62] * pool
    outputs = [None] * pool
    errors = {}
    mismatched = set()
    clock = time.perf_counter_ns
    slice_ns = int(seconds * 1e9 / slices)
    slow = slow_j = 0
    elapsed = i = j = 0
    for s in range(slices):
        start = t1 = clock()
        deadline = start + slice_ns
        while t1 < deadline or (s + 1 == slices and (i % round_size or i < pool)):
            fn, args = calls[j]
            t0 = clock()
            try:
                out = fn(*args)
            except Exception as exc:  # counted as a failed op, never fatal
                out = None
                errors.setdefault(j, f"{type(exc).__name__}: {exc}")
            t1 = clock()
            dt = t1 - t0
            if dt < best[j]:
                best[j] = dt
            if dt > slow:
                slow, slow_j = dt, j
            if i < pool:
                outputs[j] = out
            elif out != outputs[j]:
                mismatched.add(j)
            i += 1
            j = j + 1 if j + 1 < pool else 0
        elapsed += t1 - start
        if between is not None:
            between()
    return {"best": np.array(best, dtype=np.int64), "calls": i, "elapsed_s": elapsed * 1e-9,
            "slowest": (slow, slow_j), "outputs": outputs, "errors": errors,
            "mismatched": mismatched}


def cli_call(argv):
    proc = run_child(["-m", "polybergman.cli"] + list(argv))
    return proc.returncode, proc.stdout


def cli_ops_as_calls(ops):
    for op in ops:
        op.fn, op.args = cli_call, (op.args,)
    return ops


def check_outputs(ops, outputs, errors, mismatched):
    """({pool index: why} for the failing entries, the worst-error entry as
    (error / tolerance, index, error, tolerance))."""
    failing = {}
    worst = (-1.0, None)
    for j, out in enumerate(outputs):
        if j in errors:
            failing[j] = errors[j]
            continue
        if out is None:
            continue
        try:
            err, tol = ops[j].check(out)
        except Exception as exc:
            failing[j] = f"check raised {type(exc).__name__}: {exc}"
            continue
        score = err / tol if tol > 0 else float("inf")
        if score > worst[0]:
            worst = (score, j, err, tol)
        if not score <= 1.0:
            failing[j] = f"error {err:.3g} above tolerance {tol:.3g}"
        elif j in mismatched:
            failing[j] = "repeated call returned a different output"
    return failing, worst


def self_test(ops, outputs, corrupt) -> bool:
    """A corrupted output of a passing op must be counted as a failure."""
    for j, out in enumerate(outputs):
        if out is None:
            continue
        err, tol = ops[j].check(out)
        if err > tol:
            continue
        bad_err, bad_tol = ops[j].check(corrupt(out))
        return not bad_err <= bad_tol
    return False


def latency_stats(best_ns, level):
    best_ms = best_ns * 1e-6
    tail = float(np.percentile(best_ms, level))
    return {
        "latency_p50_ms": float(np.median(best_ms)),
        "latency_tail_ms": tail,
        "tail_level": level,
        "tail_beyond": int(np.count_nonzero(best_ms > tail)),
        "ops": int(best_ms.size),
    }


def executions(j, count, pool):
    return count // pool + (1 if j < count % pool else 0)


def _witness(op, **extra):
    return dict(op.inputs, op=op.kind, **extra)


def measure(workload, seed, seconds):
    pb = import_library()
    stamp = env_stamp(pb)
    state = workloads.prepare(workload, pb)
    ops = workloads.make_pool(workload, pb, seed, state)
    if workload == "cli":
        cli_ops_as_calls(ops)
        rss_usage = resource.RUSAGE_CHILDREN
    else:
        rss_usage = resource.RUSAGE_SELF
        for op in ops[: workloads.ROUND[workload]]:
            op.fn(*op.args)
    setup_probe(workload)  # warm-up, discarded
    probes = []
    loop = timed_loop(ops, seconds, workloads.ROUND[workload], SETUP_PROBES,
                      lambda: probes.append(setup_probe(workload)))
    peak_rss_mb = resource.getrusage(rss_usage).ru_maxrss / 1024.0
    best, count, outputs = loop["best"], loop["calls"], loop["outputs"]
    failing, worst = check_outputs(ops, outputs, loop["errors"], loop["mismatched"])
    failed = sum(executions(j, count, len(ops)) for j in failing)
    stats = latency_stats(best, TAIL_LEVEL[workload])
    costliest = int(np.argmax(best))
    slow_ns, slow_j = loop["slowest"]
    metrics = {
        # closed-loop rate at each op's best call: pool size over their sum
        "throughput_ops_per_s": (len(ops) / (float(best.sum()) * 1e-9), "1/s"),
        "latency_p50_ms": (stats["latency_p50_ms"], "ms"),
        "latency_tail_ms": (stats["latency_tail_ms"], "ms"),
        "setup_s": (min(r["setup_s"] for r in probes), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "attempted": count,
        "failed": failed,
        "fail_ratio": failed / count,
        "elapsed_s": loop["elapsed_s"],
        "throughput_wall_ops_per_s": count / loop["elapsed_s"],
        "pool_size": len(ops),
        "calls_per_op": [count // len(ops), -(-count // len(ops))],
        "latency": stats,
        "selftest_passed": self_test(ops, outputs, workloads.corrupt),
        "failures": [_witness(ops[j], why=why) for j, why in sorted(failing.items())[:20]],
        "costliest": _witness(ops[costliest], best_ms=float(best[costliest]) * 1e-6,
                              output=repr(outputs[costliest])[:200]),
        "slowest": _witness(ops[slow_j], latency_ms=slow_ns * 1e-6,
                            best_ms=float(best[slow_j]) * 1e-6,
                            output=repr(outputs[slow_j])[:200]),
        "worst_error": (_witness(ops[worst[1]], error=worst[2], tolerance=worst[3],
                                 output=repr(outputs[worst[1]])[:200])
                        if worst[1] is not None else None),
        "setup_probes": probes,
        "known_defects": workloads.known_defects(pb),
        "env": stamp,
    }
    return metrics, report


def write_report(report, name):
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.trace:
            import tracing

            metrics, report = tracing.traced_run(args.workload, args.seed, args.seconds)
        else:
            metrics, report = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path = write_report(dict(report, metrics={k: v[0] for k, v in metrics.items()}), name)
    correct = report["failed"] == 0 and report["selftest_passed"]
    print(f"{args.workload}: {report['attempted']} ops, {report['failed']} failed "
          f"(fail_ratio {report['fail_ratio']:.3g}), self-test "
          f"{'passed' if report['selftest_passed'] else 'FAILED'}; report {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # run through the module named ``run`` so that tracing.py shares it
    sys.path.insert(0, str(HERE))
    import run

    sys.exit(run.main())
