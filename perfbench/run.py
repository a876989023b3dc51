"""Benchmark runner for whideal: one workload, one closed-loop client.

Run from the repository root:

    python3 perfbench/run.py --workload diagonal-grid --seed 1 --seconds 20 --trace 0

The operations call the package under ./src from outside; nothing under
src/ is edited.  The next operation starts only after the previous one
returns, in one process with no threads (cli-session waits on one child at
a time).  Every operation is checked after the timed region.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The line before it holds
the environment and the details behind the metrics (the tail percentile and
its sample counts, fail_ratio, per-kind medians).  README.md lists the
metrics and what each should move.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter, process_time

from spans import Tracer
from workloads import DIMS_TABLE, DIMS_TABLE_DATA, FAMILIES, WORK_DIR, WORKLOADS, CliSession

SETUP_REPEATS = 7
SPAWN_PAIRS = 9  # interpreter start pairs behind cli.interp_ms and cli.import_ms


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "whideal_script_on_path": shutil.which("whideal") is not None,
    }


def fresh_import():
    """Import whideal (and its cli) anew, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "whideal" or n.startswith("whideal.")]:
        del sys.modules[name]
    wh = importlib.import_module("whideal")
    importlib.import_module("whideal.cli")
    return wh


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def set_up(workload, seed: int, root: Path):
    """Import, generate inputs and warm up; return (package, inputs)."""
    wh = fresh_import()
    if isinstance(workload, CliSession):
        # Children must find cached bytecode, as a user's second run does.
        compileall.compile_dir(str(root / "src" / "whideal"), quiet=1)
        os.makedirs(WORK_DIR, exist_ok=True)
        with open(DIMS_TABLE, "w", encoding="utf-8") as fh:
            json.dump(DIMS_TABLE_DATA, fh)
        env = child_env(root)
        for argv in workload.warmup_inputs():
            workload.spawn(env, argv)
    else:
        for inp in workload.warmup_inputs():
            workload.run(wh, inp)
    return wh, workload.generate(seed)


def closed_loop(call, inputs, clock, keep, seconds=None, count=None, before=None):
    """Run call(input) back to back, cycling through inputs, for `seconds`
    of wall time or for `count` operations.  Each latency is read on
    `clock`; then keep(input, output) reduces the output to what its check
    needs, and an exception is kept as it is.  Returns the latencies, the
    kept outputs and the wall time, which leaves out the time spent in
    keep."""
    latencies, outputs = [], []
    start = perf_counter()
    deadline = start + seconds if seconds is not None else None
    kept_s = 0.0
    i = 0
    while (count is None or i < count) and (deadline is None or perf_counter() < deadline):
        inp = inputs[i % len(inputs)]
        if before is not None:
            before(inp)
        t0 = clock()
        try:
            out = call(inp)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
        latencies.append(clock() - t0)
        t1 = perf_counter()
        if not isinstance(out, Exception):
            out = keep(inp, out)
        outputs.append(out)
        kept_s += perf_counter() - t1
        i += 1
    return latencies, outputs, perf_counter() - start - kept_s


def children_cpu_time() -> float:
    """CPU time of the ended children that have been waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def settle():
    """Collect garbage and move everything set-up made out of the
    collector's sight, so that collections in the timed region scan only
    what the operations allocate."""
    gc.collect()
    gc.freeze()


def check(workload, inputs, outputs) -> list[bool]:
    used = [inputs[i % len(inputs)] for i in range(len(outputs))]
    live = [(inp, out) for inp, out in zip(used, outputs) if not isinstance(out, Exception)]
    verdicts = iter(workload.check_all([i for i, _ in live], [o for _, o in live]) if live else [])
    ok = [False if isinstance(out, Exception) else next(verdicts) for out in outputs]
    for inp, out, good in zip(used, outputs, ok):
        if not good:
            detail = "".join(traceback.format_exception(out)) if isinstance(out, Exception) else repr(out)[:300]
            print(f"perfbench: FAILED {inp!r}: {detail}", file=sys.stderr)
            break
    return ok


def tail(latencies, pct):
    """The nearest-rank `pct` percentile: (value, samples beyond it)."""
    ordered = sorted(latencies)
    k = max(math.ceil(pct / 100 * len(ordered)) - 1, 0)
    return ordered[k], len(ordered) - k - 1


def per_kind_medians(workload, inputs, latencies) -> dict:
    by_kind = defaultdict(list)
    for i, lat in enumerate(latencies):
        by_kind[workload.tag(inputs[i % len(inputs)])].append(lat)
    return {k: round(statistics.median(v) * 1000, 3) for k, v in sorted(by_kind.items())}


def measure(workload, seed, seconds, root):
    # Set-up is timed in CPU time, its own and its children's, for the
    # reason latency is (below).  Each repeat starts with the garbage of the
    # one before (a dropped package is cyclic) collected, so that a
    # collection of it does not land in one repeat and not another.
    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = process_time() + children_cpu_time()
        wh, inputs = set_up(workload, seed, root)
        setup_times.append(process_time() + children_cpu_time() - t0)
    settle()
    # Latency is CPU time, of the child for cli-session and of this process
    # otherwise: on a shared virtual machine the host takes the CPU away
    # several times a second for a few ms, and those stalls, not whideal,
    # would make up the tail.  Every call is single-threaded and waits on
    # no I/O but reading its own files, so on an idle machine its CPU time
    # is its latency.
    if isinstance(workload, CliSession):
        env = child_env(root)
        call = lambda argv: workload.spawn(env, argv)  # noqa: E731
        who, clock = resource.RUSAGE_CHILDREN, children_cpu_time
    else:
        call = lambda inp: workload.run(wh, inp)  # noqa: E731
        who, clock = resource.RUSAGE_SELF, process_time
    latencies, outputs, wall = closed_loop(call, inputs, clock, workload.keep, seconds=seconds)
    # Read before checking: the checks import sympy, which is not the program.
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    ok = check(workload, inputs, outputs)
    attempted, failed = len(ok), ok.count(False)
    tail_value, beyond = tail(latencies, workload.tail_percentile)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": ((attempted - failed) / wall, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "op_tail_ms": (tail_value * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {
        "ops": attempted,
        "wall_s": wall,
        "fail_ratio": failed / attempted,
        "tail_percentile": workload.tail_percentile,
        "tail_samples_beyond": beyond,
        "setup_runs_s": setup_times,
        "median_ms_by_kind": per_kind_medians(workload, inputs, latencies),
    }
    return attempted, failed, metrics, detail


def spawn_ms(env, code: str) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return (perf_counter() - t0) * 1000


def interpreter_costs(env) -> tuple[float, float]:
    """(bare interpreter start, import whideal on top of it) in ms.

    The two kinds of start alternate and the import cost is the median of
    paired differences, so a drift in machine speed cancels out."""
    bare, extra = [], []
    for _ in range(SPAWN_PAIRS):
        b = spawn_ms(env, "pass")
        extra.append(spawn_ms(env, "import whideal") - b)
        bare.append(b)
    return statistics.median(bare), statistics.median(extra)


def measure_traced(workload, seed, seconds, root):
    wh, inputs = set_up(workload, seed, root)
    env = child_env(root)
    interp_ms, import_ms = interpreter_costs(env)

    # Untraced pass for half the time, then the same operations traced:
    # the ratio of the two walls is the tracing overhead.
    call = lambda inp: workload.run(wh, inp)  # noqa: E731
    settle()
    plain_lat, _, plain_wall = closed_loop(call, inputs, process_time, workload.keep, seconds=seconds / 2)
    ops = len(plain_lat)
    tracer = Tracer()

    def before(inp):
        tracer.family = workload.tag(inp)

    tracer.install()
    try:
        _, outputs, traced_wall = closed_loop(call, inputs, process_time, workload.keep, count=ops, before=before)
    finally:
        tracer.uninstall()
    ok = check(workload, inputs, outputs)
    spans_file = f"{WORK_DIR}/spans-{workload.name}-{seed}.json"
    os.makedirs(WORK_DIR, exist_ok=True)
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": tracer.spans},
                  fh, separators=(",", ":"))

    selfs = tracer.self_times()
    calls = tracer.span_counts()
    c = tracer.counts
    kinds = per_kind_medians(workload, inputs, plain_lat) if isinstance(workload, CliSession) else {}

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {
        "cli.interp_ms": (interp_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.main_self_s": (selfs["cli.main"] / ops, "s/op"),
        **{f"cli.{k}_ms": (kinds.get(k, 0.0), "ms") for k in ("analyze", "snc", "verify", "bounds", "dims")},
        "poly.parse_s": (selfs["poly.parse"] / ops, "s/op"),
        "poly.parse_calls": (calls["poly.parse"] / ops, "count/op"),
        "poly.jacobian_s": (selfs["poly.jacobian"] / ops, "s/op"),
        "newton.polyhedron_s": (selfs["newton.polyhedron"] / ops, "s/op"),
        "newton.polyhedron_calls": (calls["newton.polyhedron"] / ops, "count/op"),
        "newton.support_points": (ratio(c["newton.support_points"], calls["newton.polyhedron"]), "count/call"),
        "newton.subsets": (c["newton.subsets"] / ops, "count/op"),
        "newton.facets": (c["newton.facets"] / ops, "count/op"),
        "newton.facet_yield": (ratio(c["newton.facets"], c["newton.subsets"]), "ratio"),
    }
    for fam in FAMILIES:
        metrics[f"newton.vertices.{fam}"] = (
            ratio(c[f"newton.vertices.{fam}"], c[f"newton.calls.{fam}"]), "count/call")
        metrics[f"newton.vertex_share.{fam}"] = (
            ratio(c[f"newton.vertices.{fam}"], c[f"newton.support.{fam}"]), "ratio")
    metrics.update({
        "invariants.minimal_exponent_self_s": (selfs["invariants.minimal_exponent"] / ops, "s/op"),
        "invariants.classify_self_s": (selfs["invariants.classify"] / ops, "s/op"),
        "invariants.witness_self_s": (selfs["invariants.witness"] / ops, "s/op"),
        "groebner.membership_s": (selfs["groebner.membership"] / ops, "s/op"),
        "groebner.basis_s": (selfs["groebner.basis"] / ops, "s/op"),
        "groebner.generator_terms": (ratio(c["groebner.generator_terms"],
                                           calls["groebner.membership"] + calls["groebner.basis"]), "count/call"),
        "groebner.basis_len": (ratio(c["groebner.basis_len"], calls["groebner.basis"]), "count/call"),
        "groebner.refused": (c["groebner.membership.refused"] + c["groebner.basis.refused"], "count"),
        "monomial.construct_s": (selfs["monomial.construct"] / ops, "s/op"),
        "monomial.construct_calls": (calls["monomial.construct"] / ops, "count/op"),
        "monomial.generators": (ratio(c["monomial.generators"], calls["monomial.construct"]), "count/call"),
        "monomial.subideal_s": (selfs["monomial.subideal"] / ops, "s/op"),
        "snc.ideal_s": (selfs["snc.ideal"] / ops, "s/op"),
        "snc.verify_self_s": (selfs["snc.verify"] / ops, "s/op"),
        "snc.checks": (c["snc.checks"] / ops, "count/op"),
        "bench.trace_overhead": (traced_wall / plain_wall - 1, "ratio"),
    })
    detail = {
        "ops": ops,
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "spans": len(tracer.spans),
        "spans_file": spans_file,
        "fail_ratio": ok.count(False) / len(ok),
    }
    return len(ok), ok.count(False), metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "whideal" / "__init__.py").is_file():
        print("perfbench: src/whideal not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workload = WORKLOADS[args.workload]
    measure_fn = measure_traced if args.trace else measure
    attempted, failed, metrics, detail = measure_fn(workload, args.seed, args.seconds, root)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "detail": detail,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
