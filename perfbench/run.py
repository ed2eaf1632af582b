#!/usr/bin/env python3
"""Benchmark of the caradec package: end-to-end metrics per workload, or,
with ``--trace 1``, per-layer metrics from a traced run.

    python3 perfbench/run.py --workload rand500-pipeline --seed 42 --seconds 36 --trace 0
    python3 perfbench/run.py --smoke                  # every workload on tiny inputs
    python3 perfbench/run.py --compare A.json B.json  # fingerprints of two runs

Run it from the repository root; it imports the package from ``src/``.
The load is one process with one closed-loop caller and one BLAS thread.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are read from ``BENCHMARK.json``.  Details (the
environment, per-operation times and output fingerprints) go to
``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``, and the traced
run's spans to ``perfbench/out/<workload>-seed<seed>.spans.npz``.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS_BEFORE, SETUPS_AFTER = 4, 3  # set-ups timed before and after the measured loop
PROBE_OP = -2


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics a run reports, from BENCHMARK.json: the
    end-to-end metrics untraced, the per-layer metrics traced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs (smoke mode)")
    ap.add_argument("--smoke", action="store_true", help="run every workload on tiny inputs and check the output")
    ap.add_argument("--compare", nargs=2, metavar="RUN_JSON")
    return ap.parse_args(argv)


def load_package():
    """Import caradec from this checkout's src/."""
    if not (SRC / "caradec" / "__init__.py").is_file():
        sys.exit(f"error: {SRC}/caradec not found; run from a caradec checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import caradec

    if Path(caradec.__file__).resolve().parent != SRC / "caradec":
        sys.exit(f"error: imported caradec from {caradec.__file__}, not from {SRC}")
    return caradec


def tail(values):
    """Highest percentile with at least ten samples above it, as (value,
    percentile, samples); the maximum when there are fewer than 11."""
    v = sorted(values)
    if len(v) >= 11:
        i = len(v) - 11
        return v[i], 100.0 * (i + 1) / len(v), len(v)
    return v[-1], 100.0, len(v)


def p90(values):
    """90th percentile (interpolated); the value itself for one sample."""
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def run_ops(wl, checker, seconds, seen, tracer=None, only=None):
    """Closed loop with one caller: the next operation starts when the
    previous one ends.  Every input (key) runs once.  Then, while time is
    left, the input with the least time measured so far, among those whose
    last time still fits, runs again; so cheap inputs get more repeats and
    every input's median rests on a similar share of the run.  ``only``
    runs a fixed list of operation numbers instead.

    Each output is checked and fingerprinted after its timer stops.  Only
    the first output of each key is kept, in ``seen`` (key -> (fingerprint,
    output)); every later output of that key must match its fingerprint.
    Returns one record per operation."""
    records = []

    def run(op_no):
        key = wl.key(op_no)
        checker.begin_op()
        if tracer is not None:
            tracer.current_op = op_no
        t0 = time.perf_counter()
        try:
            out, errors = wl.op(op_no), []
        except Exception as exc:  # a failed operation is counted, not fatal
            out, errors = None, [f"{type(exc).__name__}: {exc}"]
        dt = time.perf_counter() - t0 - checker.check_s
        errors += checker.errors
        if out is not None:
            errors += wl.check(out)
            fingerprint = {"key": key, **wl.fingerprint(out)}
            if wl.solves:
                fingerprint["pairs_sha"] = checker.hasher.hexdigest()
            if seen.setdefault(key, (fingerprint, out))[0] != fingerprint:
                errors.append("output differs from an earlier operation on the same input")
        if len(errors) > 5:
            errors = errors[:5] + [f"... and {len(errors) - 5} more"]
        records.append({"op": op_no, "key": key, "seconds": dt, "errors": errors})
        return dt

    if only is not None:
        for op_no in only:
            run(op_no)
        return records
    t_start = time.perf_counter()
    last = {i: run(i) for i in range(wl.cycle)}
    spent, repeats = dict(last), dict.fromkeys(last, 1)
    while True:
        left = seconds - (time.perf_counter() - t_start)
        fits = [i for i in last if last[i] <= left]
        if not fits:
            return records
        i = min(fits, key=spent.__getitem__)
        last[i] = run(i + wl.cycle * repeats[i])
        spent[i] += last[i]
        repeats[i] += 1


def summarize(wl, records, seen):
    """End-to-end figures from the untraced operations.  Each key (an
    instance or a ladder rung) first gets the median of its own times, so
    that every run measures the same set of inputs however many repeats
    fit.  Solve workloads then take the median and the tail across
    instances.  The ladder takes geometric means across rungs of each rung's
    median and 90th percentile, so that every size counts alike and one long
    pass does not carry the whole figure; its per-family sums of medians are
    reported beside them."""
    by_key = {}
    for r in records:
        by_key.setdefault(r["key"], []).append(r["seconds"])
    per_key = {k: statistics.median(v) for k, v in by_key.items()}
    ladder = None
    if wl.solves:
        p50 = statistics.median(per_key.values())
        tail_v, tail_p, n = tail(per_key.values())
    else:
        p50 = statistics.geometric_mean(per_key.values())
        tail_v = statistics.geometric_mean(p90(v) for v in by_key.values())
        tail_p, n = 90.0, min(len(v) for v in by_key.values())
        ladder = {}
        for k, m in per_key.items():
            name = f"{k.split('-')[0]}_ladder_s"
            ladder[name] = ladder.get(name, 0.0) + m
    outs = [out for _, out in seen.values()]
    refs = statistics.fmean(wl.reference(o) for o in outs) if outs else 0.0
    ratio = statistics.fmean(wl.objective(o) for o in outs) / refs if refs else 0.0
    return {"solve_p50_s": p50, "solve_tail_s": tail_v, "tail_percentile": tail_p,
            "tail_samples": n, "repeats": {k: len(v) for k, v in by_key.items()},
            "objective_ratio": ratio, "ladder": ladder}


def setup_workload(args):
    """Import caradec and set the workload up.  The clock starts after the
    interpreter and the third-party libraries (numpy, scipy) are loaded:
    they are not the package's work, and their load time is the noisiest
    part of a cold start.  Returns (caradec, workload, set-up seconds)."""
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    t0 = time.perf_counter()
    caradec = load_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed is None:
        args.seed = WORKLOADS[args.workload].default_seed
    wl = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    wl.setup()
    return caradec, wl, time.perf_counter() - t0


def forget_package():
    """Drop caradec, and the benchmark modules that import it, from the
    module cache, so that the next ``setup_workload`` imports the package
    afresh, with empty module-level caches, as a new process would.
    Compiled extension modules stay cached, because modules built by
    Cython 3 refuse a second initialisation in one process."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] in ("caradec", "workloads", "tracer") and \
                str(getattr(module, "__file__", "")).endswith(".py"):
            del sys.modules[name]
    gc.collect()


def setup_samples(args, count):
    """Times of ``count`` further set-ups, each after ``forget_package``.
    Their workloads are dropped; the modules of the last one stay loaded."""
    samples = []
    for _ in range(count):
        forget_package()
        samples.append(setup_workload(args)[2])
    return samples


def environment(caradec):
    import numpy

    return {
        "kernel_backend": caradec.kernel_backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def traced_phase(wl, checker, ops, seen, seed):
    """Replay ``ops`` with every layer traced, then run the probe: one pass
    over the tiny Random500 and ladder inputs, whose spans stand in for the
    layers the workload itself never reaches."""
    from tracer import Tracer, install_layers
    from workloads import FamilyLadder, Rand500

    tracer = Tracer()
    checker.uninstall()
    install_layers(tracer)
    checker.install()
    checker.tracer = tracer
    for f in wl.traced_objectives():
        tracer.trace_objective(f)
    try:
        records = run_ops(wl, checker, 0.0, seen, tracer=tracer, only=ops)
        probes = []
        for cls in (Rand500, FamilyLadder):
            probe = cls(seed, tiny=True)
            probe.setup()
            for f in probe.traced_objectives():
                tracer.trace_objective(f)
            tracer.current_op = PROBE_OP
            for j in range(probe.cycle):
                checker.begin_op()
                try:
                    out = probe.op(j)
                    probes.append((probe.name, list(checker.errors) + probe.check(out)))
                except Exception as exc:  # counted like any failed operation
                    probes.append((probe.name, [f"{type(exc).__name__}: {exc}"]))
    finally:
        checker.tracer = None
        checker.uninstall()
        tracer.uninstall()
    return tracer, records, probes


def per_layer(tracer, untraced, traced, names):
    """The named per-layer metrics, split in two: the workload's own figures
    over its traced operations, and the probe's figures for the layers
    those operations never reach (see ``traced_phase``)."""
    layer_names = [n for n in names if not n.startswith("trace.")]
    ops = {r["op"] for r in traced}
    counts = tracer.span_counts(ops=ops)
    own = tracer.layer_metrics(ops, layer_names)
    probe = tracer.layer_metrics({PROBE_OP}, layer_names)
    probe = {n: v for n, v in probe.items() if counts.get(n.rsplit(".", 1)[0], 0) == 0}
    own = {n: v for n, v in own.items() if n not in probe}
    untraced_s = sum(r["seconds"] for r in untraced)
    traced_s = sum(r["seconds"] for r in traced)
    own["trace.untraced_s"] = untraced_s
    own["trace.traced_s"] = traced_s
    own["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return own, probe


def compare(path_a, path_b):
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    if a["environment"]["kernel_backend"] != b["environment"]["kernel_backend"]:
        print(f"refusing to compare: kernel backends differ ({a['environment']['kernel_backend']} "
              f"vs {b['environment']['kernel_backend']}); they end on different sets")
        return 2
    if (a["workload"], a["seed"], a["tiny"]) != (b["workload"], b["seed"], b["tiny"]):
        print("refusing to compare: different workload, seed or input size")
        return 2
    fa = {f["key"]: f for f in a["fingerprints"]}
    fb = {f["key"]: f for f in b["fingerprints"]}
    common = sorted(set(fa) & set(fb), key=str)
    differ = [k for k in common if fa[k] != fb[k]]
    for k in differ:
        print(f"differs: {k}\n  {fa[k]}\n  {fb[k]}")
    print(f"{len(common)} common operations, {len(differ)} differ")
    # Per-layer figures measured on the workload's own operations in both
    # runs; probed layers are not in "per_layer" and so are skipped.
    for k in sorted(set(a.get("per_layer", {})) & set(b.get("per_layer", {}))):
        va, vb = a["per_layer"][k], b["per_layer"][k]
        print(f"layer {k} {va:.6g} -> {vb:.6g}" + (f" ({vb / va:.3f}x)" if va else ""))
    return 1 if differ or not common else 0


def smoke():
    """Every workload on tiny inputs, untraced and traced: each run must be
    correct and print every metric of BENCHMARK.json with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {trace: metric_units(trace) for trace in (0, 1)}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"], "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
            label = f"{w['name']} trace={trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['attempted']} attempted, {result['failed']} failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{label}: metrics/units differ: missing {sorted(set(want[trace]) - set(got))}, "
                                f"extra {sorted(set(got) - set(want[trace]))}")
            print(f"smoke {label}: {result['attempted']} operations, {len(got)} metrics")
    for p in problems:
        print("FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None):
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.smoke:
        return smoke()
    if not args.workload:
        sys.exit("error: --workload is required")
    for var in THREAD_VARS:  # before numpy loads
        os.environ[var] = "1"
    units = metric_units(args.trace)
    # Set-up samples before and after the measured loop, so that their
    # median spans the run rather than the few seconds before it.  The
    # workload that is measured is the one set up last before the loop.
    setup = setup_samples(args, SETUPS_BEFORE - 1)
    forget_package()
    caradec, wl, setup_last = setup_workload(args)
    setup.append(setup_last)
    from workloads import Checker

    checker, seen = Checker(), {}
    if wl.solves:
        checker.install()
    # Traced, one pass over the inputs and no time-filling repeats, so that
    # per-layer totals sum the same work whatever the machine's speed.
    records = run_ops(wl, checker, args.seconds if args.trace == 0 else 0.0, seen)
    checker.uninstall()
    all_records, probes = list(records), []
    if args.trace:
        tracer, traced, probes = traced_phase(wl, checker, [r["op"] for r in records], seen, args.seed)
        all_records += traced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary = summarize(wl, records, seen)
    setup += setup_samples(args, SETUPS_AFTER)
    all_records += [{"op": PROBE_OP, "key": f"probe:{name}", "errors": errors} for name, errors in probes]
    failed = [r for r in all_records if r["errors"]]

    end_to_end = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "solve_p50_s": summary["solve_p50_s"],
        "solve_tail_s": summary["solve_tail_s"],
        "objective_ratio": summary["objective_ratio"],
    }
    detail = {
        "workload": wl.name, "seed": args.seed, "tiny": args.tiny, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(caradec), "setup_samples_s": setup,
        "summary": summary, "end_to_end": end_to_end,
        "operations": [{"op": r["op"], "key": r["key"], "seconds": r["seconds"], "errors": r["errors"]}
                       for r in records],
        "fingerprints": [fingerprint for fingerprint, _ in seen.values()],
        "failures": [{"op": r["op"], "key": r["key"], "errors": r["errors"]} for r in failed],
    }
    values = end_to_end
    if args.trace:
        detail["per_layer"], detail["probe"] = per_layer(tracer, records, traced, units)
        values = {**detail["per_layer"], **detail["probe"]}
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}{'-tiny' if args.tiny else ''}"
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1, default=str))
    if args.trace:
        tracer.save(OUT / f"{stem}.spans.npz")

    print_summary(wl, detail, summary, failed, len(all_records))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(all_records),
        "failed": len(failed),
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    }))
    return 1 if failed else 0


def print_summary(wl, detail, summary, failed, attempted):
    env = detail["environment"]
    print(f"# {wl.name} seed={detail['seed']} trace={detail['trace']} backend={env['kernel_backend']} "
          f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
          f"blas_threads={env['blas_threads']['OPENBLAS_NUM_THREADS']}")
    e2e = detail["end_to_end"]
    print(f"setup_s {e2e['setup_s']:.4f} s (median of {len(detail['setup_samples_s'])} set-ups)")
    print(f"peak_rss_mb {e2e['peak_rss_mb']:.1f} MB")
    print(f"failed_frac {len(failed) / attempted:.4f} ratio ({len(failed)} of {attempted})")
    print(f"solve_p50_s {summary['solve_p50_s']:.4f} s")
    if summary["ladder"]:
        print(f"solve_tail_s {summary['solve_tail_s']:.4f} s (geometric mean of each rung's p90; "
              f"fewest passes of a rung: {summary['tail_samples']})")
    else:
        print(f"solve_tail_s {summary['solve_tail_s']:.4f} s (p{summary['tail_percentile']:.1f} "
              f"of {summary['tail_samples']} samples)")
    print(f"objective_ratio {summary['objective_ratio']:.6f} ratio")
    for name in ("graphic_ladder_s", "fstab_ladder_s", "partition_ladder_s"):
        value = (summary["ladder"] or {}).get(name)
        print(f"{name} " + (f"{value:.4f} s" if value is not None else "n/a (family-ladder only)"))
    if detail["trace"]:
        for k, v in detail["per_layer"].items():
            print(f"layer {k} {v:.6g}")
        for k, v in detail["probe"].items():
            print(f"probe {k} {v:.6g} (layer not reached; figure from the probe inputs)")
    for r in failed:
        print(f"FAILED op {r['op']} ({r['key']}): {'; '.join(r['errors'])}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
