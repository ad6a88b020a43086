"""pvpool benchmark: times the pipeline and each layer under it, checks outputs.

Run from the repository root:

    python3 perfbench/run.py --workload operate-4day --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The package is imported from `src/`.  BLAS and OpenMP are pinned to one
thread before NumPy loads, so each run is a single-threaded process of its
own and its peak resident memory belongs to one workload.

A run sets up several times and reports the median as `setup_s`: once in
this process (import, inputs, and for operate-4day also the decision
and served energy) and in four fresh child processes.  It then repeats the
workload as many times as its nominal iteration (ITERATION_S, in reference
seconds) fits in `--seconds`, at least once, and twice with `--trace 1`.
The count depends only on the arguments, so every run of one seed attempts
the same stages.  Stage times are medians over the iterations.

Every reported time is in reference seconds (see speed.py): wall time
scaled, stretch by stretch, by how fast a fixed kernel sampled on the
measuring thread went at that moment.  On a 2-vCPU virtual machine whose
cores are shared with other tenants, the same work took up to 1.8 times as
long from one second to the next; the scaling takes most of that out.  Each
set-up, in this process and in every child, is scaled by kernel runs made
right after it, since NumPy loads during set-up.  The raw wall times are on
the stages line.

With `--trace 0` the metrics are the end-to-end ones, measured without
probes.  The checks still read the pipeline's artifacts, so `pipeline-day`
keeps the return values of its three stage functions (three calls per
iteration).  With `--trace 1` untraced and traced iterations alternate; the
traced ones wrap the public functions of each module at the attribute its
caller looks up (see probes.py) and give the per-layer metrics, the traced
set-up included.  `trace.overhead_s` is the traced minus the untraced median
wall time.  A percentile reads 0 when its layer made too few calls to have
one: p50 needs a call, p90 needs 100, so that ten lie beyond it.  The
quality figures and invariant counts are per-layer metrics too, because
they depend on the seed; `quality.net_benefit_eur` reads 0 on the workloads
that run no sizing.

`--seed` takes any integer.  The package takes seeds as unsigned 64-bit
integers (a config with another seed is refused), so the seed is reduced
modulo 2**64 before it makes the inputs; seeds 0 to 2**64 - 1 are used as
given.

Outputs are checked, not only timed.  A stage that raises or exits nonzero
counts in `failed`, and its time counts as measured up to the failure.  The
same inputs fail the same way again, so the run stops repeating the workload
after an iteration with a failed stage (after the first traced one with
`--trace 1`): the counts then do not depend on how fast the machine ran.
The outputs of every iteration without a failed stage are checked: files the
CLI wrote must match what the stage functions returned, report totals must
add up, and the quality figures and invariant counts must repeat bit for
bit within the run and across runs of one seed on one version of the
package (kept under `.perfbench/`).  Any mismatch makes the run not
`correct`.  Invariant violations (`check_dispatch`, `check_key`,
`check_feasible`) are counted as measured and do not fail a run.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Lines before it describe
the machine, the stage medians and the checks.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from probes import Recorder

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SETUP_CHILDREN = 4
SEED_RANGE = 2**64  # the package's seeds are unsigned 64-bit integers
# Reference seconds one iteration of each workload takes, from the baseline.
ITERATION_S = {"pipeline-day": 29.0, "operate-4day": 25.0}
WORKLOADS = tuple(ITERATION_S)

# Gated end-to-end metrics.  Stage times that only some workloads have
# (size_s, allocate_s) and peak_rss_mb, which moves by a third between runs
# of one seed, are printed on the "stages" line instead.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "simulate_s": "s",
}

PER_LAYER = {
    "numerics.lp_calls": "count",
    "numerics.lp_s": "s",
    "numerics.lp_iters": "count",
    "numerics.lp_nnz_mean": "count",
    "numerics.qp_calls": "count",
    "numerics.qp_s": "s",
    "numerics.qp_iters": "count",
    "numerics.qp_nnz_mean": "count",
    "numerics.nonoptimal": "count",
    "sizing.calls": "count",
    "sizing.s": "s",
    "sizing.self_s": "s",
    "sizing.lps_per_call": "count",
    "operation.mpc_calls": "count",
    "operation.mpc_ms_p50": "ms",
    "operation.mpc_ms_p90": "ms",
    "operation.settle_calls": "count",
    "operation.settle_ms_p50": "ms",
    "operation.settle_ms_p90": "ms",
    "operation.harness_s": "s",
    "operation.partial_share": "ratio",
    "allocation.key_s": "s",
    "allocation.key_qps": "count",
    "allocation.key_iters": "count",
    "allocation.partial_share": "ratio",
    "io.gen_s": "s",
    "io.load_s": "s",
    "io.write_s": "s",
    "domain.validate_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "quality.net_benefit_eur": "EUR",
    "quality.key_variance_kwh2": "kWh2",
    "quality.max_mismatch_kwh": "kWh",
    "quality.operating_cost_eur": "EUR",
    "checks.invariant_violations": "count",
    "checks.dispatch_violations": "count",
    "checks.key_violations": "count",
    "checks.feasible_violations": "count",
}


def _load_workloads():
    """Import the package from src/ and this directory's workloads module.

    Kept out of module scope so that set-up timing includes the import.
    """
    src = ROOT / "src"
    for path in (str(HERE), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import pvpool
    except ImportError as exc:
        raise SystemExit(f"error: cannot import pvpool from {src}: {exc}") \
            from None
    if src not in Path(pvpool.__file__).resolve().parents:
        raise SystemExit(f"error: pvpool was imported from {pvpool.__file__},"
                         f" not from {src}")
    import workloads
    return workloads


def _setup(name, seed, smoke):
    """Import, build the workload and its inputs; returns the elapsed time."""
    start = perf_counter()
    workloads = _load_workloads()
    workload = workloads.make(name, smoke)
    digest = workload.setup(seed)
    return perf_counter() - start, workload, digest


def _setup_child(name, seed, smoke):
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-sample",
            "--workload", name, "--seed", str(seed)]
    if smoke:
        argv.append("--smoke")
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child exited {proc.returncode}:"
                           f" {proc.stderr.strip()[-300:]}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    return sample["wall_s"], sample["reference_s"], sample["digest"]


def _percentile_ms(spans, q, min_calls):
    if len(spans) < min_calls:
        return 0.0
    ms = [1e3 * s.seconds for s in spans]
    if q == 50:
        return statistics.median(ms)
    return statistics.quantiles(ms, n=10)[8]


def _layer_metrics(spans, scale):
    """Per-layer figures from one traced set-up plus one traced iteration.

    Times are wall times multiplied by `scale`, the iteration's factor from
    wall to reference seconds.
    """
    by = {}
    for span in spans:
        by.setdefault(span.name, []).append(span)

    def get(name):
        return by.get(name, [])

    def total(name):
        return sum(s.seconds for s in get(name))

    def self_total(name):
        return sum(s.self_s for s in get(name))

    def under(name, parent):
        return [s for s in get(name)
                if s.parent is not None and s.parent.name == parent]

    m = {}
    for kind in ("lp", "qp"):
        calls = get(kind)
        m[f"numerics.{kind}_calls"] = len(calls)
        m[f"numerics.{kind}_s"] = total(kind)
        m[f"numerics.{kind}_iters"] = sum(s.info["iterations"] for s in calls)
        m[f"numerics.{kind}_nnz_mean"] = (
            statistics.fmean(s.info["nnz"] for s in calls) if calls else 0.0)
    m["numerics.nonoptimal"] = sum(
        s.info["status"] != "optimal" for s in get("lp") + get("qp"))
    sizing = get("sizing")
    m["sizing.calls"] = len(sizing)
    m["sizing.s"] = total("sizing")
    m["sizing.self_s"] = self_total("sizing")
    m["sizing.lps_per_call"] = (len(under("lp", "sizing")) / len(sizing)
                                if sizing else 0.0)
    for layer in ("mpc", "settle"):
        calls = get(layer)
        m[f"operation.{layer}_calls"] = len(calls)
        m[f"operation.{layer}_ms_p50"] = _percentile_ms(calls, 50, 1)
        m[f"operation.{layer}_ms_p90"] = _percentile_ms(calls, 90, 100)
    m["operation.harness_s"] = self_total("run_year")
    key_qps = under("qp", "key")
    m["allocation.key_s"] = total("key")
    m["allocation.key_qps"] = len(key_qps)
    m["allocation.key_iters"] = sum(s.info["iterations"] for s in key_qps)
    m["io.gen_s"] = total("gen")
    m["io.load_s"] = self_total("load")
    m["io.write_s"] = total("write")
    m["domain.validate_s"] = total("validate")
    m["cli.self_s"] = self_total("cli")
    for key in m:
        if PER_LAYER[key] in ("s", "ms"):
            m[key] *= scale
    return m


def _expected_path(workloads, name, seed, smoke):
    tag = "-smoke" if smoke else ""
    return (STATE / "expected"
            / f"{workloads.source_digest()}-{name}-{seed}{tag}.json")


def _compare_expected(path, figures):
    """Problems if this seed's figures differ from an earlier run's."""
    if path.exists():
        earlier = json.loads(path.read_text())
        return [f"{k} is {figures.get(k)!r}, an earlier run of this seed"
                f" gave {v!r}" for k, v in earlier.items()
                if figures.get(k) != v]
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(figures, sort_keys=True))
    os.replace(tmp, path)
    return []


def run_workload(name, seed, seconds, trace, smoke=False,
                 setup_children=SETUP_CHILDREN):
    """Run one workload; returns (result object, lines describing it)."""
    problems = []
    t0 = perf_counter()
    if trace:
        workloads = _load_workloads()
        workload = workloads.make(name, smoke)
        with Recorder() as setup_trace:
            digest = workload.setup(seed)
    else:
        _, workload, digest = _setup(name, seed, smoke)
        workloads = sys.modules["workloads"]
    t1 = perf_counter()
    from speed import Speedometer  # NumPy loads with pvpool, inside set-up

    raw, ref = {}, {}  # wall and reference seconds of each kind of span

    def record(kind, wall_s, reference_s):
        raw.setdefault(kind, []).append(wall_s)
        ref.setdefault(kind, []).append(reference_s)

    workdir = STATE / f"work-{os.getpid()}"
    layers = []
    figures = None
    failures = []
    attempted = failed = 0
    with Speedometer() as speedo:
        if not trace:
            record("setup", *speedo.reference(t0, t1))
            for _ in range(setup_children):
                try:
                    wall_s, reference_s, child_digest = _setup_child(
                        name, seed, smoke)
                except (RuntimeError, subprocess.SubprocessError,
                        ValueError, KeyError) as exc:
                    problems.append(f"set-up sample failed: {exc}")
                    continue
                record("setup", wall_s, reference_s)
                if child_digest != digest:
                    problems.append("a fresh process built other inputs")

        planned = max(2 if trace else 1, int(seconds // ITERATION_S[name]))
        try:
            for iteration in range(planned):
                traced = trace and iteration % 2 == 1
                iterdir = workdir / f"iter-{iteration}"
                iterdir.mkdir(parents=True)
                log = workloads.StageLog()
                with Recorder(None if traced else workload.capture) as rec:
                    t0 = perf_counter()
                    workload.iterate(log, iterdir)
                    t1 = perf_counter()
                record("traced" if traced else "wall",
                       *speedo.reference(t0, t1))
                for stage, (s0, s1) in log.spans.items():
                    record(stage, *speedo.reference(s0, s1))
                attempted += log.attempted
                failed += log.failed
                failures += log.errors
                # a failed stage left nothing to check; `failed` counts it
                if not log.failed:
                    outcome = workload.check(rec, iterdir)
                    problems += outcome.problems
                    if figures is None:
                        figures = outcome.figures()
                    elif outcome.figures() != figures:
                        problems.append(f"iteration {iteration} gave other"
                                        f" figures than the first")
                if traced:
                    layers.append(_layer_metrics(
                        setup_trace.spans + rec.spans, speedo.scale(t0, t1)))
                shutil.rmtree(iterdir)
                if log.failed and not (trace and iteration == 0):
                    break  # the same inputs would fail the same way again
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        kernel_ms = 1e3 * statistics.median(d for _, d in speedo.samples)

    if figures is not None:
        problems += _compare_expected(
            _expected_path(workloads, name, seed, smoke), figures)

    if trace:
        metrics = {k: statistics.median(m[k] for m in layers)
                   for k in layers[0]}
        metrics["trace.overhead_s"] = (statistics.median(ref["traced"])
                                       - statistics.median(ref["wall"]))
        metrics.update(figures or {})
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(ref["setup"]),
            "wall_s": statistics.median(ref["wall"]),
            "simulate_s": statistics.median(ref.get("simulate", [0.0])),
        }
        units = END_TO_END

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u}
                    for k, u in units.items()},
    }
    stages = {"workload": name, "seed": seed, "trace": int(trace),
              "iterations": len(raw["wall"]) + len(raw.get("traced", [])),
              "kernel_ms": kernel_ms}
    for kind in raw:
        stages[f"{kind}_wall_s"] = raw[kind]
        stages[f"{kind}_ref_s"] = statistics.median(ref[kind])
    stages["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines = [
        "env " + json.dumps(_environment()),
        "stages " + json.dumps(stages),
        "checks " + json.dumps(dict(
            figures or {},
            error_rate=failed / attempted if attempted else 0.0)),
    ]
    lines += [f"failed: {f}" for f in failures]
    lines += [f"problem: {p}" for p in problems]
    return result, lines


def _environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _smoke():
    """Every workload at a tiny size, untraced and traced: every metric
    BENCHMARK.json names must be emitted with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = [w["name"] for w in spec["workloads"]]
    ok = True
    for name in names:
        for trace in (False, True):
            start = perf_counter()
            result, lines = run_workload(name, 0, 0.0, trace, smoke=True,
                                         setup_children=1)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            missing = sorted(set(wanted[trace]) - set(got))
            wrong = sorted(k for k in wanted[trace]
                           if k in got and got[k] != wanted[trace][k])
            extra = sorted(set(got) - set(wanted[trace]))
            good = result["correct"] and not (missing or wrong or extra)
            ok = ok and good
            print(f"{name} trace={int(trace)}: {'ok' if good else 'FAILED'}"
                  f" in {perf_counter() - start:.1f} s")
            for label, items in (("missing", missing), ("wrong unit", wrong),
                                 ("not in BENCHMARK.json", extra)):
                if items:
                    print(f"  {label}: {', '.join(items)}")
            if not result["correct"]:
                print("\n".join("  " + ln for ln in lines
                                if ln.startswith("problem")))
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; check every metric is emitted")
    parser.add_argument("--setup-sample", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.seed %= SEED_RANGE

    if args.smoke and not args.workload:
        return _smoke()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.setup_sample:
        t0 = perf_counter()
        _, _, digest = _setup(args.workload, args.seed, args.smoke)
        t1 = perf_counter()
        from speed import Speedometer
        with Speedometer() as speedo:  # samples the speed right after
            pass
        wall_s, reference_s = speedo.reference(t0, t1)
        print(json.dumps({"wall_s": wall_s, "reference_s": reference_s,
                          "digest": digest}))
        return 0
    result, lines = run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace), smoke=args.smoke)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
