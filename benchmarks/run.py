"""Session benchmark: featurize -> train epoch -> score on seeded synthetic corpora.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload mixed --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --report --seed 1   # every workload, untraced then traced
    python3 benchmarks/run.py --smoke             # a few-second check of the harness

One run measures one workload in its own process and prints its metrics
by name and unit; the last line of stdout is a JSON object with keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones
from a separate traced session (featurize_frames_per_s among them). Reports, span JSONL and scratch corpora
go under .bench_out/ in the current directory. The exit code is 0 only
when every correctness check passed.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

# The BLAS thread count is pinned before numpy is first imported. One
# thread keeps runs steady on a shared host and is at most nproc.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = Path(".bench_out")


def _pin_threads() -> int:
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _read_proc(path: str, key: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _blas_runtime_threads():
    """Thread count reported by the OpenBLAS numpy loaded, when found."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def provenance(threads: int, workload, seed: int, seconds: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _read_proc("/proc/cpuinfo", "model name"),
        "mem_total": _read_proc("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": threads,
        "blas_threads_runtime": _blas_runtime_threads(),
        "workload": workload.name,
        "workload_why": workload.why,
        "strata_phones_utts": [list(s) for s in workload.strata],
        "train_batch": workload.batch,
        "seed": seed,
        "seconds": seconds,
    }


def _format(value: float) -> str:
    return f"{value:.6g}" if abs(value) < 1e6 else f"{value:.0f}"


def run_one(workload, seed: int, seconds: int, trace: bool, threads: int) -> int:
    from layers import COMPUTED
    from session import run_session
    from spans import Tracer

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir()
    tracer = Tracer() if trace else None
    try:
        res = run_session(workload, seed, seconds, work_dir, tracer,
                          log=lambda msg: print(f"[{workload.name}] {msg}"))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if tracer is not None:
            tracer.restore()

    fails = res.failures
    attempted = len(fails.attempted | fails.failed)
    failed = len(fails.failed)
    correct = res.completed and failed == 0
    e2e = res.end_to_end()
    report = {
        "provenance": provenance(threads, workload, seed, seconds),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / max(attempted, 1),
        "failure_notes": fails.notes,
        "checks": res.checks,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "passes_s": {"setup": res.setup_s, "featurize": res.featurize_s,
                     "train": res.train_s, "score": res.score_s},
        "work": {"utterances": res.n_utterances, "frames": res.frames,
                 "train_utterances": res.n_train},
    }
    print(f"== {workload.name} seed={seed} trace={int(trace)} "
          f"blas_threads={threads} ({workload.why})")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<24} {_format(value):>12} {unit}")
    print(f"  {'failed_frac':<24} {_format(report['failed_frac']):>12} "
          f"({failed}/{attempted} operations)")
    for note in fails.notes:
        print(f"  FAILED: {note}")
    print("  checks: " + ", ".join(f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
                                   for k, v in res.checks.items()))

    if trace:
        spans_path = OUT_DIR / f"{stem}.spans.jsonl"
        tracer.write_jsonl(spans_path)
        report["spans_jsonl"] = str(spans_path)
        report["per_layer"] = {k: {"value": v, "unit": res.per_layer_units[k]}
                               for k, v in res.per_layer.items()}
        report["layers"] = {name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s,
                                   **s.percentiles_ms()}
                            for name, s in sorted(res.layer_table.items())}
        report["computed"] = list(COMPUTED)
        report["missing_layers"] = res.missing_layers
        report["count_errors"] = res.count_errors
        overhead = _tracing_overhead(workload.name, seed, e2e)
        if overhead is not None:
            report["tracing_overhead"] = overhead
        print(f"  per-layer ({len(res.per_layer)} metrics, spans in {spans_path}):")
        for name, value in res.per_layer.items():
            label = " (computed)" if name in COMPUTED else ""
            print(f"    {name:<44} {_format(value):>12} {res.per_layer_units[name]}{label}")
        for name in res.missing_layers:
            print(f"  WARNING: layer {name} not found in the library; not traced")
        for name, err in res.count_errors.items():
            print(f"  WARNING: count for {name} failed: {err}")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    values = {**e2e, **{k: (v, res.per_layer_units[k]) for k, v in res.per_layer.items()}}
    declared = _declared("per_layer" if trace else "end_to_end")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items() if k in declared}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _declared(section: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[section]}


def _tracing_overhead(name: str, seed: int, traced_e2e: dict):
    """Traced minus untraced end-to-end figures, when an untraced report of
    the same workload and seed exists."""
    path = OUT_DIR / f"{name}-seed{seed}-trace0.json"
    if not path.exists():
        return None
    untraced = json.loads(path.read_text())["end_to_end"]
    return {k: {"traced": v, "untraced": untraced[k]["value"], "unit": u,
                "traced_minus_untraced": v - untraced[k]["value"],
                "share": (v - untraced[k]["value"]) / untraced[k]["value"]}
            for k, (v, u) in traced_e2e.items() if k in untraced}


def run_report(seed: int, seconds: int) -> int:
    """Every workload untraced, then traced, each in its own process."""
    from workloads import WORKLOADS

    status = 0
    rows = []
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
        report = json.loads((OUT_DIR / f"{name}-seed{seed}-trace1.json").read_text())
        rows.append((name, report.get("tracing_overhead", {})))
    print("\n== end-to-end figures, untraced, with tracing overhead (traced - untraced)")
    for name, overhead in rows:
        for metric, o in overhead.items():
            print(f"  {name:<6} {metric:<24} {_format(o['untraced']):>12} {o['unit']:<9}"
                  f" overhead {o['traced_minus_untraced']:+.4g} ({o['share']:+.1%})")
    return status


def run_smoke(threads: int) -> int:
    """Untraced then traced session on a tiny corpus, every phase and check."""
    from session import run_session
    from spans import Tracer
    from workloads import SMOKE

    OUT_DIR.mkdir(exist_ok=True)
    ok = True
    for traced in (False, True):
        work_dir = OUT_DIR / f"smoke-{os.getpid()}-{int(traced)}"
        work_dir.mkdir()
        tracer = Tracer() if traced else None
        try:
            res = run_session(SMOKE, 0, 1, work_dir, tracer, log=lambda m: None)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
            if tracer is not None:
                tracer.restore()
        good = res.completed and not res.failures.failed
        if traced:
            good = good and bool(res.per_layer) and not res.missing_layers \
                and not res.count_errors and len(tracer.spans) > 0
        ok = ok and good
        print(f"smoke trace={int(traced)}: {'ok' if good else 'FAILED'} "
              f"checks={res.checks} failures={res.failures.notes} "
              f"missing={res.missing_layers} count_errors={res.count_errors}")
    print(f"smoke: {'ok' if ok else 'FAILED'} (blas_threads={threads})")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pronassess" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'pronassess'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    threads = _pin_threads()
    sys.path.insert(0, str(ROOT / "src"))

    if args.smoke:
        return run_smoke(threads)
    if args.report:
        return run_report(args.seed, args.seconds)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return run_one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), threads)


if __name__ == "__main__":
    sys.exit(main())
