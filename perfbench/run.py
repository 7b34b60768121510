"""bfcsim benchmark: one seeded workload, timed, checked, printed as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {paper_repro,hom_sweep,cli_analysis} \
        --seed N --seconds S --trace {0,1}

``--trace 0`` times the ops untraced and reports the end-to-end metrics.
``--trace 1`` also runs every round traced, alternating with the untraced
run, and reports the per-layer metrics.  Human-readable lines come
first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import os

# One thread per BLAS/OpenMP pool, set before numpy loads.  On a 2-core
# Xeon VM, two runs of the same 45ghz wide trace had medians of 1.54 s and
# 2.30 s with OpenBLAS's default two threads, and 1.78 s and 1.65 s with one.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_RUNS = 9
# A 90th percentile is printed only with at least ten ops beyond it.
P90_MIN_OPS = 100
SETUP_CODE = "import bfcsim; from bfcsim.config import preset_config; preset_config('45ghz')"


def _import_program():
    if not (SRC / "bfcsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bfcsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bfcsim

    if Path(bfcsim.__file__).resolve().parent != SRC / "bfcsim":
        raise SystemExit(f"perfbench: imported bfcsim from {bfcsim.__file__}, not {SRC}")


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {name: os.environ[name] for name in THREAD_ENV},
    }


def measure_setup() -> float:
    """Median wall time of fresh interpreters importing bfcsim and resolving a config."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # untimed: fills the bytecode cache
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Pass:
    times: list = field(default_factory=list)  # (seconds, op kind) of each op that passed
    attempted: int = 0
    failed: int = 0
    timed: float = 0.0

    def ops_per_s(self) -> float:
        return len(self.times) / self.timed


def _run_op(workload, op, workdir: Path, check_rng, res: Pass, tracer=None) -> None:
    opdir = Path(tempfile.mkdtemp(dir=workdir))
    ctx = workload.prepare(op, opdir)
    res.attempted += 1
    error = None
    t0 = time.perf_counter()
    try:
        result = tracer.root(workload.run, op, ctx) if tracer else workload.run(op, ctx)
    except Exception as exc:
        error = exc
    dt = time.perf_counter() - t0
    res.timed += dt
    if error is None:
        try:
            workload.check(op, ctx, result, check_rng)
        except Exception as exc:
            error = exc
    if error is None:
        res.times.append((dt, op.kind))
    else:
        res.failed += 1
        print(f"op {res.attempted} ({op.kind}) failed: {error!r}", file=sys.stderr)
    shutil.rmtree(opdir)


def run_loop(workload, seed: int, seconds: float, workdir: Path, tracer=None):
    """Closed loop over whole rounds until `seconds` of untraced op time have passed.

    With a tracer, each round also runs traced, the two in alternating
    order, so both passes see the same inputs and the same machine state.
    """
    check_rng = np.random.default_rng([seed, 1])
    plain, traced = Pass(), Pass()
    for n, ops in enumerate(workload.rounds(seed), start=1):
        modes = [False] if tracer is None else [n % 2 == 0, n % 2 == 1]
        for use_tracer in modes:
            res, active = (traced, tracer) if use_tracer else (plain, None)
            if active:
                active.install()
            try:
                for op in ops:
                    _run_op(workload, op, workdir, check_rng, res, active)
            finally:
                if active:
                    active.uninstall()
        if plain.timed >= seconds and n >= workload.min_rounds:
            break
    if not plain.times or (tracer is not None and not traced.times):
        raise SystemExit("perfbench: every op failed")
    return plain, traced


def _p50_ms(times, kind=None) -> float:
    picked = [t for t, k in times if kind is None or k == kind]
    return 1000.0 * statistics.median(picked) if picked else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(res: Pass, setup_s: float) -> dict:
    return {
        "op_p50_ms": (_p50_ms(res.times), "ms"),
        "ops_per_s": (res.ops_per_s(), "1/s"),
        "setup_s": (setup_s, "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS
    from tracing import Tracer, layer_metrics

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    facts = machine_facts()
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine {json.dumps(facts, sort_keys=True)}")

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch, prefix="run-"))
    try:
        tracer = Tracer() if args.trace else None
        plain, traced = run_loop(workload, args.seed, args.seconds, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        tracer.dump(scratch / f"spans-{args.workload}-{args.seed}.json")
        metrics = layer_metrics(tracer.spans)
        metrics["trace.overhead_frac"] = (1.0 - traced.ops_per_s() / plain.ops_per_s(), "frac")
        metrics["process.peak_rss_mb"] = (_peak_rss_mb(), "MB")
    else:
        metrics = end_to_end(plain, measure_setup())

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    print(f"ops {len(plain.times)} completed in {plain.timed:.3f} s of untraced op time")
    for kind in sorted({k for _, k in plain.times}):
        print(f"  {kind:<12} p50 {_p50_ms(plain.times, kind):10.3f} ms")
    if len(plain.times) >= P90_MIN_OPS:
        p90 = 1000.0 * float(np.percentile([t for t, _ in plain.times], 90))
        print(f"  {'all':<12} p90 {p90:10.3f} ms")
    print(f"peak RSS {_peak_rss_mb():.1f} MB")
    for name, (value, unit) in metrics.items():
        print(f"{name:<26} {value:14.6g} {unit}")
    print(f"{'failed_frac':<26} {failed / attempted:14.6g} ({failed}/{attempted} ops)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
