"""xopd-lab benchmark.

    python3 perfbench/run.py --workload xopd_train --seed 0 --seconds 40 --trace 0

Run from the root of an xopd-lab checkout; the program is imported from its
``src/``. One process, one thread, BLAS pinned to one thread. Set-up (dataset,
a short teacher fixture, one warm-up unit) runs several times and reports
its median; then units of the workload run until ``--seconds`` have passed.

With ``--trace 0`` the last line holds the end-to-end metrics. With
``--trace 1`` the first half of the time runs with every layer wrapped, the
wrappers are removed, and the second half runs untraced; the last line holds
the per-layer metrics, and the spans go to ``.perfbench/``. Lines before the
last one report the environment, sample counts, traffic shape and an output
fingerprint.
"""

import os

# Before numpy loads: BLAS threading alone moves a backward pass several-fold.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_REPEATS = 3
OUT = Path(".perfbench")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("xopd_train", "pretrain"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return int(getattr(lib, fn)())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile). With fewer than 22 samples that falls below the
    median, and the median is returned instead."""
    xs = sorted(values)
    k = max(len(xs) - 11, len(xs) // 2)
    return xs[k], 100.0 * (k + 1) / len(xs)


def timed(work, seconds: float):
    """Run units of ``work`` until ``seconds`` have passed. Returns the tally,
    the elapsed time and each unit's examples per second."""
    from workloads import Tally

    tally = Tally()
    rates = []
    t0 = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - t0 < seconds:
        t, before = time.perf_counter(), tally.examples
        work.unit(i, tally)
        if tally.examples > before:
            rates.append((tally.examples - before) / (time.perf_counter() - t))
        i += 1
    return tally, time.perf_counter() - t0, rates


def main(argv=None) -> int:
    args = _parse(argv)
    src = Path("src")
    if not (src / "xopd_lab" / "__init__.py").is_file():
        print("perfbench: src/xopd_lab not found; run from the root of an xopd-lab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src.resolve()))
    import xopd_lab

    if Path(xopd_lab.__file__).resolve().parent != (src / "xopd_lab").resolve():
        print(f"perfbench: imported {xopd_lab.__file__}, not this checkout", file=sys.stderr)
        return 2

    import layers
    import workloads
    from tracing import Tracer

    tmp_dir = OUT / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    kind = workloads.WORKLOADS[args.workload]
    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    tracer = Tracer()
    setup_s = []
    if args.trace:
        layers.install(tracer)
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        work = kind(workloads.build_fixture(args.seed), tmp_dir)
        work.warm_up()
        setup_s.append(time.perf_counter() - t0)
    build_dataset_s = sum(
        end - start for name, start, end, _ in tracer.spans if name == "corpus.build_dataset"
    )
    tracer.clear()

    if args.trace:
        traced, traced_s, _ = timed(work, args.seconds / 2)
        layer = layers.per_layer(tracer, max(1, traced.steps), build_dataset_s)
        tracer.restore()
        n_spans = len(tracer.spans)
        tally, elapsed, rates = timed(work, args.seconds / 2)
        # Every wrapper is gone, so the untraced half records nothing.
        tally.check(len(tracer.spans) == n_spans)
        tally.attempted += traced.attempted
        tally.failed += traced.failed
        layer["trace.step_s"] = traced_s / max(1, traced.steps)
        layer["trace.untraced_step_s"] = elapsed / max(1, tally.steps)
        layer["trace.overhead_s"] = layer["trace.step_s"] - layer["trace.untraced_step_s"]
    else:
        tally, elapsed, rates = timed(work, args.seconds)
        # Traffic shape of one warm-up unit, traced after the timed phase.
        layers.install(tracer)
        work.warm_up()
        tracer.restore()
        layer = layers.per_layer(tracer, 1, build_dataset_s)
    work.check(tally)
    if not tally.step_s:
        print("perfbench: no step completed", file=sys.stderr)
        return 1

    n = len(tally.step_s)
    tail_s, tail_pct = tail(tally.step_s)
    end_to_end = {
        "setup_s": (statistics.median(setup_s), "s", f"median of {len(setup_s)} set-ups"),
        "examples_per_s": (
            statistics.median(rates), "1/s",
            f"median of {len(rates)} units; {tally.examples} examples in {elapsed:.2f} s",
        ),
        "step_p50_s": (statistics.median(tally.step_s), "s", f"n={n}"),
        "step_tail_s": (tail_s, "s", f"p{tail_pct:.0f}, n={n}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", ""),
    }
    for name, (value, unit, note) in end_to_end.items():
        print(f"{name:15s} {value:12.4f} {unit:4s} {note}")
    print(f"{'fail_frac':15s} {tally.failed / max(1, tally.attempted):12.4f}      "
          f"{tally.failed} of {tally.attempted} checks")
    print("traffic " + json.dumps({k: layer[k] for k in layers.TRAFFIC}, sort_keys=True))
    print("fingerprint " + json.dumps(work.fingerprint, sort_keys=True))

    if args.trace:
        metrics = {k: {"value": v, "unit": layers.unit_of(k)} for k, v in layer.items()}
        tracer.write(
            OUT / f"trace-{args.workload}-{args.seed}.jsonl",
            {"workload": args.workload, "seed": args.seed, "env": env, "per_layer": layer,
             "fingerprint": work.fingerprint},
        )
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in end_to_end.items()}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
