"""hsmm-spectral benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  The run sets the workload up ``SETUP_REPEATS`` times, then runs
rounds while the next one is expected to end within ``--seconds`` (at least
one, and with ``--trace 1`` at least one untraced and one traced).  Every
end-to-end time is the median over the run's calls of the call's time
scaled to a steady host (``hostclock``).  The last line of standard output
is one JSON object: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The exit code is 0 only when every
correctness gate holds.  With ``--trace 1`` the spans are also written to
``.perfbench_out/trace-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "hsmm_spectral"

# One BLAS thread, set before numpy loads.  The host's few cores are shared
# with other tenants; a second BLAS thread waits on whichever core is taken
# at the moment, and doubled the spread of the k = 512 inference and of the
# ``_dd`` build.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

END_TO_END = {
    "setup_s": "s",
    "learn_s": "s",
    "score_seq_per_s": "seq/s",
    "batch_seq_per_s": "seq/s",
    "em_learn_s": "s",
    "rmse_rel": "1",
    "em_rmse_rel": "1",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long sizes, for the benchmark's own tests")
    return parser.parse_args(argv)


def _import_library():
    """Import the package from this checkout's ``src/``, or exit 2."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"no {PACKAGE} sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import hsmm_spectral

    if Path(hsmm_spectral.__file__).resolve().parent != SRC / PACKAGE:
        print(f"imported {hsmm_spectral.__file__}, not the checkout", file=sys.stderr)
        raise SystemExit(2)


def _median(record, name: str, which: int = 1) -> float:
    """Median over the run's calls of the scaled (1) or raw (0) value."""
    return statistics.median(pair[which] for pair in record.samples[name])


def end_to_end(record) -> dict[str, float]:
    """Each time or rate is the median of its calls, scaled to a steady host."""
    return {
        **{name: _median(record, name) for name in record.samples},
        "rmse_rel": record.rmse_rel,
        "em_rmse_rel": record.em_rmse_rel,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run(args) -> int:
    _import_library()
    import layers
    import workloads
    from hostclock import HostClock
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    if args.tiny:
        wl = workloads.tiny(wl)
    traced = bool(args.trace)
    tracer = Tracer(PACKAGE)
    clock = HostClock(wl.reference, tracer)
    record = workloads.Record()
    work = ROOT / ".perfbench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        hooks = layers.HOOKS if traced else ()
        for _ in range(workloads.SETUP_REPEATS):
            with tracer.unit("setup", hooks):
                ctx, dt, scaled = clock.time(
                    workloads.setup, wl, args.seed, work, tracer, clock, record
                )
            record.add("setup_s", dt, scaled)
        deadline = time.perf_counter() + args.seconds
        round_s = []
        # traced runs alternate untraced and traced rounds to measure overhead
        while rounds_left(len(round_s), 2 if traced else 1, round_s, deadline):
            with tracer.unit("round", hooks if len(round_s) % 2 == 1 else ()) as u:
                workloads.run_round(ctx)
            round_s.append(u["end"] - u["start"])
        rounds = len(round_s)
        complete = all(record.samples[name] for name in workloads.TIMED)
        if complete:
            workloads.accuracy(ctx)
        else:
            record.gate(False, "no round completed every operation")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if traced:
        metrics = layers.per_layer_metrics(
            tracer, BLAS_THREADS, clock.slowdowns, record.attempted, record.failed
        )
        units = layers.UNITS
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{wl.name}-seed{args.seed}.json"
        doc = tracer.to_json()
        doc.update(workload=wl.name, seed=args.seed, blas_threads=BLAS_THREADS)
        trace_path.write_text(json.dumps(doc) + "\n")
        if tracer.absent:
            print(f"absent layers: {', '.join(tracer.absent)}")
    else:
        metrics = end_to_end(record) if not record.problems else {}
        units = END_TO_END

    correct = not record.problems
    for problem in record.problems:
        print(f"GATE FAILED: {problem}", file=sys.stderr)
    print(f"workload={wl.name} seed={args.seed} rounds={rounds} "
          f"blas_threads={BLAS_THREADS} attempted={record.attempted} "
          f"failed={record.failed} failed_frac={record.failed / max(1, record.attempted):g}"
          f" host_slowdown={statistics.median(clock.slowdowns):.3f}"
          + (f" max_exact_err={record.max_exact_err:.3e}" if wl.population else ""))
    for name, value in metrics.items():
        raw = ""
        if not traced and name in workloads.TIMED:
            raw = f"  (unscaled {_median(record, name, 0):.6g})"
        print(f"  {name} = {value:.6g} {units[name]}{raw}")
    result = {
        "correct": correct,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def rounds_left(done: int, least: int, round_s: list, deadline: float) -> bool:
    """Whether to start another round: one is owed, or it should end in time."""
    if done < least:
        return True
    return time.perf_counter() + statistics.median(round_s) <= deadline


def main(argv=None) -> int:
    return run(_parse(argv))


if __name__ == "__main__":
    sys.exit(main())
