"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--out FILE]

Runs every workload once per seed, one run at a time, with the
``run_seconds`` of ``BENCHMARK.json`` and ``--trace 0``.  For each workload
and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  With ``--out`` it writes
the same summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: all in BENCHMARK.json)")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for name in names:
        values: dict[str, list[float]] = {}
        units = {}
        for seed in args.seeds:
            t0 = time.perf_counter()
            result = run_once(name, seed, spec["run_seconds"])
            print(f"{name} seed {seed}: {time.perf_counter() - t0:.1f}s "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
                units[metric] = m["unit"]
        summary[name] = {}
        for metric, vals in values.items():
            s = summarise(vals)
            s["unit"] = units[metric]
            summary[name][metric] = s
            print(f"  {metric:16s} median {s['median']:.4g} {units[metric]:6s} "
                  f"spread {s['spread']:.3f} (bound {bounds[metric]})", flush=True)
    if args.out:
        doc = {"seeds": args.seeds, "run_seconds": spec["run_seconds"],
               "cpus": len(os.sched_getaffinity(0)), "workloads": summary}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
