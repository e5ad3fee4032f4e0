"""Library functions wrapped in traced runs, and the per-layer metrics.

Each hook names the module attribute the *caller* looks the function up by:
the CLI imported ``read_sequences`` into ``cli``, the score loop finds
``infer`` in ``spectral``, the build reaches ``numerical_rank`` through
``spectral`` and the compensated kernels through the ``_dd`` module.  The
span is named after the layer that implements the function.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

from spans import Hook, Tracer


def _read_counts(out, args, kwargs):
    return {"symbols": int(sum(s.size for s in out))}


def _moment_counts(out, args, kwargs):
    return {
        "symbols": int(sum(len(s) for s in args[0])),
        "windows": int(out.window_count),
        "pairs": int(out.pair_count),
    }


def _symbols_arg1(out, args, kwargs):
    return {"symbols": len(args[1])}


HOOKS = (
    Hook("cli", "read_sequences", "hsmm.read_sequences", _read_counts),
    Hook("cli", "estimate_moments", "moments.estimate_moments", _moment_counts),
    Hook("cli", "build_observable", "spectral.build_observable"),
    Hook(
        "cli",
        "build_observable_per_t",
        "spectral.build_observable_per_t",
        lambda out, args, kwargs: {"anchors": len(out)},
    ),
    Hook(
        "cli",
        "save_observable",
        "spectral.save_observable",
        lambda out, args, kwargs: {"bytes": os.path.getsize(args[0])},
    ),
    Hook("cli", "load_observable", "spectral.load_observable"),
    Hook("cli", "score_file", "spectral.score_file"),
    Hook("cli", "em_fit", "em.em_fit"),
    Hook("spectral", "infer", "spectral.infer", _symbols_arg1),
    Hook("spectral", "infer_per_t", "spectral.infer_per_t", _symbols_arg1),
    Hook("spectral", "numerical_rank", "tensors.numerical_rank"),
    Hook("_dd", "dd_matmul", "dd.dd_matmul"),
    Hook("_dd", "refined_solve", "dd.refined_solve"),
    Hook("em", "_em_pass", "em.em_pass"),
    Hook("em", "forward_loglik_batch", "em.forward_loglik_batch"),
)

# span name -> metric "<name>_s": busy time per setup or round
TIMED = (
    "hsmm.read_sequences",
    "hsmm.sample_many",
    "hsmm.write_sequences",
    "hsmm.forward_loglik_batch",
    "hsmm.forward_likelihood",
    "moments.analytic_moments",
    "moments.estimate_moments",
    "spectral.build_observable",
    "dd.dd_matmul",
    "dd.refined_solve",
    "tensors.numerical_rank",
    "spectral.score_file",
    "spectral.infer_batch",
    "spectral.save_observable",
    "spectral.load_observable",
    "spectral.build_observable_per_t",
    "spectral.infer_per_t",
    "em.em_fit",
    "em.forward_loglik_batch",
)

# benchmark-opened spans around CLI calls -> metric "<name>_s": self time
SELF_TIMED = ("cli.learn_spectral", "cli.score", "cli.learn_em")

UNITS = {
    **{f"{name}_s": "s" for name in TIMED + SELF_TIMED},
    "hsmm.read_symbols": "count",
    "hsmm.read_symbols_per_s": "symbols/s",
    "moments.symbols_per_s": "symbols/s",
    "moments.windows": "count",
    "moments.pairs": "count",
    "dd.dd_matmul_calls": "count",
    "spectral.kept_rank": "count",
    "spectral.needed_rank": "count",
    "spectral.clamped_frac": "1",
    "spectral.scored_rows": "count",
    "spectral.infer_us_per_symbol_p50": "us",
    "spectral.infer_us_per_symbol_p90": "us",
    "spectral.infer_batch_us_per_symbol": "us",
    "spectral.anchors": "count",
    "container.model_bytes": "bytes",
    "em.iterations": "count",
    "em.s_per_iteration": "s",
    "trace.overhead_frac": "1",
    "trace.top_level_coverage": "1",
    "bench.blas_threads": "count",
    "bench.host_slowdown": "1",
    "bench.attempted": "count",
    "bench.failed_frac": "1",
}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _per_unit(tracer: Tracer, name: str, value) -> list[float]:
    """Per traced unit, the sum of ``value(index, span)`` over spans ``name``."""
    totals: dict[int, float] = {}
    for i, s in enumerate(tracer.spans):
        if s.name == name:
            totals[s.unit] = totals.get(s.unit, 0.0) + value(i, s)
    return list(totals.values())


def _named(tracer: Tracer, name: str):
    return [s for s in tracer.spans if s.name == name]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    tracer: Tracer, blas_threads: int, slowdowns: list, attempted: int, failed: int
) -> dict[str, float]:
    """Reduce the recorded spans to the per-layer metrics, all in ``UNITS``."""
    out: dict[str, float] = {}
    for name in TIMED:
        out[f"{name}_s"] = _median(_per_unit(tracer, name, lambda i, s: s.duration))
    for name in SELF_TIMED:
        out[f"{name}_s"] = _median(
            _per_unit(tracer, name, lambda i, s: tracer.self_time(i))
        )

    def count(name, key):
        return _median(_per_unit(tracer, name, lambda i, s: s.counts.get(key, 0)))

    def total(name, key=None):
        spans = _named(tracer, name)
        if key is None:
            return sum(s.duration for s in spans)
        return sum(s.counts.get(key, 0) for s in spans)

    out["hsmm.read_symbols"] = count("hsmm.read_sequences", "symbols")
    out["hsmm.read_symbols_per_s"] = _ratio(
        total("hsmm.read_sequences", "symbols"), total("hsmm.read_sequences")
    )
    out["moments.symbols_per_s"] = _ratio(
        total("moments.estimate_moments", "symbols"), total("moments.estimate_moments")
    )
    out["moments.windows"] = count("moments.estimate_moments", "windows")
    out["moments.pairs"] = count("moments.estimate_moments", "pairs")
    out["dd.dd_matmul_calls"] = _median(
        _per_unit(tracer, "dd.dd_matmul", lambda i, s: 1.0)
    )

    probes = _named(tracer, "bench.probe")
    out["spectral.kept_rank"] = _median([s.counts["kept_rank"] for s in probes])
    out["spectral.needed_rank"] = _median([s.counts["needed_rank"] for s in probes])
    out["spectral.scored_rows"] = total("bench.check", "scored_rows")
    out["spectral.clamped_frac"] = _ratio(
        total("bench.check", "clamped_rows"), out["spectral.scored_rows"]
    )

    per_symbol = [
        1e6 * s.duration / s.counts["symbols"]
        for s in _named(tracer, "spectral.infer")
        if s.counts.get("symbols")
    ]
    if per_symbol:
        p50, p90 = np.percentile(per_symbol, [50, 90])
    else:
        p50 = p90 = 0.0
    out["spectral.infer_us_per_symbol_p50"] = float(p50)
    out["spectral.infer_us_per_symbol_p90"] = float(p90)
    out["spectral.infer_batch_us_per_symbol"] = 1e6 * _ratio(
        total("spectral.infer_batch"), total("spectral.infer_batch", "symbols")
    )
    out["spectral.anchors"] = count("spectral.build_observable_per_t", "anchors")
    saves = _named(tracer, "spectral.save_observable")
    out["container.model_bytes"] = _median([s.counts.get("bytes", 0) for s in saves])

    passes = len(_named(tracer, "em.em_pass"))
    fits = _named(tracer, "em.em_fit")
    out["em.iterations"] = _ratio(passes, len(fits))
    out["em.s_per_iteration"] = _ratio(sum(s.duration for s in fits), passes)

    out["trace.overhead_frac"] = _overhead(tracer)
    out["trace.top_level_coverage"] = _coverage(tracer)
    out["bench.blas_threads"] = float(blas_threads)
    out["bench.host_slowdown"] = _median(slowdowns)
    out["bench.attempted"] = float(attempted)
    out["bench.failed_frac"] = _ratio(failed, attempted)
    return out


def _round_time(tracer: Tracer, index: int, unit: dict) -> float:
    """Wall time of a round, less the trace-only rank probe."""
    probe = sum(
        s.duration for s in tracer.spans if s.unit == index and s.name == "bench.probe"
    )
    return unit["end"] - unit["start"] - probe


def _overhead(tracer: Tracer) -> float:
    """Median traced round time over median untraced round time, minus one."""
    rounds = [(i, u) for i, u in enumerate(tracer.units) if u["kind"] == "round"]
    traced = [_round_time(tracer, i, u) for i, u in rounds if u["traced"]]
    plain = [_round_time(tracer, i, u) for i, u in rounds if not u["traced"]]
    if not traced or not plain:
        return 0.0
    return _median(traced) / _median(plain) - 1.0


def _coverage(tracer: Tracer) -> float:
    """Share of traced wall time covered by top-level spans."""
    wall = sum(u["end"] - u["start"] for u in tracer.units if u["traced"])
    top = sum(s.duration for s in tracer.spans if s.parent is None)
    return _ratio(top, wall)
