"""Tests of the benchmark itself, on seconds-long (``--tiny``) workloads.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostclock  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from hsmm_spectral import spectral  # noqa: E402
from hsmm_spectral.tensors import NamedTensor  # noqa: E402
from spans import Hook, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_code():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.UNITS
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert "setup_s" in names
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
        assert f"{m['name']} = " in proc.stdout


def test_scaled_transfer_trips_the_exactness_gate(tmp_path, monkeypatch):
    wl = workloads.tiny(workloads.WORKLOADS["pop-k125-exact"])
    rec = workloads.Record()
    tracer = Tracer("hsmm_spectral")
    ctx = workloads.setup(wl, 3, tmp_path, tracer, hostclock.HostClock(wl.reference, tracer), rec)
    build = spectral.build_observable

    def perturbed(m, rtol, **kwargs):
        model = build(m, rtol, **kwargs)
        d = model.d_tilde
        return dataclasses.replace(
            model, d_tilde=NamedTensor(d.data * (1.0 + 1e-6), d.labels)
        )

    monkeypatch.setattr(spectral, "build_observable", perturbed)
    workloads.run_round(ctx)
    assert any("max relative error" in p for p in rec.problems), rec.problems


def test_unperturbed_round_passes_the_gates(tmp_path):
    wl = workloads.tiny(workloads.WORKLOADS["pop-k125-exact"])
    rec = workloads.Record()
    tracer = Tracer("hsmm_spectral")
    ctx = workloads.setup(wl, 3, tmp_path, tracer, hostclock.HostClock(wl.reference, tracer), rec)
    workloads.run_round(ctx)
    assert rec.problems == [] and 0 < rec.max_exact_err <= workloads.EXACT_BOUND


def test_clock_scales_by_the_reference_around_the_call(monkeypatch):
    clock = hostclock.HostClock()
    slowdowns = iter([2.0, 4.0])
    monkeypatch.setattr(clock, "reference", lambda: next(slowdowns))
    out, seconds, scaled = clock.time(sum, range(1000))
    assert out == 499500
    assert clock.slowdowns == [pytest.approx(3.0)]
    assert scaled == pytest.approx(seconds / 3.0)


def test_missing_layer_is_absent_not_fatal():
    tracer = Tracer("hsmm_spectral")
    hooks = (Hook("no_such_module", "f", "gone.f"), Hook("spectral", "gone", "gone.g"))
    with tracer.unit("round", hooks):
        pass
    assert tracer.absent == ["gone.f", "gone.g"]


def test_spans_nest_and_self_time_excludes_children():
    tracer = Tracer("hsmm_spectral")
    with tracer.unit("round", layers.HOOKS):
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(10_000))
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent is None
    assert tracer.self_time(0) == pytest.approx(outer.duration - inner.duration)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("cli-k9-bulk", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
