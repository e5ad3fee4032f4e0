import json
import math

import numpy as np
import pytest

from hsmm_spectral.bench import (
    BenchConfig,
    preset,
    relative_errors,
    rmse,
    run_cell,
    run_synthetic_bench,
)
from hsmm_spectral.em import EmConfig
from hsmm_spectral.hsmm import InvalidModel


def small_config(**overrides):
    base = dict(
        sizes=((3, 2, 2),),
        n_list=(200, 800),
        T=30,
        n_test=40,
        seeds=(0, 1),
        rtol=1e-6,
        em=EmConfig(max_iter=10, tol=1e-6, restarts=1, seed=0),
    )
    base.update(overrides)
    return BenchConfig(**base)


def test_presets():
    small = preset("paper-small")
    assert small.n_list == (500, 5000, 50_000)
    assert small.n_test == 200
    full = preset("paper-full")
    assert full.n_list == (500, 1000, 5000, 10_000, 100_000)
    assert full.n_test == 1000


def test_relative_error_log_domain():
    log_true = np.array([math.log(0.25)])
    assert np.isclose(
        relative_errors(np.array([math.log(0.30)]), np.array([1.0]), log_true)[0],
        0.2,
    )
    # negative estimates count their full signed deviation
    assert np.isclose(
        relative_errors(np.array([math.log(0.25)]), np.array([-1.0]), log_true)[0],
        2.0,
    )
    assert np.isclose(rmse(np.array([3.0, 4.0])), math.sqrt(12.5))


def test_cell_is_deterministic_apart_from_timing():
    cfg = small_config(em_max_n=0)
    a = run_cell((3, 2, 2), 200, 0, cfg)
    b = run_cell((3, 2, 2), 200, 0, cfg)
    assert a["rmse_spectral"] == b["rmse_spectral"]
    assert a["status"] == b["status"]


def test_cell_records_a_spectral_fit_its_length_cannot_host():
    # (3, 2, 2)'s windows need rows of 6: the cell records the refusal, and EM still runs
    cell = run_cell((3, 2, 2), 50, 0, small_config(T=5))
    assert cell["status"] == (
        "spectral-degenerate: no sequence hosts a full window placement; need length >= 6"
    )
    assert math.isnan(cell["rmse_spectral"]) and math.isnan(cell["learn_time_spectral"])
    assert math.isfinite(cell["rmse_em"])


def test_report_shape_and_content(tmp_path):
    cfg = small_config()
    report = run_synthetic_bench(cfg)
    assert len(report.rows) == 2
    for row in report.rows:
        assert row["status"] == "ok"
        assert row["rmse_spectral"] > 0
        assert row["rmse_em"] > 0
        assert row["learn_time_em"] > row["learn_time_spectral"] * 0  # timed
    out = tmp_path / "report.csv"
    report.to_csv(out)
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("n_o,n_x,n_d,n_train,seeds,rmse_spectral")
    # the record is the config's fields
    assert json.loads((tmp_path / "report.csv.config.json").read_text()) == {
        "sizes": [[3, 2, 2]],
        "n_list": [200, 800],
        "T": 30,
        "n_test": 40,
        "seeds": [0, 1],
        "rtol": 1e-6,
        "em": {"max_iter": 10, "tol": 1e-6, "restarts": 1, "seed": 0},
        "em_max_n": None,
    }


def test_em_seed_offsets_every_cell_and_is_recorded(tmp_path):
    # each cell seeds EM with em.seed plus its own seed; the spectral columns
    # do not read it
    runs = {}
    for em_seed in (0, 5):
        em = EmConfig(max_iter=10, tol=1e-6, restarts=1, seed=em_seed)
        report = run_synthetic_bench(small_config(n_list=(200,), seeds=(0,), em=em))
        report.to_csv(tmp_path / f"{em_seed}.csv")
        config = json.loads((tmp_path / f"{em_seed}.csv.config.json").read_text())
        assert config["em"]["seed"] == em_seed
        runs[em_seed] = report.rows[0]
    assert runs[0]["rmse_spectral"] == runs[5]["rmse_spectral"]
    assert runs[0]["rmse_em"] != runs[5]["rmse_em"]


def test_negative_seeds_are_refused():
    for make, message in ((lambda: small_config(seeds=(0, -1)), "seeds must be non-negative"),
                          (lambda: EmConfig(seed=-1), "seed must be non-negative, got -1")):
        with pytest.raises(InvalidModel, match=message):
            make()


def test_more_data_helps_spectral():
    cfg = small_config(
        n_list=(300, 30_000), T=40, n_test=100, seeds=(0, 1, 2), em_max_n=0
    )
    report = run_synthetic_bench(cfg)
    rows = {r["n_train"]: r for r in report.rows}
    assert rows[30_000]["rmse_spectral"] < rows[300]["rmse_spectral"]


def test_em_skipped_above_cap():
    cfg = small_config(n_list=(200, 800), em_max_n=200)
    report = run_synthetic_bench(cfg)
    rows = {r["n_train"]: r for r in report.rows}
    assert not math.isnan(rows[200]["rmse_em"])
    assert math.isnan(rows[800]["rmse_em"])
