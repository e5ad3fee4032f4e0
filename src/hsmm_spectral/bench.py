"""Synthetic benchmark: spectral vs EM accuracy and wall-clock.

Every (model size, training-set size, seed) cell draws its own ground-truth
model, samples train/test sets, learns both ways, and scores each test
sequence by the relative deviation of its estimated probability from the
exact likelihood under the generating model.  Cells are deterministic given
their seed; timing columns are the only non-reproducible output.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .em import EmConfig, em_fit
from .hsmm import InvalidModel, forward_loglik_batch, random_model, sample_many
from .moments import InsufficientData, build_schedule, estimate_moments
from .spectral import DegenerateMoments, build_observable, infer_batch

DEFAULT_SIZES = ((3, 2, 2), (5, 4, 6))
DEFAULT_N_LIST = (500, 1000, 5000, 10_000, 100_000)

CSV_COLUMNS = [
    "n_o",
    "n_x",
    "n_d",
    "n_train",
    "seeds",
    "rmse_spectral",
    "rmse_em",
    "learn_time_spectral",
    "learn_time_em",
    "infer_time_spectral",
    "infer_time_em",
    "status",
]


@dataclass(frozen=True)
class BenchConfig:
    sizes: tuple = DEFAULT_SIZES
    n_list: tuple = DEFAULT_N_LIST
    T: int = 100
    n_test: int = 1000
    seeds: tuple = (0, 1, 2)
    rtol: float = 1e-6
    em: EmConfig = field(default_factory=EmConfig)
    run_em: bool = True
    em_max_n: int | None = None  # skip EM on larger training sets

    def __post_init__(self):
        if self.rtol <= 0:
            raise InvalidModel("rtol must be positive")
        if self.T < 1:
            raise InvalidModel("T must be at least 1")
        if self.n_test < 1:
            raise InvalidModel("n_test must be at least 1")
        if not self.seeds:
            raise InvalidModel("seeds must not be empty")


def preset(name: str) -> BenchConfig:
    """Named configurations; ``paper-small`` fits a coffee break."""
    if name == "paper-full":
        return BenchConfig()
    if name == "paper-small":
        return BenchConfig(
            n_list=(500, 5000, 50_000),
            n_test=200,
            em_max_n=5000,
        )
    raise ValueError(f"unknown preset {name!r}")


@dataclass(frozen=True)
class BenchReport:
    rows: tuple
    config: dict

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            for row in self.rows:
                writer.writerow({k: row[k] for k in CSV_COLUMNS})
        with open(str(path) + ".config.json", "w") as fh:
            json.dump(self.config, fh, indent=1)
            fh.write("\n")


def relative_errors(log_hat: np.ndarray, signs: np.ndarray, log_true: np.ndarray):
    """``|p_hat - p| / p`` computed in the log domain on the raw signed value."""
    ratio = signs * np.exp(log_hat - log_true)
    return np.abs(ratio - 1.0)


def rmse(errors: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(errors))))


def run_cell(size, n_train, seed, cfg: BenchConfig) -> dict:
    """One benchmark cell; spectral degeneracy is recorded, not raised."""
    n_o, n_x, n_d = size
    truth = random_model(n_o, n_x, n_d, seed=seed)
    rng = np.random.default_rng([n_o, n_x, n_d, n_train, seed])
    train = sample_many(truth, n_train, cfg.T, rng)
    test = sample_many(truth, cfg.n_test, cfg.T, rng)
    log_true = forward_loglik_batch(truth, test)
    out = {
        "rmse_spectral": math.nan,
        "rmse_em": math.nan,
        "learn_time_spectral": math.nan,
        "learn_time_em": math.nan,
        "infer_time_spectral": math.nan,
        "infer_time_em": math.nan,
        "status": "ok",
    }
    sched = build_schedule(n_x, n_d)
    try:
        t0 = time.perf_counter()
        moments = estimate_moments(train, n_o, sched)
        model = build_observable(moments, cfg.rtol, noise_floor=True)
        out["learn_time_spectral"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        results = infer_batch(model, test)
        out["infer_time_spectral"] = time.perf_counter() - t0
        log_hat = np.array([r.log_value for r in results])
        signs = np.array([r.sign for r in results], dtype=float)
        out["rmse_spectral"] = rmse(relative_errors(log_hat, signs, log_true))
    except (DegenerateMoments, InsufficientData) as exc:
        out["status"] = f"spectral-degenerate: {exc}"
    if cfg.run_em and (cfg.em_max_n is None or n_train <= cfg.em_max_n):
        em_cfg = EmConfig(
            max_iter=cfg.em.max_iter,
            tol=cfg.em.tol,
            restarts=cfg.em.restarts,
            seed=seed,
        )
        t0 = time.perf_counter()
        fitted, _ = em_fit(list(train), n_o, n_x, n_d, em_cfg)
        out["learn_time_em"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        log_em = forward_loglik_batch(fitted, test)
        out["infer_time_em"] = time.perf_counter() - t0
        out["rmse_em"] = rmse(relative_errors(log_em, np.ones_like(log_em), log_true))
    return out


def run_synthetic_bench(cfg: BenchConfig, progress=None) -> BenchReport:
    """Aggregate cells over seeds into one row per (size, n_train)."""
    rows = []
    for size in cfg.sizes:
        for n_train in cfg.n_list:
            cells = []
            for seed in cfg.seeds:
                if progress:
                    progress(f"size={size} N={n_train} seed={seed}")
                cells.append(run_cell(size, n_train, seed, cfg))
            row = {
                "n_o": size[0],
                "n_x": size[1],
                "n_d": size[2],
                "n_train": n_train,
                "seeds": len(cfg.seeds),
                "status": ";".join(
                    sorted({c["status"] for c in cells})
                ),
            }
            for key in (
                "rmse_spectral",
                "rmse_em",
                "learn_time_spectral",
                "learn_time_em",
                "infer_time_spectral",
                "infer_time_em",
            ):
                vals = [c[key] for c in cells if not math.isnan(c[key])]
                row[key] = float(np.mean(vals)) if vals else math.nan
            rows.append(row)
    config = {
        "sizes": [list(s) for s in cfg.sizes],
        "n_list": list(cfg.n_list),
        "T": cfg.T,
        "n_test": cfg.n_test,
        "seeds": list(cfg.seeds),
        "rtol": cfg.rtol,
        "em": {
            "max_iter": cfg.em.max_iter,
            "tol": cfg.em.tol,
            "restarts": cfg.em.restarts,
        },
        "run_em": cfg.run_em,
        "em_max_n": cfg.em_max_n,
    }
    return BenchReport(rows=tuple(rows), config=config)
