"""Synthetic benchmark: spectral vs EM accuracy and wall-clock.

Every (model size, training-set size, seed) cell draws its own ground-truth
model, samples train/test sets, learns both ways, and scores each test
sequence by the relative deviation of its estimated probability from the
exact likelihood under the generating model.  Cells are deterministic given
their seed; timing columns are the only non-reproducible output.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .em import EmConfig, em_fit
from .hsmm import InvalidModel, forward_loglik_batch, random_model, sample_many
from .moments import InsufficientData, build_schedule
from .spectral import DegenerateMoments, infer_batch, learn_spectral

DEFAULT_SIZES = ((3, 2, 2), (5, 4, 6))
DEFAULT_N_LIST = (500, 1000, 5000, 10_000, 100_000)

# what a cell measures, NaN where it did not run; a row holds each one's mean
# over the seeds that have it
METRICS = (
    "rmse_spectral",
    "rmse_em",
    "learn_time_spectral",
    "learn_time_em",
    "infer_time_spectral",
    "infer_time_em",
)
CSV_COLUMNS = ("n_o", "n_x", "n_d", "n_train", "seeds", *METRICS, "status")


def _positive_ints(values) -> bool:
    return all(isinstance(v, numbers.Integral) and v > 0 for v in values)


@dataclass(frozen=True)
class BenchConfig:
    """What ``bench`` runs; its fields are the run's record.

    ``sizes`` are ``(n_o, n_x, n_d)`` triples and ``n_list`` the training
    set sizes.  EM runs on training sets of at most ``em_max_n`` sequences:
    on every one when it is None, on none when it is 0.  Each cell seeds EM
    with ``em.seed`` plus its own seed.
    """

    sizes: tuple = DEFAULT_SIZES
    n_list: tuple = DEFAULT_N_LIST
    T: int = 100
    n_test: int = 1000
    seeds: tuple = (0, 1, 2)
    rtol: float = 1e-6
    em: EmConfig = field(default_factory=EmConfig)
    em_max_n: int | None = None

    def __post_init__(self):
        if not self.rtol > 0:  # NaN too
            raise InvalidModel(f"rtol must be positive, got {self.rtol!r}")
        if not self.sizes or not all(
            len(s) == 3 and _positive_ints(s) and s[1] <= s[0] for s in self.sizes
        ):
            raise InvalidModel(
                f"sizes must be (n_o, n_x, n_d) triples of positive integers "
                f"with n_x <= n_o, got {self.sizes!r}"
            )
        if not self.n_list or not _positive_ints(self.n_list):
            raise InvalidModel(f"n_list must hold positive integers, got {self.n_list!r}")
        for name in ("T", "n_test"):
            if getattr(self, name) < 1:
                raise InvalidModel(f"{name} must be at least 1")
        if not self.seeds:
            raise InvalidModel("seeds must not be empty")
        if min(self.seeds) < 0:
            raise InvalidModel(f"seeds must be non-negative, got {self.seeds!r}")


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
            writer.writerows(self.rows)
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
    """One cell's :data:`METRICS` and status; spectral degeneracy is recorded, not raised."""
    n_o, n_x, n_d = size
    truth = random_model(n_o, n_x, n_d, seed=seed)
    rng = np.random.default_rng([n_o, n_x, n_d, n_train, seed])
    train = sample_many(truth, n_train, cfg.T, rng)
    test = sample_many(truth, cfg.n_test, cfg.T, rng)
    log_true = forward_loglik_batch(truth, test)
    out = dict.fromkeys(METRICS, math.nan)
    out["status"] = "ok"
    try:
        t0 = time.perf_counter()
        model = learn_spectral(train, n_o, build_schedule(n_x, n_d), cfg.rtol)
        out["learn_time_spectral"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        results = infer_batch(model, test)
        out["infer_time_spectral"] = time.perf_counter() - t0
        log_hat, signs = np.array([(r.log_value, r.sign) for r in results], dtype=float).T
        out["rmse_spectral"] = rmse(relative_errors(log_hat, signs, log_true))
    except (DegenerateMoments, InsufficientData) as exc:
        out["status"] = f"spectral-degenerate: {exc}"
    if cfg.em_max_n is None or n_train <= cfg.em_max_n:
        t0 = time.perf_counter()
        em_cfg = dataclasses.replace(cfg.em, seed=cfg.em.seed + seed)
        fitted, _ = em_fit(train, n_o, n_x, n_d, em_cfg)
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
            row = dict(zip(("n_o", "n_x", "n_d"), size), n_train=n_train,
                       seeds=len(cfg.seeds))
            for key in METRICS:
                vals = [c[key] for c in cells if not math.isnan(c[key])]
                row[key] = float(np.mean(vals)) if vals else math.nan
            row["status"] = ";".join(sorted({c["status"] for c in cells}))
            rows.append(row)
    return BenchReport(rows=tuple(rows), config=dataclasses.asdict(cfg))
