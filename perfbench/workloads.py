"""The benchmark's workloads: set-up, closed-loop rounds and correctness gates.

One caller drives the library from one process; each call waits for the
previous one (a closed loop).  A data workload's round is

    learn-spectral (CLI) -> score (CLI) -> infer_batch (library) -> learn-em (CLI)

and a population workload's round builds each admitted model from its
analytic moments, saves it, scores its random sequences through the CLI and
re-scores them with ``infer_batch``, then runs the same EM step.

The seed draws the scored sequences.  The generating model, the training
files and the held-out accuracy set are fixed per workload: the kept rank,
the EM local optimum and the EM iteration count all change with the
training draw, and the relative error ``|p_hat/p - 1|`` is heavy-tailed, so
an accuracy taken from seeded draws would spread across seeds by more than
any bound the benchmark can hold.  On fixed inputs the accuracy is a
deterministic function of the code, and any change to it shows.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import math
import statistics
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hsmm_spectral import cli, hsmm, moments, spectral, tensors
from hsmm_spectral.bench import relative_errors, rmse

from hostclock import INTERPRETER, WITH_CACHE, HostClock
from spans import Tracer

MODEL_SEED = 1  # generating model of the data workloads
TRAIN_STREAM = 20_260_101  # fixed stream of the training files
ACCURACY_STREAM = 20_260_102  # fixed stream of the held-out accuracy set
LEARN_RTOL = 1e-6  # CLI default
POP_RTOL = 1e-12  # criterion 1
POP_MARGIN = 1e-6  # criterion 1 admission margin
EXACT_BOUND = 1e-8  # criterion 1 bound
AGREE_TOL = 1e-8  # |log p| difference allowed between CLI score and infer_batch
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    dims: tuple[int, int, int]  # (n_o, n_x, n_d)
    why: str
    n_train: int  # spectral training sequences of length t_train (fixed)
    n_em: int  # EM training sequences of length t_em (fixed)
    n_acc: int  # held-out accuracy sequences of length t_acc (fixed)
    t_acc: int
    t_train: int = 100
    t_em: int = 100
    basic: bool = False  # learn-spectral --basic (per-anchor model)
    n_test: int = 0  # scored sequences (seeded), lengths cycling over test_lengths
    test_lengths: tuple[int, int] = (100, 100)
    pop_models: int = 0  # population workload: admitted models per round
    pop_seqs: int = 0  # random sequences per model (seeded), lengths pop_lengths
    pop_lengths: tuple[int, int] = (3, 10)
    # parts of the host-speed reference the calls resemble (``hostclock``):
    # at k = 9 the calls are interpreter-bound; at k = 125 and 512 they also
    # stream model tensors through the shared cache
    reference: tuple[str, ...] = INTERPRETER

    @property
    def population(self) -> bool:
        return self.pop_models > 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cli-k9-bulk",
            (3, 2, 2),
            "k=9: text parsing and counting dominate learn, per-call "
            "interpreter overhead dominates score; build and k x k algebra "
            "are negligible",
            n_train=4000,
            n_em=50,
            n_acc=1000,
            t_acc=100,
            n_test=200,
            test_lengths=(8, 200),
        ),
        Workload(
            "cli-k512-score",
            (8, 3, 9),
            "k=512: every inference step contracts a k x k x n_o tensor that "
            "does not fit in cache; shows the inference kernel, model size "
            "and memory",
            n_train=5000,
            n_em=20,
            t_em=30,
            n_acc=40,
            t_acc=25,
            n_test=16,
            test_lengths=(25, 25),
            reference=WITH_CACHE,
        ),
        Workload(
            "pop-k125-exact",
            (5, 4, 6),
            "k=125: exact build from population moments at full rank r=24; "
            "the compensated pseudo-inverse does nearly all the work",
            n_train=2000,
            n_em=50,
            t_em=20,
            n_acc=300,
            t_acc=20,
            pop_models=2,
            pop_seqs=300,
            reference=WITH_CACHE,
        ),
        Workload(
            "k9-baselines",
            (3, 2, 2),
            "k=9 equal-length data through the second code path: per-anchor "
            "counting and inference, and the EM baseline",
            n_train=4000,
            basic=True,
            n_em=100,
            n_acc=500,
            t_acc=100,
            n_test=100,
        ),
    )
}


def tiny(wl: Workload) -> Workload:
    """A seconds-long version of ``wl`` for the benchmark's own tests."""
    return dataclasses.replace(
        wl,
        n_train=min(wl.n_train, 2000),
        n_em=min(wl.n_em, 20),
        t_em=min(wl.t_em, 30),
        n_acc=min(wl.n_acc, 6 if wl.dims[0] ** 3 > 200 else 40),
        t_acc=min(wl.t_acc, 20),
        n_test=min(wl.n_test, 6 if wl.dims[0] ** 3 > 200 else 40),
        test_lengths=(min(wl.test_lengths[0], 12), min(wl.test_lengths[1], 30)),
        pop_models=min(wl.pop_models, 1),
        pop_seqs=min(wl.pop_seqs, 20),
    )


# ---------------------------------------------------------------------------
# results


TIMED = ("setup_s", "learn_s", "score_seq_per_s", "batch_seq_per_s", "em_learn_s")


@dataclass
class Record:
    """Everything one run measured, before reduction to metrics.

    ``samples[name]`` holds one ``(raw, scaled)`` pair per timed call: the
    wall-clock value and the value scaled to a steady host (``hostclock``).
    """

    samples: dict = dataclasses.field(
        default_factory=lambda: {name: [] for name in TIMED}
    )
    rmse_rel: float = math.nan
    em_rmse_rel: float = math.nan
    max_exact_err: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)

    def add(self, name: str, raw: float, scaled: float) -> None:
        self.samples[name].append((raw, scaled))

    def op(self, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
        return ok

    def gate(self, ok: bool, message: str) -> bool:
        if not ok and message not in self.problems:
            self.problems.append(message)
        return ok


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Context:
    wl: Workload
    tracer: Tracer
    clock: HostClock
    record: Record
    files: dict
    test: list  # scored sequences in file order
    groups: dict  # length -> (row indices, stacked scored sequences)
    acc: np.ndarray  # held-out accuracy set, one sequence per row
    acc_oracle: np.ndarray  # exact log-likelihood of each accuracy sequence
    models: list  # population workload: (moments, sequences file, seqs, oracle)


def _group(seqs) -> dict:
    by_len: dict[int, list[int]] = {}
    for i, s in enumerate(seqs):
        by_len.setdefault(len(s), []).append(i)
    return {
        n: (np.array(idx), np.stack([seqs[i] for i in idx]))
        for n, idx in sorted(by_len.items())
    }


def _sample_test(tr: Tracer, wl: Workload, p, rng) -> list:
    """Scored sequences whose lengths cycle through ``wl.test_lengths``.

    The multiset of lengths is fixed, so every seed scores the same number
    of symbols in the same number of length groups; the seed draws the
    symbols and the order.
    """
    lo, hi = wl.test_lengths
    lengths = rng.permutation(lo + np.arange(wl.n_test) % (hi - lo + 1))
    seqs: list = [None] * wl.n_test
    for n in np.unique(lengths):
        idx = np.flatnonzero(lengths == n)
        with tr.span("hsmm.sample_many"):
            draw = hsmm.sample_many(p, idx.size, int(n), rng)
        for i, row in zip(idx, draw):
            seqs[i] = row
    return seqs


def left_joint_margin(ctx) -> float:
    """Smallest relative singular value of the left-window joint factor."""
    k_bar = np.mean([k.data for k in ctx.k_marginals], axis=0)
    joint = ctx.f_left.data * k_bar[None, :]
    s = np.linalg.svd(joint, compute_uv=False)
    return float(s[min(len(s), joint.shape[1]) - 1] / s[0])


def _admit(tr: Tracer, wl: Workload) -> list:
    """The first ``pop_models`` models criterion 1 admits, with their moments."""
    n_o, n_x, n_d = wl.dims
    sched = moments.build_schedule(n_x, n_d)
    out = []
    seed = 0
    while len(out) < wl.pop_models:
        p = hsmm.random_model(n_o, n_x, n_d, seed=seed)
        seed += 1
        with tr.span("moments.analytic_moments"):
            m, ctx = moments.analytic_moments(p, sched, 2 * n_d + 8)
        if left_joint_margin(ctx) >= POP_MARGIN:
            out.append((p, m))
    return out


def _pop_sequences(tr: Tracer, wl: Workload, admitted, rng, work: Path) -> list:
    """Random symbol sequences per admitted model, with the exact oracle."""
    lo, hi = wl.pop_lengths
    out = []
    for i, (p, m) in enumerate(admitted):
        seqs = [
            rng.integers(0, p.n_o, size=int(n))
            for n in rng.integers(lo, hi + 1, size=wl.pop_seqs)
        ]
        ref = np.empty(len(seqs))
        for j, s in enumerate(seqs):
            with tr.span("hsmm.forward_likelihood"):
                ref[j] = hsmm.forward_likelihood(p, s)[0]
        path = work / f"pop{i}.txt"
        with tr.span("hsmm.write_sequences"):
            hsmm.write_sequences(seqs, path)
        out.append((m, path, seqs, ref))
    return out


def setup(wl: Workload, seed: int, work: Path, tracer: Tracer, clock: HostClock,
          record: Record):
    """Draw the model(s), write the train/EM/test files, compute the oracle."""
    tr = tracer
    tag = zlib.crc32(wl.name.encode())
    train_rng = np.random.default_rng([TRAIN_STREAM, tag])
    acc_rng = np.random.default_rng([ACCURACY_STREAM, tag])
    test_rng = np.random.default_rng([seed, tag])
    files = {
        name: work / name
        for name in ("train.txt", "em.txt", "test.txt", "model.bin", "scores.csv",
                     "em.json")
    }
    pop = []
    if wl.population:
        admitted = _admit(tr, wl)
        truth = admitted[0][0]
        pop = _pop_sequences(tr, wl, admitted, test_rng, work)
    else:
        truth = hsmm.random_model(*wl.dims, seed=MODEL_SEED)
    for name, n, length in (("train.txt", wl.n_train, wl.t_train),
                            ("em.txt", wl.n_em, wl.t_em)):
        with tr.span("hsmm.sample_many"):
            draw = hsmm.sample_many(truth, n, length, train_rng)
        with tr.span("hsmm.write_sequences"):
            hsmm.write_sequences(draw, files[name])
    test = _sample_test(tr, wl, truth, test_rng)
    with tr.span("hsmm.write_sequences"):
        hsmm.write_sequences(test, files["test.txt"])
    with tr.span("hsmm.sample_many"):
        acc = hsmm.sample_many(truth, wl.n_acc, wl.t_acc, acc_rng)
    with tr.span("hsmm.forward_loglik_batch"):
        acc_oracle = hsmm.forward_loglik_batch(truth, acc)
    return Context(
        wl=wl,
        tracer=tracer,
        clock=clock,
        record=record,
        files=files,
        test=test,
        groups=_group(test),
        acc=acc,
        acc_oracle=acc_oracle,
        models=pop,
    )


# ---------------------------------------------------------------------------
# one round


def _cli(ctx: Context, span: str, argv: list) -> tuple[int, float, float]:
    """Run one CLI command in-process; returns (exit code, seconds, scaled)."""
    sink = io.StringIO()

    def call():
        with ctx.tracer.span(span), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            return cli.main([str(a) for a in argv])

    code, dt, scaled = ctx.clock.time(call)
    if code != 0:
        print(f"{span} exited {code}: {sink.getvalue().strip()}", file=sys.stderr)
    return code, dt, scaled


def _read_scores(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    log = np.array([float(r[1]) for r in rows])
    sign = np.array([float(r[2]) for r in rows])
    clamped = np.array([r[3] == "true" for r in rows])
    return log, sign, clamped


def _score(ctx: Context, data_path: Path, n_lines: int):
    """CLI score, with the row-count gate and the failure count of NaN rows.

    Returns ``((log, sign), seconds, scaled)``, with ``None`` scores if it
    failed.
    """
    rec = ctx.record
    scores = ctx.files["scores.csv"]
    code, dt, scaled = _cli(ctx, "cli.score",
                            ["score", "--model", ctx.files["model.bin"],
                             "--data", data_path, "-o", scores])
    if not rec.op(code == 0):
        return None, dt, scaled
    with ctx.tracer.span("bench.check") as s:
        log, sign, clamped = _read_scores(scores)
        rec.gate(len(log) == n_lines,
                 f"score wrote {len(log)} rows for {n_lines} input lines")
        bad = np.isnan(log)
        rec.attempted += len(log)
        rec.failed += int(bad.sum())
        if s is not None:
            s.counts["scored_rows"] = int((~bad).sum())
            s.counts["clamped_rows"] = int((clamped & ~bad).sum())
    return (log, sign), dt, scaled


def _signed_logs(results) -> tuple[np.ndarray, np.ndarray]:
    results = list(results)
    return (np.array([r.log_value for r in results]),
            np.array([r.sign for r in results], dtype=float))


def _batch(ctx: Context, model, groups):
    """``infer_batch`` over length groups; returns (log, sign, seconds, scaled)."""
    n = sum(len(idx) for idx, _ in groups.values())
    log = np.empty(n)
    sign = np.empty(n)

    def call():
        with ctx.tracer.span("bench.batch"):
            for idx, obs in groups.values():
                with ctx.tracer.span("spectral.infer_batch", symbols=int(obs.size)):
                    res = spectral.infer_batch(model, obs)
                log[idx], sign[idx] = _signed_logs(res)

    _, dt, scaled = ctx.clock.time(call)
    ctx.record.op(True)
    return log, sign, dt, scaled


def _agree(rec: Record, cli_scores, log, sign, label: str) -> None:
    c_log, c_sign = cli_scores
    ok = np.array_equal(c_sign, sign) and bool(
        np.all(np.abs(c_log - log) <= AGREE_TOL * np.maximum(1.0, np.abs(log)))
    )
    rec.gate(ok, f"{label}: CLI score and infer_batch disagree beyond {AGREE_TOL}")


def _probe(ctx: Context, model) -> None:
    """Kept rank of the learned transfer against the rank it needs (traced only)."""
    if not ctx.tracer.enabled:
        return
    n_o, n_x, n_d = ctx.wl.dims
    sched = moments.build_schedule(n_x, n_d)
    models = model if isinstance(model, list) else [model]
    with ctx.tracer.span("bench.probe") as s:
        s.counts["kept_rank"] = statistics.median(
            tensors.numerical_rank(m.d_tilde.data, 1e-9) for m in models
        )
        s.counts["needed_rank"] = min(sched.joint_rank, n_o**sched.ell)


def _em(ctx: Context) -> None:
    n_o, n_x, n_d = ctx.wl.dims
    code, dt, scaled = _cli(ctx, "cli.learn_em",
                            ["learn-em", "--data", ctx.files["em.txt"], "--no", n_o,
                             "--nx", n_x, "--nd", n_d, "-o", ctx.files["em.json"]])
    if ctx.record.op(code == 0):
        ctx.record.add("em_learn_s", dt, scaled)


def data_round(ctx: Context) -> None:
    rec = ctx.record
    wl = ctx.wl
    n_o, n_x, n_d = wl.dims
    f = ctx.files
    argv = ["learn-spectral", "--data", f["train.txt"], "--nx", n_x, "--nd", n_d,
            "--no", n_o, "-o", f["model.bin"]]
    if wl.basic:
        argv.insert(1, "--basic")
    code, dt, scaled = _cli(ctx, "cli.learn_spectral", argv)
    if not rec.op(code == 0):
        return
    rec.add("learn_s", dt, scaled)

    n = len(ctx.test)
    scores, dt, scaled = _score(ctx, f["test.txt"], n)
    if scores is None:
        return
    rec.add("score_seq_per_s", n / dt, n / scaled)

    with ctx.tracer.span("spectral.load_observable"):
        model = spectral.load_observable(f["model.bin"])
    # a per-anchor model runs its central anchor's tensors as a stationary model
    batch_model = model[len(model) // 2] if isinstance(model, list) else model
    log, sign, dt, scaled = _batch(ctx, batch_model, ctx.groups)
    rec.add("batch_seq_per_s", n / dt, n / scaled)
    if not wl.basic:
        _agree(rec, scores, log, sign, wl.name)
    _probe(ctx, model)
    _em(ctx)


def pop_round(ctx: Context) -> None:
    rec = ctx.record
    f = ctx.files
    model = None

    def build(m):
        with ctx.tracer.span("spectral.build_observable"):
            return spectral.build_observable(m, POP_RTOL)

    for i, (m, path, seqs, ref) in enumerate(ctx.models):
        try:
            model, dt, scaled = ctx.clock.time(build, m)
        except spectral.DegenerateMoments as exc:
            rec.op(False)
            print(f"model {i}: {exc}", file=sys.stderr)
            continue
        rec.op(True)
        rec.add("learn_s", dt, scaled)
        with ctx.tracer.span("spectral.save_observable") as s:
            spectral.save_observable(f["model.bin"], model)
            if s is not None:
                s.counts["bytes"] = f["model.bin"].stat().st_size
        n = len(seqs)
        scores, dt, scaled = _score(ctx, path, n)
        if scores is None:
            continue
        rec.add("score_seq_per_s", n / dt, n / scaled)
        with ctx.tracer.span("bench.check"):
            worst = float(np.max(relative_errors(scores[0], scores[1], ref)))
            rec.max_exact_err = max(rec.max_exact_err, worst)
            rec.gate(worst <= EXACT_BOUND,
                     f"model {i}: max relative error {worst:.3e} > {EXACT_BOUND}")
        with ctx.tracer.span("spectral.load_observable"):
            loaded = spectral.load_observable(f["model.bin"])
        log, sign, dt, scaled = _batch(ctx, loaded, _group(seqs))
        rec.add("batch_seq_per_s", n / dt, n / scaled)
        _agree(rec, scores, log, sign, f"{ctx.wl.name} model {i}")
    if model is not None:
        _probe(ctx, model)
    _em(ctx)


def run_round(ctx: Context) -> None:
    (pop_round if ctx.wl.population else data_round)(ctx)


# ---------------------------------------------------------------------------
# accuracy on the held-out set, once per run


def accuracy(ctx: Context) -> None:
    """RMSE of ``|p_hat/p - 1|`` of the last learned models on the held-out set.

    The population workload's exact build has no error to report beyond the
    gate, so its spectral accuracy is that of a finite-sample fit of the
    first admitted model's training file.
    """
    rec = ctx.record
    wl = ctx.wl
    f = ctx.files
    if wl.population:
        n_o, n_x, n_d = wl.dims
        try:
            model = spectral.learn_spectral(
                hsmm.read_sequences(f["train.txt"]), n_o,
                moments.build_schedule(n_x, n_d), LEARN_RTOL,
            )
        except spectral.DegenerateMoments as exc:
            rec.op(False)
            rec.gate(False, f"finite-sample fit: {exc}")
            return
        rec.op(True)
    else:
        model = spectral.load_observable(f["model.bin"])
    if isinstance(model, list):
        log, sign = _signed_logs(spectral.infer_per_t(model, s) for s in ctx.acc)
    else:
        log, sign = _signed_logs(spectral.infer_batch(model, ctx.acc))
    rec.rmse_rel = rmse(relative_errors(log, sign, ctx.acc_oracle))
    fitted = hsmm.load_model(f["em.json"])
    log_em = hsmm.forward_loglik_batch(fitted, ctx.acc)
    rec.em_rmse_rel = rmse(relative_errors(log_em, np.ones_like(log_em), ctx.acc_oracle))
