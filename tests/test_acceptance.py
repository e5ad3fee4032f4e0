"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Criteria 6-8 sample millions of symbols and take a
few minutes combined; everything else finishes in seconds.
"""

import itertools
import math
import time

import numpy as np
import pytest

from hsmm_spectral.bench import BenchConfig, relative_errors, rmse, run_cell
from hsmm_spectral.em import EmConfig
from hsmm_spectral.hsmm import (
    exact_likelihood_enum,
    forward_likelihood,
    forward_loglik_batch,
    random_model,
    sample_many,
)
from hsmm_spectral.moments import analytic_moments, build_schedule, estimate_moments
from hsmm_spectral.rank_analysis import (
    build_F,
    compute_T_efficient,
    compute_T_sequential,
)
from hsmm_spectral.spectral import (
    build_observable,
    build_observable_per_t,
    infer,
    infer_batch,
)
from hsmm_spectral.tensors import khatri_rao_cols, numerical_rank

GRID_NX = (2, 3, 4)
GRID_ND = (2, 3, 4, 5, 6)
GRID_SEEDS = range(5)


@pytest.fixture
def verdict(capfd):
    """One pass/fail line per criterion, visible despite output capture."""

    def _verdict(num: int, ok: bool, detail: str) -> None:
        with capfd.disabled():
            print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
        assert ok, f"criterion {num}: {detail}"

    return _verdict


def left_joint_margin(ctx) -> float:
    """Smallest relative singular value of the left-window joint factor."""
    k_bar = np.mean([k.data for k in ctx.k_marginals], axis=0)
    joint = ctx.f_left.data * k_bar[None, :]
    s = np.linalg.svd(joint, compute_uv=False)
    return float(s[min(len(s), joint.shape[1]) - 1] / s[0])


def admitted_models(dims, want, margin=1e-6, max_seeds=400):
    """Random models whose observable representation exists with margin.

    The windowed-factor construction requires the left-window factor to be
    invertible; that holds for generic parameters but individual draws can
    sit (numerically) on the degenerate set, where no estimator could
    recover the representation from float64 moments.  Models are admitted
    when the factor clears an explicit margin.
    """
    n_o, n_x, n_d = dims
    sched = build_schedule(n_x, n_d)
    out = []
    scanned = 0
    for seed in range(max_seeds):
        scanned += 1
        p = random_model(n_o, n_x, n_d, seed=seed)
        m, ctx = analytic_moments(p, sched, 2 * n_d + 8)
        if left_joint_margin(ctx) >= margin:
            out.append((p, m))
            if len(out) == want:
                return out, scanned
    raise AssertionError(f"only {len(out)} of {want} models admitted in {scanned}")


def test_criterion_1_population_moment_exactness(verdict):
    # spectral inference on analytic moments reproduces the exact forward
    # likelihood to 1e-8 relative, 20 models x 100 sequences per size
    worst = 0.0
    scanned_total = 0
    for dims in ((3, 2, 2), (5, 4, 6)):
        models, scanned = admitted_models(dims, want=20)
        scanned_total += scanned
        rng = np.random.default_rng(hash(dims) % 2**32)
        for p, m in models:
            model = build_observable(m, rtol=1e-12)
            for _ in range(100):
                T = int(rng.integers(3, 11))
                obs = rng.integers(0, p.n_o, size=T)
                res = infer(model, obs)
                ref, _ = forward_likelihood(p, obs)
                err = abs(res.sign * math.exp(res.log_value - ref) - 1.0)
                worst = max(worst, err)
    verdict(
        1,
        worst <= 1e-8,
        f"max relative error {worst:.3e} <= 1e-8 over 2 sizes x 20 models x "
        f"100 sequences (admitted from {scanned_total} draws)",
    )


def test_criterion_2_oracle_chain(verdict):
    worst = 0.0
    for n_o, n_x, n_d in itertools.product((2, 3), (1, 2), (1, 2, 3)):
        p = random_model(n_o, n_x, n_d, seed=n_o * 100 + n_x * 10 + n_d)
        # exhaustive over short sequences, spot checks at the guard edge
        for obs in itertools.product(range(n_o), repeat=4):
            f, _ = forward_likelihood(p, obs)
            e = exact_likelihood_enum(p, obs)
            worst = max(worst, abs(math.exp(f) / e - 1.0))
        rng = np.random.default_rng(7)
        for T in (6, 8):
            for _ in range(20):
                obs = rng.integers(0, n_o, size=T)
                f, _ = forward_likelihood(p, obs)
                e = exact_likelihood_enum(p, obs)
                worst = max(worst, abs(math.exp(f) / e - 1.0))
        all_t6 = np.array(list(itertools.product(range(n_o), repeat=6)))
        total = float(np.exp(forward_loglik_batch(p, all_t6)).sum())
        assert abs(total - 1.0) < 1e-10, (n_o, n_x, n_d, total)
    verdict(
        2,
        worst <= 1e-12,
        f"forward vs enumeration max relative gap {worst:.3e} <= 1e-12; "
        f"length-6 sums within 1e-10 of one on the full grid",
    )


def test_criterion_3_sequential_rank_table(verdict):
    t0 = time.time()
    checked = 0
    for n_x, n_d, seed in itertools.product(GRID_NX, GRID_ND, GRID_SEEDS):
        p = random_model(n_x + 1, n_x, n_d, seed=seed, min_sigma=0.05)
        for ell in range(1, n_d + 2):
            rep = compute_T_sequential(p, ell)
            assert rep.numerical_rank == min(ell * n_x, n_x * n_d), (
                n_x, n_d, ell, seed, rep.numerical_rank,
            )
            checked += 1
    verdict(
        3,
        True,
        f"{checked} grid cells match min(ell*n_x, n_x*n_d) exactly "
        f"({time.time() - t0:.1f}s)",
    )


def test_criterion_4_efficient_rank_and_schedule(verdict):
    t0 = time.time()
    checked = 0
    for n_x, n_d, seed in itertools.product(GRID_NX, GRID_ND, GRID_SEEDS):
        p = random_model(n_x + 1, n_x, n_d, seed=seed, min_sigma=0.05)
        for ell in range(1, n_d + 2):
            rep = compute_T_efficient(p, ell)
            assert rep.numerical_rank == min(n_x**ell, n_x * n_d), (
                n_x, n_d, ell, seed, rep.numerical_rank,
            )
            checked += 1
        sched = build_schedule(n_x, n_d)
        _, rep = build_F(p, sched.right_offsets)
        assert rep.numerical_rank == n_x * n_d, (n_x, n_d, seed)
        checked += 1
    example = random_model(4, 3, 20, seed=0)
    sched = build_schedule(3, 20)
    assert sched.ell == 4
    assert sched.right_offsets == (0, 11, 17, 19)
    rep = compute_T_efficient(example, 4)
    assert rep.offsets == (0, 11, 17, 19)
    assert rep.numerical_rank == 60
    _, frep = build_F(example, sched.right_offsets)
    assert frep.numerical_rank == 60
    verdict(
        4,
        True,
        f"{checked} efficient/schedule cells match min(n_x**ell, n_x*n_d); "
        f"(n_x=3, n_d=20) example gives ell=4, offsets (0, 11, 17, 19), "
        f"rank 60 ({time.time() - t0:.1f}s)",
    )


def test_criterion_5_khatri_rao_rank_properties(verdict):
    rng = np.random.default_rng(123)
    failures = 0
    # identity products of matrices with no zero columns keep full width
    for _ in range(100):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a = rng.standard_normal((m, n))
        eye = np.eye(n)
        if numerical_rank(khatri_rao_cols(eye, a), 1e-10) != n:
            failures += 1
        if numerical_rank(khatri_rao_cols(a, eye), 1e-10) != n:
            failures += 1
    # block rows against repeated identities add per-column stack ranks
    for _ in range(100):
        m, n, k = (int(rng.integers(2, 5)) for _ in range(3))
        ranks = rng.integers(1, min(m, k) + 1, size=n)
        cols = []
        for r_j in ranks:
            stack = rng.standard_normal((m, r_j)) @ rng.standard_normal((r_j, k))
            while np.linalg.matrix_rank(stack) < r_j:
                stack = rng.standard_normal((m, r_j)) @ rng.standard_normal((r_j, k))
            cols.append(stack)
        blocks = [np.column_stack([cols[j][:, i] for j in range(n)]) for i in range(k)]
        got = numerical_rank(
            khatri_rao_cols(np.hstack(blocks), np.hstack([np.eye(n)] * k)), 1e-10
        )
        if got != min(m * n, int(ranks.sum())):
            failures += 1
    # a fully-weighted combination stays independent of any strict subset
    for _ in range(100):
        n = int(rng.integers(2, 7))
        dim = n + int(rng.integers(0, 4))
        v = rng.standard_normal((dim, n))
        while np.linalg.matrix_rank(v) < n:
            v = rng.standard_normal((dim, n))
        c = rng.uniform(0.2, 1.5, size=n) * rng.choice([-1.0, 1.0], size=n)
        subset = rng.permutation(n)[: n - 1]
        stacked = np.column_stack([v @ c, v[:, subset]])
        if numerical_rank(stacked, 1e-10) != n:
            failures += 1
    verdict(5, failures == 0, f"{failures} failures across 3 x 100 randomized trials")


def test_criterion_6_consistency_trend(verdict):
    t0 = time.time()
    T = 100
    sched = build_schedule(2, 2)
    means = {500: [], 5000: [], 50000: []}
    for seed in range(20):
        truth = random_model(3, 2, 2, seed=seed)
        rng = np.random.default_rng([seed, 77])
        test = sample_many(truth, 200, T, rng)
        log_true = forward_loglik_batch(truth, test)
        for n_train in means:
            train = sample_many(truth, n_train, T, rng)
            model = build_observable(
                estimate_moments(list(train), 3, sched), 1e-6, noise_floor=True
            )
            res = infer_batch(model, test)
            log_hat = np.array([r.log_value for r in res])
            signs = np.array([r.sign for r in res], dtype=float)
            means[n_train].append(rmse(relative_errors(log_hat, signs, log_true)))
    m500 = float(np.mean(means[500]))
    m5k = float(np.mean(means[5000]))
    m50k = float(np.mean(means[50000]))
    ok = m500 > m5k > m50k and m50k <= m500 / 2.0
    verdict(
        6,
        ok,
        f"mean RMSE over 20 seeds: {m500:.3f} (N=500) > {m5k:.3f} (N=5000) > "
        f"{m50k:.3f} (N=50000), improvement {m500 / m50k:.1f}x >= 2x "
        f"({time.time() - t0:.0f}s)",
    )


def test_criterion_7_speed_against_em(verdict):
    cfg = BenchConfig(
        sizes=((3, 2, 2),),
        n_list=(5000,),
        T=100,
        n_test=200,
        seeds=(0,),
        rtol=1e-6,
        em=EmConfig(),  # default budget
    )
    cell = run_cell((3, 2, 2), 5000, 0, cfg)
    spectral = cell["learn_time_spectral"] + cell["infer_time_spectral"]
    em = cell["learn_time_em"] + cell["infer_time_em"]
    ok = cell["status"] == "ok" and em >= 10.0 * spectral
    verdict(
        7,
        ok,
        f"spectral {spectral:.2f}s vs EM {em:.2f}s "
        f"({em / spectral:.0f}x, need >= 10x) at N=5000, T=100",
    )


def test_criterion_8_batched_beats_per_anchor(verdict):
    t0 = time.time()
    T = 100
    sched = build_schedule(2, 2)
    wins = 0
    trials = 20
    for seed in range(trials):
        truth = random_model(3, 2, 2, seed=1000 + seed)
        m_true, _ = analytic_moments(truth, sched, T)
        ref = build_observable(m_true, rtol=1e-12)
        train = sample_many(truth, 500, T, np.random.default_rng([seed, 8]))
        batched = build_observable(
            estimate_moments(list(train), 3, sched), 1e-6, noise_floor=True
        )
        per_t = build_observable_per_t(list(train), 3, sched, 1e-6, noise_floor=True)

        def dist(model):
            return (
                np.linalg.norm(model.d_tilde.data - ref.d_tilde.data)
                + np.linalg.norm(model.x_tilde - ref.x_tilde)
                + np.linalg.norm(model.o_tilde - ref.o_tilde)
            )

        if dist(batched) <= float(np.mean([dist(m) for m in per_t])):
            wins += 1
    ok = wins >= 18
    verdict(
        8,
        ok,
        f"batched tensors closer to analytic truth in {wins}/{trials} trials "
        f"(need >= 18) ({time.time() - t0:.0f}s)",
    )
