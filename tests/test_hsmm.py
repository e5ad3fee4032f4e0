import itertools
import math

import numpy as np
import pytest

from hsmm_spectral import hsmm
from hsmm_spectral.hsmm import (
    GenerationFailed,
    HsmmParams,
    InvalidModel,
    OracleTooLarge,
    exact_likelihood_enum,
    forward_likelihood,
    forward_loglik_batch,
    initial_joint,
    joint_transition_matrix,
    load_model,
    next_state_table,
    random_model,
    read_sequences,
    sample,
    sample_many,
    save_model,
    validate,
    write_sequences,
)
from hsmm_spectral.tensors import ShapeMismatch

from oracles import (
    enumeration_likelihood,
    hmm_forward_loglik,
    sample_many_per_step,
    segment_likelihood,
)


def model_tuple(p):
    return (p.O, p.X, p.D, p.pi_x, p.initial_duration_table())


def handbuilt_model():
    O = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    X = np.array([[0.6, 0.4], [0.4, 0.6]])
    D = np.full((2, 2), 0.5)
    pi = np.array([0.5, 0.5])
    return HsmmParams(O=O, X=X, D=D, pi_x=pi)


def test_validate_passes_constructed_model():
    rep = validate(handbuilt_model())
    assert rep.ok, str(rep)


def test_validate_flags_zero_duration():
    p = handbuilt_model()
    D = np.array([[1.0, 0.5], [0.0, 0.5]])
    bad = HsmmParams(O=p.O, X=p.X, D=D, pi_x=p.pi_x)
    rep = validate(bad)
    assert not rep.ok
    assert any(c.name.startswith("A2") for c in rep.failed())


def test_validate_flags_wide_hidden_space():
    O = np.full((2, 3), 1.0 / 2)
    X = np.eye(3) * 0.8 + 0.1
    X = X / X.sum(axis=0)
    D = np.full((2, 3), 0.5)
    rep = validate(HsmmParams(O=O, X=X, D=D, pi_x=np.full(3, 1 / 3)))
    assert any(c.name.startswith("A3") and not c.passed for c in rep.checks)


def test_shape_mismatch_raised_on_construction():
    with pytest.raises(ShapeMismatch):
        HsmmParams(O=np.eye(2), X=np.eye(3), D=np.full((2, 2), 0.5), pi_x=np.full(2, 0.5))


def test_random_model_reference_sizes_pass_validation():
    for dims in [(3, 2, 2), (5, 4, 6)]:
        p = random_model(*dims, seed=1)
        assert (p.n_o, p.n_x, p.n_d) == dims
        assert validate(p).ok


def test_random_model_rejects_a3_violation_before_sampling():
    with pytest.raises(InvalidModel):
        random_model(2, 3, 2, seed=0)


def test_random_model_deterministic_and_flagged():
    a = random_model(4, 3, 3, seed=7)
    b = random_model(4, 3, 3, seed=7)
    assert np.array_equal(a.O, b.O) and np.array_equal(a.D, b.D)
    c = random_model(4, 3, 3, seed=7, no_self_transitions=True)
    assert np.all(np.diag(c.X) == 0.0)
    assert validate(c).ok


def test_random_model_impossible_floor_fails():
    with pytest.raises(GenerationFailed):
        random_model(3, 3, 3, seed=0, min_sigma=0.999)


def test_sample_degenerate_single_state():
    p = HsmmParams(
        O=np.array([[0.3], [0.7]]),
        X=np.array([[1.0]]),
        D=np.array([[1.0]]),
        pi_x=np.array([1.0]),
    )
    seq = sample(p, 20, np.random.default_rng(0))
    assert all(h == (0, 1) for h in seq.hidden_states)
    assert seq.observations.shape == (20,)


def test_sample_countdown_branch_is_deterministic():
    p = random_model(4, 2, 4, seed=3)
    seq = sample(p, 200, np.random.default_rng(5))
    for (x0, d0), (x1, d1) in zip(seq.hidden_states, seq.hidden_states[1:]):
        if d0 > 1:
            assert x1 == x0 and d1 == d0 - 1
        else:
            assert 1 <= d1 <= p.n_d


def test_sample_many_matches_marginal_statistics():
    # pooled symbol frequencies across 1e6 emissions vs analytic mixture
    p = random_model(3, 2, 2, seed=11)
    n, T = 10_000, 100
    obs = sample_many(p, n, T, np.random.default_rng(42))
    V = joint_transition_matrix(p)
    k = initial_joint(p)
    mix = np.zeros(p.n_o)
    for _ in range(T):
        mix += p.O @ k.reshape(p.n_d, p.n_x).sum(axis=0)
        k = V @ k
    mix /= T
    counts = np.bincount(obs.reshape(-1), minlength=p.n_o)
    total = n * T
    for s in range(p.n_o):
        sd = math.sqrt(mix[s] * (1 - mix[s]) * total)
        # emissions within a sequence are correlated; allow a mixing margin
        assert abs(counts[s] - mix[s] * total) < 3 * sd * math.sqrt(2 * p.n_d)


def test_sample_many_refuses_what_sample_refuses():
    p = random_model(3, 2, 2, seed=13)
    for n, T, message in ((3, 0, "T must be at least 1"), (-1, 5, "non-negative")):
        with pytest.raises(InvalidModel, match=message):
            sample_many(p, n, T, np.random.default_rng(0))
    with pytest.raises(InvalidModel):
        sample(p, 0, np.random.default_rng(0))
    assert sample_many(p, 0, 5, np.random.default_rng(0)).shape == (0, 5)


@pytest.mark.parametrize("dims", [(3, 2, 2), (8, 3, 9), (4, 1, 3)])
def test_sample_many_matches_per_step_reference(dims):
    p = random_model(*dims, seed=12)
    with_pi_d = HsmmParams(O=p.O, X=p.X, D=p.D, pi_x=p.pi_x, pi_d=p.D[::-1] / p.D[::-1].sum(0))
    for model in (p, with_pi_d):
        for n, T in ((1, 1), (7, 30), (500, 40)):
            got = sample_many(model, n, T, np.random.default_rng([n, T]))
            want = sample_many_per_step(model, n, T, np.random.default_rng([n, T]))
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_enum_likelihood_single_state_product():
    p = HsmmParams(
        O=np.array([[0.3], [0.7]]),
        X=np.array([[1.0]]),
        D=np.array([[1.0]]),
        pi_x=np.array([1.0]),
    )
    obs = [0, 1, 1, 0]
    expect = 0.3 * 0.7 * 0.7 * 0.3
    assert np.isclose(exact_likelihood_enum(p, obs), expect, rtol=1e-15)


def test_enum_likelihood_t1_is_emission_mixture():
    p = random_model(3, 2, 2, seed=2)
    got = exact_likelihood_enum(p, [1])
    assert np.isclose(got, float(p.O[1, :] @ p.pi_x), rtol=1e-14)


def test_enum_likelihood_matches_loop_oracle():
    p = random_model(3, 2, 2, seed=4)
    rng = np.random.default_rng(0)
    for _ in range(5):
        obs = rng.integers(0, 3, size=5)
        got = exact_likelihood_enum(p, obs)
        ref = enumeration_likelihood(model_tuple(p), list(obs))
        assert np.isclose(got, ref, rtol=1e-12)


def test_enum_guards():
    p = random_model(3, 2, 2, seed=4)
    with pytest.raises(OracleTooLarge):
        exact_likelihood_enum(p, [0] * 13)
    big = random_model(5, 4, 6, seed=1)
    with pytest.raises(OracleTooLarge):
        exact_likelihood_enum(big, [0] * 8)


def test_forward_trivial_two_step():
    p = HsmmParams(
        O=np.array([[0.7], [0.3]]),
        X=np.array([[1.0]]),
        D=np.array([[1.0]]),
        pi_x=np.array([1.0]),
    )
    loglik, prob = forward_likelihood(p, [0, 0])
    assert np.isclose(prob, 0.49, rtol=1e-14)
    assert np.isclose(loglik, math.log(0.49), rtol=1e-14)


def test_forward_matches_enum_small_model():
    p = random_model(3, 2, 2, seed=6)
    rng = np.random.default_rng(1)
    for _ in range(10):
        obs = rng.integers(0, 3, size=6)
        loglik, prob = forward_likelihood(p, obs)
        ref = exact_likelihood_enum(p, obs)
        assert np.isclose(prob, ref, rtol=1e-12)


def test_forward_matches_segment_oracle_large_model():
    # the (5,4,6) model is far beyond path enumeration; use the independent
    # run-length segmentation oracle instead
    p = random_model(5, 4, 6, seed=1)
    rng = np.random.default_rng(2)
    for _ in range(3):
        obs = rng.integers(0, 5, size=8)
        loglik, prob = forward_likelihood(p, obs)
        ref = segment_likelihood(model_tuple(p), list(obs))
        assert np.isclose(prob, ref, rtol=1e-12)


def test_forward_matches_hmm_when_durations_trivial():
    p = random_model(4, 3, 1, seed=9)
    rng = np.random.default_rng(3)
    for _ in range(5):
        obs = rng.integers(0, 4, size=12)
        loglik, _ = forward_likelihood(p, obs)
        ref = hmm_forward_loglik(p.O, p.X, p.pi_x, list(obs))
        assert np.isclose(loglik, ref, rtol=1e-12)


def test_forward_explicit_duration_prior_mode():
    base = random_model(3, 2, 3, seed=10)
    pi_d = np.array([[0.7, 0.2], [0.2, 0.3], [0.1, 0.5]])
    p = HsmmParams(O=base.O, X=base.X, D=base.D, pi_x=base.pi_x, pi_d=pi_d)
    obs = [0, 2, 1, 1, 0]
    _, prob = forward_likelihood(p, obs)
    ref = enumeration_likelihood(model_tuple(p), obs)
    assert np.isclose(prob, ref, rtol=1e-12)


def test_forward_sums_to_one_over_all_sequences():
    for dims, seed in [((2, 2, 3), 0), ((3, 2, 2), 1)]:
        p = random_model(*dims, seed=seed)
        total = 0.0
        for obs in itertools.product(range(p.n_o), repeat=6):
            _, prob = forward_likelihood(p, obs)
            total += prob
        assert abs(total - 1.0) < 1e-10


def test_forward_invariant_under_state_relabeling():
    p = random_model(4, 3, 3, seed=12)
    perm = np.array([2, 0, 1])
    q = HsmmParams(
        O=p.O[:, perm],
        X=p.X[np.ix_(perm, perm)],
        D=p.D[:, perm],
        pi_x=p.pi_x[perm],
    )
    rng = np.random.default_rng(4)
    for _ in range(5):
        obs = rng.integers(0, 4, size=15)
        a, _ = forward_likelihood(p, obs)
        b, _ = forward_likelihood(q, obs)
        assert np.isclose(a, b, rtol=1e-12)


def test_forward_batch_agrees_with_scalar():
    p = random_model(3, 2, 2, seed=13)
    obs = sample_many(p, 16, 30, np.random.default_rng(5))
    batch = forward_loglik_batch(p, obs)
    for i in range(16):
        single, _ = forward_likelihood(p, obs[i])
        assert np.isclose(batch[i], single, rtol=1e-12)


def test_sampling_frequency_matches_forward_probability():
    # empirical frequency of a short fixed prefix converges to its probability
    p = random_model(2, 2, 2, seed=14)
    target = (0, 1, 0)
    n = 200_000
    obs = sample_many(p, n, 3, np.random.default_rng(7))
    hits = np.all(obs == np.array(target)[None, :], axis=1).sum()
    _, prob = forward_likelihood(p, list(target))
    sd = math.sqrt(prob * (1 - prob) * n)
    assert abs(hits - prob * n) < 3 * sd + 1


def test_model_json_roundtrip(tmp_path):
    p = random_model(4, 3, 2, seed=15)
    path = tmp_path / "m.json"
    save_model(p, path)
    q = load_model(path)
    assert np.array_equal(p.O, q.O)
    assert np.array_equal(p.X, q.X)
    assert np.array_equal(p.D, q.D)
    assert np.array_equal(p.pi_x, q.pi_x)


def test_sequence_file_roundtrip(tmp_path):
    path = tmp_path / "seqs.txt"
    seqs = [np.array([0, 1, 2]), np.array([3, 0])]
    write_sequences(seqs, path)
    with open(path, "a") as fh:
        fh.write("# trailing comment\n\n")
    back = read_sequences(path)
    assert len(back) == 2
    assert np.array_equal(back[0], seqs[0])
    assert np.array_equal(back[1], seqs[1])
    # rows of a 2-D array, one of them with a multi-digit symbol
    grid = np.array([[0, 12, 3], [40506070809012, 0, 7]])
    write_sequences(grid, path)
    assert path.read_text() == "0 12 3\n40506070809012 0 7\n"
    assert np.array_equal(np.stack(list(read_sequences(path))), grid)


def test_next_state_table_layout():
    p = random_model(3, 2, 3, seed=16)
    t0 = next_state_table(p)
    assert t0.shape == (2, 6)
    assert np.array_equal(t0[:, :2], p.X)
    assert np.array_equal(t0[:, 2:4], np.eye(2))


# tokens the fast path reads, and ones only the per-line parser accepts or rejects
PLAIN_TOKENS = ["0", "1", "2", "7", "10", "007", "1" * 18, "9" * 18]
ODD_TOKENS = ["9223372036854775807", "9223372036854775808", "1" * 19, "1" * 20,
              "+3", "1_0", "-1", "x", "\u0663"]


def fuzzed_file(rng) -> str:
    lines = []
    for _ in range(int(rng.integers(0, 12))):
        kind = rng.random()
        if kind < 0.1:
            line = ""
        elif kind < 0.2:
            line = str(rng.choice([" ", "  ", "\t", " \t "]))
        elif kind < 0.3:
            line = "# 1 2 comment"
        else:
            tokens = [
                str(rng.choice(ODD_TOKENS if rng.random() < 0.03 else PLAIN_TOKENS))
                for _ in range(int(rng.integers(1, 9)))
            ]
            seps = rng.choice([" ", " ", " ", "  ", "\t"], size=len(tokens) + 1)
            line = "".join(sep + tok for sep, tok in zip(seps, tokens))
            line = line.lstrip(" ") if rng.random() < 0.7 else line
            line += str(seps[-1]) if rng.random() < 0.2 else ""
        lines.append(line + str(rng.choice(["\n", "\n", "\r\n"])))
    text = "".join(lines)
    return text[:-1] if text and rng.random() < 0.2 else text


def read_per_line(path):
    """The per-line parser over the whole file, with read_sequences' symbol check."""
    with open(path) as fh:
        seqs, lines, _ = hsmm._parse_lines(fh)
    for seq, line in zip(seqs, lines):
        if (seq < 0).any():
            raise ValueError(f"line {line}: symbol {seq[seq < 0][0]} is negative")
    return seqs, lines


def outcome(read, path):
    try:
        seqs, lines = read(path)
    except ValueError as exc:
        return str(exc)
    values = np.concatenate(list(seqs)) if len(seqs) else np.zeros(0, dtype=np.int64)
    return values.dtype, values.tolist(), [len(s) for s in seqs], list(lines)


def read_blocked(path):
    seqs = read_sequences(path)
    return seqs, seqs.lines


@pytest.mark.parametrize("block", [1, 7, 64, 1 << 16])
def test_tokenizer_matches_per_line_parser(monkeypatch, tmp_path, block):
    monkeypatch.setattr(hsmm, "READ_BLOCK", block)
    fast = []
    parse = hsmm._fast_block
    monkeypatch.setattr(hsmm, "_fast_block", lambda b: fast.append(parse(b)) or fast[-1])
    rng = np.random.default_rng(block)
    path = tmp_path / "seqs.txt"
    texts = ["", "\n", "0", "0 1", "  \t\n# 5\n\n3  4\t5 \r\n", "1 2\r3\n"]
    texts += [fuzzed_file(rng) for _ in range(300)]
    errors = 0
    for text in texts:
        path.write_bytes(text.encode())
        want = outcome(read_per_line, path)
        assert outcome(read_blocked, path) == want, repr(text)
        errors += isinstance(want, str)
    assert 10 < errors < 150
    assert any(f is None for f in fast) and any(f is not None for f in fast)


def test_symbol_beyond_int64_names_its_line(tmp_path):
    path = tmp_path / "seqs.txt"
    path.write_text("0 1\n# x\n2 99999999999999999999 1\n")
    with pytest.raises(ValueError, match="line 3: symbol 99999999999999999999 does not fit"):
        read_sequences(path)
    path.write_text("0 1\n-99999999999999999999\n")
    with pytest.raises(ValueError, match="line 2: symbol -99999999999999999999 does not fit"):
        read_sequences(path)
