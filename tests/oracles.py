"""Independent reference implementations used as test oracles.

Everything here is deliberately written in the most direct way possible
(loops, exhaustive enumeration, textbook recursions) and shares no code with
the library, so agreement is meaningful.
"""

import itertools

import numpy as np


# ---------------------------------------------------------------------------
# tensor-layer oracles


def loop_khatri_rao(a, b):
    """Column-wise Khatri-Rao by explicit per-column Kronecker products."""
    m, n = a.shape
    k = b.shape[0]
    out = np.zeros((m * k, n))
    for j in range(n):
        out[:, j] = np.kron(a[:, j], b[:, j])
    return out


# ---------------------------------------------------------------------------
# model-layer oracles (all use column-stochastic O, X, D as in the library)


def joint_step_probability(X, D, x_prev, d_prev, x, d):
    """One-step latent transition probability p(x, d | x_prev, d_prev).

    Durations are 1-based here (d == 1 means renewal next step).
    """
    if d_prev > 1:
        return float(x == x_prev) * float(d == d_prev - 1)
    return X[x, x_prev] * D[d - 1, x]


def enumeration_likelihood(model_tuple, obs):
    """Likelihood by exhaustive summation over all latent (x, d) paths.

    ``model_tuple`` is (O, X, D, pi_x, pi_d) with pi_d an (n_d, n_x) table
    for the initial duration draw.  Pure nested loops; exponential cost.
    """
    O, X, D, pi_x, pi_d = model_tuple
    n_x = X.shape[0]
    n_d = D.shape[0]
    T = len(obs)
    total = 0.0
    for path in itertools.product(range(n_x * n_d), repeat=T):
        states = [(s % n_x, s // n_x + 1) for s in path]  # (x, d) with d 1-based
        x0, d0 = states[0]
        p = pi_x[x0] * pi_d[d0 - 1, x0] * O[obs[0], x0]
        for t in range(1, T):
            if p == 0.0:
                break
            xp, dp = states[t - 1]
            x, d = states[t]
            p *= joint_step_probability(X, D, xp, dp, x, d) * O[obs[t], x]
        total += p
    return total


def segment_likelihood(model_tuple, obs):
    """Likelihood by enumeration over run-length segmentations.

    Decomposes the sequence into renewal segments (compositions of T with
    parts at most n_d; the final segment may be truncated, contributing the
    duration tail mass).  States along a segmentation are summed with a
    per-segment transfer chain.  Independent of the (x, d)-lattice forward
    recursion and of full path enumeration.
    """
    O, X, D, pi_x, pi_d = model_tuple
    n_d = D.shape[0]
    T = len(obs)

    def compositions(total):
        if total == 0:
            yield ()
            return
        for first in range(1, min(n_d, total) + 1):
            for rest in compositions(total - first):
                yield (first,) + rest

    tail_d = np.cumsum(D[::-1], axis=0)[::-1]  # tail_d[m-1, x] = P(dur >= m)
    tail_pi = np.cumsum(pi_d[::-1], axis=0)[::-1]
    total = 0.0
    for comp in compositions(T):
        seg_emissions = []
        pos = 0
        for length in comp:
            e = np.ones(O.shape[1])
            for t in range(pos, pos + length):
                e = e * O[obs[t], :]
            seg_emissions.append(e)
            pos += length
        # duration factor: exact for completed segments, tail mass for the
        # final (possibly truncated) one; the first draw uses the prior
        last = len(comp) - 1
        first_dur = tail_pi[comp[0] - 1, :] if last == 0 else pi_d[comp[0] - 1, :]
        v = pi_x * first_dur * seg_emissions[0]
        for k in range(1, len(comp)):
            length = comp[k]
            dur = tail_d[length - 1, :] if k == last else D[length - 1, :]
            v = (X @ v) * dur * seg_emissions[k]
        total += v.sum()
    return total


def hmm_forward_loglik(O, X, pi, obs):
    """Scaled forward algorithm for a plain HMM (n_d == 1 reduction)."""
    alpha = pi * O[obs[0], :]
    loglik = 0.0
    for t in range(1, len(obs) + 1):
        c = alpha.sum()
        loglik += np.log(c)
        alpha = alpha / c
        if t < len(obs):
            alpha = (X @ alpha) * O[obs[t], :]
    return loglik


def hmm_baum_welch(O, X, pi, sequences, n_iter):
    """Textbook Baum-Welch for a plain HMM, column-stochastic parameters.

    Returns updated (O, X, pi) and the log-likelihood trace (evaluated at the
    parameters *before* each update).
    """
    O = O.copy()
    X = X.copy()
    pi = pi.copy()
    n_o, n_x = O.shape
    trace = []
    for _ in range(n_iter):
        O_acc = np.zeros_like(O)
        X_acc = np.zeros_like(X)
        pi_acc = np.zeros_like(pi)
        loglik = 0.0
        for obs in sequences:
            T = len(obs)
            alpha = np.zeros((T, n_x))
            beta = np.zeros((T, n_x))
            scale = np.zeros(T)
            alpha[0] = pi * O[obs[0], :]
            scale[0] = alpha[0].sum()
            alpha[0] /= scale[0]
            for t in range(1, T):
                alpha[t] = (X @ alpha[t - 1]) * O[obs[t], :]
                scale[t] = alpha[t].sum()
                alpha[t] /= scale[t]
            beta[T - 1] = 1.0
            for t in range(T - 2, -1, -1):
                beta[t] = X.T @ (beta[t + 1] * O[obs[t + 1], :]) / scale[t + 1]
            loglik += float(np.sum(np.log(scale)))
            gamma = alpha * beta
            gamma /= gamma.sum(axis=1, keepdims=True)
            pi_acc += gamma[0]
            for t in range(T):
                O_acc[obs[t], :] += gamma[t]
            for t in range(T - 1):
                xi = (
                    X
                    * alpha[t][None, :]
                    * (beta[t + 1] * O[obs[t + 1], :])[:, None]
                    / scale[t + 1]
                )
                X_acc += xi
        trace.append(loglik)
        O = O_acc / O_acc.sum(axis=0, keepdims=True)
        X = X_acc / X_acc.sum(axis=0, keepdims=True)
        pi = pi_acc / pi_acc.sum()
    return O, X, pi, trace


def brute_window_joint(model_tuple, position_groups, T):
    """Joint probability tables of observations at selected positions.

    Enumerates all latent paths of length ``T`` (vectorized over a flat path
    array) and accumulates, for every group of positions, the exact joint
    distribution of the symbols there.  Returns one dense array per group,
    indexed in ascending position order (earliest position slowest).
    """
    O, X, D, pi_x, pi_d = model_tuple
    n_x = X.shape[0]
    n_d = D.shape[0]
    n_o = O.shape[0]
    S = n_x * n_d
    V = np.zeros((S, S))
    for xp in range(n_x):
        for dp in range(1, n_d + 1):
            for x in range(n_x):
                for d in range(1, n_d + 1):
                    V[(d - 1) * n_x + x, (dp - 1) * n_x + xp] = joint_step_probability(
                        X, D, xp, dp, x, d
                    )
    k1 = np.zeros(S)
    for x in range(n_x):
        for d in range(1, n_d + 1):
            k1[(d - 1) * n_x + x] = pi_x[x] * pi_d[d - 1, x]

    # path probabilities and per-time state index, flat over S**T paths
    probs = k1.copy()
    states = [np.arange(S)]
    for _ in range(1, T):
        probs = (probs[:, None] * V.T[states[-1], :]).reshape(-1)
        states = [np.repeat(s, S) for s in states]
        states.append(np.tile(np.arange(S), len(probs) // S))
    xs = [s % n_x for s in states]

    out = []
    for group in position_groups:
        shape = (n_o,) * len(group)
        table = np.zeros(shape)
        for sym_tuple in itertools.product(range(n_o), repeat=len(group)):
            w = probs.copy()
            for sym, pos in zip(sym_tuple, group):
                w = w * O[sym, xs[pos]]
            table[sym_tuple] = w.sum()
        out.append(table)
    return out


# ---------------------------------------------------------------------------
# sampling oracle


def sample_many_per_step(p, n_sequences, T, rng):
    """Vectorized sampling that forms each cumulative table anew at every step.

    Draws from the same uniforms in the order ``hsmm.sample_many``'s
    docstring states, so the two agree exactly, and leave the generator in
    the same state.
    """

    def draw(table, cols):
        cum = np.cumsum(table[:, cols], axis=0)
        u = rng.random(cols.shape[0])
        return np.minimum((u[None, :] > cum).sum(axis=0), table.shape[0] - 1)

    pi_d = p.D if p.pi_d is None else p.pi_d
    obs = np.empty((n_sequences, T), dtype=np.int64)
    x = draw(p.pi_x[:, None], np.zeros(n_sequences, dtype=int))
    d = draw(pi_d, x) + 1
    for t in range(T):
        if t > 0:
            renew = d == 1
            d = d - 1
            if np.any(renew):
                xr = draw(p.X, x[renew])
                x[renew] = xr
                d[renew] = draw(p.D, xr) + 1
        obs[:, t] = draw(p.O, x)
    return obs


def pick_reference(cuts, cols, u):
    """The count of cut points below each uniform, from column-major ``cuts``.

    ``cuts[c]`` holds column ``c``'s running sums but the total, so this is
    ``hsmm._pick`` on the transposed table, by a fancy-indexed gather and a
    bool sum over the cut axis.
    """
    return (u[:, None] > cuts[cols]).sum(axis=1)


def sample_reference(p, T, rng):
    """One sequence, drawn by ``rng.choice`` at every step.

    ``rng.choice`` reads one uniform per draw and takes the first index
    whose normalized running sum exceeds it, so this reads the uniforms of
    a one-row ``hsmm.sample_many`` in the same order and agrees with it
    unless a uniform falls within rounding of a running sum.
    """
    pi_d = p.D if p.pi_d is None else p.pi_d
    obs = []
    x = int(rng.choice(p.n_x, p=p.pi_x))
    d = int(rng.choice(p.n_d, p=pi_d[:, x])) + 1
    for t in range(T):
        if t > 0:
            if d > 1:
                d -= 1
            else:
                x = int(rng.choice(p.n_x, p=p.X[:, x]))
                d = int(rng.choice(p.n_d, p=p.D[:, x])) + 1
        obs.append(int(rng.choice(p.n_o, p=p.O[:, x])))
    return np.array(obs, dtype=np.int64)


# ---------------------------------------------------------------------------
# sequence-file oracle


def write_sequences_reference(sequences, path):
    """The per-row writer ``hsmm.write_sequences`` replaced: one ``join`` of ``str`` per row."""
    with open(path, "w") as fh:
        for seq in sequences:
            fh.write(" ".join(map(str, np.asarray(seq, dtype=np.int64).tolist())))
            fh.write("\n")


# ---------------------------------------------------------------------------
# EM pass oracle
#
# The per-step E+M pass that ``em._em_pass`` replaced: every statistic is
# accumulated inside the backward loop, one time step at a time.  It builds
# the lattice from the library's own tables, so agreement checks the
# restructured arithmetic, not the lattice.  Groups are not chunked.


def em_pass_reference(p, groups):
    """One E+M step over sequence groups; returns (updated, loglik before)."""
    from hsmm_spectral.em import _normalize_columns
    from hsmm_spectral.hsmm import (
        HsmmParams,
        emissions_on_joint,
        initial_joint,
        renewal_kernel,
    )

    n_x, n_d, n_o = p.n_x, p.n_d, p.n_o
    S = p.n_joint
    V = renewal_kernel(p.X, p.D)
    em = emissions_on_joint(p)  # [symbol, (x, d)]
    k1 = initial_joint(p)
    o_acc = np.zeros((n_o, n_x))
    x_acc = np.zeros((n_x, n_x))
    d_acc = np.zeros((n_d, n_x))
    pi_acc = np.zeros(n_x)
    loglik = 0.0
    for obs in groups:
        n, T = obs.shape
        alphas = np.empty((T, n, S))
        scales = np.empty((T, n))
        a = k1[None, :] * em[obs[:, 0], :]
        for t in range(T):
            c = a.sum(axis=1)
            scales[t] = c
            a = a / c[:, None]
            alphas[t] = a
            if t < T - 1:
                a = (a @ V.T) * em[obs[:, t + 1], :]
        loglik += float(np.sum(np.log(scales)))
        beta = np.ones((n, S))
        gamma0 = None
        for t in range(T - 1, -1, -1):
            if t < T - 1:
                b_next = beta * em[obs[:, t + 1], :] / scales[t + 1][:, None]
                # renewal statistics for the t -> t+1 step
                a_renew = alphas[t][:, :n_x]  # d == 1 block
                b_cube = b_next.reshape(n, n_d, n_x)
                w = np.einsum("ndx,dx->nx", b_cube, p.D)
                x_acc += p.X * (w.T @ a_renew)
                u = a_renew @ p.X.T
                d_acc += p.D * np.einsum("ndx,nx->dx", b_cube, u)
                beta = b_next @ V
            gamma = alphas[t] * beta
            gamma /= gamma.sum(axis=1, keepdims=True)
            gx = gamma.reshape(n, n_d, n_x).sum(axis=1)
            np.add.at(o_acc, obs[:, t], gx)
            if t == 0:
                gamma0 = gamma
        pi_acc += gamma0.reshape(n, n_d, n_x).sum(axis=(0, 1))
        d_acc += gamma0.reshape(n, n_d, n_x).sum(axis=0)
    updated = HsmmParams(
        O=_normalize_columns(o_acc, p.O),
        X=_normalize_columns(x_acc, p.X),
        D=_normalize_columns(d_acc, p.D),
        pi_x=pi_acc / pi_acc.sum() if pi_acc.sum() > 0 else p.pi_x,
    )
    return updated, loglik


# ---------------------------------------------------------------------------
# chain oracle
#
# The per-step chain that ``spectral._chain`` replaced with blocks: one
# gathered ``r x r`` product per interior position, over the rows still
# advancing there.  It closes with the same row sum as ``_chain``, so a
# width-1 ``_chain`` must match it bit for bit.


def chain_reference(ops, seqs, rows=None):
    """Log magnitudes and signs of the chained products, one position at a time."""
    from hsmm_spectral.hsmm import SequenceFile, _ranges

    start, step, end, first = ops
    seqs = SequenceFile.of(seqs)
    starts, lengths = seqs.offsets[:-1], seqs.lengths
    if rows is not None:
        starts, lengths = starts[rows], lengths[rows]
    n = lengths.size
    if not n:
        return np.zeros(0), np.zeros(0, dtype=np.int64)
    T = int(lengths.max())
    order = None
    if (lengths == T).all() and starts[-1] - starts[0] == (n - 1) * T:
        obs = seqs.values[starts[0] : starts[0] + n * T].reshape(n, T)
    else:
        order = np.argsort(-lengths, kind="stable")
        starts, lengths = starts[order], lengths[order]
        obs = np.zeros((n, T), dtype=np.int64)
        obs[np.arange(T) < lengths[:, None]] = seqs.values[_ranges(starts, starts + lengths)]
    table = np.minimum(np.maximum(np.arange(T) - first, 0), step.shape[0] - 1)
    positions = range(2, T - 1)
    # rows with at least t + 2 symbols advance at position t
    active = np.searchsorted(-lengths, -np.arange(4, T + 1), side="right").tolist()
    v = start[obs[:, 0], obs[:, 1]][:, None, :]
    norms = np.ones((len(positions), n))
    last = lengths - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        for t, m in zip(positions, active):
            w = v[:m] @ step[table[t]][obs[:m, t]]
            norm = np.abs(w).sum(axis=2, keepdims=True)
            np.divide(w, norm, out=v[:m])
            norms[t - 2, :m] = norm[:, 0, 0]
        closing = end[table[last], :, obs[np.arange(n), last]]
        scalar = (v[:, 0] * closing).sum(axis=1)
        log = np.log(np.abs(scalar)) + np.log(norms).sum(axis=0)
    sign = np.where(scalar > 0, 1, -1)
    dead = (scalar == 0.0) | (norms == 0.0).any(axis=0)
    log[dead] = -np.inf
    sign[dead] = 0
    if order is not None:
        log[order], sign[order] = log.copy(), sign.copy()
    return log, sign


# ---------------------------------------------------------------------------
# joint-lattice oracles
#
# The loop builders that ``hsmm``'s closed forms replaced: each writes the
# flat layout ``(d - 1) * n_x + x`` out one block or one entry at a time.


def state_update_reference(X, n_d):
    """``[(x', d), (x, d)]``: ``X`` in the ``d == 1`` block, identity blocks after it."""
    n_x = X.shape[0]
    out = np.zeros((n_x * n_d, n_x * n_d))
    out[:n_x, :n_x] = X
    for d in range(2, n_d + 1):
        b = (d - 1) * n_x
        out[b : b + n_x, b : b + n_x] = np.eye(n_x)
    return out


def duration_update_reference(D):
    """``[(x, d'), (x, d)]``: a fresh draw from ``D`` at ``d == 1``, else a decrement."""
    n_d, n_x = D.shape
    out = np.zeros((n_x * n_d, n_x * n_d))
    for x in range(n_x):
        out[x::n_x, x] = D[:, x]
        for d in range(2, n_d + 1):
            out[(d - 2) * n_x + x, (d - 1) * n_x + x] = 1.0
    return out


def joint_transition_reference(X, D):
    """The one-step kernel as the duration update after the state update."""
    return duration_update_reference(D) @ state_update_reference(X, D.shape[0])


def next_state_reference(X, n_d):
    """``[x', (x, d)]``: ``X`` for ``d == 1`` beside ``n_d - 1`` identities."""
    return np.hstack([X] + [np.eye(X.shape[0])] * (n_d - 1))


def emissions_reference(O, n_d):
    """``[symbol, (x, d)]``: ``O`` repeated once per duration."""
    return np.concatenate([O] * n_d, axis=1)


def joint_states_reference(n_x, n_d):
    """The state of each flat joint index, one index at a time."""
    return np.array([flat % n_x for flat in range(n_x * n_d)])


# ---------------------------------------------------------------------------
# lattice-built oracles
#
# References on the joint lattice above, with no library code: the
# likelihood by enumeration of every latent path, and the conditional table
# of a window of symbols by forward marginalisation.


class OracleTooLarge(Exception):
    """Enumeration would exceed the guards below."""


ENUM_MAX_T = 12
ENUM_MAX_PATHS = 50_000_000


def exact_likelihood_enum(p, obs):
    """Likelihood by summation over all latent (x, d) paths, as one array of paths.

    Guarded by both sequence length and total path count.
    """
    obs = np.asarray(obs, dtype=np.int64)
    T = len(obs)
    if T > ENUM_MAX_T:
        raise OracleTooLarge(f"T={T} exceeds the enumeration guard {ENUM_MAX_T}")
    S = p.n_joint
    if S**T > ENUM_MAX_PATHS:
        raise OracleTooLarge(f"{S}**{T} latent paths exceed the enumeration budget {ENUM_MAX_PATHS}")
    V = joint_transition_reference(p.X, p.D)
    em = emissions_reference(p.O, p.n_d)
    # probs[i] is the probability of the i-th partial path (last state = i % S)
    probs = (p.initial_duration_table() * p.pi_x[None, :]).reshape(-1) * em[obs[0]]
    for t in range(1, T):
        step = V.T * em[obs[t]][None, :]
        probs = (probs.reshape(-1, S)[:, :, None] * step[None, :, :]).reshape(-1)
    return float(probs.sum())


def window_conditional(p, offsets):
    """``[w, (x, d)]``: the symbols at positions ``1 + offset`` spell ``w``, given ``(x, d)`` at 0.

    One forward marginalisation per code ``w`` (earliest position the
    slowest digit): the chain steps by the one-step kernel, and at each
    offset's position keeps only the mass that emits the code's symbol there.
    """
    offsets = list(offsets)
    V = joint_transition_reference(p.X, p.D)
    em = emissions_reference(p.O, p.n_d)
    rows = []
    for code in itertools.product(range(p.n_o), repeat=len(offsets)):
        a = V  # [(x, d) at position 1, (x, d) at 0]
        for rel in range(offsets[-1] + 1):
            if rel in offsets:
                a = em[code[offsets.index(rel)]][:, None] * a
            if rel < offsets[-1]:
                a = V @ a
        rows.append(a.sum(axis=0))
    return np.array(rows)


# ---------------------------------------------------------------------------
# score CSV oracle
#
# The writer that ``spectral.score_file`` replaced with one formatted write: a
# generator of rows, each from one ``InferenceResult``, written through a
# ``csv.writer`` one row at a time.


def score_csv_reference(model, sequences, error_sink):
    """The rows and the CSV text of a score file, one ``csv.writer`` row at a time."""
    import csv
    import io

    from hsmm_spectral import spectral
    from hsmm_spectral.hsmm import SequenceFile

    def rows():
        ops, n_o = spectral._prepared(model)
        seqs = SequenceFile.of(sequences)
        failed = np.zeros(len(seqs), dtype=bool)
        for idx, exc in spectral._row_errors(seqs, n_o):
            failed[idx] = True
            print(f"line {seqs.lines[idx]}: {type(exc).__name__}: {exc}", file=error_sink)
        log, sign = spectral._chain(ops, seqs, rows=np.flatnonzero(~failed))
        results = iter([spectral.InferenceResult(lv, sg)
                        for lv, sg in zip(log.tolist(), sign.tolist())])
        for idx, (bad, T) in enumerate(zip(failed.tolist(), seqs.lengths.tolist())):
            if bad:
                yield [idx, "nan", 0, "true", "nan"]
                continue
            res = next(results)
            norm = res.log_value / T
            yield [idx, f"{res.log_value:.17g}", res.sign, str(res.clamped).lower(),
                   f"{norm:.17g}"]

    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(spectral.SCORE_HEADER)
    written = []
    for row in rows():
        writer.writerow(row)
        written.append(row)
    return written, buf.getvalue()


# ---------------------------------------------------------------------------
# window-space view of a learned model
#
# A model holds its symbol operator's coefficients ``y_x`` in the basis; the
# tests compare models by the ``k x k x n_o`` operator itself.


def x_tilde(model):
    """A model's window-space symbol operator ``basis @ y_x``, ``k x k x n_o``."""
    r, k, n_o = model.y_x.shape
    return (model.basis @ model.y_x.reshape(r, k * n_o)).reshape(k, k, n_o)


# ---------------------------------------------------------------------------
# build oracle
#
# The build that ``spectral._build`` replaced with one stacked decomposition
# per moment table: one pooled build per moment set through a truncated
# pseudo-inverse product, and the per-anchor variant as a loop of pooled
# builds over each anchor's own tables, re-raising the first failure with its
# anchor.  A model built with the same ranks must have the same tables, and a
# refusal the same type, tensor, anchor and message.


class RankZero(Exception):
    """All singular values fell below the truncation threshold."""


def spectrum_rank(s, rtol):
    """Singular values ``s`` above ``rtol * s[0]``; 0 for an empty or zero spectrum."""
    from hsmm_spectral.tensors import InvalidTolerance

    if not (isinstance(rtol, (int, float)) and rtol > 0):
        raise InvalidTolerance(f"rtol must be positive, got {rtol!r}")
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))


def _pinv_product(svd, rhs, rtol, max_rank=None):
    """Apply the truncated Moore-Penrose inverse of ``a`` to each ``rhs``.

    ``svd`` is ``np.linalg.svd(a, full_matrices=False)``, so one
    decomposition serves the caller's rank check and noise floor as well.
    Singular values at or below ``rtol * sigma_max`` are truncated, and at
    most ``max_rank`` directions are kept (the moment matrices have a known
    population rank; anything beyond it is sampling noise that the chain
    would amplify).  Returns the orthonormal basis ``V`` of the retained row
    space and the coefficients ``Y = diag(1/s_r) u_r' rhs``, so that
    ``pinv(a) @ rhs = V @ Y``.
    """
    u, s, vt = svd
    if s.size == 0 or s[0] == 0.0:
        raise RankZero("zero matrix has no usable pseudo-inverse")
    r = spectrum_rank(s, rtol)
    if max_rank is not None:
        r = min(r, max_rank)
    if r == 0:
        raise RankZero("all singular values truncated")
    v = vt[:r].T
    w = u[:, :r].T / s[:r, None]
    return v, [w @ r_mat for r_mat in rhs]


def _noise_rtol(s, count):
    """Relative truncation level matching the sampling noise of a count table.

    ``s`` are the table's singular values.  The table sums to one, so the
    Frobenius norm of its sampling error is about ``1/sqrt(count)``;
    directions below a small multiple of that are unresolved and only
    amplify noise when inverted.
    """
    import math

    if s[0] == 0.0 or count <= 0:
        return 0.0
    return 2.0 / math.sqrt(count) / s[0]


def _floor_note(s, count, noise_floor):
    """What a refusal adds when the noise floor alone leaves no direction of ``s``."""
    import math

    if not noise_floor or count <= 0 or s[0] > 2.0 / math.sqrt(count):
        return ""
    return f" by the noise floor 2/sqrt({count}) = {2.0 / math.sqrt(count):.3g}"


def build_observable_reference(m, rtol, noise_floor=False):
    """Learn the observable tensors from a pooled moment set, one matrix at a time.

    Without ``noise_floor`` an ``rtol`` rank of ``m_lr`` below the needed
    rank is refused; with it, only a table that keeps no direction is.
    """
    from hsmm_spectral.spectral import DegenerateMoments, ObservableModel
    from hsmm_spectral.tensors import NamedTensor, read_only

    sched = m.schedule
    k = m.n_o**sched.ell
    needed = min(sched.joint_rank, k)
    lr_svd = np.linalg.svd(m.m_lr, full_matrices=False)
    rank = spectrum_rank(lr_svd[1], rtol)
    if not noise_floor and rank < needed:
        raise DegenerateMoments("m_lr", detail=f"rank {rank} < {needed} at rtol {rtol}")
    oo_svd = np.linalg.svd(m.m_oo.T, full_matrices=False)
    eff_lr = max(rtol, _noise_rtol(lr_svd[1], m.window_count)) if noise_floor else rtol
    eff_oo = max(rtol, _noise_rtol(oo_svd[1], m.pair_count)) if noise_floor else rtol
    try:
        basis, (y_d, y_x) = _pinv_product(
            lr_svd,
            [m.m_lr_shift, m.m_lro.reshape(k, k * m.n_o)],
            eff_lr,
            max_rank=needed,
        )
    except RankZero as exc:
        note = _floor_note(lr_svd[1], m.window_count, noise_floor)
        raise DegenerateMoments("m_lr", detail=str(exc) + note) from None
    try:
        v_oo, (y_o,) = _pinv_product(oo_svd, [m.m_oo.T], eff_oo, max_rank=sched.n_x)
    except RankZero as exc:
        note = _floor_note(oo_svd[1], m.pair_count, noise_floor)
        raise DegenerateMoments("m_oo", detail=str(exc) + note) from None
    return ObservableModel(
        d_tilde=NamedTensor(y_d, ["r", "or"]),
        y_x=read_only(y_x.reshape(-1, k, m.n_o)),
        o_tilde=read_only(v_oo @ y_o),
        start_factor=m.m_start,
        basis=read_only(basis),
        pinv_rtol=rtol,
        n_o=m.n_o,
        ell=sched.ell,
    )


def build_observable_per_t_reference(sequences, n_o, sched, rtol, noise_floor=False):
    """Per-anchor variant: :func:`build_observable_reference` on each anchor's own tables."""
    from dataclasses import replace

    from hsmm_spectral.hsmm import SequenceFile
    from hsmm_spectral.moments import MomentSet, count_cooccurrences
    from hsmm_spectral.spectral import DegenerateMoments
    from hsmm_spectral.tensors import read_only

    seqs = SequenceFile.of(sequences)
    if not len(seqs):
        raise DegenerateMoments("m_lr", detail="no sequences")
    lengths = seqs.lengths
    T = int(lengths[0])
    if (lengths != T).any():
        raise DegenerateMoments(
            "m_lr", detail="per-anchor estimation needs equal-length sequences"
        )
    anchors = list(sched.anchor_range(T))
    if not anchors:
        raise DegenerateMoments(
            "m_lr", detail=f"length {T} hosts no anchor (need {sched.min_sequence_length})"
        )
    n = len(seqs)
    counts = count_cooccurrences(seqs, n_o, sched, anchors=len(anchors))
    lr, lr_shift, lro, oo, start = (read_only(table / n) for table in counts[:5])
    models = []
    for j, s_pos in enumerate(anchors):
        m = MomentSet(
            m_lr=lr[j],
            m_lr_shift=lr_shift[j],
            m_lro=lro[j],
            m_oo=oo[j],
            m_start=start,
            schedule=sched,
            window_count=n,
            pair_count=n,
            start_count=n,
        )
        try:
            model = build_observable_reference(m, rtol, noise_floor)
        except DegenerateMoments as exc:
            raise DegenerateMoments(exc.tensor, anchor=s_pos, detail=exc.detail) from None
        models.append(replace(model, anchor=s_pos))
    return models
