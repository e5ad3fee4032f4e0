"""Command-line interface.

Exit codes: 0 on success, 1 on usage errors, 2 on out-of-range numbers (named
by their option, before any file is opened) and on data or model errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import sys

import numpy as np

from .bench import preset, run_synthetic_bench
from .container import ContainerError
from .em import EmConfig, MonotonicityViolation, em_fit
from .hsmm import (
    InvalidModel,
    ModelError,
    load_model,
    parse_symbols,
    random_model,
    read_sequences,
    sample_many,
    save_model,
    validate,
    write_sequences,
)
from .moments import InsufficientData, build_schedule, estimate_moments
from .rank_analysis import rank_grid
from .spectral import (
    SpectralError,
    _read_stack,
    build_observable,
    build_observable_per_t,
    infer,
    save_observable,
    score_file,
)
from .tensors import TensorError

DATA_ERRORS = (
    ModelError,
    SpectralError,
    TensorError,
    ContainerError,
    InsufficientData,
    MonotonicityViolation,
    OSError,
    ValueError,
)


# the rules a numeric option's ``must`` names; NaN breaks each
_RULES = {
    "at least 1": lambda value: value >= 1,
    "non-negative": lambda value: value >= 0,
    "positive": lambda value: value > 0,
}


def _sizes(text: str) -> tuple:
    """``;``-separated comma lists of integers; ``BenchConfig`` judges their shape."""
    try:
        return tuple(tuple(int(x) for x in part.split(",")) for part in text.split(";"))
    except ValueError:
        raise InvalidModel("--sizes must be ';'-separated comma lists of integers, "
                           f"got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)

    def add_argument(self, *flags, must=None, **kwargs):
        """``must`` names the ``_RULES`` entry a numeric option's values keep.

        A value that breaks it is refused by the option's name as it is parsed:
        ``InvalidModel`` passes through argparse to ``main`` (exit 2), while text
        that is not a number stays argparse's usage error (exit 1).
        """
        cast, name = kwargs.get("type"), "/".join(flags)

        def convert(text):
            value = cast(text)
            if not _RULES[must](value):
                raise InvalidModel(f"{name} must be {must}, got {value}")
            return value

        if must is not None:
            convert.__name__ = cast.__name__  # argparse's "invalid int value: 'abc'"
            kwargs["type"] = convert
        return super().add_argument(*flags, **kwargs)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: each parse starts afresh."""
    parser = _Parser(prog="hsmm-spectral", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("gen-model", help="draw a random model and write JSON")
    g.add_argument("--no", type=int, must="at least 1", required=True, dest="n_o")
    g.add_argument("--nx", type=int, must="at least 1", required=True, dest="n_x")
    g.add_argument("--nd", type=int, must="at least 1", required=True, dest="n_d")
    g.add_argument("--seed", type=int, must="non-negative", default=0)
    g.add_argument("--min-sigma", type=float, must="non-negative", default=0.05)
    g.add_argument("--no-self-transitions", action="store_true")
    g.add_argument("-o", "--output", required=True)

    d = sub.add_parser("gen-data", help="sample sequences from a model")
    d.add_argument("--model", required=True)
    d.add_argument("-n", "--count", type=int, must="non-negative", required=True)
    d.add_argument("-T", "--length", type=int, must="at least 1", required=True)
    d.add_argument("--seed", type=int, must="non-negative", default=0)
    d.add_argument("-o", "--output", required=True)

    v = sub.add_parser("validate", help="check stochasticity and assumptions")
    v.add_argument("model")
    v.add_argument("--rtol", type=float, must="positive", default=1e-10)

    ls = sub.add_parser("learn-spectral", help="estimate the observable model")
    ls.add_argument("--data", required=True)
    ls.add_argument("--nx", type=int, must="at least 1", required=True, dest="n_x")
    ls.add_argument("--nd", type=int, must="at least 1", required=True, dest="n_d")
    ls.add_argument("--no", type=int, must="at least 1", default=None, dest="n_o",
                    help="alphabet size (default: largest symbol + 1)")
    ls.add_argument("--rtol", type=float, must="positive", default=1e-6)
    ls.add_argument("--no-noise-floor", action="store_true",
                    help="keep directions below the sampling-noise level")
    ls.add_argument("--basic", action="store_true",
                    help="per-anchor variant instead of the pooled build")
    ls.add_argument("-o", "--output", required=True)

    le = sub.add_parser("learn-em", help="fit parameters by EM")
    le.add_argument("--data", required=True)
    le.add_argument("--no", type=int, must="at least 1", required=True, dest="n_o")
    le.add_argument("--nx", type=int, must="at least 1", required=True, dest="n_x")
    le.add_argument("--nd", type=int, must="at least 1", required=True, dest="n_d")
    le.add_argument("--max-iter", type=int, must="at least 1", default=200)
    le.add_argument("--tol", type=float, must="positive", default=1e-6)
    le.add_argument("--restarts", type=int, must="at least 1", default=3)
    le.add_argument("--seed", type=int, must="non-negative", default=0)
    le.add_argument("-o", "--output", required=True)

    inf = sub.add_parser("infer", help="probability of one sequence")
    inf.add_argument("--model", required=True)
    inf.add_argument("--sequence", default=None, help="space-separated symbols")
    inf.add_argument("--data", default=None, help="sequence file; scores its "
                     "--index-th sequence (0-based; blank and '#' lines are not sequences)")
    inf.add_argument("--index", type=int, must="non-negative", default=0)

    sc = sub.add_parser("score", help="per-sequence scores as CSV")
    sc.add_argument("--model", required=True)
    sc.add_argument("--data", required=True)
    sc.add_argument("-o", "--output", required=True)

    rc = sub.add_parser("rank-check", help="numerical rank sweep as CSV")
    rc.add_argument("--nx", type=int, must="at least 1", nargs="+", default=[2, 3, 4])
    rc.add_argument("--nd", type=int, must="at least 1", nargs="+", default=[2, 3, 4, 5, 6])
    rc.add_argument("--seeds", type=int, must="at least 1", default=5)
    rc.add_argument("--seed", type=int, must="non-negative", default=0, help="first seed")
    rc.add_argument("-o", "--output", required=True)

    b = sub.add_parser("bench", help="synthetic accuracy/runtime comparison")
    b.add_argument("--preset", choices=["paper-small", "paper-full"],
                   default="paper-small")
    b.add_argument("--sizes", type=_sizes, default=None,
                   help="semicolon-separated n_o,n_x,n_d triples")
    b.add_argument("--n-list", type=int, must="at least 1", nargs="+", default=None)
    b.add_argument("-T", "--length", type=int, must="at least 1", default=None)
    b.add_argument("--n-test", type=int, must="at least 1", default=None)
    b.add_argument("--seeds", type=int, must="at least 1", default=3)
    b.add_argument("--seed", type=int, must="non-negative", default=0, help="first seed")
    b.add_argument("--rtol", type=float, must="positive", default=None)
    b.add_argument("--no-em", action="store_true")
    b.add_argument("-o", "--output", required=True)
    return parser


def _cmd_gen_model(args) -> int:
    p = random_model(
        args.n_o,
        args.n_x,
        args.n_d,
        seed=args.seed,
        min_sigma=args.min_sigma,
        no_self_transitions=args.no_self_transitions,
    )
    save_model(p, args.output)
    return 0


def _cmd_gen_data(args) -> int:
    p = load_model(args.model)
    try:
        obs = sample_many(p, args.count, args.length, np.random.default_rng(args.seed))
    except MemoryError:
        raise InvalidModel(
            f"{args.count} sequences of length {args.length} do not fit in memory"
        ) from None
    write_sequences(obs, args.output)
    return 0


def _cmd_validate(args) -> int:
    report = validate(load_model(args.model), rtol=args.rtol)
    print(report)
    return 0 if report.ok else 2


def _cmd_learn_spectral(args) -> int:
    seqs = read_sequences(args.data, n_o=args.n_o)
    if not seqs:
        raise InvalidModel("no sequences in input")
    n_o = args.n_o or int(seqs.values.max()) + 1
    sched = build_schedule(args.n_x, args.n_d)
    if args.basic:
        model = build_observable_per_t(
            seqs, n_o, sched, args.rtol, noise_floor=not args.no_noise_floor
        )
    else:
        model = build_observable(
            estimate_moments(seqs, n_o, sched), args.rtol,
            noise_floor=not args.no_noise_floor,
        )
    save_observable(args.output, model)
    return 0


def _cmd_learn_em(args) -> int:
    cfg = EmConfig(
        max_iter=args.max_iter,
        tol=args.tol,
        restarts=args.restarts,
        seed=args.seed,
    )
    seqs = read_sequences(args.data, n_o=args.n_o)
    fitted, trace = em_fit(seqs, args.n_o, args.n_x, args.n_d, cfg)
    save_model(fitted, args.output)
    print(f"iterations={len(trace) - 1} loglik={trace[-1]:.6f}")
    return 0


def _cmd_infer(args) -> int:
    if (args.sequence is None) == (args.data is None):
        raise InvalidModel("provide exactly one of --sequence or --data")
    model = _read_stack(args.model)
    if args.sequence is not None:
        obs = parse_symbols(args.sequence)
    else:
        seqs = read_sequences(args.data)
        if args.index >= len(seqs):
            raise InvalidModel(f"--index {args.index} out of range")
        obs = seqs[args.index]
    res = infer(model, obs)
    print(
        f"log_value={res.log_value:.12g} sign={res.sign} "
        f"clamped={str(res.clamped).lower()} "
        f"norm_loglik={res.log_value / len(obs):.12g}"
    )
    return 0


def _cmd_score(args) -> int:
    model = _read_stack(args.model)
    seqs = read_sequences(args.data)
    n = score_file(model, seqs, args.output)
    print(f"scored {n} sequences -> {args.output}")
    return 0


def _cmd_rank_check(args) -> int:
    rows = rank_grid(
        n_x_values=args.nx,
        n_d_values=args.nd,
        seeds=range(args.seed, args.seed + args.seeds),
    )
    with open(args.output, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows({**r, "pass": str(r["pass"]).lower()} for r in rows)
    failures = sum(1 for r in rows if not r["pass"])
    print(f"{len(rows)} cells, {failures} failures -> {args.output}")
    return 0 if failures == 0 else 2


def _cmd_bench(args) -> int:
    given = dict(sizes=args.sizes, n_list=args.n_list and tuple(args.n_list),
                 T=args.length, n_test=args.n_test, rtol=args.rtol,
                 em_max_n=0 if args.no_em else None)
    cfg = dataclasses.replace(
        preset(args.preset),
        seeds=tuple(range(args.seed, args.seed + args.seeds)),
        **{name: value for name, value in given.items() if value is not None},
    )
    report = run_synthetic_bench(cfg, progress=lambda msg: print(msg, file=sys.stderr))
    report.to_csv(args.output)
    print(f"wrote {len(report.rows)} rows -> {args.output}")
    return 0


_COMMANDS = {
    "gen-model": _cmd_gen_model,
    "gen-data": _cmd_gen_data,
    "validate": _cmd_validate,
    "learn-spectral": _cmd_learn_spectral,
    "learn-em": _cmd_learn_em,
    "infer": _cmd_infer,
    "score": _cmd_score,
    "rank-check": _cmd_rank_check,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    try:
        # a number out of its option's range is refused while parsing (exit 2)
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except DATA_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
