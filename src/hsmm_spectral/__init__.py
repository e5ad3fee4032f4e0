"""Spectral (method-of-moments) inference for hidden semi-Markov models.

Learn observable-representation tensors from symbol sequences and evaluate
test-sequence probabilities without recovering model parameters, alongside
exact oracles, an EM baseline, and numerical rank verification of the
windowed conditional factors.
"""

from .em import EmConfig, MonotonicityViolation, em_fit
from .hsmm import (
    GenerationFailed,
    HsmmParams,
    InvalidModel,
    ValidationReport,
    forward_likelihood,
    forward_loglik_batch,
    load_model,
    random_model,
    read_sequences,
    sample_many,
    save_model,
    validate,
    write_sequences,
)
from .moments import (
    AnalyticFactorContext,
    InsufficientData,
    MomentSet,
    ObservationSchedule,
    analytic_moments,
    build_schedule,
    estimate_moments,
)
from .rank_analysis import (
    TReport,
    build_F,
    compute_T_efficient,
    compute_T_sequential,
    rank_grid,
)
from .spectral import (
    DegenerateMoments,
    InferenceResult,
    ObservableModel,
    SequenceTooShort,
    SpectralError,
    UnknownSymbol,
    build_observable,
    build_observable_per_t,
    infer,
    infer_batch,
    infer_per_t,
    learn_spectral,
    load_observable,
    save_observable,
    score_file,
)
from .tensors import NamedTensor, khatri_rao_cols, numerical_rank
from .bench import BenchConfig, BenchReport, preset, run_synthetic_bench

__version__ = "0.1.0"
