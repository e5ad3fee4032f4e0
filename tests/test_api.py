"""The package's public names: an explicit list, each documented in the README."""

import inspect
import re
from pathlib import Path

import hsmm_spectral

README = Path(__file__).resolve().parent.parent / "README.md"

# The benchmark under perfbench/ reads NamedTensor, numerical_rank,
# ObservableModel (its d_tilde), infer_per_t and build_observable_per_t (its
# per-anchor lists), so dropping one of them fails here.
EXPORTS = {
    # hsmm
    "HsmmParams", "InvalidModel", "GenerationFailed", "ValidationReport", "validate",
    "random_model", "SampledSequence", "sample", "sample_many", "forward_likelihood",
    "forward_loglik_batch", "save_model", "load_model", "write_sequences", "read_sequences",
    # moments
    "ObservationSchedule", "build_schedule", "MomentSet", "estimate_moments",
    "analytic_moments", "AnalyticFactorContext", "InsufficientData",
    # spectral
    "ObservableModel", "learn_spectral", "build_observable", "build_observable_per_t",
    "InferenceResult", "infer", "infer_per_t", "infer_batch", "score_file",
    "save_observable", "load_observable", "SpectralError", "DegenerateMoments",
    "SequenceTooShort", "UnknownSymbol",
    # rank_analysis
    "compute_T_sequential", "compute_T_efficient", "build_F", "TReport", "rank_grid",
    # em
    "EmConfig", "em_fit", "MonotonicityViolation",
    # bench
    "BenchConfig", "preset", "run_synthetic_bench", "BenchReport",
    # tensors
    "NamedTensor", "khatri_rao_cols", "numerical_rank",
}


def test_the_package_exports_exactly_the_listed_names():
    exported = {
        name for name, value in vars(hsmm_spectral).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == EXPORTS


def test_the_readme_api_reference_lists_each_exported_name_once():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## API reference\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `(\w+)", section, flags=re.MULTILINE)
    assert sorted(listed) == sorted(EXPORTS)
