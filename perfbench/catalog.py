"""The benchmark's workloads and metrics, in one place.

`BENCHMARK.json` at the repository root repeats the names, units, directions
and bounds; `test_perfbench.py` checks that the two agree.  The fields that
file has no room for live here: the layer a metric belongs to and which
end-to-end figure, on which workload, it is expected to move.
"""

from __future__ import annotations

from dataclasses import dataclass

# Why each workload exists (one line each, as in BENCHMARK.json).
WORKLOADS = {
    "corpus": "the 35-instance corpus x chars 0/2/3/5 through CLI classify --explain then "
              "oracle: many tiny algebras, fixed per-call costs dominate",
    "oracle_q": "CLI oracle in char 0 on chain_7 and the S3 transporter on subsets of size "
                "<= 2: Fraction arithmetic in homology and linalg",
    "oracle_p": "CLI oracle on chain_8 in char 2 and the S3 transporter in chars 2 and 3: "
                "ints mod p, the p-power-trace radical, resolutions run to the cap",
    "classify_large": "CLI classify --explain on chain_20, B_5, random 16-24 element posets "
                      "and S3 on B_3: triangular and freeness do the work",
}

LAYERS = ("cli", "category", "groups", "freeness", "triangular", "classify",
          "algebra", "homology", "linalg")


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    what: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    moves: str  # "<end-to-end figure> on <workload>", or "" for invariants
    what: str


END_TO_END = (
    EndToEnd("cal_wall_s", "s", "lower", 0.2,
             "one pass over the workload, first CLI call to last checked verdict, in "
             "calibrated seconds (see calibrate.py); median over the passes of a run"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "fresh import of eicat, input generation from the seed and writing the "
             "input JSON files, in calibrated seconds; median of several set-ups in a run"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1,
             "high-water resident set size of the benchmark process"),
)

_CORPUS_CLASSIFY = "classify_s_p50 on corpus"
_LARGE = "cal_wall_s on classify_large"
_ORACLE_Q = "cal_wall_s on oracle_q"

# Self times are per pass: the median over the traced passes of a run.  A
# function's time is its own self time plus that of the unnamed helpers of
# its own layer it calls (see tracer.function_times).  Counts are per pass.
PER_LAYER = (
    PerLayer("cli.self_s", "s", "lower", _CORPUS_CLASSIFY,
             "argparse, JSON load and emit"),
    PerLayer("category.self_s", "s", "lower", _LARGE, "all category functions"),
    PerLayer("category.validate_s", "s", "lower", _CORPUS_CLASSIFY + "; " + _LARGE,
             "category.validate"),
    PerLayer("category.presentation_s", "s", "lower", _CORPUS_CLASSIFY + "; " + _LARGE,
             "category.presentation_of with skeletalize and admissible_order"),
    PerLayer("category.is_ei_calls_per_pair", "calls/pair", "lower",
             _CORPUS_CLASSIFY + "; " + _LARGE, "is_ei calls per (instance, char) item"),
    PerLayer("groups.self_s", "s", "lower", _LARGE, "all groups functions"),
    PerLayer("groups.is_projective_over_s", "s", "lower", _LARGE,
             "groups.is_projective_over"),
    PerLayer("freeness.self_s", "s", "lower", _LARGE, "all freeness functions"),
    PerLayer("freeness.is_free_s", "s", "lower", _LARGE, "freeness.is_free"),
    PerLayer("freeness.unfactorizables_s", "s", "lower", _LARGE,
             "freeness.unfactorizables"),
    PerLayer("freeness.unfactorizables_calls_per_classify", "calls/call", "lower", _LARGE,
             "unfactorizables calls per CLI classify call (1 would do); 0 without one"),
    PerLayer("triangular.self_s", "s", "lower", _LARGE, "all triangular functions"),
    PerLayer("triangular.phi_domain_dim_s", "s", "lower", _LARGE,
             "triangular.phi_domain_dim with tensor_dim"),
    PerLayer("triangular.mstar_dim_s", "s", "lower", _LARGE,
             "triangular.mstar_dim with build_m_star"),
    PerLayer("triangular.ledger_entries", "count", "lower", "",
             "entries of the explain M_t^* ledgers; an invariant"),
    PerLayer("classify.self_s", "s", "lower", _CORPUS_CLASSIFY, "all classify functions"),
    PerLayer("classify.classify_s", "s", "lower", _CORPUS_CLASSIFY, "classify.classify"),
    PerLayer("classify.explain_s", "s", "lower", _CORPUS_CLASSIFY, "classify.explain"),
    PerLayer("classify.calls_per_pair", "calls/pair", "lower", _CORPUS_CLASSIFY,
             "classify.classify calls per (instance, char) item"),
    PerLayer("algebra.self_s", "s", "lower", "cal_wall_s on oracle_q and oracle_p",
             "all algebra functions"),
    PerLayer("algebra.radical_s", "s", "lower", "cal_wall_s on oracle_p, not on oracle_q",
             "algebra.radical, with the private p-power-trace matmul"),
    PerLayer("algebra.idempotents_s", "s", "lower", "oracle_s_p50 on corpus; " + _ORACLE_Q,
             "algebra.primitive_idempotents"),
    PerLayer("algebra.top_module_s", "s", "lower", "oracle_s_p50 on corpus; " + _ORACLE_Q,
             "algebra.top_module"),
    PerLayer("algebra.opposite_s", "s", "lower", "oracle_s_p50 on corpus; " + _ORACLE_Q,
             "algebra.opposite"),
    PerLayer("algebra.build_s", "s", "lower", "oracle_s_p50 on corpus; " + _ORACLE_Q,
             "algebra.algebra_from_category"),
    PerLayer("algebra.validate_s", "s", "lower", "oracle_s_p50 on corpus; " + _ORACLE_Q,
             "FiniteDimAlgebra.validate"),
    PerLayer("algebra.dim_sum", "count", "lower", "",
             "sum of dims of the algebras algebra_from_category builds; an invariant"),
    PerLayer("algebra.radical_dim_sum", "count", "lower", "",
             "sum of radical dims over distinct algebras; an invariant"),
    PerLayer("algebra.idempotent_count", "count", "lower", "",
             "primitive idempotents over distinct algebras; an invariant"),
    PerLayer("homology.self_s", "s", "lower", _ORACLE_Q, "all homology functions"),
    PerLayer("homology.resolution_s", "s", "lower", _ORACLE_Q + "; oracle_s_p90 on corpus",
             "homology.projective_resolution"),
    PerLayer("homology.ext_s", "s", "lower", _ORACLE_Q + "; oracle_s_p90 on corpus",
             "homology.ext_dims_from_trace"),
    PerLayer("homology.resolution_calls_per_pair", "calls/pair", "lower", _ORACLE_Q,
             "projective_resolution calls per (instance, char) item"),
    PerLayer("homology.resolution_rank_sum", "count", "lower", "",
             "sum of ranks over all resolution degrees; an invariant"),
    PerLayer("homology.resolution_degree_sum", "count", "lower", "",
             "sum of the degrees the resolutions reached; an invariant"),
    PerLayer("linalg.self_s", "s", "lower", _ORACLE_Q + "; " + _LARGE,
             "all Matrix, Subspace and QuotientSpace methods"),
    PerLayer("linalg.mul_vec_calls", "count", "lower", _ORACLE_Q, "Matrix.mul_vec calls"),
    PerLayer("linalg.mul_vec_s", "s", "lower", _ORACLE_Q + " most, oracle_p less",
             "Matrix.mul_vec"),
    PerLayer("linalg.mul_vec_cells", "count", "lower", _ORACLE_Q,
             "rows x cols summed over mul_vec calls"),
    PerLayer("linalg.mul_vec_density", "ratio", "higher", _ORACLE_Q,
             "nonzero share of the entries mul_vec touches, nonzeros counted once "
             "per distinct matrix"),
    PerLayer("linalg.rref_calls", "count", "lower", _ORACLE_Q, "Matrix.rref calls"),
    PerLayer("linalg.rref_s", "s", "lower", _ORACLE_Q + "; " + _LARGE, "Matrix.rref"),
    PerLayer("linalg.rref_cells", "count", "lower", _ORACLE_Q,
             "rows x cols summed over rref calls"),
    PerLayer("linalg.subspace_calls", "count", "lower", _ORACLE_Q, "Subspace constructions"),
    PerLayer("linalg.subspace_s", "s", "lower", _ORACLE_Q + "; " + _LARGE,
             "Subspace.__init__ (tensor_dim builds these)"),
    PerLayer("linalg.coords_calls", "count", "lower", _ORACLE_Q, "Subspace.coords calls"),
    PerLayer("linalg.coords_s", "s", "lower", _ORACLE_Q, "Subspace.coords"),
    PerLayer("linalg.matrix_builds", "count", "lower", _ORACLE_Q + "; " + _LARGE,
             "Matrix(...) constructions, each running Field.of on every entry"),
    PerLayer("trace.overhead_s", "s", "lower", "",
             "traced minus untraced pass wall time (uncalibrated), medians of "
             "alternating passes"),
    PerLayer("trace.spans", "count", "lower", "", "spans recorded per traced pass"),
)

# Function metrics: metric name -> span name (layer.function or
# layer.Class.method) whose time it reports.
FUNCTION_METRICS = {
    "category.validate_s": "category.validate",
    "category.presentation_s": "category.presentation_of",
    "groups.is_projective_over_s": "groups.is_projective_over",
    "freeness.is_free_s": "freeness.is_free",
    "freeness.unfactorizables_s": "freeness.unfactorizables",
    "triangular.phi_domain_dim_s": "triangular.phi_domain_dim",
    "triangular.mstar_dim_s": "triangular.mstar_dim",
    "classify.classify_s": "classify.classify",
    "classify.explain_s": "classify.explain",
    "algebra.radical_s": "algebra.radical",
    "algebra.idempotents_s": "algebra.primitive_idempotents",
    "algebra.top_module_s": "algebra.top_module",
    "algebra.opposite_s": "algebra.opposite",
    "algebra.build_s": "algebra.algebra_from_category",
    "algebra.validate_s": "algebra.FiniteDimAlgebra.validate",
    "homology.resolution_s": "homology.projective_resolution",
    "homology.ext_s": "homology.ext_dims_from_trace",
    "linalg.mul_vec_s": "linalg.Matrix.mul_vec",
    "linalg.rref_s": "linalg.Matrix.rref",
    "linalg.subspace_s": "linalg.Subspace.__init__",
    "linalg.coords_s": "linalg.Subspace.coords",
}
