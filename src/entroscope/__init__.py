"""Entropy of automaton languages and certified drops under forbidden factors."""

__version__ = "0.1.0"

from .census import (
    EntropyEstimate,
    NondeterministicWindow,
    WordCensus,
    count_words,
    determinize,
    entropy_from_counts,
    spectral_entropy_finite,
)
from .chain import (
    CertificateInputs,
    GapCertificate,
    GapReport,
    HarmonicVector,
    RhoEstimate,
    StepDistribution,
    WeightedChain,
    certified_gap_bound,
    entropy_from_rho,
    entropy_gap_report,
    h_transform,
    harmonic_vector,
    initial_distribution,
    k_step_restricted_rowsum_check,
    n_step_vector,
    probability_table,
    resolve_certificate,
    rho_estimate,
    step,
    transform_identity_check,
    uniform_weights,
)
from .factors import (
    DensenessCertificate,
    FactorAutomaton,
    ForbiddenSet,
    ForbiddenWordError,
    certify_denseness,
    estimate_denseness_constant,
    product_graph,
)
from .graphs import (
    DEFAULT_BUDGET,
    Declared,
    Edge,
    ExpansionBudgetExceeded,
    GraphFormatError,
    LabelledGraph,
    Window,
    check_deterministic,
    check_fully_deterministic,
    explicit_graph,
    forward_ball,
    full_window,
    load_graph_json,
    parse_graph_document,
    vertex_key,
)
from .schreier import (
    ActionSpec,
    builtin_family,
    family_names,
    schreier_graph,
)
