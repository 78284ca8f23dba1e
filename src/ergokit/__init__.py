"""Contraction coefficients and uniform ergodicity for finite Markov operators.

The package revolves around one quantity: the contraction coefficient of a
Markov operator restricted to the kernel of a commuting Markov projection.
Everything else either computes it (exact kernel-vertex enumeration, pair
formulas, certified Monte-Carlo lower bounds), relates it to the spectrum
(classification of uniform ergodicity, convergence-rate extraction,
eigenvalue bounds), or converts it into operational certificates
(Doeblin-type minorization and overlap conditions).

The hot kernels (the Monte-Carlo ratio scan and the blocked scan of
pairwise distances inside groups of states, the default exact route for
rank-one P, one group of every state, and block P, its blocks, on the
simplex) are NumPy code in ``ergokit._backend``;
``ergokit.BACKEND`` names that implementation and is always "python".
"""

__version__ = "0.1.0"

from ._backend import BACKEND
from .coefficients import (
    CoefficientResult,
    EigenBoundReport,
    PropertyCheck,
    coefficient_inequalities,
    coefficient_lower_bound,
    eigenvalue_bound_check,
    ergodicity_coefficient,
    kernel_ball_vertices,
)
from .corpus import (
    Instance,
    block_fixture,
    build_corpus,
    embedded_fixture,
    fast_two_state_fixture,
    metropolis_matrix,
    recorded_nonmultiplicative_instance,
    stationary_distribution,
    two_state_fixture,
)
from .doeblin import (
    CertificateReport,
    DoeblinCertificate,
    DStarCertificate,
    MinorizationOutcome,
    OverlapOutcome,
    SearchOutcome,
    certificate_from_convergence,
    default_q_candidates,
    max_minorization_weight,
    overlap_certificate,
    search_certificates,
    verify_certificate,
)
from .errors import (
    DimensionTooLargeError,
    EigenSolverError,
    ErgokitError,
    ParseError,
    PreconditionError,
    UnsupportedSpaceError,
    ValidationError,
)
from .instances import (
    ParsedInstance,
    instance_hash,
    load_instance,
    parse_instance,
    serialize_instance,
)
from .operators import (
    MarkovOperator,
    MarkovProjection,
    ViolationReport,
    as_markov,
    block_projection,
    commutes,
    explicit_projection,
    fixes_projection,
    markov_violations,
    operator_norm,
    power,
    rank_one_projection,
    sub_projection,
    validate_markov,
)
from .spaces import StateSpace, make_embedded, make_simplex, same_space
from .spectral import (
    ErgodicityVerdict,
    GelfandTrail,
    MultiplicativityReport,
    RateProfile,
    SpectralReport,
    SpectrumShiftReport,
    TensorRateReport,
    best_rate,
    classify,
    eigenvalues,
    gelfand_trail,
    multiplicativity_test,
    rate_profile,
    spectral_radius,
    spectral_report,
    spectrum_shift_check,
    tensor_rate_bound,
)
from .verification import (
    CHECK_NAMES,
    CheckResult,
    instance_theorems,
    run_verification,
)

__all__ = [
    "BACKEND",
    "CHECK_NAMES",
    "CertificateReport",
    "CheckResult",
    "CoefficientResult",
    "DStarCertificate",
    "DimensionTooLargeError",
    "DoeblinCertificate",
    "EigenBoundReport",
    "EigenSolverError",
    "ErgodicityVerdict",
    "ErgokitError",
    "GelfandTrail",
    "Instance",
    "MarkovOperator",
    "MarkovProjection",
    "MinorizationOutcome",
    "MultiplicativityReport",
    "OverlapOutcome",
    "ParseError",
    "ParsedInstance",
    "PreconditionError",
    "PropertyCheck",
    "RateProfile",
    "SearchOutcome",
    "SpectralReport",
    "SpectrumShiftReport",
    "StateSpace",
    "TensorRateReport",
    "UnsupportedSpaceError",
    "ValidationError",
    "ViolationReport",
    "as_markov",
    "best_rate",
    "block_fixture",
    "block_projection",
    "build_corpus",
    "certificate_from_convergence",
    "classify",
    "coefficient_inequalities",
    "coefficient_lower_bound",
    "commutes",
    "default_q_candidates",
    "eigenvalue_bound_check",
    "eigenvalues",
    "embedded_fixture",
    "ergodicity_coefficient",
    "explicit_projection",
    "fast_two_state_fixture",
    "fixes_projection",
    "gelfand_trail",
    "instance_hash",
    "instance_theorems",
    "kernel_ball_vertices",
    "markov_violations",
    "load_instance",
    "make_embedded",
    "make_simplex",
    "max_minorization_weight",
    "metropolis_matrix",
    "multiplicativity_test",
    "operator_norm",
    "overlap_certificate",
    "parse_instance",
    "power",
    "rank_one_projection",
    "rate_profile",
    "recorded_nonmultiplicative_instance",
    "run_verification",
    "same_space",
    "search_certificates",
    "serialize_instance",
    "spectral_radius",
    "spectral_report",
    "spectrum_shift_check",
    "stationary_distribution",
    "sub_projection",
    "tensor_rate_bound",
    "two_state_fixture",
    "validate_markov",
    "verify_certificate",
    "__version__",
]
