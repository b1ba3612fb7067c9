"""Numerical laboratory for the free generalized inverse Gaussian family.

Parameterizations, densities, R/Cauchy transforms, free Levy triplets,
regularity certificates, free additive convolution via subordination, the
reciprocal fixed-point characterization, small-beta limit theorems and
free/classical entropy functionals.
"""

from .asymptotics import (
    convergence_curve,
    limit_measure,
    root_limits,
    scaling_exponents,
)
from .characterization import (
    CharacterizationReport,
    initial_coefficients,
    oracle_coefficients,
    series_coefficients,
    solve_c,
    verify_fixed_point,
    verify_iterated,
)
from .convolution import SubordinationPair, free_convolve, subordination_at
from .entropy import (
    Potential,
    classical_entropy,
    classical_gig_density,
    free_entropy,
    gibbs_bound,
    log_bessel_k,
    maximality_scan,
)
from .errors import DomainError, NumericError, PoleError
from .levy import (
    FsdReport,
    LevyTriplet,
    fsd_report,
    levy_density,
    levy_triplet,
    reconstruct_cumulant,
)
from .measures import (
    FreePoissonParams,
    SpectralMeasure,
    build_fgig,
    build_free_poisson,
    build_semicircle,
    fgig_density,
    kolmogorov_distance,
    levy_distance,
    mode,
    moment,
    pushforward_reciprocal,
)
from .params import (
    NaturalParams,
    SpectralRoots,
    SpreadForm,
    SupportForm,
    from_support,
    invert_params,
    reparameterize,
    solve_support,
    spectral_roots,
)
from .transforms import (
    BranchedSqrtEvaluator,
    CertificateReport,
    cauchy,
    fid_certificate,
    free_cumulants,
    r_fgig,
    r_free_poisson,
)

__all__ = [
    "BranchedSqrtEvaluator",
    "CertificateReport",
    "CharacterizationReport",
    "DomainError",
    "FreePoissonParams",
    "FsdReport",
    "LevyTriplet",
    "NaturalParams",
    "NumericError",
    "PoleError",
    "Potential",
    "SpectralMeasure",
    "SpectralRoots",
    "SpreadForm",
    "SubordinationPair",
    "SupportForm",
    "build_fgig",
    "build_free_poisson",
    "build_semicircle",
    "cauchy",
    "classical_entropy",
    "classical_gig_density",
    "convergence_curve",
    "fgig_density",
    "fid_certificate",
    "free_convolve",
    "free_cumulants",
    "free_entropy",
    "from_support",
    "fsd_report",
    "gibbs_bound",
    "initial_coefficients",
    "invert_params",
    "kolmogorov_distance",
    "levy_density",
    "levy_distance",
    "levy_triplet",
    "limit_measure",
    "log_bessel_k",
    "maximality_scan",
    "mode",
    "moment",
    "oracle_coefficients",
    "pushforward_reciprocal",
    "r_fgig",
    "r_free_poisson",
    "reconstruct_cumulant",
    "reparameterize",
    "root_limits",
    "scaling_exponents",
    "series_coefficients",
    "solve_c",
    "solve_support",
    "spectral_roots",
    "subordination_at",
    "verify_fixed_point",
    "verify_iterated",
]

__version__ = "0.1.0"
