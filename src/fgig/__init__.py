"""Numerical laboratory for the free generalized inverse Gaussian family.

Parameterizations, densities, R/Cauchy transforms, free Levy triplets,
regularity certificates, free additive convolution via subordination, the
reciprocal fixed-point characterization, small-beta limit theorems and
free/classical entropy functionals.

``import fgig`` loads no submodule: each public name, and each submodule
such as ``fgig.measures``, is imported on first use (PEP 562).
"""

import importlib

# each submodule and the public names it exports
_EXPORTS = {
    "asymptotics": ("EndpointAsymptotics", "convergence_curve",
                    "endpoint_asymptotics", "limit_measure"),
    "characterization": ("CharacterizationReport", "initial_coefficients",
                         "oracle_coefficients", "series_coefficients",
                         "solve_c", "verify_fixed_point", "verify_iterated"),
    "convolution": ("SubordinationPair", "free_convolve", "subordination_at"),
    "entropy": ("Potential", "classical_entropy", "classical_gig_density",
                "free_entropy", "gibbs_bound", "log_bessel_k",
                "maximality_scan"),
    "errors": ("DomainError", "NumericError", "PoleError"),
    "levy": ("FsdReport", "LevyTriplet", "fsd_report", "levy_density",
             "levy_triplet", "reconstruct_cumulant"),
    "measures": ("FreePoissonParams", "SpectralMeasure", "build_fgig",
                 "build_free_poisson", "build_semicircle", "fgig_density",
                 "kolmogorov_distance", "levy_distance", "mode", "moment",
                 "pushforward_reciprocal"),
    "params": ("NaturalParams", "SpectralRoots", "SpreadForm", "SupportForm",
               "from_support", "invert_params", "reparameterize",
               "solve_support", "spectral_roots"),
    "transforms": ("CertificateReport", "cauchy", "fid_certificate",
                   "free_cumulants", "r_fgig", "r_free_poisson"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _MODULE_OF:
        module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
        value = getattr(module, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
