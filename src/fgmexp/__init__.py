"""FGM bivariate exponential distribution toolkit.

Density, likelihood, and seeded sampling for the bivariate exponential
family with a single association parameter in [-1, 1]; the polynomial
pair that clears its score equation; the ML-degree of the parameter by
closed formula and by an exact-rational algebraic oracle; and maximum
likelihood fitting with full boundary-case handling.

All public types are immutable after construction and safe to share
across threads; sampling is deterministic in (n, theta, seed).
"""

from .model import (
    Dataset,
    DataFormatError,
    PoleError,
    c_shift,
    density,
    log_likelihood,
    read_csv,
    sample,
    score,
    write_csv,
)
from .polynomials import Poly, ScalarModeError, build_h, build_k, gcd, parse_rational
from .roots import RootSet, complex_roots
from .mldegree import (
    AllEqualError,
    MultiplicityProfile,
    common_zeros,
    ml_degree_algebraic,
    ml_degree_formula,
    ml_degree_report,
    profile,
)
from .mle import FitResult, NoDataError, fit, fit_from_weights

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DataFormatError",
    "PoleError",
    "c_shift",
    "density",
    "log_likelihood",
    "read_csv",
    "sample",
    "score",
    "write_csv",
    "Poly",
    "ScalarModeError",
    "build_h",
    "build_k",
    "gcd",
    "parse_rational",
    "RootSet",
    "complex_roots",
    "AllEqualError",
    "MultiplicityProfile",
    "common_zeros",
    "ml_degree_algebraic",
    "ml_degree_formula",
    "ml_degree_report",
    "profile",
    "FitResult",
    "NoDataError",
    "fit",
    "fit_from_weights",
    "__version__",
]
