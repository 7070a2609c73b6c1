"""Exact Whittaker-function computations for GL(n) over a p-adic field.

Spherical and essential Whittaker values on the diagonal torus, local
Rankin-Selberg integrals as exact truncated series in t = q^(-s), and the
verification that the essential function pairs to the local L-factor.
"""

from .errors import WhittakerError
from .repdata import (
    GenericRep,
    Segment,
    UnramifiedCharacter,
    UnramifiedLanglandsRep,
    compute_piu,
    derivative_subquotients,
    langlands_order,
    parse_rep,
    validate_unlinked,
)
from .ringcore import (
    EulerFactor,
    Scalar,
    TruncatedSeries,
    euler_expand,
    series_equal,
    substitute,
    u_power,
)
from .rseng import VerificationReport, cauchy_check, l_factor, rs_series, theorem_product, verify_essential
from .symfunc import (
    Partition,
    complete_homogeneous,
    partitions_up_to,
    schur,
    schur_detailed,
    schur_ssyt_oracle,
    ssyt_tableaux,
)
from .whitfun import beta_to_diag, delta_half, essential_value, essential_value_beta, spherical_value

__version__ = "0.1.0"

__all__ = [
    "EulerFactor",
    "GenericRep",
    "Partition",
    "Scalar",
    "Segment",
    "TruncatedSeries",
    "UnramifiedCharacter",
    "UnramifiedLanglandsRep",
    "VerificationReport",
    "WhittakerError",
    "beta_to_diag",
    "cauchy_check",
    "complete_homogeneous",
    "compute_piu",
    "delta_half",
    "derivative_subquotients",
    "essential_value",
    "essential_value_beta",
    "euler_expand",
    "l_factor",
    "langlands_order",
    "parse_rep",
    "partitions_up_to",
    "rs_series",
    "schur",
    "schur_detailed",
    "schur_ssyt_oracle",
    "series_equal",
    "spherical_value",
    "ssyt_tableaux",
    "substitute",
    "theorem_product",
    "u_power",
    "validate_unlinked",
    "verify_essential",
]
