"""Exact arithmetic for fractional-part orderings of irrational multiples.

The library computes, without floating point: Sturmian words and their
factor sets, the permutation ordering {alpha}, {2 alpha}, ..., {n alpha},
its integer matrix representation, Farey-cell decompositions, and the exact
integral of the permutation order over all slopes.  The tests' independent
routes are in :mod:`sturmlab.oracles`, which this package does not import.
"""

from .errors import (
    CoefficientsExhausted,
    InvalidSlope,
    NotInImage,
    RecurrenceMismatch,
    RefinementBudgetExceeded,
    SafetyCapExceeded,
    SingularParameters,
    SlopeSyntaxError,
    SturmlabError,
    WitnessCollision,
)
from .farey import (
    FareyCell,
    IntegralResult,
    b_range_search,
    congruence_test,
    exact_integral,
    perm_on_cell,
    sign_sum,
)
from .irrational import (
    Convergent,
    EulerE,
    EulerEInv,
    ExplicitCF,
    IrrationalSlope,
    QuadraticSurd,
    floor_sum,
    parse_slope,
    phi,
)
from .matrep import (
    AuxMatrix,
    FactorMatrix,
    IntertwinerQ,
    aux_matrix,
    char_trace,
    descent_set,
    det_runs,
    factor_matrix,
    intertwiner,
    m_from_alpha,
    perm_matrix,
    reconstruct_sigma,
    simplex_volume,
)
from .permtool import (
    FracPermutation,
    Gap,
    OrderPrediction,
    b_stream,
    order,
    order_prediction,
    pi_sos,
    sign_direct,
    sign_formula,
    three_distance_gaps,
)
from .sturmian import (
    FactorSet,
    WordSpec,
    characteristic_prefix,
    factor_set,
    factor_set_from_perm,
    word_factor_set,
    word_letter,
)

__version__ = "0.1.0"
