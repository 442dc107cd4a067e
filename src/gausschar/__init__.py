"""Exact-arithmetic Gauss sums and multiplicative-character tests over F_p.

Everything is computed in rings of cyclotomic integers with canonical
representations; no floating point anywhere.  The ``verify`` module checks
exhaustively, at small p and n, that the analytic criteria (Gauss-sum
magnitude, Fourier-coefficient witnesses, autocorrelation profiles, subfield
membership of Gauss sums) pick out exactly the multiplicative characters.
"""

from .cyclo import (
    MAX_ORDER,
    CyclotomicElement,
    OrderMismatchError,
    cyclotomic_polynomial,
    euler_phi,
    evaluate_poly,
    sum_of_zeta_powers,
    zeta_pow,
)
from .modp import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    UnitFunction,
    count_unit_functions,
    enumerate_unit_functions,
    find_primitive_root,
    is_character_oracle,
    legendre_symbol,
    legendre_unit_function,
    mod_inverse,
    parse_unit_function,
)
from .spectral import (
    InconsistencyError,
    SpectralValue,
    autocorrelation,
    fourier_norm,
    fourier_sum,
    gauss_sum,
    has_unit_fourier_magnitude,
    kurlberg_test,
    parseval_sum,
    spectral_witness,
    twisted_gauss_sum,
)
from .verify import (
    STATEMENTS,
    HypothesisViolation,
    VerificationReport,
    default_grid,
    remark_counterexample,
    run_statement,
    search_p_divides_n,
    verify_cor_1_3,
    verify_cor_2_3,
    verify_grid,
    verify_lemma_2_1,
    verify_prop_1_1,
    verify_prop_2_2,
    verify_thm_1_2,
    verify_thm_1_7,
)

__version__ = "0.1.0"
