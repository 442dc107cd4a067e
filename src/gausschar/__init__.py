"""Exact-arithmetic Gauss sums and multiplicative-character tests over F_p.

Everything is computed in rings of cyclotomic integers with canonical
representations; no floating point anywhere.  The ``verify`` module checks
exhaustively, at small p and n, that the analytic criteria (Gauss-sum
magnitude, Fourier-coefficient witnesses, autocorrelation profiles, subfield
membership of Gauss sums) pick out exactly the multiplicative characters;
``run_statement(name, p, n)`` runs one of its ``STATEMENTS`` by name.
"""

from .cyclo import (
    MAX_ORDER,
    CyclotomicElement,
    OrderMismatchError,
    cyclotomic_polynomial,
    euler_phi,
    sum_of_zeta_powers,
    zeta_pow,
)
from .modp import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    UnitFunction,
    enumerate_unit_functions,
    find_primitive_root,
    is_character_oracle,
    legendre_unit_function,
    parse_unit_function,
)
from .spectral import (
    SpectralValue,
    autocorrelation,
    fourier_norm,
    fourier_sum,
    gauss_sum,
    has_unit_fourier_magnitude,
    kurlberg_test,
    spectral_witness,
    twisted_gauss_sum,
)
from .verify import (
    STATEMENTS,
    HypothesisViolation,
    VerificationReport,
    default_grid,
    run_statement,
    verify_grid,
)

__version__ = "0.1.0"
