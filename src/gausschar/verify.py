"""Exhaustive verification of the exact character criteria at small moduli.

Every statement runs through one loop, ``_run``.  Each public verifier
first opens its (p, n) cell with ``_cell``, which validates it (through
``modp.enumerate_unit_functions``, cheapest check first, the budget before
primality) and applies the statement's divisibility hypothesis; only then
are per-cell constants built.  Among them is the cell screen, a stream from
``spectral`` of split-prime verdicts, one per table in enumeration order
(see the ``spectral`` module docstring): False proves the statement's
analytic test fails for that table, True leaves it to the per-function
test.  ``_run`` zips the opened stream (or the pinned tables it is given)
with the screen, strictly, so a verdict can never drift onto another table,
and hands each pair to the statement's judge as ``judge(f, passed)``,
``passed`` being one verdict; the pinned counterexample's screen is
``(True,)``.  A judge returns ``(spectral_hit, oracle_hit, agrees,
witness)``: whether the analytic test (Gauss-sum magnitude, Fourier
witness, subfield membership or autocorrelation profile) holds for f,
whether the brute-force homomorphism oracle's side holds, whether the two
sides relate as the statement predicts, and the ``(exps, a)`` record to
list as a witness, or None.  A judge runs the per-function test only where
``passed`` allows it, so every "yes" is still decided by canonical
equality, and on a table whose verdict is False and whose oracle side
fails it returns ``(False, False, True, None)``: such a table adds only to
the count.  Functions whose sides disagree are listed as mismatches, and a
report succeeds exactly when there are none (the existence search
``remark_p_divides_n`` instead succeeds when it lists at least one witness).
"""

from __future__ import annotations

import time
from math import lcm

from . import modp, spectral
from .cyclo import _Value, zeta_pow
from .modp import DEFAULT_BUDGET, UnitFunction


class HypothesisViolation(ValueError):
    """A verification was asked to run outside its statement's hypotheses."""


#: Statement identifiers accepted by ``run_statement`` and the CLI.
STATEMENTS = (
    "prop_1_1",
    "thm_1_2",
    "cor_1_3",
    "lemma_2_1",
    "prop_2_2",
    "cor_2_3",
    "thm_1_7",
    "remark_counterexample",
    "remark_p_divides_n",
)

#: Primes for the sign-function statement (n = 2 implicitly).
GRID_PRIMES_QUADRATIC = (3, 5, 7, 11, 13)

#: (p, n) cells for the statements parameterized by a general value order n.
GRID_CELLS = ((3, 2), (3, 4), (3, 5), (5, 3), (5, 4), (5, 6),
              (7, 2), (7, 3), (7, 4), (7, 6))

#: Per-cell cardinality ceiling the default grid promises.
GRID_CELL_CAP = 10_000

#: Cells for the statements that leave f(1) free: those enumerate n^(p-1)
#: tables, so (7, 6) (which would be 46656 functions) is omitted.
GRID_CELLS_FREE = tuple((p, n) for (p, n) in GRID_CELLS
                        if n ** (p - 1) <= GRID_CELL_CAP)


class VerificationReport(_Value):
    """Structured outcome of one exhaustive verification.

    A mutable, unhashable ``cyclo._Value`` with an instance dict: equal to
    another report exactly when every field in ``_fields`` is equal.  Each
    report gets its own ``mismatches`` and ``witnesses`` lists unless it is
    given some.
    """

    _fields = ("statement", "p", "n", "budget", "total_functions", "passing_spectral",
               "passing_oracle", "mismatches", "witnesses", "elapsed_ms", "success", "error")

    def __init__(self, statement: str, p: "int | None", n: "int | None", budget: int,
                 total_functions: int = 0, passing_spectral: int = 0,
                 passing_oracle: int = 0, mismatches: "list | None" = None,
                 witnesses: "list | None" = None, elapsed_ms: int = 0,
                 success: bool = False, error: "str | None" = None):
        self.statement = statement
        self.p = p
        self.n = n
        self.budget = budget
        self.total_functions = total_functions
        self.passing_spectral = passing_spectral
        self.passing_oracle = passing_oracle
        self.mismatches = [] if mismatches is None else mismatches
        self.witnesses = [] if witnesses is None else witnesses
        self.elapsed_ms = elapsed_ms
        self.success = success
        self.error = error

    def to_json_dict(self) -> dict:
        """The stable machine-readable form emitted by the CLI: every field
        but ``budget``, and ``mismatch_count``, with exponent tuples as
        lists."""
        record = dict(zip(self._fields, self._field_values(self)))
        del record["budget"]
        record["mismatch_count"] = len(self.mismatches)
        record["mismatches"] = [list(exps) for exps in self.mismatches]
        record["witnesses"] = [{"exps": list(exps), "a": a} for exps, a in self.witnesses]
        return record


def _cell(p: int, n: int, budget: int, fix_f1: bool = True,
          p_divides_n: "bool | None" = False):
    """Open a cell: validate (p, n) against the budget, then hold it to the
    statement's hypothesis that p divides n (True), does not (False), or
    either (None).  Returns the unstarted enumeration of the cell."""
    functions = modp.enumerate_unit_functions(p, n, fix_f1=fix_f1, budget=budget)
    if p_divides_n is not None and (n % p == 0) != p_divides_n:
        raise HypothesisViolation(
            f"p {'does not divide' if p_divides_n else 'divides'} n (p={p}, n={n})")
    return functions


def _gauss_norm_is_p(f: UnitFunction) -> bool:
    return spectral.has_unit_fourier_magnitude(f, f.p - 1)


def _gauss_screen(p: int, n: int, fix_f1: bool = True):
    """The cell screen of ``_gauss_norm_is_p``: tau(f) is S_(p-1)."""
    return spectral.magnitude_screen(p, n, p - 1, fix_f1)


def _is_nontrivial_character(f: UnitFunction) -> bool:
    return modp.is_character_oracle(f) and not f.is_trivial


def _run(statement: str, p: int, n: int, budget: int, judge, functions, screen,
         existence: bool = False) -> VerificationReport:
    """Judge every function of the opened cell, with its screen verdict,
    and tally the report."""
    t0 = time.perf_counter()
    rep = VerificationReport(statement, p, n, budget)
    for f, passed in zip(functions, screen, strict=True):
        spectral_hit, oracle_hit, agrees, witness = judge(f, passed)
        rep.total_functions += 1
        rep.passing_spectral += spectral_hit
        rep.passing_oracle += oracle_hit
        if witness is not None:
            rep.witnesses.append(witness)
        if not agrees:
            rep.mismatches.append(f.exps)
    rep.success = bool(rep.witnesses) if existence else not rep.mismatches
    rep.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return rep


def verify_prop_1_1(p: int, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Sign functions with f(1) = 1: among all 2^(p-2) of them, exactly the
    quadratic-residue table has norm_squared(tau(f)) = p."""
    functions = _cell(p, 2, budget)
    legendre = modp.legendre_unit_function(p).exps

    def judge(f, passed):
        hit = passed and _gauss_norm_is_p(f)
        is_legendre = f.exps == legendre
        return hit, is_legendre, hit == is_legendre, (f.exps, p - 1) if hit else None
    return _run("prop_1_1", p, 2, budget, judge, functions, _gauss_screen(p, 2))


def verify_thm_1_2(p: int, n: int, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Spectral witness test against the oracle, over all mu_n-valued f with
    f(1) = 1: some |fhat(a)| = 1 iff f is a nontrivial character."""
    functions = _cell(p, n, budget)

    def judge(f, passed):
        a = spectral.spectral_witness(f) if passed else None
        hit = a is not None
        oracle_hit = _is_nontrivial_character(f)
        return hit, oracle_hit, hit == oracle_hit, (f.exps, a) if hit else None
    # p does not divide n, so the witness test is the one at a = 1.
    screen = spectral.magnitude_screen(p, n, 1)
    return _run("thm_1_2", p, n, budget, judge, functions, screen)


def verify_cor_1_3(p: int, n: int, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Dichotomy check over all mu_n-valued f (f(1) free): the witness set
    {a : |fhat(a)| = 1} is empty or all of the units, never in between."""
    functions = _cell(p, n, budget, fix_f1=False)

    def judge(f, passed):
        hits = passed and sum(spectral.has_unit_fourier_magnitude(f, a) for a in range(1, p))
        full = hits == p - 1
        return (full, _is_nontrivial_character(f.normalized()), full or not hits,
                (f.exps, 1) if full else None)
    # A table that every unit's screen rejects has no witness at all.
    screens = (spectral.magnitude_screen(p, n, a, fix_f1=False) for a in range(1, p))
    screen = map(any, zip(*screens))
    return _run("cor_1_3", p, n, budget, judge, functions, screen)


def verify_lemma_2_1(p: int, n: int, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Subfield filter over all mu_n-valued g: tau(g) lies in Q(zeta_n) for
    exactly the n constant functions, and each such g is identically
    -tau(g)."""
    functions = _cell(p, n, budget, fix_f1=False)
    big = lcm(n, p)

    def judge(g, passed):
        const = g.is_constant
        if passed:
            tau = spectral.gauss_sum(g).value
            if tau.in_subfield(n):
                minus_tau = const and zeta_pow(n, g.exps[0]).embed(big) == -tau
                return True, const, minus_tau, (g.exps, None)
        return False, const, not const, None
    screen = spectral.subfield_screen(p, n)
    return _run("lemma_2_1", p, n, budget, judge, functions, screen)


def verify_prop_2_2(p: int, n: int, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Gauss-magnitude test against the oracle, over all mu_n-valued f with
    f(1) = 1: norm_squared(tau(f)) = p iff f is a nontrivial character."""
    functions = _cell(p, n, budget)

    def judge(f, passed):
        hit = passed and _gauss_norm_is_p(f)
        oracle_hit = _is_nontrivial_character(f)
        return hit, oracle_hit, hit == oracle_hit, (f.exps, p - 1) if hit else None
    return _run("prop_2_2", p, n, budget, judge, functions, _gauss_screen(p, n))


def verify_cor_2_3(p: int, n: int, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Factorization form with f(1) free: norm_squared(tau(f)) = p iff f
    splits as f(1) times a nontrivial character, with the factorization
    rebuilt explicitly and checked."""
    functions = _cell(p, n, budget, fix_f1=False)

    def judge(f, passed):
        g = f.normalized()
        factors = _is_nontrivial_character(g)
        if factors and tuple((f.exps[0] + e) % n for e in g.exps) != f.exps:
            return False, True, False, None
        hit = passed and _gauss_norm_is_p(f)
        return hit, factors, hit == factors, (f.exps, p - 1) if hit else None
    return _run("cor_2_3", p, n, budget, judge, functions, _gauss_screen(p, n, fix_f1=False))


def verify_thm_1_7(p: int, n: int, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Autocorrelation criterion against the oracle, over all mu_n-valued f
    with f(1) = 1.  The flat profile (-1 at every nonzero shift) holds for
    exactly the nontrivial characters: the trivial character autocorrelates
    to p - 2 off zero, so it is counted on the oracle side only.  No
    divisibility hypothesis here."""
    functions = _cell(p, n, budget, p_divides_n=None)

    def judge(f, passed):
        flat = passed and spectral.kurlberg_test(f)
        oracle_hit = modp.is_character_oracle(f)
        return (flat, oracle_hit, flat == (oracle_hit and not f.is_trivial),
                (f.exps, None) if flat else None)
    return _run("thm_1_7", p, n, budget, judge, functions, spectral.flat_screen(p, n))


def remark_counterexample() -> VerificationReport:
    """The pinned counterexample p = 3, n = 6, f = (1, e(5/6)): Gauss sum of
    magnitude sqrt(3) without being a character, showing that dropping the
    p-not-dividing-n hypothesis breaks the magnitude criterion."""
    def judge(f, passed):
        hit = passed and _gauss_norm_is_p(f)
        oracle_hit = modp.is_character_oracle(f)
        a = spectral.spectral_witness(f)
        agrees = hit and not oracle_hit and f.n % f.p == 0 and a == 2
        return hit, oracle_hit, agrees, None if a is None else (f.exps, a)
    return _run("remark_counterexample", 3, 6, 1, judge, (UnitFunction(3, 6, (0, 5)),), (True,))


def search_p_divides_n(p: int, n: int, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Hunt, over f with f(1) = 1, for non-homomorphisms whose Gauss sum
    still has norm_squared = p; only possible because p divides n.  The
    report succeeds when at least one such function is found; hits are
    returned as witnesses and no count formula is asserted."""
    functions = _cell(p, n, budget, p_divides_n=True)

    def judge(f, passed):
        hit = passed and _gauss_norm_is_p(f)
        oracle_hit = modp.is_character_oracle(f)
        found = hit and not oracle_hit
        return hit, oracle_hit, True, (f.exps, spectral.spectral_witness(f)) if found else None
    return _run("remark_p_divides_n", p, n, budget, judge, functions, _gauss_screen(p, n),
                existence=True)


# ---------------------------------------------------------------------------
# Dispatch and the default grid.

_PARAMETRIC_VERIFIERS = {
    "thm_1_2": verify_thm_1_2,
    "cor_1_3": verify_cor_1_3,
    "lemma_2_1": verify_lemma_2_1,
    "prop_2_2": verify_prop_2_2,
    "cor_2_3": verify_cor_2_3,
    "thm_1_7": verify_thm_1_7,
    "remark_p_divides_n": search_p_divides_n,
}


def run_statement(statement: str, p: "int | None" = None, n: "int | None" = None,
                  budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Run one named verification; raises on unknown names or bad params."""
    if statement == "prop_1_1":
        if p is None:
            raise ValueError("prop_1_1 requires p")
        if n not in (None, 2):
            raise HypothesisViolation("prop_1_1 is a statement about sign functions; n is fixed to 2")
        return verify_prop_1_1(p, budget)
    if statement == "remark_counterexample":
        if (p, n) not in ((None, None), (3, 6)):
            raise HypothesisViolation("the counterexample is pinned to p=3, n=6")
        return remark_counterexample()
    verifier = _PARAMETRIC_VERIFIERS.get(statement)
    if verifier is None:
        raise ValueError(f"unknown statement {statement!r}")
    if p is None or n is None:
        raise ValueError(f"{statement} requires p and n")
    return verifier(p, n, budget)


def default_grid() -> list:
    """The default verification grid: every statement over its cells.

    Cell sizes stay at or below GRID_CELL_CAP functions so the whole grid
    runs in seconds.
    """
    cells = [("prop_1_1", p, 2) for p in GRID_PRIMES_QUADRATIC]
    cells += [("thm_1_2", p, n) for (p, n) in GRID_CELLS]
    cells += [("cor_1_3", p, n) for (p, n) in GRID_CELLS_FREE]
    cells += [("lemma_2_1", p, n) for (p, n) in GRID_CELLS_FREE]
    cells += [("prop_2_2", p, n) for (p, n) in GRID_CELLS]
    cells += [("cor_2_3", p, n) for (p, n) in GRID_CELLS_FREE]
    cells += [("thm_1_7", p, n) for (p, n) in GRID_CELLS]
    cells.append(("remark_counterexample", 3, 6))
    cells.append(("remark_p_divides_n", 3, 6))
    return cells


def verify_grid(config: list, budget: int = DEFAULT_BUDGET) -> list:
    """Run every (statement, p, n) cell, never aborting the batch.

    Per-cell errors (hypothesis violations, blown budgets, bad input) are
    converted into failed reports carrying the diagnostic in ``error``.
    """
    reports = []
    for statement, p, n in config:
        try:
            reports.append(run_statement(statement, p, n, budget))
        except ValueError as exc:
            reports.append(VerificationReport(
                statement, p, n, budget, success=False, error=str(exc)))
    return reports
