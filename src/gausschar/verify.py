"""Exhaustive verification of the exact character criteria at small moduli.

Each statement has one verifier, called as ``verifier(p, n, budget)``;
the statement table ``_PARAMETRIC_VERIFIERS`` maps every statement name
to it, in default-grid order, and ``STATEMENTS`` is that table's keys.
``run_statement`` looks a name up there and calls the verifier, and sets
the report's ``elapsed_ms`` from the whole call (a verifier called
directly leaves it 0); ``default_grid`` reads each statement's cells from
``_DEFAULT_CELLS``.

A verifier first opens its (p, n) cell with ``_cell``, which refuses a
missing p or n with a message naming the statement, validates the cell
(through ``modp.enumerate_unit_functions``, cheapest check first, the
budget before primality) and applies the statement's divisibility
hypothesis; only then are per-cell constants built.  The two statements
with a pinned parameter check their parameters themselves: ``prop_1_1``
requires p and takes n = 2 or None, the counterexample takes (3, 6) or
neither, and any other value is a ``HypothesisViolation``; a pinned value
given as a float, such as 3.0 or 2.0, is refused as ``_cell`` refuses it.

Among the per-cell constants are two sorted lists of table indices (see
``modp.table_index``), each naming the tables that a verdict source has
not rejected.  The cell screen, from ``spectral``, holds the split-prime
survivors (see the ``spectral`` module docstring): a table left out is
proven to fail the statement's analytic test.  The Gauss-sum statements
that assume p does not divide n (``prop_1_1``, ``thm_1_2``,
``prop_2_2``, ``cor_2_3``) and ``thm_1_7`` take
``spectral.bucket_screen(p, n)`` or, with f(1) free,
``bucket_screen(p, n, fix_f1=False)``: a table it leaves out has a
nonzero value sum or |S_1|^2 != p, and either rules out a flat profile,
and |tau(f)|^2 = p when p does not divide n.  ``cor_1_3`` and ``remark_p_divides_n`` take
``magnitude_screen``, which passes the tables whose image passes at some
unit, so a table it leaves out fails at every twist and no dichotomy is
assumed.  The candidate list holds the oracle side's survivors: most
statements take ``modp.homomorphism_candidates`` (at n = 2 for
``prop_1_1``), the characters in closed form from one primitive root,
times each constant when f(1) is free, so a table left out is no
character, nor a constant times one; ``lemma_2_1`` lists the n constant
tables, and the pinned counterexample lists its one table, ``[0]``.

Every verifier then runs through one loop, ``_run``, and hands it the
screen's list and the candidate list end to end as the tables to judge.
``_run`` walks the opened stream (or the pinned tables it is given) once,
counts every table, calls the statement's judge as ``judge(f)`` on each
table whose index is listed, and raises ValueError on an index at or past
the cell's table count, so a list can never name a table the cell does
not have.  A judge sees the table alone and decides both sides in full:
the statement's analytic test (Gauss-sum magnitude, Fourier witness,
subfield membership or autocorrelation profile, each "yes" decided by
canonical equality) and its oracle side (the brute-force homomorphism
oracle, with ``UnitFunction.normalized`` where f(1) is free; for
``prop_1_1`` and ``lemma_2_1``, equality with the Legendre table or the
constant test).  It returns ``(spectral_hit, oracle_hit, agrees,
witness)``: whether each side holds, whether the two relate as the
statement predicts, and the ``(exps, a)`` record to list as a witness, or
None.  A table in neither list fails both sides, by the two proven
rejections, so its judge returns ``(False, False, True, None)``, which
adds only to the count; ``_run`` counts such a table without judging it,
and the report is the one that judging every table gives.  The test
``test_every_judge_is_neutral_where_both_sides_reject`` runs every judge
on every default-grid table that ``_run`` skips and is what keeps that
skip exact.  Functions whose sides disagree are listed as mismatches, and
``_run``'s report succeeds exactly when there are none; the existence
search ``remark_p_divides_n`` then sets its report to succeed when it
lists at least one witness.
"""

from __future__ import annotations

import time
from math import lcm

from . import modp, spectral
from .cyclo import _Value, zeta_pow
from .modp import DEFAULT_BUDGET, UnitFunction


class HypothesisViolation(ValueError):
    """A verification was asked to run outside its statement's hypotheses."""


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

    _fields = ("statement", "p", "n", "total_functions", "passing_spectral",
               "passing_oracle", "mismatches", "witnesses", "elapsed_ms", "success", "error")

    def __init__(self, statement: str, p: "int | None", n: "int | None",
                 total_functions: int = 0, passing_spectral: int = 0,
                 passing_oracle: int = 0, mismatches: "list | None" = None,
                 witnesses: "list | None" = None, elapsed_ms: int = 0,
                 success: bool = False, error: "str | None" = None):
        self.statement = statement
        self.p = p
        self.n = n
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
        and ``mismatch_count``, with exponent tuples as lists."""
        record = dict(zip(self._fields, self._field_values(self)))
        record["mismatch_count"] = len(self.mismatches)
        record["mismatches"] = [list(exps) for exps in self.mismatches]
        record["witnesses"] = [{"exps": list(exps), "a": a} for exps, a in self.witnesses]
        return record


def _cell(statement: str, p: "int | None", n: "int | None", budget: int,
          fix_f1: bool = True, p_divides_n: "bool | None" = False):
    """Open a cell of the statement: require p and n, validate them against
    the budget, then hold the cell to the statement's hypothesis that p
    divides n (True), does not (False), or either (None).  Returns the
    unstarted enumeration of the cell."""
    if p is None or n is None:
        raise ValueError(f"{statement} requires p and n")
    functions = modp.enumerate_unit_functions(p, n, fix_f1=fix_f1, budget=budget)
    if p_divides_n is not None and (n % p == 0) != p_divides_n:
        raise HypothesisViolation(
            f"p {'does not divide' if p_divides_n else 'divides'} n (p={p}, n={n})")
    return functions


def _gauss_norm_is_p(f: UnitFunction) -> bool:
    return spectral.has_unit_fourier_magnitude(f, f.p - 1)


def _is_nontrivial_character(f: UnitFunction) -> bool:
    return modp.is_character_oracle(f) and not f.is_trivial


def _run(statement: str, p: int, n: int, judge, functions, judged) -> VerificationReport:
    """Count every function of the opened cell, judge each one whose index
    is in ``judged`` (a verifier lists its screen's survivors, then its
    candidates), and tally the report; an index past the last function
    raises ValueError."""
    rep = VerificationReport(statement, p, n)
    judged = set(judged)
    index = -1
    for index, f in enumerate(functions):
        if index not in judged:
            continue  # both sides reject: the judge would be neutral
        spectral_hit, oracle_hit, agrees, witness = judge(f)
        rep.passing_spectral += spectral_hit
        rep.passing_oracle += oracle_hit
        if witness is not None:
            rep.witnesses.append(witness)
        if not agrees:
            rep.mismatches.append(f.exps)
    if max(judged, default=-1) > index:
        raise ValueError(f"verdict index {max(judged)} is past the {index + 1} tables of the cell")
    rep.total_functions = index + 1
    rep.success = not rep.mismatches
    return rep


def verify_prop_1_1(p: "int | None", n: "int | None" = 2,
                    budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Sign functions with f(1) = 1: among all 2^(p-2) of them, exactly the
    quadratic-residue table has norm_squared(tau(f)) = p.  n is fixed to 2
    (None stands for it)."""
    if p is None:
        raise ValueError("prop_1_1 requires p")
    if n not in (None, 2):
        raise HypothesisViolation("prop_1_1 is a statement about sign functions; n is fixed to 2")
    functions = _cell("prop_1_1", p, 2 if n is None else n, budget)
    legendre = modp.legendre_unit_function(p).exps

    def judge(f):
        hit = _gauss_norm_is_p(f)
        is_legendre = f.exps == legendre
        return hit, is_legendre, hit == is_legendre, (f.exps, p - 1) if hit else None
    return _run("prop_1_1", p, 2, judge, functions,
                spectral.bucket_screen(p, 2) + modp.homomorphism_candidates(p, 2))


def verify_thm_1_2(p: int, n: int, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Spectral witness test against the oracle, over all mu_n-valued f with
    f(1) = 1: some |fhat(a)| = 1 iff f is a nontrivial character."""
    functions = _cell("thm_1_2", p, n, budget)

    def judge(f):
        a = spectral.spectral_witness(f)
        hit = a is not None
        oracle_hit = _is_nontrivial_character(f)
        return hit, oracle_hit, hit == oracle_hit, (f.exps, a) if hit else None
    # A table the screen rejects has S_1 off p or S_0 != 0, so it has no
    # witness at a = 1, the one unit the witness test tries when p does not
    # divide n.
    return _run("thm_1_2", p, n, judge, functions,
                spectral.bucket_screen(p, n) + modp.homomorphism_candidates(p, n))


def verify_cor_1_3(p: int, n: int, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Dichotomy check over all mu_n-valued f (f(1) free): the witness set
    {a : |fhat(a)| = 1} is empty or all of the units, never in between."""
    functions = _cell("cor_1_3", p, n, budget, fix_f1=False)

    def judge(f):
        hits = sum(spectral.has_unit_fourier_magnitude(f, a) for a in range(1, p))
        full = hits == p - 1
        oracle_hit = _is_nontrivial_character(f.normalized())
        return full, oracle_hit, full or not hits, (f.exps, 1) if full else None
    # A table that the screen rejects at every unit has no witness at all.
    return _run("cor_1_3", p, n, judge, functions, spectral.magnitude_screen(p, n, fix_f1=False)
                + modp.homomorphism_candidates(p, n, fix_f1=False))


def verify_lemma_2_1(p: int, n: int, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Subfield filter over all mu_n-valued g: tau(g) lies in Q(zeta_n) for
    exactly the n constant functions, and each such g is identically
    -tau(g)."""
    functions = _cell("lemma_2_1", p, n, budget, fix_f1=False)
    big = lcm(n, p)

    def judge(g):
        const = g.is_constant
        tau = spectral.gauss_sum(g).value
        if tau.in_subfield(n):
            minus_tau = const and zeta_pow(n, g.exps[0]).embed(big) == -tau
            return True, const, minus_tau, (g.exps, None)
        return False, const, not const, None
    constants = [modp.table_index((d,) * (p - 1), n) for d in range(n)]
    return _run("lemma_2_1", p, n, judge, functions, spectral.subfield_screen(p, n) + constants)


def verify_prop_2_2(p: int, n: int, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Gauss-magnitude test against the oracle, over all mu_n-valued f with
    f(1) = 1: norm_squared(tau(f)) = p iff f is a nontrivial character."""
    functions = _cell("prop_2_2", p, n, budget)

    def judge(f):
        hit = _gauss_norm_is_p(f)
        oracle_hit = _is_nontrivial_character(f)
        return hit, oracle_hit, hit == oracle_hit, (f.exps, p - 1) if hit else None
    return _run("prop_2_2", p, n, judge, functions,
                spectral.bucket_screen(p, n) + modp.homomorphism_candidates(p, n))


def verify_cor_2_3(p: int, n: int, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Factorization form with f(1) free: norm_squared(tau(f)) = p iff f
    splits as f(1) times a nontrivial character."""
    functions = _cell("cor_2_3", p, n, budget, fix_f1=False)

    def judge(f):
        factors = _is_nontrivial_character(f.normalized())
        hit = _gauss_norm_is_p(f)
        return hit, factors, hit == factors, (f.exps, p - 1) if hit else None
    return _run("cor_2_3", p, n, judge, functions, spectral.bucket_screen(p, n, fix_f1=False)
                + modp.homomorphism_candidates(p, n, fix_f1=False))


def verify_thm_1_7(p: int, n: int, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Autocorrelation criterion against the oracle, over all mu_n-valued f
    with f(1) = 1.  The flat profile (-1 at every nonzero shift) holds for
    exactly the nontrivial characters: the trivial character autocorrelates
    to p - 2 off zero, so it is counted on the oracle side only.  No
    divisibility hypothesis here."""
    functions = _cell("thm_1_7", p, n, budget, p_divides_n=None)

    def judge(f):
        flat = spectral.kurlberg_test(f)
        oracle_hit = modp.is_character_oracle(f)
        return (flat, oracle_hit, flat == (oracle_hit and not f.is_trivial),
                (f.exps, None) if flat else None)
    return _run("thm_1_7", p, n, judge, functions,
                spectral.bucket_screen(p, n) + modp.homomorphism_candidates(p, n))


def remark_counterexample(p: "int | None" = None, n: "int | None" = None,
                          budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """The pinned counterexample p = 3, n = 6, f = (1, e(5/6)): Gauss sum of
    magnitude sqrt(3) without being a character, showing that dropping the
    p-not-dividing-n hypothesis breaks the magnitude criterion.  Any other
    p or n than (3, 6), or neither, is refused; one table fits any budget."""
    if (p, n) not in ((None, None), (3, 6)):
        raise HypothesisViolation("the counterexample is pinned to p=3, n=6")

    def judge(f):
        hit = _gauss_norm_is_p(f)
        oracle_hit = modp.is_character_oracle(f)
        a = spectral.spectral_witness(f)
        agrees = hit and not oracle_hit and f.n % f.p == 0 and a == 2
        return hit, oracle_hit, agrees, None if a is None else (f.exps, a)
    # UnitFunction refuses a float p or n, such as 3.0, that == lets through.
    table = UnitFunction(3 if p is None else p, 6 if n is None else n, (0, 5))
    return _run("remark_counterexample", 3, 6, judge, (table,), [0])


def search_p_divides_n(p: int, n: int, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Hunt, over f with f(1) = 1, for non-homomorphisms whose Gauss sum
    still has norm_squared = p; only possible because p divides n.  The
    report succeeds when at least one such function is found; hits are
    returned as witnesses and no count formula is asserted."""
    functions = _cell("remark_p_divides_n", p, n, budget, p_divides_n=True)

    def judge(f):
        hit = _gauss_norm_is_p(f)
        oracle_hit = modp.is_character_oracle(f)
        found = hit and not oracle_hit
        return hit, oracle_hit, True, (f.exps, spectral.spectral_witness(f)) if found else None
    rep = _run("remark_p_divides_n", p, n, judge, functions,
               spectral.magnitude_screen(p, n) + modp.homomorphism_candidates(p, n))
    rep.success = bool(rep.witnesses)
    return rep


# ---------------------------------------------------------------------------
# The statement table, dispatch and the default grid.

#: Every statement's verifier, ``verifier(p, n, budget)``, in grid order.
_PARAMETRIC_VERIFIERS = {
    "prop_1_1": verify_prop_1_1,
    "thm_1_2": verify_thm_1_2,
    "cor_1_3": verify_cor_1_3,
    "lemma_2_1": verify_lemma_2_1,
    "prop_2_2": verify_prop_2_2,
    "cor_2_3": verify_cor_2_3,
    "thm_1_7": verify_thm_1_7,
    "remark_counterexample": remark_counterexample,
    "remark_p_divides_n": search_p_divides_n,
}

#: Statement identifiers accepted by ``run_statement`` and the CLI.
STATEMENTS = tuple(_PARAMETRIC_VERIFIERS)

#: Each statement's (p, n) cells in the default grid.  Cell sizes stay at
#: or below GRID_CELL_CAP functions so the whole grid runs in seconds.
_DEFAULT_CELLS = {
    "prop_1_1": tuple((p, 2) for p in GRID_PRIMES_QUADRATIC),
    "thm_1_2": GRID_CELLS,
    "cor_1_3": GRID_CELLS_FREE,
    "lemma_2_1": GRID_CELLS_FREE,
    "prop_2_2": GRID_CELLS,
    "cor_2_3": GRID_CELLS_FREE,
    "thm_1_7": GRID_CELLS,
    "remark_counterexample": ((3, 6),),
    "remark_p_divides_n": ((3, 6),),
}


def run_statement(statement: str, p: "int | None" = None, n: "int | None" = None,
                  budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Run one named verification: look its verifier up in the statement
    table and call it with (p, n, budget), timing the whole call, screen
    and candidates included, as the report's ``elapsed_ms``.  Raises
    ValueError on an unknown name; the verifier raises on missing or bad
    parameters."""
    verifier = _PARAMETRIC_VERIFIERS.get(statement)
    if verifier is None:
        raise ValueError(f"unknown statement {statement!r}")
    t0 = time.perf_counter()
    rep = verifier(p, n, budget)
    rep.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return rep


def default_grid() -> list:
    """The default verification grid: every statement over its cells, as
    (statement, p, n) triples in statement-table order."""
    return [(statement, p, n) for statement, cells in _DEFAULT_CELLS.items()
            for p, n in cells]


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
            reports.append(VerificationReport(statement, p, n, success=False, error=str(exc)))
    return reports
