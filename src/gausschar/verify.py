"""Exhaustive verification of the exact character criteria at small moduli.

Each statement is one record, a ``_Statement``, which is also its verifier:
called as ``verifier(p, n, budget)`` it runs the one loop
``_run(statement, p, n, budget)``.  The statement table
``_PARAMETRIC_VERIFIERS`` maps every statement name to its record, in
default-grid order, and ``STATEMENTS`` is that table's keys.
``run_statement`` looks a name up there and calls the verifier, and sets
the report's ``elapsed_ms`` from the whole call (a verifier called directly
leaves it 0); ``default_grid`` reads each record's default cells.

A record holds what sets its statement apart, and nothing else: its f(1)
rule (``fix_f1``: the tables have f(1) = 1, or f(1) is free), its
hypothesis that p divides n (True), does not (False) or either (None), its
default cells, its screen and its candidate source, each a call on (p, n)
that returns the sorted indices of the tables with f(1) = 1 it passes (see
``modp.table_index``), and its judge, ``judge(f)``, which reads p and n
from the table.  ``prop_1_1``, ``prop_2_2`` and ``cor_2_3`` share one
judge, ``_gauss_magnitude``: Prop 2.2 is Cor 2.3 on the tables with f(1) =
1, where ``UnitFunction.normalized`` returns the table itself, and Prop 1.1
is Prop 2.2 at n = 2, since F_p^x is cyclic and its one nontrivial
quadratic character is the Legendre symbol.  The three records differ only
in their f(1) rule, their pinned n and their default cells.  Two statements
have a pinned parameter, checked by the record's ``pin`` before anything
else: ``prop_1_1`` requires p and takes n = 2 or None, the counterexample
takes (3, 6) or neither, and any other value is a
``HypothesisViolation``.  The counterexample also pins its
tables, one in all, ``(0, 5)``; a pinned table list is the whole cell,
every table of it is judged, and it fits any budget.  The existence search
``remark_p_divides_n`` is the one record with ``finds`` set: its report
succeeds when it lists a witness.

``_run`` first opens the cell: it refuses a missing p or n with a message
naming the statement, validates the cell (through
``modp.enumerate_unit_functions``, cheapest check first, the budget before
primality; a pinned table refuses a float p or n the same way, through
``UnitFunction``) and applies the divisibility hypothesis; only then are
the index lists built.  The screen's list holds the split-prime survivors
(see the ``spectral`` module docstring): a table left out is proven to fail
the statement's analytic test.  The Gauss-sum statements that assume p
does not divide n (``prop_1_1``, ``thm_1_2``, ``prop_2_2``, ``cor_2_3``)
and ``thm_1_7`` take ``spectral.bucket_screen``:
a table it leaves out has a nonzero value sum or |S_1|^2 != p, and either
rules out a flat profile, and |tau(f)|^2 = p when p does not divide n.
``cor_1_3`` and ``remark_p_divides_n`` take ``magnitude_screen``, which
passes the tables whose image passes at some unit, so a table it leaves out
fails at every twist and no dichotomy is assumed; ``lemma_2_1`` takes
``subfield_screen``.  The candidate list holds the oracle side's survivors:
most statements take ``modp.homomorphism_candidates`` (at n = 2 for
``prop_1_1``), the characters in closed form from one primitive root, so a
table left out is no character; ``lemma_2_1`` lists the trivial table alone.
Where the record leaves f(1) free, ``_run`` lifts the joined lists once to
every constant times each listed table (``modp.times_constants``, whose
docstring proves that the lift moves no verdict): ``lemma_2_1``'s trivial
table becomes its n constants, and a table left out is then no constant
times a character.

``_run`` then hands the screen's list and the candidate list, end to end
and lifted where f(1) is free, to ``_tally``, the walk.  ``_tally`` walks
the opened stream (or the pinned tables) once, counts every table, calls
the judge as ``judge(f)`` on each table whose index is listed, and raises
ValueError on an index at or past the cell's table count, so a list can
never name a table the cell does not have.  A judge sees the table alone
and decides both sides in full: the statement's analytic test (Gauss-sum
magnitude, Fourier witness, subfield membership or autocorrelation profile,
each "yes" decided by canonical equality) and its oracle side (the
brute-force homomorphism oracle, with ``UnitFunction.normalized`` where
f(1) is free; for ``lemma_2_1``, the constant test).  It returns
``(spectral_hit, oracle_hit, agrees, witness)``: whether each side holds,
whether the two relate as the statement predicts, and the ``(exps, a)``
record to list as a witness, or None.  A table in neither list fails both
sides, by the two proven rejections, so its judge returns ``(False, False,
True, None)``, which adds only to the count; ``_tally`` counts such a
table without judging it, and the report is the one that judging every
table gives.  The test
``test_every_judge_is_neutral_where_both_sides_reject`` runs every judge on
every default-grid table that ``_tally`` skips and is what keeps that skip
exact.  Functions whose sides disagree are listed as mismatches, and the
report succeeds exactly when there are none, or, for a record with
``finds``, when it lists at least one witness.
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


def _gauss_norm_is_p(f: UnitFunction) -> bool:
    return spectral.has_unit_fourier_magnitude(f, f.p - 1)


def _is_nontrivial_character(f: UnitFunction) -> bool:
    return modp.is_character_oracle(f) and not f.is_trivial


# ---------------------------------------------------------------------------
# The judges, one per statement except that prop_1_1, prop_2_2 and cor_2_3
# share _gauss_magnitude.  A judge is called as judge(f) on one table and
# reads p and n from it; it does not re-test what its record fixes (the
# f(1) rule, the p | n hypothesis, a pinned cell).

def _thm_1_2(f: UnitFunction) -> tuple:
    """Spectral witness test against the oracle, over all mu_n-valued f with
    f(1) = 1: some |fhat(a)| = 1 iff f is a nontrivial character.  A table
    the screen rejects has S_1 off p or S_0 != 0, so it has no witness at
    a = 1, the one unit the witness test tries when p does not divide n."""
    a = spectral.spectral_witness(f)
    hit = a is not None
    oracle_hit = _is_nontrivial_character(f)
    return hit, oracle_hit, hit == oracle_hit, (f.exps, a) if hit else None


def _cor_1_3(f: UnitFunction) -> tuple:
    """Dichotomy check over all mu_n-valued f (f(1) free): the witness set
    {a : |fhat(a)| = 1} is empty or all of the units, never in between.  A
    table that the screen rejects at every unit has no witness at all."""
    hits = sum(spectral.has_unit_fourier_magnitude(f, a) for a in range(1, f.p))
    full = hits == f.p - 1
    oracle_hit = _is_nontrivial_character(f.normalized())
    return full, oracle_hit, full or not hits, (f.exps, 1) if full else None


def _lemma_2_1(g: UnitFunction) -> tuple:
    """Subfield filter over all mu_n-valued g: tau(g) lies in Q(zeta_n) for
    exactly the n constant functions, and each such g is identically
    -tau(g)."""
    p, n = g.p, g.n
    const = g.is_constant
    tau = spectral.gauss_sum(g).value
    if tau.in_subfield(n):
        minus_tau = const and zeta_pow(n, g.exps[0]).embed(lcm(n, p)) == -tau
        return True, const, minus_tau, (g.exps, None)
    return False, const, not const, None


def _gauss_magnitude(f: UnitFunction) -> tuple:
    """Gauss-magnitude test against the oracle, the judge of prop_1_1,
    prop_2_2 and cor_2_3.  Cor 2.3, over all mu_n-valued f with f(1) free:
    norm_squared(tau(f)) = p iff f splits as f(1) times a nontrivial
    character.  Prop 2.2, over the f with f(1) = 1: norm_squared(tau(f)) =
    p iff f is a nontrivial character.  On a table with f(1) = 1,
    ``normalized()`` returns the table itself, so the two tests are one.
    Prop 1.1 is Prop 2.2 at n = 2: F_p^x is cyclic, so its one nontrivial
    mu_2-valued character is the Legendre symbol, and exactly the
    quadratic-residue table among the sign functions with f(1) = 1 has
    norm_squared(tau(f)) = p."""
    factors = _is_nontrivial_character(f.normalized())
    hit = _gauss_norm_is_p(f)
    return hit, factors, hit == factors, (f.exps, f.p - 1) if hit else None


def _thm_1_7(f: UnitFunction) -> tuple:
    """Autocorrelation criterion against the oracle, over all mu_n-valued f
    with f(1) = 1.  The flat profile (-1 at every nonzero shift) holds for
    exactly the nontrivial characters: the trivial character autocorrelates
    to p - 2 off zero, so it is counted on the oracle side only.  No
    divisibility hypothesis here."""
    flat = spectral.kurlberg_test(f)
    oracle_hit = modp.is_character_oracle(f)
    return (flat, oracle_hit, flat == (oracle_hit and not f.is_trivial),
            (f.exps, None) if flat else None)


def _counterexample(f: UnitFunction) -> tuple:
    """The pinned counterexample p = 3, n = 6, f = (1, e(5/6)): Gauss sum of
    magnitude sqrt(3) without being a character, showing that dropping the
    p-not-dividing-n hypothesis breaks the magnitude criterion.  That p
    divides n is the record's hypothesis, checked before any judge runs."""
    hit = _gauss_norm_is_p(f)
    oracle_hit = modp.is_character_oracle(f)
    a = spectral.spectral_witness(f)
    agrees = hit and not oracle_hit and a == 2
    return hit, oracle_hit, agrees, None if a is None else (f.exps, a)


def _search(f: UnitFunction) -> tuple:
    """Hunt, over f with f(1) = 1, for non-homomorphisms whose Gauss sum
    still has norm_squared = p; only possible because p divides n.  Hits
    are returned as witnesses and no count formula is asserted."""
    hit = _gauss_norm_is_p(f)
    oracle_hit = modp.is_character_oracle(f)
    found = hit and not oracle_hit
    return hit, oracle_hit, True, (f.exps, spectral.spectral_witness(f)) if found else None


def _sign_functions(p: "int | None", n: "int | None") -> tuple:
    """prop_1_1's pinned parameter: p is required, and n is 2 or None,
    which stands for it."""
    if p is None:
        raise ValueError("prop_1_1 requires p")
    if n not in (None, 2):
        raise HypothesisViolation("prop_1_1 is a statement about sign functions; n is fixed to 2")
    return p, 2 if n is None else n


def _pinned_counterexample(p: "int | None", n: "int | None") -> tuple:
    """The counterexample's pinned cell: (3, 6), or neither parameter."""
    if (p, n) not in ((None, None), (3, 6)):
        raise HypothesisViolation("the counterexample is pinned to p=3, n=6")
    return (3, 6) if p is None else (p, n)


# ---------------------------------------------------------------------------
# The records and the one loop.

class _Statement(_Value):
    """One statement as a record, and its verifier: ``statement(p, n,
    budget)`` runs ``_run(statement, p, n, budget)``.  See the module
    docstring for the fields."""

    __slots__ = _fields = ("name", "judge", "cells", "fix_f1", "p_divides_n", "screen",
                           "candidates", "pin", "pinned", "finds")

    def __init__(self, name: str, judge, cells: tuple, fix_f1: bool = True,
                 p_divides_n: "bool | None" = False, screen=spectral.bucket_screen,
                 candidates=modp.homomorphism_candidates, pin=None,
                 pinned: "tuple | None" = None, finds: bool = False):
        self.name = name
        self.judge = judge
        self.cells = cells
        self.fix_f1 = fix_f1
        self.p_divides_n = p_divides_n
        self.screen = screen
        self.candidates = candidates
        self.pin = pin
        self.pinned = pinned
        self.finds = finds

    def __call__(self, p: "int | None" = None, n: "int | None" = None,
                 budget: int = DEFAULT_BUDGET) -> VerificationReport:
        return _run(self, p, n, budget)


def _run(st: _Statement, p: "int | None", n: "int | None", budget: int) -> VerificationReport:
    """Open and validate the statement's cell, build its index lists,
    and tally the report through ``_tally``."""
    if st.pin is not None:
        p, n = st.pin(p, n)
    if p is None or n is None:
        raise ValueError(f"{st.name} requires p and n")
    if st.pinned is None:
        functions = modp.enumerate_unit_functions(p, n, fix_f1=st.fix_f1, budget=budget)
    else:  # the pinned tables are the cell: they fit any budget, and UnitFunction refuses a float
        functions = [UnitFunction(p, n, exps) for exps in st.pinned]
    if st.p_divides_n is not None and (n % p == 0) != st.p_divides_n:
        raise HypothesisViolation(
            f"p {'does not divide' if st.p_divides_n else 'divides'} n (p={p}, n={n})")
    if st.pinned is not None:
        judged = list(range(len(functions)))
    else:
        judged = st.screen(p, n) + st.candidates(p, n)
        if not st.fix_f1:
            judged = modp.times_constants(judged, p, n)
    rep = _tally(st.name, p, n, st.judge, functions, judged)
    if st.finds:
        rep.success = bool(rep.witnesses)
    return rep


def _tally(statement: str, p: int, n: int, judge, functions, judged) -> VerificationReport:
    """Count every function of the opened cell, judge each one whose index
    is in ``judged`` (the screen's survivors, then the candidates), and
    tally the report; an index past the last function raises ValueError."""
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


# ---------------------------------------------------------------------------
# The statement table, dispatch and the default grid.  Each record's cells
# stay at or below GRID_CELL_CAP functions, so the whole grid runs in
# seconds.

verify_prop_1_1 = _Statement("prop_1_1", _gauss_magnitude,
                             tuple((p, 2) for p in GRID_PRIMES_QUADRATIC), pin=_sign_functions)
verify_thm_1_2 = _Statement("thm_1_2", _thm_1_2, GRID_CELLS)
verify_cor_1_3 = _Statement("cor_1_3", _cor_1_3, GRID_CELLS_FREE, fix_f1=False,
                            screen=spectral.magnitude_screen)
verify_lemma_2_1 = _Statement("lemma_2_1", _lemma_2_1, GRID_CELLS_FREE, fix_f1=False,
                              screen=spectral.subfield_screen, candidates=lambda p, n: [0])
verify_prop_2_2 = _Statement("prop_2_2", _gauss_magnitude, GRID_CELLS)
verify_cor_2_3 = _Statement("cor_2_3", _gauss_magnitude, GRID_CELLS_FREE, fix_f1=False)
verify_thm_1_7 = _Statement("thm_1_7", _thm_1_7, GRID_CELLS, p_divides_n=None)
remark_counterexample = _Statement("remark_counterexample", _counterexample, ((3, 6),),
                                   p_divides_n=True, pin=_pinned_counterexample, pinned=((0, 5),))
search_p_divides_n = _Statement("remark_p_divides_n", _search, ((3, 6),), p_divides_n=True,
                                screen=spectral.magnitude_screen, finds=True)

#: Every statement's verifier, its record, in grid order.
_PARAMETRIC_VERIFIERS = {st.name: st for st in (
    verify_prop_1_1, verify_thm_1_2, verify_cor_1_3, verify_lemma_2_1, verify_prop_2_2,
    verify_cor_2_3, verify_thm_1_7, remark_counterexample, search_p_divides_n)}

#: Statement identifiers accepted by ``run_statement`` and the CLI.
STATEMENTS = tuple(_PARAMETRIC_VERIFIERS)

#: The default grid, read from the records once: a tracer may later wrap
#: the table's entries.
_DEFAULT_GRID = tuple((st.name, p, n) for st in _PARAMETRIC_VERIFIERS.values()
                      for p, n in st.cells)


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
    return list(_DEFAULT_GRID)


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
