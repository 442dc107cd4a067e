import functools
import json
import time
from math import gcd, lcm
from pathlib import Path

import pytest

from gausschar import modp, spectral, verify
from gausschar.cyclo import MAX_ORDER, factorize
from gausschar.modp import BudgetExceededError, enumerate_unit_functions, legendre_unit_function
from gausschar.verify import (
    GRID_CELLS,
    GRID_CELLS_FREE,
    STATEMENTS,
    HypothesisViolation,
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
from record_tier2_golden import TIER2_CELLS, TIER2_GOLDEN, golden_line
from reference import count_unit_functions, dense_run

#: Every default-grid cell, then five cells that fail to run, in file order.
GOLDEN = Path(__file__).parent / "data" / "grid_golden.jsonl"
GOLDEN_ERROR_CELLS = [("thm_1_2", 3, 6), ("thm_1_2", 13, 10), ("prop_1_1", 4, 2),
                      ("remark_p_divides_n", 3, 2), ("thm_1_7", 3, 0)]


def test_prop_1_1_small_primes():
    for p, total in [(3, 2), (5, 8), (7, 32)]:
        rep = verify_prop_1_1(p)
        assert rep.success
        assert rep.total_functions == total
        assert rep.passing_spectral == 1
        assert rep.passing_oracle == 1
        assert rep.witnesses == [(legendre_unit_function(p).exps, p - 1)]


def test_thm_1_2_cells():
    rep = verify_thm_1_2(5, 2)
    assert rep.success and rep.total_functions == 8 and rep.passing_spectral == 1
    assert rep.witnesses == [(legendre_unit_function(5).exps, 1)]
    rep = verify_thm_1_2(5, 3)
    assert rep.success and rep.total_functions == 27 and rep.passing_spectral == 0
    rep = verify_thm_1_2(3, 4)
    assert rep.success and rep.total_functions == 4 and rep.passing_spectral == 1


def test_thm_1_2_hypothesis_violation():
    with pytest.raises(HypothesisViolation):
        verify_thm_1_2(3, 6)
    with pytest.raises(HypothesisViolation):
        verify_thm_1_2(5, 10)


def test_cor_1_3_cells():
    rep = verify_cor_1_3(3, 2)
    assert rep.success and rep.total_functions == 4 and not rep.mismatches
    assert rep.passing_spectral == 2  # +-Legendre mod 3
    rep = verify_cor_1_3(5, 4)
    assert rep.success and rep.total_functions == 256
    assert rep.passing_spectral == 12 and rep.passing_oracle == 12
    with pytest.raises(HypothesisViolation):
        verify_cor_1_3(3, 3)


def test_lemma_2_1_cells():
    rep = verify_lemma_2_1(3, 2)
    assert rep.success and rep.total_functions == 4
    assert rep.passing_spectral == 2 and rep.passing_oracle == 2
    rep = verify_lemma_2_1(5, 2)
    assert rep.success and rep.total_functions == 16 and rep.passing_spectral == 2
    rep = verify_lemma_2_1(3, 4)
    assert rep.success and rep.total_functions == 16 and rep.passing_spectral == 4
    # constants are exactly the subfield hits
    assert sorted(exps for exps, _ in rep.witnesses) == [(k, k) for k in range(4)]


def test_prop_2_2_cells():
    rep = verify_prop_2_2(7, 2)
    assert rep.success and rep.passing_spectral == 1
    rep = verify_prop_2_2(7, 3)
    assert rep.success and rep.passing_spectral == 2
    rep = verify_prop_2_2(11, 2)
    assert rep.success and rep.total_functions == 512 and rep.passing_spectral == 1


def test_cor_2_3_cells():
    rep = verify_cor_2_3(3, 2)
    assert rep.success and rep.total_functions == 4 and rep.passing_spectral == 2
    rep = verify_cor_2_3(5, 4)
    assert rep.success and rep.passing_spectral == 4 * (gcd(4, 4) - 1)
    rep = verify_cor_2_3(5, 3)
    assert rep.success and rep.passing_spectral == 0


def test_thm_1_7_cells():
    rep = verify_thm_1_7(5, 4)
    assert rep.success and rep.passing_oracle == 4 and rep.passing_spectral == 3
    rep = verify_thm_1_7(7, 2)
    assert rep.success and rep.passing_oracle == 2 and rep.passing_spectral == 1
    # no divisibility hypothesis: (3, 6) is a legal cell here
    rep = verify_thm_1_7(3, 6)
    assert rep.success and rep.total_functions == 6
    assert (0, 5) not in [exps for exps, _ in rep.witnesses]
    # The screen's value sum lives in Z[zeta_n], so a cell whose lcm(n, p)
    # exceeds MAX_ORDER is still decided whole.
    assert lcm(3334, 3) > MAX_ORDER
    rep = verify_thm_1_7(3, 3334)
    assert rep.success and rep.total_functions == 3334 and rep.passing_spectral == 1


def test_remark_counterexample_report():
    rep = remark_counterexample()
    assert rep.success
    assert rep.p == 3 and rep.n == 6
    assert rep.total_functions == 1
    assert rep.passing_spectral == 1 and rep.passing_oracle == 0
    assert rep.witnesses == [((0, 5), 2)]


def test_search_p_divides_n():
    rep = search_p_divides_n(3, 6)
    assert rep.success
    hit_tables = [exps for exps, _ in rep.witnesses]
    assert (0, 5) in hit_tables
    rep = search_p_divides_n(3, 3)
    assert not rep.success and not rep.witnesses and rep.total_functions == 3
    with pytest.raises(HypothesisViolation):
        search_p_divides_n(3, 2)


#: Each statement that opens a cell of the table stream: whether f(1) is
#: free, the cells its p | n hypothesis admits, and the cell it refuses
#: (None: it takes either).
RECORD_FIELDS = [
    ("thm_1_2", False, [(3, 4)], (3, 6)),
    ("cor_1_3", True, [(3, 4)], (3, 6)),
    ("lemma_2_1", True, [(3, 4)], (3, 6)),
    ("prop_2_2", False, [(3, 4)], (3, 6)),
    ("cor_2_3", True, [(3, 4)], (3, 6)),
    ("thm_1_7", False, [(3, 4), (3, 6)], None),
    ("remark_p_divides_n", False, [(3, 6)], (3, 4)),
]


@pytest.mark.parametrize("statement, f1_free, admitted, refused", RECORD_FIELDS,
                         ids=[fields[0] for fields in RECORD_FIELDS])
def test_each_statement_keeps_its_f1_rule_and_hypothesis(statement, f1_free, admitted, refused):
    # A cell has n^(p-1) tables with f(1) free and n^(p-2) with f(1) = 1;
    # a refused cell names the divisibility that fails, before any work.
    for p, n in admitted:
        rep = run_statement(statement, p, n)
        assert rep.error is None and rep.total_functions == n ** (p - 1 if f1_free else p - 2)
    if refused is not None:
        p, n = refused
        relation = "does not divide" if n % p else "divides"
        with pytest.raises(HypothesisViolation, match=rf"^p {relation} n \(p={p}, n={n}\)$"):
            run_statement(statement, p, n)


def test_budget_propagates():
    with pytest.raises(BudgetExceededError):
        verify_thm_1_2(13, 10)
    with pytest.raises(BudgetExceededError):
        verify_prop_1_1(5, budget=7)


def _forbid(monkeypatch, name):
    def forbidden(*args):
        raise AssertionError(f"{name} was called")
    monkeypatch.setattr(f"gausschar.modp.{name}", forbidden)


def test_budget_refused_before_primality(monkeypatch):
    # Trial division of a 19-digit p would run for hours.
    _forbid(monkeypatch, "is_prime")
    with pytest.raises(BudgetExceededError):
        verify_thm_1_2(10 ** 18 + 3, 2)
    with pytest.raises(BudgetExceededError):
        search_p_divides_n(10 ** 18 + 3, 2 * (10 ** 18 + 3))


def test_huge_p_at_n_one_refused_before_primality(monkeypatch):
    # n = 1 passes the budget with a single function; p above MAX_ORDER is
    # refused before it is tested or its table of p - 1 exponents is built.
    _forbid(monkeypatch, "is_prime")
    for verifier in (verify_thm_1_7, verify_thm_1_2):
        with pytest.raises(ValueError, match="exceeds MAX_ORDER") as err:
            verifier(10 ** 18 + 3, 1)
        assert not isinstance(err.value, BudgetExceededError)


def test_budget_refused_before_cell_constants(monkeypatch):
    _forbid(monkeypatch, "legendre_unit_function")
    with pytest.raises(BudgetExceededError):
        verify_prop_1_1(100003)


def test_cell_error_precedence():
    # Over budget and p | n at once: the budget is reported.
    with pytest.raises(BudgetExceededError):
        verify_thm_1_2(13, 26)
    # n < 1 is a bad cell, not a hypothesis of the statement.
    for verifier in (verify_thm_1_2, verify_thm_1_7, search_p_divides_n):
        with pytest.raises(ValueError, match="value order n must be at least 1, got 0") as err:
            verifier(3, 0)
        assert not isinstance(err.value, HypothesisViolation)


def test_run_statement_dispatch():
    rep = run_statement("thm_1_2", 5, 2)
    assert rep.statement == "thm_1_2" and rep.total_functions == 8
    rep = run_statement("prop_1_1", 7)
    assert rep.statement == "prop_1_1" and rep.n == 2
    rep = run_statement("remark_counterexample")
    assert rep.success
    with pytest.raises(ValueError):
        run_statement("thm_9_9", 5, 2)
    with pytest.raises(ValueError):
        run_statement("thm_1_2", 5)
    with pytest.raises(HypothesisViolation):
        run_statement("prop_1_1", 5, 3)
    with pytest.raises(HypothesisViolation, match="pinned to p=3, n=6"):
        run_statement("remark_counterexample", 5, 6)


def test_pinned_statements_take_p_n_and_budget():
    # Every verifier is called as verifier(p, n, budget); a pinned parameter
    # accepts its one value or None and refuses any other.
    assert verify_prop_1_1(5, None).total_functions == verify_prop_1_1(5, 2).total_functions == 8
    with pytest.raises(HypothesisViolation, match="n is fixed to 2"):
        verify_prop_1_1(5, 3)
    with pytest.raises(BudgetExceededError):
        verify_prop_1_1(5, 2, 7)
    assert remark_counterexample(3, 6, 1).witnesses == remark_counterexample().witnesses
    for p, n in ((3, None), (None, 6), (5, 6)):
        with pytest.raises(HypothesisViolation, match="pinned to p=3, n=6"):
            remark_counterexample(p, n)


def test_missing_parameters_name_the_statement():
    with pytest.raises(ValueError, match="^prop_1_1 requires p$"):
        run_statement("prop_1_1")
    for statement in set(STATEMENTS) - {"prop_1_1", "remark_counterexample"}:
        for p, n in ((None, None), (5, None), (None, 2)):
            with pytest.raises(ValueError, match=f"^{statement} requires p and n$"):
                run_statement(statement, p, n)


def _neutrality_check(exercised):
    """A stand-in for ``_tally``, the walk of ``_run``, that calls the full
    judge on every table of the cell, through ``dense_run``, and asserts
    that each table ``_tally`` would skip, one that no index list names,
    adds only to the count; it records each statement where it saw such a
    table in ``exercised``."""
    def check(statement, p, n, judge, functions, judged):
        functions, judged = list(functions), set(judged)
        skipped = {f.exps for index, f in enumerate(functions) if index not in judged}

        def checked(f):
            result = judge(f)
            if f.exps in skipped:
                assert result == (False, False, True, None), (statement, p, n, f.exps)
                exercised.add(statement)
            return result
        return dense_run(statement, p, n, checked, functions, judged)
    return check


def test_every_judge_is_neutral_where_both_sides_reject(monkeypatch):
    """Every judge runs its statement's full analytic test and its oracle
    side on whatever table it is given.  On every default-grid table that
    neither the screen nor the candidate list names, it must find both
    sides false and in agreement, so _tally may count such a table without
    judging it: this cross-checks every screen and candidate list against
    the canonical tests on the whole grid."""
    exercised = set()
    monkeypatch.setattr(verify, "_tally", _neutrality_check(exercised))
    verify_grid(default_grid())
    assert exercised == set(STATEMENTS) - {"remark_counterexample"}


def test_neutrality_check_catches_a_table_both_lists_drop(monkeypatch):
    # The bucket screen rejects the trivial character, which the oracle
    # accepts.  A candidate list without it leaves it skipped, and the full
    # judge, not neutral there, fails the cross-check.
    real, calls = verify_thm_1_7.candidates, []

    def dropping(p, n):
        calls.append((p, n))
        indices = real(p, n)
        assert indices[0] == 0  # the trivial character's table comes first
        return indices[1:]
    monkeypatch.setattr(verify_thm_1_7, "candidates", dropping)
    monkeypatch.setattr(verify, "_tally", _neutrality_check(set()))
    with pytest.raises(AssertionError, match=r"'thm_1_7', 5, 4, \(0, 0, 0, 0\)"):
        verify_thm_1_7(5, 4)
    assert calls == [(5, 4)]


def _masked(reports):
    return [dict(rep.to_json_dict(), elapsed_ms=0) for rep in reports]


#: Cells past the default grid where the sparse and the dense loop must agree.
SECOND_TIER = [("thm_1_2", 11, 4), ("thm_1_7", 13, 3), ("cor_1_3", 7, 4),
               ("remark_p_divides_n", 5, 10)]


def test_sparse_run_equals_dense_run(monkeypatch):
    # Counting a table that both verdicts reject, without judging it, gives
    # the report that judging every table gives: every statement on every
    # default-grid cell, and four cells past it.
    config = default_grid() + SECOND_TIER
    sparse = _masked(verify_grid(config))
    monkeypatch.setattr(verify, "_tally", dense_run)
    assert sparse == _masked(verify_grid(config))


@functools.lru_cache(maxsize=None)
def _small_split_prime(order):
    """``spectral._split_prime`` at the first prime ell = 1 (mod order)
    above 2 * order, with omega the first g^((ell - 1)/order) of exact
    order: the same homomorphism Z[zeta_order] -> F_ell, with false passes
    about once in ell tables instead of once in 2^29."""
    ell = 2 * order + 1
    while not modp.is_prime(ell):
        ell += order
    primes = [q for q, _ in factorize(order)]
    omega = next(w for w in (pow(g, (ell - 1) // order, ell) for g in range(2, ell))
                 if all(pow(w, order // q, ell) != 1 for q in primes))
    return ell, [pow(omega, i, ell) for i in range(order)]


def test_reports_hold_under_a_small_split_prime(monkeypatch):
    # Every screen and per-function filter may pass a table by accident in
    # the split prime field; the canonical test behind it must then reject
    # it.  Under a small prime such false passes are common, and the
    # reports must still equal those at the real prime.
    config = default_grid() + [("thm_1_2", 11, 4), ("thm_1_7", 13, 3), ("cor_1_3", 7, 4),
                               ("cor_2_3", 7, 5), ("prop_2_2", 7, 6)]
    real_norm = spectral.fourier_norm
    canonical_calls = []

    def counting(*args):
        canonical_calls.append(args)
        return real_norm(*args)
    monkeypatch.setattr(spectral, "fourier_norm", counting)
    expected = _masked(verify_grid(config))
    at_real_prime = len(canonical_calls)
    monkeypatch.setattr(spectral, "_split_prime", _small_split_prime)
    assert _masked(verify_grid(config)) == expected
    # The small prime let tables through that the real one rejects, so the
    # canonical tests were exercised on false passes.
    assert len(canonical_calls) - at_real_prime > at_real_prime


#: The statements that enumerate n^(p-1) tables, with f(1) free.
F1_FREE = {"cor_1_3", "lemma_2_1", "cor_2_3"}


def test_run_judges_exactly_the_tables_a_verdict_passes(monkeypatch):
    # Every verdict source, bound on its record, returns a sorted list of
    # distinct table indices, and _run hands _tally a record's lists end to
    # end, lifted to each constant times them where f(1) is free; only the
    # counterexample's pinned [0] is listed inline.  In one default-grid pass
    # a judge is called on each table whose index is listed, in order, and on
    # no other; every table is still counted.
    run = verify._tally
    sources, cells, judged, expected = [], [], [], []

    def recording(real):
        def source(p, n):
            indices = real(p, n)
            assert indices == sorted(set(indices)), (real, p, n)
            sources.append(indices)
            return indices
        return source
    for st in verify._PARAMETRIC_VERIFIERS.values():
        monkeypatch.setattr(st, "screen", recording(st.screen))
        monkeypatch.setattr(st, "candidates", recording(st.candidates))

    def spy(statement, p, n, judge, functions, indices):
        # Both recorded sources ran for this cell, the pinned one's excepted.
        assert len(sources) == (0 if statement == "remark_counterexample" else 2), statement
        cells.append((statement, p, n))
        listed = [i for source in sources for i in source]
        if statement in F1_FREE:
            listed = modp.times_constants(listed, p, n)
        assert indices[:len(listed)] == listed, (statement, p, n)
        inline = indices[len(listed):]  # the counterexample's pinned [0]
        assert inline == sorted(set(inline)), (statement, p, n)
        assert bool(inline) == (statement == "remark_counterexample"), statement
        sources.clear()
        functions = list(functions)
        expected.extend((statement, p, n, functions[i].exps) for i in sorted(set(indices)))

        def recorded(f):
            judged.append((statement, p, n, f.exps))
            return judge(f)
        return run(statement, p, n, recorded, functions, indices)

    monkeypatch.setattr(verify, "_tally", spy)
    reports = verify_grid(default_grid())
    assert cells == default_grid()
    # 261: the bucket screen passes the nontrivial characters (times each
    # constant when f(1) is free) and nothing else on the grid, and the
    # (3, 6) search screen passes the tables that pass at any unit, one more
    # than its Gauss-sum image alone passes.
    assert judged == expected and len(judged) == 261
    for rep in reports:
        total = (1 if rep.statement == "remark_counterexample"
                 else count_unit_functions(rep.p, rep.n, rep.statement not in F1_FREE))
        assert rep.total_functions == total, (rep.statement, rep.p, rep.n)


def test_an_f1_free_run_judges_each_constant_times_its_lists():
    # The lists name tables with f(1) = 1; an f(1)-free run lifts them once,
    # so each constant times a listed table is judged.  At (5, 4) that is the
    # 4 constants times each of the 3 nontrivial characters, which pass both
    # sides of cor_1_3 and cor_2_3; at (5, 3) lemma_2_1's trivial table
    # lifts to the 3 constants, each in Q(zeta_3).  Unlifted, each run would
    # judge only its f(1) = 1 tables and still succeed, on 3, 3 and 1 hits.
    for verifier, p, n, hits in ((verify_cor_1_3, 5, 4, 12), (verify_cor_2_3, 5, 4, 12),
                                 (verify_lemma_2_1, 5, 3, 3)):
        rep = verifier(p, n)
        assert rep.success and rep.total_functions == n ** (p - 1), rep.statement
        counts = (rep.passing_spectral, rep.passing_oracle, len(rep.witnesses))
        assert counts == (hits,) * 3, rep.statement


def test_cor_1_3_judge_reports_a_broken_dichotomy(monkeypatch):
    # A magnitude test that lies at one twist of one character leaves that
    # table with p - 2 witnesses: neither empty nor all units, so it and
    # nothing else is a mismatch.
    target = (0, 1, 3, 2)  # the character of order 4 mod 5 with chi(2) = i
    real = spectral.has_unit_fourier_magnitude

    def lying(f, a):
        return False if f.exps == target and a == 2 else real(f, a)
    monkeypatch.setattr(spectral, "has_unit_fourier_magnitude", lying)
    rep = verify_cor_1_3(5, 4)
    assert rep.mismatches == [target] and not rep.success
    assert rep.total_functions == 256


def test_lemma_2_1_judge_reports_a_wrong_minus_tau(monkeypatch):
    # A Gauss sum off by 1 on one constant table stays in Q(zeta_n) but is
    # no longer -g(1), so that table and nothing else is a mismatch.
    target = (1,) * 4
    real = spectral.gauss_sum

    def lying(g):
        tau = real(g)
        return spectral.SpectralValue(tau.value + 1, g.p, g.n) if g.exps == target else tau
    monkeypatch.setattr(spectral, "gauss_sum", lying)
    rep = verify_lemma_2_1(5, 3)
    assert rep.mismatches == [target] and not rep.success
    assert rep.passing_spectral == 3 and rep.total_functions == 81


def _neutral_judge(f):
    return False, False, True, None


def test_run_refuses_a_screen_of_the_wrong_length():
    # The list is of table indices, a screen's and then a candidate list's:
    # a screen index equal to the table count names no table of the cell,
    # so _tally raises instead of dropping it.
    for judged in ([8, 3], [0, 8, 3], [2, 9, 3]):
        with pytest.raises(ValueError, match="past the 8 tables"):
            verify._tally("thm_1_2", 5, 2, _neutral_judge, enumerate_unit_functions(5, 2), judged)
    rep = verify._tally("thm_1_2", 5, 2, _neutral_judge, enumerate_unit_functions(5, 2), [7])
    assert rep.total_functions == 8 and rep.success


def test_run_refuses_a_candidate_stream_of_the_wrong_length():
    # The same past-the-cell index, from the candidate list after a screen's.
    for judged in ([2, 8], [2, 0, 8], [2, 5, 9]):
        with pytest.raises(ValueError, match="past the 8 tables"):
            verify._tally("thm_1_2", 5, 2, _neutral_judge, enumerate_unit_functions(5, 2), judged)
    rep = verify._tally("thm_1_2", 5, 2, _neutral_judge, enumerate_unit_functions(5, 2), [0, 7])
    assert rep.total_functions == 8 and rep.success


def test_thm_1_2_reports_a_character_the_generator_drops(monkeypatch):
    # A character that the candidate list drops still passes the screen, so
    # it is judged, and the full judge asks the oracle about it: the report
    # equals the real one.
    target = (0, 1, 3, 2)  # the character of order 4 mod 5 with chi(2) = i
    dropped = modp.table_index(target, 4)
    expected = _masked([verify_thm_1_2(5, 4)])
    real, calls = verify_thm_1_2.candidates, []

    def dropping(p, n):
        calls.append((p, n))
        indices = real(p, n)
        assert dropped in indices
        return [i for i in indices if i != dropped]
    monkeypatch.setattr(verify_thm_1_2, "candidates", dropping)
    rep = verify_thm_1_2(5, 4)
    assert calls == [(5, 4)]
    assert _masked([rep]) == expected
    assert rep.success and rep.passing_oracle == 3 and (target, 1) in rep.witnesses


def test_verify_grid_empty_and_single():
    assert verify_grid([]) == []
    reports = verify_grid([("thm_1_2", 5, 2)])
    assert len(reports) == 1 and reports[0].total_functions == 8


def test_a_cell_refuses_a_non_int_p_or_n():
    # The cell's one validation point refuses a float or bool p or n as a
    # bad cell: verify_grid reports it, and True is not read as n = 1.
    with pytest.raises(ValueError, match="must be integers"):
        run_statement("thm_1_2", 7.0, 3)
    with pytest.raises(ValueError, match="must be integers"):
        run_statement("cor_1_3", 5, True)
    # The pinned statements refuse it too, though 3.0 == 3 and 2.0 == 2.
    for statement, p, n in (("remark_counterexample", 3.0, 6),
                            ("remark_counterexample", 3, 6.0), ("prop_1_1", 5, 2.0)):
        with pytest.raises(ValueError, match="p and n must be integers"):
            run_statement(statement, p, n)
    for rep in verify_grid([("thm_1_2", 7.0, 3), ("remark_counterexample", 3.0, 6)]):
        assert not rep.success and "must be integers" in rep.error


def test_elapsed_ms_covers_the_whole_verification(monkeypatch):
    # The clock runs around the verifier, so the time a screen takes shows.
    real, calls = verify_thm_1_2.screen, []

    def slow(p, n):
        calls.append((p, n))
        time.sleep(0.1)
        return real(p, n)
    monkeypatch.setattr(verify_thm_1_2, "screen", slow)
    assert run_statement("thm_1_2", 5, 4).elapsed_ms >= 100
    assert calls == [(5, 4)]


def test_verify_grid_captures_cell_errors():
    reports = verify_grid([("thm_1_2", 3, 6), ("prop_1_1", 3, None)])
    assert len(reports) == 2
    assert not reports[0].success and "divides" in reports[0].error
    assert reports[1].success and reports[1].error is None


def test_default_grid_shape():
    grid = default_grid()
    assert len(grid) == 5 + 10 * 3 + 9 * 3 + 2
    statements = {statement for statement, _, _ in grid}
    assert statements == {"prop_1_1", "thm_1_2", "cor_1_3", "lemma_2_1",
                          "prop_2_2", "cor_2_3", "thm_1_7",
                          "remark_counterexample", "remark_p_divides_n"}
    # f(1)-free statements stay at or below the per-cell cap
    assert (7, 6) in GRID_CELLS and (7, 6) not in GRID_CELLS_FREE
    for statement, p, n in grid:
        if statement in ("cor_1_3", "lemma_2_1", "cor_2_3"):
            assert n ** (p - 1) <= 10_000


def test_reports_are_deterministic():
    first = verify_thm_1_2(5, 4).to_json_dict()
    second = verify_thm_1_2(5, 4).to_json_dict()
    first.pop("elapsed_ms")
    second.pop("elapsed_ms")
    assert first == second


def test_report_json_round_trip():
    rep = verify_thm_1_2(5, 4)
    line = json.dumps(rep.to_json_dict(), sort_keys=True)
    assert json.dumps(json.loads(line), sort_keys=True) == line
    parsed = json.loads(line)
    assert parsed["mismatch_count"] == 0
    assert parsed["statement"] == "thm_1_2"
    assert parsed["success"] is True


def test_grid_matches_golden():
    """Every report field except elapsed_ms, witness and mismatch lists
    included, matches the recorded file line by line."""
    cells = default_grid() + GOLDEN_ERROR_CELLS
    expected = GOLDEN.read_text().splitlines()
    assert len(expected) == len(cells)
    for cell, rep, line in zip(cells, verify_grid(cells), expected):
        record = rep.to_json_dict()
        record.pop("elapsed_ms")
        assert json.dumps(record, sort_keys=True) == line, cell


def test_tier2_cells_match_golden():
    """The larger cells of ``record_tier2_golden.py``, up to 4 * 10^6
    tables each, match their recorded reports line by line."""
    expected = TIER2_GOLDEN.read_text().splitlines()
    assert len(expected) == len(TIER2_CELLS)
    for cell, rep, line in zip(TIER2_CELLS, verify_grid(TIER2_CELLS), expected):
        assert golden_line(rep) == line, cell
