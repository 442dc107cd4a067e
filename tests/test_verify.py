import json
from math import gcd, lcm
from pathlib import Path

import pytest

from gausschar import verify
from gausschar.cyclo import MAX_ORDER
from gausschar.modp import BudgetExceededError, legendre_unit_function
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


def test_every_judge_is_neutral_where_both_sides_reject(monkeypatch):
    """On a table whose screen verdict is False and whose oracle side fails,
    every judge returns (False, False, True, None), so the table adds only
    to the count."""
    exercised = set()
    run = verify._run

    def spy(statement, p, n, budget, judge, *args, **kwargs):
        def checked(f, passed):
            result = judge(f, passed)
            if not passed and not result[1]:
                assert result == (False, False, True, None), (statement, p, n, f.exps)
                exercised.add(statement)
            return result
        return run(statement, p, n, budget, checked, *args, **kwargs)

    monkeypatch.setattr(verify, "_run", spy)
    verify_grid(default_grid())
    assert exercised == set(STATEMENTS) - {"remark_counterexample"}


def test_verify_grid_empty_and_single():
    assert verify_grid([]) == []
    reports = verify_grid([("thm_1_2", 5, 2)])
    assert len(reports) == 1 and reports[0].total_functions == 8


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
