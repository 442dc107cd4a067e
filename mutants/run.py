#!/usr/bin/env python3
"""Mutation run: every fast path's tests must fail on a broken copy of it.

Usage, from the repository root:

    python3 mutants/run.py              # every mutant
    python3 mutants/run.py NAME ...     # only the named ones

A mutant is one textual edit of one package file: (name, file, old text,
new text, killing tests).  For each one the runner copies ``src/``,
``tests/`` and ``pyproject.toml`` to a temporary directory, replaces the old
text, which must occur exactly once, and runs ``python -m pytest -x`` on the
killing tests against the copy.  The mutant is killed when pytest reports a
failed test.  Tests are never edited: a mutant that no listed test kills is
a gap in the tests, to be closed by a new or stronger test.

Equivalent mutants change no answer, so no test can kill them; each is
listed apart with its one-line proof and is not run.  The runner exits with
status 1 if a mutant survives, an edit does not apply or pytest cannot run
the tests, and 0 otherwise; a reader that closes the output early (``|
head``) stops the run with status 1 and no traceback.  Standard library
only; it is not part of the tier-1 suite (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI, CYCLO, MODP, SPECTRAL, VERIFY = (
    "src/gausschar/cli.py", "src/gausschar/cyclo.py", "src/gausschar/modp.py",
    "src/gausschar/spectral.py", "src/gausschar/verify.py")
TEST_CLI, TEST_CYCLO, TEST_MODP, TEST_SPECTRAL, TEST_VERIFY = (
    "tests/test_cli.py", "tests/test_cyclo.py", "tests/test_modp.py",
    "tests/test_spectral.py", "tests/test_verify.py")

# (name, file, old text, new text, killing tests)
MUTANTS = (
    ("norm_squared shifted by N - phi slots", CYCLO,
     "<< bits * (n - len(c) + 1)", "<< bits * (n - len(c))",
     (f"{TEST_CYCLO}::test_norm_squared_examples",)),
    ("norm_squared fold drops the high part", CYCLO,
     "folded = (product >> bits * n) + (product & ((1 << bits * n) - 1))",
     "folded = product & ((1 << bits * n) - 1)",
     (f"{TEST_CYCLO}::test_norm_squared_examples",)),
    ("norm_squared packs c instead of its reversal", CYCLO,
     "slots.pack(c) * slots.pack(c[::-1])", "slots.pack(c) * slots.pack(c)",
     (f"{TEST_CYCLO}::test_norm_squared_examples",)),
    ("norm_squared width from sa instead of sa^2", CYCLO,
     "slots = _context(n).slots(sa * sa)", "slots = _context(n).slots(sa)",
     (f"{TEST_CYCLO}::test_norm_squared_matches_ring_product",)),
    ("in_subfield checks the first k without closing", CYCLO,
     "fixed = {x * y % n for x in fixed for y in powers}", "break",
     (f"{TEST_CYCLO}::test_in_subfield_matches_every_k",)),
    ("in_subfield marks k covered without closing", CYCLO,
     "fixed = {x * y % n for x in fixed for y in powers}", "fixed.add(k)",
     (f"{TEST_SPECTRAL}::test_in_subfield_checks_generators_only",)),
    ("slot width one bit short", CYCLO,
     "width = (need.bit_length() + 8) >> 3", "width = (need.bit_length() + 7) >> 3",
     (f"{TEST_CYCLO}::test_slot_width_at_each_byte_boundary",)),
    ("row_bound without its 1 +", CYCLO,
     "self.row_bound = 1 + min(", "self.row_bound = min(",
     (f"{TEST_CYCLO}::test_row_bound_covers_every_power",)),
    ("thm_1_7 judges only its screen's tables", VERIFY,
     '_Statement("thm_1_7", _thm_1_7, GRID_CELLS, p_divides_n=None)',
     '_Statement("thm_1_7", _thm_1_7, GRID_CELLS, p_divides_n=None,\n'
     "                            candidates=lambda p, n: [])",
     (f"{TEST_VERIFY}::test_thm_1_7_cells",)),
    ("remark_p_divides_n judges only its candidates", VERIFY,
     "screen=spectral.magnitude_screen, finds=True)", "screen=lambda p, n: [], finds=True)",
     (f"{TEST_VERIFY}::test_search_p_divides_n",)),
    ("prop_1_1 judged at the twist a = 1", VERIFY,
     '_Statement("prop_1_1", _gauss_magnitude,', '_Statement("prop_1_1", _thm_1_2,',
     (f"{TEST_VERIFY}::test_prop_1_1_small_primes",)),
    ("prop_2_2 admits p | n", VERIFY,
     '_Statement("prop_2_2", _gauss_magnitude, GRID_CELLS)',
     '_Statement("prop_2_2", _gauss_magnitude, GRID_CELLS, p_divides_n=None)',
     (f"{TEST_VERIFY}::test_each_statement_keeps_its_f1_rule_and_hypothesis[prop_2_2]",)),
    ("cor_2_3 fixes f(1)", VERIFY,
     '_Statement("cor_2_3", _gauss_magnitude, GRID_CELLS_FREE, fix_f1=False)',
     '_Statement("cor_2_3", _gauss_magnitude, GRID_CELLS_FREE)',
     (f"{TEST_VERIFY}::test_each_statement_keeps_its_f1_rule_and_hypothesis[cor_2_3]",)),
    ("an f(1)-free record skips the lift", VERIFY,
     "        if not st.fix_f1:\n            judged = modp.times_constants(",
     "        if False:\n            judged = modp.times_constants(",
     (f"{TEST_VERIFY}::test_an_f1_free_run_judges_each_constant_times_its_lists",)),
    ("_tally counts only the judged tables", VERIFY,
     "rep.total_functions = index + 1", "rep.total_functions = len(judged)",
     (f"{TEST_VERIFY}::test_run_judges_exactly_the_tables_a_verdict_passes",)),
    ("_tally without the index-past-the-cell guard", VERIFY,
     "    if max(judged, default=-1) > index:\n        raise ValueError(",
     "    if False:\n        raise ValueError(",
     (f"{TEST_VERIFY}::test_run_refuses_a_screen_of_the_wrong_length",
      f"{TEST_VERIFY}::test_run_refuses_a_candidate_stream_of_the_wrong_length")),
    ("existence report always succeeds", VERIFY,
     "rep.success = bool(rep.witnesses)", "rep.success = True",
     (f"{TEST_VERIFY}::test_search_p_divides_n",)),
    ("lemma_2_1 judge takes every judged table as a subfield member", VERIFY,
     "if tau.in_subfield(n):", "if True:",
     (f"{TEST_VERIFY}::test_reports_hold_under_a_small_split_prime",)),
    ("cor_1_3 judge always agrees", VERIFY,
     "return full, oracle_hit, full or not hits,", "return full, oracle_hit, True,",
     (f"{TEST_VERIFY}::test_cor_1_3_judge_reports_a_broken_dichotomy",)),
    ("lemma_2_1 judge skips its -tau identity", VERIFY,
     "minus_tau = const and zeta_pow(n, g.exps[0]).embed(lcm(n, p)) == -tau",
     "minus_tau = const",
     (f"{TEST_VERIFY}::test_lemma_2_1_judge_reports_a_wrong_minus_tau",)),
    ("zero-sum lookup target +h instead of -h", SPECTRAL,
     "buckets.get(-h % ell, ())", "buckets.get(h % ell, ())",
     (f"{TEST_SPECTRAL}::test_zero_sum_screen_matches_brute_force",)),
    ("zero-sum head stride off by one", SPECTRAL,
     "head * stride + offset for head, h in", "head * (stride + 1) + offset for head, h in",
     (f"{TEST_SPECTRAL}::test_zero_sum_screen_matches_brute_force",)),
    ("bucket looked up at +h_0", SPECTRAL,
     "buckets.get(-h0 % ell, ())", "buckets.get(h0 % ell, ())",
     (f"{TEST_SPECTRAL}::test_flat_screen_passes_every_flat_table",)),
    ("bucket skipped for one head", SPECTRAL,
     "for head, (h0, hs, ht) in enumerate(zip(*heads))",
     "for head, (h0, hs, ht) in enumerate(zip(*heads)) if head",
     (f"{TEST_SPECTRAL}::test_flat_screen_passes_every_flat_table",)),
    ("magnitude test drops the head's backward sum", SPECTRAL,
     "(hs + s) * (ht + t) % ell == p", "(hs + s) * t % ell == p",
     (f"{TEST_SPECTRAL}::test_zero_sum_screen_matches_brute_force",)),
    ("head walk's inner block one row short", SPECTRAL,
     "inner = _block(rows[j:], ell)", "inner = _block(rows[j + 1:], ell)",
     (f"{TEST_SPECTRAL}::test_lex_sums_walk_blocks_in_lexicographic_order",)),
    ("middle split ignores the _TAIL_TABLES cap", SPECTRAL,
     " and tables * sizes[j - 1] <= _TAIL_TABLES:", ":",
     (f"{TEST_SPECTRAL}::test_split_is_in_the_middle_under_the_cap",
      f"{TEST_SPECTRAL}::test_cell_screen_head_walk_in_bounded_memory")),
    ("subfield_screen at the first k != 1 instead of the generator", SPECTRAL,
     "if k % p == g), 1)", "if k % p > 1), 1)",
     (f"{TEST_SPECTRAL}::test_subfield_screen_passes_exactly_the_subfield_members",)),
    ("has_unit_fourier_magnitude passes every image survivor", SPECTRAL,
     "return fourier_norm(f, a).as_integer() == f.p", "return True",
     (f"{TEST_VERIFY}::test_reports_hold_under_a_small_split_prime",)),
    ("spectral_witness stops at a = p - 2", SPECTRAL,
     "    for a in range(1, f.p):\n        if has_unit_fourier_magnitude(f, a):",
     "    for a in range(1, f.p - 1):\n        if has_unit_fourier_magnitude(f, a):",
     (f"{TEST_VERIFY}::test_remark_counterexample_report",)),
    ("magnitude twist remap not rescaled to f(1) = 1", SPECTRAL,
     "hits.add(tuple((e - mapped[0]) % n for e in mapped))",
     "hits.add(tuple(e % n for e in mapped))",
     (f"{TEST_SPECTRAL}::test_magnitude_screen_passes_c_times_each_character",)),
    ("_split_prime without the exact-order check", SPECTRAL,
     "if all(pow(omega, order // q, ell) != 1 for q in primes):", "if True:",
     (f"{TEST_SPECTRAL}::test_split_prime_map_is_a_ring_homomorphism",)),
    ("table stream drops the f(1) factor", MODP,
     "itertools.product(range(1 if fix_f1 else n), *[range(n)] * (p - 2))",
     "itertools.product(*[range(n)] * (p - 2))",
     (f"{TEST_MODP}::test_enumeration_counts_and_order",)),
    ("is_prime accepts prime powers", MODP,
     "factorize(m) == [(m, 1)]", "len(factorize(m)) == 1",
     (f"{TEST_MODP}::test_is_prime",)),
    ("oracle skips b = a", MODP,
     "for b in range(a, p):", "for b in range(a + 1, p):",
     (f"{TEST_MODP}::test_cross_enumeration_equality",)),
    ("homomorphism_candidates steps j t instead of j t n/m", MODP,
     "j * log[x] * (n // m)", "j * log[x]",
     (f"{TEST_MODP}::test_homomorphism_candidates_are_what_the_oracle_accepts",
      f"{TEST_MODP}::test_homomorphism_candidates_count_and_match_the_characters")),
    ("the lift drops the constants", MODP,
     "for h in tables for c in range(n))", "for h in tables for c in range(1))",
     (f"{TEST_MODP}::test_homomorphism_candidates_are_what_the_oracle_accepts",
      f"{TEST_SPECTRAL}::test_magnitude_screen_passes_c_times_each_character",
      f"{TEST_SPECTRAL}::test_subfield_screen_passes_exactly_the_subfield_members")),
    ("homomorphism_candidates at g = 2 instead of a primitive root", MODP,
     "g = find_primitive_root(p)", "g = 2",
     (f"{TEST_MODP}::test_homomorphism_candidates_are_what_the_oracle_accepts",
      f"{TEST_MODP}::test_homomorphism_candidates_count_and_match_the_characters")),
    ("parser skips the required-option check", CLI,
     "if option[1] and name not in given]", "if False]",
     (f"{TEST_CLI}::test_parsers_reject_the_same_argvs",)),
    ("parser takes a budget below 1", CLI,
     "    if value < 1:\n        raise ValueError(f\"must be positive",
     "    if False:\n        raise ValueError(f\"must be positive",
     (f"{TEST_CLI}::test_budget_flag_must_be_positive",)),
    ("the JSON writer prints True as 1", CLI,
     "    if isinstance(value, bool):\n        return \"true\" if value else \"false\"\n"
     "    if isinstance(value, int):\n        return int.__repr__(value)\n",
     "    if isinstance(value, int):\n        return int.__repr__(value)\n"
     "    if isinstance(value, bool):\n        return \"true\" if value else \"false\"\n",
     (f"{TEST_CLI}::test_json_writer_matches_json_dumps",)),
    ("the JSON writer leaves keys unsorted", CLI,
     "for key, item in sorted(value.items())", "for key, item in value.items()",
     (f"{TEST_CLI}::test_json_writer_matches_json_dumps",)),
    ("the parser takes non-ASCII digits", MODP,
     "return word.isascii() and word.isdigit()", "return word.isdigit()",
     (f"{TEST_CLI}::test_function_text_parsers_agree_on_the_corpus",)),
    ("the parser drops the exps field", MODP,
     'or words[2][1:] != ["exps"]', "or len(words[2]) != 2",
     (f"{TEST_CLI}::test_function_text_parsers_agree_on_the_corpus",)),
)

# Edits that change no answer, so no test can kill them; listed, not run.
# (name, file, old text, new text, proof)
EQUIVALENT = (
    ("in_subfield closes with every power of k up to 1", CYCLO,
     "while powers[-1] not in fixed:", "while powers[-1] != 1:",
     "once k^m lies in the group fixed, k^(m+j) * fixed = k^j * fixed, so the "
     "further powers add no element."),
    ("the split-prime search trusts Fermat and skips is_prime", SPECTRAL,
     "while pow(2, ell - 1, ell) != 1 or not is_prime(ell):",
     "while pow(2, ell - 1, ell) != 1:",
     "a search over every order from 1 to MAX_ORDER found no base-2 pseudoprime "
     "ahead of the split prime; the trial division stays so that exactness holds "
     "by construction."),
)


def run_mutant(file: str, old: str, new: str, tests) -> str:
    """'killed', 'survived', or an error message, for one edit and its tests."""
    with tempfile.TemporaryDirectory(prefix="gausschar-mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        target = copy / file
        text = target.read_text()
        if text.count(old) != 1:
            return f"the old text occurs {text.count(old)} times in {file}, not once"
        target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return "survived"
    if proc.returncode == 1:
        return "killed"
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    return f"pytest exited {proc.returncode}: {last}"


def main(argv: list[str]) -> int:
    wanted = set(argv)
    known = {m[0] for m in MUTANTS}
    if wanted - known:
        print("unknown mutants:", ", ".join(sorted(wanted - known)))
        return 2
    bad = 0
    start = time.perf_counter()
    print("mutants (each must be killed):", flush=True)
    for name, file, old, new, tests in MUTANTS:
        if wanted and name not in wanted:
            continue
        outcome = run_mutant(file, old, new, tests)
        bad += outcome != "killed"
        print(f"  {outcome:9s} {name}", flush=True)
    print("equivalent mutants (not run):")
    for name, *_, proof in EQUIVALENT:
        print(f"  {name}: {proof}")
    print(f"{bad} failing, {time.perf_counter() - start:.1f} s", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BrokenPipeError:
        # The reader is gone: point stdout at devnull so the exit flush
        # cannot fail again, and fail, since the report was cut short.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
