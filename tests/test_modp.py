import functools
import random
from math import gcd, isqrt

import pytest

from gausschar.modp import (
    BudgetExceededError,
    UnitFunction,
    check_odd_prime,
    enumerate_unit_functions,
    find_primitive_root,
    homomorphism_candidates,
    is_character_oracle,
    is_prime,
    parse_unit_function,
    table_exps,
    table_index,
    times_constants,
)
from gausschar.verify import GRID_CELLS
from reference import (
    Character,
    count_unit_functions,
    enumerate_characters,
    legendre_symbol,
    legendre_unit_function,
    mod_inverse,
)

SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def test_is_prime():
    primes_below_60 = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59}
    for m in range(-5, 60):
        assert is_prime(m) == (m in primes_below_60)


def test_is_prime_agrees_with_trial_division():
    def by_trial_division(m):
        return m >= 2 and all(m % d for d in range(2, isqrt(m) + 1))
    for m in range(10 ** 5):
        assert is_prime(m) == by_trial_division(m), m


def test_is_prime_on_strong_pseudoprimes_and_past_its_bound():
    # A strong pseudoprime to the bases 2, 3, 5 and 7, and the largest prime
    # below 2^32: both are decided by trial division.
    assert not is_prime(3215031751)
    assert is_prime(4294967291)
    # From 2^32 on no answer is given: trial division would run for hours.
    for m in (2 ** 32, 3825123056546413051, 318665857834031151167461,
              2 ** 61 - 1, 10 ** 18 + 3, (10 ** 9 + 7) * (10 ** 9 + 9),
              3317044064679887385961981, 10 ** 25 + 7):
        with pytest.raises(ValueError, match="decided only below"):
            is_prime(m)


def test_primality_callers_refuse_past_the_bound():
    with pytest.raises(ValueError, match="decided only below"):
        find_primitive_root(10 ** 18 + 3)
    with pytest.raises(ValueError, match="decided only below"):
        check_odd_prime(2 ** 61 - 1)


def test_find_primitive_root_small_cases():
    assert find_primitive_root(3) == 2
    assert find_primitive_root(5) == 2
    assert find_primitive_root(7) == 3


def test_primitive_root_generates_all_units():
    for p in SMALL_PRIMES + (37, 41, 97):
        g = find_primitive_root(p)
        seen = set()
        x = 1
        for _ in range(p - 1):
            seen.add(x)
            x = x * g % p
        assert seen == set(range(1, p))


def test_primitive_root_is_smallest():
    for p in SMALL_PRIMES:
        g = find_primitive_root(p)
        for h in range(2, g):
            powers = {pow(h, t, p) for t in range(p - 1)}
            assert powers != set(range(1, p))


def test_find_primitive_root_rejects_non_primes():
    for bad in (1, 2, 4, 9, 15):
        with pytest.raises(ValueError):
            find_primitive_root(bad)


def test_mod_inverse():
    assert mod_inverse(2, 5) == 3
    for p in SMALL_PRIMES:
        assert mod_inverse(1, p) == 1
    rng = random.Random(5)
    for _ in range(100):
        p = rng.choice(SMALL_PRIMES)
        a = rng.randrange(1, p)
        assert a * mod_inverse(a, p) % p == 1
    with pytest.raises(ZeroDivisionError):
        mod_inverse(0, 7)
    with pytest.raises(ZeroDivisionError):
        mod_inverse(21, 7)


def test_legendre_symbol_examples():
    for p in SMALL_PRIMES:
        assert legendre_symbol(1, p) == 1
        assert legendre_symbol(0, p) == 0
        assert legendre_symbol(p * 3, p) == 0
    # squares mod 7 are {1, 2, 4}
    assert legendre_symbol(2, 7) == 1
    assert legendre_symbol(3, 7) == -1


def test_legendre_symbol_against_euler_criterion():
    # Independent route: a^((p-1)/2) mod p, mapping p-1 to -1.
    for p in SMALL_PRIMES:
        for a in range(2 * p):
            power = pow(a % p, (p - 1) // 2, p)
            expected = -1 if power == p - 1 else power
            assert legendre_symbol(a, p) == expected


def test_legendre_symbol_multiplicative():
    for p in (7, 11, 13):
        for a in range(1, p):
            for b in range(1, p):
                assert legendre_symbol(a * b, p) == legendre_symbol(a, p) * legendre_symbol(b, p)


def test_unit_function_validation():
    with pytest.raises(ValueError):
        UnitFunction(4, 2, (0, 1, 0))
    with pytest.raises(ValueError):
        UnitFunction(5, 2, (0, 1, 1))
    with pytest.raises(ValueError):
        UnitFunction(5, 2, (0, 1, 2, 0))
    with pytest.raises(ValueError):
        UnitFunction(5, 0, (0, 0, 0, 0))


def test_unit_function_list_exps_become_a_tuple():
    f = UnitFunction(3, 2, [0, 1])
    assert f.exps == (0, 1) and type(f.exps) is tuple
    assert f == UnitFunction(3, 2, (0, 1))
    assert hash(f) == hash(UnitFunction(3, 2, (0, 1)))


def test_exponent_count_checked_before_primality(monkeypatch):
    # A 25-digit p is past is_prime's bound, and the length check comes
    # first: the table is rejected, its count named, without testing p.
    def no_primality_test(m):
        raise AssertionError(f"primality of {m} was tested")
    monkeypatch.setattr("gausschar.modp.is_prime", no_primality_test)
    with pytest.raises(ValueError, match="need 1000000000000000000000006 exponents"):
        parse_unit_function("p=1000000000000000000000007 n=2 exps=0")


def test_unit_function_rejects_bool_exponents():
    with pytest.raises(ValueError, match="got True"):
        UnitFunction(3, 2, (True, False))
    with pytest.raises(ValueError, match="got False"):
        UnitFunction(5, 4, (0, 1, False, 2))


def test_unit_function_rejects_non_integer_exponents():
    with pytest.raises(ValueError, match="got 1.0"):
        UnitFunction(3, 2, (0, 1.0))
    with pytest.raises(ValueError, match="got '1'"):
        UnitFunction(3, 2, (0, "1"))


def test_unit_function_requires_integer_p_and_n():
    with pytest.raises(ValueError, match="p and n must be integers"):
        UnitFunction(3, 2.0, (0, 1))
    with pytest.raises(ValueError, match="p and n must be integers"):
        UnitFunction(3.0, 2, (0, 1))
    with pytest.raises(ValueError, match="p and n must be integers"):
        UnitFunction(3, True, (0, 0))
    # Checked before the length: a float p would otherwise report a count.
    with pytest.raises(ValueError, match="p and n must be integers"):
        UnitFunction(5.0, 2, (0, 1))


def test_legendre_table_tests_p_once(monkeypatch):
    calls = []

    def counting_is_prime(m):
        calls.append(m)
        return is_prime(m)
    monkeypatch.setattr("gausschar.modp.is_prime", counting_is_prime)
    f = legendre_unit_function(13)
    # One check of p, then UnitFunction's own.
    assert len(calls) <= 2
    assert f.exps == tuple(0 if legendre_symbol(x, 13) == 1 else 1 for x in range(1, 13))


def test_unit_function_accessors():
    f = UnitFunction(5, 4, (0, 1, 3, 2))
    assert not f.is_trivial
    assert not f.is_constant
    assert UnitFunction(5, 4, (0, 0, 0, 0)).is_trivial
    assert UnitFunction(5, 4, (2, 2, 2, 2)).is_constant


def test_unit_function_normalized():
    f = UnitFunction(5, 4, (3, 1, 0, 2))
    g = f.normalized()
    assert g.exps == (0, 2, 1, 3)
    assert g.normalized() is g


def test_text_round_trip():
    f = UnitFunction(7, 6, (0, 5, 1, 2, 4, 3))
    assert parse_unit_function(f.to_text()) == f
    assert parse_unit_function("  p=5   n=2   exps=0, 1,1 , 0 ") == UnitFunction(5, 2, (0, 1, 1, 0))


def test_parse_errors():
    for text in ("", "p=5 exps=0,1,1,0", "n=2 p=5 exps=0,1,1,0", "p=5 n=2",
                 "p=5 n=2 exps=0,1,2,0", "p=5 n=2 exps=0,1,1", "p=four n=2 exps=0,1,1,0"):
        with pytest.raises(ValueError):
            parse_unit_function(text)
    # An empty entry passes the pattern but is no integer.
    with pytest.raises(ValueError, match="bad exponent list"):
        parse_unit_function("p=5 n=2 exps=0,,1,1")


def test_character_function_trivial_and_quadratic():
    for p in SMALL_PRIMES:
        g = find_primitive_root(p)
        trivial = Character(p, g, 0).unit_function()
        assert trivial.is_trivial
        # index (p-1)/2 is the quadratic character: compare pointwise
        quad = Character(p, g, (p - 1) // 2).unit_function()
        for x in range(1, p):
            value = 1 if quad.exps[x - 1] == 0 else -1
            assert quad.exps[x - 1] in (0, (p - 1) // 2)
            assert value == legendre_symbol(x, p)


def test_character_fixes_one():
    for p in (7, 11, 13):
        g = find_primitive_root(p)
        for j in range(p - 1):
            assert Character(p, g, j).unit_function().exps[0] == 0


def test_character_requires_generator():
    with pytest.raises(ValueError):
        Character(7, 2, 1)  # 2 has order 3 mod 7
    with pytest.raises(ValueError):
        Character(7, 3, 6)  # index out of range


def test_character_rescaling_to_smaller_order():
    chi = Character(7, 3, 3)  # quadratic character
    f = chi.unit_function(2)
    assert f.n == 2
    assert f.exps == legendre_unit_function(7).exps
    with pytest.raises(ValueError):
        chi.unit_function(3)  # order-2 values are not cube roots of unity


def test_enumerate_characters_counts():
    assert len(enumerate_characters(7, 6)) == 6
    assert len(enumerate_characters(7, 2)) == 2
    assert len(enumerate_characters(5, 3)) == 1
    for p in SMALL_PRIMES:
        for n in range(1, 13):
            chars = enumerate_characters(p, n)
            assert len(chars) == gcd(n, p - 1)
            assert [c.j for c in chars] == sorted(c.j for c in chars)
            assert chars[0].is_trivial
            for c in chars:
                assert c.unit_function(n).p == p  # values genuinely in mu_n


def test_characters_pass_oracle():
    for p in SMALL_PRIMES:
        g = find_primitive_root(p)
        for j in range(p - 1):
            assert is_character_oracle(Character(p, g, j).unit_function())


def test_oracle_rejects_non_characters():
    assert not is_character_oracle(UnitFunction(3, 6, (0, 5)))
    assert not is_character_oracle(UnitFunction(5, 2, (1, 0, 0, 0)))  # f(1) != 1
    assert not is_character_oracle(UnitFunction(5, 2, (0, 0, 0, 1)))
    assert is_character_oracle(legendre_unit_function(13))


def test_enumeration_counts_and_order():
    fns = list(enumerate_unit_functions(3, 2, fix_f1=True))
    assert [f.exps for f in fns] == [(0, 0), (0, 1)]
    assert count_unit_functions(7, 6, fix_f1=True) == 7776
    assert sum(1 for _ in enumerate_unit_functions(7, 6, fix_f1=True)) == 7776
    free = list(enumerate_unit_functions(3, 3, fix_f1=False))
    assert len(free) == 9
    assert [f.exps for f in free] == sorted(f.exps for f in free)


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError,
                       match=r"^enumeration would visit 100000000000 functions, "
                             r"exceeding the budget of 10000000$"):
        enumerate_unit_functions(13, 10, fix_f1=True)
    with pytest.raises(BudgetExceededError):
        enumerate_unit_functions(5, 2, fix_f1=True, budget=7)
    assert len(list(enumerate_unit_functions(5, 2, fix_f1=True, budget=8))) == 8


def test_enumeration_checks_cheapest_first(monkeypatch):
    calls = []

    def guarded_is_prime(m):
        if m > 10 ** 6:
            raise AssertionError(f"primality of {m} was tested")
        calls.append(m)
        return is_prime(m)
    monkeypatch.setattr("gausschar.modp.is_prime", guarded_is_prime)
    # Parity, p < 3 and n < 1 are refused before the budget is looked at.
    for p, n in [(9, 0), (1, 2), (10 ** 18 + 4, 2)]:
        with pytest.raises(ValueError, match="odd prime|at least 1") as err:
            enumerate_unit_functions(p, n)
        assert not isinstance(err.value, BudgetExceededError)
    # The budget is refused before an odd p is ever trial-divided.
    with pytest.raises(BudgetExceededError):
        enumerate_unit_functions(10 ** 18 + 3, 2)
    assert calls == []
    # A cell in budget tests p exactly once before the stream starts.
    enumerate_unit_functions(7, 6)
    assert calls == [7]
    with pytest.raises(ValueError, match="odd prime, got 9"):
        enumerate_unit_functions(9, 2)


def test_budget_refusal_builds_no_giant_integer():
    # 2^15011 has 4519 digits, past Python's int-to-str limit: the refusal
    # must state the size as a power instead of printing the integer.
    with pytest.raises(BudgetExceededError,
                       match=r"visit 2\^15011 functions, exceeding the budget of 10000000$"):
        enumerate_unit_functions(15013, 2, fix_f1=True)


def test_streamed_tables_equal_validated_ones():
    # The stream and normalized() set each table up without UnitFunction's
    # checks; every table must still be the value the checked constructor
    # builds.
    for p, n, fix_f1 in [(3, 1, True), (3, 6, False), (5, 4, True), (7, 3, True), (7, 2, False)]:
        count = 0
        for f in enumerate_unit_functions(p, n, fix_f1=fix_f1):
            normalized = tuple((e - f.exps[0]) % n for e in f.exps)
            for table, exps in ((f, f.exps), (f.normalized(), normalized)):
                checked = UnitFunction(p, n, exps)
                assert type(table) is UnitFunction
                assert table == checked and hash(table) == hash(checked)
                assert type(table.exps) is tuple
            count += 1
        assert count == count_unit_functions(p, n, fix_f1)


def test_cross_enumeration_equality():
    # The oracle-passing members of the exhaustive stream are exactly the
    # character tables.
    for p, n in [(5, 2), (5, 4), (7, 2), (7, 3), (3, 6)]:
        from_stream = {f.exps for f in enumerate_unit_functions(p, n, fix_f1=True)
                       if is_character_oracle(f)}
        from_characters = {c.unit_function(n).exps for c in enumerate_characters(p, n)}
        assert from_stream == from_characters


def _index(n, exps):
    """The enumeration index of a table: its exponents as base-n digits."""
    return functools.reduce(lambda i, e: i * n + e, exps, 0)


def _oracle_indices(p, n, fix_f1):
    """The indices of the tables the oracle accepts, after normalization
    when f(1) is free, by dense enumeration."""
    return [i for i, f in enumerate(enumerate_unit_functions(p, n, fix_f1=fix_f1))
            if is_character_oracle(f.normalized())]


def test_homomorphism_candidates_are_what_the_oracle_accepts():
    # With f(1) free the candidates are lifted to each constant times them.
    for p, n in GRID_CELLS + ((3, 6), (5, 10)):
        fixed = homomorphism_candidates(p, n)
        assert fixed == _oracle_indices(p, n, True)
        assert times_constants(fixed, p, n) == _oracle_indices(p, n, False)
    # At (11, 4) and (13, 3) the f(1)-free cells are too large to enumerate
    # here.  f -> (f(1), f.normalized()) is a bijection onto the constants
    # times the f(1) = 1 tables, so the oracle accepts exactly n times as
    # many free tables as fixed ones; the lifted candidates are that many,
    # and the oracle accepts each one.
    for p, n in ((11, 4), (13, 3)):
        fixed = homomorphism_candidates(p, n)
        assert fixed == _oracle_indices(p, n, True)
        free = times_constants(fixed, p, n)
        assert free == sorted(set(free)) and len(free) == n * len(fixed)
        for index in free:
            exps = [(index // n ** (p - 1 - x)) % n for x in range(1, p)]
            assert is_character_oracle(UnitFunction(p, n, exps).normalized())


def test_homomorphism_candidates_count_and_match_the_characters():
    # gcd(n, p - 1) characters with f(1) fixed, n times as many tables once
    # lifted to f(1) free; the indices are those of the character tables,
    # times each constant when lifted.
    cells = [(p, n) for p in SMALL_PRIMES[:6] for n in range(1, 13)]
    for p, n in cells + [(11, 4), (13, 3), (3, 6), (5, 10)]:
        chars = [c.unit_function(n).exps for c in enumerate_characters(p, n)]
        fixed = homomorphism_candidates(p, n)
        free = times_constants(fixed, p, n)
        assert len(fixed) == gcd(n, p - 1) and len(free) == n * gcd(n, p - 1)
        assert fixed == sorted(_index(n, exps) for exps in chars)
        assert free == sorted(_index(n, [(e + c) % n for e in exps])
                              for exps in chars for c in range(n))


def test_homomorphism_candidates_at_n_one_are_the_one_table():
    # The one table at n = 1 is the trivial character, with f(1) fixed or
    # lifted to f(1) free, also at a large p.
    assert homomorphism_candidates(1009, 1) == [0]
    assert times_constants(homomorphism_candidates(9973, 1), 9973, 1) == [0]


def test_table_index_is_the_enumeration_position():
    # The codec's index of each table is its place in the enumeration, and
    # table_exps inverts it, with f(1) fixed and free.
    for p, n in ((3, 4), (5, 3), (7, 2)):
        for fix_f1 in (True, False):
            for index, f in enumerate(enumerate_unit_functions(p, n, fix_f1=fix_f1)):
                assert table_index(f.exps, n) == index
                assert table_exps(index, p, n) == list(f.exps)
