"""Multiplicative structure of F_p at desk scale.

Primitive roots, the quadratic-residue indicator, mu_n-valued function tables,
the exhaustive function enumerators, and the brute-force homomorphism
oracle that every analytic test is checked against.  Primality is decided
by trial division through ``cyclo.factorize``, exact below 2^32 and refused
at once above.

A table of a cell is named by its index, its place in the enumeration:
its exponents at x = 1, ..., p - 1 read as base-n digits.  ``table_index``
and ``table_exps`` are the one codec for that format.  Every verdict source
returns the sorted indices of the tables with f(1) = 1 it passes, and a
verifier hands the verification loop its screen's and its candidates' lists
end to end; where its statement leaves f(1) free, the loop first lifts the
joined list to every constant times each table (``times_constants``, whose
docstring proves that the lift moves no verdict).

An exhaustive verification asks the oracle only about the tables those lists
name, never about one that both the screen and the candidates leave out.
``homomorphism_candidates`` lists the candidates in closed form: F_p^x is
cyclic, so a character is fixed by its value at a primitive root g, and that
value is an n-th root of unity whose (p - 1)-th power is 1, i.e. one of the
m = gcd(n, p - 1) elements of mu_m.  The m tables f(g^t) = zeta_n^(j t n/m)
are therefore every candidate, and the oracle still confirms each one pair
by pair.  The candidates and the cell screens share the codec and the lift
and nothing else; the test
``test_every_judge_is_neutral_where_both_sides_reject`` cross-checks the
two lists against the canonical tests on the default grid.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator
from math import gcd

from .cyclo import MAX_ORDER, _Frozen, factorize

#: Functions an enumeration may visit before refusing to run (CLI-overridable).
DEFAULT_BUDGET = 10 ** 7


class BudgetExceededError(ValueError):
    """An enumeration would visit n^k functions, more than the budget allows.

    The message gives the size in decimal while it fits in 256 bits, and as
    n^k beyond that: the integer can have more digits than Python will
    convert to a string, and building it for a huge p would exhaust memory.
    """

    def __init__(self, n: int, k: int, budget: int):
        size = n ** k if k * n.bit_length() <= 256 else f"{n}^{k}"
        super().__init__(
            f"enumeration would visit {size} functions, exceeding the budget of {budget}")


#: is_prime refuses m at or above this bound: trial division up to 2^16 takes
#: a millisecond or two, and no path of the package tests a larger number.
_PRIME_BOUND = 1 << 32


def is_prime(m: int) -> bool:
    """Whether m is prime, by trial division through ``factorize``.

    Exact for every m below 2^32, at most 32768 trial divisors; a larger m
    raises ValueError at once rather than run for hours.
    """
    if m >= _PRIME_BOUND:
        raise ValueError(f"primality of {m} is decided only below {_PRIME_BOUND}")
    return m >= 2 and factorize(m) == [(m, 1)]


def check_odd_prime(p: int) -> None:
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"modulus must be an odd prime, got {p}")


def find_primitive_root(p: int) -> int:
    """Smallest generator of the cyclic group of units mod p; deterministic."""
    check_odd_prime(p)
    factors = factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q, _ in factors):
            return g
    raise AssertionError(f"no primitive root modulo {p}")


# ---------------------------------------------------------------------------
# Function tables valued in roots of unity.

class UnitFunction(_Frozen):
    """A function f from the units mod p into the n-th roots of unity.

    ``exps[x - 1]`` is the exponent k_x with f(x) = e(k_x / n) for
    x = 1, ..., p - 1, where e(t) = exp(2*pi*i*t).  The extension f(0) = 0
    is a convention of every sum in this package, not a stored value.

    An immutable value (``cyclo._Frozen``), equal to another exactly when
    p, n and exps are.  The fields live in slots, set through their member
    descriptors (``_set_p``, ``_set_n``, ``_set_exps``), which skip the
    frozen ``__setattr__``; ``_trusted_unit_function`` builds each
    enumerated table that way without the checks of ``__init__`` (see the
    README).
    """

    __slots__ = _fields = ("p", "n", "exps")

    def __init__(self, p: int, n: int, exps: tuple):
        # Exactly int: a float or bool p or n would pass the checks below.
        if type(p) is not int or type(n) is not int:
            raise ValueError(f"p and n must be integers, got p={p!r}, n={n!r}")
        if type(exps) is not tuple:
            exps = tuple(exps)
        # The length check comes first: it is free, and it keeps a huge p
        # from ever reaching the primality test.
        if len(exps) != p - 1:
            raise ValueError(f"need {p - 1} exponents for p = {p}, got {len(exps)}")
        check_odd_prime(p)
        if n < 1:
            raise ValueError(f"value order n must be at least 1, got {n}")
        for e in exps:
            # Exactly int: bool is an int subclass and would pass the range test.
            if type(e) is not int or not 0 <= e < n:
                raise ValueError(f"exponents must be integers in [0, {n}), got {e!r}")
        _set_p(self, p)
        _set_n(self, n)
        _set_exps(self, exps)

    @property
    def is_trivial(self) -> bool:
        return not any(self.exps)

    @property
    def is_constant(self) -> bool:
        exps = self.exps
        return exps.count(exps[0]) == len(exps)

    def normalized(self) -> "UnitFunction":
        """conj(f(1)) * f: the rescaling of f whose value at 1 is 1."""
        k1, n = self.exps[0], self.n
        if k1 == 0:
            return self
        return _trusted_unit_function(self.p, n, tuple((e - k1) % n for e in self.exps))

    def to_text(self) -> str:
        return f"p={self.p} n={self.n} exps=" + ",".join(map(str, self.exps))


_set_p, _set_n, _set_exps = (UnitFunction.p.__set__, UnitFunction.n.__set__,
                             UnitFunction.exps.__set__)


def _is_digits(word: str) -> bool:
    """Whether word is one or more ASCII digits, the form of every integer
    the CLI reads."""
    return word.isascii() and word.isdigit()


def parse_unit_function(text: str) -> UnitFunction:
    """Parse the textual format ``p=<p> n=<n> exps=<k_1>,...,<k_{p-1}>``.

    Whitespace-tolerant: any whitespace may surround each ``=`` and comma,
    and at least some separates ``<p>`` from ``n`` and ``<n>`` from
    ``exps``.  The integers are ASCII digits; exponents are validated
    against [0, n).  Read with ``str`` methods, not a regular expression,
    whose compile would cost a one-function command more than the parse.
    """
    *heads, body = text.split("=")
    words = [head.split() for head in heads]
    if (len(words) != 3 or words[0] != ["p"] or words[1][1:] != ["n"]
            or words[2][1:] != ["exps"] or not _is_digits(words[1][0])
            or not _is_digits(words[2][0]) or not body
            or not all(map(_is_digits, body.replace(",", " ").split()))):
        raise ValueError(
            "malformed function text; expected "
            "'p=<int> n=<int> exps=<comma-separated ints>'")
    items = [item.strip() for item in body.split(",")]
    if not all(map(_is_digits, items)):
        raise ValueError("bad exponent list; expected comma-separated integers")
    return UnitFunction(int(words[1][0]), int(words[2][0]), tuple(map(int, items)))


def legendre_unit_function(p: int) -> UnitFunction:
    """The quadratic-residue indicator as a mu_2-valued table."""
    check_odd_prime(p)
    squares = {x * x % p for x in range(1, p)}
    exps = tuple(0 if x in squares else 1 for x in range(1, p))
    return UnitFunction(p, 2, exps)


# ---------------------------------------------------------------------------
# Exhaustive enumeration and the independent oracle.

def is_character_oracle(f: UnitFunction) -> bool:
    """Brute-force homomorphism test, independent of all spectral machinery.

    True iff f(1) = 1 and f(a*b) = f(a) f(b) for all units a, b, checked
    exhaustively in exponent arithmetic mod n.  Quadratic in p.
    """
    p, n, exps = f.p, f.n, f.exps
    if exps[0] != 0:
        return False
    for a in range(2, p):
        ea = exps[a - 1]
        for b in range(a, p):
            if (ea + exps[b - 1]) % n != exps[a * b % p - 1]:
                return False
    return True


def enumerate_unit_functions(p: int, n: int, fix_f1: bool = True,
                             budget: int = DEFAULT_BUDGET) -> Iterator[UnitFunction]:
    """Every mu_n-valued table exactly once, in lexicographic exponent order.

    With ``fix_f1`` the exponent at x = 1 is pinned to 0, i.e. f(1) = 1.
    The one place a (p, n) cell is validated, cheapest check first: p and
    n exactly int (a float or bool is refused, as by ``UnitFunction``), p odd
    and at least 3, n at least 1, then the budget (BudgetExceededError when
    the n^k tables exceed it), then p at most MAX_ORDER, then p's primality.
    The power is multiplied up only until it passes the budget, so a huge p
    costs a few multiplications, not a giant integer.  Every statement
    works at an order of at least p or does O(p^2) work, so at n = 1, where
    the budget passes a single function, a p above MAX_ORDER is refused
    before its table of p - 1 exponents is built.
    """
    if type(p) is not int or type(n) is not int:
        raise ValueError(f"p and n must be integers, got p={p!r}, n={n!r}")
    if p < 3 or p % 2 == 0:
        raise ValueError(f"modulus must be an odd prime, got {p}")
    if n < 1:
        raise ValueError(f"value order n must be at least 1, got {n}")
    k = p - 2 if fix_f1 else p - 1
    total = 1
    for _ in range(k if n > 1 else 0):
        if total > budget:
            break
        total *= n
    if total > budget:
        raise BudgetExceededError(n, k, budget)
    if p > MAX_ORDER:
        raise ValueError(f"modulus {p} exceeds MAX_ORDER = {MAX_ORDER}")
    check_odd_prime(p)
    return _unit_function_stream(p, n, fix_f1)


def homomorphism_candidates(p: int, n: int) -> list:
    """The sorted enumeration indices of the characters among the tables of
    a validated cell.

    The index of a table is its place in ``enumerate_unit_functions(p, n)``
    (``table_index``).  With g = ``find_primitive_root(p)`` and m =
    gcd(n, p - 1), the tables are f(g^t) = zeta_n^(j t n/m) for j < m, read
    off along the powers of g.  They are all: a character chi is fixed by
    chi(g), and chi(g)^n = chi(g)^(p-1) = 1 puts chi(g) in mu_m, so chi(g) =
    zeta_n^(j n/m) for some j < m.  The indices are therefore exactly the
    tables that ``is_character_oracle`` accepts.
    """
    m = gcd(n, p - 1)
    g = find_primitive_root(p)
    log, x = [0] * p, 1  # log[g^t mod p] = t, along the powers of g
    for t in range(p - 1):
        log[x], x = t, x * g % p
    return sorted(table_index([j * log[x] * (n // m) % n for x in range(1, p)], n)
                  for j in range(m))


def table_index(exps, n: int) -> int:
    """The index of the table with exponents ``exps`` at x = 1, ..., p - 1:
    its place in ``enumerate_unit_functions``, the exponents read as
    base-n digits (the first is 0 when f(1) is fixed)."""
    return functools.reduce(lambda i, e: i * n + e, exps, 0)


def table_exps(index: int, p: int, n: int) -> list:
    """The p - 1 exponents of the table at ``index``, the inverse of
    ``table_index``."""
    exps = [0] * (p - 1)
    for x in range(p - 2, -1, -1):
        index, exps[x] = divmod(index, n)
    return exps


def times_constants(indices, p: int, n: int) -> list:
    """The sorted indices, among the tables with f(1) free, of c * h for
    each table h with f(1) = 1 named in ``indices`` and each constant c in
    mu_n.  Distinct (c, h) give distinct tables, c being the value at 1.

    A verifier whose statement leaves f(1) free lifts its joined screen and
    candidate lists through this once, and the lift moves no verdict: every
    table f is f(1) * (f / f(1)), a constant times a table with f(1) = 1,
    and c * h passes each test exactly when h does.
    - A unit c scales every split-prime image or leaves it unchanged:
      S_a(c * h) = c * S_a(h), so the value sum's image is scaled by the
      unit c(omega) and S_a(omega) * S_a(omega^-1) is unchanged, c(omega) *
      c(omega^-1) being 1.
    - sigma_k fixes mu_n when k = 1 (mod n), so tau - sigma_k(tau) of c * h
      is c times that of h, and its image is zero exactly when h's is.
    - f(1) * (f / f(1)) is a character times a constant exactly when
      f / f(1) is a character, so the candidates with f(1) free are the
      characters times each constant, and the constants are the trivial
      character times each constant.
    """
    tables = [table_exps(index, p, n) for index in indices]
    return sorted(table_index([(e + c) % n for e in h], n) for h in tables for c in range(n))


def _trusted_unit_function(p: int, n: int, exps: tuple) -> UnitFunction:
    """A table set up field by field, without the checks of ``UnitFunction``.

    Only for values already known valid: p an odd prime and n >= 1, checked
    once for a cell or carried over from a validated table, and exps a
    tuple of p - 1 int exponents in [0, n) by construction.
    """
    f = object.__new__(UnitFunction)
    _set_p(f, p)
    _set_n(f, n)
    _set_exps(f, exps)
    return f


def _unit_function_stream(p: int, n: int, fix_f1: bool) -> Iterator[UnitFunction]:
    """The tables of a cell that ``enumerate_unit_functions`` has validated.

    One ``map`` over ``itertools.product``, whose first factor is f(1)'s
    exponents (range(1) when f(1) is fixed), so no Python frame runs per
    table; the product yields tuples of int exponents in [0, n), so each
    table is trusted (``_trusted_unit_function``).
    """
    return map(functools.partial(_trusted_unit_function, p, n),
               itertools.product(range(1 if fix_f1 else n), *[range(n)] * (p - 2)))
