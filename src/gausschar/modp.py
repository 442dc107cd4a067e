"""Multiplicative structure of F_p at desk scale.

Primitive roots, the quadratic-residue indicator, mu_n-valued function tables,
the exhaustive function enumerators, and the brute-force homomorphism
oracle that every analytic test is checked against.  Primality is decided
by a deterministic Miller-Rabin test, exact below 3.317e24 and refused
above.

A table of a cell is named by its index, its place in the enumeration:
its exponents at x = 1, ..., p - 1 read as base-n digits.  ``table_index``
and ``table_exps`` are the one codec for that format; every verdict source
hands the verification loop a sorted list of such indices.

An exhaustive verification asks the oracle only about candidates.
``homomorphism_candidates`` walks a cell's lexicographic tree of tables
and cuts each branch at the first relation f(a) f(b) = f(1) f(ab) it
fails, checked as soon as its largest argument is assigned; it shares no
code with ``spectral``.  It is sound because no character, times a
constant when f(1) is free, ever fails such a relation.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections.abc import Iterator

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


#: The first thirteen primes, the Miller-Rabin bases.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: The smallest strong pseudoprime to every base in _MR_BASES (Sorenson and
#: Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
#: Without 41 the bound would be 318665857834031151167461, which passes
#: all twelve bases 2..37.
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(m: int) -> bool:
    """Whether m is prime, by Miller-Rabin over the bases 2..41.

    Deterministic and proven correct for every m below _MR_BOUND; a larger m
    raises ValueError rather than get a probabilistic answer.
    """
    if m >= _MR_BOUND:
        raise ValueError(f"primality of {m} is decided only below {_MR_BOUND}")
    if m < 2:
        return False
    for q in _MR_BASES:
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


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

_FUNCTION_RE = re.compile(
    r"\s*p\s*=\s*(\d+)\s+n\s*=\s*(\d+)\s+exps\s*=\s*([0-9,\s]+?)\s*$")


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


def parse_unit_function(text: str) -> UnitFunction:
    """Parse the textual format ``p=<p> n=<n> exps=<k_1>,...,<k_{p-1}>``.

    Whitespace-tolerant; exponents are validated against [0, n).
    """
    m = _FUNCTION_RE.match(text)
    if not m:
        raise ValueError(
            "malformed function text; expected "
            "'p=<int> n=<int> exps=<comma-separated ints>'")
    p, n = int(m.group(1)), int(m.group(2))
    try:
        exps = tuple(int(tok.strip()) for tok in m.group(3).split(","))
    except ValueError:
        raise ValueError("bad exponent list; expected comma-separated integers") from None
    return UnitFunction(p, n, exps)


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
    The one place a (p, n) cell is validated, cheapest check first: p odd
    and at least 3, n at least 1, then the budget (BudgetExceededError when
    the n^k tables exceed it), then p at most MAX_ORDER, then p's primality.
    The power is multiplied up only until it passes the budget, so a huge p
    costs a few multiplications, not a giant integer.  Every statement
    works at an order of at least p or does O(p^2) work, so at n = 1, where
    the budget passes a single function, a p above MAX_ORDER is refused
    before its table of p - 1 exponents is built.
    """
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


def homomorphism_candidates(p: int, n: int, fix_f1: bool = True) -> list:
    """The sorted enumeration indices of the tables of a validated cell that
    satisfy f(a) f(b) = f(1) f(ab) for all units a, b.

    The index of a table is its place in ``enumerate_unit_functions(p, n,
    fix_f1)`` (``table_index``).  The lexicographic tree of tables is
    walked depth first, without recursion, and each relation is checked, in
    exponent arithmetic mod n, as soon as its largest argument is assigned;
    a branch is cut at the first relation it fails.  Beside the output
    this keeps O(p) state: the exponents of the current branch and the
    inverses mod p.

    Every character, times a constant c when f(1) is free, passes every
    relation, since c chi(a) c chi(b) = c (c chi(ab)); so no character is
    cut.  Conversely a table passing every relation is f(1) times the
    character f / f(1).  The indices are therefore exactly the tables that
    ``is_character_oracle`` accepts, after ``UnitFunction.normalized`` when
    f(1) is free.
    """
    if n == 1:
        return [0]
    inverse = [0] + [pow(a, -1, p) for a in range(1, p)]
    exps = [0] * p  # exps[x] at x = 1, ..., p - 1; exps[0] is unused
    first = 2 if fix_f1 else 1
    found = []
    x = first
    while x >= first:
        if exps[x] == n:
            # Every digit at x is spent: back up one position.
            exps[x] = 0
            x -= 1
            if x >= first:
                exps[x] += 1
        elif not _relations_hold(p, n, exps, inverse, x):
            exps[x] += 1
        elif x < p - 1:
            x += 1
        else:
            found.append(table_index(exps[1:], n))
            exps[x] += 1
    return found


def _relations_hold(p: int, n: int, exps: list, inverse: list, x: int) -> bool:
    """Whether every relation f(a) f(b) = f(1) f(ab) whose largest argument
    is x holds for the exponents assigned at 1, ..., x: those with b = x
    and ab (mod p) at most x, and those with ab = x (mod p) and a < b < x.

    The relations with a = b < x are implied by the others, so they are not
    checked.  With g = f / f(1) the relations read g(a) g(b) = g(ab), and
    g(a)^2 = g(a^2) follows from the a != b relations at (a, ac), (a, c)
    and (a^2, c), for any unit c outside {1, a, a^2}: g(a) g(ac) = g(a^2 c)
    = g(a^2) g(c) and g(ac) = g(a) g(c).  Such a c exists for p >= 5.  At
    p = 3 the one a = b relation, a = 2, has ab = 1 and largest argument
    x = 2, so it is checked in the first loop.
    """
    e1, ex = exps[1], exps[x]
    for a in range(2, x + 1):
        c = a * x % p
        if c <= x and (exps[a] + ex - e1 - exps[c]) % n:
            return False
    for a in range(2, x):
        b = x * inverse[a] % p
        if a < b < x and (exps[a] + exps[b] - e1 - ex) % n:
            return False
    return True


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

    ``itertools.product`` over range(n) yields int exponents in [0, n), so
    each table is trusted (``_trusted_unit_function``).
    """
    free = p - 2 if fix_f1 else p - 1
    head = (0,) if fix_f1 else ()
    for tail in itertools.product(range(n), repeat=free):
        yield _trusted_unit_function(p, n, head + tail)
