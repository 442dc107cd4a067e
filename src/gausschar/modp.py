"""Multiplicative structure of F_p at desk scale.

Primitive roots, the quadratic-residue indicator, mu_n-valued function tables,
the exhaustive function enumerators, and the brute-force homomorphism
oracle that every analytic test is checked against.  Primality is decided
by a deterministic Miller-Rabin test, exact below 3.317e24 and refused
above.
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
        self._n, self._k = n, k
        self.budget = budget

    @property
    def count(self) -> int:
        """The exact enumeration size n^k, built only when asked for."""
        return self._n ** self._k


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


@functools.lru_cache(maxsize=None)
def _nonzero_squares(p: int) -> frozenset:
    return frozenset(x * x % p for x in range(1, p))


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

    def exponent(self, x: int) -> int:
        """The k with f(x) = e(k/n); x must be a unit mod p."""
        r = x % self.p
        if r == 0:
            raise ValueError("f(0) = 0 by convention and has no exponent")
        return self.exps[r - 1]

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
    squares = _nonzero_squares(p)
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
