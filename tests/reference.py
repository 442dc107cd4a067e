"""Reference helpers that only the tests need, kept out of the package.

Multiplicative characters mod p, built directly from a primitive root; the
tests use these to produce known characters and compare them with what the
package's criteria and oracle pick out.  Beside them, plain integer
polynomial arithmetic, the modular inverse, the Legendre symbol, the size of
an enumeration and the Parseval total: each restates a definition that the
package itself never needs.  Last, sympy's remainder mod Phi_N, the outside
reference for every reduction; it imports sympy only when called, so the
tests that use it skip without sympy.
"""

import functools
from math import gcd, lcm

from gausschar.cyclo import CyclotomicElement, _Frozen, euler_phi
from gausschar.modp import UnitFunction, check_odd_prime, find_primitive_root
from gausschar.spectral import fourier_norm


def _multiplicative_order(g: int, p: int) -> int:
    if g % p == 0:
        return 0
    k, acc = 1, g % p
    while acc != 1:
        acc = acc * g % p
        k += 1
    return k


class Character(_Frozen):
    """The multiplicative character chi_j with chi_j(g^t) = e(j*t / (p-1));
    an immutable value (``cyclo._Frozen``), equal to another exactly when p,
    g and j are."""

    __slots__ = _fields = ("p", "g", "j")

    def __init__(self, p: int, g: int, j: int):
        check_odd_prime(p)
        if not 0 <= j < p - 1:
            raise ValueError(f"character index must lie in [0, {p - 1})")
        if _multiplicative_order(g, p) != p - 1:
            raise ValueError(f"{g} does not generate the units modulo {p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "j", j)

    @property
    def is_trivial(self) -> bool:
        return self.j == 0

    @property
    def order(self) -> int:
        """Order of the character as an element of the dual group."""
        return (self.p - 1) // gcd(self.j, self.p - 1)

    def unit_function(self, n: "int | None" = None) -> UnitFunction:
        """The character as a mu_n-valued table (default n = p - 1).

        Requires the character order to divide n, so that every value is an
        n-th root of unity.
        """
        p = self.p
        if n is None:
            n = p - 1
        if self.j * n % (p - 1) != 0:
            raise ValueError(
                f"character of order {self.order} does not take values in mu_{n}")
        scale = self.j * n // (p - 1)
        exps = [0] * (p - 1)
        x = 1
        for t in range(p - 1):
            exps[x - 1] = scale * t % n
            x = x * self.g % p
        return UnitFunction(p, n, tuple(exps))


def enumerate_characters(p: int, n: int) -> list:
    """All characters mod p whose values are n-th roots of unity, by index.

    These are the chi_j whose order (p-1)/gcd(j, p-1) divides n; there are
    exactly gcd(n, p-1) of them, the trivial character first.
    """
    check_odd_prime(p)
    if n < 1:
        raise ValueError(f"value order n must be at least 1, got {n}")
    g = find_primitive_root(p)
    return [Character(p, g, j) for j in range(p - 1) if j * n % (p - 1) == 0]


# ---------------------------------------------------------------------------
# Integer polynomials: coefficient tuples, constant term first, no trailing
# zeros.  The zero polynomial is the empty tuple.

def poly_trim(coeffs) -> tuple:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return poly_trim(out)


def evaluate_poly(poly: tuple, z: CyclotomicElement) -> CyclotomicElement:
    """Evaluate an integer polynomial at a cyclotomic element (Horner)."""
    acc = CyclotomicElement.zero(z.order)
    for c in reversed(poly):
        acc = acc * z + c
    return acc


# ---------------------------------------------------------------------------
# Arithmetic mod p.

def mod_inverse(a: int, p: int) -> int:
    """The unique b in [1, p) with a*b = 1 (mod p); a must be a unit."""
    check_odd_prime(p)
    if a % p == 0:
        raise ZeroDivisionError(f"{a} is 0 mod {p} and has no inverse")
    return pow(a, -1, p)


def legendre_symbol(a: int, p: int) -> int:
    """1 for nonzero squares mod p, -1 for nonsquares, 0 when p divides a.

    Decided by membership in the explicit square set, not by a power
    computation.
    """
    check_odd_prime(p)
    a %= p
    if a == 0:
        return 0
    return 1 if a in {x * x % p for x in range(1, p)} else -1


def count_unit_functions(p: int, n: int, fix_f1: bool) -> int:
    """Size of the enumeration: n^(p-2) with f(1) pinned, n^(p-1) without."""
    return n ** (p - 2 if fix_f1 else p - 1)


# ---------------------------------------------------------------------------
# Parseval.

class InconsistencyError(RuntimeError):
    """An exact identity failed; indicates a bug in the package."""


def parseval_sum(f: UnitFunction) -> int:
    """Sum of norm_squared(S_xi) over all xi in F_p, as an exact integer.

    Always equals p*(p-1); a non-rational total means the arithmetic core is
    broken and raises InconsistencyError.
    """
    total = CyclotomicElement.zero(lcm(f.n, f.p))
    for xi in range(f.p):
        total = total + fourier_norm(f, xi)
    value = total.as_integer()
    if value is None:
        raise InconsistencyError("Parseval sum is not a rational integer")
    return value


# ---------------------------------------------------------------------------
# sympy's reduction mod Phi_N.

@functools.lru_cache(maxsize=None)
def _sympy_cyclotomic(order: int) -> list:
    import sympy
    from sympy.polys.domains import ZZ
    x = sympy.Symbol("x")
    return [ZZ(int(c)) for c in sympy.Poly(sympy.cyclotomic_poly(order, x), x).all_coeffs()]


def sympy_remainder(order: int, terms: dict) -> tuple:
    """Power-basis coordinates of the sum of c * x^e over ``terms`` ({e: c},
    any e >= 0, no folding by x^N = 1): sympy's dense remainder over ZZ mod
    Phi_order (the polynomial-level routine, about 20x faster than Poly.rem
    at order 2002)."""
    from sympy.polys.densearith import dup_rem
    from sympy.polys.densebasic import dup_strip
    from sympy.polys.domains import ZZ
    dense = [0] * (max(terms, default=0) + 1)
    for e, c in terms.items():
        dense[e] += c
    dividend = dup_strip([ZZ(c) for c in reversed(dense)])
    rem = [int(c) for c in reversed(dup_rem(dividend, _sympy_cyclotomic(order), ZZ))]
    return tuple(rem + [0] * (euler_phi(order) - len(rem)))
