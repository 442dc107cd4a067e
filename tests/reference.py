"""Multiplicative characters mod p, built directly from a primitive root.

The tests use these to produce known characters and compare them with
what the package's criteria and oracle pick out; the package itself never
needs them, so they live here and not in ``gausschar.modp``.
"""

from math import gcd

from gausschar.cyclo import _frozen
from gausschar.modp import UnitFunction, check_odd_prime, find_primitive_root


def _multiplicative_order(g: int, p: int) -> int:
    if g % p == 0:
        return 0
    k, acc = 1, g % p
    while acc != 1:
        acc = acc * g % p
        k += 1
    return k


class Character:
    """The multiplicative character chi_j with chi_j(g^t) = e(j*t / (p-1));
    an immutable value, equal to another exactly when p, g and j are."""

    __slots__ = ("p", "g", "j")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, p: int, g: int, j: int):
        check_odd_prime(p)
        if not 0 <= j < p - 1:
            raise ValueError(f"character index must lie in [0, {p - 1})")
        if _multiplicative_order(g, p) != p - 1:
            raise ValueError(f"{g} does not generate the units modulo {p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "j", j)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.p == other.p and self.g == other.g and self.j == other.j

    def __hash__(self):
        return hash((self.p, self.g, self.j))

    def __repr__(self):
        return f"Character(p={self.p!r}, g={self.g!r}, j={self.j!r})"

    def __reduce__(self):
        return Character, (self.p, self.g, self.j)

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
