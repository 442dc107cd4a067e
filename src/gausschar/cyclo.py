"""Exact arithmetic in rings of cyclotomic integers Z[zeta_N].

An element is stored as its integer coordinate vector in the power basis
{1, zeta_N, ..., zeta_N^(phi(N) - 1)}, i.e. as the canonical residue of an
integer polynomial modulo the N-th cyclotomic polynomial Phi_N.  The power
basis is a Z-basis, so coefficient vectors compare equal exactly when the
ring elements are equal; every "if and only if" test in this package leans
on that.  Coefficients are arbitrary-precision Python integers and no
operation ever leaves Z: Phi_N is monic, so reduction involves no division
by leading coefficients.  Nothing here is ever evaluated in floating point.

Mixed orders are rejected rather than auto-promoted; callers embed into a
common order first (see ``CyclotomicElement.embed``), which keeps equality
semantics explicit and avoids silent order blowup.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd
from typing import Iterable

#: Ceiling on root-of-unity orders; guards Phi_N computation and table sizes.
MAX_ORDER = 10_000


class OrderMismatchError(ValueError):
    """Two elements of different orders were combined without embedding."""


def _check_order(n: int) -> None:
    if n < 1:
        raise ValueError(f"root-of-unity order must be a positive integer, got {n}")
    if n > MAX_ORDER:
        raise ValueError(f"root-of-unity order {n} exceeds MAX_ORDER = {MAX_ORDER}")


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 by trial division, as ascending
    (prime, exponent) pairs; empty for n = 1."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def euler_phi(n: int) -> int:
    """Euler's totient of n, from its factorization."""
    if n < 1:
        raise ValueError(f"totient is defined for positive integers, got {n}")
    result = 1
    for q, e in factorize(n):
        result *= (q - 1) * q ** (e - 1)
    return result


# ---------------------------------------------------------------------------
# Integer polynomials: coefficient tuples, constant term first, no trailing
# zeros.  The zero polynomial is the empty tuple.

IntPolynomial = tuple[int, ...]


def poly_trim(coeffs: Iterable[int]) -> IntPolynomial:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_mul(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return poly_trim(out)


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial Phi_n, constant term first.

    Computed as the Moebius product of (x^(n/s) - 1)^mu(s) over squarefree
    s | n: the mu(s) = 1 binomials are multiplied in, then the mu(s) = -1
    ones divided out.  The divisions are exact, because the product of the
    first kind is Phi_n times the product of the second, so no remainder is
    formed.  Monic with integer coefficients, degree phi(n).
    """
    _check_order(n)
    ups, downs = [n], []  # n/s over squarefree s | n with mu(s) = 1 and -1
    for q, _ in factorize(n):
        ups, downs = ups + [m // q for m in downs], downs + [m // q for m in ups]
    poly = [1]
    for d in ups:  # a = q * (x^d - 1): a[k] = q[k - d] - q[k]
        poly = [hi - lo for lo, hi in zip(poly + [0] * d, [0] * d + poly)]
    for d in downs:  # q = a / (x^d - 1): q[k] = q[k - d] - a[k]
        poly = [-c for c in poly[:len(poly) - d]]
        for k in range(d, len(poly)):
            poly[k] += poly[k - d]
    return tuple(poly)


# ---------------------------------------------------------------------------
# Per-order reduction tables.

class _OrderContext:
    """Cached tables for one order: Phi_N and canonical vectors of zeta^k.

    ``power_table[k]`` holds the power-basis coordinates of zeta_N^k for
    0 <= k < N, built by repeated multiplication by x using the monic
    relation x^deg = -(Phi_N - x^deg).
    """

    __slots__ = ("degree", "power_table")

    def __init__(self, order: int):
        phi_poly = cyclotomic_polynomial(order)
        deg = len(phi_poly) - 1
        self.degree = deg
        top = [-c for c in phi_poly[:-1]]
        row = [0] * deg
        row[0] = 1
        table = [tuple(row)]
        for _ in range(1, order):
            carry = row[-1]
            row = [0] + row[:-1]
            if carry:
                row = [row[i] + carry * top[i] for i in range(deg)]
            table.append(tuple(row))
        self.power_table = tuple(table)


@functools.lru_cache(maxsize=None)
def _context(order: int) -> _OrderContext:
    _check_order(order)
    return _OrderContext(order)


def _canonicalize(order: int, raw: list[int]) -> tuple[int, ...]:
    """Reduce a coefficient list of any length to power-basis coordinates."""
    ctx = _context(order)
    deg = ctx.degree
    if len(raw) > order:
        # zeta^order = 1, so exponents fold mod the order before division.
        folded = [0] * order
        for e, c in enumerate(raw):
            if c:
                folded[e % order] += c
        raw = folded
    out = list(raw[:deg])
    if len(out) < deg:
        out.extend([0] * (deg - len(out)))
    table = ctx.power_table
    for e in range(deg, len(raw)):
        c = raw[e]
        if c:
            row = table[e]
            for i in range(deg):
                out[i] += c * row[i]
    return tuple(out)


def _power_map(order: int, coeffs, s: int) -> tuple[int, ...]:
    """Power-basis coordinates of the sum of coeffs[i] * zeta_order^(i*s):
    the image of an element under zeta -> zeta_order^s."""
    raw = [0] * order
    for i, c in enumerate(coeffs):
        if c:
            raw[i * s % order] += c
    return _canonicalize(order, raw)


# ---------------------------------------------------------------------------
# Elements.

@dataclass(frozen=True)
class CyclotomicElement:
    """A cyclotomic integer: power-basis coordinates in Z[zeta_order]."""

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != _context(self.order).degree:
            raise ValueError(
                f"coefficient vector must have length phi({self.order}) = "
                f"{_context(self.order).degree}, got {len(self.coeffs)}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_coeffs(cls, order: int, coeffs: Iterable[int]) -> "CyclotomicElement":
        """Canonical element from coefficients of any length (reduced here)."""
        return cls(order, _canonicalize(order, list(coeffs)))

    @classmethod
    def from_int(cls, order: int, value: int) -> "CyclotomicElement":
        deg = _context(order).degree
        return cls(order, (value,) + (0,) * (deg - 1))

    @classmethod
    def zero(cls, order: int) -> "CyclotomicElement":
        return cls.from_int(order, 0)

    @classmethod
    def one(cls, order: int) -> "CyclotomicElement":
        return cls.from_int(order, 1)

    # -- ring structure ------------------------------------------------------

    def _require_same_order(self, other: "CyclotomicElement") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"orders differ ({self.order} vs {other.order}); embed into a "
                f"common order first")

    def __add__(self, other):
        if isinstance(other, int):
            other = CyclotomicElement.from_int(self.order, other)
        if not isinstance(other, CyclotomicElement):
            return NotImplemented
        self._require_same_order(other)
        return CyclotomicElement(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicElement(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = CyclotomicElement.from_int(self.order, other)
        if not isinstance(other, CyclotomicElement):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicElement(self.order, tuple(a * other for a in self.coeffs))
        if not isinstance(other, CyclotomicElement):
            return NotImplemented
        self._require_same_order(other)
        a, b = self.coeffs, other.coeffs
        conv = [0] * (2 * len(a) - 1)
        for i, ai in enumerate(a):
            if ai:
                k = i
                for bj in b:
                    conv[k] += ai * bj
                    k += 1
        return CyclotomicElement(self.order, _canonicalize(self.order, conv))

    __rmul__ = __mul__

    # -- Galois structure ----------------------------------------------------

    def galois(self, k: int) -> "CyclotomicElement":
        """Apply sigma_k : zeta -> zeta^k, for k coprime to the order.

        A ring automorphism, with sigma_k . sigma_j = sigma_(k*j mod N).
        """
        n = self.order
        k %= n
        if gcd(k, n) != 1:
            raise ValueError(f"automorphism exponent {k} is not coprime to the order {n}")
        if k == 1:
            return self
        return CyclotomicElement(n, _power_map(n, self.coeffs, k))

    def conjugate(self) -> "CyclotomicElement":
        """Complex conjugation zeta -> zeta^(N-1); an involutive automorphism."""
        return self.galois(-1)

    def embed(self, new_order: int) -> "CyclotomicElement":
        """Image under zeta_N -> zeta_M^(M/N); requires N | M.

        An injective ring homomorphism realizing Z[zeta_N] inside Z[zeta_M].
        """
        n, m = self.order, new_order
        _check_order(m)
        if m % n != 0:
            raise ValueError(f"cannot embed order {n} into order {m}: {n} does not divide {m}")
        if m == n:
            return self
        return CyclotomicElement(m, _power_map(m, self.coeffs, m // n))

    def in_subfield(self, d: int) -> bool:
        """Whether the element lies in Q(zeta_d), for d dividing the order.

        The automorphisms sigma_k with k = 1 (mod d) and gcd(k, N) = 1 are
        exactly the ones fixing Q(zeta_d) pointwise, so membership is
        equivalent to being fixed by all of them.
        """
        n = self.order
        if d < 1 or n % d != 0:
            raise ValueError(f"subfield order {d} does not divide the element order {n}")
        for k in range(1 + d, n, d):
            if gcd(k, n) == 1 and self.galois(k) != self:
                return False
        return True

    # -- magnitude and rationality --------------------------------------------

    def norm_squared(self) -> "CyclotomicElement":
        """z * conj(z): the exact stand-in for |z|^2.

        When rational this equals |z|^2 under every complex embedding that
        sends zeta_N to a primitive N-th root; sqrt-free by construction.
        """
        return self * self.conjugate()

    def as_integer(self) -> "int | None":
        """The rational integer this element represents, or None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)


# ---------------------------------------------------------------------------
# Root-of-unity constructors.

def zeta_pow(order: int, k: int) -> CyclotomicElement:
    """Canonical form of zeta_order^k (k is reduced mod the order)."""
    ctx = _context(order)
    return CyclotomicElement(order, ctx.power_table[k % order])


def sum_of_zeta_powers(order: int, exponents: Iterable[int]) -> CyclotomicElement:
    """Canonical sum of zeta_order^e over the given exponents (with repeats).

    Accumulates multiplicities per exponent and reduces once; the workhorse
    behind every Gauss-type sum in this package.  The order is checked
    before any exponent is read: a caller may pass (p-1)^2 of them.
    """
    _check_order(order)
    counts = [0] * order
    for e in exponents:
        counts[e % order] += 1
    return CyclotomicElement(order, _canonicalize(order, counts))


def evaluate_poly(poly: IntPolynomial, z: CyclotomicElement) -> CyclotomicElement:
    """Evaluate an integer polynomial at a cyclotomic element (Horner)."""
    acc = CyclotomicElement.zero(z.order)
    for c in reversed(poly):
        acc = acc * z + c
    return acc
