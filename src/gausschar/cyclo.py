"""Exact arithmetic in rings of cyclotomic integers Z[zeta_N].

An element is stored as its integer coordinate vector in the power basis
{1, zeta_N, ..., zeta_N^(phi(N) - 1)}, i.e. as the canonical residue of an
integer polynomial modulo the N-th cyclotomic polynomial Phi_N.  The power
basis is a Z-basis, so coefficient vectors compare equal exactly when the
ring elements are equal; every "if and only if" test in this package leans
on that.  Coefficients are arbitrary-precision Python integers and no
operation ever leaves Z: Phi_N is monic, so reduction involves no division
by leading coefficients.  Nothing here is ever evaluated in floating point.

Every reduction mod Phi_N is one integer remainder, by Kronecker
substitution (Harvey, "Faster polynomial multiplication via multipoint
Kronecker substitution", arXiv 0712.4046).  A polynomial P is packed into
the integer P(2^s), one s-bit slot per coefficient, and reduced by the
integer M = Phi_N(2^s): from P = Q * Phi_N + R follows P(2^s) = R(2^s)
(mod M).  The slot width is chosen per call, from a bound on the remainder
(``_OrderContext``), so that 2 * max|R_i| + H(Phi_N) < 2^(s-1), where H is
the largest absolute coefficient.  Then
|R(2^s)| < 2 * max|R_i| * 2^(s(phi-1)) and
M > 2^(s*phi) - 2 * H(Phi_N) * 2^(s(phi-1)) give |R(2^s)| < M/2, so the
balanced residue of P(2^s) mod M, the one in (-M/2, M/2], is exactly
R(2^s), and its balanced base-2^s digits are the coefficients of R.  A ring
product packs both factors and multiplies the two integers once before the
same remainder, and zeta^k is the residue of 2^(s*k).  The O(phi^2) work is
CPython's big-integer multiply and remainder; no table of size N * phi is
ever built.

Phi_N comes from k, the odd part of rad(N) (the product of the odd primes
dividing N), by three standard identities (Washington, *Introduction to
Cyclotomic Fields*, ch. 2), with r = rad(N) and t = N / r:

- Phi_N(x) = Phi_r(x^t), and so Psi_N(x) = Psi_r(x^t), where
  Psi_N = (x^N - 1) / Phi_N;
- Phi_2k(x) = (-1)^phi(k) * Phi_k(-x) for odd k; the sign, -1 only for
  k = 1, keeps it monic;
- Psi_2k(x) = (-1)^phi(k) * (1 - x^k) * Psi_k(-x) for odd k.

Substituting x^t or -x for x only spreads or negates coefficients, and
Psi_k has degree k - phi(k) < k, so the two halves of (1 - x^k) Psi_k(-x)
do not overlap.  The heights H (largest absolute coefficients) behind the
slot widths therefore carry over: H(Phi_N) = H(Phi_k) and
H(Psi_N) = H(Psi_k).  Only Phi_k and Psi_k are Moebius products of
binomials, one of each per kernel, which orders such as 1001 and 2002
share.

Mixed orders are rejected rather than auto-promoted; callers embed into a
common order first (see ``CyclotomicElement.embed``), which keeps equality
semantics explicit and avoids silent order blowup.
"""

from __future__ import annotations

import functools
import itertools
import struct
from collections.abc import Iterable
from math import gcd, prod
from operator import add, attrgetter, neg, sub

#: Ceiling on root-of-unity orders; bounds the size of Phi_N and of every
#: reduction.
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
# Cyclotomic polynomials: coefficient tuples, constant term first.

IntPolynomial = tuple[int, ...]


def _odd_kernel(n: int) -> int:
    """The odd part of rad(n): the product of the odd primes dividing n."""
    return prod(q for q, _ in factorize(n) if q > 2)


def _moebius_product(n: int, cofactor: bool = False) -> IntPolynomial:
    """Phi_n, or with ``cofactor`` Psi_n = (x^n - 1) / Phi_n, as a product of
    binomials x^d - 1.

    Phi_n is the Moebius product of (x^(n/s) - 1)^mu(s) over squarefree
    s | n: the mu(s) = 1 binomials are multiplied in, the mu(s) = -1 ones
    divided out.  Psi_n is the product of the Phi_d over the proper divisors
    d of n, that is the same binomials with the signs of mu reversed and
    s = 1 left out.

    Each binomial is written -(1 - x^d), and 1 - x^d is a unit of the power
    series ring Z[[x]]: dividing by it multiplies by 1 + x^d + x^(2d) + ...,
    which is a prefix sum along every residue class mod d.  That is one
    C-speed ``itertools.accumulate`` per class while the classes are few
    (d^2 < D + 1), else one C-speed ``map(add)`` per block of d
    coefficients, each block added onto the next.  The result is a
    polynomial of a known degree D (phi(n), or n - phi(n) for Psi_n), so
    the whole product is taken mod x^(D+1): the factors may come in any
    order, every intermediate has D + 1 coefficients, and a binomial with
    d > D is 1 there and is skipped.  The sign is (-1) to the number of
    binomials.
    """
    ups, downs = [n], []  # n/s over squarefree s | n with mu(s) = 1 and -1
    for q, _ in factorize(n):
        ups, downs = ups + [m // q for m in downs], downs + [m // q for m in ups]
    if cofactor:
        ups, downs = downs, ups[1:]
    size = (n - euler_phi(n) if cofactor else euler_phi(n)) + 1
    poly = [1] + [0] * (size - 1)
    for d in ups:  # times 1 - x^d: a[k] = q[k] - q[k - d]
        if d < size:
            poly = list(map(sub, poly, [0] * d + poly))
    for d in downs:  # divided by 1 - x^d: q[k] = a[k] + q[k - d]
        if d * d < size:  # a few long residue classes
            for r in range(d):
                poly[r::d] = itertools.accumulate(poly[r::d])
        else:  # a few blocks of d, each added onto the next
            for j in range(d, size, d):
                poly[j:j + d] = map(add, poly[j:j + d], poly[j - d:j])
    if (len(ups) + len(downs)) % 2:
        poly = list(map(neg, poly))
    return tuple(poly)


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial Phi_n, constant term first.

    Built from k, the odd part of r = rad(n), by the identities of the
    module docstring: Phi_n(x) = Phi_r(x^(n/r)), and
    Phi_2k(x) = (-1)^phi(k) * Phi_k(-x) for odd k, the sign keeping it monic
    (it is -1 only for k = 1, where Phi_2 = x + 1).  Psi_n follows by the
    same substitutions, times 1 - x^k for even n, so the heights of both
    carry over from k (see ``_OrderContext``).  Only Phi_k itself is a
    Moebius product (``_moebius_product``), cached here, so every order with
    the same kernel (1001, 2002, 4004, ...) shares it.  Monic with integer
    coefficients, degree phi(n).
    """
    _check_order(n)
    k = _odd_kernel(n)
    if n == k:
        return _moebius_product(n)
    base = cyclotomic_polynomial(k)
    deg = len(base) - 1
    if n % 2 == 0:
        base = list(base)
        base[1 - deg % 2::2] = map(neg, base[1 - deg % 2::2])
    stride = n // (2 * k if n % 2 == 0 else k)
    poly = [0] * (deg * stride + 1)
    poly[::stride] = base
    return tuple(poly)


@functools.lru_cache(maxsize=None)
def _kernel_heights(k: int) -> tuple[int, int]:
    """H(Phi_k) and H(Psi_k), H the largest absolute coefficient: the heights
    of every order whose odd kernel is k (see ``_OrderContext``)."""
    return (max(map(abs, cyclotomic_polynomial(k))),
            max(map(abs, _moebius_product(k, cofactor=True))))


# ---------------------------------------------------------------------------
# Reduction mod Phi_N by one integer remainder.

#: struct codes of the slot widths, in bytes, that are packed and unpacked in
#: C: signed, little-endian, standard sizes.  Other widths go byte by byte.
_SLOT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def _slot_offset(width: int, count: int) -> int:
    """The integer with 2^(8*width - 1) in each of ``count`` slots."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack_wide(width: int, *coeffs: int) -> bytes:
    return b"".join(c.to_bytes(width, "little", signed=True) for c in coeffs)


def _unpack_wide(width: int, buf: bytes) -> tuple[int, ...]:
    return tuple(int.from_bytes(buf[i:i + width], "little", signed=True)
                 for i in range(0, len(buf), width))


class _OrderContext:
    """Per-order constants of the reduction mod Phi_N.

    ``row_bound`` is B_N = 1 + min(phi, N - phi) * H(Phi_N) * H(Psi_N), with
    H the largest absolute coefficient and Psi_N = (x^N - 1) / Phi_N.  Every
    coefficient of x^k mod Phi_N, for every k, is at most B_N in absolute
    value.  Proof: x^k = x^(k mod N) mod Phi_N, and x^k with k < phi is its
    own residue.  For phi <= k < N the quotient Q of x^k by Phi_N has its
    coefficients among those of the power series 1/Phi_N (Phi_N is
    palindromic up to sign), which is -Psi_N / (1 - x^N), so they are at most
    H(Psi_N); Q has degree k - phi < N - phi, so each coefficient of
    x^k - Q * Phi_N below degree phi sums at most min(phi, N - phi) products
    of a Q and a Phi_N coefficient.  A raw vector whose absolute
    coefficients sum to W therefore reduces to coefficients of at most
    W * B_N.

    Both heights are read per odd kernel k of N (``_kernel_heights``), never
    from a product at N itself: Phi_N and Psi_N are Phi_k and Psi_k with x
    replaced by x^t, by -x, or both, which moves and negates coefficients,
    and for even N Psi_N also takes the factor 1 - x^k, whose two halves of
    Psi_k(-x) do not overlap because Psi_k has degree below k.  So
    H(Phi_N) = H(Phi_k) and H(Psi_N) = H(Psi_k) (module docstring), and
    B_N is exactly the value the products at N give.

    ``slots(W)`` returns the narrowest slot width that reduces such a vector
    exactly (see the module docstring), with its constants cached per width.
    """

    __slots__ = ("order", "degree", "phi_poly", "phi_height", "row_bound", "_slots")

    def __init__(self, order: int):
        phi_poly = cyclotomic_polynomial(order)
        deg = len(phi_poly) - 1
        self.order = order
        self.degree = deg
        self.phi_poly = phi_poly
        self.phi_height, psi_height = _kernel_heights(_odd_kernel(order))
        self.row_bound = 1 + min(deg, order - deg) * self.phi_height * psi_height
        self._slots = {}

    def slots(self, weight: int) -> "_Slots":
        """Slots for raw vectors whose absolute coefficients sum to at most
        ``weight``.  The width is the fewest bytes with
        2^(s-1) > 2 * weight * B_N + H(Phi_N), s = 8 * width, rounded up to
        1, 2, 4 or 8 bytes, the widths that ``struct`` packs in C."""
        need = 2 * weight * self.row_bound + self.phi_height
        width = (need.bit_length() + 8) >> 3
        if width <= 8:
            width = 1 << (width - 1).bit_length()
        slots = self._slots.get(width)
        if slots is None:
            slots = self._slots[width] = _Slots(self, width)
        return slots


class _Slots:
    """Kronecker packing with ``width``-byte slots, s = 8 * width bits, for one
    order: the modulus M = Phi_N(2^s), and packers for phi and for N slots."""

    __slots__ = ("width", "degree", "modulus", "half_modulus", "degree_offset",
                 "order_offset", "_pack_degree", "_pack_order", "_unpack")

    def __init__(self, ctx: _OrderContext, width: int):
        deg = ctx.degree
        code = _SLOT_CODES.get(width)
        if code:
            codec = struct.Struct(f"<{deg}{code}")
            self._pack_degree, self._unpack = codec.pack, codec.unpack
            self._pack_order = struct.Struct(f"<{ctx.order}{code}").pack
        else:
            self._pack_degree = self._pack_order = functools.partial(_pack_wide, width)
            self._unpack = functools.partial(_unpack_wide, width)
        self.width = width
        self.degree = deg
        self.degree_offset = _slot_offset(width, deg)
        self.order_offset = _slot_offset(width, ctx.order)
        # Phi_N is monic of degree phi.
        self.modulus = (1 << 8 * width * deg) + self.pack(ctx.phi_poly[:deg])
        self.half_modulus = self.modulus >> 1

    def pack(self, coeffs) -> int:
        """The sum of coeffs[i] * 2^(s*i), for phi or N coefficients, each
        below 2^(s-1) in absolute value.

        Each coefficient is written as an s-bit two's complement slot; the
        XOR with the offset flips each slot's top bit, turning slot c into
        c + 2^(s-1) >= 0, and subtracting the offset removes that bias.
        """
        if len(coeffs) == self.degree:
            packer, offset = self._pack_degree, self.degree_offset
        else:
            packer, offset = self._pack_order, self.order_offset
        return (int.from_bytes(packer(*coeffs), "little") ^ offset) - offset

    def reduce(self, value: int) -> tuple[int, ...]:
        """Power-basis coordinates of P mod Phi_N, from value = P(2^s).

        The balanced residue of value mod M is R(2^s); adding the offset
        makes each of its balanced base-2^s digits R_i + 2^(s-1), without
        carries, and the XOR turns each into the two's complement slot of R_i.
        """
        m = self.modulus
        r = value % m
        if r > self.half_modulus:
            r -= m
        offset = self.degree_offset
        slots = ((r + offset) ^ offset).to_bytes(self.width * self.degree, "little")
        return self._unpack(slots)


@functools.lru_cache(maxsize=None)
def _context(order: int) -> _OrderContext:
    _check_order(order)
    return _OrderContext(order)


def _canonicalize(order: int, raw: list[int], weight: int) -> tuple[int, ...]:
    """Power-basis coordinates of the sum of raw[e] * zeta_order^e, for a
    list of exactly ``order`` coefficients whose absolute values sum to at
    most ``weight``."""
    slots = _context(order).slots(weight)
    return slots.reduce(slots.pack(raw))


def _power_map(order: int, coeffs, s: int) -> tuple[int, ...]:
    """Power-basis coordinates of the sum of coeffs[i] * zeta_order^(i*s):
    the image of an element under zeta -> zeta_order^s."""
    raw = [0] * order
    for i, c in enumerate(coeffs):
        if c:
            raw[i * s % order] += c
    return _canonicalize(order, raw, sum(map(abs, coeffs)))


# ---------------------------------------------------------------------------
# Elements.

class _Value:
    """Value semantics from a class's ``_fields``, as a dataclass has them.

    Two values are equal exactly when they are of one class and every field
    is equal; against any other class ``__eq__`` returns NotImplemented.
    The repr is ``Name(field=value, ...)``.  Defining ``__eq__`` without
    ``__hash__`` leaves a subclass unhashable unless it is ``_Frozen``.
    Each subclass reads its field tuple with one ``operator.attrgetter``,
    built when the class is created.  Written by hand, not as dataclasses,
    because importing ``dataclasses`` costs more than the whole package
    (see the README).
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" in vars(cls):
            cls._field_values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values(self) == self._field_values(other)

    def __repr__(self):
        fields = zip(self._fields, self._field_values(self))
        return f"{type(self).__name__}(" + ", ".join(f"{k}={v!r}" for k, v in fields) + ")"


class _Frozen(_Value):
    """An immutable ``_Value``: its fields cannot be assigned or deleted, it
    hashes as its field tuple, and copy and pickle rebuild it through its
    validating constructor.  Constructors set the fields through
    ``object.__setattr__`` or the slots' member descriptors."""

    __slots__ = ()

    def __setattr__(self, name, *value):
        action = "assign to" if value else "delete"
        raise AttributeError(f"cannot {action} field {name!r} of {type(self).__name__}")

    __delattr__ = __setattr__

    def __hash__(self):
        return hash(self._field_values(self))

    def __reduce__(self):
        return type(self), self._field_values(self)


class CyclotomicElement(_Frozen):
    """A cyclotomic integer: power-basis coordinates in Z[zeta_order]; an
    immutable value (``_Frozen``), equal to another of the same order and
    coordinates."""

    __slots__ = _fields = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[int, ...]):
        if type(coeffs) is not tuple:
            coeffs = tuple(coeffs)
        if len(coeffs) != _context(order).degree:
            raise ValueError(
                f"coefficient vector must have length phi({order}) = "
                f"{_context(order).degree}, got {len(coeffs)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_coeffs(cls, order: int, coeffs: Iterable[int]) -> "CyclotomicElement":
        """Canonical element from coefficients of any length (reduced here).

        At most phi coefficients are already canonical; longer input folds
        and reduces as the image of zeta -> zeta, whose weight bounds the
        folded one.  The order is checked before anything of its size is
        built.
        """
        deg = _context(order).degree
        coeffs = tuple(coeffs)
        if len(coeffs) <= deg:
            return cls(order, coeffs + (0,) * (deg - len(coeffs)))
        return cls(order, _power_map(order, coeffs, 1))

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
        # The product's absolute coefficients sum to at most sa * sb, and
        # no factor has a coefficient above max(sa, sb).
        sa, sb = sum(map(abs, a)), sum(map(abs, b))
        slots = _context(self.order).slots(max(sa * sb, sa, sb))
        return CyclotomicElement(self.order, slots.reduce(slots.pack(a) * slots.pack(b)))

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
    """Canonical form of zeta_order^k (k is reduced mod the order): a basis
    vector for k < phi, else read from the residue of 2^(s*k)."""
    ctx = _context(order)
    k %= order
    if k < ctx.degree:
        return CyclotomicElement(order, (0,) * k + (1,) + (0,) * (ctx.degree - k - 1))
    slots = ctx.slots(1)
    return CyclotomicElement(order, slots.reduce(1 << 8 * slots.width * k))


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
    return CyclotomicElement(order, _canonicalize(order, counts, sum(counts)))
