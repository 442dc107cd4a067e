"""Gauss sums, finite Fourier magnitudes and autocorrelations, all exact.

Sums mixing n-th and p-th roots of unity live in Z[zeta_L] with
L = lcm(n, p), the smallest order housing both.  The 1/sqrt(p) Fourier
normalization is never materialized: with S_xi the unnormalized coefficient,
|fhat(xi)| = 1 is decided as the integer identity norm_squared(S_xi) = p,
and |tau(f)| = sqrt(p) as norm_squared(tau(f)) = p.

No Fourier-sum norm is taken by multiplying in the ring.  A sum S of roots
zeta_L^s has S * conj(S) equal to the sum of zeta_L^(s - t) over all ordered
pairs of its exponents, so ``fourier_norm`` is one canonical reduction of
the pairwise-difference multiset.

When p does not divide n, one magnitude test decides the whole Fourier
witness.  By the Chinese remainder theorem there is a k with k = 1 (mod n)
and k = -a (mod p); the automorphism sigma_k: zeta_L -> zeta_L^k then fixes
every value of f and maps tau(f) = S_{-1} to S_a (Berndt-Evans-Williams,
*Gauss and Jacobi Sums*; Ireland-Rosen ch. 8).  Since sigma_k commutes with
complex conjugation and fixes the integer p, norm_squared(S_a) = p holds for
every unit a or for none.  When p divides n no such k need exist, and the
counterexample at p = 3, n = 6 has its only witness at a = 2.

Each decision first maps its sum into a prime field, and most answers are
"no".  For a prime ell = 1 (mod L) and an omega of exact order L in F_ell,
the rule zeta_L -> omega is a ring homomorphism Z[zeta_L] -> F_ell: ell
splits completely in Q(zeta_L) (Washington, *Introduction to Cyclotomic
Fields*, ch. 2), so omega is a root of Phi_L mod ell.  Equal ring elements
have equal images, so S(omega) * S(omega^-1) != p (mod ell) proves
norm_squared(S) != p, an image of the autocorrelation other than -1 proves
it is not -1, and an image moved by sigma_k proves the element is not
fixed by sigma_k.  Each such "no" is exact and built from exponent lists
alone.  Only the survivors go on to the canonical reduction, so every "yes"
is still decided by canonical equality in Z[zeta_L].
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd, lcm

from .cyclo import CyclotomicElement, _check_order, factorize, sum_of_zeta_powers
from .modp import UnitFunction, is_prime


class InconsistencyError(RuntimeError):
    """An exact internal identity failed; indicates a bug, not bad input."""


@dataclass(frozen=True)
class SpectralValue:
    """An exact Gauss-type sum tagged with the (p, n) it came from."""

    value: CyclotomicElement
    p: int
    n: int

    def __post_init__(self):
        if self.value.order != lcm(self.n, self.p):
            raise ValueError("spectral values must live in order lcm(n, p)")


def gauss_sum(f: UnitFunction) -> SpectralValue:
    """The sum of f(x) e(x/p) over the units mod p, in Z[zeta_lcm(n,p)]."""
    return twisted_gauss_sum(f, 1)


def twisted_gauss_sum(f: UnitFunction, a: int) -> SpectralValue:
    """The sum of f(x) e(a*x/p) over units; the twist a must be a unit."""
    a %= f.p
    if a == 0:
        raise ValueError("the twist must be a unit modulo p")
    big, terms = _twisted_terms(f, a)
    return SpectralValue(sum_of_zeta_powers(big, terms), f.p, f.n)


@functools.lru_cache(maxsize=None)
def _split_prime(order: int) -> "tuple[int, list]":
    """The prime ell = k*order + 1 first above 2^61, and the list of the
    powers omega^0, ..., omega^(order - 1) of omega = g^((ell - 1)/order),
    for the smallest g >= 2 that gives omega exact order ``order``.  The
    order is checked against MAX_ORDER before the list is built."""
    _check_order(order)
    ell = -(-(1 << 61) // order) * order + 1
    while not is_prime(ell):
        ell += order
    cofactor = (ell - 1) // order
    primes = [q for q, _ in factorize(order)]
    g = 2
    while True:
        omega = pow(g, cofactor, ell)
        if all(pow(omega, order // q, ell) != 1 for q in primes):
            break
        g += 1
    powers = [1] * order
    for i in range(1, order):
        powers[i] = powers[i - 1] * omega % ell
    return ell, powers


def _twisted_terms(f: UnitFunction, a: int) -> "tuple[int, list]":
    """L = lcm(n, p) and the exponents e with S = sum of zeta_L^e, where S is
    the sum of f(x) e(a*x/p) over units and a is reduced mod p."""
    p, n = f.p, f.n
    big = lcm(n, p)
    u, v = big // n, big // p
    exps = f.exps
    return big, [u * exps[x - 1] + v * (a * x % p) for x in range(1, p)]


def fourier_sum(f: UnitFunction, xi: int) -> SpectralValue:
    """The unnormalized Fourier coefficient S_xi = sum_x f(x) e(-x*xi/p).

    S_xi equals sqrt(p) * fhat(xi); at xi = 0 it degenerates to the plain
    value sum of f (the x = 0 term is absent since f(0) = 0).
    """
    big, terms = _twisted_terms(f, -xi % f.p)
    return SpectralValue(sum_of_zeta_powers(big, terms), f.p, f.n)


def fourier_norm(f: UnitFunction, xi: int) -> CyclotomicElement:
    """norm_squared(S_xi) = S_xi * conj(S_xi), exactly, for any xi in F_p.

    One reduction of the pairwise differences of the exponents of S_xi (see
    the module docstring), with no ring product; S_(-1) is tau(f).
    """
    big, terms = _twisted_terms(f, -xi % f.p)
    return sum_of_zeta_powers(big, (s - t for s in terms for t in terms))


def has_unit_fourier_magnitude(f: UnitFunction, a: int) -> bool:
    """Exact test |fhat(a)| = 1, i.e. norm_squared(S_a) = p; a must be a unit.

    Rejected when S_a(omega) * S_a(omega^-1) != p in the split prime field
    (see the module docstring); a survivor is decided canonically.
    """
    if a % f.p == 0:
        raise ValueError("the unit-magnitude test is defined on units only")
    big, terms = _twisted_terms(f, -a % f.p)
    ell, pw = _split_prime(big)
    if sum(pw[e % big] for e in terms) * sum(pw[-e % big] for e in terms) % ell != f.p:
        return False
    return fourier_norm(f, a).as_integer() == f.p


def spectral_witness(f: UnitFunction) -> "int | None":
    """Smallest unit a with |fhat(a)| = 1, or None; deterministic.

    When p does not divide n the witness set is empty or all of the units
    (see the module docstring), so the single test at a = 1 decides it.
    """
    if f.n % f.p:
        return 1 if has_unit_fourier_magnitude(f, 1) else None
    for a in range(1, f.p):
        if has_unit_fourier_magnitude(f, a):
            return a
    return None


def autocorrelation(f: UnitFunction, h: int) -> CyclotomicElement:
    """The sum of f(x) conj(f(x+h)) over x in F_p, as an element of Z[zeta_n].

    Terms where x = 0 or x + h = 0 vanish because f(0) = 0; at h = 0 the sum
    is the integer p - 1.
    """
    return sum_of_zeta_powers(f.n, _autocorrelation_terms(f, h))


def _autocorrelation_terms(f: UnitFunction, h: int) -> list:
    """The exponents e with autocorrelation(f, h) = sum of zeta_n^e."""
    p, exps = f.p, f.exps
    h %= p
    terms = []
    for x in range(1, p):
        y = (x + h) % p
        if y:
            terms.append(exps[x - 1] - exps[y - 1])
    return terms


def kurlberg_test(f: UnitFunction) -> bool:
    """Autocorrelation characterization of characters.

    True iff f(1) = 1 and the autocorrelation equals exactly -1 at every
    nonzero shift (it is automatically p - 1 at shift 0).  Rejected at the
    first shift whose image in the split prime field is not -1; only a
    survivor of every shift is decided canonically.
    """
    if f.exps[0] != 0:
        return False
    n, shifts = f.n, range(1, f.p)
    ell, pw = _split_prime(n)
    for h in shifts:
        if sum(pw[e % n] for e in _autocorrelation_terms(f, h)) % ell != ell - 1:
            return False
    return all(autocorrelation(f, h).as_integer() == -1 for h in shifts)


def gauss_sum_in_subfield(f: UnitFunction, d: int) -> bool:
    """Whether tau(f) lies in Q(zeta_d), for d dividing L = lcm(n, p).

    Rejected when some sigma_k fixing Q(zeta_d) (k = 1 mod d, gcd(k, L) = 1)
    moves the image of tau(f) in the split prime field; only a survivor is
    built canonically and tested with ``CyclotomicElement.in_subfield``.
    """
    big, terms = _twisted_terms(f, 1)
    if d < 1 or big % d:
        raise ValueError(f"subfield order {d} does not divide the order {big}")
    ell, pw = _split_prime(big)
    image = sum(pw[e % big] for e in terms) % ell
    for k in range(1 + d, big, d):
        if gcd(k, big) == 1 and sum(pw[k * e % big] for e in terms) % ell != image:
            return False
    return sum_of_zeta_powers(big, terms).in_subfield(d)


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
