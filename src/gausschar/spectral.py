"""Gauss sums, finite Fourier magnitudes and autocorrelations, all exact.

Sums mixing n-th and p-th roots of unity live in Z[zeta_L] with
L = lcm(n, p), the smallest order housing both.  The 1/sqrt(p) Fourier
normalization is never materialized: with S_xi the unnormalized coefficient,
|fhat(xi)| = 1 is decided as the integer identity norm_squared(S_xi) = p,
and |tau(f)| = sqrt(p) as norm_squared(tau(f)) = p.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .cyclo import CyclotomicElement, sum_of_zeta_powers
from .modp import UnitFunction


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
    p, n = f.p, f.n
    a %= p
    if a == 0:
        raise ValueError("the twist must be a unit modulo p")
    big = lcm(n, p)
    u, v = big // n, big // p
    exps = f.exps
    terms = (u * exps[x - 1] + v * (a * x % p) for x in range(1, p))
    return SpectralValue(sum_of_zeta_powers(big, terms), p, n)


def fourier_sum(f: UnitFunction, xi: int) -> SpectralValue:
    """The unnormalized Fourier coefficient S_xi = sum_x f(x) e(-x*xi/p).

    S_xi equals sqrt(p) * fhat(xi); at xi = 0 it degenerates to the plain
    value sum of f (the x = 0 term is absent since f(0) = 0).
    """
    p, n = f.p, f.n
    xi %= p
    if xi == 0:
        big = lcm(n, p)
        u = big // n
        return SpectralValue(sum_of_zeta_powers(big, (u * e for e in f.exps)), p, n)
    return twisted_gauss_sum(f, p - xi)


def has_unit_fourier_magnitude(f: UnitFunction, a: int) -> bool:
    """Exact test |fhat(a)| = 1, i.e. norm_squared(S_a) = p; a must be a unit."""
    if a % f.p == 0:
        raise ValueError("the unit-magnitude test is defined on units only")
    s = fourier_sum(f, a).value
    return s.norm_squared().as_integer() == f.p


def spectral_witness(f: UnitFunction) -> "int | None":
    """Smallest unit a with |fhat(a)| = 1, or None; deterministic."""
    for a in range(1, f.p):
        if has_unit_fourier_magnitude(f, a):
            return a
    return None


def autocorrelation(f: UnitFunction, h: int) -> CyclotomicElement:
    """The sum of f(x) conj(f(x+h)) over x in F_p, as an element of Z[zeta_n].

    Terms where x = 0 or x + h = 0 vanish because f(0) = 0; at h = 0 the sum
    is the integer p - 1.
    """
    p, n, exps = f.p, f.n, f.exps
    h %= p
    terms = []
    for x in range(1, p):
        y = (x + h) % p
        if y:
            terms.append(exps[x - 1] - exps[y - 1])
    return sum_of_zeta_powers(n, terms)


def kurlberg_test(f: UnitFunction) -> bool:
    """Autocorrelation characterization of characters.

    True iff f(1) = 1 and the autocorrelation equals exactly -1 at every
    nonzero shift (it is automatically p - 1 at shift 0).
    """
    if f.exps[0] != 0:
        return False
    for h in range(1, f.p):
        if autocorrelation(f, h).as_integer() != -1:
            return False
    return True


def parseval_sum(f: UnitFunction) -> int:
    """Sum of norm_squared(S_xi) over all xi in F_p, as an exact integer.

    Always equals p*(p-1); a non-rational total means the arithmetic core is
    broken and raises InconsistencyError.
    """
    total = CyclotomicElement.zero(lcm(f.n, f.p))
    for xi in range(f.p):
        total = total + fourier_sum(f, xi).value.norm_squared()
    value = total.as_integer()
    if value is None:
        raise InconsistencyError("Parseval sum is not a rational integer")
    return value
