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
it is not -1, a nonzero image of the value sum proves the profile is not
flat (see ``flat_screen``), and an image moved by sigma_k proves the
element is not fixed by sigma_k.  Each such "no" is exact and built from
exponent lists alone.  Only the survivors go on to the canonical
reduction, so every "yes" is still decided by canonical equality in
Z[zeta_L].

An exhaustive verification takes these images for a whole cell at once.
Each image is a sum with one term per position x (S_a(omega) and
S_a(omega^-1), tau(omega) - sigma_k(tau)(omega), and the value sum
S_0(omega)), so over the n^k tables of a cell it is a sumset.  A cell
screen splits the positions into a head and a tail, builds the tail's sums
once as a block of at most _TAIL_TABLES values (or n, when the last
position alone has more digits), and emits each head's verdicts against
the block with one list comprehension: the verdicts come in the
enumerator's own lexicographic order, at amortized O(1) work per table and
in memory bounded by the block.  A screen only makes a proven rejection:
the magnitude screen repeats its per-function filter's, the subfield
screen's holds because its sigma_k fixes Q(zeta_n), and the flat screen's
follows from the value-sum identity in ``flat_screen``.  A table the
magnitude or flat screen passes goes on to the per-function filter and then
to the canonical test.  The subfield screen takes k = 1 (mod n) to be a
primitive root mod p, so that sigma_k generates the group fixing Q(zeta_n)
(see ``subfield_screen``): its survivors are the members of Q(zeta_n),
apart from false passes mod ell, and go straight to the canonical test.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator
from math import lcm

from .cyclo import CyclotomicElement, _check_order, _Frozen, factorize, sum_of_zeta_powers
from .modp import UnitFunction, find_primitive_root, is_prime


class SpectralValue(_Frozen):
    """An exact Gauss-type sum tagged with the (p, n) it came from; an
    immutable value (``cyclo._Frozen``), equal to another exactly when all
    three fields are."""

    __slots__ = _fields = ("value", "p", "n")

    def __init__(self, value: CyclotomicElement, p: int, n: int):
        if value.order != lcm(n, p):
            raise ValueError("spectral values must live in order lcm(n, p)")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)


def gauss_sum(f: UnitFunction) -> SpectralValue:
    """The sum of f(x) e(x/p) over the units mod p, in Z[zeta_lcm(n,p)]."""
    return twisted_gauss_sum(f, 1)


def twisted_gauss_sum(f: UnitFunction, a: int) -> SpectralValue:
    """The sum of f(x) e(a*x/p) over units; the twist a must be a unit."""
    a %= f.p
    if a == 0:
        raise ValueError("the twist must be a unit modulo p")
    big, terms = _twisted_terms(f.p, f.n, f.exps, a)
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


def _images(powers: list, exponents, k: int = 1) -> list:
    """The image omega^(k*e) in F_ell of zeta_L^(k*e), one per exponent e,
    where ``powers`` is the list of ``_split_prime(L)``.  Every split-prime
    filter and every cell screen maps its exponents through this rule."""
    order = len(powers)
    return [powers[k * e % order] for e in exponents]


def _twisted_terms(p: int, n: int, exps, a: int) -> "tuple[int, list]":
    """L = lcm(n, p) and the exponents e with S = sum of zeta_L^e, where S is
    the sum of f(x) e(a*x/p) over units for the table ``exps`` of f and a is
    reduced mod p."""
    big = lcm(n, p)
    u, v = big // n, big // p
    return big, [u * exps[x - 1] + v * (a * x % p) for x in range(1, p)]


def fourier_sum(f: UnitFunction, xi: int) -> SpectralValue:
    """The unnormalized Fourier coefficient S_xi = sum_x f(x) e(-x*xi/p).

    S_xi equals sqrt(p) * fhat(xi); at xi = 0 it degenerates to the plain
    value sum of f (the x = 0 term is absent since f(0) = 0).
    """
    big, terms = _twisted_terms(f.p, f.n, f.exps, -xi % f.p)
    return SpectralValue(sum_of_zeta_powers(big, terms), f.p, f.n)


def fourier_norm(f: UnitFunction, xi: int) -> CyclotomicElement:
    """norm_squared(S_xi) = S_xi * conj(S_xi), exactly, for any xi in F_p.

    One reduction of the pairwise differences of the exponents of S_xi (see
    the module docstring), with no ring product; S_(-1) is tau(f).
    """
    big, terms = _twisted_terms(f.p, f.n, f.exps, -xi % f.p)
    return sum_of_zeta_powers(big, (s - t for s in terms for t in terms))


def _magnitude_image_is_p(f: UnitFunction, a: int) -> bool:
    """Whether S_a(omega) * S_a(omega^-1) = p in the split prime field."""
    big, terms = _twisted_terms(f.p, f.n, f.exps, -a % f.p)
    ell, pw = _split_prime(big)
    return sum(_images(pw, terms)) * sum(_images(pw, terms, -1)) % ell == f.p


def has_unit_fourier_magnitude(f: UnitFunction, a: int) -> bool:
    """Exact test |fhat(a)| = 1, i.e. norm_squared(S_a) = p; a must be a unit.

    Rejected when S_a(omega) * S_a(omega^-1) != p in the split prime field
    (see the module docstring); a survivor is decided canonically.
    """
    if a % f.p == 0:
        raise ValueError("the unit-magnitude test is defined on units only")
    if not _magnitude_image_is_p(f, a):
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
    shifts = range(1, f.p)
    ell, pw = _split_prime(f.n)
    for h in shifts:
        if sum(_images(pw, _autocorrelation_terms(f, h))) % ell != ell - 1:
            return False
    return all(autocorrelation(f, h).as_integer() == -1 for h in shifts)


# ---------------------------------------------------------------------------
# Cell screens: the split-prime verdicts of every table of a cell at once.

#: Tables a screen's tail block covers at most.  The block is built once per
#: cell and reused after every head, so a screen holds O(_TAIL_TABLES) sums
#: however large its cell is.  ``cor_1_3`` keeps p - 1 screens open at once,
#: so the block is kept small; the per-head work it amortizes is a few
#: additions per head position.
_TAIL_TABLES = 256


def _tail_start(sizes: list) -> int:
    """The first tail position j >= 1 for positions with ``sizes`` digits
    each: the tail j.. is the longest run of last positions, at least one,
    whose digit combinations number at most _TAIL_TABLES (more only when the
    last position alone has more digits), and the head keeps position 0."""
    j, tables = len(sizes) - 1, sizes[-1]
    while j > 1 and tables * sizes[j - 1] <= _TAIL_TABLES:
        j -= 1
        tables *= sizes[j]
    return j


def _lex_sums(rows: list, ell: int) -> Iterator[int]:
    """Every sum of one entry per row, mod ell, lazily, in lexicographic
    order of the choices: the last row varies fastest, as in
    ``itertools.product``."""
    return (sum(choice) % ell for choice in itertools.product(*rows))


def _position_rows(p: int, n: int, a: int, fix_f1: bool, image) -> list:
    """For each position x = 1, ..., p - 1, the row of the contributions of
    digits 0, ..., n - 1 at x to a sum over x of a term of f(x) e(a*x/p).
    The exponent of digit d at x is the one the constant table d has there
    (``_twisted_terms``), and ``image`` maps the exponents of one digit to
    their contributions.  With ``fix_f1`` the row of x = 1 keeps digit 0
    alone."""
    columns = [image(_twisted_terms(p, n, (d,) * (p - 1), a)[1]) for d in range(n)]
    rows = [list(row) for row in zip(*columns)]
    if fix_f1:
        rows[0] = rows[0][:1]
    return rows


def magnitude_screen(p: int, n: int, a: int, fix_f1: bool = True) -> Iterator[bool]:
    """``_magnitude_image_is_p(f, a)`` for every table f of the cell, in the
    order ``enumerate_unit_functions(p, n, fix_f1)`` yields them; the cell
    must already be validated, and a must be a unit.

    S_a(omega) and S_a(omega^-1) are sums of one contribution per position,
    so over the cell each is a sumset, built head times tail block.
    """
    if a % p == 0:
        raise ValueError("the unit-magnitude test is defined on units only")
    ell, pw = _split_prime(lcm(n, p))
    fwd = _position_rows(p, n, -a % p, fix_f1, lambda e: _images(pw, e))
    bwd = _position_rows(p, n, -a % p, fix_f1, lambda e: _images(pw, e, -1))
    j = _tail_start([len(row) for row in fwd])
    block = list(zip(_lex_sums(fwd[j:], ell), _lex_sums(bwd[j:], ell)))
    heads = zip(_lex_sums(fwd[:j], ell), _lex_sums(bwd[:j], ell))
    return itertools.chain.from_iterable(
        [(hs + s) * (ht + t) % ell == p for s, t in block] for hs, ht in heads)


def _zero_sum_screen(rows: list, ell: int) -> Iterator[bool]:
    """Whether the sum of one entry per row is 0 mod ell, for every choice
    in lexicographic order (as ``_lex_sums``), built head times tail block."""
    j = _tail_start([len(row) for row in rows])
    block = list(_lex_sums(rows[j:], ell))
    targets = (-h % ell for h in _lex_sums(rows[:j], ell))
    return itertools.chain.from_iterable([s == t for s in block] for t in targets)


def subfield_screen(p: int, n: int) -> Iterator[bool]:
    """Whether tau(f) and sigma_k(tau(f)) have equal images in the split
    prime field, for every table f of the cell with f(1) free, in
    enumeration order; a table it passes is still decided canonically by
    ``CyclotomicElement.in_subfield``.

    k = 1 (mod n), so sigma_k fixes Q(zeta_n) and every table with tau(f)
    in Q(zeta_n) passes.  When p does not divide n, k is also the primitive
    root g mod p: the sigma_k with k = 1 (mod n) form a group isomorphic to
    the units mod p, which is cyclic, so sigma_g generates it, and tau(f) is
    fixed by sigma_g exactly when it lies in Q(zeta_n) (Washington,
    *Introduction to Cyclotomic Fields*, ch. 2).  When p divides n, Q(zeta_L)
    is Q(zeta_n) and k = 1 passes every table.
    """
    big = lcm(n, p)
    ell, pw = _split_prime(big)
    g = find_primitive_root(p)
    k = next((k for k in range(1, big, n) if k % p == g), 1)
    rows = _position_rows(p, n, 1, False, lambda e: [
        s - t for s, t in zip(_images(pw, e), _images(pw, e, k))])
    return _zero_sum_screen(rows, ell)


def flat_screen(p: int, n: int) -> Iterator[bool]:
    """Whether the value sum S_0 = sum of f(x) has image 0 in the split
    prime field, for every table f of the cell with f(1) = 1, in
    enumeration order; a table it passes is still checked at every shift by
    ``kurlberg_test``.

    Proof that a flat f passes: with f(0) = 0, S_0 * conj(S_0) is the sum of
    autocorrelation(f, h) over all h, (p - 1) - (p - 1) = 0 for a flat
    profile, so S_0 = 0 in the domain Z[zeta_n].
    """
    ell, pw = _split_prime(n)
    return _zero_sum_screen([pw[:1]] + [pw] * (p - 2), ell)
