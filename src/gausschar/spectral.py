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

Two Fourier identities put a linear condition, a value sum
S_0 = sum of f(x) equal to 0, in front of the bilinear magnitude test.
Parseval gives the sum of norm_squared(S_xi) over all xi in F_p as
p(p - 1).  When p does not divide n and norm_squared(S_a) = p at one
unit, it holds at all p - 1 of them, so norm_squared(S_0) = 0 and
S_0 = 0 in the domain Z[zeta_n].  For any n, norm_squared(S_xi) is the
sum of autocorrelation(f, h) e(h*xi/p) over h (Wiener-Khinchin), so a
flat profile, p - 1 at h = 0 and -1 elsewhere, gives norm_squared(S_xi) =
p at every xi != 0 and 0 at xi = 0, hence S_0 = 0 again.  Neither
argument assumes that f is a character.

Each decision first maps its sum into a prime field, and most answers are
"no".  For a prime ell = 1 (mod L) and an omega of exact order L in F_ell
(``_split_prime`` takes the first such ell above 2^29, below 2^30 at every
admitted order; a candidate with 2^(ell - 1) != 1 (mod ell) is composite
by Fermat's little theorem and is skipped before the trial division that
proves the survivor prime), the rule zeta_L -> omega is a ring homomorphism
Z[zeta_L] -> F_ell: ell splits completely in Q(zeta_L) (Washington,
*Introduction to Cyclotomic Fields*, ch. 2), so omega is a root of Phi_L
mod ell.  Equal ring elements have equal images, so
S(omega) * S(omega^-1) != p (mod ell) proves norm_squared(S) != p, a
nonzero image of the value sum proves S_0 != 0, and an image moved by
sigma_k proves the element is not fixed by sigma_k.  Each such "no" is
exact and built from exponent lists alone.  Only the survivors go on to the canonical reduction, so every "yes"
is still decided by canonical equality in Z[zeta_L]; a false pass, about
one in 2^29 tables, costs one canonical test.

An exhaustive verification takes these images for a whole cell at once.
Each image is a sum with one term per position x (S_a(omega) and
S_a(omega^-1), tau(omega) - sigma_k(tau)(omega), and the value sum
S_0(omega)), so over the tables of a cell it is a sumset.  The three cell
screens run one engine, ``_sumset_screen``, over the n^(p-2) tables with
f(1) = 1.  It passes the tables whose key sum is 0 and, when it is given
S_1(omega) and S_1(omega^-1) too, whose magnitude image is p, and returns
their sorted indices (``modp.table_index``).  It splits the positions in
the middle, as in the meet-in-the-middle of Horowitz and Sahni: the tail's
sums, listed once as a block, reach the number of heads unless that would
take more than _TAIL_TABLES values (or n, when the last position alone has
more digits).  It keys each tail offset in a dict by its key sum and walks
the heads block by block, one addition and one remainder per head, each
looking up its one bucket at -h: O(heads + block + bucket entries) work
per cell, in memory bounded by one block per level and the survivors.  The
magnitude screen passes an all-zero key, so its one bucket holds the whole
block; the subfield screen passes its sigma_k difference as the key, with
no magnitude test; the bucket screen passes the value sum as the key, so
each head runs the magnitude test on the few tail offsets that complete a
zero value sum.  An L above MAX_ORDER (within the default budget, only
p = 3 reaches one) has no split prime; there the bucket screen passes the
value sum alone, in the split prime field of n, so a ``thm_1_7`` cell is
still decided whole, while a Gauss statement's judge refuses the order at
the first table it judges.

Every screen is a call on (p, n) that returns the sorted indices of the
tables with f(1) = 1 it passes.  A statement that leaves f(1) free has its
joined lists lifted to every constant times each table by the verification
loop, through ``modp.times_constants``, whose docstring proves that the
lift moves no verdict.  The change of variables x -> a*x maps the a = 1
survivors onto the survivors at a (see ``magnitude_screen``), so the
magnitude screen sums at a = 1 alone and passes the tables whose image
passes at some unit.  That relates different tables at one twist, never
one table at different twists, so the dichotomy ``cor_1_3`` verifies is
not assumed.

A screen only makes a proven rejection: a table the magnitude screen
rejects fails the per-function filter at every unit, the subfield screen's
rejection holds because its sigma_k fixes Q(zeta_n), and the bucket
screen's follows from the S_0 = 0 identities above and, for tau, from the
Galois relation between S_1 and tau when p does not divide n.  A table the
magnitude or the bucket screen passes goes on to the per-function filter at
the twist its statement tests, and then to the canonical test; under
``thm_1_7`` it goes straight to the canonical test of every shift
(``kurlberg_test``).  The subfield screen takes k = 1 (mod n) to be a
primitive root mod p, so that sigma_k generates the group fixing Q(zeta_n)
(see ``subfield_screen``): its survivors are the members of Q(zeta_n),
apart from false passes mod ell, and go straight to the canonical test.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterator
from math import lcm, prod

from .cyclo import (MAX_ORDER, CyclotomicElement, _check_order, _Frozen, factorize,
                    sum_of_zeta_powers)
from .modp import UnitFunction, find_primitive_root, is_prime, table_exps, table_index


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
    if a % f.p == 0:
        raise ValueError("the twist must be a unit modulo p")
    return fourier_sum(f, -a)


@functools.lru_cache(maxsize=None)
def _split_prime(order: int) -> "tuple[int, list]":
    """The prime ell = k*order + 1 first above 2^29, and the list of the
    powers omega^0, ..., omega^(order - 1) of omega = g^((ell - 1)/order),
    for the smallest g >= 2 that gives omega exact order ``order``.  The
    order is checked against MAX_ORDER before the list is built.

    Each candidate ell first takes one Fermat test: for an odd prime ell,
    2^(ell - 1) = 1 (mod ell), so a candidate with any other residue is
    composite (an even one, whose residue is even, is composite too) and
    is skipped exactly.  Only the candidates that pass reach ``is_prime``,
    whose trial division through ``factorize`` takes up to 11,600
    divisors, so the ell returned is still proven prime.

    For every order up to MAX_ORDER that prime lies below 2^30 (the largest
    is 537838289, at order 9607), so every image fits in one 30-bit CPython
    digit and a verdict's sums and products stay small integers.  The
    homomorphism needs only ell = 1 (mod order); the size of ell sets only
    how often a "no" is missed.  A table whose norm is not p passes a
    magnitude test when its image lands on p by accident, about once in
    2^29 tables, and such a false pass costs one canonical test.
    """
    _check_order(order)
    ell = -(-(1 << 29) // order) * order + 1
    while pow(2, ell - 1, ell) != 1 or not is_prime(ell):
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
    p, exps = f.p, f.exps
    return sum_of_zeta_powers(f.n, (exps[x - 1] - exps[(x + h) % p - 1]
                                    for x in range(1, p) if (x + h) % p))


def kurlberg_test(f: UnitFunction) -> bool:
    """Autocorrelation characterization of characters.

    True iff f(1) = 1 and the autocorrelation equals exactly -1 at every
    nonzero shift (it is automatically p - 1 at shift 0), decided by
    canonical equality shift by shift.  Only the shifts 1 <= h <= (p - 1)/2
    are computed: substituting y = x - h gives r(p - h) = conj(r(h)), and
    -1 is real, so r(p - h) = -1 exactly when r(h) = -1.  It has no
    prime-field filter of its own: in a verification, ``bucket_screen``
    rejects first.
    """
    return f.exps[0] == 0 and all(
        autocorrelation(f, h).as_integer() == -1 for h in range(1, f.p // 2 + 1))


# ---------------------------------------------------------------------------
# Cell screens: the tables of a cell that pass a split-prime test, at once.

#: Sums a listed block holds at most: the tail block, built once per cell
#: and reused after every head, and each inner block of the head walk, one
#: per level.  A block of one position lists that position's digits, however
#: many.  A screen thus holds O(_TAIL_TABLES) sums per level however large
#: its cell is, and each block amortizes the work of its positions over the
#: sums it lists.
_TAIL_TABLES = 256


def _tail_start(sizes: list) -> int:
    """The first tail position j for positions with ``sizes`` digits each,
    the split in the middle (Horowitz-Sahni): the tail j.. is the shortest
    run of last positions, at least one, whose digit combinations reach the
    head's, unless a longer run would pass _TAIL_TABLES; only a tail of one
    position lists more.  The head keeps position 0 when there are two or
    more positions."""
    j, tables = len(sizes) - 1, sizes[-1]
    while j > 1 and tables < prod(sizes[:j]) and tables * sizes[j - 1] <= _TAIL_TABLES:
        j -= 1
        tables *= sizes[j]
    return j


def _block(rows: list, ell: int) -> list:
    """Every sum of one entry per row, mod ell, listed in lexicographic
    order of the choices, built row by row: one addition per sum of each
    prefix."""
    sums = [0]
    for row in rows:
        sums = [s + r for s in sums for r in row]
    return [s % ell for s in sums]


def _lex_sums(rows: list, ell: int) -> Iterator[int]:
    """Every sum of one entry per row, mod ell, lazily, in lexicographic
    order of the choices: the last row varies fastest, as in
    ``itertools.product``.  The rows split at ``_tail_start`` into an outer
    walk, taken by this same rule, and an inner ``_block`` of the last
    positions; each outer sum h lists h plus the inner block, so every sum
    costs one addition and one remainder, and the walk holds one block per
    level."""
    if len(rows) < 2:
        return iter(_block(rows, ell))
    j = _tail_start([len(row) for row in rows])
    inner = _block(rows[j:], ell)
    return itertools.chain.from_iterable(
        [(h + s) % ell for s in inner] for h in _lex_sums(rows[:j], ell))


def _sumset_screen(row_sets: list, ell: int, p: "int | None" = None) -> list:
    """The sorted indices, in lexicographic order of the choices (as
    ``_lex_sums``), of the choices of one entry per position whose key
    sum, over the first row set, is 0 mod ell and, when two magnitude row
    sets follow, whose sums s and t over them have s * t = p (mod ell).
    Every row set has one row per position, all of the same lengths.

    The positions split in the middle, at ``_tail_start``, as in the
    meet-in-the-middle of Horowitz and Sahni.  Each row set's tail sums are
    listed once as a ``_block``; each tail offset is kept in a dict keyed
    by its key sum, with its two magnitude sums beside it (with key rows
    alone, the bare offset).  The heads are walked block by block
    (``_lex_sums``), and each looks up its bucket at -h alone and runs the
    magnitude test (h_s + s)(h_t + t) = p on it."""
    j = _tail_start([len(row) for row in row_sets[0]])
    blocks = [_block(rows[j:], ell) for rows in row_sets]
    heads = [_lex_sums(rows[:j], ell) for rows in row_sets]
    stride, buckets = len(blocks[0]), {}
    if len(row_sets) == 1:
        for offset, s in enumerate(blocks[0]):
            buckets.setdefault(s, []).append(offset)
        return [head * stride + offset for head, h in enumerate(heads[0])
                for offset in buckets.get(-h % ell, ())]
    for offset, (key, s, t) in enumerate(zip(*blocks)):
        buckets.setdefault(key, []).append((offset, s, t))
    return [head * stride + offset for head, (h0, hs, ht) in enumerate(zip(*heads))
            for offset, s, t in buckets.get(-h0 % ell, ()) if (hs + s) * (ht + t) % ell == p]


def _position_rows(p: int, n: int, a: int, image) -> list:
    """For each position x = 1, ..., p - 1, the row of the contributions of
    digits 0, ..., n - 1 at x to a sum over x of a term of f(x) e(a*x/p),
    for the tables with f(1) = 1: the row of x = 1 keeps digit 0 alone.
    The exponent of digit d at x is the one the constant table d has there
    (``_twisted_terms``), and ``image`` maps the exponents of one digit to
    their contributions."""
    columns = [image(_twisted_terms(p, n, (d,) * (p - 1), a)[1]) for d in range(n)]
    rows = [list(row) for row in zip(*columns)]
    rows[0] = rows[0][:1]
    return rows


def _magnitude_rows(p: int, n: int, pw: list) -> list:
    """The row sets of S_1(omega) and S_1(omega^-1) (``_position_rows``),
    for the powers ``pw`` of ``_split_prime(lcm(n, p))``."""
    return [_position_rows(p, n, p - 1, lambda e: _images(pw, e, k)) for k in (1, -1)]


def magnitude_screen(p: int, n: int) -> list:
    """The sorted indices of the tables f with f(1) = 1 of the cell, in
    ``enumerate_unit_functions(p, n)``, for which
    ``_magnitude_image_is_p(f, a)`` holds for some unit a; the cell must
    already be validated.

    It passes ``_sumset_screen`` an all-zero key and the rows of S_1(omega)
    and S_1(omega^-1), so every table meets the magnitude test at a = 1
    alone.  With m_c(x) = c*x, substituting y = a*x gives S_a(f) =
    S_1(f o m_(1/a)), an identity of ring elements that holds for the
    images too, so f passes at a exactly when f o m_(1/a) passes at 1.
    Scaling a table by a constant c in mu_n leaves S_a(omega) *
    S_a(omega^-1) unchanged, c(omega) * c(omega^-1) being 1.  The tables
    that pass at some unit are therefore the g o m_a, rescaled by
    conj(g(a)) to value 1 at 1, for the survivors g and every unit a.
    """
    ell, pw = _split_prime(lcm(n, p))
    fwd, bwd = _magnitude_rows(p, n, pw)
    zero = [[0] * len(row) for row in fwd]
    hits = set()
    for index in _sumset_screen([zero, fwd, bwd], ell, p):
        g = table_exps(index, p, n)
        for a in range(1, p):
            mapped = [g[a * x % p - 1] for x in range(1, p)]
            hits.add(tuple((e - mapped[0]) % n for e in mapped))
    return sorted(table_index(h, n) for h in hits)


def subfield_screen(p: int, n: int) -> list:
    """The sorted indices of the tables f with f(1) = 1 of the cell whose
    tau(f) and sigma_k(tau(f)) have equal images in the split prime field;
    a table it passes is still decided canonically by
    ``CyclotomicElement.in_subfield``.  Its rows of the differences are the
    key of ``_sumset_screen``, with no magnitude rows.

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
    rows = _position_rows(p, n, 1, lambda e: [
        s - t for s, t in zip(_images(pw, e), _images(pw, e, k))])
    return _sumset_screen([rows], ell)


def bucket_screen(p: int, n: int) -> list:
    """The sorted indices of the tables f with f(1) = 1 of the cell, in
    ``enumerate_unit_functions(p, n)``, whose value sum S_0 has
    image 0 and whose S_1 has S_1(omega) * S_1(omega^-1) = p in the split
    prime field of L = lcm(n, p); the cell must already be validated.

    Every table with S_0 = 0 and norm_squared(S_1) = p passes, and so does
    every table a Gauss statement with p not dividing n or a flatness
    statement accepts (the module docstring proves S_0 = 0 for both).  It
    passes ``_sumset_screen`` the value-sum rows as the key, one digit row
    omega^((L/n)*d) at every position, and the rows of S_1(omega) and
    S_1(omega^-1).

    When L exceeds MAX_ORDER no split prime of L is built, and the screen
    passes the value-sum rows alone, in the split prime field of n.
    """
    big = lcm(n, p)
    ell, pw = _split_prime(n if big > MAX_ORDER else big)
    digits = pw[::len(pw) // n]
    row_sets = [[digits[:1]] + [digits] * (p - 2)]
    if big <= MAX_ORDER:
        row_sets += _magnitude_rows(p, n, pw)
    return _sumset_screen(row_sets, ell, p)
