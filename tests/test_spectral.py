import cmath
import itertools
import random
from math import gcd, lcm, prod

import pytest

from gausschar import spectral
from gausschar.cyclo import (
    CyclotomicElement,
    cyclotomic_polynomial,
    euler_phi,
    factorize,
    zeta_pow,
)
from gausschar.modp import (
    UnitFunction,
    enumerate_unit_functions,
    find_primitive_root,
    homomorphism_candidates,
    is_character_oracle,
    is_prime,
    legendre_unit_function,
    table_exps,
    table_index,
    times_constants,
)
from gausschar.spectral import (
    SpectralValue,
    _split_prime,
    autocorrelation,
    fourier_norm,
    fourier_sum,
    gauss_sum,
    has_unit_fourier_magnitude,
    kurlberg_test,
    spectral_witness,
    twisted_gauss_sum,
)
from gausschar.verify import GRID_CELLS, GRID_CELLS_FREE, default_grid
from reference import (
    enumerate_characters,
    flat_screen,
    in_subfield_every_k,
    kurlberg_all_shifts,
    mod_inverse,
    parseval_sum,
    sympy_remainder,
)

TOL = 1e-9


# --- independent numeric route: straight complex arithmetic from the
# --- definitions, never touching the cyclotomic machinery ------------------

def unit(k: int, n: int) -> complex:
    return cmath.exp(2j * cmath.pi * k / n)


def numeric(z: CyclotomicElement) -> complex:
    return sum(c * unit(k, z.order) for k, c in enumerate(z.coeffs))


def numeric_gauss(f: UnitFunction, a: int = 1) -> complex:
    return sum(unit(f.exps[x - 1], f.n) * unit(a * x, f.p) for x in range(1, f.p))


def numeric_fourier(f: UnitFunction, xi: int) -> complex:
    return sum(unit(f.exps[x - 1], f.n) * unit(-x * xi, f.p) for x in range(1, f.p))


def numeric_autocorr(f: UnitFunction, h: int) -> complex:
    total = 0
    for x in range(1, f.p):
        if (x + h) % f.p:
            total += unit(f.exps[x - 1], f.n) * unit(f.exps[(x + h) % f.p - 1], f.n).conjugate()
    return total


def random_functions(rng, cells, per_cell):
    for p, n in cells:
        for _ in range(per_cell):
            yield UnitFunction(p, n, tuple(rng.randrange(n) for _ in range(p - 1)))


SAMPLE_CELLS = [(3, 2), (3, 6), (5, 2), (5, 4), (7, 3), (7, 6), (11, 2), (13, 4)]


def test_gauss_sum_matches_numeric_route():
    rng = random.Random(101)
    for f in random_functions(rng, SAMPLE_CELLS, 8):
        exact = gauss_sum(f)
        assert exact.value.order == lcm(f.n, f.p)
        assert abs(numeric(exact.value) - numeric_gauss(f)) < TOL
        nsq = exact.value.norm_squared()
        assert abs(numeric(nsq) - abs(numeric_gauss(f)) ** 2) < TOL


def test_fourier_sum_matches_numeric_route():
    rng = random.Random(103)
    for f in random_functions(rng, SAMPLE_CELLS, 4):
        for xi in range(f.p):
            exact = fourier_sum(f, xi).value
            assert abs(numeric(exact) - numeric_fourier(f, xi)) < TOL


def test_autocorrelation_matches_numeric_route():
    rng = random.Random(107)
    for f in random_functions(rng, SAMPLE_CELLS, 4):
        for h in range(f.p):
            exact = autocorrelation(f, h)
            assert exact.order == f.n
            assert abs(numeric(exact) - numeric_autocorr(f, h)) < TOL


def test_gauss_sum_of_trivial_character_is_minus_one():
    for p in (3, 5, 7, 11, 13):
        f = UnitFunction(p, 1, (0,) * (p - 1))
        assert gauss_sum(f).value.as_integer() == -1
        trivial_mu2 = UnitFunction(p, 2, (0,) * (p - 1))
        assert gauss_sum(trivial_mu2).value.as_integer() == -1


def test_gauss_sum_of_constant_minus_one_is_one():
    for p in (3, 5, 7, 11):
        f = UnitFunction(p, 2, (1,) * (p - 1))
        assert gauss_sum(f).value.as_integer() == 1


def test_remark_function_has_norm_three():
    f = UnitFunction(3, 6, (0, 5))
    tau = gauss_sum(f).value
    assert tau.norm_squared().as_integer() == 3
    # and its Fourier coefficient at -1 is tau itself
    assert fourier_sum(f, 3 - 1).value == tau
    assert spectral_witness(f) == 2
    assert has_unit_fourier_magnitude(f, 2)
    assert not has_unit_fourier_magnitude(f, 1)


def test_gauss_norm_is_p_for_nontrivial_characters():
    # classical direction, exact: first at full value order p - 1 ...
    for p in (3, 5, 7, 11, 13, 17, 19):
        for chi in enumerate_characters(p, p - 1):
            if chi.is_trivial:
                continue
            tau = gauss_sum(chi.unit_function()).value
            assert tau.norm_squared().as_integer() == p
    # ... then at each character's own order, up to p = 31
    for p in (23, 29, 31):
        for chi in enumerate_characters(p, p - 1):
            if chi.is_trivial:
                continue
            tau = gauss_sum(chi.unit_function(chi.order)).value
            assert tau.norm_squared().as_integer() == p


def test_twisted_gauss_sum_at_one_is_gauss_sum():
    rng = random.Random(109)
    for f in random_functions(rng, SAMPLE_CELLS, 3):
        assert twisted_gauss_sum(f, 1) == gauss_sum(f)


def test_twisted_gauss_sum_rejects_zero():
    f = legendre_unit_function(5)
    with pytest.raises(ValueError):
        twisted_gauss_sum(f, 0)
    with pytest.raises(ValueError):
        twisted_gauss_sum(f, 10)
    with pytest.raises(ValueError):
        has_unit_fourier_magnitude(f, 0)


def test_twist_covariance_for_characters():
    # tau_a(chi) = conj(chi(a)) * tau(chi), checked elementwise for every
    # nontrivial character and every twist.
    for p in (3, 5, 7, 11, 13):
        n = p - 1
        big = lcm(n, p)
        for chi in enumerate_characters(p, n):
            if chi.is_trivial:
                continue
            f = chi.unit_function()
            tau = gauss_sum(f).value
            for a in range(1, p):
                expected = zeta_pow(big, -(big // n) * f.exps[a - 1]) * tau
                assert twisted_gauss_sum(f, a).value == expected


def test_twist_change_of_variables():
    # tau_a(f) equals the sum of f(inverse(a) * m) e(m/p): the substitution
    # behind the Fourier-witness route, checked on arbitrary functions.
    rng = random.Random(113)
    for f in random_functions(rng, [(5, 4), (7, 3), (7, 6)], 5):
        p = f.p
        for a in range(1, p):
            a_inv = mod_inverse(a, p)
            substituted = UnitFunction(
                f.p, f.n, tuple(f.exps[a_inv * m % p - 1] for m in range(1, p)))
            assert twisted_gauss_sum(f, a) == gauss_sum(substituted)


def test_fourier_sum_examples():
    leg3 = legendre_unit_function(3)
    s1 = fourier_sum(leg3, 1).value
    assert s1.norm_squared().as_integer() == 3
    assert has_unit_fourier_magnitude(leg3, 1)
    trivial7 = UnitFunction(7, 2, (0,) * 6)
    for xi in range(1, 7):
        s = fourier_sum(trivial7, xi).value
        assert s.as_integer() == -1
        assert s.norm_squared().as_integer() == 1
        assert not has_unit_fourier_magnitude(trivial7, xi)
    f = UnitFunction(5, 4, (0, 1, 2, 3))
    zero_sum = fourier_sum(f, 0).value
    total = CyclotomicElement.from_int(lcm(4, 5), 0)
    for x in range(1, 5):
        total = total + zeta_pow(20, 5 * f.exps[x - 1])
    assert zero_sum == total


def test_spectral_character_test_examples():
    assert spectral_witness(legendre_unit_function(7)) is not None
    assert spectral_witness(legendre_unit_function(7)) == 1
    assert spectral_witness(UnitFunction(7, 2, (0,) * 6)) is None
    f = UnitFunction(5, 2, (0, 0, 0, 1))
    # numeric confirmation that no coefficient has |S_a|^2 = 5
    for a in range(1, 5):
        assert abs(abs(numeric_fourier(f, a)) ** 2 - 5) > 0.5
    assert spectral_witness(f) is None


def test_magnitude_fast_paths_match_ring_norm_on_grid():
    # The difference-multiset norm against the ring product z * conj(z) for
    # every xi (as elements, xi = 0 included) and the magnitude test for every
    # unit a, and the single-test witness against the smallest such a, on
    # every default-grid cell plus the p | n cell (3, 6), where the witness
    # must still come from the loop over a.
    for p, n in GRID_CELLS + ((3, 6),):
        free = (p, n) in GRID_CELLS_FREE
        for f in enumerate_unit_functions(p, n, fix_f1=not free):
            norms = [fourier_sum(f, xi).value.norm_squared() for xi in range(p)]
            for xi in range(p):
                assert fourier_norm(f, xi) == norms[xi], (f, xi)
            hits = [a for a in range(1, p) if norms[a].as_integer() == p]
            for a in range(1, p):
                assert has_unit_fourier_magnitude(f, a) == (a in hits), (f, a)
            if f.exps[0] == 0:
                assert spectral_witness(f) == (hits[0] if hits else None), f


def test_split_prime_map_is_a_ring_homomorphism():
    # zeta_L -> omega respects reduction mod Phi_L exactly when omega is a
    # root of Phi_L mod ell; the ring operations and sigma_k are then checked
    # on random canonical elements, at the largest order too.  ell is the
    # first prime = 1 (mod order) above 2^29, and lies below 2^30.  Some
    # primes are pinned as literals, so the check does not rest only on the
    # is_prime that _split_prime itself calls.  At 156 and 2002 the search
    # takes 8 and 22 candidates, and its Fermat test skips composites there.
    pinned = {1: 536870923, 20: 536871001, 42: 536870923, 156: 536872129, 330: 536871061,
              2002: 536914379, 9240: 536871721, 9607: 537838289,
              9700: 536933801, 9947: 537496093, 10000: 537030001}
    for order, ell in pinned.items():
        assert _split_prime(order)[0] == ell, order
    rng = random.Random(139)
    for order in list(range(1, 61)) + [330, 2002, 9607, 9700]:
        ell, pw = _split_prime(order)
        assert is_prime(ell) and 2 ** 29 < ell < 2 ** 30 and (ell - 1) % order == 0
        assert not any(is_prime(m) for m in range(ell - order, 2 ** 29, -order))
        omega = pw[1 % order]
        assert pw == [pow(omega, i, ell) for i in range(order)]
        assert pow(omega, order, ell) == 1
        assert all(pow(omega, order // q, ell) != 1 for q, _ in factorize(order))
        phi = cyclotomic_polynomial(order)
        assert sum(c * pow(omega, i, ell) for i, c in enumerate(phi)) % ell == 0

        def image(z, k=1):
            return sum(c * pw[i * k % order] for i, c in enumerate(z.coeffs)) % ell

        units = [k for k in range(1, order + 1) if gcd(k, order) == 1]
        for _ in range(3 if order <= 60 else 1):
            a, b = (CyclotomicElement(order, tuple(rng.randint(-9, 9) for _ in range(euler_phi(order))))
                    for _ in range(2))
            assert image(a * b) == image(a) * image(b) % ell, order
            assert image(a + b) == (image(a) + image(b)) % ell, order
            k = rng.choice(units)
            assert image(a.galois(k)) == image(a, k), (order, k)


def test_large_order_norm_in_bounded_memory():
    # At (97, 100) the order is 9700 and phi is 3840: the Gauss sum, its ring
    # norm and the difference-multiset norm must agree, and the reductions
    # must not build anything of size N * phi (a dense table of the powers
    # of zeta there would take 329 MB).
    import tracemalloc
    rng = random.Random(97)
    f = UnitFunction(97, 100, (0,) + tuple(rng.randrange(100) for _ in range(95)))
    tracemalloc.start()
    try:
        norm = fourier_norm(f, -1)
        assert norm == gauss_sum(f).value.norm_squared()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak


def test_split_prime_filter_refuses_an_order_above_max_order():
    # The filter's table of omega powers has one entry per root of unity,
    # so the order is refused before it is built; kurlberg_test, which has
    # no filter, is refused by its canonical sums' order check.
    f = UnitFunction(3, 10 ** 11, (0, 5))
    for decide, args in ((has_unit_fourier_magnitude, (f, 1)), (kurlberg_test, (f,)),
                         (lambda: list(spectral.subfield_screen(3, 10 ** 11 + 1)), ())):
        with pytest.raises(ValueError, match="exceeds MAX_ORDER"):
            decide(*args)


def test_split_prime_filter_passes_exactly_the_canonical_hits(monkeypatch):
    # On every default-grid cell, the magnitude filter hands to its
    # canonical test exactly the inputs canonical equality accepts: no hit
    # is lost to the prime-field image and no miss gets through it.
    # (lemma_2_1 and thm_1_7 have no per-function filter; their cell screens
    # are checked by test_subfield_screen_passes_exactly_the_subfield_members
    # and test_flat_screen_passes_every_flat_table.)
    real_norm = fourier_norm
    canonical_calls = []

    def counting(*args):
        canonical_calls.append(args)
        return real_norm(*args)
    monkeypatch.setattr(spectral, "fourier_norm", counting)

    free = ("cor_1_3", "cor_2_3")
    cells = {(p, n, statement not in free) for statement, p, n in default_grid()
             if statement not in ("lemma_2_1", "thm_1_7")}
    for p, n, fix_f1 in sorted(cells):
        for f in enumerate_unit_functions(p, n, fix_f1=fix_f1):
            for a in range(1, p):
                hit = real_norm(f, a).as_integer() == p
                before = len(canonical_calls)
                has_unit_fourier_magnitude(f, a)
                assert (len(canonical_calls) > before) == hit, (f, a)


def _true_indices(verdicts):
    """The indices of the True verdicts, the form every cell screen returns."""
    return [i for i, ok in enumerate(verdicts) if ok]


def _screened(source, p, n, fix_f1):
    """A verdict source's f(1) = 1 list, lifted to f(1) free as a
    verification lifts it when ``fix_f1`` is false."""
    indices = source(p, n)
    return indices if fix_f1 else times_constants(indices, p, n)


def test_cell_screens_align_with_per_function_images():
    # A cell screen lists index i exactly when table i of the enumeration
    # passes the split-prime test, computed from its exponents alone:
    # tau(omega) against its image under sigma_k, k = 1 (mod n) and a
    # primitive root mod p (f(1) free, the screen's list lifted to it; k = 1
    # when p divides n), and the value sum with the a = 1 magnitude
    # (f(1) = 1).  The magnitude screen is checked by
    # test_magnitude_screen_maps_the_a1_survivors_to_every_twist.
    cells = {(p, n) for _, p, n in default_grid()} | {(3, 6), (3, 12), (5, 10), (5, 8), (7, 5)}
    for p, n in sorted(cells):
        big = lcm(n, p)
        g = find_primitive_root(p)
        k = 1 if n % p == 0 else next(k for k in range(big) if k % n == 1 and k % p == g)
        ell, pw = _split_prime(big)
        fixed = list(enumerate_unit_functions(p, n, fix_f1=True))
        free = list(enumerate_unit_functions(p, n, fix_f1=False))
        expected = []
        for f in free:
            tau = [big // n * e + big // p * x for x, e in enumerate(f.exps, 1)]
            expected.append(sum(pw[t % big] - pw[k * t % big] for t in tau) % ell == 0)
        lifted = times_constants(spectral.subfield_screen(p, n), p, n)
        assert lifted == _true_indices(expected), (p, n)
        expected = [sum(pw[big // n * e] for e in f.exps) % ell == 0
                    and spectral._magnitude_image_is_p(f, 1) for f in fixed]
        assert spectral.bucket_screen(p, n) == _true_indices(expected), (p, n)


def test_magnitude_screen_maps_the_a1_survivors_to_every_twist():
    # The screen sums the f(1) = 1 tables at a = 1 alone and reaches every
    # other twist by x -> a*x, rescaled to f(1) = 1, and every f(1) once
    # lifted to the constants.  Against the per-function images, table by
    # table, as the any over the units: every default-grid cell, f(1) fixed
    # and free, the p | n cells (3, 6), (3, 12) and (5, 10), where the
    # witness sets differ from twist to twist, and (5, 8) and (7, 5).
    cells = {(p, n) for _, p, n in default_grid()} | {(3, 6), (3, 12), (5, 10), (5, 8), (7, 5)}
    for p, n in sorted(cells):
        for fix_f1 in (True, False):
            functions = enumerate_unit_functions(p, n, fix_f1=fix_f1)
            images = (any(spectral._magnitude_image_is_p(f, a) for a in range(1, p))
                      for f in functions)
            assert (_screened(spectral.magnitude_screen, p, n, fix_f1)
                    == _true_indices(images)), (p, n, fix_f1)


def test_magnitude_screen_passes_c_times_each_character():
    # At (5, 4) and (7, 3) the tables that pass are the nontrivial
    # characters chi, with |S_a| = sqrt(p) at every unit a, and once lifted
    # to f(1) free each c * chi.  Each chi o m_a is chi(a) * chi, so the twist
    # remap lands on chi again only once it is rescaled to f(1) = 1.
    for p, n in ((5, 4), (7, 3)):
        constants = {table_index((c,) * (p - 1), n) for c in range(n)}
        for fix_f1 in (True, False):
            expected = [i for i in _screened(homomorphism_candidates, p, n, fix_f1)
                        if i not in constants]
            assert _screened(spectral.magnitude_screen, p, n, fix_f1) == expected, (p, n, fix_f1)


def test_bucket_screen_passes_every_hit_and_the_magnitude_survivors():
    # The bucket screen keeps a table when its value sum has image 0 and its
    # S_1 the magnitude image p.  It must pass every canonical hit: each
    # table with norm_squared(tau(f)) = p on the Gauss cells (p does not
    # divide n), each flat table on the thm_1_7 cells.  Every such hit passes
    # the magnitude image at some unit, so the canonical tests run on the
    # magnitude screen's survivors.  Where p does not divide n the two
    # screens pass the same tables, and on the thm_1_7 cells those are
    # exactly the nontrivial characters, a few of the value-sum screen's
    # survivors (2 of 11,550 at (13, 3)).  Every default-grid cell of the
    # statements that take the screen, lifted to f(1) free on the cor_2_3
    # cells, and five larger cells: 75 hits in all.
    bucket_statements = ("prop_1_1", "thm_1_2", "prop_2_2", "cor_2_3", "thm_1_7")
    cells = {(statement == "thm_1_7", p, n, statement != "cor_2_3")
             for statement, p, n in default_grid() if statement in bucket_statements}
    cells |= {(flat, p, n, True) for flat in (False, True)
              for p, n in ((11, 4), (13, 3), (11, 3), (7, 5), (7, 6))}
    hits, characters = 0, {}
    for flat, p, n, fix_f1 in sorted(cells):
        survivors = _screened(spectral.bucket_screen, p, n, fix_f1)
        magnitude = _screened(spectral.magnitude_screen, p, n, fix_f1)
        tables = (UnitFunction(p, n, tuple(table_exps(i, p, n))) for i in magnitude)
        hit = [table_index(f.exps, n) for f in tables
               if (kurlberg_test(f) if flat else fourier_norm(f, p - 1).as_integer() == p)]
        assert set(hit) <= set(survivors), (flat, p, n, fix_f1)
        hits += len(hit)
        if n % p:
            assert survivors == magnitude, (p, n, fix_f1)
        if flat:
            assert survivors == homomorphism_candidates(p, n)[1:], (p, n)
            assert set(survivors) <= set(flat_screen(p, n)), (p, n)
            characters[p, n] = len(survivors)
    assert hits == 75, hits
    assert [characters[cell] for cell in ((13, 3), (7, 6), (11, 4), (5, 4))] == [2, 5, 1, 3]


def test_subfield_screen_passes_exactly_the_subfield_members():
    # Its sigma_k generates the automorphisms fixing Q(zeta_n), so the
    # screen, lifted to f(1) free, passes exactly the tables with tau(f) in
    # Q(zeta_n): the n constants, on every default-grid lemma_2_1 cell and
    # at (7, 5) and (5, 8).  A k that generates a proper subgroup passes
    # more: k = 6, of order 2 mod 7, passes 125 tables at (7, 5).  Where p
    # divides n, Q(zeta_L) is Q(zeta_n) and every table passes.
    cells = {(p, n) for statement, p, n in default_grid() if statement == "lemma_2_1"}
    for p, n in sorted(cells | {(7, 5), (5, 8), (3, 6)}):
        functions = list(enumerate_unit_functions(p, n, fix_f1=False))
        members = _true_indices(gauss_sum(f).value.in_subfield(n) for f in functions)
        assert times_constants(spectral.subfield_screen(p, n), p, n) == members, (p, n)
        passed = [functions[i] for i in members]
        if n % p:
            assert [f.exps for f in passed] == [(d,) * (p - 1) for d in range(n)], (p, n)
        else:
            assert len(passed) == n ** (p - 1), (p, n)


def test_in_subfield_matches_every_k_on_the_screen_survivors():
    # Generators only against every k, for tau of each table the subfield
    # screen passes, lifted to f(1) free, on a default-grid lemma_2_1 cell,
    # at every divisor of its order.
    cells = {(p, n) for statement, p, n in default_grid() if statement == "lemma_2_1"}
    answers = set()
    for p, n in sorted(cells):
        order = lcm(n, p)
        functions = list(enumerate_unit_functions(p, n, fix_f1=False))
        for f in (functions[i] for i in times_constants(spectral.subfield_screen(p, n), p, n)):
            tau = gauss_sum(f).value
            for d in (d for d in range(1, order + 1) if order % d == 0):
                answer = tau.in_subfield(d)
                assert answer == in_subfield_every_k(tau, d), (f, d)
                answers.add(answer)
    assert answers == {True, False}


def test_in_subfield_checks_generators_only(monkeypatch):
    # tau of a constant table at (97, 100) lies in Q(zeta_100), which the 96
    # sigma_k with k = 1 (mod 100) fix inside Q(zeta_9700); checking every k
    # applies the 95 besides the identity, but each sigma_k that passes at
    # least doubles the covered group, so at most 7 are applied.
    calls = []
    galois = CyclotomicElement.galois

    def counting(self, k):
        calls.append(k)
        return galois(self, k)
    tau = gauss_sum(UnitFunction(97, 100, (3,) * 96)).value
    monkeypatch.setattr(CyclotomicElement, "galois", counting)
    assert tau.in_subfield(100)
    assert 1 <= len(calls) <= 7, calls


def test_flat_screen_passes_every_flat_table():
    # A flat profile forces the value sum to 0 and |S_1|^2 = p (see the
    # ``spectral`` module docstring), so the bucket screen passes every
    # table ``kurlberg_test`` accepts: the gcd(n, p - 1) - 1 nontrivial
    # characters, on every default-grid thm_1_7 cell and at (3, 6) and
    # (5, 10), where p divides n.
    cells = {(p, n) for statement, p, n in default_grid() if statement == "thm_1_7"}
    for p, n in sorted(cells | {(3, 6), (5, 10)}):
        flat, survivors = 0, set(spectral.bucket_screen(p, n))
        for index, f in enumerate(enumerate_unit_functions(p, n)):
            if kurlberg_test(f):
                assert index in survivors, f
                flat += 1
        assert flat == gcd(n, p - 1) - 1, (p, n)


def test_flat_screen_in_linear_memory():
    # The bucket screen holds one block of n value sums with their
    # magnitude sums, no table per pair of digits (an n x n table of images
    # would take over 8 MB here).  Its one pass at (3, 1000) is the
    # Legendre table: 1 + zeta^500 = 0, and |S_1|^2 = 3.
    import tracemalloc
    spectral._split_prime(3000)
    tracemalloc.start()
    try:
        survivors = spectral.bucket_screen(3, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert survivors == [500]
    assert peak < 2 ** 20, peak


def test_cell_screen_in_bounded_memory():
    # Each screen sums the 4^9 = 262144 tables with f(1) = 1: a list of
    # their verdicts alone would take 2 MB.  The magnitude screen holds one
    # tail block, one head's verdicts and the tables of its survivors; the
    # bucket screen holds one entry per offset of its tail block, whatever
    # the number of tables.  Lifted to f(1) free, inside the measurement,
    # the survivors of both are the Legendre table times each of the 4
    # constants, the tables c * chi with |S_a| = sqrt(11) at some unit a.
    import tracemalloc
    spectral._split_prime(44)
    legendre = [2 * e for e in legendre_unit_function(11).exps]
    expected = sorted(int("".join(str((e + c) % 4) for e in legendre), 4) for c in range(4))
    for screen in (spectral.magnitude_screen, spectral.bucket_screen):
        tracemalloc.start()
        try:
            survivors = times_constants(screen(11, 4), 11, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert survivors == expected, screen.__name__
        assert peak < 2 ** 20, (screen.__name__, peak)


def test_cell_screen_head_walk_in_bounded_memory():
    # At (5, 204) the tail is the last position's 204 digits and the 41,616
    # heads span two positions: listed whole, the heads' sums of one row set
    # alone would take over 1 MB.  The walk holds one block of 204 sums per
    # level.  p does not divide n, so the tables with S_0 = 0 and
    # |S_1|^2 = 5 are the 3 nontrivial characters, and they survive alone.
    import tracemalloc
    spectral._split_prime(1020)
    characters = homomorphism_candidates(5, 204)[1:]
    tracemalloc.start()
    try:
        survivors = spectral.bucket_screen(5, 204)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert survivors == characters
    assert len(characters) == 3
    assert peak < 2 ** 20, peak


def test_split_is_in_the_middle_under_the_cap():
    # The tail is the shortest run of last positions whose tables reach the
    # head's, unless the cap stops it; it passes _TAIL_TABLES only when it is
    # a single position, and the head keeps position 0.
    cap = spectral._TAIL_TABLES
    assert spectral._tail_start([1, 4, 4, 4]) == 2
    assert spectral._tail_start([1, 6, 6, 6, 6, 6]) == 3
    assert spectral._tail_start([1, 300]) == 1
    for sizes in ((1, 4, 4, 4), (1, 6, 6, 6, 6, 6), (1, 300), (1,) + (6,) * 11, (1, 200, 200, 200),
                  (1,) + (2,) * 17, (5, 2, 3), (3, 4), (1, 6, 2, 1), (300, 2, 2)):
        j = spectral._tail_start(list(sizes))
        head, tail = prod(sizes[:j]), prod(sizes[j:])
        assert 1 <= j < len(sizes), sizes
        assert tail <= cap or j == len(sizes) - 1, sizes
        assert tail >= head or j == 1 or tail * sizes[j - 1] > cap, sizes
        assert j == len(sizes) - 1 or prod(sizes[j + 1:]) < prod(sizes[:j + 1]), sizes


def test_lex_sums_walk_blocks_in_lexicographic_order(monkeypatch):
    # The head walk lists an inner block of the last positions after each
    # sum of an outer walk.  Against itertools.product plus sum on seeded
    # rows over a small field, for 0 to 6 positions, with the default cap and
    # with blocks of at most 4 sums, where the walk spans two and three block
    # levels; each level lists one block of at most the cap or of one
    # position's digits.
    rng, ell = random.Random(27), 7
    build, levels, seen = spectral._block, [], set()

    def block(rows, ell):
        assert len(rows) <= 1 or prod(map(len, rows)) <= spectral._TAIL_TABLES, rows
        levels.append(len(rows))
        return build(rows, ell)

    monkeypatch.setattr(spectral, "_block", block)
    for cap in (spectral._TAIL_TABLES, 4):
        monkeypatch.setattr(spectral, "_TAIL_TABLES", cap)
        for count in range(7):
            for _ in range(4):
                rows = [[rng.randrange(ell) for _ in range(rng.randint(1, 5))] for _ in range(count)]
                levels.clear()
                expected = [sum(choice) % ell for choice in itertools.product(*rows)]
                assert list(spectral._lex_sums(rows, ell)) == expected, rows
                seen.add((cap, len(levels)))
    assert {(4, 2), (4, 3)} <= seen, seen


def test_zero_sum_screen_matches_brute_force(monkeypatch):
    # The sumset engine against every choice of one entry per row, on seeded
    # rows over a small field, so that tail sums repeat and one sum has
    # several offsets, with heads of one to four positions: first with key
    # rows alone (a zero key sum), then with magnitude rows too (a zero key
    # sum and s * t = p), the key rows all zero in every other case, as
    # ``magnitude_screen`` passes them.  The magnitude rows draw from a
    # generator of their own, so the key-only rows do not depend on them.
    # The last shape runs with blocks of at most 4 sums: a 2 x 2 tail and
    # 36 heads walked through four block levels.
    rng, magnitude_rng = random.Random(20), random.Random(21)
    ell, p, survivors, magnitude_survivors = 7, 3, 0, 0
    shapes = ((3, 4), (5, 2, 3), (2, 3, 300), (4, 4, 4, 4, 4, 4), (1, 6, 2, 1),
              (2, 2, 2, 4, 4, 4, 4), (2, 3, 2, 3, 2, 2))
    for case, sizes in enumerate(shapes):
        if sizes == shapes[-1]:
            monkeypatch.setattr(spectral, "_TAIL_TABLES", 4)
        rows = [[rng.randrange(ell) for _ in range(size)] for size in sizes]
        expected = _true_indices(sum(choice) % ell == 0 for choice in itertools.product(*rows))
        assert spectral._sumset_screen([rows], ell) == expected, sizes
        survivors += len(expected)
        if case % 2:
            rows = [[0] * size for size in sizes]
        fwd, bwd = ([[magnitude_rng.randrange(ell) for _ in range(size)] for size in sizes]
                    for _ in range(2))
        expected = _true_indices(
            sum(key) % ell == 0 and sum(s) * sum(t) % ell == p
            for key, s, t in zip(*(itertools.product(*r) for r in (rows, fwd, bwd))))
        assert spectral._sumset_screen([rows, fwd, bwd], ell, p) == expected, sizes
        magnitude_survivors += len(expected)
    assert survivors > 100, survivors
    assert magnitude_survivors > 100, magnitude_survivors


def test_autocorrelation_examples():
    leg5 = legendre_unit_function(5)
    assert autocorrelation(leg5, 0).as_integer() == 4
    assert autocorrelation(leg5, 1).as_integer() == -1
    trivial5 = UnitFunction(5, 2, (0, 0, 0, 0))
    assert autocorrelation(trivial5, 1).as_integer() == 3
    rng = random.Random(127)
    for f in random_functions(rng, SAMPLE_CELLS, 2):
        assert autocorrelation(f, 0).as_integer() == f.p - 1
        assert autocorrelation(f, f.p).as_integer() == f.p - 1


def test_kurlberg_test_matches_the_all_shift_definition():
    # kurlberg_test computes the shifts h <= (p - 1)/2 only, since
    # r(p - h) = conj(r(h)); the definition takes every nonzero shift.  Every
    # table of the default-grid thm_1_7 cells, and of (3, 6) and (5, 10).
    cells = {(p, n) for statement, p, n in default_grid() if statement == "thm_1_7"}
    for p, n in sorted(cells | {(3, 6), (5, 10)}):
        for f in enumerate_unit_functions(p, n):
            assert kurlberg_test(f) == kurlberg_all_shifts(f), f


def test_kurlberg_test_examples():
    assert kurlberg_test(legendre_unit_function(7))
    assert not kurlberg_test(UnitFunction(7, 2, (0,) * 6))  # trivial: p - 2 off zero
    assert not kurlberg_test(UnitFunction(3, 6, (0, 5)))
    assert not kurlberg_test(UnitFunction(5, 2, (1, 1, 1, 1)))  # f(1) != 1
    for p in (5, 7, 11):
        for chi in enumerate_characters(p, p - 1):
            assert kurlberg_test(chi.unit_function()) == (not chi.is_trivial)


def test_parseval_sum():
    assert parseval_sum(UnitFunction(3, 2, (0, 0))) == 6
    assert parseval_sum(legendre_unit_function(3)) == 6
    rng = random.Random(131)
    for f in random_functions(rng, [(5, 2), (5, 6), (7, 4)], 6):
        assert parseval_sum(f) == f.p * (f.p - 1)


def test_autocorrelation_gauss_identity():
    # sum_k g(k) e(k/p) = norm_squared(tau(f)) as exact elements, where
    # g(k) = sum_l f(l+k) conj(f(l)) is the reversed-orientation
    # autocorrelation, i.e. autocorrelation(f, -k).
    rng = random.Random(137)
    for f in random_functions(rng, SAMPLE_CELLS, 4):
        p, n = f.p, f.n
        big = lcm(n, p)
        total = CyclotomicElement.from_int(big, 0)
        for k in range(p):
            total = total + autocorrelation(f, -k).embed(big) * zeta_pow(big, (big // p) * k)
        assert total == gauss_sum(f).value.norm_squared()


def test_spectral_value_invariant():
    f = legendre_unit_function(5)
    assert gauss_sum(f).value.order == 10
    with pytest.raises(ValueError, match=r"order lcm\(n, p\)"):
        SpectralValue(CyclotomicElement.from_int(5, 1), 5, 2)
    with pytest.raises(ValueError, match=r"order lcm\(n, p\)"):
        SpectralValue(value=zeta_pow(3, 1), p=3, n=2)


def test_rational_norms_match_sympy():
    # An outside reference for the norms behind every magnitude test:
    # |S_xi|^2 as the sum of x^((s - t) mod L) over pairs of exponents s, t
    # of S_xi, reduced mod Phi_L by sympy.  The exponents are restated here
    # from the definitions S_xi = sum over units x of f(x) e(-x*xi/p) and
    # tau(f) = sum of f(x) e(x/p) = S_(-1).  Every character and three
    # non-characters at orders 330 and 390 (every xi) and 2002 (three xi:
    # one sympy remainder there takes 0.15 s).
    pytest.importorskip("sympy")
    rng = random.Random(71)

    def norm_terms(exponents, big):
        counts = {}
        for s in exponents:
            for t in exponents:
                counts[(s - t) % big] = counts.get((s - t) % big, 0) + 1
        return counts

    for p, n, xis in ((11, 30, range(11)), (13, 30, range(13)), (7, 286, (0, 1, 6))):
        big = lcm(n, p)
        u, v = big // n, big // p
        characters = [c.unit_function(n) for c in enumerate_characters(p, n)]
        others = []
        while len(others) < 3:
            f = UnitFunction(p, n, (0,) + tuple(rng.randrange(n) for _ in range(p - 2)))
            if not is_character_oracle(f):
                others.append(f)
        for f in characters + others:
            for xi in xis:
                terms = norm_terms([u * f.exps[x - 1] - v * xi * x for x in range(1, p)], big)
                expected = sympy_remainder(big, terms)
                assert fourier_norm(f, xi).coeffs == expected, (f, xi)
            # xi = p - 1 came last: tau(f) has the same pairwise differences.
            assert norm_terms([u * f.exps[x - 1] + v * x for x in range(1, p)], big) == terms
            tau_norm = gauss_sum(f).value.norm_squared()
            assert tau_norm.coeffs == expected, f
            if f in characters and not f.is_trivial:
                assert tau_norm.as_integer() == p, f
