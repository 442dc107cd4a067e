import cmath
import random
from math import gcd, lcm

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
    is_prime,
    legendre_unit_function,
    mod_inverse,
)
from gausschar.spectral import (
    SpectralValue,
    _split_prime,
    autocorrelation,
    fourier_norm,
    fourier_sum,
    gauss_sum,
    gauss_sum_in_subfield,
    has_unit_fourier_magnitude,
    kurlberg_test,
    parseval_sum,
    spectral_witness,
    twisted_gauss_sum,
)
from gausschar.verify import GRID_CELLS, GRID_CELLS_FREE, default_grid
from reference import enumerate_characters

TOL = 1e-9


# --- independent numeric route: straight complex arithmetic from the
# --- definitions, never touching the cyclotomic machinery ------------------

def unit(k: int, n: int) -> complex:
    return cmath.exp(2j * cmath.pi * k / n)


def numeric(z: CyclotomicElement) -> complex:
    return sum(c * unit(k, z.order) for k, c in enumerate(z.coeffs))


def numeric_gauss(f: UnitFunction, a: int = 1) -> complex:
    return sum(unit(f.exponent(x), f.n) * unit(a * x, f.p) for x in range(1, f.p))


def numeric_fourier(f: UnitFunction, xi: int) -> complex:
    return sum(unit(f.exponent(x), f.n) * unit(-x * xi, f.p) for x in range(1, f.p))


def numeric_autocorr(f: UnitFunction, h: int) -> complex:
    total = 0
    for x in range(1, f.p):
        if (x + h) % f.p:
            total += unit(f.exponent(x), f.n) * unit(f.exponent(x + h), f.n).conjugate()
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
                expected = zeta_pow(big, -(big // n) * f.exponent(a)) * tau
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
                f.p, f.n, tuple(f.exponent(a_inv * m % p) for m in range(1, p)))
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
    total = CyclotomicElement.zero(lcm(4, 5))
    for x in range(1, 5):
        total = total + zeta_pow(20, 5 * f.exponent(x))
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
    # on random canonical elements, at the largest order too.
    rng = random.Random(139)
    for order in list(range(1, 61)) + [330, 2002, 9700]:
        ell, pw = _split_prime(order)
        assert is_prime(ell) and ell > 2 ** 61 and (ell - 1) % order == 0
        assert not any(is_prime(m) for m in range(ell - order, 2 ** 61, -order))
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
    # so the order is refused before it is built.
    f = UnitFunction(3, 10 ** 11, (0, 5))
    for decide, args in ((has_unit_fourier_magnitude, (f, 1)), (kurlberg_test, (f,)),
                         (gauss_sum_in_subfield, (f, f.n))):
        with pytest.raises(ValueError, match="exceeds MAX_ORDER"):
            decide(*args)


def test_split_prime_filter_passes_exactly_the_canonical_hits(monkeypatch):
    # On every default-grid cell, each of the three decision points hands
    # to its canonical test exactly the inputs canonical equality accepts:
    # no hit is lost to the prime-field image and no miss gets through it.
    real_norm, real_autocorrelation = fourier_norm, autocorrelation
    canonical_calls = []
    for name in ("fourier_norm", "autocorrelation", "sum_of_zeta_powers"):
        def counting(*args, _real=getattr(spectral, name)):
            canonical_calls.append(name)
            return _real(*args)
        monkeypatch.setattr(spectral, name, counting)

    def survives(decide, *args):
        before = len(canonical_calls)
        decide(*args)
        return len(canonical_calls) > before

    free = ("cor_1_3", "lemma_2_1", "cor_2_3")
    kinds = {"thm_1_7": "flat", "lemma_2_1": "subfield"}
    cells = {(kinds.get(statement, "magnitude"), p, n, statement not in free)
             for statement, p, n in default_grid()}
    for kind, p, n, fix_f1 in sorted(cells):
        for f in enumerate_unit_functions(p, n, fix_f1=fix_f1):
            if kind == "flat":
                hit = f.exps[0] == 0 and all(
                    real_autocorrelation(f, h).as_integer() == -1 for h in range(1, p))
                assert survives(kurlberg_test, f) == hit, f
            elif kind == "subfield":
                hit = gauss_sum(f).value.in_subfield(n)
                assert survives(gauss_sum_in_subfield, f, n) == hit, f
            else:
                for a in range(1, p):
                    hit = real_norm(f, a).as_integer() == p
                    assert survives(has_unit_fourier_magnitude, f, a) == hit, (f, a)


def test_cell_screens_align_with_per_function_images():
    # Verdict i of a cell screen is the split-prime verdict of table i of
    # the enumeration, computed from that table's exponents alone: the
    # magnitude image at every twist a, tau(omega) against its image under
    # the first sigma_k fixing Q(zeta_n), and the shift-1 autocorrelation.
    cells = {(p, n) for _, p, n in default_grid()} | {(3, 6)}
    for p, n in sorted(cells):
        big = lcm(n, p)
        k = next((k for k in range(1 + n, big, n) if gcd(k, big) == 1), 1)
        ell, pw = _split_prime(big)
        ell_n, pw_n = _split_prime(n)
        for fix_f1 in (True, False):
            functions = list(enumerate_unit_functions(p, n, fix_f1=fix_f1))
            for a in range(1, p):
                expected = [spectral._magnitude_image_is_p(f, a) for f in functions]
                assert list(spectral.magnitude_screen(p, n, a, fix_f1)) == expected, (p, n, a)
            expected = []
            for f in functions:
                tau = [big // n * e + big // p * x for x, e in enumerate(f.exps, 1)]
                expected.append(sum(pw[t % big] - pw[k * t % big] for t in tau) % ell == 0)
            assert list(spectral.subfield_screen(p, n, n, fix_f1)) == expected, (p, n)
            expected = [f.exps[0] == 0 and sum(pw_n[(s - t) % n] for s, t in
                                               zip(f.exps, f.exps[1:])) % ell_n == ell_n - 1
                        for f in functions]
            assert list(spectral.flat_screen(p, n, fix_f1)) == expected, (p, n)


def test_cell_screen_in_bounded_memory():
    # 4^10 = 1048576 tables: a list of their verdicts alone would take
    # 8 MB, the screen holds one tail block and one head's verdicts.
    import tracemalloc
    spectral._split_prime(44)
    tracemalloc.start()
    try:
        count = sum(1 for _ in spectral.magnitude_screen(11, 4, 1, fix_f1=False))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 4 ** 10
    assert peak < 2 * 2 ** 20, peak


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
        total = CyclotomicElement.zero(big)
        for k in range(p):
            total = total + autocorrelation(f, -k).embed(big) * zeta_pow(big, (big // p) * k)
        assert total == gauss_sum(f).value.norm_squared()


def test_spectral_value_invariant():
    f = legendre_unit_function(5)
    assert gauss_sum(f).value.order == 10
    with pytest.raises(ValueError, match=r"order lcm\(n, p\)"):
        SpectralValue(CyclotomicElement.one(5), 5, 2)
    with pytest.raises(ValueError, match=r"order lcm\(n, p\)"):
        SpectralValue(value=zeta_pow(3, 1), p=3, n=2)
