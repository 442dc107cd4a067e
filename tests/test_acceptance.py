"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every comparison is exact (zero tolerance); the only non-exact assertions
are the stated wall-clock ceilings.  Run with plain pytest; the summary
lines print through the capture so they are visible either way.
"""

import random
import time
from math import gcd, lcm

from gausschar.cyclo import (
    CyclotomicElement,
    cyclotomic_polynomial,
    euler_phi,
    zeta_pow,
)
from gausschar.modp import (
    UnitFunction,
    enumerate_unit_functions,
    is_character_oracle,
    legendre_unit_function,
)
from gausschar.spectral import autocorrelation, gauss_sum
from gausschar.verify import (
    GRID_CELLS,
    GRID_CELLS_FREE,
    GRID_PRIMES_QUADRATIC,
    remark_counterexample,
    verify_cor_1_3,
    verify_cor_2_3,
    verify_lemma_2_1,
    verify_prop_1_1,
    verify_thm_1_2,
    verify_thm_1_7,
)
from reference import evaluate_poly, parseval_sum, poly_mul, poly_trim


def announce(capsys, number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        suffix = f" ({detail})" if detail else ""
        print(f"[acceptance] criterion {number} {label}: {status}{suffix}")


def test_criterion_1_quadratic_gauss_exhaustive(capsys):
    # Exactly one sign function with f(1) = 1 has |tau|^2 = p: the
    # quadratic-residue table.  Under 10 seconds in total.
    t0 = time.perf_counter()
    ok = True
    for p in GRID_PRIMES_QUADRATIC:
        rep = verify_prop_1_1(p)
        ok &= rep.success
        ok &= rep.total_functions == 2 ** (p - 2)
        ok &= rep.passing_spectral == 1
        ok &= rep.witnesses == [(legendre_unit_function(p).exps, p - 1)]
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    announce(capsys, 1, "quadratic Gauss-sum exhaustive", ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_2_fourier_witness_exhaustive(capsys):
    # Spectral witness test agrees with the homomorphism oracle on every
    # grid cell; passing count is gcd(n, p-1) - 1; the largest cell stays
    # under 60 seconds.
    ok = True
    big_cell_elapsed = 0.0
    for p, n in GRID_CELLS:
        t0 = time.perf_counter()
        rep = verify_thm_1_2(p, n)
        elapsed = time.perf_counter() - t0
        if (p, n) == (7, 6):
            big_cell_elapsed = elapsed
            ok &= rep.total_functions == 7776
            ok &= elapsed < 60.0
        ok &= rep.success and not rep.mismatches
        ok &= rep.passing_spectral == gcd(n, p - 1) - 1
        ok &= rep.passing_oracle == gcd(n, p - 1) - 1
    announce(capsys, 2, "Fourier-witness classification exhaustive", ok,
             f"(7,6) cell {big_cell_elapsed:.2f}s")
    assert ok


def test_criterion_3_counterexample_reproduced(capsys):
    # p = 3, n = 6, exps = (0, 5): |tau|^2 = 3 exactly, yet not a character.
    f = UnitFunction(3, 6, (0, 5))
    norm = gauss_sum(f).value.norm_squared().as_integer()
    ok = norm == 3 and not is_character_oracle(f)
    rep = remark_counterexample()
    ok &= rep.success and rep.witnesses == [((0, 5), 2)]
    announce(capsys, 3, "p | n counterexample reproduced", ok, f"|tau|^2 = {norm}")
    assert ok


def test_criterion_4_unit_magnitude_dichotomy(capsys):
    # On every f(1)-free cell, no function has a proper nonempty set of
    # unit-magnitude Fourier coefficients.
    ok = True
    for p, n in GRID_CELLS_FREE:
        rep = verify_cor_1_3(p, n)
        ok &= rep.success and not rep.mismatches
        ok &= rep.total_functions == n ** (p - 1)
    announce(capsys, 4, "unit-magnitude dichotomy", ok)
    assert ok


def test_criterion_5_subfield_gauss_values(capsys):
    # The tau(g)-in-Q(zeta_n) filter selects exactly the n constants, each
    # with g identically -tau(g); includes the constant -1 instance tau = 1.
    ok = True
    for p, n in GRID_CELLS_FREE:
        rep = verify_lemma_2_1(p, n)
        ok &= rep.success and not rep.mismatches
        ok &= rep.passing_spectral == n
        constants = sorted(exps for exps, _ in rep.witnesses)
        ok &= constants == [(k,) * (p - 1) for k in range(n)]
    for p in (3, 5, 7):
        minus_one = UnitFunction(p, 2, (1,) * (p - 1))
        ok &= gauss_sum(minus_one).value.as_integer() == 1
    announce(capsys, 5, "rational/subfield Gauss values are constants", ok)
    assert ok


def test_criterion_6_autocorrelation_exhaustive(capsys):
    # The flat autocorrelation profile agrees with the oracle on every grid
    # cell; the characters valued in mu_n number gcd(n, p-1), of which the
    # gcd(n, p-1) - 1 nontrivial ones have the flat profile (the trivial
    # character autocorrelates to p - 2 off zero, exactly computed).
    ok = True
    for p, n in GRID_CELLS:
        rep = verify_thm_1_7(p, n)
        ok &= rep.success and not rep.mismatches
        ok &= rep.passing_oracle == gcd(n, p - 1)
        ok &= rep.passing_spectral == gcd(n, p - 1) - 1
    for p, n in GRID_CELLS:
        trivial = UnitFunction(p, n, (0,) * (p - 1))
        ok &= all(autocorrelation(trivial, h).as_integer() == p - 2
                  for h in range(1, p))
    announce(capsys, 6, "autocorrelation characterization exhaustive", ok)
    assert ok


def test_criterion_7_scaled_character_factorization(capsys):
    # On f(1)-free cells, |tau|^2 = p holds for exactly n * (gcd(n,p-1) - 1)
    # functions, and each passing f rebuilds as f(1) * (conj(f(1)) * f) with
    # the second factor oracle-certified nontrivial.
    ok = True
    for p, n in GRID_CELLS_FREE:
        rep = verify_cor_2_3(p, n)
        ok &= rep.success and not rep.mismatches
        ok &= rep.passing_spectral == n * (gcd(n, p - 1) - 1)
        for exps, _ in rep.witnesses:
            f = UnitFunction(p, n, exps)
            g = f.normalized()
            ok &= is_character_oracle(g) and not g.is_trivial
            k1 = f.exps[0]
            ok &= tuple((k1 + e) % n for e in g.exps) == f.exps
    announce(capsys, 7, "constant-times-character factorization", ok)
    assert ok


def _criterion_8_ring_axioms() -> bool:
    rng = random.Random(88)
    ok = True
    for order in range(1, 61):
        deg = euler_phi(order)
        one = CyclotomicElement.from_int(order, 1)
        zero = CyclotomicElement.from_int(order, 0)
        for _ in range(1000):
            a, b, c = (CyclotomicElement(order, tuple(rng.randint(-9, 9) for _ in range(deg)))
                       for _ in range(3))
            ab = a * b
            ok &= a + b == b + a
            ok &= (a + b) + c == a + (b + c)
            ok &= ab == b * a
            ok &= ab * c == a * (b * c)
            ok &= a * (b + c) == ab + a * c
            ok &= a * one == a
            ok &= a + zero == a
            if not ok:
                return False
    return ok


def _criterion_8_cyclotomic_identities() -> bool:
    ok = True
    for n in range(1, 61):
        ok &= not any(evaluate_poly(cyclotomic_polynomial(n), zeta_pow(n, 1)).coeffs)
        prod = (1,)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = poly_mul(prod, cyclotomic_polynomial(d))
        ok &= prod == poly_trim([-1] + [0] * (n - 1) + [1])
    return ok


def _criterion_8_automorphism_laws() -> bool:
    rng = random.Random(89)
    ok = True
    for order in (2, 3, 4, 6, 8, 9, 12, 15, 16, 20, 24, 30, 36, 40, 45, 60):
        deg = euler_phi(order)
        units = [k for k in range(1, order) if gcd(k, order) == 1]
        for _ in range(40):
            a = CyclotomicElement(order, tuple(rng.randint(-9, 9) for _ in range(deg)))
            b = CyclotomicElement(order, tuple(rng.randint(-9, 9) for _ in range(deg)))
            k, j = rng.choice(units), rng.choice(units)
            ok &= a.conjugate().conjugate() == a
            ok &= (a * b).conjugate() == a.conjugate() * b.conjugate()
            ok &= a.galois(k).galois(j) == a.galois(k * j % order)
            ok &= (a * b).galois(k) == a.galois(k) * b.galois(k)
            ok &= (a + b).galois(k) == a.galois(k) + b.galois(k)
            ok &= a.conjugate() == a.galois(order - 1) if order > 2 else True
            ok &= (a * b).norm_squared() == a.norm_squared() * b.norm_squared()
            if not ok:
                return False
    return ok


def _criterion_8_parseval_and_convolution_identity() -> bool:
    ok = True
    small_cells = [(p, n, False) for (p, n) in GRID_CELLS_FREE] + [(7, 6, True)]
    for p, n, fixed in small_cells:
        big = lcm(n, p)
        v = big // p
        for f in enumerate_unit_functions(p, n, fix_f1=fixed):
            ok &= parseval_sum(f) == p * (p - 1)
            total = CyclotomicElement.from_int(big, 0)
            for k in range(p):
                total = total + autocorrelation(f, -k).embed(big) * zeta_pow(big, v * k)
            ok &= total == gauss_sum(f).value.norm_squared()
            if not ok:
                return False
    return ok


def test_criterion_8_property_suites(capsys):
    t0 = time.perf_counter()
    axioms = _criterion_8_ring_axioms()
    cyclotomic = _criterion_8_cyclotomic_identities()
    automorphisms = _criterion_8_automorphism_laws()
    spectral_identities = _criterion_8_parseval_and_convolution_identity()
    ok = axioms and cyclotomic and automorphisms and spectral_identities
    detail = (f"axioms={axioms} cyclotomic={cyclotomic} "
              f"automorphisms={automorphisms} parseval/convolution={spectral_identities}, "
              f"{time.perf_counter() - t0:.1f}s")
    announce(capsys, 8, "property suites", ok, detail)
    assert ok
