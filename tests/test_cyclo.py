import random
from math import gcd

import pytest

from gausschar.cyclo import (
    MAX_ORDER,
    CyclotomicElement,
    OrderMismatchError,
    cyclotomic_polynomial,
    euler_phi,
    sum_of_zeta_powers,
    zeta_pow,
    _context,
    _moebius_product,
    _power_map,
)
from reference import evaluate_poly, in_subfield_every_k, poly_mul, poly_trim, sympy_remainder


def reduced(order, coeffs):
    """The element sum of coeffs[i] * zeta_order^i, for any number of
    coefficients, through the reduction that galois and embed use."""
    return CyclotomicElement(order, _power_map(order, coeffs, 1))


def test_cyclotomic_small_cases():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    # x^6 - 1 divided by Phi_1 * Phi_2 * Phi_3, done by hand
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(7) == (1, 1, 1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_degree_is_totient():
    for n in range(1, 61):
        assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)


def test_totient_refuses_non_positive():
    for n in (0, -4):
        with pytest.raises(ValueError, match=f"positive integers, got {n}"):
            euler_phi(n)


def test_cyclotomic_product_over_divisors():
    for n in range(1, 61):
        prod = (1,)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = poly_mul(prod, cyclotomic_polynomial(d))
        assert prod == poly_trim([-1] + [0] * (n - 1) + [1])
        # Psi_n, the product over the proper divisors, behind the row bound.
        psi = _moebius_product(n, cofactor=True)
        assert poly_mul(cyclotomic_polynomial(n), psi) == prod


def test_cyclotomic_vanishes_at_zeta():
    for n in range(1, 61):
        assert not any(evaluate_poly(cyclotomic_polynomial(n), zeta_pow(n, 1)).coeffs)


#: Orders for the kernel path against the direct product: every N up to 2000
#: and larger ones: four or five prime factors (6006, 9240, 9870), an odd
#: squarefree one that is its own kernel (9699 = 3 * 53 * 61), and the
#: largest even and odd ones.
KERNEL_ORDERS = list(range(1, 2001)) + [6006, 9240, 9699, 9700, 9870, 9999, 10000]


def test_kernel_substitution_matches_direct_product():
    # cyclotomic_polynomial(N) substitutes into Phi_k, k the odd part of
    # rad(N); _moebius_product(N) multiplies the binomials of N itself.
    for n in KERNEL_ORDERS:
        assert cyclotomic_polynomial(n) == _moebius_product(n), n


def test_context_matches_direct_products():
    # The context reads its heights from the kernel; each constant must be
    # the one the direct Phi_N and Psi_N products give, and so must the
    # modulus Phi_N(2^s) of the narrowest slots.
    for n in KERNEL_ORDERS:
        phi_poly = _moebius_product(n)
        phi_height = max(map(abs, phi_poly))
        psi_height = max(map(abs, _moebius_product(n, cofactor=True)))
        deg = len(phi_poly) - 1
        ctx = _context(n)
        assert ctx.phi_height == phi_height, n
        assert ctx.row_bound == 1 + min(deg, n - deg) * phi_height * psi_height, n
        slots = ctx.slots(1)
        bits = 8 * slots.width
        assert slots.modulus == sum(c << bits * i for i, c in enumerate(phi_poly)), n


def test_cyclotomic_matches_sympy():
    # An outside reference for Phi_n: every n up to 200, the orders of the
    # large-order classifications, and four larger orders, three with four
    # or five prime factors (6006, 9240, 9870).
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in list(range(1, 201)) + [330, 390, 930, 2002, 6006, 9240, 9700, 9870]:
        expected = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
        assert cyclotomic_polynomial(n) == tuple(int(c) for c in reversed(expected)), n


def test_reduction_matches_sympy():
    # An outside reference for the reduction mod Phi_N behind galois and
    # embed: sympy's dense remainder over ZZ of the same integer polynomial.
    pytest.importorskip("sympy")
    rng = random.Random(23)

    def element(order):
        return CyclotomicElement(order, tuple(rng.randint(-3, 3) for _ in range(euler_phi(order))))

    for order in list(range(1, 61)) + [330, 390, 930, 2002]:
        # Exponents past N: no folding by zeta^N = 1 on the reference side.
        terms = {rng.randrange(order + 5): rng.randint(-3, 3) for _ in range(12)}
        raw = [terms.get(e, 0) for e in range(order + 5)]
        assert reduced(order, raw).coeffs == sympy_remainder(order, terms), order
        z = element(order)
        units = [k for k in range(1, order) if gcd(k, order) == 1]
        for k in {-1, rng.choice(units or [1])}:
            image = {}
            for i, c in enumerate(z.coeffs):
                image[i * k % order] = image.get(i * k % order, 0) + c
            assert z.galois(k).coeffs == sympy_remainder(order, image), (order, k)
        divisors = [d for d in range(1, order) if order % d == 0]
        for d in {divisors[0], divisors[len(divisors) // 2], divisors[-1]} if divisors else ():
            w = element(d)
            image = {i * (order // d): c for i, c in enumerate(w.coeffs)}
            assert w.embed(order).coeffs == sympy_remainder(order, image), (d, order)


def test_huge_coefficients_match_sympy():
    # The slot width of the integer reduction grows with the coefficients:
    # products and reductions with coefficients up to 2^200, mixed with
    # tiny ones, zero and one, against sympy's dense product and remainder.
    sympy = pytest.importorskip("sympy")
    from sympy.polys.densearith import dup_mul, dup_rem
    from sympy.polys.densebasic import dup_strip
    from sympy.polys.domains import ZZ
    rng = random.Random(47)
    big = 2 ** 200

    def dense(coeffs):
        return dup_strip([ZZ(int(c)) for c in reversed(coeffs)])

    def reference(order, poly):
        rem = [int(c) for c in reversed(dup_rem(poly, dense(cyclotomic_polynomial(order)), ZZ))]
        return tuple(rem + [0] * (euler_phi(order) - len(rem)))

    for order in list(range(1, 61)) + [330, 2002, 9240]:
        deg = euler_phi(order)
        huge = tuple(rng.randint(-big, big) for _ in range(deg))
        signs = tuple(rng.choice((-1, 1)) for _ in range(deg))
        mixed = tuple(rng.choice((rng.randint(-big, big), rng.randint(-1, 1))) for _ in range(deg))
        zero, one = (0,) * deg, (1,) + (0,) * (deg - 1)
        pairs = [(huge, signs), (mixed, huge), (huge, zero), (one, mixed)]
        for a, b in pairs if order <= 330 else pairs[:1]:
            product = CyclotomicElement(order, a) * CyclotomicElement(order, b)
            assert product.coeffs == reference(order, dup_mul(dense(a), dense(b), ZZ)), order
        # Past N, so that the reduction folds; at 9240 only past 2 * phi, as
        # far as a product reaches, which keeps sympy's remainder affordable.
        length = order + 5 if order <= 2002 else 2 * deg + 5
        raw = [rng.choice((rng.randint(-big, big), rng.randint(-1, 1), 0))
               for _ in range(length)]
        assert reduced(order, raw).coeffs == reference(order, dense(raw)), order


def test_row_bound_covers_every_power():
    # The slot width rests on _OrderContext.row_bound bounding every
    # coefficient of x^k mod Phi_N.  The exact heights come from the row
    # recurrence x^(k+1) = x * x^k, reduced by x^phi = -(Phi_N - x^phi).
    for order in list(range(1, 301)) + [2002]:
        phi_poly = cyclotomic_polynomial(order)
        deg = len(phi_poly) - 1
        top = [-c for c in phi_poly[:-1]]
        one = [1] + [0] * (deg - 1)
        row, height = one, 1
        for _ in range(order):
            carry = row[-1]
            row = [0] + row[:-1]
            if carry:
                row = [row[i] + carry * top[i] for i in range(deg)]
            height = max(height, max(map(abs, row)))
        assert row == one, order  # x^N = 1: the recurrence closes up
        assert _context(order).row_bound >= height, order


def test_slot_width_at_its_edge():
    # One coefficient c at the power k whose residue row is highest reduces
    # to c times that row.  |c| runs over 2^b - 1 and 3 * 2^b for every bit
    # size b, so each slot width is tested at both ends of the sizes it
    # admits.
    for order in (105, 330, 2002):
        rows = [zeta_pow(order, k).coeffs for k in range(order)]
        k = max(range(order), key=lambda j: max(map(abs, rows[j])))
        assert max(map(abs, rows[k])) > 1, order
        for bits in range(1, 100):
            for c in (2 ** bits - 1, 1 - 2 ** bits, 3 << bits):
                expected = tuple(c * x for x in rows[k])
                assert reduced(order, [0] * k + [c]).coeffs == expected
                assert (CyclotomicElement.from_int(order, c) * zeta_pow(order, k)).coeffs == expected


def test_slot_width_at_each_byte_boundary():
    # The smallest weight W whose bound need = 2 W B_N + H(Phi_N) fills
    # exactly 8k bits must get s-bit slots with 2^(s-1) > need.  A width
    # rule one bit short gives s = 8k there, at 8, 16, 32 and 64 bits.
    for order in (105, 330, 2002):
        ctx = _context(order)
        bound, height = ctx.row_bound, ctx.phi_height
        for k in range(1 if order == 105 else 2, 9):
            weight = max(1, -((height - 2 ** (8 * k - 1)) // (2 * bound)))
            need = 2 * weight * bound + height
            assert need.bit_length() == 8 * k, (order, k)
            assert weight == 1 or (need - 2 * bound).bit_length() < 8 * k, (order, k)
            assert 2 ** (8 * ctx.slots(weight).width - 1) > need, (order, k)


def test_sum_of_zeta_powers_checks_order_before_exponents():
    def exploding():
        raise AssertionError("exponents were read")
        yield 0
    with pytest.raises(ValueError, match="exceeds MAX_ORDER"):
        sum_of_zeta_powers(10007, exploding())


def test_zeta_pow_examples():
    assert zeta_pow(4, 2) == CyclotomicElement.from_int(4, -1)
    assert zeta_pow(6, 2).coeffs == (-1, 1)
    assert zeta_pow(5, 5) == CyclotomicElement.from_int(5, 1)
    assert zeta_pow(5, -1) == zeta_pow(5, 4)


def test_add_examples():
    z3 = zeta_pow(3, 1)
    assert z3 + zeta_pow(3, 2) == CyclotomicElement.from_int(3, -1)
    z = CyclotomicElement(12, (3, -1, 0, 2))
    assert z + CyclotomicElement.from_int(12, 0) == z
    assert not any((zeta_pow(4, 1) + zeta_pow(4, 3)).coeffs)


def test_mul_examples():
    i = zeta_pow(4, 1)
    assert i * i == CyclotomicElement.from_int(4, -1)
    one = CyclotomicElement.from_int(4, 1)
    assert (one + i) * (one - i) == CyclotomicElement.from_int(4, 2)
    assert zeta_pow(6, 1) * zeta_pow(6, 5) == CyclotomicElement.from_int(6, 1)


def test_int_operands():
    z = zeta_pow(8, 3)
    assert z * 2 == z + z
    assert 1 + z - 1 == z
    assert 0 * z == CyclotomicElement.from_int(8, 0)


def test_int_on_the_left_and_non_int_operands():
    z = zeta_pow(12, 1)
    assert 3 - z == CyclotomicElement.from_int(12, 3) - z
    for op in (lambda: z + 1.5, lambda: z - "a", lambda: z * 1.5, lambda: 1.5 - z):
        with pytest.raises(TypeError):
            op()


def test_order_mismatch_rejected():
    with pytest.raises(OrderMismatchError):
        zeta_pow(3, 1) + zeta_pow(6, 2)
    with pytest.raises(OrderMismatchError):
        zeta_pow(3, 1) * zeta_pow(6, 2)


def test_conjugate_examples():
    for n, k in [(5, 1), (8, 3), (12, 7), (9, 4)]:
        assert zeta_pow(n, k).conjugate() == zeta_pow(n, n - k)
    one = CyclotomicElement.from_int(3, 1)
    assert (one + zeta_pow(3, 1)).conjugate() == -zeta_pow(3, 1)
    assert CyclotomicElement.from_int(20, -7).conjugate() == CyclotomicElement.from_int(20, -7)


def test_conjugate_is_involutive_automorphism():
    rng = random.Random(11)
    for order in (1, 2, 3, 4, 6, 8, 9, 12, 15, 16, 20, 24, 30, 36, 45, 60):
        deg = euler_phi(order)
        for _ in range(20):
            a = CyclotomicElement(order, tuple(rng.randint(-9, 9) for _ in range(deg)))
            b = CyclotomicElement(order, tuple(rng.randint(-9, 9) for _ in range(deg)))
            assert a.conjugate().conjugate() == a
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()
            assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_norm_squared_examples():
    one = CyclotomicElement.from_int(4, 1)
    assert (one + zeta_pow(4, 1)).norm_squared() == CyclotomicElement.from_int(4, 2)
    for n, k in [(7, 3), (12, 5), (30, 17)]:
        assert zeta_pow(n, k).norm_squared() == CyclotomicElement.from_int(n, 1)


def test_norm_squared_multiplicative():
    rng = random.Random(13)
    for order in (3, 4, 5, 8, 12, 18, 24, 40, 60):
        deg = euler_phi(order)
        for _ in range(15):
            a = CyclotomicElement(order, tuple(rng.randint(-5, 5) for _ in range(deg)))
            b = CyclotomicElement(order, tuple(rng.randint(-5, 5) for _ in range(deg)))
            assert (a * b).norm_squared() == a.norm_squared() * b.norm_squared()


def test_norm_squared_matches_ring_product():
    # One packed product folded by x^N = 1 against z * conj(z): at every
    # order up to 60 and at large ones (odd primes among them, where the two
    # folded halves overlap), with coefficients up to 9, 10^6 and 10^12;
    # the last need slots wider than 8 bytes.
    rng = random.Random(1901)
    for order in [*range(1, 61), 105, 330, 390, 930, 1001, 2002, 9240, 9700, 9973]:
        deg = euler_phi(order)
        for scale in (9, 10 ** 6, 10 ** 12):
            z = CyclotomicElement(order, tuple(rng.randint(-scale, scale) for _ in range(deg)))
            assert z.norm_squared() == z * z.conjugate(), (order, scale)


def _vector_of_weight(rng, deg, weight):
    """phi coordinates with random signs whose absolute values sum to weight."""
    parts = min(deg, weight)
    cuts = sorted(rng.sample(range(1, weight), parts - 1))
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, weight])]
    coeffs = [0] * deg
    for i, size in zip(rng.sample(range(deg), parts), sizes):
        coeffs[i] = rng.choice((size, -size))
    return tuple(coeffs)


def test_norm_squared_at_each_slot_width():
    # The smallest sa (sum of |c_i|) whose width slots(sa * sa) first
    # reaches 2, 4, 8 and more than 8 bytes: the vector with sa in one
    # coordinate, and spread ones, against z * conj(z).
    rng = random.Random(1902)
    for order in (105, 330, 2002):
        ctx, deg = _context(order), euler_phi(order)
        for width in (2, 4, 8, 9):
            lo, hi = 0, 2 ** 64  # slots(lo^2) is narrower than width, slots(hi^2) is not
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if ctx.slots(mid * mid).width >= width else (mid, hi)
            assert ctx.slots(hi * hi).width >= width > ctx.slots(lo * lo).width, (order, width)
            vectors = [(hi,) + (0,) * (deg - 1), (0,) * (deg - 1) + (-hi,)]
            vectors += [_vector_of_weight(rng, deg, hi) for _ in range(3)]
            for coeffs in vectors:
                z = CyclotomicElement(order, coeffs)
                assert z.norm_squared() == z * z.conjugate(), (order, width)


def test_embed_examples():
    assert zeta_pow(3, 1).embed(6) == zeta_pow(6, 2)
    assert CyclotomicElement.from_int(5, 2).embed(20) == CyclotomicElement.from_int(20, 2)
    assert zeta_pow(3, 1).embed(12) == zeta_pow(12, 4)


def test_embed_rejects_non_divisible():
    with pytest.raises(ValueError):
        zeta_pow(5, 1).embed(7)


def test_embed_is_injective_ring_homomorphism():
    rng = random.Random(17)
    for order, target in [(3, 6), (4, 12), (6, 30), (10, 40), (12, 60)]:
        deg = euler_phi(order)
        for _ in range(15):
            a = CyclotomicElement(order, tuple(rng.randint(-9, 9) for _ in range(deg)))
            b = CyclotomicElement(order, tuple(rng.randint(-9, 9) for _ in range(deg)))
            ea, eb = a.embed(target), b.embed(target)
            assert (a + b).embed(target) == ea + eb
            assert (a * b).embed(target) == ea * eb
            if a != b:
                assert ea != eb


def test_galois_examples():
    z = CyclotomicElement(10, (1, 2, 0, -1))
    assert z.galois(1) == z
    assert z.galois(9) == z.conjugate()
    assert zeta_pow(6, 1).galois(5) == zeta_pow(6, 5)
    with pytest.raises(ValueError):
        zeta_pow(6, 1).galois(2)
    with pytest.raises(ValueError):
        zeta_pow(6, 1).galois(3)


def test_galois_composition_and_automorphism():
    rng = random.Random(19)
    for order in (5, 7, 8, 9, 12, 15, 16, 21, 36, 60):
        units = [k for k in range(1, order) if gcd(k, order) == 1]
        deg = euler_phi(order)
        for _ in range(10):
            a = CyclotomicElement(order, tuple(rng.randint(-9, 9) for _ in range(deg)))
            b = CyclotomicElement(order, tuple(rng.randint(-9, 9) for _ in range(deg)))
            k, j = rng.choice(units), rng.choice(units)
            assert a.galois(k).galois(j) == a.galois(k * j % order)
            assert (a + b).galois(k) == a.galois(k) + b.galois(k)
            assert (a * b).galois(k) == a.galois(k) * b.galois(k)


def test_in_subfield_examples():
    assert CyclotomicElement.from_int(12, 1).in_subfield(4)
    assert CyclotomicElement.from_int(12, 1).in_subfield(1)
    # zeta_3 sits inside Q(zeta_6) but sigma_5 moves it out of Q = Q(zeta_2)
    assert not zeta_pow(3, 1).embed(6).in_subfield(2)
    assert zeta_pow(6, 2).in_subfield(3)
    assert zeta_pow(12, 3).in_subfield(4)
    assert not zeta_pow(12, 4).in_subfield(4)
    with pytest.raises(ValueError):
        zeta_pow(12, 1).in_subfield(5)


def test_in_subfield_matches_construction():
    # Elements embedded from Q(zeta_d) must pass the membership test; adding
    # zeta_N itself must fail whenever phi(N) > phi(d).
    rng = random.Random(23)
    for d, order in [(2, 10), (3, 12), (4, 20), (5, 15), (6, 30), (4, 12)]:
        deg = euler_phi(d)
        for _ in range(10):
            inside = CyclotomicElement(d, tuple(rng.randint(-9, 9) for _ in range(deg)))
            lifted = inside.embed(order)
            assert lifted.in_subfield(d)
            assert not (lifted + zeta_pow(order, 1)).in_subfield(d)


def test_in_subfield_matches_every_k():
    # Checking generators only against checking every k, at N = 120, whose
    # groups of k = 1 (mod d) are not all cyclic.  Orbit sums over <k>, and
    # z + sigma_k(z), are fixed by a subgroup that need not be all of them,
    # so each divisor d sees both answers.
    rng = random.Random(1903)
    order = 120
    deg = euler_phi(order)
    answers = set()
    for k in (k for k in range(1, order) if gcd(k, order) == 1):
        z = CyclotomicElement(order, tuple(rng.randint(-9, 9) for _ in range(deg)))
        orbit, power = z, k
        while power != 1:
            orbit, power = orbit + z.galois(power), power * k % order
        for element in (orbit, z + z.galois(k)):
            for d in (d for d in range(1, order + 1) if order % d == 0):
                answer = element.in_subfield(d)
                assert answer == in_subfield_every_k(element, d), (k, d)
                answers.add(answer)
    assert answers == {True, False}


def test_as_integer():
    assert CyclotomicElement.from_int(7, 1).as_integer() == 1
    assert (zeta_pow(3, 1) + zeta_pow(3, 2)).as_integer() == -1
    assert zeta_pow(5, 1).as_integer() is None
    assert CyclotomicElement.from_int(9, -42).as_integer() == -42


def test_sum_of_zeta_powers_matches_explicit_addition():
    rng = random.Random(29)
    for order in (2, 3, 7, 10, 12, 36):
        for _ in range(10):
            exponents = [rng.randrange(-2 * order, 2 * order) for _ in range(8)]
            total = CyclotomicElement.from_int(order, 0)
            for e in exponents:
                total = total + zeta_pow(order, e)
            assert sum_of_zeta_powers(order, exponents) == total


def test_full_root_sum_vanishes():
    # 1 + zeta + ... + zeta^(N-1) = 0 for every N > 1.
    for n in range(2, 40):
        assert not any(sum_of_zeta_powers(n, range(n)).coeffs)


def test_ring_axioms_random_sample():
    rng = random.Random(31)
    for order in (1, 2, 5, 6, 12, 25, 30, 48, 60):
        deg = euler_phi(order)
        one = CyclotomicElement.from_int(order, 1)
        zero = CyclotomicElement.from_int(order, 0)
        for _ in range(50):
            a, b, c = (CyclotomicElement(order, tuple(rng.randint(-9, 9) for _ in range(deg)))
                       for _ in range(3))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            ab = a * b
            assert ab == b * a
            assert (ab) * c == a * (b * c)
            assert a * (b + c) == ab + a * c
            assert a * one == a
            assert a + zero == a
            assert not any((a * zero).coeffs)


def test_order_guards():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)
    with pytest.raises(ValueError):
        cyclotomic_polynomial(MAX_ORDER + 1)
    with pytest.raises(ValueError):
        zeta_pow(-3, 1)
    with pytest.raises(ValueError):
        zeta_pow(5, 1).embed(5 * MAX_ORDER)


def test_coefficient_vector_length_enforced():
    with pytest.raises(ValueError):
        CyclotomicElement(6, (1, 2, 3))
