"""Reference helpers that only the tests need, kept out of the package.

Multiplicative characters mod p, built directly from a primitive root; the
tests use these to produce known characters and compare them with what the
package's criteria and oracle pick out.  Beside them, plain integer
polynomial arithmetic, the modular inverse, the Legendre symbol, the size of
an enumeration, the Parseval total and the autocorrelation criterion over
every shift: each restates a definition that the package itself never
needs.  Then the value-sum screen that ``spectral.bucket_screen``
replaced, the dense verification loop, which judges every table where
the package's loop judges only those a verdict lists, and the subfield
test at every k, where the package checks only generators.  Then the
argparse parser the CLI's table-driven one replaced, as the cross-check of
what a command line means, and the regular-expression parser of function
text that ``modp.parse_unit_function``'s ``str`` methods replaced.  Last,
sympy's remainder mod Phi_N, the outside reference for every reduction; it
imports sympy only when called, so the tests that use it skip without
sympy.
"""

import argparse
import functools
import re
from math import gcd, lcm

from gausschar import verify
from gausschar.cli import _cmd_autocorr, _cmd_classify, _cmd_fourier, _cmd_gauss_sum, _cmd_verify
from gausschar.cyclo import CyclotomicElement, _Frozen, euler_phi
from gausschar.modp import DEFAULT_BUDGET, UnitFunction, check_odd_prime, find_primitive_root
from gausschar.spectral import _split_prime, _sumset_screen, autocorrelation, fourier_norm
from gausschar.verify import VerificationReport


def _multiplicative_order(g: int, p: int) -> int:
    if g % p == 0:
        return 0
    k, acc = 1, g % p
    while acc != 1:
        acc = acc * g % p
        k += 1
    return k


class Character(_Frozen):
    """The multiplicative character chi_j with chi_j(g^t) = e(j*t / (p-1));
    an immutable value (``cyclo._Frozen``), equal to another exactly when p,
    g and j are."""

    __slots__ = _fields = ("p", "g", "j")

    def __init__(self, p: int, g: int, j: int):
        check_odd_prime(p)
        if not 0 <= j < p - 1:
            raise ValueError(f"character index must lie in [0, {p - 1})")
        if _multiplicative_order(g, p) != p - 1:
            raise ValueError(f"{g} does not generate the units modulo {p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "j", j)

    @property
    def is_trivial(self) -> bool:
        return self.j == 0

    @property
    def order(self) -> int:
        """Order of the character as an element of the dual group."""
        return (self.p - 1) // gcd(self.j, self.p - 1)

    def unit_function(self, n: "int | None" = None) -> UnitFunction:
        """The character as a mu_n-valued table (default n = p - 1).

        Requires the character order to divide n, so that every value is an
        n-th root of unity.
        """
        p = self.p
        if n is None:
            n = p - 1
        if self.j * n % (p - 1) != 0:
            raise ValueError(
                f"character of order {self.order} does not take values in mu_{n}")
        scale = self.j * n // (p - 1)
        exps = [0] * (p - 1)
        x = 1
        for t in range(p - 1):
            exps[x - 1] = scale * t % n
            x = x * self.g % p
        return UnitFunction(p, n, tuple(exps))


def enumerate_characters(p: int, n: int) -> list:
    """All characters mod p whose values are n-th roots of unity, by index.

    These are the chi_j whose order (p-1)/gcd(j, p-1) divides n; there are
    exactly gcd(n, p-1) of them, the trivial character first.
    """
    check_odd_prime(p)
    if n < 1:
        raise ValueError(f"value order n must be at least 1, got {n}")
    g = find_primitive_root(p)
    return [Character(p, g, j) for j in range(p - 1) if j * n % (p - 1) == 0]


# ---------------------------------------------------------------------------
# Integer polynomials: coefficient tuples, constant term first, no trailing
# zeros.  The zero polynomial is the empty tuple.

def poly_trim(coeffs) -> tuple:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return poly_trim(out)


def evaluate_poly(poly: tuple, z: CyclotomicElement) -> CyclotomicElement:
    """Evaluate an integer polynomial at a cyclotomic element (Horner)."""
    acc = CyclotomicElement.from_int(z.order, 0)
    for c in reversed(poly):
        acc = acc * z + c
    return acc


# ---------------------------------------------------------------------------
# Arithmetic mod p.

def mod_inverse(a: int, p: int) -> int:
    """The unique b in [1, p) with a*b = 1 (mod p); a must be a unit."""
    check_odd_prime(p)
    if a % p == 0:
        raise ZeroDivisionError(f"{a} is 0 mod {p} and has no inverse")
    return pow(a, -1, p)


def legendre_symbol(a: int, p: int) -> int:
    """1 for nonzero squares mod p, -1 for nonsquares, 0 when p divides a.

    Decided by membership in the explicit square set, not by a power
    computation.
    """
    check_odd_prime(p)
    a %= p
    if a == 0:
        return 0
    return 1 if a in {x * x % p for x in range(1, p)} else -1


def count_unit_functions(p: int, n: int, fix_f1: bool) -> int:
    """Size of the enumeration: n^(p-2) with f(1) pinned, n^(p-1) without."""
    return n ** (p - 2 if fix_f1 else p - 1)


# ---------------------------------------------------------------------------
# Parseval.

class InconsistencyError(RuntimeError):
    """An exact identity failed; indicates a bug in the package."""


def parseval_sum(f: UnitFunction) -> int:
    """Sum of norm_squared(S_xi) over all xi in F_p, as an exact integer.

    Always equals p*(p-1); a non-rational total means the arithmetic core is
    broken and raises InconsistencyError.
    """
    total = CyclotomicElement.from_int(lcm(f.n, f.p), 0)
    for xi in range(f.p):
        total = total + fourier_norm(f, xi)
    value = total.as_integer()
    if value is None:
        raise InconsistencyError("Parseval sum is not a rational integer")
    return value


# ---------------------------------------------------------------------------
# The autocorrelation criterion.

def kurlberg_all_shifts(f: UnitFunction) -> bool:
    """The autocorrelation criterion as defined: f(1) = 1 and the
    autocorrelation is exactly -1 at every shift 1 <= h <= p - 1."""
    return f.exps[0] == 0 and all(
        autocorrelation(f, h).as_integer() == -1 for h in range(1, f.p))


def flat_screen(p: int, n: int) -> list:
    """The value-sum screen ``spectral.bucket_screen`` replaced for
    ``thm_1_7``: the sorted indices of the tables f with f(1) = 1 whose
    value sum S_0 = sum of f(x) has image 0 in the split prime field of n.
    A flat profile forces S_0 = 0, so every flat table passes."""
    ell, pw = _split_prime(n)
    return _sumset_screen([[pw[:1]] + [pw] * (p - 2)], ell)


# ---------------------------------------------------------------------------
# The dense verification loop.

def dense_run(statement: str, p: int, n: int, judge, functions, judged) -> VerificationReport:
    """``verify._tally`` as it was before it skipped the tables that neither
    verdict lists: call the judge on every function of the opened cell,
    whatever ``judged`` lists, and tally the report."""
    rep = VerificationReport(statement, p, n)
    for f in functions:
        spectral_hit, oracle_hit, agrees, witness = judge(f)
        rep.total_functions += 1
        rep.passing_spectral += spectral_hit
        rep.passing_oracle += oracle_hit
        if witness is not None:
            rep.witnesses.append(witness)
        if not agrees:
            rep.mismatches.append(f.exps)
    rep.success = not rep.mismatches
    return rep


# ---------------------------------------------------------------------------
# Subfield membership at every k.

def in_subfield_every_k(z: CyclotomicElement, d: int) -> bool:
    """``CyclotomicElement.in_subfield`` as it was before it checked only
    generators: z lies in Q(zeta_d) iff sigma_k fixes it for every k = 1
    (mod d) coprime to the order."""
    n = z.order
    if d < 1 or n % d != 0:
        raise ValueError(f"subfield order {d} does not divide the element order {n}")
    for k in range(1 + d, n, d):
        if gcd(k, n) == 1 and z.galois(k) != z:
            return False
    return True


# ---------------------------------------------------------------------------
# The argparse parser of the CLI.

def _positive_int(text: str) -> int:
    """A positive decimal integer: the check on --budget."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a decimal integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausschar",
        description="Exact Gauss sums, Fourier magnitude tests and exhaustive "
                    "character verification over F_p.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_output(sp):
        sp.add_argument("--output", choices=("table", "json"), default="table",
                        help="output format (default: table)")

    sp = sub.add_parser("verify", help="run an exhaustive verification")
    sp.add_argument("--statement", required=True,
                    choices=verify.STATEMENTS + ("all",),
                    help="statement identifier, or 'all' for the default grid")
    sp.add_argument("--p", type=int, default=None, help="odd prime modulus")
    sp.add_argument("--n", type=int, default=None, help="value order")
    sp.add_argument("--witnesses", action="store_true",
                    help="list per-function witnesses in table output")
    sp.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET,
                    help=f"enumeration budget, a positive integer (default: {DEFAULT_BUDGET})")
    add_output(sp)
    sp.set_defaults(handler=_cmd_verify)

    sp = sub.add_parser("classify", help="run both character tests on one function")
    sp.add_argument("--fn", required=True,
                    help="function text: 'p=<p> n=<n> exps=<k_1>,...,<k_{p-1}>'")
    add_output(sp)
    sp.set_defaults(handler=_cmd_classify)

    sp = sub.add_parser("gauss-sum", help="exact Gauss sum of one function")
    sp.add_argument("--fn", required=True, help="function text")
    add_output(sp)
    sp.set_defaults(handler=_cmd_gauss_sum)

    sp = sub.add_parser("fourier", help="exact unnormalized Fourier coefficient")
    sp.add_argument("--fn", required=True, help="function text")
    sp.add_argument("--xi", required=True, type=int, help="frequency (reduced mod p)")
    add_output(sp)
    sp.set_defaults(handler=_cmd_fourier)

    sp = sub.add_parser("autocorr", help="exact autocorrelation at one shift")
    sp.add_argument("--fn", required=True, help="function text")
    sp.add_argument("--h", required=True, type=int, help="shift (reduced mod p)")
    add_output(sp)
    sp.set_defaults(handler=_cmd_autocorr)

    return parser


# ---------------------------------------------------------------------------
# The regular-expression parser of function text.

_FUNCTION_RE = re.compile(
    r"\s*p\s*=\s*(\d+)\s+n\s*=\s*(\d+)\s+exps\s*=\s*([0-9,\s]+?)\s*$")


def parse_unit_function(text: str) -> UnitFunction:
    """Parse the textual format ``p=<p> n=<n> exps=<k_1>,...,<k_{p-1}>``.

    Whitespace-tolerant; exponents are validated against [0, n).
    """
    m = _FUNCTION_RE.match(text)
    if not m:
        raise ValueError(
            "malformed function text; expected "
            "'p=<int> n=<int> exps=<comma-separated ints>'")
    p, n = int(m.group(1)), int(m.group(2))
    try:
        exps = tuple(int(tok.strip()) for tok in m.group(3).split(","))
    except ValueError:
        raise ValueError("bad exponent list; expected comma-separated integers") from None
    return UnitFunction(p, n, exps)


# ---------------------------------------------------------------------------
# sympy's reduction mod Phi_N.

@functools.lru_cache(maxsize=None)
def _sympy_cyclotomic(order: int) -> list:
    import sympy
    from sympy.polys.domains import ZZ
    x = sympy.Symbol("x")
    return [ZZ(int(c)) for c in sympy.Poly(sympy.cyclotomic_poly(order, x), x).all_coeffs()]


def sympy_remainder(order: int, terms: dict) -> tuple:
    """Power-basis coordinates of the sum of c * x^e over ``terms`` ({e: c},
    any e >= 0, no folding by x^N = 1): sympy's dense remainder over ZZ mod
    Phi_order (the polynomial-level routine, about 20x faster than Poly.rem
    at order 2002)."""
    from sympy.polys.densearith import dup_rem
    from sympy.polys.densebasic import dup_strip
    from sympy.polys.domains import ZZ
    dense = [0] * (max(terms, default=0) + 1)
    for e, c in terms.items():
        dense[e] += c
    dividend = dup_strip([ZZ(c) for c in reversed(dense)])
    rem = [int(c) for c in reversed(dup_rem(dividend, _sympy_cyclotomic(order), ZZ))]
    return tuple(rem + [0] * (euler_phi(order) - len(rem)))
