"""Command-line front end: verification, classification, exact values.

Output is a plain table or JSON lines; every printed quantity is an integer
or an integer coefficient vector, never a float.  Exit status: 0 success,
1 verification failure or mismatch (for ``remark_p_divides_n``: no witness
found), 2 usage or hypothesis errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import modp, spectral, verify
from .cyclo import CyclotomicElement
from .modp import DEFAULT_BUDGET, parse_unit_function

_REPORT_HEADER = (f"{'statement':<22} {'p':>4} {'n':>4} {'functions':>10} "
                  f"{'spectral':>9} {'oracle':>7} {'mismatches':>11} "
                  f"{'elapsed_ms':>11}  status")


def _positive_int(text: str) -> int:
    """A positive decimal integer: the check on --budget."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a decimal integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _emit_json(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


def _coeff_text(coeffs) -> str:
    return ",".join(map(str, coeffs))


def _int_or_none_text(value) -> str:
    return "none" if value is None else str(value)


def _print_report_row(rep: verify.VerificationReport) -> None:
    status = "ok" if rep.success else "FAIL"
    if rep.error is not None:
        status = f"error: {rep.error}"
    print(f"{rep.statement:<22} {_int_or_none_text(rep.p):>4} "
          f"{_int_or_none_text(rep.n):>4} {rep.total_functions:>10} "
          f"{rep.passing_spectral:>9} {rep.passing_oracle:>7} "
          f"{len(rep.mismatches):>11} {rep.elapsed_ms:>11}  {status}")


def _print_report_details(rep: verify.VerificationReport, show_witnesses: bool) -> None:
    for exps in rep.mismatches:
        print(f"    mismatch exps={_coeff_text(exps)}")
    if show_witnesses:
        for exps, a in rep.witnesses:
            print(f"    witness exps={_coeff_text(exps)} a={_int_or_none_text(a)}")


def _cmd_verify(args) -> int:
    if args.statement == "all":
        if args.p is not None or args.n is not None:
            raise ValueError("--statement all runs the default grid; omit --p and --n")
        reports = verify.verify_grid(verify.default_grid(), args.budget)
    else:
        reports = [verify.run_statement(args.statement, args.p, args.n, args.budget)]
    if args.output == "json":
        for rep in reports:
            _emit_json(rep.to_json_dict())
    else:
        print(_REPORT_HEADER)
        for rep in reports:
            _print_report_row(rep)
            _print_report_details(rep, args.witnesses)
        failed = sum(1 for rep in reports if not rep.success)
        print(f"cells={len(reports)} ok={len(reports) - failed} failed={failed}")
    return 0 if all(rep.success for rep in reports) else 1


def _cmd_classify(args) -> int:
    f = parse_unit_function(args.fn)
    warnings = []
    if f.n % f.p == 0:
        warnings.append("p divides n")
    if f.exps[0] != 0:
        warnings.append("f(1) != 1")
    applicable = not warnings
    # The spectral side goes first: it refuses an order above MAX_ORDER at
    # once, while the oracle is quadratic in p.
    witness = spectral.spectral_witness(f) if applicable else None
    spectral_hit = (witness is not None) if applicable else None
    oracle_hit = modp.is_character_oracle(f)
    consistent = True
    if applicable:
        consistent = spectral_hit == (oracle_hit and not f.is_trivial)
    record = {
        "command": "classify",
        "p": f.p,
        "n": f.n,
        "exps": list(f.exps),
        "oracle": oracle_hit,
        "trivial": f.is_trivial,
        "spectral": spectral_hit,
        "witness": witness,
        "applicable": applicable,
        "warnings": warnings,
        "consistent": consistent,
    }
    if args.output == "json":
        _emit_json(record)
    else:
        print(f"function   {f.to_text()}")
        if oracle_hit:
            kind = "trivial" if f.is_trivial else "nontrivial"
            print(f"oracle     character ({kind})")
        else:
            print("oracle     not a character")
        if not applicable:
            print(f"spectral   not applicable ({'; '.join(warnings)})")
        elif spectral_hit:
            print(f"spectral   nontrivial character (witness a={witness})")
        else:
            print("spectral   not a nontrivial character")
        print("status     " + ("consistent" if consistent
                               else "INTERNAL ERROR: spectral and oracle disagree"))
    return 0 if consistent else 1


def _emit_value(args, f, value: CyclotomicElement, params=(), norm=None, flags=()) -> int:
    """Print one exact value computed from f, as a table or one JSON record.

    ``params`` are the (name, int) inputs besides f, ``norm`` is the value's
    norm_squared when the command reports it, and ``flags`` are (name, bool)
    conclusions printed last.
    """
    if args.output == "json":
        record = {"command": args.subcommand, "p": f.p, "n": f.n, "exps": list(f.exps),
                  "order": value.order, "coeffs": list(value.coeffs),
                  "integer": value.as_integer()}
        record.update(params)
        if norm is not None:
            record["norm_squared_coeffs"] = list(norm.coeffs)
            record["norm_squared_integer"] = norm.as_integer()
        record.update(flags)
        _emit_json(record)
        return 0
    print(f"function   {f.to_text()}")
    for name, v in params:
        print(f"{name:<11}{v}")
    print(f"order    {value.order}")
    print(f"coeffs   {_coeff_text(value.coeffs)}")
    print(f"integer  {_int_or_none_text(value.as_integer())}")
    if norm is not None:
        print(f"norm_squared  {_coeff_text(norm.coeffs)}"
              f" (integer {_int_or_none_text(norm.as_integer())})")
    for name, flag in flags:
        print(f"{name}  {'true' if flag else 'false'}")
    return 0


def _cmd_gauss_sum(args) -> int:
    f = parse_unit_function(args.fn)
    value = spectral.gauss_sum(f).value
    return _emit_value(args, f, value, norm=spectral.fourier_norm(f, -1))


def _cmd_fourier(args) -> int:
    f = parse_unit_function(args.fn)
    value = spectral.fourier_sum(f, args.xi).value
    norm = spectral.fourier_norm(f, args.xi)
    return _emit_value(args, f, value, [("xi", args.xi % f.p)], norm,
                       [("unit_magnitude", norm.as_integer() == f.p)])


def _cmd_autocorr(args) -> int:
    f = parse_unit_function(args.fn)
    return _emit_value(args, f, spectral.autocorrelation(f, args.h), [("h", args.h % f.p)])


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


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
