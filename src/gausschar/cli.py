"""Command-line front end: verification, classification, exact values.

Output is a plain table or JSON lines; every printed quantity is an integer
or an integer coefficient vector, never a float.  Exit status: 0 success,
1 verification failure or mismatch (for ``remark_p_divides_n``: no witness
found), or a reader that closed the output early, 2 usage or hypothesis
errors.

The command line is read against one table, ``_COMMANDS``, which gives each
subcommand its handler, its help line and its options; the same table
writes ``--help``.  Options are ``--opt value`` or ``--opt=value``, in any
order, the last repeat winning, and long options are never abbreviated.
Integers are an optional sign and ASCII digits.  argparse is not used: its
import, with gettext, and the build of its parsers cost more than the
package's own import and, in most commands, more than the arithmetic.
Nor is json, whose import compiles regular expressions: ``_json_text``
writes each record itself, byte for byte as ``json.dumps`` with sorted
keys would, and imports json only for a string that needs escapes.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import modp, spectral, verify
from .cyclo import MAX_ORDER, CyclotomicElement
from .modp import DEFAULT_BUDGET, _is_digits, parse_unit_function

_REPORT_HEADER = (f"{'statement':<22} {'p':>4} {'n':>4} {'functions':>10} "
                  f"{'spectral':>9} {'oracle':>7} {'mismatches':>11} "
                  f"{'elapsed_ms':>11}  status")


def _json_text(value) -> str:
    """``json.dumps(value, sort_keys=True)`` for the values a record holds:
    None, bools, ints, strings, lists, tuples and dicts keyed by strings.
    A string of printable ASCII with no quote or backslash is quoted as it
    is; any other string, or any other value, goes to ``json.dumps``."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_json_text, value)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_json_text(key)}: {_json_text(item)}"
                               for key, item in sorted(value.items())) + "}"
    if (isinstance(value, str) and value.isascii() and value.isprintable()
            and '"' not in value and "\\" not in value):
        return f'"{value}"'
    import json
    return json.dumps(value, sort_keys=True)


def _emit_json(record: dict) -> None:
    print(_json_text(record))


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
    # The oracle is quadratic in p, so an order above MAX_ORDER is refused
    # before it runs: by the spectral side, which goes first, or here, where
    # that side is skipped.
    if not applicable and f.p > MAX_ORDER:
        raise ValueError(f"modulus {f.p} exceeds MAX_ORDER = {MAX_ORDER}")
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


def _integer(text: str) -> int:
    """A decimal integer: an optional sign, then ASCII digits and nothing else."""
    if not _is_digits(text[1:] if text[:1] in ("+", "-") else text):
        raise ValueError(f"must be a decimal integer, got {text!r}")
    return int(text)


def _positive(text: str) -> int:
    """A positive decimal integer: the check on --budget."""
    value = _integer(text)
    if value < 1:
        raise ValueError(f"must be positive, got {value}")
    return value


_DESCRIPTION = ("Exact Gauss sums, Fourier magnitude tests and exhaustive "
                "character verification over F_p.")
_HELP = ("-h", "--help")

# Each option maps to (kind, required, default, help).  The kind is a
# function from the option's text to its value, a tuple of the words it
# accepts, or None for a flag, which takes no value and sets True.
_FN = {"--fn": (str, True, None, "function text")}
_OUTPUT = {"--output": (("table", "json"), False, "table", "output format (default: table)")}

# subcommand -> (handler, help, options)
_COMMANDS = {
    "verify": (_cmd_verify, "run an exhaustive verification", {
        "--statement": (verify.STATEMENTS + ("all",), True, None,
                        "statement identifier, or 'all' for the default grid"),
        "--p": (_integer, False, None, "odd prime modulus"),
        "--n": (_integer, False, None, "value order"),
        "--witnesses": (None, False, False, "list per-function witnesses in table output"),
        "--budget": (_positive, False, DEFAULT_BUDGET,
                     f"enumeration budget, a positive integer (default: {DEFAULT_BUDGET})"),
        **_OUTPUT}),
    "classify": (_cmd_classify, "run both character tests on one function", {
        "--fn": (str, True, None, "function text: 'p=<p> n=<n> exps=<k_1>,...,<k_{p-1}>'"),
        **_OUTPUT}),
    "gauss-sum": (_cmd_gauss_sum, "exact Gauss sum of one function", {**_FN, **_OUTPUT}),
    "fourier": (_cmd_fourier, "exact unnormalized Fourier coefficient", {
        **_FN, "--xi": (_integer, True, None, "frequency (reduced mod p)"), **_OUTPUT}),
    "autocorr": (_cmd_autocorr, "exact autocorrelation at one shift", {
        **_FN, "--h": (_integer, True, None, "shift (reduced mod p)"), **_OUTPUT}),
}


def _invocation(name: str, kind) -> str:
    if kind is None:
        return name
    metavar = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else name[2:].upper()
    return f"{name} {metavar}"


def _usage(sub) -> str:
    if sub is None:
        return "usage: gausschar [-h] {" + ",".join(_COMMANDS) + "} ..."
    parts = ["[-h]"]
    for name, (kind, required, _, _) in _COMMANDS[sub][2].items():
        part = _invocation(name, kind)
        parts.append(part if required else f"[{part}]")
    return f"usage: gausschar {sub} " + " ".join(parts)


def _help(sub) -> str:
    if sub is None:
        heading, rows = "commands", [(name, text) for name, (_, text, _) in _COMMANDS.items()]
        about = _DESCRIPTION
    else:
        heading, rows = "options", [(", ".join(_HELP), "show this help message and exit")]
        rows += [(_invocation(name, kind), text)
                 for name, (kind, _, _, text) in _COMMANDS[sub][2].items()]
        about = _COMMANDS[sub][1]
    lines = [_usage(sub), "", about, "", f"{heading}:"]
    for left, text in rows:
        # A long invocation (the statement list) puts its help on the next line.
        lines += [f"  {left:<20}  {text}"] if len(left) <= 20 else [f"  {left}", " " * 24 + text]
    return "\n".join(lines)


def _print_help(sub):
    """Print the help and exit 0; the flush makes a closed pipe fail here,
    inside ``main``'s handler, and not at exit."""
    print(_help(sub))
    sys.stdout.flush()
    raise SystemExit(0)


def _fail(sub, message: str):
    """Write the usage line and the error to stderr and exit 2."""
    prog = "gausschar" if sub is None else f"gausschar {sub}"
    sys.stderr.write(f"{_usage(sub)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _parse_args(argv) -> SimpleNamespace:
    """The subcommand, its handler and every option's value, read from
    ``argv`` against ``_COMMANDS``.  Options come as ``--opt value`` or
    ``--opt=value``, in any order, the last repeat winning; ``-h`` or
    ``--help`` prints help and exits 0, and anything else exits 2."""
    if not argv or argv[0] not in _COMMANDS:
        if argv and argv[0] in _HELP:
            _print_help(None)
        _fail(None, f"invalid command {argv[0]!r}" if argv else "a command is required")
    sub = argv[0]
    handler, _, options = _COMMANDS[sub]
    values = {name[2:]: default for name, (_, _, default, _) in options.items()}
    given = set()
    tokens = iter(argv[1:])
    for token in tokens:
        if token in _HELP:
            _print_help(sub)
        name, inline, text = token.partition("=")
        if name not in options:
            _fail(sub, f"unrecognized argument {token!r}")
        kind = options[name][0]
        given.add(name)
        if kind is None:
            if inline:
                _fail(sub, f"argument {name}: takes no value")
            values[name[2:]] = True
            continue
        if not inline:
            text = next(tokens, None)
            if text is None or text.startswith("--"):
                _fail(sub, f"argument {name}: expected one value")
        try:
            if isinstance(kind, tuple) and text not in kind:
                raise ValueError(f"invalid choice: {text!r} "
                                 f"(choose from {', '.join(map(repr, kind))})")
            values[name[2:]] = text if isinstance(kind, tuple) else kind(text)
        except ValueError as exc:
            _fail(sub, f"argument {name}: {exc}")
    missing = [name for name, option in options.items() if option[1] and name not in given]
    if missing:
        _fail(sub, "the following arguments are required: " + ", ".join(missing))
    return SimpleNamespace(subcommand=sub, handler=handler, **values)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        status = args.handler(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return status
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader is gone: point stdout at devnull so the exit flush
        # cannot fail again, and fail, since the output was cut short.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
