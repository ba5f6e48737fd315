"""Command line front end: lattice | diagrams | basis | gram | verify | eval.

Output is deterministic for fixed inputs and seed; JSON documents carry a
"schema": "gt-agkz/1" marker.  Exit codes: 0 ok, 1 check failure, 2 usage.
"""

from __future__ import annotations

import json
import math
import re
import sys
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from types import SimpleNamespace

from .combinatorics import enumerate_diagrams, normalize_weight
from .gtbasis import gram_matrix, representation, solution_basis, weyl_dimension
from .lattice import in_lattice, lattice_basis, lattice_rank
from .polyengine import (
    Polynomial,
    _fraction_str,
    evaluate_at_ones,
    evaluate_minors,
    exponent_to_json,
    poly_from_json,
    subset_to_str,
)

SCHEMA = "gt-agkz/1"

# Largest n accepted where the 2^n - 1 subsets of 1..n are enumerated: lattice
# 12 takes about 1 s, lattice 14 about 5 s, and each step doubles the subsets.
MAX_N = 12


# Commands whose positional argument is a weight.  The argument reader takes
# a token that starts with - for an option unless it is a number such as -1
# or -.5, so a weight like -1,-2,-3 reads as an unknown option and must come
# after --.
WEIGHT_COMMANDS = ("diagrams", "basis", "gram", "verify")
OPTION_LIKE_WEIGHT = re.compile(r"-\d[\d,-]*,[\d,-]*")
NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


class UsageError(Exception):
    pass


def _parse_weight(text):
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse weight {text!r}") from None
    if len(values) < 1:
        raise UsageError("empty weight")
    if any(a < b for a, b in zip(values, values[1:])):
        raise UsageError(f"weight must be weakly decreasing, got {list(values)}")
    return values


def _check_n(n):
    if n > MAX_N:
        raise UsageError(f"n must be at most {MAX_N}, got {n}")


def _to_json(value):
    """Exactly json.dumps(value, indent=2), for documents built from str-keyed
    dicts, lists, str, int, bool and None, with a Polynomial standing for its
    poly_to_json list; anything else (a float, a non-str key) raises
    TypeError.

    With indent set, json.dumps runs the standard library's pure-Python
    encoder.  This writer emits the same layout (two spaces per level, ","
    at line ends, ": " after keys), escapes strings with the C
    encode_basestring_ascii and joins each container's items once, at under
    half the cost on a basis document.  A polynomial is written from its
    numerators, with no dict per term, and each distinct exponent's sort key
    and text are made once per document.
    """
    return _json_text(value, "\n", {})


def _json_text(value, newline, exponents):
    """The text of value whose lines, after its first, start with newline;
    exponents holds the exponent texts of the document (see _polynomial_text)."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            kind = type(item)  # plain ints and strs, the most common values, inline
            if kind is int:
                text = int.__repr__(item)
            elif kind is str:
                text = encode_basestring_ascii(item)
            else:
                text = _json_text(item, inner, exponents)
            items.append(encode_basestring_ascii(key) + ": " + text)
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        items = [  # plain ints, as in rows, weights and gaps, inline
            int.__repr__(item) if type(item) is int else _json_text(item, inner, exponents)
            for item in value
        ]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, Polynomial):
        return _polynomial_text(value, newline, exponents)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _polynomial_text(poly, newline, exponents):
    """The text of poly_to_json(poly) whose lines, after its first, start with
    newline.

    exponents maps the indentation of the "exp" objects to a map from each
    exponent written so far to its sort key and the text of its object, so
    an exponent met again in the document is neither sorted by a new key nor
    written again.
    """
    if poly.is_zero():
        return "[]"
    inner = newline + "  "  # the term objects
    field = inner + "  "  # their "exp" and "coef" lines
    known = exponents.setdefault(field, {})
    terms = []
    for exponent, numerator, denominator in poly.scaled_triples(1):
        written = known.get(exponent)
        if written is None:
            text = _json_text(exponent_to_json(exponent), field, exponents)
            written = known[exponent] = (exponent.sort_key(), text)
        terms.append((*written, numerator, denominator))
    terms.sort(key=itemgetter(0))
    items = [  # a coefficient's text is digits, "-" and "/", which JSON does not escape
        f'{{{field}"exp": {text},{field}"coef": "{_fraction_str(numerator, denominator)}"{inner}}}'
        for _, text, numerator, denominator in terms
    ]
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _emit(text, out_path):
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        try:
            with open(out_path, "w") as handle:
                handle.write(text)
        except OSError as error:
            raise UsageError(f"cannot write {out_path}: {error.strerror}") from None
    else:
        sys.stdout.write(text)


def cmd_lattice(args) -> int:
    n = args.n
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    _check_n(n)
    basis = lattice_basis(n)
    check = all(in_lattice(vec.v) for vec in basis)
    if args.format == "json":
        document = {
            "schema": SCHEMA,
            "n": n,
            "k": len(basis),
            "chi_orthogonal": check,
            "basis": [
                {
                    "i": vec.i,
                    "j": vec.j,
                    "x": vec.x,
                    "X": list(vec.X),
                    "v": exponent_to_json(vec.v),
                    "r": exponent_to_json(vec.r),
                }
                for vec in basis
            ],
        }
        _emit(_to_json(document), args.out)
    else:
        lines = [f"n = {n}: k = {len(basis)} (expected {lattice_rank(n)})"]
        for idx, vec in enumerate(basis):
            lines.append(
                f"  [{idx}] i={vec.i} j={vec.j} x={vec.x} X={{{subset_to_str(vec.X)}}} "
                f"v={exponent_to_json(vec.v)}"
            )
        lines.append(f"chi-orthogonality: {'ok' if check else 'FAILED'}")
        _emit("\n".join(lines), args.out)
    return 0 if check else 1


def cmd_diagrams(args) -> int:
    weight, prefactor = normalize_weight(_parse_weight(args.top_row))
    diagrams = enumerate_diagrams(weight)
    if args.format == "json":
        document = {
            "schema": SCHEMA,
            "top_row": list(weight),
            "full_set_prefactor_power": prefactor,
            "count": len(diagrams),
            "weyl_dimension": weyl_dimension(weight),
            "diagrams": [
                {"rows": [list(row) for row in d.rows], "weight": list(d.weight())}
                for d in diagrams
            ],
        }
        _emit(_to_json(document), args.out)
    else:
        lines = [f"{len(diagrams)} diagrams for top row {list(weight)}"]
        for d in diagrams:
            lines.append(f"  {list(map(list, d.rows))} weight={list(d.weight())}")
        _emit("\n".join(lines), args.out)
    return 0


def _basis_document(top_row):
    weight, prefactor = normalize_weight(top_row)
    basis, table, gt_polys = representation(weight)
    entries = []
    for idx, entry in enumerate(basis.entries):
        entries.append(
            {
                "diagram": [list(row) for row in entry.diagram.rows],
                "weight": list(entry.diagram.weight()),
                "shift": exponent_to_json(entry.shift.gamma),
                "witness": list(entry.witness),
                "gamma_series": entry.gamma_poly,
                "agkz_solution": entry.agkz_poly,
                "gt_function": gt_polys[idx],
                "norm_squared": str(table.norms[idx]),
            }
        )
    coefficients = {
        "C": [
            {"entry": idx, "l": list(l), "value": str(value)}
            for (idx, l), value in sorted(table.C.items())
        ],
        "S": [
            {"entry": idx, "l": list(l), "value": str(value)}
            for (idx, l), value in sorted(table.S.items())
        ],
    }
    return {
        "schema": SCHEMA,
        "n": len(weight),
        "top_row": list(weight),
        "full_set_prefactor_power": prefactor,
        "k": len(lattice_basis(len(weight))),
        "dimension": len(basis.entries),
        "entries": entries,
        "coefficients": coefficients,
    }


def cmd_basis(args) -> int:
    top_row = _parse_weight(args.top_row)
    _check_n(len(top_row))
    document = _basis_document(top_row)
    if args.format == "json":
        _emit(_to_json(document), args.out)
        return 0
    lines = [f"representation {document['top_row']}: dimension {document['dimension']}"]
    for entry in document["entries"]:
        lines.append(
            f"  diagram {entry['diagram']} weight {entry['weight']} |G|^2 = {entry['norm_squared']}"
        )
    _emit("\n".join(lines), args.out)
    return 0


def cmd_gram(args) -> int:
    weight, _ = normalize_weight(_parse_weight(args.top_row))
    _check_n(len(weight))
    gram = gram_matrix(solution_basis(weight))
    if args.format == "json":
        document = {
            "schema": SCHEMA,
            "top_row": list(weight),
            "dimension": len(gram),
            "gram": [[str(value) for value in row] for row in gram],
        }
        _emit(_to_json(document), args.out)
    else:
        lines = [f"gram matrix ({len(gram)} x {len(gram)})"]
        for row in gram:
            lines.append("  " + " ".join(str(value) for value in row))
        _emit("\n".join(lines), args.out)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_checks

    weight, _ = normalize_weight(_parse_weight(args.top_row))
    _check_n(len(weight))
    names = None
    if args.checks:
        names = [part.strip() for part in args.checks.split(",") if part.strip()]
        if not names:
            raise UsageError(f"--checks names no check, got {args.checks!r}")
    results = run_checks(weight, names, seed=args.seed, matrix_count=args.matrices)
    width = max(len(r.name) for r in results)
    lines = []
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        lines.append(f"{status}  {result.name.ljust(width)}  {result.detail}")
    all_passed = all(r.passed for r in results)
    lines.append("all checks passed" if all_passed else "SOME CHECKS FAILED")
    _emit("\n".join(lines), args.out)
    return 0 if all_passed else 1


def _is_number(value) -> bool:
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or isinstance(value, float) and math.isfinite(value)


def cmd_eval(args) -> int:
    try:
        with open(args.poly) as handle:
            document = json.load(handle)
    except OSError as error:
        raise UsageError(f"cannot read {args.poly}: {error.strerror}") from None
    except json.JSONDecodeError as error:
        raise UsageError(f"{args.poly} is not valid JSON: {error}") from None
    if not isinstance(document, dict) or not {"n", "terms"} <= document.keys():
        raise UsageError("polynomial file must be an object with n and terms")
    n, terms = document["n"], document["terms"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise UsageError(f"n must be an integer >= 1, got {json.dumps(n)}")
    _check_n(n)
    if not isinstance(terms, list):
        raise UsageError(f"terms must be a list, got {json.dumps(terms)}")
    poly = poly_from_json(n, terms)
    if args.matrix:
        try:
            matrix = json.loads(args.matrix)
        except json.JSONDecodeError as error:
            raise UsageError(f"--matrix must be valid JSON, got {args.matrix!r}: {error}") from None
        if not isinstance(matrix, list) or not all(isinstance(row, list) for row in matrix):
            raise UsageError(f"--matrix must be a list of lists, got {args.matrix!r}")
        if not all(_is_number(entry) for row in matrix for entry in row):
            raise UsageError(f"--matrix entries must be finite numbers, got {args.matrix!r}")
        value = evaluate_minors(poly, matrix)
    else:
        value = evaluate_at_ones(poly)
    _emit(str(value), args.out)
    return 0


DESCRIPTION = """\
Exact construction of Gelfand-Tsetlin bases as polynomials in matrix minors
via hypergeometric lattice series and solutions of the antisymmetrized GKZ
system."""

_WEIGHT = ("top_row", None, str, "the weight, e.g. 2,1,0")
_FORMAT = ("--format", "text", ("text", "json"), "output format")
_OUT = ("--out", None, str, "write to this file, not to stdout")

# command -> (handler, help, arguments): its positional, then its options,
# each as (name, default, converter or tuple of choices, help).
COMMANDS = {
    "lattice": (
        cmd_lattice, "print the lattice basis for given n", (("n", None, int, "matrix size"), _FORMAT, _OUT)
    ),
    "diagrams": (cmd_diagrams, "enumerate diagrams of a top row", (_WEIGHT, _FORMAT, _OUT)),
    "basis": (cmd_basis, "full basis: series, solutions, gt functions", (_WEIGHT, _FORMAT, _OUT)),
    "gram": (cmd_gram, "pairing matrix of the solution basis", (_WEIGHT, _FORMAT, _OUT)),
    "verify": (cmd_verify, "run exact verification suites", (
        _WEIGHT,
        ("--checks", None, str, "comma separated check names"),
        ("--seed", 0, int, "seed of the random matrices"),
        ("--matrices", 20, int, "how many random matrices the minor checks use"),
        _OUT,
    )),
    "eval": (cmd_eval, "evaluate a serialized polynomial", (
        ("poly", None, str, "JSON file with fields n and terms"),
        ("--matrix", None, str, "JSON matrix to evaluate minors at"),
        _OUT,
    )),
}
HELP = ("-h", "--help")


def _usage_error(message):
    sys.stderr.write(f"error: {message}\n")
    raise SystemExit(2)


def _print_help(command):
    """Print the usage of command, or of the program for None, and exit 0."""
    if command is None:
        lines = [f"usage: gt-agkz [-h] {{{','.join(COMMANDS)}}} ...", "", DESCRIPTION, "", "commands:"]
        lines += [f"  {name:<10}{about}" for name, (_, about, _) in COMMANDS.items()]
    else:
        _, about, ((name, _, _, positional_help), *options) = COMMANDS[command]
        rows = [(name, positional_help), ("-h, --help", "show this help and exit")]
        for flag, default, kind, option_help in options:
            metavar = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else flag[2:].upper()
            shown = "" if default is None else f" (default {default})"
            rows.append((f"{flag} {metavar}", option_help + shown))
        usage = "".join(f" [{shape}]" for shape, _ in rows[2:])
        lines = [f"usage: gt-agkz {command} [-h]{usage} {name}", "", about, ""]
        lines += [f"  {shape:<24}{text}" for shape, text in rows]
    print("\n".join(lines))
    raise SystemExit(0)


def _is_option(token, options):
    """Whether token reads as an option: it starts with - and is neither - nor,
    unless it names an option, a negative number or a text with a space."""
    if not token.startswith("-") or token == "-":
        return False
    if token in HELP or token.partition("=")[0] in options:
        return True
    return not NEGATIVE_NUMBER.fullmatch(token) and " " not in token


def _convert(name, kind, value):
    if isinstance(kind, tuple):
        if value not in kind:
            choices = ", ".join(map(repr, kind))
            _usage_error(f"argument {name}: invalid choice: {value!r} (choose from {choices})")
        return value
    try:
        return kind(value)
    except ValueError:
        _usage_error(f"argument {name}: invalid {kind.__name__} value: {value!r}")


def _read_arguments(argv):
    """(handler, arguments) of argv as COMMANDS lays it out: the command, then
    its positional and options in any order, each option as --opt value or
    --opt=value, the last of a repeated option winning, and after -- only
    positionals.  -h or --help prints the usage and exits 0; a usage error
    prints one line "error: <message>" and exits 2."""
    if not argv:
        _usage_error("the following arguments are required: command")
    command = argv[0]
    if command in HELP:
        _print_help(None)
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _usage_error(f"argument command: invalid choice: {command!r} (choose from {choices})")
    handler, _, ((name, _, convert, _), *options) = COMMANDS[command]
    options = {option[0]: option for option in options}
    values = {flag[2:]: default for flag, default, _, _ in options.values()}
    head, tail = argv[1:], []
    if "--" in head:
        cut = head.index("--")
        head, tail = head[:cut], head[cut + 1 :]
    positionals, extras = [], []
    tokens = iter(head)
    for token in tokens:
        if not _is_option(token, options):
            positionals.append(token)
            continue
        if token in HELP:
            _print_help(command)
        flag, equals, value = token.partition("=")
        if flag not in options:
            extras.append(token)
            continue
        if not equals:
            value = next(tokens, "--")
            if value == "--" or _is_option(value, options):
                _usage_error(f"argument {flag}: expected one argument")
        values[flag[2:]] = _convert(flag, options[flag][2], value)
    positionals += tail
    if not positionals:
        _usage_error(f"the following arguments are required: {name}")
    values[name] = _convert(name, convert, positionals[0])
    extras += positionals[1:]
    if extras:
        _usage_error(f"unrecognized arguments: {' '.join(extras)}")
    return handler, SimpleNamespace(**values)


def _refuse_option_like_weight(argv):
    """Raise UsageError for a weight the reader would take for an option, before any --."""
    if argv and argv[0] in WEIGHT_COMMANDS:
        for token in argv[1:]:
            if token == "--":
                break
            if OPTION_LIKE_WEIGHT.fullmatch(token):
                raise UsageError(
                    f"weight {token!r} reads as an option; put it last, after --: "
                    f"gt-agkz {argv[0]} [options] -- {token}"
                )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        _refuse_option_like_weight(argv)
        handler, args = _read_arguments(argv)
        return handler(args)
    except (UsageError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
