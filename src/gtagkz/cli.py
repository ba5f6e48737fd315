"""Command line front end: lattice | diagrams | basis | gram | verify | eval.

Output is deterministic for fixed inputs and seed; JSON documents carry a
"schema": "gt-agkz/1" marker.  Exit codes: 0 ok, 1 check failure, 2 usage.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from .combinatorics import enumerate_diagrams, normalize_weight
from .gtbasis import CoefficientTable, build_basis, gram_matrix, gt_function, weyl_dimension
from .lattice import in_lattice, lattice_basis, lattice_rank
from .polyengine import (
    evaluate_at_ones,
    evaluate_minors,
    exponent_to_json,
    pair,
    poly_from_json,
    poly_to_json,
    subset_to_str,
)
from .verify import CHECKS, run_checks

SCHEMA = "gt-agkz/1"

# Largest n accepted where the 2^n - 1 subsets of 1..n are enumerated: lattice
# 12 takes about 1 s, lattice 14 about 5 s, and each step doubles the subsets.
MAX_N = 12


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
    dicts, lists, str, int, bool and None; anything else (a float, a non-str
    key) raises TypeError.

    With indent set, json.dumps runs the standard library's pure-Python
    encoder.  This writer emits the same layout (two spaces per level, ","
    at line ends, ": " after keys), escapes strings with the C
    encode_basestring_ascii and joins each container's items once, at under
    half the cost on a basis document.
    """
    return _json_text(value, "\n")


def _json_text(value, newline):
    """The text of value whose lines, after its first, start with newline."""
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
                text = _json_text(item, inner)
            items.append(encode_basestring_ascii(key) + ": " + text)
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(text, out_path):
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
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
    basis = build_basis(weight)
    table = CoefficientTable(basis)
    gt_polys = [gt_function(e.shift, basis, table) for e in basis.entries]
    entries = []
    for idx, entry in enumerate(basis.entries):
        entries.append(
            {
                "diagram": [list(row) for row in entry.diagram.rows],
                "weight": list(entry.diagram.weight()),
                "shift": exponent_to_json(entry.shift.gamma),
                "witness": list(entry.witness),
                "gamma_series": poly_to_json(entry.gamma_poly),
                "agkz_solution": poly_to_json(entry.agkz_poly),
                "gt_function": poly_to_json(gt_polys[idx]),
                "norm_squared": str(pair(gt_polys[idx], gt_polys[idx])),
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
    weight = _parse_weight(args.top_row)
    _check_n(len(weight))
    document = _basis_document(weight)
    if args.format == "json":
        _emit(_to_json(document), args.out)
    else:
        lines = [
            f"representation {document['top_row']}: dimension {document['dimension']}"
        ]
        for item in document["entries"]:
            lines.append(
                f"  diagram {item['diagram']} weight {item['weight']} "
                f"|G|^2 = {item['norm_squared']}"
            )
        _emit("\n".join(lines), args.out)
    return 0


def cmd_gram(args) -> int:
    weight, _ = normalize_weight(_parse_weight(args.top_row))
    _check_n(len(weight))
    basis = build_basis(weight)
    gram = gram_matrix(basis)
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
    weight, _ = normalize_weight(_parse_weight(args.top_row))
    _check_n(len(weight))
    names = None
    if args.checks:
        names = [part.strip() for part in args.checks.split(",") if part.strip()]
        if not names:
            raise UsageError(f"--checks names no check, got {args.checks!r}")
        for name in names:
            if name not in CHECKS:
                raise UsageError(f"unknown check {name!r}")
        if "gl3-closed-form" in names and len(weight) != 3:
            raise UsageError("gl3-closed-form requires a length-3 weight")
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


@lru_cache(maxsize=1)
def build_parser():
    """The argument parser, built once per process (its help texts cost gettext lookups)."""
    parser = argparse.ArgumentParser(
        prog="gt-agkz",
        description=(
            "Exact construction of Gelfand-Tsetlin bases as polynomials in "
            "matrix minors via hypergeometric lattice series and solutions "
            "of the antisymmetrized GKZ system."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="print the lattice basis for given n")
    p.add_argument("n", type=int)
    _formatted(p)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("diagrams", help="enumerate diagrams of a top row")
    p.add_argument("top_row")
    _formatted(p)
    p.set_defaults(func=cmd_diagrams)

    p = sub.add_parser("basis", help="full basis: series, solutions, gt functions")
    p.add_argument("top_row")
    _formatted(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("gram", help="pairing matrix of the solution basis")
    p.add_argument("top_row")
    _formatted(p)
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("verify", help="run exact verification suites")
    p.add_argument("top_row")
    p.add_argument("--checks", default=None, help="comma separated check names")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--matrices", type=int, default=20)
    _common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("eval", help="evaluate a serialized polynomial")
    p.add_argument("poly", help="JSON file with fields n and terms")
    p.add_argument("--matrix", default=None, help="JSON matrix to evaluate minors at")
    _common(p)
    p.set_defaults(func=cmd_eval)

    return parser


def _common(p):
    p.add_argument("--out", default=None)


def _formatted(p):
    p.add_argument("--format", choices=("text", "json"), default="text")
    _common(p)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
