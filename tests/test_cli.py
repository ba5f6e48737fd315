"""Command line interface: subcommands, formats, determinism, exit codes."""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from gtagkz import cli, combinatorics, gtbasis, lattice, polyengine, verify
from gtagkz.cli import MAX_N, main
from gtagkz.verify import default_checks


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lattice_gl3(capsys):
    code, out, _ = run(capsys, "lattice", "3")
    assert code == 0
    assert "k = 1" in out
    assert "chi-orthogonality: ok" in out


def test_lattice_gl4_json(capsys):
    code, out, _ = run(capsys, "lattice", "4", "--format", "json")
    assert code == 0
    document = json.loads(out)
    assert document["schema"] == "gt-agkz/1"
    assert document["k"] == 5
    assert document["chi_orthogonal"] is True


def test_lattice_rejects_zero(capsys):
    code, _, err = run(capsys, "lattice", "0")
    assert code == 2
    assert "error" in err


def test_diagrams_count(capsys):
    code, out, _ = run(capsys, "diagrams", "2,1,0", "--format", "json")
    assert code == 0
    document = json.loads(out)
    assert document["count"] == 8 == document["weyl_dimension"]


def test_basis_gl3(capsys):
    code, out, _ = run(capsys, "basis", "2,1,0", "--format", "json")
    assert code == 0
    document = json.loads(out)
    assert document["dimension"] == 8
    assert len(document["entries"]) == 8
    assert document["schema"] == "gt-agkz/1"
    entry = document["entries"][0]
    assert set(entry) >= {"diagram", "weight", "shift", "gamma_series", "agkz_solution", "gt_function", "norm_squared"}


def test_basis_gl4_fundamental(capsys):
    code, out, _ = run(capsys, "basis", "1,1,0,0", "--format", "json")
    assert code == 0
    assert json.loads(out)["dimension"] == 6


def test_basis_rejects_non_dominant(capsys):
    code, _, err = run(capsys, "basis", "1,2,0")
    assert code == 2
    assert "error" in err


def test_basis_nonzero_tail_reduction(capsys):
    code, out, _ = run(capsys, "basis", "3,2,1", "--format", "json")
    assert code == 0
    document = json.loads(out)
    assert document["top_row"] == [2, 1, 0]
    assert document["full_set_prefactor_power"] == 1


@pytest.mark.parametrize("command", ["diagrams", "basis", "gram", "verify"])
def test_negative_leading_weight_is_one_usage_error_naming_the_separator(command, capsys):
    """argparse reads -1,-2,-3 as an option; the error says to put it after --,
    where it is the weight (2,1,0) raised by the full-set prefactor -3."""
    options = ["--format", "json"] if command != "verify" else ["--seed", "1"]
    code, out, err = run(capsys, command, "-1,-2,-3", *options)
    assert_usage_error(code, err)
    assert out == ""
    assert f"gt-agkz {command} [options] -- -1,-2,-3" in err
    if command == "basis":
        code, out, _ = run(capsys, "basis", "--format", "json", "--", "-1,-2,-3")
        assert code == 0
        document = json.loads(out)
        assert document["top_row"] == [2, 1, 0]
        assert document["full_set_prefactor_power"] == -3


def test_basis_output_deterministic(capsys):
    _, first, _ = run(capsys, "basis", "2,1,0", "--format", "json")
    _, second, _ = run(capsys, "basis", "2,1,0", "--format", "json")
    assert first == second


def test_gram_output(capsys):
    code, out, _ = run(capsys, "gram", "1,1,0,0", "--format", "json")
    assert code == 0
    document = json.loads(out)
    assert document["dimension"] == 6
    assert len(document["gram"]) == 6


def test_verify_gl3_all_pass(capsys):
    code, out, _ = run(capsys, "verify", "2,1,0", "--matrices", "5")
    assert code == 0
    assert "all checks passed" in out
    assert "gl3-closed-form" in out


@pytest.mark.parametrize("weight", ["3,2,1,0", "2,1,0,0,0"])
def test_verify_full_default_checks_pass(capsys, weight):
    code, out, _ = run(capsys, "verify", weight)
    assert code == 0
    assert out.count("PASS") == len(default_checks(len(weight.split(","))))
    assert "all checks passed" in out


@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_rejects_matrix_count_below_one(capsys, count):
    code, out, err = run(capsys, "verify", "2,1,0", "--matrices", count)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_selected_check(capsys):
    code, out, _ = run(capsys, "verify", "1,1,0,0", "--checks", "orthogonality")
    assert code == 0
    assert out.count("PASS") == 1


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "2,1,0", "--checks", "nosuch")
    assert code == 2
    assert "unknown check" in err


@pytest.mark.parametrize("checks", [",,", " , "])
def test_verify_checks_naming_no_check_is_a_usage_error(capsys, checks):
    code, out, err = run(capsys, "verify", "2,1,0", "--checks", checks)
    assert_usage_error(code, err)
    assert out == ""
    assert "--checks" in err


def test_verify_gl3_check_needs_n3(capsys):
    code, _, err = run(capsys, "verify", "1,1,0,0", "--checks", "gl3-closed-form")
    assert code == 2


@pytest.mark.parametrize(
    "top, names, message",
    [
        ((2, 1, 0, 0), ["gl3-closed-form"], "gl3-closed-form requires a length-3 weight"),
        ((2, 1, 0), ["orthogonality", "bogus"], "unknown check 'bogus'"),
    ],
)
def test_run_checks_rejects_names_before_building(top, names, message, monkeypatch):
    builds = []
    build_basis = gtbasis.build_basis

    def counting_build(top_row):
        builds.append(top_row)
        return build_basis(top_row)

    monkeypatch.setattr(gtbasis, "build_basis", counting_build)
    gtbasis.representation.cache_clear()
    with pytest.raises(ValueError) as error:
        verify.run_checks(top, names)
    assert str(error.value) == message
    assert builds == []


def test_eval_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "basis", "1,0,0", "--format", "json")
    document = json.loads(out)
    poly = {"n": 3, "terms": document["entries"][0]["gamma_series"]}
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(poly))
    code, out, _ = run(capsys, "eval", str(path))
    assert code == 0
    assert out.strip() == "1"
    identity = json.dumps([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    code, out, _ = run(capsys, "eval", str(path), "--matrix", identity)
    assert code == 0
    assert out.strip() in {"0", "1"}


def assert_usage_error(code, err):
    assert code == 2
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_eval_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "eval", str(tmp_path / "absent.json"))
    assert_usage_error(code, err)
    assert "cannot read" in err


def test_eval_invalid_json(tmp_path, capsys):
    path = tmp_path / "poly.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "eval", str(path))
    assert_usage_error(code, err)
    assert "not valid JSON" in err


def test_eval_object_without_n_or_terms(tmp_path, capsys):
    for document in ({"terms": []}, {"n": 3}, [1, 2]):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(document))
        code, _, err = run(capsys, "eval", str(path))
        assert_usage_error(code, err)
        assert "object with n and terms" in err


@pytest.mark.parametrize(
    "document, matrix",
    [
        ({"n": 3, "terms": 5}, None),
        ({"n": 3, "terms": {}}, None),
        ({"n": "3", "terms": []}, None),
        ({"n": 0, "terms": []}, None),
        ({"n": -1, "terms": []}, None),
        ({"n": True, "terms": []}, None),
        ({"n": 3.0, "terms": []}, None),
        ({"n": None, "terms": []}, None),
        ({"n": 2, "terms": []}, "5"),
        ({"n": 2, "terms": []}, "[1, 0]"),
        ({"n": 2, "terms": []}, '"[[1]]"'),
        ({"n": 2, "terms": []}, "{}"),
        ({"n": 2, "terms": []}, "[[1, 0], 0]"),
        ({"n": 3, "terms": [5]}, None),
        ({"n": 3, "terms": [[{"1": 1}, "1"]]}, None),
        ({"n": 3, "terms": [{"exp": {"1": 1}}]}, None),
        ({"n": 3, "terms": [{"exp": [1], "coef": "1"}]}, None),
        ({"n": 3, "terms": [{"exp": {"1": "2"}, "coef": "1"}]}, None),
        ({"n": 3, "terms": [{"exp": {"1": 1.5}, "coef": "1"}]}, None),
        ({"n": 3, "terms": [{"exp": {"1": True}, "coef": "1"}]}, None),
        ({"n": 3, "terms": [{"exp": {"x": 1}, "coef": "1"}]}, None),
        ({"n": 3, "terms": [{"exp": {"4": 1}, "coef": "1"}]}, None),
        ({"n": 3, "terms": [{"exp": {"1": 1}, "coef": None}]}, None),
        ({"n": 3, "terms": [{"exp": {"1": 1}, "coef": 0.5}]}, None),
        ({"n": 3, "terms": [{"exp": {"1": 1}, "coef": "x"}]}, None),
        ({"n": 3, "terms": [{"exp": {"1": 1}, "coef": "1/0"}]}, None),
        ({"n": 3, "terms": []}, "[[null, 0, 0], [0, 1, 0], [0, 0, 1]]"),
        ({"n": 2, "terms": []}, '[["1", 0], [0, 1]]'),
        ({"n": 2, "terms": []}, "[[true, 0], [0, 1]]"),
        ({"n": 2, "terms": []}, "[[Infinity, 0], [0, 1]]"),
        ({"n": 2, "terms": []}, "[[1"),
        ({"n": 2, "terms": []}, "[[1, 0],\n 0]"),
    ],
)
def test_eval_rejects_wrongly_typed_input(document, matrix, tmp_path, capsys):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(document))
    code, _, err = run(capsys, "eval", str(path), *(["--matrix", matrix] if matrix else []))
    assert_usage_error(code, err)
    assert "must be" in err


@pytest.mark.parametrize("command", ["verify", "eval"])
def test_format_is_rejected_where_it_has_no_effect(command, capsys):
    with pytest.raises(SystemExit) as raised:
        main([command, "2,1,0", "--format", "json"])
    assert raised.value.code == 2
    assert "--format" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["basis"],
        ["basis", "2,1,0", "--format", "xml"],
        ["verify", "2,1,0", "--seed", "x"],
        ["verify", "2,1,0", "--matrices", "x"],
        ["lattice", "three"],
        ["diagrams", "2,1,0", "--bogus"],
        [],
        ["bogus"],
        ["verify", "2,1,0", "--seed"],
        ["basis", "2,1,0", "--format=xml"],
        ["basis", "2,1,0", "--form", "json"],
    ],
    ids=["no-weight", "format-xml", "seed-x", "matrices-x", "lattice-three",
         "unknown-option", "no-command", "unknown-command", "seed-no-value",
         "format-equals-xml", "abbreviated-option"],
)
def test_parser_errors_are_one_line_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    captured = capsys.readouterr()
    assert_usage_error(stop.value.code, captured.err)
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["basis", "2,1,0", "-h"]])
def test_help_still_prints_the_usage(argv, capsys):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    captured = capsys.readouterr()
    assert stop.value.code == 0
    assert captured.out.startswith("usage: gt-agkz")
    assert captured.err == ""


BASIS_JSON = ["basis", "2,1,0", "--format", "json"]


@pytest.mark.parametrize(
    "argv, same_as",
    [
        (["basis", "--format=json", "2,1,0"], BASIS_JSON),
        (["basis", "--format", "json", "2,1,0"], BASIS_JSON),
        (["basis", "2,1,0", "--format", "text", "--format", "json"], BASIS_JSON),
        (["basis", "--format", "json", "--", "2,1,0"], BASIS_JSON),
        (
            ["verify", "2,1,0", "--seed", "-3", "--checks", "orthogonality"],
            ["verify", "2,1,0", "--checks=orthogonality", "--seed=-3"],
        ),
        (["lattice", "-1"], None),
    ],
    ids=["equals", "option-first", "last-wins", "separator", "negative-value", "negative-positional"],
)
def test_argv_forms_that_the_reader_keeps(argv, same_as, capsys):
    """--opt=value, options before the positional, repeats (the last wins),
    -- before the positional, and negative numbers as values and positionals."""
    code, out, err = run(capsys, *argv)
    if same_as is None:
        assert_usage_error(code, err)
        assert "n must be >= 1, got -1" in err
        return
    assert code == 0
    assert (code, out, err) == run(capsys, *same_as)
    if argv[0] == "verify":
        assert "PASS  orthogonality" in out


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "lattice.json"
    code, _, _ = run(capsys, "lattice", "3", "--format", "json", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["k"] == 1


@pytest.mark.parametrize("target", ["missing/out.txt", "."], ids=["missing-directory", "directory"])
@pytest.mark.parametrize("command", ["basis", "verify"])
def test_out_path_that_cannot_be_written_is_a_usage_error(command, target, tmp_path, capsys):
    path = tmp_path / target
    code, out, err = run(capsys, command, "2,1,0", "--out", str(path))
    assert_usage_error(code, err)
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("n", [MAX_N + 1, 30])
@pytest.mark.parametrize("command", ["lattice", "basis", "gram", "verify", "eval"])
def test_n_above_the_limit_is_a_usage_error(command, n, tmp_path, monkeypatch, capsys):
    """Refused before any subset of 1..n is enumerated."""

    def refuse(n):
        raise AssertionError(f"enumerate_subsets({n}) was called")

    for module in (combinatorics, lattice, polyengine):
        monkeypatch.setattr(module, "enumerate_subsets", refuse)
    if command == "lattice":
        argv = [str(n)]
    elif command == "eval":
        path = tmp_path / "poly.json"
        path.write_text(json.dumps({"n": n, "terms": []}))
        argv = [str(path)]
    else:
        argv = [",".join(["1"] + ["0"] * (n - 1))]
    code, out, err = run(capsys, command, *argv)
    assert_usage_error(code, err)
    assert out == ""
    assert f"n must be at most {MAX_N}, got {n}" in err


def test_diagrams_is_not_limited_in_n(capsys):
    code, out, _ = run(capsys, "diagrams", ",".join(["1"] + ["0"] * MAX_N), "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == MAX_N + 1


@pytest.mark.parametrize("weight, dimension", [("0,0,0,0,0,0,0,0,0,0", 1), ("1,0,0,0,0,0,0,0,0,0", 10)])
def test_basis_builds_at_n_10(weight, dimension, capsys):
    """The point search walks 1,023 coordinates and the route search 968
    directions at n = 10, past Python's default recursion limit of 1,000."""
    code, out, _ = run(capsys, "basis", weight, "--format", "json")
    assert code == 0
    assert json.loads(out)["dimension"] == dimension


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**300), max_value=2**300)
    | st.text(),
    lambda children: st.lists(children, max_size=5) | st.dictionaries(st.text(), children, max_size=5),
    max_leaves=40,
)


@settings(deadline=None, max_examples=200)
@given(JSON_VALUES)
def test_to_json_matches_the_standard_indented_encoder(value):
    """Non-ASCII and control characters, big and negative ints, bools, None, nesting."""
    assert cli._to_json(value) == json.dumps(value, indent=2)


LADDERS = ((2, 1, 0), (4, 2, 0), (6, 3, 0), (8, 4, 0), (2, 1, 0, 0), (2, 2, 1, 0), (3, 1, 0, 0))


@pytest.mark.parametrize("top", LADDERS)
def test_to_json_writes_a_polynomial_as_its_dict_form(top):
    """Every polynomial of a basis document reads back as poly_to_json of it,
    byte for byte the standard encoder's text of that list, also where one
    document writes the same exponents again at another depth."""
    basis, _, gt_polys = gtbasis.representation(top)
    for entry, g in zip(basis.entries, gt_polys):
        for poly in (entry.gamma_poly, entry.agkz_poly, g):
            terms = polyengine.poly_to_json(poly)
            assert json.loads(cli._to_json(poly)) == terms
            assert cli._to_json({"a": poly, "b": [[poly], poly]}) == json.dumps(
                {"a": terms, "b": [[terms], terms]}, indent=2
            )
    n = len(top)
    for poly in (polyengine.Polynomial.zero(n), polyengine.Polynomial.monomial(lattice.ExponentVector.zero(n), -3)):
        assert cli._to_json([poly]) == json.dumps([polyengine.poly_to_json(poly)], indent=2)


@pytest.mark.parametrize("value", [1.5, [1, [2.0]], {"a": 0.5}, {1: "a"}])
def test_to_json_rejects_floats_and_non_str_keys(value):
    with pytest.raises(TypeError):
        cli._to_json(value)


def test_no_option_carries_over_between_calls(capsys, tmp_path):
    assert run(capsys, "lattice", "3", "--out", str(tmp_path / "lattice.txt"))[0] == 0
    assert run(capsys, "diagrams", "2,1,0")[0] == 0
    with pytest.raises(SystemExit) as stop:
        main(["lattice", "three"])
    assert stop.value.code == 2
    code, out, _ = run(capsys, "lattice", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["k"] == 1  # no --out carried over from the first call


def test_basis_then_verify_builds_the_representation_once(capsys, monkeypatch):
    weight = "2,1,1,0"
    gtbasis.representation.cache_clear()
    builds, tables = [], []
    build_basis, table_init = gtbasis.build_basis, gtbasis.CoefficientTable.__init__

    def counting_build(top_row):
        builds.append(top_row)
        return build_basis(top_row)

    def counting_init(table, basis):
        tables.append(basis.top_row)
        table_init(table, basis)

    monkeypatch.setattr(gtbasis, "build_basis", counting_build)
    monkeypatch.setattr(gtbasis.CoefficientTable, "__init__", counting_init)
    assert run(capsys, "basis", weight, "--format", "json")[0] == 0
    code, shared, _ = run(capsys, "verify", weight)
    assert code == 0
    assert builds == tables == [(2, 1, 1, 0)]
    gtbasis.representation.cache_clear()
    verify._seeded_matrices.cache_clear()
    assert run(capsys, "verify", weight) == (0, shared, "")
    assert len(builds) == len(tables) == 2


def test_cold_gram_builds_no_coefficient_table(capsys, monkeypatch):
    gtbasis.representation.cache_clear()
    tables = []
    table_init = gtbasis.CoefficientTable.__init__

    def counting_init(table, basis):
        tables.append(basis.top_row)
        table_init(table, basis)

    monkeypatch.setattr(gtbasis.CoefficientTable, "__init__", counting_init)
    code, out, _ = run(capsys, "gram", "2,1,0,0", "--format", "json")
    assert code == 0
    assert json.loads(out)["dimension"] == 20
    assert tables == []
    gtbasis.representation.cache_clear()


def test_basis_then_gram_builds_the_basis_once(capsys, monkeypatch):
    gtbasis.representation.cache_clear()
    builds = []
    build_basis = gtbasis.build_basis

    def counting_build(top_row):
        builds.append(top_row)
        return build_basis(top_row)

    for module in (gtbasis, cli):  # counted wherever a module calls it from
        monkeypatch.setattr(module, "build_basis", counting_build, raising=False)
    code, basis, _ = run(capsys, "basis", "2,1,0,0", "--format", "json")
    assert code == 0
    code, gram, _ = run(capsys, "gram", "2,1,0,0", "--format", "json")
    assert code == 0
    assert builds == [(2, 1, 0, 0)]
    assert json.loads(gram)["dimension"] == json.loads(basis)["dimension"] == 20
    gtbasis.representation.cache_clear()


def test_shared_polynomials_are_read_only(capsys):
    """No caller can change the G functions or solutions that the representation
    memo hands to every later caller: basis and verify still read the originals."""
    basis, _, polys = gtbasis.representation((2, 1, 0))
    for poly in (polys[0], basis.entries[0].agkz_poly, basis.entries[0].gamma_poly):
        with pytest.raises(AttributeError):
            poly.terms.clear()
        with pytest.raises(TypeError):
            poly.terms[next(iter(poly.terms))] = 0
    code, out, _ = run(capsys, "basis", "2,1,0", "--format", "json")
    assert code == 0
    digest = "026c8d2aad8bc5089d6a645ceebdff5aa1a5e54c17ed3bf8c2a43f3b621bded0"
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert run(capsys, "verify", "2,1,0")[0] == 0


def test_shared_representation_and_matrices_are_read_only():
    ctx = verify.VerifyContext((2, 1, 0, 0))
    table = ctx.table
    assert gtbasis.representation((2, 1, 0, 0))[1] is table
    key = next(iter(table.C))
    for mapping in (table.C, table.C_exact, table.S):
        with pytest.raises(TypeError):
            mapping[key] = 0
    with pytest.raises(TypeError):
        table.lowers[0] = ()
    assert all(type(lowers) is tuple for lowers in table.lowers.values())
    assert type(ctx.gt_polys) is tuple
    assert type(ctx.matrices) is tuple
    assert all(type(row) is tuple for matrix in ctx.matrices for row in matrix)
    with pytest.raises(TypeError):
        ctx.minors[0][(1,)] = 0
    assert verify.seeded_matrices(4, 0, 20) == [[list(row) for row in m] for m in ctx.matrices]
