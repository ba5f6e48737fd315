"""Command line interface: subcommands, formats, determinism, exit codes."""

import json

import pytest

from gtagkz.cli import main


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


def test_verify_selected_check(capsys):
    code, out, _ = run(capsys, "verify", "1,1,0,0", "--checks", "orthogonality")
    assert code == 0
    assert out.count("PASS") == 1


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "2,1,0", "--checks", "nosuch")
    assert code == 2
    assert "unknown check" in err


def test_verify_gl3_check_needs_n3(capsys):
    code, _, err = run(capsys, "verify", "1,1,0,0", "--checks", "gl3-closed-form")
    assert code == 2


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


@pytest.mark.parametrize("command", ["verify", "eval"])
def test_format_is_rejected_where_it_has_no_effect(command, capsys):
    with pytest.raises(SystemExit) as raised:
        main([command, "2,1,0", "--format", "json"])
    assert raised.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "lattice.json"
    code, _, _ = run(capsys, "lattice", "3", "--format", "json", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["k"] == 1
