"""The value records: construction, equality, hashing, immutability, repr, import cost.

The six record classes are slotted ValueRecord subclasses.  The reprs below
were recorded from commit cc7067b, when the records were frozen dataclasses.
"""

import copy
import os
import pickle
import subprocess
import sys

import pytest

from gtagkz.combinatorics import GTDiagram, ValueRecord
from gtagkz.gtbasis import BasisEntry, RepresentationBasis, build_basis
from gtagkz.lattice import (
    ExponentVector,
    LatticeBasisVector,
    ShiftVector,
    lattice_basis,
    shift_from_diagram,
)
from gtagkz.verify import CheckResult

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

DIAGRAM_ROWS = ((2, 1, 0), (2, 0), (1,))


def diagram():
    return GTDiagram(DIAGRAM_ROWS)


def lattice_vector():
    b = lattice_basis(3)[0]
    return LatticeBasisVector(
        i=b.i, j=b.j, x=b.x, X=b.X,
        v=b.v, v_plus=b.v_plus, v_minus=b.v_minus, v_zero=b.v_zero, r=b.r,
    )


def shift():
    return ShiftVector(shift_from_diagram(diagram()).gamma, diagram())


def basis_entry():
    e = build_basis((1, 0, 0)).entries[0]
    return BasisEntry(
        diagram=e.diagram, shift=e.shift, gamma_poly=e.gamma_poly,
        agkz_poly=e.agkz_poly, witness=e.witness,
    )


def representation_basis():
    basis = build_basis((1, 0, 0))
    return RepresentationBasis(top_row=(1, 0, 0), n=3, entries=basis.entries, lowers=basis.lowers)


def check_result():
    return CheckResult("orthogonality", True, "3 pairs")


MAKERS = [diagram, lattice_vector, shift, basis_entry, representation_basis, check_result]

E100 = "BasisEntry(diagram=GTDiagram(rows=((1, 0, 0), (0, 0), (0,))), shift=ShiftVector(gamma=ExponentVector(3; 3:1), diagram=GTDiagram(rows=((1, 0, 0), (0, 0), (0,)))), gamma_poly=(1)*A_3, agkz_poly=(1)*A_3, witness=(0,))"
E110 = "BasisEntry(diagram=GTDiagram(rows=((1, 0, 0), (1, 0), (0,))), shift=ShiftVector(gamma=ExponentVector(3; 2:1), diagram=GTDiagram(rows=((1, 0, 0), (1, 0), (0,)))), gamma_poly=(1)*A_2, agkz_poly=(1)*A_2, witness=(0,))"
E111 = "BasisEntry(diagram=GTDiagram(rows=((1, 0, 0), (1, 0), (1,))), shift=ShiftVector(gamma=ExponentVector(3; 1:1), diagram=GTDiagram(rows=((1, 0, 0), (1, 0), (1,)))), gamma_poly=(1)*A_1, agkz_poly=(1)*A_1, witness=(0,))"

REPRS = {
    diagram: "GTDiagram(rows=((2, 1, 0), (2, 0), (1,)))",
    lattice_vector: (
        "LatticeBasisVector(i=1, j=2, x=3, X=(), v=ExponentVector(3; 1:1, 2:-1, 1.3:-1, 2.3:1), "
        "v_plus=ExponentVector(3; 1:1, 2.3:1), v_minus=ExponentVector(3; 2:1, 1.3:1), "
        "v_zero=ExponentVector(3; 3:1, 1.2:1), r=ExponentVector(3; 1:-1, 3:1, 1.2:1, 2.3:-1))"
    ),
    shift: (
        "ShiftVector(gamma=ExponentVector(3; 2:1, 1.3:1), "
        "diagram=GTDiagram(rows=((2, 1, 0), (2, 0), (1,))))"
    ),
    basis_entry: E100,
    representation_basis: (
        f"RepresentationBasis(top_row=(1, 0, 0), n=3, entries=({E100}, {E110}, {E111}), "
        "lowers=(((0, (0,)),), ((1, (0,)),), ((2, (0,)),)))"
    ),
    check_result: "CheckResult(name='orthogonality', passed=True, detail='3 pairs')",
}


def fields(record):
    return tuple(getattr(record, name) for name in type(record).__slots__)


@pytest.mark.parametrize("make", MAKERS, ids=lambda make: make.__name__)
def test_records_with_equal_fields_are_equal_and_hash_equally(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("make", MAKERS, ids=lambda make: make.__name__)
def test_a_record_is_unequal_to_another_class_and_to_a_tuple(make):
    record = make()
    values = fields(record)
    assert record != values and values != record
    assert all(record != other() for other in MAKERS if other is not make)
    twin = type("Twin", (ValueRecord,), {"__slots__": type(record).__slots__})()
    twin._fill(*values)
    assert record != twin and twin != record


@pytest.mark.parametrize("make", MAKERS, ids=lambda make: make.__name__)
def test_assigning_or_deleting_a_field_raises(make):
    record = make()
    for name in type(record).__slots__:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("make", MAKERS, ids=lambda make: make.__name__)
def test_repr_is_unchanged(make):
    assert repr(make()) == REPRS[make]


def test_records_of_plain_values_copy_and_pickle():
    for record in (diagram(), check_result()):
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record


def test_diagram_normalizes_rows_and_checks_betweenness():
    d = GTDiagram([[2, 1, 0], (True, 0), [1]])
    assert d.rows == ((2, 1, 0), (1, 0), (1,))
    assert d == GTDiagram(rows=d.rows)
    with pytest.raises(ValueError, match="betweenness fails: 2 >= 3 >= 1"):
        GTDiagram(((2, 1, 0), (3, 0), (1,)))
    with pytest.raises(ValueError, match="rows must have lengths"):
        GTDiagram(((2, 1, 0), (2,), (1,)))


def test_shift_vector_checks_chi():
    gamma = shift_from_diagram(diagram()).gamma
    other = GTDiagram(((2, 1, 0), (1, 1), (1,)))
    with pytest.raises(ValueError, match=r"chi_\d\^\d mismatch for shift vector"):
        ShiftVector(gamma, other)
    with pytest.raises(ValueError, match="mismatch"):
        ShiftVector(gamma + ExponentVector.unit(3, (3,)), diagram())


def test_importing_the_cli_loads_no_code_inspection_modules():
    """The records need no dataclasses, whose import loads inspect, ast and dis;
    nothing loads typing; only the verify command loads gtagkz.verify and
    its random; and the argument reader needs no argparse, whose messages load
    gettext and locale.  Checks which modules are loaded, not for how long."""
    unwanted = {"dataclasses", "inspect", "typing", "gtagkz.verify", "random", "argparse", "gettext", "locale"}
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import gtagkz.cli; "
        f"print(sorted({unwanted!r} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script, SRC], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
