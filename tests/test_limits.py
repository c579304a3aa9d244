"""The numeric policy has one owner, `telegate.limits`: no tolerance
literal or width cap is written anywhere else in the package."""

import re
from pathlib import Path

import pytest

from telegate.errors import ValidationError, WidthOverflow
from telegate.limits import MAX_QUBITS, check_width, width_of

SRC = Path(__file__).resolve().parent.parent / "src" / "telegate"


def test_no_float_literal_outside_limits():
    """Docstrings and comments included: a written-out threshold is a fork
    of the policy."""
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in sorted(SRC.glob("*.py")) if path.name != "limits.py"
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"\d+e-\d+", line)]
    assert hits == []


def test_max_qubits_assigned_once():
    sites = [path.name for path in sorted(SRC.glob("*.py"))
             for line in path.read_text().splitlines()
             if re.match(r"\s*MAX_QUBITS\s*=", line)]
    assert sites == ["limits.py"]


def test_width_of_and_check_width():
    assert [width_of(2**n) for n in range(MAX_QUBITS + 1)] == list(range(MAX_QUBITS + 1))
    assert check_width(MAX_QUBITS) == MAX_QUBITS
    for dim in (0, 3, 6, 12):
        with pytest.raises(ValidationError, match=f"dimension {dim} is not a power of two"):
            width_of(dim)
    with pytest.raises(WidthOverflow, match=f"{MAX_QUBITS + 1} qubits exceeds the"
                                            f" {MAX_QUBITS}-qubit limit"):
        width_of(2 ** (MAX_QUBITS + 1))


def test_no_log2_width_outside_limits():
    """Every qubit count read off a dimension goes through width_of."""
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in sorted(SRC.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if "np.log2" in line]
    assert hits == []


def test_every_limit_is_assigned_in_limits():
    sites = [f"{path.name}: {line}" for path in sorted(SRC.glob("*.py"))
             if path.name != "limits.py"
             for line in path.read_text().splitlines()
             if re.match(r"MAX_\w*\s*=", line)]
    assert sites == []
