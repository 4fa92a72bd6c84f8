"""Catalog functions against independent textual definitions, plus file I/O."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given

from conftest import all_bitstrings, partial_functions
from sablab.boolfn import (
    ArityError,
    BitString,
    BoolFnError,
    DomainError,
    FunctionFormatError,
    PartialFunction,
    catalog,
    load_function,
    make_indexing,
    make_named,
)

# Brute-force re-implementations of the textual definitions.
_RULES = {
    "AND": lambda bits, n: int(all(bits)),
    "OR": lambda bits, n: int(any(bits)),
    "PARITY": lambda bits, n: sum(bits) % 2,
    "XOR2": lambda bits, n: (bits[0] + bits[1]) % 2,
    "MAJ": lambda bits, n: int(2 * sum(bits) > n),
}


def indexing_rule(bits, n):
    address = int("".join(str(b) for b in bits[:n]), 2)
    return bits[n + address]


@pytest.mark.parametrize(
    "name,n",
    [("AND", 2), ("AND", 5), ("OR", 2), ("OR", 6), ("PARITY", 3), ("XOR2", 2), ("MAJ", 3), ("MAJ", 5)],
)
def test_named_matches_definition(name, n):
    f = make_named(name, n)
    assert f.total and len(f.entries) == 2**n
    for x in all_bitstrings(n):
        assert f.value(x) == _RULES[name](x.bits, n)


def test_named_spot_values():
    assert make_named("OR", 2).value("00") == 0
    assert make_named("PARITY", 3).value("110") == 0
    assert make_named("MAJ", 3).value("101") == 1


def test_named_rejects_bad_input():
    with pytest.raises(BoolFnError):
        make_named("NAND", 2)
    with pytest.raises(ArityError):
        make_named("MAJ", 4)
    with pytest.raises(ArityError):
        make_named("XOR2", 3)
    with pytest.raises(ArityError):
        make_named("OR", 13)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_indexing_matches_definition(n):
    f = make_indexing(n)
    arity = n + 2**n
    assert f.total and len(f.entries) == 2**arity
    for x in all_bitstrings(arity):
        assert f.value(x) == indexing_rule(x.bits, n)


def test_indexing_spot_values():
    f1 = make_indexing(1)
    assert f1.value("010") == 1  # address 0 reads data position 1
    f2 = make_indexing(2)
    assert f2.value("110001") == 1  # address 11 reads data position 4
    assert f2.value("000000") == 0


def test_indexing_depends_on_one_data_bit():
    f = make_indexing(2)
    for addr in all_bitstrings(2):
        pos = int(str(addr), 2)
        for data in all_bitstrings(4):
            x = BitString(addr.bits + data.bits)
            assert f.value(x) == data.bits[pos]
            flipped = x.flip([2 + j + 1 for j in range(4) if j != pos])
            assert f.value(flipped) == f.value(x)


def test_indexing_arity_bounds():
    with pytest.raises(ArityError):
        make_indexing(0)
    with pytest.raises(ArityError):
        make_indexing(5)


def test_domain_error():
    f = load_function(json.dumps({"name": "half", "n": 2, "total": False,
                                  "entries": [["00", 0], ["11", 1]]}))
    assert f.value("11") == 1
    with pytest.raises(DomainError):
        f.value("01")


def test_load_rejects_malformed():
    with pytest.raises(FunctionFormatError):
        load_function("not json")
    with pytest.raises(FunctionFormatError):
        load_function(json.dumps({"name": "f", "n": 2, "total": False,
                                  "entries": [["01", 0], ["010", 1]]}))
    with pytest.raises(FunctionFormatError):
        load_function(json.dumps({"name": "f", "n": 2, "total": False,
                                  "entries": [["01", 0], ["01", 1]]}))
    with pytest.raises(FunctionFormatError):
        load_function(json.dumps({"name": "f", "n": 2, "total": True,
                                  "entries": [["00", 0], ["01", 1], ["10", 1]]}))
    with pytest.raises(FunctionFormatError):
        load_function(json.dumps({"name": "f", "n": 2, "total": False, "entries": [["00", 2]]}))
    # Such a file once loaded with n = True; its serialize() then raised on a format specifier.
    with pytest.raises(ArityError, match="arity n = True"):
        load_function('{"name": "f", "n": true, "total": true, "entries": [["0", 0], ["1", true]]}')
    with pytest.raises(FunctionFormatError, match="no field 'total'"):
        load_function('{"name": "f", "n": 1, "entries": [["0", 0]]}')
    with pytest.raises(FunctionFormatError, match="function entries must be an array"):
        load_function('{"name": "f", "n": 1, "total": false, "entries": 5}')
    with pytest.raises(FunctionFormatError, match="malformed entry"):
        load_function('{"name": "f", "n": 1, "total": false, "entries": [[0, 0]]}')


@pytest.mark.parametrize(
    "args, error, message",
    [
        (("f", True, {"0": 0, "1": 1}), ArityError, "arity n = True is not an integer"),
        (("f", 2.0, {"00": 0, "11": 1}), ArityError, "arity n = 2.0 is not an integer"),
        (("f", 0, {}), ArityError, "arity n = 0 is not an integer in 1..20"),
        (("f", 2, {"00": 0, "11": True}), FunctionFormatError, "value for 11 must be the integer 0 or 1, got True"),
        (("f", 2, {"00": 0.0, "11": 1}), FunctionFormatError, "value for 00 must be the integer 0 or 1, got 0.0"),
        (("f", 2, {"00": 0, "11": 2}), FunctionFormatError, "got 2"),
        ((7, 2, {"00": 0, "11": 1}), FunctionFormatError, "function name must be a string, got 7"),
        (("f", 2, {}), FunctionFormatError, "function has no entries"),
    ],
    ids=["bool-n", "float-n", "zero-n", "bool-value", "float-value", "value-2", "int-name", "no-entries"],
)
def test_partial_function_refuses_bad_fields_when_built(args, error, message):
    with pytest.raises(error, match=message):
        PartialFunction(*args)


def test_partial_function_refuses_a_non_bool_total():
    with pytest.raises(FunctionFormatError, match="function total must be a bool, got 1"):
        PartialFunction("f", 1, {"0": 0, "1": 1}, total=1)


def test_partial_function_takes_numpy_integer_values():
    f = PartialFunction("f", 2, {"00": np.int64(0), "11": np.uint8(1)})
    assert f.value("11") == 1 and f == load_function(f.serialize())


def test_or2_file_roundtrip():
    f = make_named("OR", 2)
    assert len(load_function(f.serialize()).entries) == 4


@pytest.mark.parametrize("f", catalog(max_arity=5), ids=lambda f: f.name)
def test_catalog_serialize_roundtrip(f):
    again = load_function(f.serialize())
    assert again == f
    assert dict(again.entries) == dict(f.entries)


def test_stored_arrays_are_read_only():
    f = make_named("OR", 3)
    bits, vals = f.arrays()
    with pytest.raises(ValueError):
        vals[:] = 0
    with pytest.raises(ValueError):
        bits[0, 0] = 1
    assert vals.tolist() == [0] + [1] * 7 and f.value("001") == 1
    with pytest.raises(ValueError):
        f.codes[0] = 1


@pytest.mark.parametrize("f", catalog(), ids=lambda f: f.name)
def test_codes_are_the_domain_codes_row_for_row(f):
    assert f.codes.dtype == np.int64
    assert f.codes.tolist() == [x.code for x in f.domain()]


@pytest.mark.parametrize("f", catalog(), ids=lambda f: f.name)
def test_constructors_agree(f):
    """The numpy-filled catalog equals, and hashes as, its validated rebuilds."""
    rebuilt = PartialFunction(f.name, f.n, f.entries, total=True)
    loaded = load_function(f.serialize())
    assert f == rebuilt == loaded
    assert hash(f) == hash(rebuilt) == hash(loaded)


@given(partial_functions())
def test_random_function_roundtrip(f):
    assert load_function(f.serialize()) == f


def test_bitstring_helpers():
    x = BitString.from_text("0101")
    assert str(x) == "0101" and len(x) == 4 and x[1] == 1
    assert str(x.flip([1, 4])) == "1100"
    assert x.code == 0b0101 and BitString.from_text("1000").code == 8  # position j is bit n - j
    with pytest.raises(BoolFnError):
        BitString.from_text("")
    with pytest.raises(BoolFnError):
        BitString.from_text("012")
    with pytest.raises(BoolFnError):
        x.flip([5])
