"""Catalog functions against independent textual definitions, plus file I/O."""

from __future__ import annotations

import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given

from conftest import all_bitstrings, function_file, partial_functions
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
from sablab.measures import fbs
from sablab.qsim import oracle_bit

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
    # Such a file once loaded with n = True; writing it back then raised on a format specifier.
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
    assert f.value("11") == 1 and f == load_function(function_file(f))


def test_or2_file_roundtrip():
    f = make_named("OR", 2)
    assert len(load_function(function_file(f)).entries) == 4


@pytest.mark.parametrize("f", catalog(max_arity=5), ids=lambda f: f.name)
def test_catalog_serialize_roundtrip(f):
    again = load_function(function_file(f))
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
    loaded = load_function(function_file(f))
    assert f == rebuilt == loaded
    assert hash(f) == hash(rebuilt) == hash(loaded)


@given(partial_functions())
def test_random_function_roundtrip(f):
    assert load_function(function_file(f)) == f


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


def _every_string(n_max: int = 8, seed: int = 38, wide: int = 200) -> list[tuple[int, ...]]:
    """Every bit tuple of length 1..n_max, then ``wide`` seeded tuples of length 20."""
    out = [bits for n in range(1, n_max + 1) for bits in itertools.product((0, 1), repeat=n)]
    rng = np.random.default_rng(seed)
    return out + [tuple(int(b) for b in rng.integers(0, 2, size=20)) for _ in range(wide)]


def test_bitstring_constructors_agree_with_the_bit_tuple():
    for bits in _every_string():
        n, text = len(bits), "".join(map(str, bits))
        code = int(text, 2)
        built = (BitString(bits), BitString(list(bits)), BitString.from_text(text), BitString.coerce(bits),
                 BitString.coerce(text), BitString._from_code(n, code))
        for x in built:
            assert x == built[0] and hash(x) == hash(built[0])
            assert str(x) == text and repr(x) == f"BitString(bits={bits!r})"
            assert x.bits == bits and x.code == code and len(x) == n and list(x) == list(bits)


def test_bitstring_indexing_matches_the_bit_tuple():
    for bits in _every_string():
        x, n = BitString(bits), len(bits)
        assert [x[i] for i in range(-n, n)] == [bits[i] for i in range(-n, n)]
        for i in (n, n + 1, -n - 1):
            with pytest.raises(IndexError):
                x[i]


def test_bitstring_flip_matches_a_tuple_flip():
    rng = np.random.default_rng(3801)
    for bits in _every_string():
        n = len(bits)
        block = [int(j) for j in rng.integers(1, n + 1, size=int(rng.integers(0, 4)))]  # repeats flip back
        want = list(bits)
        for j in block:
            want[j - 1] ^= 1
        assert BitString(bits).flip(block) == BitString(tuple(want))


def test_bitstring_order_is_tuple_order_within_a_length():
    strings = _every_string()
    for n in (1, 5, 8, 20):
        same = [bits for bits in strings if len(bits) == n][::-1]
        assert [x.bits for x in sorted(BitString(bits) for bits in same)] == sorted(same)
    short, long = BitString.from_text("11"), BitString.from_text("000")
    assert short < long and long > short and short <= short and not long <= short  # shorter first


def _seeded_partial(seed: int) -> PartialFunction:
    """A seeded partial function: arity 2..9, a random domain of at least two points, both values present."""
    rng = np.random.default_rng([38, seed])
    n = 2 + seed % 8
    codes = rng.choice(1 << n, size=int(rng.integers(2, (1 << n) + 1)), replace=False)
    vals = [i % 2 for i in range(codes.size)]
    return PartialFunction(f"seeded{seed}", n, {format(int(c), f"0{n}b"): v for c, v in zip(codes, vals)})


def _row_strings(rows: np.ndarray) -> tuple[BitString, ...]:
    return tuple(BitString(tuple(row)) for row in rows.tolist())


@pytest.mark.parametrize(
    "f", [*catalog(), *(_seeded_partial(seed) for seed in range(6))], ids=lambda f: f"{f.name}-{f.codes.size}"
)
def test_string_views_equal_the_strings_of_the_bit_rows(f):
    bits, vals = f.arrays()
    assert f.domain() == _row_strings(bits)
    assert f.d0 == _row_strings(bits[vals == 0]) and f.d1 == _row_strings(bits[vals == 1])
    assert dict(f.entries) == dict(zip(_row_strings(bits), vals.tolist()))
    for i in (0, vals.size // 2, vals.size - 1):
        x = BitString(tuple(bits[i].tolist()))
        assert f.opposite_inputs(x) == _row_strings(bits[vals != vals[i]])


_NOT_BITS = {
    "float": 0.7,
    "integral-float": 1.0,
    "bool": True,
    "numpy-bool": np.bool_(False),
    "numpy-float": np.float64(0.0),
    "str": "1",
    "two": 2,
    "minus-one": -1,
    "numpy-two": np.int64(2),
    "none": None,
    "list": [1],
}


def _refusal_routes():
    f = make_named("OR", 2)
    return {
        "BitString": BitString,
        "coerce": BitString.coerce,
        "value": f.value,
        "oracle_bit": oracle_bit,
        "fbs": lambda x: fbs(f, x),
    }


@pytest.mark.parametrize("route", sorted(_refusal_routes()))
@pytest.mark.parametrize("kind", list(_NOT_BITS))
def test_a_bit_is_an_integer_zero_or_one(kind, route):
    """Each entry is checked once, by the constructor: nothing is cast, so 0.7 is not read as 0."""
    bad = _NOT_BITS[kind]
    with pytest.raises(BoolFnError, match=rf"^position 2 of .* holds {re.escape(repr(bad))}, not the integer 0 or 1$"):
        _refusal_routes()[route]((1, bad))


@pytest.mark.parametrize("bits", [(1, 0), [np.int64(1), np.uint8(0)], np.array([1, 0], dtype=np.int8), (1, np.int32(0))])
def test_python_and_numpy_integers_are_bits(bits):
    x = BitString(bits)
    assert x == BitString.coerce(bits) == BitString.from_text("10") and x.bits == (1, 0)
    assert all(type(b) is int for b in x.bits) and make_named("OR", 2).value(bits) == 1
    with pytest.raises(BoolFnError, match="empty bit string"):
        BitString(())
