"""Partial Boolean functions on small domains, plus the named-function catalog.

A :class:`BitString` is its length and its code.  A :class:`PartialFunction` stores its truth
table as read-only numpy arrays of codes, and makes BitStrings from them only at the API edge.
The catalog functions are filled in by numpy; outside input is validated entry by entry.

Position convention: coordinates ``j`` in public APIs are 1-based (``1..n``);
Python-level sequence indexing of :class:`BitString` is 0-based.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

# General functions are capped at 12 bits (4096-entry tables); indexing
# functions go up to arity 20 (address 4 + data 16).
MAX_GENERAL_ARITY = 12
MAX_ARITY = 20

NAMED_FUNCTIONS = ("AND", "OR", "PARITY", "MAJ", "XOR2")


class BoolFnError(ValueError):
    """Base error for function construction and evaluation."""


class ArityError(BoolFnError):
    """Arity outside the supported range, or incompatible with the name."""


class DomainError(BoolFnError):
    """Evaluation point outside the declared domain."""


class FunctionFormatError(BoolFnError):
    """Malformed function file."""


# Translate tables: text to bits as bytes 0/1, and back, with any other byte sent to "x", which int(_, 2) refuses.
_TEXT_TO_BITS, _BITS_TO_TEXT = bytes.maketrans(b"01", b"\x00\x01"), b"01" + b"x" * 254
_INT = frozenset((int,))


@dataclass(order=True, unsafe_hash=True, slots=True, init=False, repr=False)  # fields are set once, when built
class BitString:
    """Fixed-length sequence of bits, held as its length n and its :attr:`code`, from which the rest derives.

    Equality, hash and order read (n, code): equal-length strings order as their bit tuples, shorter
    before longer (no caller sorts mixed lengths).  The constructor checks each entry once: a bit is a
    Python or numpy integer equal to 0 or 1, not a bool, float or str.
    """

    _n: int
    _code: int

    def __init__(self, bits: Iterable[int]) -> None:
        bits = tuple(bits)
        try:  # bytes() takes integers in 0..255, bool too; int() refuses an empty string and the "x" of a byte past 1
            code = int(bytes(bits).translate(_BITS_TO_TEXT), 2)
        except (TypeError, ValueError):
            code = -1
        if code < 0 or not _INT.issuperset(map(type, bits)):  # numpy integers land here too
            bad = [(j, b) for j, b in enumerate(bits, 1)
                   if not (type(b) is int or isinstance(b, np.integer)) or b not in (0, 1)]
            if bad or not bits:
                raise BoolFnError(f"position {bad[0][0]} of {bits!r} holds {bad[0][1]!r}, not the integer 0 or 1"
                                  if bad else "empty bit string")
        self._n, self._code = len(bits), code

    @classmethod
    def _from_code(cls, n: int, code: int) -> "BitString":
        """The length-n string of ``code``, unchecked: for codes read from a truth table."""
        x = object.__new__(cls)
        x._n, x._code = n, code
        return x

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        if not isinstance(text, str) or not text or text.strip("01"):
            raise BoolFnError(f"invalid bit string {text!r}")
        return cls._from_code(len(text), int(text, 2))

    @classmethod
    def coerce(cls, value: "BitString | str | Iterable[int]") -> "BitString":
        if isinstance(value, BitString):
            return value
        if isinstance(value, str):
            return cls.from_text(value)
        return cls(value)

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(format(self._code, "b").zfill(self._n).encode().translate(_TEXT_TO_BITS))

    @property
    def code(self) -> int:
        """The string read MSB-first as an integer (position j is bit n - j): a truth-table key."""
        return self._code

    def __str__(self) -> str:
        return format(self._code, "b").zfill(self._n)

    def __repr__(self) -> str:
        return f"BitString(bits={self.bits!r})"

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> int:  # a negative or out-of-range i goes through the tuple
        return self._code >> self._n - 1 - i & 1 if -1 < i < self._n else self.bits[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)

    def flip(self, block: Iterable[int]) -> "BitString":
        """Flip the (1-based) positions in ``block``."""
        n, mask = self._n, 0
        for j in block:
            if not 1 <= j <= n:
                raise BoolFnError(f"position {j} out of range 1..{n}")
            mask ^= 1 << (n - j)
        return BitString._from_code(n, self._code ^ mask)


class PartialFunction:
    """Truth table of ``f: D -> {0,1}`` with ``D`` a subset of length-n strings.

    Three read-only arrays in lexicographic order of ``D``: int64 codes
    (:attr:`BitString.code` of each string), uint8 values and the (|D|, n)
    uint8 bit matrix.  The views returning BitStrings build them from the codes on each call.
    """

    __slots__ = ("name", "n", "total", "_codes", "_vals", "_bits")

    def __init__(
        self,
        name: str,
        n: int,
        entries: Mapping[BitString, int] | Iterable[tuple[BitString | str, int]],
        total: bool = False,
    ) -> None:
        if type(name) is not str:
            raise FunctionFormatError(f"function name must be a string, got {name!r}")
        if type(n) is not int or not 1 <= n <= MAX_ARITY:  # refuses bool too
            raise ArityError(f"arity n = {n!r} is not an integer in 1..{MAX_ARITY}")
        if type(total) is not bool:
            raise FunctionFormatError(f"function total must be a bool, got {total!r}")
        items = entries.items() if isinstance(entries, Mapping) else entries
        table: dict[int, int] = {}
        for key, val in items:
            bs = BitString.coerce(key)
            if len(bs) != n:
                raise FunctionFormatError(f"key {bs} has length {len(bs)}, expected n = {n}")
            if not isinstance(val, (int, np.integer)) or isinstance(val, bool) or val not in (0, 1):
                raise FunctionFormatError(f"value for {bs} must be the integer 0 or 1, got {val!r}")
            if (code := bs.code) in table:
                raise FunctionFormatError(f"duplicate key {bs}")
            table[code] = int(val)
        if not table:
            raise FunctionFormatError("function has no entries: empty domain")
        if total and len(table) != 1 << n:
            raise FunctionFormatError(
                f"function flagged total has {len(table)} of {1 << n} entries"
            )
        codes = sorted(table)
        vals = np.array([table[c] for c in codes], dtype=np.uint8)
        self._store(name, n, total, np.array(codes, dtype=np.int64), vals)

    @classmethod
    def _total(cls, name: str, n: int, vals: np.ndarray) -> "PartialFunction":
        """Total function from its values in code order, without validation."""
        f = cls.__new__(cls)
        f._store(name, n, True, np.arange(1 << n, dtype=np.int64), vals.astype(np.uint8))
        return f

    def _store(self, name: str, n: int, total: bool, codes: np.ndarray, vals: np.ndarray) -> None:
        bits = np.unpackbits(codes.astype(">u4").view(np.uint8).reshape(-1, 4), axis=1)[:, 32 - n:]
        for array in (codes, vals, bits):
            array.flags.writeable = False
        self.name, self.n, self.total = name, n, bool(total)
        self._codes, self._vals, self._bits = codes, vals, bits

    def _index(self, x: BitString) -> int | None:
        """Row of x in the arrays, or None if x is outside the domain."""
        if len(x) != self.n:
            return None
        code = x.code
        i = code if self.total else int(np.searchsorted(self._codes, code))
        return i if i < self._codes.size and self._codes[i] == code else None

    @property
    def entries(self) -> Mapping[BitString, int]:
        return MappingProxyType(dict(zip(self.domain(), self._vals.tolist())))

    @property
    def d0(self) -> tuple[BitString, ...]:
        return _strings(self.n, self._codes[self._vals == 0])

    @property
    def d1(self) -> tuple[BitString, ...]:
        return _strings(self.n, self._codes[self._vals == 1])

    def value(self, x: BitString | str) -> int:
        bs = BitString.coerce(x)
        if (i := self._index(bs)) is None:
            raise DomainError(f"{bs} not in the domain of {self.name}")
        return int(self._vals[i])

    def domain(self) -> tuple[BitString, ...]:
        return _strings(self.n, self._codes)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Domain as a read-only (m, n) uint8 bit matrix and (m,) value vector."""
        return self._bits, self._vals

    @property
    def codes(self) -> np.ndarray:
        """The domain's read-only (m,) int64 codes, ascending, row for row with :meth:`arrays`."""
        return self._codes

    def opposite_inputs(self, x: BitString | str) -> tuple[BitString, ...]:
        """All domain points with function value different from f(x)."""
        return _strings(self.n, self._codes[self._vals != self.value(x)])

    def _key(self) -> tuple:
        return (self.name, self.n, self.total, self._codes.tobytes(), self._vals.tobytes())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartialFunction):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"PartialFunction({self.name!r}, n={self.n}, |D|={self._codes.size})"


def _strings(n: int, codes: np.ndarray) -> tuple[BitString, ...]:
    return tuple([BitString._from_code(n, c) for c in codes.tolist()])


def require_general_size(f: PartialFunction, work: str, error: type[Exception]) -> None:
    """Raise ``error`` before ``work`` over all of f's domain if |D| > 2^MAX_GENERAL_ARITY."""
    size, cap = f.arrays()[1].size, 1 << MAX_GENERAL_ARITY
    if size > cap:
        raise error(f"{work} refused: {f.name} has {size} domain points, "
                    f"above the cap of 2^{MAX_GENERAL_ARITY} = {cap}")


def make_named(name: str, n: int) -> PartialFunction:
    """Standard total function by name: AND, OR, PARITY, MAJ (odd n), XOR2."""
    name = name.upper()
    if name not in NAMED_FUNCTIONS:
        raise BoolFnError(f"unknown function name {name!r}")
    if name == "XOR2" and n != 2:
        raise ArityError("XOR2 requires n = 2")
    if name == "MAJ" and n % 2 == 0:
        raise ArityError("MAJ requires odd n")
    if not 1 <= n <= MAX_GENERAL_ARITY:
        raise ArityError(f"arity {n} outside 1..{MAX_GENERAL_ARITY}")
    weight = sum((np.arange(1 << n) >> j) & 1 for j in range(n))
    rules = {"AND": weight == n, "OR": weight > 0, "MAJ": 2 * weight > n}
    return PartialFunction._total(f"{name}_{n}", n, rules.get(name, weight % 2))


def make_indexing(n: int) -> PartialFunction:
    """Indexing function on n address bits followed by 2^n data bits.

    The address block is read MSB-first and selects (1-based) data position
    ``int(address, 2) + 1``; the output is that data bit.
    """
    if not 1 <= n <= 4:
        raise ArityError(f"indexing arity {n} outside 1..4")
    size = 1 << n
    codes = np.arange(1 << (n + size), dtype=np.int64)
    # The address is the top n bits; data position a is bit size - 1 - a of the code.
    return PartialFunction._total(f"IND_{n}", n + size, (codes >> (size - 1 - (codes >> size))) & 1)


def load_function(text: str) -> PartialFunction:
    """Parse the JSON function-file format, refusing unknown keys; :class:`PartialFunction` checks the fields."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FunctionFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FunctionFormatError("function file must be a JSON object")
    fields = ("name", "n", "total", "entries")
    for field in fields:
        if field not in payload:
            raise FunctionFormatError(f"function file has no field {field!r}")
    for key in payload:
        if key not in fields:
            raise FunctionFormatError(f"function file has unknown field {key!r}")
    entries = payload["entries"]
    if type(entries) is not list:
        raise FunctionFormatError(f"function entries must be an array, got {entries!r}")
    for item in entries:
        if not (type(item) is list and len(item) == 2 and type(item[0]) is str):
            raise FunctionFormatError(f"malformed entry {item!r}: want [bit string, value]")
    return PartialFunction(payload["name"], payload["n"], entries, total=payload["total"])


def catalog(max_arity: int = MAX_GENERAL_ARITY) -> tuple[PartialFunction, ...]:
    """The named functions exercised throughout the test and verify suites."""
    out: list[PartialFunction] = []
    for n in range(2, 7):
        for nm in ("AND", "OR", "PARITY"):
            out.append(make_named(nm, n))
    out.append(make_named("XOR2", 2))
    out.append(make_named("MAJ", 3))
    out.append(make_named("MAJ", 5))
    out.append(make_indexing(1))
    out.append(make_indexing(2))
    return tuple(f for f in out if f.n <= max_arity)
