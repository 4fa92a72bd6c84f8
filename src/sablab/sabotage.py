"""Sabotaged inputs: quaternary strings, strong inputs, and the hard distribution.

The quaternary alphabet is encoded numerically as 0, 1, 2 (star) and
3 (dagger).  The ASCII text form writes star as ``*`` and dagger as ``+``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boolfn import BitString, PartialFunction, require_general_size

STAR = 2
DAGGER = 3
_SYMBOL_CHARS = {0: "0", 1: "1", STAR: "*", DAGGER: "+"}
_CHAR_SYMBOLS = {"0": 0, "1": 1, "*": STAR, "+": DAGGER}
_SYMBOLS = frozenset(_SYMBOL_CHARS)


class SabotageError(ValueError):
    """Invalid sabotage construction or membership failure."""


@dataclass(frozen=True)
class SabString:
    """String over {0, 1, star, dagger} with at least one sabotaged position.

    A sabotaged input never mixes star and dagger symbols.
    """

    symbols: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            present = set(self.symbols)
        except TypeError:  # an unhashable entry is no symbol
            present = {None}
        if not present <= _SYMBOLS:
            raise SabotageError(f"symbols must be in 0..3, got {self.symbols!r}")
        has_star = STAR in present
        has_dagger = DAGGER in present
        if not (has_star or has_dagger):
            raise SabotageError("sabotaged string needs at least one */dagger symbol")
        if has_star and has_dagger:
            raise SabotageError("sabotaged string cannot mix * and dagger symbols")

    @classmethod
    def from_text(cls, text: str) -> "SabString":
        try:
            return cls(tuple(_CHAR_SYMBOLS[c] for c in text))
        except KeyError as exc:
            raise SabotageError(f"invalid character {exc.args[0]!r} in {text!r}") from None

    def __str__(self) -> str:
        return "".join(_SYMBOL_CHARS[s] for s in self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __getitem__(self, i: int) -> int:
        return self.symbols[i]

    @property
    def marker(self) -> int:
        """STAR or DAGGER, whichever this string carries."""
        return STAR if STAR in self.symbols else DAGGER

    @property
    def mark_positions(self) -> frozenset[int]:
        """1-based positions holding a star/dagger symbol."""
        return frozenset(j + 1 for j, s in enumerate(self.symbols) if s >= STAR)


@dataclass(frozen=True)
class StrongInput:
    """A sabotaged pair and its marker (STAR or DAGGER; ``*`` or ``+`` is coerced).

    ``z`` and the per-position tuples (x_j, y_j, z_j) are built once; equality reads (x, y, marker).
    """

    x: BitString
    y: BitString
    marker: int
    z: SabString = field(init=False, repr=False, compare=False)
    tuples: tuple[tuple[int, int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("x", "y"):
            if not isinstance(getattr(self, name), BitString):
                raise SabotageError(f"strong input {name} must be a BitString, got {getattr(self, name)!r}")
        marker = _coerce_marker(self.marker)
        xs, ys = self.x.bits, self.y.bits  # each string's bits, derived once
        if len(xs) != len(ys) or xs == ys:
            raise SabotageError("length mismatch" if len(xs) != len(ys) else "x and y must differ somewhere")
        z = _sab_string(tuple([a if a == b else marker for a, b in zip(xs, ys)]))  # a mark where they differ
        object.__setattr__(self, "marker", marker)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "tuples", tuple(zip(xs, ys, z.symbols)))

    from_pair = classmethod(lambda cls, x, y, marker: cls(x, y, marker))  # the constructor, by the name sabbench calls

    def __len__(self) -> int:
        return len(self.tuples)

    def __getitem__(self, i: int) -> tuple[int, int, int]:
        return self.tuples[i]

    def to_json_dict(self) -> dict:
        return {"x": str(self.x), "y": str(self.y), "marker": _SYMBOL_CHARS[self.marker]}

    def __str__(self) -> str:
        return f"({self.x},{self.y},{_SYMBOL_CHARS[self.marker]})"


def _coerce_marker(marker: int | str) -> int:
    if marker in (STAR, DAGGER):
        return int(marker)
    if marker in ("*", "+"):
        return _CHAR_SYMBOLS[str(marker)]
    raise SabotageError(f"marker must be one of *, + (got {marker!r})")


def enumerate_sabotaged(f: PartialFunction) -> tuple[frozenset[SabString], frozenset[SabString]]:
    """Sets of star- and dagger-sabotaged inputs over all (0-input, 1-input) pairs.

    Each distinct string is built once, from its pair key (see ``_pair_keys``).
    """
    require_general_size(f, "enumerate_sabotaged", SabotageError)
    vals, n = f.arrays()[1], f.n
    if vals.min() == vals.max():
        raise SabotageError(f"{f.name} is constant on its domain; nothing to sabotage")
    key = np.fromiter(_pair_keys(f.codes, vals, n), np.int64)[:, None]
    shifts = np.arange(n - 1, -1, -1)  # column j - 1 reads bit n - j: MSB-first
    kept = (key >> shifts & 1).astype(np.uint8)
    marked = (key >> (shifts + n) & 1).astype(np.uint8)
    return _sab_strings(kept + STAR * marked), _sab_strings(kept + DAGGER * marked)


def _sab_strings(symbols: np.ndarray) -> frozenset[SabString]:
    """One SabString per row of a uint8 symbol matrix, the rows checked at once.

    The matrix is checked for :class:`SabString`'s rules in numpy: every entry in 0..3, a
    star/dagger in every row, no row with both.  The first row that breaks one goes to the
    constructor, which raises its own message; otherwise each string is made without the
    constructor, its ``symbols`` the row's bytes, which iterate as Python ints.
    """
    bad = ((symbols > DAGGER).any(axis=1) | ~(symbols >= STAR).any(axis=1)
           | (symbols == STAR).any(axis=1) & (symbols == DAGGER).any(axis=1))
    for row in symbols[bad]:
        SabString(tuple(row.tolist()))
    raw, n = symbols.tobytes(), symbols.shape[1]
    return frozenset([_sab_string(tuple(raw[i:i + n])) for i in range(0, len(raw), n)])


def _sab_string(symbols: tuple[int, ...]) -> SabString:
    """The SabString of symbols that keep its rules by construction, made without the constructor's check."""
    z = object.__new__(SabString)
    object.__setattr__(z, "symbols", symbols)
    return z


def _pair_keys(codes: np.ndarray, vals: np.ndarray, n: int) -> set[int]:
    """Distinct keys ``(x ^ y) << n | x & y`` over the codes of a 0-input x and a 1-input y.

    ``codes`` are :attr:`PartialFunction.codes` (position j is bit n - j).
    The high n bits of a key, x ^ y, mark where x and y differ: the sensitive
    block that ``measures.sensitive_blocks`` reports for the pair.  The low n
    bits, x & y, hold their common bit off the marks and 0 on them.  So
    distinct keys are distinct sabotaged strings.  The key is symmetric in x
    and y, so the loop runs over the smaller side.
    """
    small, large = sorted((codes[vals == 0], codes[vals == 1]), key=len)
    keys: set[int] = set()
    for x in small.tolist():
        keys.update(((large ^ x) << n | large & x).tolist())
    return keys


def make_strong(
    f: PartialFunction, x: BitString | str, y: BitString | str, marker: int | str
) -> StrongInput:
    """Strong sabotaged input for a pair with f(x) = 0 and f(y) = 1."""
    xb, yb = BitString.coerce(x), BitString.coerce(y)
    if f.value(xb) != 0:
        raise SabotageError(f"f({xb}) must be 0")
    if f.value(yb) != 1:
        raise SabotageError(f"f({yb}) must be 1")
    return StrongInput(xb, yb, marker)


@dataclass(frozen=True)
class HardDistribution:
    """Distribution over strong inputs (x, x+B, *) and (x, x+B, dagger).

    ``blocks`` holds each block's opposite input x+B with its weight w_B;
    ``support`` holds the star and then the dagger input of each block, in
    the same order, each with probability w_B / (2 V), V being the total
    weight.
    """

    base: BitString
    blocks: tuple[tuple[BitString, float], ...]
    support: tuple[tuple[StrongInput, float], ...]

    def __post_init__(self) -> None:
        probs = [p for _, p in self.support]
        if any(p < 0 for p in probs):
            raise SabotageError("negative probability")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise SabotageError(f"probabilities sum to {sum(probs)!r}, not 1")


def weighted_blocks(weights) -> tuple[tuple[BitString, float], ...]:
    """The opposite inputs of positive weight in sorted order, each with its weight as a float.

    These are the blocks of :func:`hard_distribution` and of both adversary
    certificates.  ``weights`` is as in :func:`hard_distribution`.
    """
    return tuple((y, float(w)) for y, w in sorted(weights.weights.items()) if w > 0)


def hard_distribution(f: PartialFunction, x: BitString | str, weights) -> HardDistribution:
    """Spread an fbs weight vector at x uniformly over both markers per block.

    ``weights`` is an :class:`sablab.measures.FbsSolution` (or anything with a
    ``weights`` mapping from opposite-value inputs to non-negative weights).
    Feasible but sub-optimal weight vectors are accepted.  Each strong input
    pairs the 0-input of {x, x+B} with its 1-input.
    """
    xb = BitString.coerce(x)
    total = float(sum(weights.weights.values()))
    if total <= 0:
        raise SabotageError("zero total weight")
    blocks = weighted_blocks(weights)
    fx = f.value(xb)
    support = tuple(
        (make_strong(f, *((y, xb) if fx else (xb, y)), marker), w / (2.0 * total))
        for y, w in blocks
        for marker in (STAR, DAGGER)
    )
    return HardDistribution(base=xb, blocks=blocks, support=support)
