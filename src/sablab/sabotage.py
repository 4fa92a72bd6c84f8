"""Sabotaged inputs: quaternary strings, strong tuples, and the hard distribution.

The quaternary alphabet is encoded numerically as 0, 1, 2 (star) and
3 (dagger).  The ASCII text form writes star as ``*`` and dagger as ``+``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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
    """Per-position tuples (x_j, y_j, z_j) of a sabotaged pair."""

    tuples: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        for j, (xj, yj, zj) in enumerate(self.tuples, start=1):
            if xj not in (0, 1) or yj not in (0, 1):
                raise SabotageError(f"position {j}: x, y components must be bits")
            if xj == yj and zj != xj:
                raise SabotageError(f"position {j}: z must equal x = y on agreeing positions")
            if xj != yj and zj not in (STAR, DAGGER):
                raise SabotageError(f"position {j}: z must be */dagger on differing positions")
        SabString(tuple(z for _, _, z in self.tuples))  # also checks non-empty, unmixed

    @classmethod
    def from_pair(cls, x: BitString, y: BitString, marker: int | str) -> "StrongInput":
        mark = _coerce_marker(marker)
        if len(x) != len(y):
            raise SabotageError("length mismatch")
        z = tuple(a if a == b else mark for a, b in zip(x, y))
        return cls(tuple(zip(x.bits, y.bits, z)))

    def __len__(self) -> int:
        return len(self.tuples)

    def __getitem__(self, i: int) -> tuple[int, int, int]:
        return self.tuples[i]

    @property
    def x(self) -> BitString:
        return BitString(tuple(t[0] for t in self.tuples))

    @property
    def y(self) -> BitString:
        return BitString(tuple(t[1] for t in self.tuples))

    @property
    def z(self) -> SabString:
        return SabString(tuple(t[2] for t in self.tuples))

    @property
    def marker(self) -> int:
        return self.z.marker

    def to_json(self) -> str:
        return json.dumps(
            {"x": str(self.x), "y": str(self.y), "marker": _SYMBOL_CHARS[self.marker]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "StrongInput":
        payload = json.loads(text)
        return cls.from_pair(
            BitString.from_text(payload["x"]),
            BitString.from_text(payload["y"]),
            payload["marker"],
        )

    def __str__(self) -> str:
        return f"({self.x},{self.y},{_SYMBOL_CHARS[self.marker]})"


def _coerce_marker(marker: int | str) -> int:
    if marker in (STAR, DAGGER):
        return int(marker)
    if marker in ("*", "+"):
        return _CHAR_SYMBOLS[str(marker)]
    raise SabotageError(f"marker must be one of *, + (got {marker!r})")


def sabotage_star(x: BitString, y: BitString) -> SabString:
    """Replace every position where x and y differ by a star."""
    return _sabotage(x, y, STAR)


def sabotage_dagger(x: BitString, y: BitString) -> SabString:
    """Replace every position where x and y differ by a dagger."""
    return _sabotage(x, y, DAGGER)


def _sabotage(x: BitString, y: BitString, marker: int) -> SabString:
    if len(x) != len(y):
        raise SabotageError("length mismatch")
    if x == y:
        raise SabotageError("x and y must differ somewhere")
    return SabString(tuple(a if a == b else marker for a, b in zip(x, y)))


def enumerate_sabotaged(f: PartialFunction) -> tuple[frozenset[SabString], frozenset[SabString]]:
    """Sets of star- and dagger-sabotaged inputs over all (0-input, 1-input) pairs.

    Each distinct string is built once, from its pair key (see ``_pair_keys``).
    """
    require_general_size(f, "enumerate_sabotaged", SabotageError)
    bits, vals = f.arrays()
    if vals.min() == vals.max():
        raise SabotageError(f"{f.name} is constant on its domain; nothing to sabotage")
    n = f.n
    key = np.fromiter(_pair_keys(bits, vals), np.int64)[:, None]
    shifts = np.arange(n - 1, -1, -1)  # column j - 1 reads bit n - j: MSB-first
    kept = (key >> shifts & 1).astype(np.uint8)
    marked = (key >> (shifts + n) & 1).astype(np.uint8)
    return _sab_strings(kept + STAR * marked), _sab_strings(kept + DAGGER * marked)


def _sab_strings(symbols: np.ndarray) -> frozenset[SabString]:
    """One SabString per row of a uint8 symbol matrix.

    A row's bytes iterate as Python ints, so no list per row is built.
    """
    raw, n = symbols.tobytes(), symbols.shape[1]
    return frozenset(SabString(tuple(raw[i:i + n])) for i in range(0, len(raw), n))


def _pair_keys(bits: np.ndarray, vals: np.ndarray) -> set[int]:
    """Distinct keys ``(x ^ y) << n | x & y`` over pairs of a 0-row x and a 1-row y.

    Rows are read as MSB-first integer codes, as in :class:`PartialFunction`
    (position j is bit n - j).  The high n bits of a key mark where x and y
    differ; the low n bits, x & y, hold their common bit off the marks and 0
    on them.  So distinct keys are distinct sabotaged strings.  The key is
    symmetric in x and y, so the loop runs over the smaller side.
    """
    n = bits.shape[1]
    codes = bits.astype(np.int64) @ (1 << np.arange(n - 1, -1, -1))
    small, large = sorted((codes[vals == 0], codes[vals == 1]), key=len)
    keys: set[int] = set()
    for x in small.tolist():
        keys.update(((large ^ x) << n | large & x).tolist())
    return keys


def eval_sab(f: PartialFunction, z: SabString) -> int:
    """0 for star-sabotaged inputs of f, 1 for dagger-sabotaged ones.

    z is sabotaged when some x in f's 0-set agrees with z off its marked
    positions and x with those positions flipped lies in f's 1-set.
    """
    if len(z) != f.n:
        raise SabotageError(f"{z} has length {len(z)}, but {f.name} has arity {f.n}")
    bits, vals = f.arrays()
    symbols = np.array(z.symbols)
    marked = symbols >= STAR
    cube = np.all(bits[:, ~marked] == symbols[~marked], axis=1)  # agrees with z off the marks
    # Key each cube point by its bits on the marks; flipping the marks maps key k to full ^ k.
    key = bits[cube][:, marked].astype(np.int64) @ (1 << np.arange(marked.sum()))
    full = (1 << int(marked.sum())) - 1
    if np.intersect1d(key[vals[cube] == 0], full ^ key[vals[cube] == 1]).size:
        return 0 if z.marker == STAR else 1
    raise SabotageError(f"{z} is not a sabotaged input of {f.name}")


def make_strong(
    f: PartialFunction, x: BitString | str, y: BitString | str, marker: int | str
) -> StrongInput:
    """Strong sabotaged input for a pair with f(x) = 0 and f(y) = 1."""
    xb, yb = BitString.coerce(x), BitString.coerce(y)
    if f.value(xb) != 0:
        raise SabotageError(f"f({xb}) must be 0")
    if f.value(yb) != 1:
        raise SabotageError(f"f({yb}) must be 1")
    return StrongInput.from_pair(xb, yb, marker)


@dataclass(frozen=True)
class HardDistribution:
    """Distribution over strong inputs (x, x+B, *) and (x, x+B, dagger).

    Each weighted block carries probability w_B / (2 V) on both of its
    markers, V being the total weight.
    """

    base: BitString
    support: tuple[tuple[StrongInput, float], ...]

    def __post_init__(self) -> None:
        probs = [p for _, p in self.support]
        if any(p < 0 for p in probs):
            raise SabotageError("negative probability")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise SabotageError(f"probabilities sum to {sum(probs)!r}, not 1")

    def probabilities(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.support)


def hard_distribution(f: PartialFunction, x: BitString | str, weights) -> HardDistribution:
    """Spread an fbs weight vector at x uniformly over both markers per block.

    ``weights`` is an :class:`sablab.measures.FbsSolution` (or anything with a
    ``weights`` mapping from opposite-value inputs to non-negative weights).
    Feasible but sub-optimal weight vectors are accepted.
    """
    xb = BitString.coerce(x)
    fx = f.value(xb)
    total = float(sum(weights.weights.values()))
    if total <= 0:
        raise SabotageError("zero total weight")
    support = []
    for y, w in sorted(weights.weights.items()):
        if w <= 0:
            continue
        prob = float(w) / (2.0 * total)
        for marker in (STAR, DAGGER):
            if fx == 0:
                strong = make_strong(f, xb, y, marker)
            else:
                strong = make_strong(f, y, xb, marker)
            support.append((strong, prob))
    return HardDistribution(base=xb, support=tuple(support))
