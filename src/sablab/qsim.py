"""Exact dense statevector simulation of query algorithms.

An algorithm alternates unitary gate lists with query steps against an
oracle supplied at run time.  Three oracle kinds are supported on matching
register layouts:

* ``bit``: |j>|b>      -> |j>|b xor x_j>            (standard Boolean oracle)
* ``weak``: |j>|b>     -> |j>|(b + z_j) mod 4>       (sabotaged input)
* ``strong``: |j>|bx>|by>|bz> -> |j>|bx xor x_j>|by xor y_j>|(bz + z_j) mod 4>

Wire 0 is always the index register (dimension n, positions 1..n); symbol
wires follow; workspace qubits come last.  All distributions are exact;
sampling, where offered, takes an explicit seed.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .boolfn import MAX_ARITY, BitString
from .sabotage import SabString, StrongInput

DIM_CAP = 2**21
BLOCK_CAP = MAX_ARITY  # gate dimension; an index register of any supported arity fits
UNITARY_TOL = 1e-12
NORM_TOL = 1e-10

QUERY = "QUERY"
QUERY_INV = "QUERY_INV"

_SQRT2 = math.sqrt(2.0)
_NAMED = {
    "H": np.array([[1, 1], [1, -1]], dtype=np.complex128) / _SQRT2,
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(np.complex128),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
    ),
}
# Every named gate shares these arrays, so none may be written after its check.
for _m in _NAMED.values():
    _m.flags.writeable = False


class SimulationError(ValueError):
    """Layout mismatch, non-unitary gate, dimension overflow, or norm drift."""


# ---------------------------------------------------------------------------
# Statevector kernels


def apply_block(
    state: np.ndarray, dims: tuple[int, ...], axes: tuple[int, ...], matrix: np.ndarray
) -> np.ndarray:
    """Apply a small unitary to the listed axes of the dense state tensor.

    The state is C-ordered over ``dims``; ``axes[0]`` is most significant in
    the matrix row index.  Returns a fresh flat state and never writes into
    ``state``.  Leading axes ``(0, 1, ...)`` need no transpose: the matmul
    runs on a view of ``state``.

    Otherwise the state and a fresh output are viewed with ``axes`` leading
    and walked one column block at a time (see :data:`_BLOCK_AMPS`): each
    block is copied to a ``(k, cols)`` array, multiplied, and written back
    through the output view, so the state passes through memory once rather
    than through a whole transposed copy in and out.  Every column is the
    same product of the matrix with that column as in one matmul over the
    whole ``(k, -1)`` transpose, and blocks of at least :data:`_MIN_COLUMNS`
    columns give it bit for bit.
    """
    k = matrix.shape[0]
    plan = _axis_plan(dims, axes)
    if plan.size != k:
        raise ValueError("matrix size does not match the selected axes")
    if plan.order is None:
        return (matrix @ state.reshape(k, -1)).reshape(-1)
    out = np.empty(state.size, np.result_type(matrix, state))
    t = state.reshape(dims).transpose(plan.order)
    o = out.reshape(dims).transpose(plan.order)
    for index in plan.blocks:
        block = t[index]
        o[index] = (matrix @ block.reshape(k, -1)).reshape(block.shape)
    return out


# A dense gate off the leading wires reads and writes this many amplitudes per
# block: 256 KiB in and 256 KiB out, a quarter of a 2 MiB L2, so the block copy
# and its product stay in cache while the output block is written.  A block
# never has fewer than _MIN_COLUMNS columns: BLAS kernels for narrower products
# may sum in another order, so their bits can differ from one whole-state matmul.
_BLOCK_AMPS = 2**14
_MIN_COLUMNS = 64


class _AxisPlan(NamedTuple):
    """How :func:`apply_block` walks a state for a gate on ``axes``.

    ``size`` is the gate's dimension.  ``order`` transposes the state and
    output tensors so that ``axes`` lead.  ``blocks`` indexes the transposed
    tensors one column block at a time: all of the gate axes, one index of
    each outer other axis, all of the inner ones.  Both are None when
    ``axes`` already lead.
    """

    size: int
    order: tuple[int, ...] | None
    blocks: tuple[tuple, ...] | None


@functools.lru_cache(maxsize=256)
def _axis_plan(dims: tuple[int, ...], axes: tuple[int, ...]) -> _AxisPlan:
    """The checked :class:`_AxisPlan` of ``axes`` over ``dims``.

    Cached per layout and wire tuple; a bad call raises every time, since
    exceptions are not cached.
    """
    if len(set(axes)) != len(axes) or not all(0 <= a < len(dims) for a in axes):
        raise ValueError(f"axes {axes} must be distinct and in 0..{len(dims) - 1}")
    size = math.prod(dims[a] for a in axes)
    if axes == tuple(range(len(axes))):
        return _AxisPlan(size, None, None)
    rest = tuple(a for a in range(len(dims)) if a not in axes)
    order = axes + rest
    # Inner other axes join the block, innermost first, until it is wide enough.
    cols, outer = 1, len(rest)
    while outer and cols < max(_MIN_COLUMNS, _BLOCK_AMPS // size):
        outer -= 1
        cols *= dims[rest[outer]]
    lead = (slice(None),) * len(axes)
    blocks = tuple(lead + i for i in np.ndindex(*(dims[a] for a in rest[:outer])))
    return _AxisPlan(size, order, blocks)


def permute_rows(state: np.ndarray, perm: np.ndarray, row_size: int) -> np.ndarray:
    """View the state as ``(len(perm), row_size)`` and gather rows, ``out[r] = in[perm[r]]``.

    Returns a fresh flat state and never writes into ``state``.
    """
    return _gather(state, 1, perm, row_size)


def _gather(state: np.ndarray, pre: int, src: np.ndarray, post: int) -> np.ndarray:
    """Over the ``(pre, len(src), post)`` view, ``out[p, s, q] = in[p, src[s], q]``; a fresh flat state."""
    return np.take(state.reshape(pre, len(src), post), src, axis=1).reshape(-1)


def apply_gate(state: np.ndarray, dims: tuple[int, ...], gate: "Gate") -> np.ndarray:
    """Apply a gate to the dense state tensor; a fresh flat state, as from :func:`apply_block`.

    A monomial gate (one non-zero per row and column) moves amplitudes by a
    gather over the wires from its lowest to its highest, then multiplies by
    its phases unless all are 1, so it is exact for phases of ±1 and ±i.
    Any other gate is a dense :func:`apply_block`.
    """
    if gate.monomial is None:
        return apply_block(state, dims, gate.wires, gate.matrix)
    pre, post, src, phases = _gather_plan(dims, gate.wires, gate.monomial)
    out = state.copy() if src is None else _gather(state, pre, src, post)
    if phases is not None:
        if len(gate.wires) == 1:
            view = out.reshape(pre, -1, post)
        else:  # the wires lead: with a wire innermost, numpy would buffer the multiply
            order = _axis_plan(dims, gate.wires).order
            view = out.reshape(dims) if order is None else out.reshape(dims).transpose(order)
        np.multiply(view, phases, out=view, order="C")
    return out


class _Monomial:
    """A ``size``-square matrix with one non-zero per row and column: row r holds
    ``phases[r]`` in column ``cols[r]``.

    ``cols`` is None for a diagonal matrix and ``phases`` None when every
    phase is 1.  Hashed by identity: a gate and its rewirings share one.
    """

    __slots__ = ("size", "cols", "phases")

    def __init__(self, matrix: np.ndarray) -> None:
        self.size = matrix.shape[0]
        rows, cols = np.nonzero(matrix)
        phases = matrix[rows, cols]
        self.cols = None if np.array_equal(cols, rows) else cols
        self.phases = None if (phases == 1).all() else phases


@functools.lru_cache(maxsize=256)
def _gather_plan(
    dims: tuple[int, ...], wires: tuple[int, ...], mono: _Monomial
) -> tuple[int, int, np.ndarray | None, np.ndarray | None]:
    """``(pre, post, src, phases)`` of a monomial gate on ``wires``.

    Over the ``(pre, span, post)`` view, the span running over axes
    min(wires)..max(wires), ``src`` is the source span entry of each span
    entry (None when the gate is diagonal).  ``phases`` holds the gate's k
    phases (None when all are 1): for one wire a ``(k, 1)`` column over the
    ``(pre, k, post)`` view, for more one axis per wire over the state tensor
    transposed so that its wires lead.  So a plan holds at most span entries.
    Cached per layout, wire tuple and monomial; a bad call raises as
    :func:`apply_block` does, every time.
    """
    if _axis_plan(dims, wires).size != mono.size:
        raise ValueError("matrix size does not match the selected axes")
    lo, hi = min(wires), max(wires)
    pre, post = math.prod(dims[:lo]), math.prod(dims[hi + 1 :])
    src = phases = None
    if mono.cols is not None:
        # Tag each span entry and move the tags as the gate moves amplitudes: wires lead, wires[0] outermost.
        axes, lead = [w - lo for w in wires], range(len(wires))
        tags = np.moveaxis(np.arange(math.prod(dims[lo : hi + 1])).reshape(dims[lo : hi + 1]), axes, lead)
        moved = tags.reshape(mono.size, -1)[mono.cols].reshape(tags.shape)
        src = np.moveaxis(moved, lead, axes).reshape(-1)
    if mono.phases is not None:
        ones = 1 if len(wires) == 1 else len(dims) - len(wires)
        phases = mono.phases.reshape([dims[w] for w in wires] + [1] * ones)
    return pre, post, src, phases


# Symbol registers of each oracle kind, name: dimension, in wire order after the index.
# A query adds input component r into symbol register r modulo its dimension.
_SYMBOL_REGISTERS = {
    "bit": {"symbol": 2},
    "weak": {"symbol": 4},
    "strong": {"bx": 2, "by": 2, "bz": 4},
}


@dataclass(frozen=True)
class RegisterLayout:
    """Register shape of a query algorithm: index, symbol register(s), workspace."""

    n: int
    symbol: str  # "bit" | "weak" | "strong"
    workspace: int = 1  # workspace dimension, a power of two (1 = none)
    dims: tuple[int, ...] = field(init=False, repr=False, compare=False)
    register_names: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.n) is not int or type(self.workspace) is not int:  # refuses bool too
            name = "n" if type(self.n) is not int else "workspace"
            raise SimulationError(f"layout {name} must be an integer, got {getattr(self, name)!r}")
        if self.n < 1:
            raise SimulationError(f"layout n must be at least 1, got {self.n}")
        if not isinstance(self.symbol, str) or self.symbol not in _SYMBOL_REGISTERS:
            raise SimulationError(f"unknown symbol register kind {self.symbol!r}")
        if self.workspace < 1 or self.workspace & (self.workspace - 1):
            raise SimulationError("workspace dimension must be a power of two")
        symbols = _SYMBOL_REGISTERS[self.symbol]
        qubits = range(self.workspace.bit_length() - 1)
        object.__setattr__(self, "dims", (self.n, *symbols.values(), *(2 for _ in qubits)))
        object.__setattr__(self, "register_names", ("index", *symbols, *(f"work{i}" for i in qubits)))
        if self.total_dim > DIM_CAP:
            raise SimulationError(f"state dimension {self.total_dim} exceeds the cap {DIM_CAP}")

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def wire(self, register: str) -> int:
        try:
            return self.register_names.index(register)
        except ValueError:
            raise SimulationError(f"unknown register {register!r}") from None


def _checked_wires(wires: Iterable[int]) -> tuple[int, ...]:
    """Distinct integer wires (numpy integers pass, bool and float do not); the layout checks their range."""
    out = tuple(wires) if isinstance(wires, Iterable) else (None,)
    if not all(isinstance(w, (int, np.integer)) and not isinstance(w, bool) for w in out):
        raise SimulationError(f"gate wires must be integers, got {wires!r}")
    if len(set(out)) != len(out):
        raise SimulationError(f"gate wires must be distinct, got {out}")
    return tuple(map(int, out))  # plain ints: they serialize, and a plan cache sees one key type


@dataclass(frozen=True)
class Gate:
    """Named gate or explicit unitary block on a tuple of wires."""

    name: str
    wires: tuple[int, ...]
    matrix: np.ndarray = field(repr=False)
    param: float | None = None
    # Set by the unitarity check; None for a dense matrix.  See apply_gate.
    monomial: _Monomial | None = field(init=False, repr=False, compare=False)

    @classmethod
    def named(cls, name: str, wires: Sequence[int], param: float | None = None) -> "Gate":
        key = name.upper() if isinstance(name, str) else name
        if key == "CPHASE":
            if not isinstance(param, numbers.Real) or isinstance(param, bool) or not math.isfinite(param):
                raise SimulationError(f"CPHASE param must be a finite real phase, got {param!r}")
            param = float(param)
            matrix = np.diag([1, 1, 1, cmath.exp(1j * param)])
        else:
            matrix = _NAMED.get(key) if isinstance(key, str) else None
            if matrix is None:
                raise SimulationError(f"unknown gate {name!r}")
            if param is not None:
                raise SimulationError(f"gate {key} takes no param, got {param!r}")
        return cls(name=key, wires=wires, matrix=matrix, param=param)

    @classmethod
    def block(cls, matrix: np.ndarray, wires: Sequence[int]) -> "Gate":
        return cls(name="BLOCK", wires=wires, matrix=matrix)

    def rewired(self, wires: Iterable[int]) -> "Gate":
        """This gate on other wires; only they are checked, as the read-only matrix and monomial are shared."""
        gate = object.__new__(type(self))
        gate.__dict__.update(self.__dict__, wires=_checked_wires(wires))
        return gate

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gate):
            return NotImplemented
        return (
            (self.name, self.wires, self.param) == (other.name, other.wires, other.param)
            and (self.matrix is other.matrix or np.array_equal(self.matrix, other.matrix))
        )

    def __hash__(self) -> int:
        # + 0 turns -0.0 into 0.0, which compare equal, so equal gates hash alike.
        return hash((self.name, self.wires, self.param, (self.matrix + 0).tobytes()))

    def __post_init__(self) -> None:
        object.__setattr__(self, "wires", _checked_wires(self.wires))
        m = self.matrix
        owned = isinstance(m, np.ndarray) and m.flags.owndata and not m.flags.writeable
        if not owned or m.dtype != np.complex128:
            # A private read-only copy: no write after the unitarity check can reach the gate.
            m = np.array(m, dtype=np.complex128)
            m.flags.writeable = False
            object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise SimulationError("gate matrix must be square")
        if m.shape[0] > BLOCK_CAP:
            raise SimulationError(f"gate dimension {m.shape[0]} exceeds {BLOCK_CAP}")
        err = np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()
        if not err <= UNITARY_TOL:  # a NaN defect fails too
            raise SimulationError(f"gate is not unitary (defect {err:.2e})")
        # Every row of a unitary is non-zero, so k exact non-zeros are one per row and column.
        mono = _Monomial(m) if np.count_nonzero(m) == m.shape[0] else None
        object.__setattr__(self, "monomial", mono)


def uniform_prep_block(dim: int) -> np.ndarray:
    """Real orthogonal involution sending basis state 0 to the uniform vector."""
    if dim == 1:
        return np.ones((1, 1), dtype=np.complex128)
    u = np.full(dim, 1.0 / math.sqrt(dim))
    v = np.zeros(dim)
    v[0] = 1.0
    v -= u
    h = np.eye(dim) - 2.0 * np.outer(v, v) / (v @ v)
    return h.astype(np.complex128)


def diffusion_block(dim: int) -> np.ndarray:
    """Reflection about the uniform vector, 2|u><u| - I."""
    u = np.full(dim, 1.0 / math.sqrt(dim))
    return (2.0 * np.outer(u, u) - np.eye(dim)).astype(np.complex128)


def xor_controlled_block(control_dim: int, control_values: Iterable[int]) -> np.ndarray:
    """Unitary on (control, qubit) flipping the qubit when control is listed."""
    flips = set(control_values)
    cols = [2 * c + (b ^ (c in flips)) for c in range(control_dim) for b in range(2)]
    return np.eye(2 * control_dim, dtype=np.complex128)[cols]


@dataclass(frozen=True)
class Measurement:
    """Registers to observe plus an outcome-to-answer map.

    Outcome keys join the measured register values with commas; the index
    register reports positions 1..n.  Unmapped outcomes answer as their key.
    """

    registers: tuple[str, ...]
    outcome_map: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        registers, answers = self.registers, self.outcome_map
        if type(registers) is not tuple or not all(type(r) is str for r in registers):
            raise SimulationError(f"measure registers must be a tuple of str names, got {registers!r}")
        if len(set(registers)) != len(registers):
            raise SimulationError(f"measured registers {registers} repeat a register")
        if not isinstance(answers, Mapping) or not all(
            type(k) is str and type(v) in (str, int, float) for k, v in answers.items()
        ):
            raise SimulationError(f"measure map must map str outcomes to str/int/float answers, got {answers!r}")


Step = object  # tuple[Gate, ...] | "QUERY" | "QUERY_INV"


@dataclass(frozen=True)
class QueryAlgorithm:
    """Alternating unitary and query steps over a fixed register layout."""

    layout: RegisterLayout
    steps: tuple[Step, ...]
    measure: Measurement | None = None
    query_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.steps:
            raise SimulationError("algorithm needs at least one step")
        queries = [step in (QUERY, QUERY_INV) for step in self.steps]
        if queries[0] or queries[-1]:
            raise SimulationError("algorithm must begin and end with a unitary step")
        if any(a and b for a, b in zip(queries, queries[1:])):
            raise SimulationError("query steps must alternate with unitary steps")
        object.__setattr__(self, "query_count", sum(queries))
        # Each distinct gate is fitted once, by the plan apply_block will use.
        gates = {id(g): g for step, q in zip(self.steps, queries) if not q for g in step}
        for gate in gates.values():
            try:
                size = _axis_plan(self.layout.dims, gate.wires).size
            except ValueError:
                size = None
            if size != gate.matrix.shape[0]:
                i, k = next((i, k) for i, step in enumerate(self.steps) if not queries[i]
                            for k, g in enumerate(step) if g is gate)
                need = f"out of range for {len(self.layout.dims)} wires" if size is None else f"need dimension {size}"
                raise SimulationError(f"steps[{i}].gates[{k}]: gate {gate.name} wires {gate.wires} {need}")
        if self.measure is not None:
            for reg in self.measure.registers:
                if reg not in self.layout.register_names:
                    raise SimulationError(f"measure register {reg!r} is not one of {self.layout.register_names}")


class Oracle:
    """Input-dependent permutation acting on the (index, symbols) registers."""

    def __init__(self, kind: str, n: int, forward_rows: np.ndarray, label: str):
        self.kind = kind
        self.n = n
        self.rows = len(forward_rows)
        self.label = label
        self._gather = np.empty(self.rows, dtype=np.int64)
        self._gather[forward_rows] = np.arange(self.rows, dtype=np.int64)
        self._gather_inv = np.asarray(forward_rows, dtype=np.int64)

    def apply(self, state: np.ndarray, adjoint: bool = False) -> np.ndarray:
        if state.size % self.rows:
            raise SimulationError("state size incompatible with oracle registers")
        perm = self._gather_inv if adjoint else self._gather
        return permute_rows(state, perm, state.size // self.rows)

    def __repr__(self) -> str:
        return f"Oracle({self.kind}, {self.label})"


def _oracle(kind: str, values: Sequence, label: str) -> Oracle:
    """Add component r of each input entry into symbol register r, modulo its dimension.

    On a qubit register, addition mod 2 is XOR.  ``values`` holds one entry
    per position: a number for one symbol register, a tuple for several.
    """
    dims = list(_SYMBOL_REGISTERS[kind].values())
    ones = (1,) * len(dims)
    v = np.array(values, dtype=np.int64).reshape(-1, len(dims))
    n = len(v)
    forward = np.arange(n, dtype=np.int64).reshape(n, *ones)
    for r, d in enumerate(dims):
        b = np.arange(d, dtype=np.int64).reshape(d, *ones[r + 1 :])
        forward = forward * d + (b + v[:, r].reshape(n, *ones)) % d
    return Oracle(kind, n, forward.reshape(-1), label)


def oracle_bit(x: BitString | str) -> Oracle:
    """Standard Boolean oracle: the target bit is XORed with x_j."""
    xb = BitString.coerce(x)
    return _oracle("bit", xb.bits, str(xb))


def oracle_weak(z: SabString) -> Oracle:
    """Weak sabotage oracle: cyclic mod-4 addition of the symbol z_j."""
    return _oracle("weak", z.symbols, str(z))


def oracle_strong(w: StrongInput) -> Oracle:
    """Strong sabotage oracle returning the whole tuple (x_j, y_j, z_j)."""
    return _oracle("strong", w.tuples, str(w))


@dataclass(frozen=True)
class SimTrace:
    """Final state of a run and its measured distribution (None without a measurement).

    Intermediate states are not kept; :func:`evolve` streams them.
    """

    final_state: np.ndarray
    distribution: dict | None


def initial_state(layout: RegisterLayout) -> np.ndarray:
    state = np.zeros(layout.total_dim, dtype=np.complex128)
    state[0] = 1.0
    return state


def index_marginal(state: np.ndarray, n: int) -> np.ndarray:
    """Probability of each index position 1..n: the state's squared moduli summed over the other wires."""
    return (np.abs(state.reshape(n, -1)) ** 2).sum(axis=1)


def index_block_mass(state: np.ndarray, layout: RegisterLayout, positions: Iterable[int]) -> float:
    """Squared mass of the index register on the given 1-based positions."""
    block = set(positions)
    if not all(1 <= j <= layout.n for j in block):
        raise SimulationError(f"positions {sorted(block)} must lie in 1..{layout.n}")
    return _block_mass(index_marginal(state, layout.n), block)


def _block_mass(probs: np.ndarray, block: AbstractSet[int]) -> float:
    """Mass of an index marginal on a set of 1-based positions, summed in the set's order."""
    return float(sum(probs[j - 1] for j in block))


def measure_distribution(
    state: np.ndarray, layout: RegisterLayout, measure: Measurement
) -> dict:
    probs = np.abs(state.reshape(layout.dims)) ** 2
    wires = [layout.wire(reg) for reg in measure.registers]
    keep = sorted(set(wires))
    drop = tuple(a for a in range(len(layout.dims)) if a not in keep)
    marg = probs.sum(axis=drop) if drop else probs
    marg = np.moveaxis(marg, [keep.index(w) for w in wires], range(len(wires)))
    # Outcomes of non-zero probability in C order, one value column per register.
    flat = marg.reshape(-1)
    hits = np.flatnonzero(flat)
    outcomes = np.unravel_index(hits, marg.shape) if marg.ndim else ()
    columns = [
        (values + 1 if reg == "index" else values).tolist()
        for reg, values in zip(measure.registers, outcomes)
    ]
    out: dict = {}
    for p, *outcome in zip(flat[hits].tolist(), *columns):
        key = ",".join(map(str, outcome))
        answer = measure.outcome_map.get(key, key)
        out[answer] = out.get(answer, 0.0) + p
    return out


def evolve(alg: QueryAlgorithm, oracle: Oracle | None = None) -> Iterator[np.ndarray]:
    """Yield the state right before each query, then the final state.

    The only place a run's steps are applied: a converted run too is a
    source run here, on the bit oracle that ``protocols.convert_strong``
    reads off the strong gadget once per local case.  Every yielded array is
    fresh and never written afterwards; the generator holds only the current
    state, so a caller that keeps nothing runs in O(dim) memory whatever the
    query count.
    """
    layout = alg.layout
    if alg.query_count and oracle is None:
        raise SimulationError("algorithm contains queries but no oracle was given")
    if oracle is not None and (oracle.kind != layout.symbol or oracle.n != layout.n):
        raise SimulationError(
            f"oracle ({oracle.kind}, n={oracle.n}) does not fit layout "
            f"({layout.symbol}, n={layout.n})"
        )
    state = initial_state(layout)
    for step in alg.steps:
        if step in (QUERY, QUERY_INV):
            yield state
            state = oracle.apply(state, adjoint=step == QUERY_INV)  # type: ignore[union-attr]
        else:  # one state is held between gates: each replaces the last
            for gate in step:  # type: ignore[union-attr]
                state = apply_gate(state, layout.dims, gate)
        norm = math.sqrt(np.vdot(state, state).real)
        if abs(norm - 1.0) > NORM_TOL:
            raise SimulationError(f"state norm drifted to {norm}")
    yield state


def run(alg: QueryAlgorithm, oracle: Oracle | None = None) -> SimTrace:
    """Execute the algorithm exactly and measure its final state."""
    for state in evolve(alg, oracle):
        pass
    distribution = (
        measure_distribution(state, alg.layout, alg.measure) if alg.measure is not None else None
    )
    return SimTrace(final_state=state, distribution=distribution)


# ---------------------------------------------------------------------------
# Catalog circuits


def deutsch_parity() -> QueryAlgorithm:
    """One-query exact parity of two bits via phase kickback.

    Outputs 0 on inputs 00 and 11, and 1 on 01 and 10, with certainty.
    """
    layout = RegisterLayout(n=2, symbol="bit", workspace=1)
    w2 = uniform_prep_block(2)
    prep = (
        Gate.named("X", (1,)),
        Gate.named("H", (1,)),
        Gate.block(w2, (0,)),
    )
    unprep = (
        Gate.block(w2, (0,)),
        Gate.named("H", (1,)),
        Gate.named("X", (1,)),
    )
    measure = Measurement(registers=("index",), outcome_map={"1": 0, "2": 1})
    return QueryAlgorithm(layout=layout, steps=(prep, QUERY, unprep), measure=measure)


@functools.lru_cache(maxsize=BLOCK_CAP)
def _index_gates(n: int) -> tuple[Gate, Gate, Measurement]:
    """The uniform-prep and diffusion gates on the index wire and the index measurement, built once per n."""
    return (
        Gate.block(uniform_prep_block(n), (0,)),
        Gate.block(diffusion_block(n), (0,)),
        Measurement(registers=("index",), outcome_map={str(j): j for j in range(1, n + 1)}),
    )


# Wire-1 gates shared by every catalog circuit: X and H on the bit target, the weak phase mark.
_TARGET_X = Gate.named("X", (1,))
_TARGET_H = Gate.named("H", (1,))
_PHASE_MARK = Gate.block(np.diag([1.0, 1.0, -1.0, -1.0]), (1,))  # weak symbols 2, 3: star, dagger


def _grover(
    symbol: str, n: int, iterations: int, prep: tuple[Gate, ...], query: tuple[Step, ...]
) -> QueryAlgorithm:
    """Prepare, then ``iterations`` times the query steps and a diffusion; measure the index."""
    if not 1 <= n <= BLOCK_CAP:
        raise SimulationError(f"index dimension {n} outside 1..{BLOCK_CAP}")
    if iterations < 0:
        raise SimulationError(f"iterations must be >= 0, got {iterations}")
    uniform, diffuse, measure = _index_gates(n)
    steps = [(*prep, uniform)] + [*query, (diffuse,)] * iterations  # the same gates every iteration
    if iterations == 0:
        steps.append(())  # an algorithm ends on a unitary step
    return QueryAlgorithm(RegisterLayout(n=n, symbol=symbol), tuple(steps), measure)


def grover_or(n: int, iterations: int) -> QueryAlgorithm:
    """Grover search for a set bit of x; measures the index register.

    Marked positions are phase-flipped through a target qubit held in |->.
    """
    return _grover("bit", n, iterations, (_TARGET_X, _TARGET_H), (QUERY,))


def _grover_marks(n: int, iterations: int) -> QueryAlgorithm:
    """Grover search for star/dagger symbols through the weak oracle.

    Each iteration queries, phase-flips symbol values 2 and 3, then
    uncomputes with an inverse query before the diffusion step.
    """
    return _grover("weak", n, iterations, (), (QUERY, (_PHASE_MARK,), QUERY_INV))


def random_query_algorithm(
    n: int, queries: int, rng: np.random.Generator, workspace: int = 2
) -> QueryAlgorithm:
    """Haar-random interleaving circuit over the bit-oracle layout."""
    if queries < 0:
        raise SimulationError(f"queries must be >= 0, got {queries}")
    layout = RegisterLayout(n=n, symbol="bit", workspace=workspace)
    # Per layer: a 2n x 2n gate on wires (0, 1), then, when workspace > 1, a
    # 4 x 4 one on (1, 2).  One draw takes every normal in the order a draw
    # per gate would, its real then imaginary part; one QR per gate size.
    sizes = [2 * n] + [4] * (workspace > 1)
    normals = rng.standard_normal((queries + 1, 2 * sum(d * d for d in sizes)))
    unitaries, offset = [], 0
    for d in sizes:
        parts = normals[:, offset:offset + 2 * d * d].reshape(queries + 1, 2, d, d)
        offset += 2 * d * d
        q, r = np.linalg.qr(parts[:, 0] + 1j * parts[:, 1])
        diag = np.diagonal(r, axis1=1, axis2=2)
        unitaries.append(q * (diag / np.abs(diag))[:, None, :])
    wires = [(0, 1), (1, 2)]
    layers = [tuple(Gate.block(u[t], w) for u, w in zip(unitaries, wires)) for t in range(queries + 1)]

    steps: list[Step] = [layers[0]]
    for layer in layers[1:]:
        steps.append(QUERY)
        steps.append(layer)
    measure = Measurement(registers=("index",))
    return QueryAlgorithm(layout=layout, steps=tuple(steps), measure=measure)


# ---------------------------------------------------------------------------
# Grover closed form, amplitude amplification, hybrid instrumentation


@dataclass(frozen=True)
class GroverResult:
    """Exact outcome distribution over positions and the marked-set mass."""

    position_probs: tuple[float, ...]
    success_mass: float
    iterations: int
    queries_used: int


def grover_find_mark(z: SabString, iterations: int) -> GroverResult:
    """Run mark search on a sabotaged input; distribution is exact."""
    n = len(z)
    for state in evolve(_grover_marks(n, iterations), oracle_weak(z)):
        pass
    probs = tuple(index_marginal(state, n).tolist())  # summed as measure_distribution sums it
    success = sum(probs[j - 1] for j in z.mark_positions)
    return GroverResult(
        position_probs=probs,
        success_mass=float(success),
        iterations=iterations,
        queries_used=2 * iterations,
    )


@dataclass(frozen=True)
class AmplifyResult:
    """Post-amplification state and the exact good-subspace mass."""

    state: np.ndarray
    good_mass: float
    rounds: int


def amplitude_amplify(prep: np.ndarray, good_mask: np.ndarray, rounds: int) -> AmplifyResult:
    """Reflect alternately about the good subspace and the prepared state.

    ``prep`` is the prepared state vector, ``good_mask`` a boolean array of
    its shape.  With initial good mass p, the amplified mass is exactly
    sin^2((2 rounds + 1) asin sqrt(p)).
    """
    if rounds < 0:
        raise SimulationError("rounds must be non-negative")
    psi = np.asarray(prep)
    mask = np.asarray(good_mask, dtype=bool)
    if mask.shape != psi.shape:
        raise SimulationError("good mask must match the state dimension")
    state = psi.copy()
    for _ in range(rounds):
        state = np.where(mask, -state, state)
        state = 2.0 * np.vdot(psi, state) * psi - state
    good_mass = float(np.sum(np.abs(state[mask]) ** 2))
    return AmplifyResult(state=state, good_mass=good_mass, rounds=rounds)


@dataclass(frozen=True)
class HybridReport:
    """Per-query block masses for both runs and the overlap telescope."""

    block: tuple[int, ...]
    p_x: tuple[float, ...]
    p_y: tuple[float, ...]
    step_overlaps: tuple[float, ...]  # |<psi_x^t|psi_y^t>| for t = 1..T, then finals

    @property
    def sum_x(self) -> float:
        return float(sum(self.p_x))

    @property
    def sum_y(self) -> float:
        return float(sum(self.p_y))

    @property
    def overlap(self) -> float:
        return self.step_overlaps[-1]


def hybrid_sum(alg: QueryAlgorithm, x: BitString | str, block: Iterable[int]) -> HybridReport:
    """Run the algorithm on x and on x with ``block`` flipped, instrumented.

    Both runs query the bit oracle (:func:`oracle_bit`).  Guarantees
    sum(p_x) + sum(p_y) >= 1 - |<psi_x|psi_y>| up to float error:
    each query can shrink the overlap by at most p_{x,t} + p_{y,t}.
    """
    xb = BitString.coerce(x)
    block_t = tuple(sorted(set(block)))
    if not block_t:
        raise SimulationError("block must be non-empty")
    yb = xb.flip(block_t)
    # The two runs advance in lockstep; neither keeps its past states.
    p_x: list[float] = []
    p_y: list[float] = []
    overlaps: list[float] = []
    runs = zip(evolve(alg, oracle_bit(xb)), evolve(alg, oracle_bit(yb)))
    for t, (sx, sy) in enumerate(runs):
        if t < alg.query_count:
            p_x.append(index_block_mass(sx, alg.layout, block_t))
            p_y.append(index_block_mass(sy, alg.layout, block_t))
        overlaps.append(float(abs(np.vdot(sx, sy))))
    return HybridReport(block=block_t, p_x=tuple(p_x), p_y=tuple(p_y), step_overlaps=tuple(overlaps))


# ---------------------------------------------------------------------------
# JSON algorithm files


def algorithm_to_json(alg: QueryAlgorithm) -> str:
    def gate_entry(gate: Gate) -> dict:
        entry: dict = {"gate": gate.name, "wires": list(gate.wires)}
        if gate.name == "BLOCK":
            entry["matrix"] = [[[v.real, v.imag] for v in row] for row in gate.matrix.tolist()]
        if gate.param is not None:
            entry["param"] = gate.param
        return entry

    layout, measure = alg.layout, alg.measure
    payload = {
        "layout": {"n": layout.n, "symbol": layout.symbol, "workspace": layout.workspace},
        "steps": [s if s in (QUERY, QUERY_INV) else {"gates": [gate_entry(g) for g in s]} for s in alg.steps],
        "measure": None if measure is None
        else {"registers": list(measure.registers), "map": dict(measure.outcome_map)},
    }
    return json.dumps(payload, sort_keys=True)


def _only_keys(obj, *keys: str) -> None:
    """Refuse a key of a JSON object that the algorithm reader does not read."""
    for key in obj if isinstance(obj, dict) else ():
        if key not in keys:
            raise SimulationError(f"unknown field {key!r}")


def algorithm_from_json(text: str) -> QueryAlgorithm:
    """Parse an algorithm file; the objects built check its fields, and their errors gain the field's place."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SimulationError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise SimulationError("algorithm file must be a JSON object")
    where = "file"
    try:
        _only_keys(payload, "layout", "steps", "measure")
        lay, steps_in = payload["layout"], payload["steps"]
        where = "layout"
        _only_keys(lay, "n", "symbol", "workspace")
        layout = RegisterLayout(n=lay["n"], symbol=lay["symbol"], workspace=lay.get("workspace", 1))
        where = "steps"
        steps: list[Step] = []
        for i, step in enumerate(steps_in):
            if step in (QUERY, QUERY_INV):
                steps.append(step)
                continue
            where = f"steps[{i}]"
            _only_keys(step, "gates")
            gates = []
            for k, entry in enumerate(step["gates"]):
                where = f"steps[{i}].gates[{k}]"
                name, wires = entry["gate"], entry["wires"]
                if isinstance(name, str) and name.upper() == "BLOCK":
                    _only_keys(entry, "gate", "wires", "matrix")
                    matrix = [[complex(re, im) for re, im in row] for row in entry["matrix"]]
                    gates.append(Gate.block(matrix, wires))
                else:
                    _only_keys(entry, "gate", "wires", "param")
                    gates.append(Gate.named(name, wires, entry.get("param")))
            steps.append(tuple(gates))
        where = "measure"
        measure = None
        if (m := payload.get("measure")) is not None:
            _only_keys(m, "registers", "map")
            registers = m["registers"]  # a JSON array reads as a tuple, as Measurement wants
            registers = tuple(registers) if type(registers) is list else registers
            measure = Measurement(registers=registers, outcome_map=m.get("map", {}))
    except KeyError as exc:
        raise SimulationError(f"algorithm {where} has no field {exc.args[0]!r}") from None
    except (SimulationError, TypeError, ValueError, AttributeError) as exc:
        raise SimulationError(f"algorithm {where}: {exc}") from None
    return QueryAlgorithm(layout=layout, steps=tuple(steps), measure=measure)
