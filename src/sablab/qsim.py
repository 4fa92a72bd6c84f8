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
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .boolfn import BitString
from .sabotage import SabString, StrongInput

DIM_CAP = 2**21
BLOCK_CAP = 16
UNITARY_TOL = 1e-12
NORM_TOL = 1e-10

QUERY = "QUERY"
QUERY_INV = "QUERY_INV"

_SQRT2 = math.sqrt(2.0)
_NAMED_1Q = {
    "H": np.array([[1, 1], [1, -1]], dtype=np.complex128) / _SQRT2,
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}
_NAMED_2Q = {
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(np.complex128),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
    ),
}
# Every named gate shares these arrays, so none may be written after its check.
for _m in (*_NAMED_1Q.values(), *_NAMED_2Q.values()):
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
    """
    k = matrix.shape[0]
    size, order, inverse = _axis_plan(dims, axes)
    if size != k:
        raise ValueError("matrix size does not match the selected axes")
    if order is None:
        return (matrix @ state.reshape(k, -1)).reshape(-1)
    t = state.reshape(dims).transpose(order)
    out = (matrix @ t.reshape(k, -1)).reshape(t.shape).transpose(inverse)
    return np.ascontiguousarray(out).reshape(-1)


@functools.lru_cache(maxsize=256)
def _axis_plan(
    dims: tuple[int, ...], axes: tuple[int, ...]
) -> tuple[int, tuple[int, ...] | None, tuple[int, ...] | None]:
    """Checked block size of ``axes`` and the transpose there and back (None: leading axes).

    Cached per layout and wire tuple; a bad call raises every time, since
    exceptions are not cached.
    """
    if len(set(axes)) != len(axes) or not all(0 <= a < len(dims) for a in axes):
        raise ValueError(f"axes {axes} must be distinct and in 0..{len(dims) - 1}")
    size = math.prod(dims[a] for a in axes)
    if axes == tuple(range(len(axes))):
        return size, None, None
    order = axes + tuple(a for a in range(len(dims)) if a not in axes)
    inverse = tuple(order.index(a) for a in range(len(dims)))
    return size, order, inverse


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
            order = _axis_plan(dims, gate.wires)[1]
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
    if _axis_plan(dims, wires)[0] != mono.size:
        raise ValueError("matrix size does not match the selected axes")
    lo, hi = min(wires), max(wires)
    pre, post = math.prod(dims[:lo]), math.prod(dims[hi + 1 :])
    src = phases = None
    if mono.cols is not None:
        # The gate row of each span entry, wires[0] most significant.
        sub = dims[lo : hi + 1]
        row = np.zeros(sub, dtype=np.intp)
        weight = 1
        for w in reversed(wires):
            row += np.arange(dims[w]).reshape([dims[w] if a == w else 1 for a in range(lo, hi + 1)]) * weight
            weight *= dims[w]
        row = row.reshape(-1)
        # Span offset of each gate row's digits; entry s reads s - offset[r] + offset[cols[r]].
        digits = np.unravel_index(np.arange(weight), [dims[w] for w in wires])
        offset = sum(d * math.prod(dims[w + 1 : hi + 1]) for w, d in zip(wires, digits))
        src = (offset[mono.cols] - offset)[row]
        src += np.arange(row.size)
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
            raise SimulationError("index register needs at least one position")
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
        name = name.upper()
        if name in _NAMED_1Q:
            matrix = _NAMED_1Q[name]
        elif name in _NAMED_2Q:
            matrix = _NAMED_2Q[name]
        elif name == "CPHASE":
            if param is None:
                raise SimulationError("CPHASE needs a phase parameter")
            matrix = np.diag([1, 1, 1, cmath.exp(1j * param)])
        else:
            raise SimulationError(f"unknown gate {name!r}")
        return cls(name=name, wires=tuple(wires), matrix=matrix, param=param)

    @classmethod
    def block(cls, matrix: np.ndarray, wires: Sequence[int]) -> "Gate":
        return cls(name="BLOCK", wires=tuple(wires), matrix=matrix)

    def rewired(self, wires: Sequence[int]) -> "Gate":
        """The same gate on other wires, sharing this gate's read-only matrix and monomial.

        That matrix passed the unitarity check when this gate was built, so
        only the wires are checked.
        """
        wires = tuple(wires)
        if len(set(wires)) != len(wires):
            raise SimulationError("gate wires must be distinct")
        gate = object.__new__(type(self))
        gate.__dict__.update(self.__dict__, wires=wires)
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
        if len(set(self.wires)) != len(self.wires):
            raise SimulationError("gate wires must be distinct")
        err = np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()
        if err > UNITARY_TOL:
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
    dim = 2 * control_dim
    m = np.zeros((dim, dim), dtype=np.complex128)
    for c in range(control_dim):
        for b in range(2):
            target = b ^ 1 if c in flips else b
            m[2 * c + target, 2 * c + b] = 1.0
    return m


@dataclass(frozen=True)
class Measurement:
    """Registers to observe plus an outcome-to-answer map.

    Outcome keys join the measured register values with commas; the index
    register reports positions 1..n.  Unmapped outcomes answer as their key.
    """

    registers: tuple[str, ...]
    outcome_map: Mapping[str, object] = field(default_factory=dict)


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
                size = _axis_plan(self.layout.dims, gate.wires)[0]
            except ValueError:
                raise SimulationError(f"gate {gate.name} wires {gate.wires} out of range") from None
            if size != gate.matrix.shape[0]:
                raise SimulationError(f"gate {gate.name} on wires {gate.wires} needs dimension {size}")
        if self.measure is not None:
            registers = self.measure.registers
            if len(set(registers)) != len(registers):
                raise SimulationError(f"measured registers {registers} repeat a register")
            for reg in registers:
                self.layout.wire(reg)


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


def index_block_mass(state: np.ndarray, layout: RegisterLayout, positions: Iterable[int]) -> float:
    """Squared mass of the index register on the given 1-based positions."""
    block = set(positions)
    if not all(1 <= j <= layout.n for j in block):
        raise SimulationError(f"positions {sorted(block)} must lie in 1..{layout.n}")
    probs = np.abs(state.reshape(layout.n, -1)) ** 2
    return float(sum(probs[j - 1].sum() for j in block))


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

    The only place steps are applied.  Every yielded array is fresh and never
    written afterwards; the generator holds only the current state, so a
    caller that keeps nothing runs in O(dim) memory whatever the query count.
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
def _index_gates(n: int) -> tuple[Gate, Gate]:
    """The uniform-prep and diffusion gates on the index wire, built once per n."""
    return Gate.block(uniform_prep_block(n), (0,)), Gate.block(diffusion_block(n), (0,))


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
    uniform, diffuse = _index_gates(n)
    steps = [(*prep, uniform)] + [*query, (diffuse,)] * iterations  # the same gates every iteration
    if iterations == 0:
        steps.append(())  # an algorithm ends on a unitary step
    measure = Measurement(registers=("index",), outcome_map={str(j): j for j in range(1, n + 1)})
    return QueryAlgorithm(RegisterLayout(n=n, symbol=symbol), tuple(steps), measure)


def grover_or(n: int, iterations: int) -> QueryAlgorithm:
    """Grover search for a set bit of x; measures the index register.

    Marked positions are phase-flipped through a target qubit held in |->.
    """
    return _grover("bit", n, iterations, (_TARGET_X, _TARGET_H), (QUERY,))


def grover_marks(n: int, iterations: int) -> QueryAlgorithm:
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

    def haar(dim: int) -> np.ndarray:
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(z)
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    def layer() -> tuple[Gate, ...]:
        gates = [Gate.block(haar(2 * n), (0, 1))]
        if workspace > 1:
            gates.append(Gate.block(haar(4), (1, 2)))
        return tuple(gates)

    steps: list[Step] = [layer()]
    for _ in range(queries):
        steps.append(QUERY)
        steps.append(layer())
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
    for state in evolve(grover_marks(n, iterations), oracle_weak(z)):
        pass
    # The index marginal, summed as measure_distribution sums it.
    probs = tuple((np.abs(state.reshape(n, -1)) ** 2).sum(axis=1).tolist())
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


def _complex_to_pair(v: complex) -> list[float]:
    return [float(v.real), float(v.imag)]


def algorithm_to_json(alg: QueryAlgorithm) -> str:
    steps_payload: list = []
    for step in alg.steps:
        if step in (QUERY, QUERY_INV):
            steps_payload.append(step)
            continue
        gates = []
        for gate in step:  # type: ignore[union-attr]
            entry: dict = {"gate": gate.name, "wires": list(gate.wires)}
            if gate.name == "BLOCK":
                entry["matrix"] = [[_complex_to_pair(v) for v in row] for row in gate.matrix]
            if gate.param is not None:
                entry["param"] = gate.param
            gates.append(entry)
        steps_payload.append({"gates": gates})
    payload = {
        "layout": {
            "n": alg.layout.n,
            "symbol": alg.layout.symbol,
            "workspace": alg.layout.workspace,
        },
        "steps": steps_payload,
        "measure": None
        if alg.measure is None
        else {
            "registers": list(alg.measure.registers),
            "map": {k: v for k, v in alg.measure.outcome_map.items()},
        },
    }
    return json.dumps(payload, sort_keys=True)


def algorithm_from_json(text: str) -> QueryAlgorithm:
    """Parse an algorithm file; a malformed one raises SimulationError naming the bad field."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SimulationError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise SimulationError("algorithm file must be a JSON object")
    where = "file"
    try:
        lay, steps_in = payload["layout"], payload["steps"]
        where = "layout"
        layout = RegisterLayout(n=lay["n"], symbol=lay["symbol"], workspace=lay.get("workspace", 1))
        where = "steps"
        steps: list[Step] = []
        for i, step in enumerate(steps_in):
            if step in (QUERY, QUERY_INV):
                steps.append(step)
                continue
            where = f"steps[{i}]"
            gates = []
            for k, entry in enumerate(step["gates"]):
                where = f"steps[{i}].gates[{k}]"
                name = entry["gate"].upper()
                wires = tuple(entry["wires"])
                if name == "BLOCK":
                    matrix = [[complex(re, im) for re, im in row] for row in entry["matrix"]]
                    gates.append(Gate.block(matrix, wires))
                else:
                    gates.append(Gate.named(name, wires, entry.get("param")))
            steps.append(tuple(gates))
        where = "measure"
        measure = None
        if payload.get("measure") is not None:
            m = payload["measure"]
            measure = Measurement(registers=tuple(m["registers"]), outcome_map=dict(m.get("map", {})))
        where = "steps"
        return QueryAlgorithm(layout=layout, steps=tuple(steps), measure=measure)
    except KeyError as exc:
        raise SimulationError(f"algorithm {where} has no field {exc.args[0]!r}") from None
    except SimulationError:
        raise
    except (TypeError, ValueError, AttributeError) as exc:
        raise SimulationError(f"algorithm {where} is malformed: {exc}") from None
