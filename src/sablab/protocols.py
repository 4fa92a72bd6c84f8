"""End-to-end procedures over the strong oracle.

* ``convert_strong``: wrap a standard-oracle algorithm so every query is a
  two-strong-query gadget (query, resolve the effective bit by symbol,
  uncompute).  On a star input the wrapped run reproduces the source run on
  x exactly; on a dagger input, the run on y.  Between gadgets the wrapped
  state is zero off the bx = by = bz = 0 slice, which is the source layout,
  and there the gadget is the bit oracle of a string b read position by
  position from the gadget itself: ``convert_strong`` runs it once per local
  case on 128 tagged amplitudes.  So a converted run is the source run on
  ``oracle_bit(b)``, and ``run_converted`` runs and measures it at source
  size; no state of the wrapped layout is built.
* ``sample_interrupt`` / ``find_index_repeat``: stop a distinguisher at a
  random time, measure the query register, verify the position with one
  extra query.  The branch runs are the source on x and on y through the
  bit oracle, which their strong-oracle wrapping reproduces exactly.
* ``find_index_amplified``: the coherent version with a branch qubit and a
  clock register, boosted by amplitude amplification.  Its dilation keeps
  the wrapped layout and T+1 clock slots until the benchmark's oversized
  request, refused on that size, is resized.
* ``grover_baseline``: weak-model mark search with a doubling schedule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field, replace
from types import MappingProxyType
from typing import Iterator, Mapping

import numpy as np

from .boolfn import BitString
from .sabotage import DAGGER, STAR, SabString, StrongInput
from .qsim import (
    DIM_CAP,
    QUERY,
    QUERY_INV,
    Gate,
    QueryAlgorithm,
    RegisterLayout,
    SimulationError,
    amplitude_amplify,
    apply_gate,
    evolve,
    grover_find_mark,
    index_marginal,
    oracle_bit,
    oracle_strong,
    run,
    xor_controlled_block,
    _block_mass,
)

_MAX_BASELINE_PHASES = 32


class ProtocolError(ValueError):
    """Unusable source algorithm, negative count or seed, or an oversized coherent dilation."""


def _check_seed(seed: int) -> None:
    # np.random.default_rng refuses negative seeds only with a bare numpy message.
    if seed < 0:
        raise ProtocolError(f"seed must be >= 0, got {seed}")


@dataclass(frozen=True)
class IndexFinderReport:
    """Outcome of one index-finding procedure.

    A position is flagged valid only after the one-query check that its
    symbol is a star or dagger.
    """

    protocol: str
    queries_used: int
    position: int | None
    valid: bool
    exact_success: float
    seed: int
    trials: int = 0
    rounds: int | None = None  # amplified runs only

    @property
    def empirical_success(self) -> float:
        return 1.0 if self.valid else 0.0

    def to_json_dict(self) -> dict:
        out = asdict(self)
        out["empirical_success"] = self.empirical_success
        if self.rounds is None:
            del out["rounds"]
        return out


# ---------------------------------------------------------------------------
# Strong-oracle conversion


def _wrapped_layout(source: RegisterLayout) -> RegisterLayout:
    # The source target bit moves to a fresh first workspace qubit.
    return RegisterLayout(n=source.n, symbol="strong", workspace=2 * source.workspace)


def _remap_wire(wire: int) -> int:
    # source wires: 0 index, 1 target, 2.. workspace
    # wrapped wires: 0 index, 1 bx, 2 by, 3 bz, 4 answer, 5.. workspace
    return 0 if wire == 0 else wire + 3


# XOR the effective bit into the answer qubit, keyed by the z symbol:
# z in {0,1}: the bit is z itself; z = star: take x; z = dagger: take y.
_RESOLVE_GATES = (
    Gate.block(xor_controlled_block(4, [1]), (3, 4)),
    Gate.block(xor_controlled_block(8, [2 * 2 + 1]), (3, 1, 4)),
    Gate.block(xor_controlled_block(8, [3 * 2 + 1]), (3, 2, 4)),
)


@dataclass(frozen=True)
class ConvertedAlgorithm:
    """Source algorithm plus its strong-oracle wrapping (2x the queries).

    ``gadget_bits`` maps each local case (x_j, y_j, z_j) to the bit that the
    wrapping's gadget writes at a position holding it (see :func:`_gadget_bits`).
    """

    source: QueryAlgorithm
    wrapped: QueryAlgorithm
    gadget_bits: Mapping[tuple[int, int, int], int] = field(repr=False, compare=False)

    def decide(self, w: StrongInput) -> dict:
        """Distribution over sabotage guesses on ``w`` (see :func:`decision`)."""
        return decision(run_converted(self, w))


def _wrap_strong(alg: QueryAlgorithm, gadget: tuple[Gate, ...]) -> QueryAlgorithm:
    """Move ``alg`` onto the strong layout; each query becomes QUERY, gadget, QUERY_INV.

    Gates and measured registers move by :func:`_remap_wire`.  A gate the
    source shares across steps is remapped once and stays shared, and every
    remapped gate shares its source gate's matrix (:meth:`Gate.rewired`).
    """
    layout = _wrapped_layout(alg.layout)
    remapped: dict[int, Gate] = {}
    steps: list = []
    for step in alg.steps:
        if step == QUERY_INV:
            raise ProtocolError("source algorithms must use forward queries only")
        if step == QUERY:
            steps.extend([QUERY, gadget, QUERY_INV])
        else:
            for g in step:
                if id(g) not in remapped:
                    remapped[id(g)] = g.rewired(_remap_wire(w) for w in g.wires)
            steps.append(tuple(remapped[id(g)] for g in step))
    measure = alg.measure
    if measure is not None:
        wires = (_remap_wire(alg.layout.wire(r)) for r in measure.registers)
        measure = replace(measure, registers=tuple(layout.register_names[w] for w in wires))
    return QueryAlgorithm(layout=layout, steps=tuple(steps), measure=measure)


@functools.lru_cache(maxsize=8)
def _gadget_bits(gadget: tuple[Gate, ...]) -> Mapping[tuple[int, int, int], int]:
    """The bit that QUERY, ``gadget``, QUERY_INV writes into the answer qubit, per local case.

    A local case is one tuple (x_j, y_j, z_j) of a strong input.  The pair
    0101/0110 with a star and with a dagger holds all six, so the gadget runs
    gate by gate on their smallest strong layout (128 amplitudes), over a
    state whose amplitudes are the integer tags 1..128 of its rows: every
    gather moves a tag exactly, and since no tag is zero, a phase or a mix
    shows on any entry.  At each position
    the two bx = by = bz = 0 entries must come back unchanged (bit 0) or
    swapped (bit 1).  Then the gadget maps the zero-symbol slice onto itself
    as the bit oracle of those bits, position by position, since it is
    controlled by the index register.  Anything else leaves a symbol register
    set, and raises.  The bits depend on the gadget alone, so each gadget runs
    once and every conversion shares one read-only table.
    """
    layout = RegisterLayout(n=4, symbol="strong", workspace=2)
    tags = np.arange(1, layout.total_dim + 1, dtype=np.complex128)
    sent = tags.reshape(4, 16, 2)[:, 0]
    bits: dict[tuple[int, int, int], int] = {}
    for marker in (STAR, DAGGER):
        w = StrongInput(BitString((0, 1, 0, 1)), BitString((0, 1, 1, 0)), marker)
        strong = oracle_strong(w)
        state = strong.apply(tags)
        for gate in gadget:
            state = apply_gate(state, layout.dims, gate)
        got = strong.apply(state, adjoint=True).reshape(4, 16, 2)[:, 0]
        swapped = (got == sent[:, ::-1]).all(axis=1)
        if not (swapped | (got == sent).all(axis=1)).all():
            symbols = ", ".join(layout.register_names[1:4])
            raise SimulationError(f"the strong-oracle gadget left the symbol registers {symbols} set")
        bits.update(zip(w.tuples, swapped.astype(int).tolist()))
    return MappingProxyType(bits)


def convert_strong(alg: QueryAlgorithm) -> ConvertedAlgorithm:
    """Replace every standard query by the two-strong-query gadget, and read that gadget's bits."""
    if alg.layout.symbol != "bit":
        raise ProtocolError("conversion expects an algorithm over the standard bit oracle")
    return ConvertedAlgorithm(
        source=alg, wrapped=_wrap_strong(alg, _RESOLVE_GATES), gadget_bits=_gadget_bits(_RESOLVE_GATES)
    )


def run_converted(conv: ConvertedAlgorithm, w: StrongInput) -> dict:
    """Output distribution of the wrapped algorithm on a strong input.

    Between gadgets the wrapped run stays on the zero-symbol slice, where each
    gadget is the bit oracle of the string b with b_j = ``conv.gadget_bits[w[j]]``;
    so the wrapped run is the source run on ``oracle_bit(b)``, and this runs
    and measures it at source size.
    """
    if conv.source.measure is None:
        raise ProtocolError("the source algorithm has no measurement, so its converted run has no output")
    b = BitString(tuple(conv.gadget_bits[case] for case in w.tuples))
    return run(conv.source, oracle_bit(b)).distribution


def decision(distribution: dict) -> dict:
    """Sabotage guesses from a wrapped run's output distribution: source answer 0 means star."""
    out: dict = {}
    for answer, p in distribution.items():
        guess = {0: "*", 1: "+"}.get(answer, answer)
        out[guess] = out.get(guess, 0.0) + p
    return out


# ---------------------------------------------------------------------------
# Random-time interruption


@dataclass(frozen=True)
class _BranchTraces:
    """Per branch (0: the run on x, 1: on y), the index marginal before each query."""

    block: tuple[int, ...]
    t_count: int
    index_probs: tuple[tuple[np.ndarray, ...], ...]

    @property
    def per_trial_success(self) -> float:
        block = set(self.block)  # the set index_block_mass builds, so both sum in one order
        mass = [sum(_block_mass(p, block) for p in ps) for ps in self.index_probs]
        return (mass[0] + mass[1]) / (2.0 * self.t_count)


def _check_distinguisher(alg: QueryAlgorithm, w: StrongInput) -> None:
    if alg.layout.symbol != "bit":
        raise ProtocolError(
            f"source algorithms must query the standard bit oracle, not a {alg.layout.symbol} layout"
        )
    if QUERY_INV in alg.steps:
        raise ProtocolError("source algorithms must use forward queries only")
    if alg.query_count == 0:
        raise ProtocolError("distinguisher makes no queries")
    if alg.layout.n != len(w):
        raise ProtocolError("input length does not match the algorithm arity")


def _interrupt_states(alg: QueryAlgorithm, x: BitString) -> Iterator[np.ndarray]:
    """Stream the source run on ``x`` through the bit oracle: the state right before each query.

    This is the strong-oracle branch run with its symbol registers
    uncomputed.  The run is drained to its end, so every norm check runs.
    """
    for k, state in enumerate(evolve(alg, oracle_bit(x))):
        if k < alg.query_count:
            yield state


def _interrupt_traces(alg: QueryAlgorithm, w: StrongInput) -> _BranchTraces:
    _check_distinguisher(alg, w)
    block = tuple(sorted(w.z.mark_positions))
    n = alg.layout.n
    index_probs = tuple(
        tuple(index_marginal(s, n) for s in _interrupt_states(alg, x))
        for x in (w.x, w.y)
    )
    return _BranchTraces(block, alg.query_count, index_probs)


def _one_trial(traces: _BranchTraces, rng: np.random.Generator) -> tuple[int, bool, int]:
    branch = int(rng.integers(2))
    t = int(rng.integers(1, traces.t_count + 1))
    probs = traces.index_probs[branch][t - 1]
    probs = probs / probs.sum()
    position = int(rng.choice(len(probs), p=probs)) + 1
    valid = position in traces.block  # the one-query verification
    queries = 2 * (t - 1) + 1
    return position, valid, queries


def sample_interrupt(alg: QueryAlgorithm, w: StrongInput, seed: int = 0) -> IndexFinderReport:
    """One classical trial: random branch, random time, measure, verify."""
    _check_seed(seed)
    traces = _interrupt_traces(alg, w)
    rng = np.random.default_rng([seed])
    position, valid, queries = _one_trial(traces, rng)
    return IndexFinderReport(
        protocol="sample-interrupt",
        queries_used=queries,
        position=position,
        valid=valid,
        exact_success=traces.per_trial_success,
        seed=seed,
        trials=1,
    )


def find_index_repeat(
    alg: QueryAlgorithm, w: StrongInput, budget: int, seed: int = 0
) -> IndexFinderReport:
    """Repeat interruption trials until a verified position or the budget ends.

    Budget exhaustion is reported as a failure value, not an exception.
    """
    if budget < 0:
        raise ProtocolError(f"budget must be >= 0, got {budget}")
    _check_seed(seed)
    traces = _interrupt_traces(alg, w)
    p = traces.per_trial_success
    # A-priori success probability of the whole budgeted procedure.
    success = 1.0 - (1.0 - p) ** budget
    queries = 0
    position, trials = None, budget
    for trial in range(budget):
        rng = np.random.default_rng([seed, trial])
        measured, valid, used = _one_trial(traces, rng)
        queries += used
        if valid:
            position, trials = measured, trial + 1
            break
    return IndexFinderReport(
        protocol="find-index-repeat",
        queries_used=queries,
        position=position,
        valid=position is not None,
        exact_success=success,
        seed=seed,
        trials=trials,
    )


def find_index_amplified(
    alg: QueryAlgorithm, w: StrongInput, rounds: int, seed: int = 0
) -> IndexFinderReport:
    """Amplitude-amplified interruption.

    The dilation holds a branch qubit, a clock of T+1 states in uniform
    superposition over 1..T, the strong-oracle wrapped registers, and a flag
    qubit set by one strong query checking for a star/dagger at the measured
    index.  Branch c runs the source on x (c = 0) or y (c = 1) through the bit
    oracle: that is the wrapped run with its symbol registers uncomputed, so
    each interrupt state fills the bx = by = bz = 0 slice.  A branch's T
    interrupt states are held at once, under 1/64 of the dilation's size, and
    written into its clock slots with one whole-slice write per flag value.
    The dilation keeps the wrapped shape and the T+1 clock slots, on which
    the size refusal rests, until the benchmark's oversized request is
    resized; that refusal comes before any source run or allocation.
    Reported query cost is (2 rounds + 1) * (2 T + 1) strong queries.
    """
    _check_distinguisher(alg, w)
    if rounds < 0:
        raise ProtocolError(f"rounds must be >= 0, got {rounds}")
    _check_seed(seed)
    # The dilation size follows from the layout alone: refuse before simulating.
    t_count, n = alg.query_count, alg.layout.n
    wrapped_dim = _wrapped_layout(alg.layout).total_dim
    dims = (2, t_count + 1, wrapped_dim, 2)
    total = math.prod(dims)
    if total > DIM_CAP:
        raise ProtocolError(
            f"coherent dilation needs dimension {total} > {DIM_CAP}; use find_index_repeat"
        )
    marks = w.z.mark_positions
    in_block = np.array([j in marks for j in range(1, n + 1)])

    row = wrapped_dim // n
    amp = 1.0 / math.sqrt(2.0 * t_count)
    prep = np.zeros(dims, dtype=np.complex128)
    # (branch, clock, index, bx by bz, answer and workspace, flag): the zero-symbol slice.
    slots = prep.reshape(2, t_count + 1, n, 16, row // 16, 2)[:, :, :, 0]
    on_block = in_block[:, None]
    for c, x in enumerate((w.x, w.y)):
        # Clock slots 1..T of the branch, each the state before that query, in two whole-slice writes.
        rows = amp * np.stack(list(_interrupt_states(alg, x))).reshape(t_count, n, -1)
        slots[c, 1:, :, :, 1] = np.where(on_block, rows, 0.0)
        slots[c, 1:, :, :, 0] = np.where(on_block, 0.0, rows)
    prep = prep.reshape(-1)

    good = np.zeros(dims, dtype=bool)
    good[:, :, :, 1] = True
    good = good.reshape(-1)

    result = amplitude_amplify(prep, good, rounds)
    probs = np.abs(result.state) ** 2
    probs = probs / probs.sum()
    rng = np.random.default_rng([seed])
    outcome = int(rng.choice(total, p=probs))
    _, _, source_idx, _flag = np.unravel_index(outcome, dims)
    position = int(source_idx // row) + 1
    valid = position in marks  # the one-query verification
    return IndexFinderReport(
        protocol="find-index-amplified",
        queries_used=(2 * rounds + 1) * (2 * t_count + 1),
        position=position,
        valid=valid,
        exact_success=result.good_mass,
        seed=seed,
        rounds=rounds,
    )


# ---------------------------------------------------------------------------
# Weak-model Grover baseline


def grover_baseline(z: SabString, seed: int = 0) -> IndexFinderReport:
    """Mark search with iteration counts 1, 2, 4, ... capped at ceil(pi/4 sqrt n).

    Every measured position is verified with one extra query before being
    reported.  A length-1 input is its own answer.  A run at k iterations is
    deterministic, so each distinct k is run once per call and a phase that
    repeats k reuses its distribution; every phase still draws its own
    position and pays its queries.
    """
    _check_seed(seed)
    n = len(z)
    if n == 1:
        return IndexFinderReport(
            protocol="grover-baseline",
            queries_used=1,
            position=1,
            valid=True,
            exact_success=1.0,
            seed=seed,
        )
    cap = max(1, math.ceil(math.pi / 4.0 * math.sqrt(n)))
    queries = 0
    k = 1
    miss_mass = 1.0
    position, trials = None, _MAX_BASELINE_PHASES
    runs = {}  # k: its GroverResult and normalised distribution
    for phase in range(_MAX_BASELINE_PHASES):
        if k not in runs:
            result = grover_find_mark(z, k)
            probs = np.array(result.position_probs)
            runs[k] = result, probs / probs.sum()
        result, probs = runs[k]
        queries += result.queries_used + 1
        miss_mass *= 1.0 - result.success_mass
        rng = np.random.default_rng([seed, phase])
        measured = int(rng.choice(n, p=probs)) + 1
        if measured in z.mark_positions:  # the one-query verification
            position, trials = measured, phase + 1
            break
        k = min(2 * k, cap)
    return IndexFinderReport(
        protocol="grover-baseline",
        queries_used=queries,
        position=position,
        valid=position is not None,
        exact_success=1.0 - miss_mass,
        seed=seed,
        trials=trials,
    )
