"""Simulator semantics: oracles as permutations, exact algorithms, closed forms."""

from __future__ import annotations

import itertools
import math
import time
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import oracle_matrix, total_variation
from sablab.boolfn import BitString
from sablab import protocols, qsim
from sablab.sabotage import SabotageError, SabString, StrongInput
from sablab.qsim import (
    QUERY,
    QUERY_INV,
    Gate,
    Measurement,
    QueryAlgorithm,
    RegisterLayout,
    SimulationError,
    algorithm_from_json,
    algorithm_to_json,
    amplitude_amplify,
    apply_block,
    apply_gate,
    deutsch_parity,
    diffusion_block,
    evolve,
    grover_find_mark,
    grover_or,
    hybrid_sum,
    index_block_mass,
    initial_state,
    measure_distribution,
    oracle_bit,
    oracle_strong,
    oracle_weak,
    permute_rows,
    random_query_algorithm,
    run,
    uniform_prep_block,
    xor_controlled_block,
)


def test_layout_dims_and_caps():
    weak = RegisterLayout(n=3, symbol="weak", workspace=2)
    assert weak.dims == (3, 4, 2) and weak.total_dim == 24
    strong = RegisterLayout(n=2, symbol="strong", workspace=1)
    assert strong.dims == (2, 2, 2, 4)
    assert strong.register_names == ("index", "bx", "by", "bz")
    with pytest.raises(SimulationError):
        RegisterLayout(n=3, symbol="weak", workspace=3)
    with pytest.raises(SimulationError):
        RegisterLayout(n=2**18, symbol="strong", workspace=2)


def test_gate_validation():
    with pytest.raises(SimulationError):
        Gate.block(np.array([[1.0, 0.0], [1.0, 1.0]]), (0,))  # not unitary
    with pytest.raises(SimulationError):
        Gate.block(np.eye(32), (0, 1))  # too large
    assert Gate.block(np.eye(20), (0,)).matrix.shape == (20, 20)  # an index register at the arity cap
    with pytest.raises(SimulationError, match="gate dimension 21 exceeds 20"):
        Gate.block(np.eye(21), (0,))
    with pytest.raises(SimulationError):
        Gate.named("FOO", (0,))
    g = Gate.named("CPHASE", (1, 2), param=math.pi)
    assert abs(g.matrix[3, 3] + 1.0) < 1e-15


@pytest.mark.parametrize("name", ["H", "X", "Z", "CNOT", "CZ", "SWAP", "CPHASE"])
def test_named_gate_matrices_are_read_only(name):
    wires = (0,) if name in ("H", "X", "Z") else (0, 1)
    param = 0.3 if name == "CPHASE" else None
    with pytest.raises(ValueError):
        Gate.named(name, wires, param).matrix[0, 0] = 2
    Gate.named(name, wires, param)  # still unitary: the shared constant was not written


def test_block_gate_owns_a_read_only_copy():
    m = uniform_prep_block(2)
    g = Gate.block(m, (0,))
    m[0, 0] = 7
    assert np.array_equal(g.matrix, uniform_prep_block(2))
    with pytest.raises(ValueError):
        g.matrix[0, 0] = 7


def test_grover_circuits_build_each_gate_once():
    for alg, kinds in ((grover_or(5, 3), 1), (qsim._grover_marks(5, 3), 2)):
        gates = [g for step in alg.steps[1:] if step not in (QUERY, QUERY_INV) for g in step]
        assert len(gates) == 3 * kinds and len({id(g) for g in gates}) == kinds


def test_weak_oracle_example_and_order():
    z = SabString.from_text("0*")
    o = oracle_weak(z)
    m = oracle_matrix(o, 8)
    # permutation matrix: entries 0/1, single 1 per row and column
    assert set(np.unique(m.real)) <= {0.0, 1.0} and np.abs(m.imag).max() == 0.0
    assert (m.sum(axis=0) == 1).all() and (m.sum(axis=1) == 1).all()
    # |j=2>|b=1> -> |j=2>|(1 + 2) mod 4>
    src = np.zeros(8, dtype=complex)
    src[4 * 1 + 1] = 1.0
    assert abs(o.apply(src)[4 * 1 + 3] - 1.0) == 0.0
    # fourth power is the identity
    assert np.abs(np.linalg.matrix_power(m, 4) - np.eye(8)).max() < 1e-12


def test_weak_oracle_zero_symbols_fix_b():
    z = SabString.from_text("0*0")
    o = oracle_weak(z)
    rng = np.random.default_rng(0)
    state = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    out = o.apply(state)
    view_in = state.reshape(3, 4)
    view_out = out.reshape(3, 4)
    for j in (0, 2):  # z_j = 0: symbol register untouched
        assert np.abs(view_out[j] - view_in[j]).max() == 0.0


def test_strong_oracle_example_and_inverse():
    w = StrongInput.from_pair(BitString.from_text("0"), BitString.from_text("1"), "*")
    o = oracle_strong(w)
    src = np.zeros(16, dtype=complex)
    src[0] = 1.0
    out = o.apply(src)
    assert abs(out[((0 * 2 + 0) * 2 + 1) * 4 + 2] - 1.0) == 0.0  # |bx=0, by=1, bz=2>
    m = oracle_matrix(o, 16)
    assert np.abs(np.linalg.matrix_power(m, 4) - np.eye(16)).max() < 1e-12
    assert np.abs(m @ m @ m - np.linalg.inv(m)).max() < 1e-12  # cube = inverse
    rng = np.random.default_rng(3)
    state = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    assert np.abs(o.apply(o.apply(state), adjoint=True) - state).max() < 1e-12


def test_strong_oracle_x_slot_is_xor_oracle():
    """Tracing out b_y, b_z, the b_x slot acts as the plain oracle for x."""
    w = StrongInput.from_pair(BitString.from_text("01"), BitString.from_text("11"), "+")
    o = oracle_strong(w)
    ob = oracle_bit(w.x)
    rng = np.random.default_rng(9)
    amp = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    state = np.zeros((2, 2, 2, 4), dtype=complex)
    state[:, :, 0, 0] = amp / np.linalg.norm(amp)
    out = o.apply(state.reshape(-1)).reshape(2, 2, 2, 4)
    want = ob.apply(state[:, :, 0, 0].reshape(-1)).reshape(2, 2)
    got = out.sum(axis=(2, 3))  # by/bz hold a single basis state, sum collapses it
    assert np.abs(got - want).max() < 1e-12


def test_deutsch_exact_all_inputs():
    alg = deutsch_parity()
    for x, want in [("00", 0), ("01", 1), ("10", 1), ("11", 0)]:
        d = run(alg, oracle_bit(x)).distribution
        assert abs(d[want] - 1.0) < 1e-12


def test_zero_query_algorithm_measures_initial_state():
    layout = RegisterLayout(n=2, symbol="bit", workspace=1)
    alg = QueryAlgorithm(
        layout=layout,
        steps=((Gate.block(uniform_prep_block(2), (0,)),),),
        measure=Measurement(registers=("index",)),
    )
    d = run(alg).distribution
    assert abs(d["1"] - 0.5) < 1e-12 and abs(d["2"] - 0.5) < 1e-12


def test_grover_or4_single_iteration_exact():
    d = run(grover_or(4, 1), oracle_bit("0010")).distribution
    assert abs(d[3] - 1.0) < 1e-12


def test_run_rejects_mismatched_oracle():
    with pytest.raises(SimulationError):
        run(deutsch_parity(), oracle_weak(SabString.from_text("0*")))
    with pytest.raises(SimulationError):
        run(deutsch_parity())  # queries but no oracle


def test_algorithm_validation():
    layout = RegisterLayout(n=2, symbol="bit", workspace=1)
    with pytest.raises(SimulationError):
        QueryAlgorithm(layout=layout, steps=(QUERY, ()))  # starts with a query
    with pytest.raises(SimulationError):
        QueryAlgorithm(layout=layout, steps=((), QUERY))  # ends with a query
    with pytest.raises(SimulationError):
        QueryAlgorithm(layout=layout, steps=((), QUERY, QUERY, ()))  # adjacent
    with pytest.raises(SimulationError):
        QueryAlgorithm(
            layout=layout, steps=((Gate.named("H", (5,)),),)
        )  # bad wire
    with pytest.raises(SimulationError):
        QueryAlgorithm(
            layout=layout, steps=((Gate.block(np.eye(3), (1,)),),)
        )  # dim mismatch


@pytest.mark.parametrize("n,m,k", [(4, 1, 1), (2, 1, 1), (1, 1, 0), (2, 2, 0), (9, 4, 2)]
                         + [(n, m, k) for n in range(17, 21) for m in (1, 3) for k in range(4)])
def test_grover_closed_form_spot(n, m, k):
    z = SabString(tuple([2] * m + [0] * (n - m)))
    res = grover_find_mark(z, k)
    theta = math.asin(math.sqrt(m / n))
    assert abs(res.success_mass - math.sin((2 * k + 1) * theta) ** 2) < 1e-12
    assert abs(sum(res.position_probs) - 1.0) < 1e-12
    marked = run(grover_or(n, k), oracle_bit("0" * (n - m) + "1" * m)).distribution
    assert abs(sum(marked[j] for j in range(n - m + 1, n + 1)) - math.sin((2 * k + 1) * theta) ** 2) < 1e-12


def test_grover_single_mark_position():
    res = grover_find_mark(SabString.from_text("00*0"), 1)
    assert abs(res.position_probs[2] - 1.0) < 1e-12
    assert res.queries_used == 2


def test_amplitude_amplify_closed_form():
    prep = np.zeros(4, dtype=complex)
    prep[0], prep[1] = math.sqrt(3) / 2, 0.5
    mask = np.array([False, True, False, False])
    assert abs(amplitude_amplify(prep, mask, 0).good_mass - 0.25) < 1e-14
    assert abs(amplitude_amplify(prep, mask, 1).good_mass - 1.0) < 1e-12
    half = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    assert abs(amplitude_amplify(half, np.array([False, True]), 1).good_mass - 0.5) < 1e-12


def test_amplitude_amplify_sine_law_random():
    rng = np.random.default_rng(11)
    state = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    state /= np.linalg.norm(state)
    mask = np.zeros(8, dtype=bool)
    mask[[1, 4]] = True
    p = float(np.sum(np.abs(state[mask]) ** 2))
    theta = math.asin(math.sqrt(p))
    for rounds in range(4):
        got = amplitude_amplify(state, mask, rounds).good_mass
        assert abs(got - math.sin((2 * rounds + 1) * theta) ** 2) < 1e-12


def test_hybrid_deutsch_instance():
    rep = hybrid_sum(deutsch_parity(), "00", (1, 2))
    assert abs(rep.p_x[0] - 1.0) < 1e-12 and abs(rep.p_y[0] - 1.0) < 1e-12
    # the two runs differ only by a global phase, so the finals overlap fully
    assert abs(rep.overlap - 1.0) < 1e-12
    assert rep.sum_x + rep.sum_y >= 1 - rep.overlap - 1e-9


def test_hybrid_untouched_block_cannot_distinguish():
    """An algorithm that never queries position 3 keeps overlap 1."""
    layout = RegisterLayout(n=3, symbol="bit", workspace=1)
    alg = QueryAlgorithm(
        layout=layout,
        steps=(
            (Gate.block(uniform_prep_block(2), (1,)),),
            QUERY,
            (Gate.block(uniform_prep_block(2), (1,)),),
        ),
        measure=Measurement(registers=("symbol",)),
    )
    rep = hybrid_sum(alg, "000", (3,))
    assert rep.sum_x == 0.0 and rep.sum_y == 0.0
    assert abs(rep.overlap - 1.0) < 1e-12


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_hybrid_inequality_random_circuits(seed):
    rng = np.random.default_rng(seed)
    alg = random_query_algorithm(3, 2, rng)
    x = BitString(tuple(int(b) for b in rng.integers(0, 2, size=3)))
    size = int(rng.integers(1, 4))
    block = tuple(sorted(int(j) + 1 for j in rng.choice(3, size=size, replace=False)))
    rep = hybrid_sum(alg, x, block)
    assert rep.sum_x + rep.sum_y >= 1 - rep.overlap - 1e-9
    for t in range(len(rep.step_overlaps) - 1):
        drop = rep.step_overlaps[t] - rep.step_overlaps[t + 1]
        assert drop <= rep.p_x[t] + rep.p_y[t] + 1e-9


def _per_gate_haar_matrices(n, queries, rng, workspace):
    """The gate matrices of random_query_algorithm as one Haar draw and one QR per gate would make them."""

    def haar(dim):
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(z)
        return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    out = []
    for _ in range(queries + 1):
        out.append(haar(2 * n))
        if workspace > 1:
            out.append(haar(4))
    return out


@pytest.mark.parametrize("workspace", [1, 4])
def test_random_query_algorithm_matches_per_gate_draws(workspace):
    """The batched normal draw and stacked QR give every gate bit for bit, and leave the rng where they would."""
    for seed in range(50):
        for queries in range(4):
            batched, per_gate = np.random.default_rng(seed), np.random.default_rng(seed)
            alg = random_query_algorithm(3, queries, batched, workspace=workspace)
            got = [g.matrix for step in alg.steps if step != QUERY for g in step]
            want = _per_gate_haar_matrices(3, queries, per_gate, workspace)
            assert len(got) == len(want) == (queries + 1) * (1 + (workspace > 1))
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), (seed, queries)
            assert batched.bit_generator.state == per_gate.bit_generator.state


def test_norm_preserved_along_runs():
    rng = np.random.default_rng(21)
    alg = random_query_algorithm(4, 3, rng)
    states = list(evolve(alg, oracle_bit("0110")))
    assert len(states) == alg.query_count + 1
    for state in states:
        assert abs(np.linalg.norm(state) - 1.0) < 1e-10
        assert 0.0 <= index_block_mass(state, alg.layout, (2,)) <= 1.0 + 1e-12


def test_evolve_rejects_norm_drift():
    drifting = SimpleNamespace(kind="bit", n=2, apply=lambda state, adjoint=False: state * (1 + 1e-6))
    with pytest.raises(SimulationError, match="state norm drifted"):
        list(evolve(deutsch_parity(), drifting))


def test_run_final_state_is_last_evolved_state():
    rng = np.random.default_rng(22)
    alg = random_query_algorithm(3, 4, rng)
    *_, last = evolve(alg, oracle_bit("101"))
    assert np.array_equal(run(alg, oracle_bit("101")).final_state, last)


def test_hybrid_sum_matches_materialised_runs():
    rng = np.random.default_rng(23)
    alg = random_query_algorithm(4, 3, rng)
    block = (1, 3)
    rep = hybrid_sum(alg, "0110", block)
    xs = list(evolve(alg, oracle_bit("0110")))
    ys = list(evolve(alg, oracle_bit(BitString.from_text("0110").flip(block))))
    assert rep.p_x == tuple(index_block_mass(s, alg.layout, block) for s in xs[:-1])
    assert rep.p_y == tuple(index_block_mass(s, alg.layout, block) for s in ys[:-1])
    assert rep.step_overlaps == tuple(float(abs(np.vdot(sx, sy))) for sx, sy in zip(xs, ys))


@pytest.mark.parametrize("simulate", ["run", "hybrid_sum"])
def test_peak_memory_does_not_grow_with_queries(simulate):
    # One state of the 4 x 2 x 2^12 layout is 512 KiB; the peak may differ by
    # at most that between 2 and 8 queries.
    def peak(queries: int) -> int:
        alg = random_query_algorithm(4, queries, np.random.default_rng(24), workspace=2**12)
        tracemalloc.start()
        try:
            if simulate == "run":
                run(alg, oracle_bit("0110"))
            else:
                hybrid_sum(alg, "0110", (2,))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    state_bytes = 4 * 2 * 2**12 * 16
    short = peak(2)
    assert peak(8) - short <= state_bytes


def test_index_block_mass():
    layout = RegisterLayout(n=2, symbol="bit", workspace=1)
    state = initial_state(layout)
    assert index_block_mass(state, layout, [1]) == 1.0
    assert index_block_mass(state, layout, [2]) == 0.0


@pytest.mark.parametrize("positions", [[0], [4], [1, 4]])
def test_index_block_mass_refuses_positions_outside_1_to_n(positions):
    layout = RegisterLayout(n=3, symbol="bit", workspace=1)
    with pytest.raises(SimulationError, match="1..3"):
        index_block_mass(initial_state(layout), layout, positions)


def test_algorithm_json_roundtrip():
    for alg in (deutsch_parity(), grover_or(3, 2), qsim._grover_marks(3, 1), qsim._grover_marks(4, 2)):
        text = algorithm_to_json(alg)
        again = algorithm_from_json(text)
        assert again == alg
        assert algorithm_to_json(again) == text
        if alg.layout.symbol != "bit":
            continue
        for x in ("000", "011"):
            want = run(alg, oracle_bit(x[: alg.layout.n])).distribution
            got = run(again, oracle_bit(x[: alg.layout.n])).distribution
            assert total_variation(want, got) < 1e-12


@given(
    n=st.integers(1, 4),
    queries=st.integers(0, 3),
    workspace=st.sampled_from([1, 2, 4]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_algorithm_json_roundtrip_property(n, queries, workspace, seed):
    alg = random_query_algorithm(n, queries, np.random.default_rng(seed), workspace=workspace)
    assert algorithm_from_json(algorithm_to_json(alg)) == alg


def test_query_inv_steps_roundtrip_and_run():
    layout = RegisterLayout(n=2, symbol="weak", workspace=1)
    alg = QueryAlgorithm(
        layout=layout,
        steps=((), QUERY, (), QUERY_INV, ()),
        measure=Measurement(registers=("symbol",)),
    )
    assert alg.query_count == 2
    d = run(alg, oracle_weak(SabString.from_text("*0"))).distribution
    assert abs(d["0"] - 1.0) < 1e-12  # query then inverse leaves |b=0>
    assert algorithm_from_json(algorithm_to_json(alg)).query_count == 2


def test_diffusion_and_prep_blocks_are_unitary():
    for dim in (1, 2, 3, 5, 16):
        for m in (uniform_prep_block(dim), diffusion_block(dim)):
            assert np.abs(m @ m.conj().T - np.eye(dim)).max() < 1e-12


def xor_controlled_loop(control_dim, control_values):
    """The definition: m[2c + (b ^ f_c), 2c + b] = 1, f_c = [c is listed], every other entry 0."""
    flips = set(control_values)
    m = np.zeros((2 * control_dim, 2 * control_dim), dtype=np.complex128)
    for c in range(control_dim):
        for b in range(2):
            m[2 * c + (b ^ 1 if c in flips else b), 2 * c + b] = 1.0
    return m


@pytest.mark.parametrize("control_dim", range(1, 9))
def test_xor_controlled_block_matches_its_definition(control_dim):
    unsorted = [c for c in range(control_dim) if c % 3 != 1][::-1]
    for flips in ([], list(range(control_dim)), unsorted):
        got = xor_controlled_block(control_dim, flips)
        assert got.dtype == np.complex128
        assert np.array_equal(got, xor_controlled_loop(control_dim, flips)), flips


# ---------------------------------------------------------------------------
# Kernels against index-loop references


def random_unitary(rng, k):
    z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_state(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def reference_apply_block(state, dims, axes, matrix):
    """out[i] = sum over j agreeing with i off ``axes`` of matrix[i|axes, j|axes] * state[j]."""
    assert state.size <= 256
    sub = tuple(dims[a] for a in axes)
    out = np.zeros(state.size, dtype=np.complex128)
    for i in range(state.size):
        idx_i = np.unravel_index(i, dims)
        row = np.ravel_multi_index(tuple(idx_i[a] for a in axes), sub)
        for col in range(matrix.shape[0]):
            idx_j = list(idx_i)
            for a, v in zip(axes, np.unravel_index(col, sub)):
                idx_j[a] = v
            out[i] += matrix[row, col] * state[np.ravel_multi_index(tuple(idx_j), dims)]
    return out


def moveaxis_apply_block(state, dims, axes, matrix):
    """The ``np.moveaxis`` formulation of apply_block, kept as a bitwise reference."""
    k = matrix.shape[0]
    t = np.moveaxis(state.reshape(dims), axes, range(len(axes)))
    lead = t.shape[: len(axes)]
    rest = t.shape[len(axes):]
    out = matrix @ t.reshape(k, -1)
    out = np.moveaxis(out.reshape(lead + rest), range(len(axes)), axes)
    return np.ascontiguousarray(out).reshape(-1)


def check_apply_block(rng, dims, axes, loop_reference=True):
    k = math.prod(dims[a] for a in axes)
    state = random_state(rng, math.prod(dims))
    before = state.copy()
    u = random_unitary(rng, k)
    got = apply_block(state, dims, axes, u)
    assert np.array_equal(got, moveaxis_apply_block(before, dims, axes, u))
    if loop_reference:
        assert np.abs(got - reference_apply_block(before, dims, axes, u)).max() < 1e-12
    assert np.array_equal(state, before) and not np.shares_memory(got, state)


CASES = [
    ((3, 4, 2, 2), (1,)),  # interior
    ((3, 4, 2, 2), (0, 1)),  # leading
    ((5, 2, 2), (2, 0)),  # reversed
    ((2, 2, 4, 2, 2), (2, 4)),  # non-adjacent
    ((16, 4), (0,)),
    ((7, 2), (1,)),
]


@pytest.mark.parametrize("dims,axes", CASES)
def test_apply_block_matches_index_loop(dims, axes):
    check_apply_block(np.random.default_rng(hash((dims, axes)) % 2**32), dims, axes)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_apply_block_matches_index_loop_random(seed):
    rng = np.random.default_rng(seed)
    n_axes = int(rng.integers(2, 5))
    dims = tuple(int(rng.integers(2, 5)) for _ in range(n_axes))
    count = int(rng.integers(1, min(3, n_axes) + 1))
    axes = tuple(int(a) for a in rng.choice(n_axes, size=count, replace=False))
    if math.prod(dims[a] for a in axes) > 16:
        return
    check_apply_block(rng, dims, axes)


@pytest.mark.parametrize(
    "dims,axes",
    [
        ((3, 4, 2, 2), (3,)),  # trailing
        ((3, 4, 2, 2), (2, 3)),  # trailing pair
        ((16, 2, 2, 2, 2, 2, 2), (0, 1)),  # leading 16x16 on a 2^10 state
        ((8, 2, 2, 2, 2, 2, 2, 2), (1, 7)),  # target and a distant qubit
        ((8, 2, 2, 2, 2, 2, 2, 2), (7,)),
        ((8, 2, 2, 2, 2, 2, 2, 2), (4, 3)),
    ],
)
def test_apply_block_bit_identical_to_moveaxis(dims, axes):
    check_apply_block(np.random.default_rng(sum(dims) + sum(axes)), dims, axes, loop_reference=False)


@pytest.mark.parametrize("axes", [(-1,), (0, 0), (3,), (0, 3)])
def test_apply_block_rejects_bad_axes(axes):
    state = np.zeros(8, dtype=complex)
    matrix = np.eye(2 ** len(axes), dtype=complex)
    for _ in range(2):  # the axis plan is cached, the refusal is not
        with pytest.raises(ValueError, match="distinct and in 0..2"):
            apply_block(state, (2, 2, 2), axes, matrix)


WIDE = (8, 2) + (2,) * 16  # index, target and 16 workspace qubits: 2^20 amplitudes
STRONG = (8, 2, 2, 4) + (2,) * 13  # a strong symbol register and 13 workspace qubits: 2^20


@pytest.mark.parametrize(
    "dims,axes",
    [(WIDE, (10, 11)), (WIDE, (1, 9)), (WIDE, (17,)), (STRONG, (0, 4)), (STRONG, (4, 10)), (STRONG, (11, 12)),
     (STRONG, (16,)), ((8, 2) + (2,) * 14, (9, 10))],
)
def test_apply_block_blocked_is_bit_identical_on_wide_states(dims, axes):
    """The dense gates of the 2^18..2^20 simulations run many column blocks and keep every bit."""
    assert len(qsim._axis_plan(dims, axes).blocks) > 1
    check_apply_block(np.random.default_rng(len(dims) + sum(axes)), dims, axes, loop_reference=False)


@st.composite
def blocked_layouts(draw):
    """A state of 2^10..2^15 amplitudes, and a gate of dimension ≤ 16 off its leading wires."""
    dims = draw(st.lists(st.sampled_from((2, 3, 4, 16)), min_size=1, max_size=3))
    dims += [2] * max(0, 10 - math.prod(dims).bit_length() + 1) + [2] * draw(st.integers(0, 3))
    dims = tuple(draw(st.permutations(dims)))
    axes = tuple(draw(st.lists(st.integers(0, len(dims) - 1), min_size=1, max_size=3, unique=True)))
    assume(math.prod(dims[a] for a in axes) <= 16 and axes != tuple(range(len(axes))))
    return dims, axes


@given(blocked_layouts(), st.integers(0, 2**32 - 1))
@example(((4, 16) + (2,) * 6, (2,)), 0)  # 32 inner columns, then a 16-wide axis: blocks of 512
@example(((3, 2, 2, 16), (1,)), 0)  # a state narrower than one block
@settings(max_examples=80, deadline=None)
def test_apply_block_floor_width_blocks_are_bit_identical(layout, seed):
    """With blocks cut down to the column floor, every block keeps the floor and every bit."""
    dims, axes = layout
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qsim, "_BLOCK_AMPS", 1)
        qsim._axis_plan.cache_clear()
        try:
            plan = qsim._axis_plan(dims, axes)
            check_apply_block(np.random.default_rng(seed), dims, axes, loop_reference=False)
        finally:
            qsim._axis_plan.cache_clear()
    columns = math.prod(dims) // plan.size // len(plan.blocks)
    assert columns >= qsim._MIN_COLUMNS or len(plan.blocks) == 1


def test_apply_block_interior_gate_peaks_near_one_state():
    """A dense interior gate holds its output and two column blocks, not a transposed copy each way."""
    dims, axes = (8, 2) + (2,) * 13, (5, 6)
    rng = np.random.default_rng(17)
    state, u = random_state(rng, 2**17), random_unitary(rng, 4)
    apply_block(state, dims, axes, u)  # the plan is built outside the measurement
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        got = apply_block(state, dims, axes, u)
        peak = (tracemalloc.get_traced_memory()[1] - held) / state.nbytes
    finally:
        tracemalloc.stop()
    assert peak <= 1.3
    assert np.array_equal(got, moveaxis_apply_block(state, dims, axes, u))


def test_apply_block_reads_a_read_only_state_into_a_fresh_one():
    dims, axes = (8, 2) + (2,) * 13, (1, 9)
    rng = np.random.default_rng(18)
    state, u = random_state(rng, 2**17), random_unitary(rng, 4)
    before = state.copy()
    state.flags.writeable = False
    got = apply_block(state, dims, axes, u)
    assert np.array_equal(state, before) and not np.shares_memory(got, state)
    assert got.flags.c_contiguous and got.flags.writeable and got.shape == (2**17,)


def test_permute_rows_matches_basis_gathers():
    rng = np.random.default_rng(77)
    for rows, width in [(12, 16), (64, 4), (7, 3), (1, 5)]:
        perm = rng.permutation(rows)
        shim = SimpleNamespace(apply=lambda e: permute_rows(e, perm, width))
        m = oracle_matrix(shim, rows, width)
        want = np.zeros((rows * width, rows * width))
        for r in range(rows):
            for c in range(width):
                want[r * width + c, perm[r] * width + c] = 1.0
        assert np.array_equal(m, want)
        state = random_state(rng, rows * width)
        before = state.copy()
        got = permute_rows(state, perm, width)
        assert np.array_equal(got, want @ before)
        assert np.array_equal(state, before) and not np.shares_memory(got, state)


def test_apply_block_preserves_norm():
    rng = np.random.default_rng(5)
    state = random_state(rng, 48)
    state /= np.linalg.norm(state)
    out = apply_block(state, (3, 4, 2, 2), (1,), random_unitary(rng, 4))
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_apply_block_rejects_mismatch():
    for _ in range(2):
        with pytest.raises(ValueError, match="matrix size"):
            apply_block(np.zeros(8, dtype=complex), (2, 2, 2), (0,), np.eye(4))


def test_run_pre_query_states_are_independent():
    states = list(evolve(grover_or(3, 2), oracle_bit("010")))
    assert len(states) == 3
    for i, a in enumerate(states):
        for b in states[i + 1:]:
            assert not np.shares_memory(a, b)


# ---------------------------------------------------------------------------
# Oracle tables against their per-position definitions


def loop_forward_bit(xb):
    forward = np.empty(2 * len(xb), dtype=np.int64)
    for j in range(len(xb)):
        for b in range(2):
            forward[2 * j + b] = 2 * j + (b ^ xb.bits[j])
    return forward


def loop_forward_weak(z):
    forward = np.empty(4 * len(z), dtype=np.int64)
    for j in range(len(z)):
        for b in range(4):
            forward[4 * j + b] = 4 * j + ((b + z.symbols[j]) % 4)
    return forward


def loop_forward_strong(w):
    forward = np.empty(16 * len(w), dtype=np.int64)
    for j in range(len(w)):
        xj, yj, zj = w[j]
        for bx in range(2):
            for by in range(2):
                for bz in range(4):
                    src = ((j * 2 + bx) * 2 + by) * 4 + bz
                    dst = ((j * 2 + (bx ^ xj)) * 2 + (by ^ yj)) * 4 + ((bz + zj) % 4)
                    forward[src] = dst
    return forward


def check_oracle_tables(oracle, forward):
    gather = np.empty(len(forward), dtype=np.int64)
    gather[forward] = np.arange(len(forward), dtype=np.int64)
    assert oracle._gather.dtype == oracle._gather_inv.dtype == np.int64
    assert np.array_equal(oracle._gather, gather)
    assert np.array_equal(oracle._gather_inv, forward)


def all_sab_strings(n):
    for symbols in itertools.product(range(4), repeat=n):
        try:
            yield SabString(symbols)
        except SabotageError:
            continue


def test_oracle_tables_match_loops_exhaustive():
    for n in (1, 2, 3):
        bits = [BitString(b) for b in itertools.product((0, 1), repeat=n)]
        for xb in bits:
            check_oracle_tables(oracle_bit(xb), loop_forward_bit(xb))
            for yb in (y for y in bits if y != xb):  # a strong input differs somewhere
                for marker in ("*", "+"):
                    w = StrongInput.from_pair(xb, yb, marker)
                    check_oracle_tables(oracle_strong(w), loop_forward_strong(w))
        for z in all_sab_strings(n):
            check_oracle_tables(oracle_weak(z), loop_forward_weak(z))


def test_oracle_tables_match_loops_random():
    rng = np.random.default_rng(16)
    for _ in range(20):
        xb = BitString(tuple(int(b) for b in rng.integers(0, 2, 16)))
        yb = xb.flip(tuple(int(j) for j in rng.choice(range(1, 17), size=rng.integers(1, 17), replace=False)))
        mark = int(rng.integers(2, 4))
        z = SabString(tuple(int(s) for s in rng.choice([0, 1, mark], size=15)) + (mark,))
        w = StrongInput.from_pair(xb, yb, "*" if mark == 2 else "+")
        check_oracle_tables(oracle_bit(xb), loop_forward_bit(xb))
        check_oracle_tables(oracle_weak(z), loop_forward_weak(z))
        check_oracle_tables(oracle_strong(w), loop_forward_strong(w))


def ogrid_forward(oracle_kind, columns):
    """The former ``np.ogrid`` formulas of the three oracle tables."""
    n = len(columns)
    if oracle_kind == "bit":
        j, b = np.ogrid[:n, :2]
        return (2 * j + (b ^ np.array(columns, dtype=np.int64)[:, None])).reshape(-1)
    if oracle_kind == "weak":
        j, b = np.ogrid[:n, :4]
        return (4 * j + (b + np.array(columns, dtype=np.int64)[:, None]) % 4).reshape(-1)
    j, bx, by, bz = np.ogrid[:n, :2, :2, :4]
    xj, yj, zj = np.array(columns, dtype=np.int64).T.reshape(3, n, 1, 1, 1)
    return (((j * 2 + (bx ^ xj)) * 2 + (by ^ yj)) * 4 + (bz + zj) % 4).reshape(-1)


def test_oracle_tables_match_ogrid_formulas():
    rng = np.random.default_rng(17)
    for n in range(1, 17):
        for _ in range(3):
            xb = BitString(tuple(int(b) for b in rng.integers(0, 2, n)))
            yb = xb.flip((int(rng.integers(1, n + 1)),))
            mark = int(rng.integers(2, 4))
            z = SabString(tuple(int(s) for s in rng.choice([0, 1, mark], size=n - 1)) + (mark,))
            w = StrongInput.from_pair(xb, yb, "*" if mark == 2 else "+")
            check_oracle_tables(oracle_bit(xb), ogrid_forward("bit", xb.bits))
            check_oracle_tables(oracle_weak(z), ogrid_forward("weak", z.symbols))
            check_oracle_tables(oracle_strong(w), ogrid_forward("strong", w.tuples))


# ---------------------------------------------------------------------------
# Measurement against the per-outcome loop


def ndindex_distribution(state, layout, measure):
    """The former ``np.ndindex`` walk of measure_distribution, kept as a bitwise reference."""
    probs = np.abs(state.reshape(layout.dims)) ** 2
    wires = [layout.wire(reg) for reg in measure.registers]
    keep = sorted(set(wires))
    drop = tuple(a for a in range(len(layout.dims)) if a not in keep)
    marg = probs.sum(axis=drop) if drop else probs
    marg = np.moveaxis(marg, [keep.index(w) for w in wires], range(len(wires)))
    out: dict = {}
    for outcome in np.ndindex(marg.shape):
        p = float(marg[outcome])
        if p == 0.0:
            continue
        parts = [str(v + 1) if reg == "index" else str(v) for reg, v in zip(measure.registers, outcome)]
        key = ",".join(parts)
        answer = measure.outcome_map.get(key, key)
        out[answer] = out.get(answer, 0.0) + p
    return out


MEASUREMENTS = [
    (RegisterLayout(5, "bit", 4), ("index",), {}),
    (RegisterLayout(5, "bit", 4), ("work1", "index", "symbol"), {}),
    (RegisterLayout(3, "weak", 2), ("symbol", "index"), {"2,1": "mark", "3,1": "mark", "0,2": 0}),
    (RegisterLayout(4, "strong", 2), ("bz", "bx", "index"), {}),
    (RegisterLayout(4, "strong", 2), ("index", "work0"), {f"{j},{b}": b for j in range(1, 5) for b in (0, 1)}),
    (RegisterLayout(6, "bit", 1), ("index",), {str(j): j % 2 for j in range(1, 7)}),
    (RegisterLayout(2, "bit", 2), (), {}),
]


@pytest.mark.parametrize("layout, registers, outcome_map", MEASUREMENTS)
def test_measure_distribution_matches_ndindex_loop(layout, registers, outcome_map):
    rng = np.random.default_rng(layout.total_dim + len(registers))
    measure = Measurement(registers=registers, outcome_map=outcome_map)
    dense = rng.standard_normal(layout.total_dim) + 1j * rng.standard_normal(layout.total_dim)
    sparse = np.where(rng.random(layout.total_dim) < 0.3, dense, 0.0)  # zero-probability outcomes
    basis = np.zeros(layout.total_dim, dtype=complex)
    basis[rng.integers(layout.total_dim)] = 1.0
    for state in (dense, sparse, basis):
        state = state / np.linalg.norm(state)
        got = measure_distribution(state, layout, measure)
        want = ndindex_distribution(state, layout, measure)
        assert list(got.items()) == list(want.items())  # same keys, order and float bits
        assert all(type(p) is float for p in got.values())


def test_measure_distribution_matches_ndindex_loop_on_catalog_runs():
    z = SabString.from_text("0*10*1")
    for alg, oracle in ((grover_or(6, 2), oracle_bit("010010")), (qsim._grover_marks(6, 1), oracle_weak(z))):
        state = run(alg, oracle).final_state
        assert list(measure_distribution(state, alg.layout, alg.measure).items()) == list(
            ndindex_distribution(state, alg.layout, alg.measure).items()
        )


# ---------------------------------------------------------------------------
# Gates are checked once


def test_rewired_gate_shares_its_matrix_without_a_check(gate_checks):
    source = Gate.block(random_unitary(np.random.default_rng(3), 4), (0, 1))
    gate_checks.clear()
    moved = source.rewired((4, 2))
    assert moved.wires == (4, 2) and moved.matrix is source.matrix
    assert (moved.name, moved.param) == (source.name, source.param) and source.wires == (0, 1)
    assert gate_checks == []
    with pytest.raises(SimulationError, match="distinct"):
        source.rewired((3, 3))


def test_gate_built_from_a_writable_array_holds_a_read_only_copy(gate_checks):
    matrix = np.eye(2, dtype=np.complex128)
    gate = Gate(name="BLOCK", wires=(0,), matrix=matrix)
    assert gate.matrix is not matrix and not np.shares_memory(gate.matrix, matrix)
    assert not gate.matrix.flags.writeable
    moved = gate.rewired((1,))
    assert moved.wires == (1,) and moved.matrix is gate.matrix
    assert gate_checks == ["BLOCK"]  # rewiring ran no check
    matrix[0, 0] = 2.0  # written after the gate was built
    assert np.array_equal(gate.matrix, np.eye(2)) and np.array_equal(moved.matrix, np.eye(2))
    with pytest.raises(ValueError):
        gate.matrix[0, 0] = 2.0


def test_second_mark_search_at_a_seen_size_builds_no_gate(gate_checks):
    z = SabString.from_text("01*0*1")
    first = grover_find_mark(z, 2)
    gate_checks.clear()
    again = grover_find_mark(SabString.from_text("+00100"), 1)
    assert gate_checks == []
    assert grover_find_mark(z, 2) == first
    assert abs(again.success_mass - math.sin(3 * math.asin(math.sqrt(1 / 6))) ** 2) < 1e-12


def test_catalog_gates_are_shared_and_read_only():
    for build in (grover_or, qsim._grover_marks):
        alg, twin = build(7, 2), build(7, 1)
        assert [id(g) for g in alg.steps[0]] == [id(g) for g in twin.steps[0]]
        assert alg.steps[-1][0] is twin.steps[-1][0]  # the diffusion gate
        gates = [g for step in alg.steps if step not in (QUERY, QUERY_INV) for g in step]
        assert all(not g.matrix.flags.writeable for g in gates)


# ---------------------------------------------------------------------------
# Each circuit fact is stated once

LAYOUT_FIELDS = {
    "bit": ((2,), ("symbol",)),
    "weak": ((4,), ("symbol",)),
    "strong": ((2, 2, 4), ("bx", "by", "bz")),
}


@pytest.mark.parametrize("symbol", sorted(LAYOUT_FIELDS))
@pytest.mark.parametrize("workspace, qubits", [(1, 0), (2, 1), (8, 3)])
def test_layout_dims_and_register_names(symbol, workspace, qubits):
    symbol_dims, symbol_names = LAYOUT_FIELDS[symbol]
    layout = RegisterLayout(n=5, symbol=symbol, workspace=workspace)
    assert layout.dims == (5, *symbol_dims) + (2,) * qubits
    assert layout.register_names == ("index", *symbol_names) + tuple(f"work{i}" for i in range(qubits))
    assert layout.total_dim == 5 * math.prod(symbol_dims) * workspace
    assert [layout.wire(name) for name in layout.register_names] == list(range(len(layout.dims)))


def test_replace_recomputes_derived_fields():
    layout = RegisterLayout(n=3, symbol="bit", workspace=2)
    wider = replace(layout, symbol="strong", workspace=4)
    assert wider.dims == (3, 2, 2, 4, 2, 2)
    assert wider.register_names == ("index", "bx", "by", "bz", "work0", "work1")
    assert wider == RegisterLayout(n=3, symbol="strong", workspace=4)
    alg = grover_or(4, 3)
    assert alg.query_count == 3
    assert replace(alg, steps=alg.steps[:3]).query_count == 1
    assert replace(alg, steps=alg.steps[:1]).query_count == 0


def test_grover_or_fits_each_distinct_gate_once(monkeypatch):
    calls = []
    plan = qsim._axis_plan

    def counting(dims, axes):
        calls.append(axes)
        return plan(dims, axes)

    monkeypatch.setattr(qsim, "_axis_plan", counting)
    alg = grover_or(12, 40)
    assert alg.query_count == 40
    # X and H on the target, the uniform prep and the one diffusion gate on the index.
    assert sorted(calls) == [(0,), (0,), (1,), (1,)]


def test_run_holds_one_state_between_gates():
    # 4 x 2 x 2^13 = 2^16 amplitudes; four gates per step, on leading and trailing wires.
    layout = RegisterLayout(n=4, symbol="bit", workspace=2**13)
    rng = np.random.default_rng(16)
    wires = ((0, 1), (1, 2), (3, 4), (14,))
    step = tuple(
        Gate.block(random_unitary(rng, math.prod(layout.dims[w] for w in ws)), ws) for ws in wires
    )
    alg = QueryAlgorithm(layout, (step, QUERY, step, QUERY, step))
    tracemalloc.start()
    try:
        run(alg, oracle_bit("0110"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (layout.total_dim * 16) < 4.5


def test_grover_builders_refuse_negative_iterations():
    with pytest.raises(SimulationError, match="iterations must be >= 0, got -1"):
        grover_find_mark(SabString.from_text("0*00"), -1)
    for build in (grover_or, qsim._grover_marks):
        with pytest.raises(SimulationError, match="iterations must be >= 0, got -3"):
            build(4, -3)
    with pytest.raises(SimulationError, match="queries must be >= 0, got -1"):
        random_query_algorithm(3, -1, np.random.default_rng(0))


def _refusal_cost(call):
    """Seconds and tracemalloc peak (bytes) of a call that must raise SimulationError."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(SimulationError) as refused:
            call()
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return seconds, peak, str(refused.value)


def test_grover_builders_refuse_counts_over_the_cap_before_any_work():
    cap = qsim.GROVER_ITERATION_CAP
    z = SabString.from_text("0*00")
    calls = (lambda: grover_or(4, cap + 1), lambda: qsim._grover_marks(4, cap + 1),
             lambda: grover_find_mark(z, cap + 1))
    for call in calls:
        seconds, peak, message = _refusal_cost(call)
        assert f"GROVER_ITERATION_CAP = {cap}" in message
        # Building grover_or(4, cap) peaks near 70 KB under tracemalloc.
        assert seconds < 0.05 and peak < 8192, (seconds, peak)
    assert grover_or(4, cap).query_count == cap


@pytest.mark.parametrize("count", [2.0, 2.5, "2", None])
def test_grover_builders_refuse_a_non_integer_count(count):
    for build in (grover_or, qsim._grover_marks):
        with pytest.raises(SimulationError, match="iterations must be an integer"):
            build(4, count)


def test_mark_search_circuit_is_built_once_per_typed_size():
    assert qsim._grover_marks(4, 2) is qsim._grover_marks(4, 2)
    with pytest.raises(SimulationError, match="iterations must be an integer, got 2.0"):
        qsim._grover_marks(4, 2.0)  # not answered from the (4, 2) entry
    one = qsim._grover_marks(4, 1)
    flag = qsim._grover_marks(4, True)
    assert flag is not one and flag == one


def test_gather_is_np_take_bit_for_bit():
    rng = np.random.default_rng(37)
    for pre, span, post in itertools.product((1, 2, 5), (1, 3, 8), (1, 4, 7)):
        state = rng.standard_normal(pre * span * post) + 1j * rng.standard_normal(pre * span * post)
        for src in (rng.permutation(span), rng.integers(0, span, span)):
            out = qsim._gather(state, pre, src, post)
            want = np.take(state.reshape(pre, span, post), src, axis=1).reshape(-1)
            assert out.dtype == want.dtype and out.tobytes() == want.tobytes()
            assert not np.shares_memory(out, state)


def test_repeated_measured_register_is_refused():
    layout = RegisterLayout(n=2, symbol="bit", workspace=2)
    for registers in (("index", "index"), ("symbol", "work0", "symbol")):
        with pytest.raises(SimulationError, match="repeat"):
            QueryAlgorithm(layout, ((),), Measurement(registers=registers))


# ---------------------------------------------------------------------------
# Gates and measurements check their own fields


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Gate.named("H", (True,)), r"gate wires must be integers, got \(True,\)"),
        (lambda: Gate.named("H", (1.0,)), r"gate wires must be integers, got \(1.0,\)"),
        (lambda: Gate.named("H", 1), "gate wires must be integers, got 1"),
        (lambda: Gate.named("H", "1"), "gate wires must be integers"),
        (lambda: Gate.block(np.eye(2), (np.float64(0),)), "gate wires must be integers"),
        (lambda: Gate(name="BLOCK", wires=(False,), matrix=np.eye(2)), "gate wires must be integers"),
        (lambda: Gate.named("X", (0,)).rewired((True,)), "gate wires must be integers"),
        (lambda: Gate.named("CNOT", (1, 1)), "gate wires must be distinct"),
        (lambda: Gate.named("H", (0,), 3), "gate H takes no param, got 3"),
        (lambda: Gate.named("CPHASE", (0, 1)), "CPHASE param must be a finite real phase, got None"),
        (lambda: Gate.named("CPHASE", (0, 1), 1j), "CPHASE param must be a finite real phase"),
        (lambda: Gate.named("CPHASE", (0, 1), True), "CPHASE param must be a finite real phase"),
        (lambda: Gate.named("CPHASE", (0, 1), "0.5"), "CPHASE param must be a finite real phase"),
        (lambda: Gate.named("CPHASE", (0, 1), math.inf), "CPHASE param must be a finite real phase"),
        (lambda: Gate.named(5, (0,)), "unknown gate 5"),
        (lambda: Gate.block(np.full((2, 2), np.nan), (0,)), "not unitary"),
        (lambda: Measurement(registers="index"), "measure registers must be a tuple of str names, got 'index'"),
        (lambda: Measurement(registers=["index"]), "measure registers must be a tuple of str names"),
        (lambda: Measurement(registers=(0,)), "measure registers must be a tuple of str names"),
        (lambda: Measurement(registers=("index", "index")), "repeat a register"),
        (lambda: Measurement(("index",), {"1": [0]}), "measure map must map str outcomes to str/int/float answers"),
        (lambda: Measurement(("index",), {"1": True}), "measure map must map"),
        (lambda: Measurement(("index",), {1: 0}), "measure map must map"),
        (lambda: Measurement(("index",), [("1", 0)]), "measure map must map"),
    ],
    ids=["bool-wire", "float-wire", "int-wires", "str-wires", "numpy-float-wire", "direct-bool-wire",
         "rewired-bool-wire", "repeated-wire", "param-on-H", "no-phase", "complex-phase", "bool-phase", "str-phase",
         "infinite-phase", "non-str-name", "nan-matrix", "str-registers", "list-registers", "int-register",
         "repeated-register", "list-answer", "bool-answer", "int-outcome", "map-not-a-mapping"],
)
def test_gates_and_measurements_refuse_bad_fields_when_built(build, message):
    with pytest.raises(SimulationError, match=message):
        build()


def test_float_wire_is_refused_after_its_int_twin_was_planned():
    """The plan cache treats (1.0,) and (1,) as one key, so only the gate's own check can refuse."""
    dims = RegisterLayout(n=2, symbol="bit").dims
    apply_gate(initial_state(RegisterLayout(n=2, symbol="bit")), dims, Gate.named("H", (1,)))
    assert qsim._axis_plan.cache_info().currsize > 0
    with pytest.raises(SimulationError, match="gate wires must be integers"):
        Gate.named("H", (1.0,))
    layout = RegisterLayout(n=2, symbol="bit")
    with pytest.raises(SimulationError, match="gate wires must be integers"):
        QueryAlgorithm(layout, ((Gate.named("H", (1,)).rewired((1.0,)),),))


def test_numpy_integer_wires_become_ints():
    gate = Gate.named("CNOT", np.array([0, 1]))
    assert gate.wires == (0, 1) and all(type(w) is int for w in gate.wires)
    assert gate == Gate.named("CNOT", (0, 1)) and gate.rewired((np.int64(1), np.int32(0))).wires == (1, 0)
    layout = RegisterLayout(n=2, symbol="bit")
    alg = QueryAlgorithm(layout, ((gate,),), Measurement(("index",)))
    assert algorithm_from_json(algorithm_to_json(alg)) == alg


def test_cphase_phase_is_stored_as_a_float():
    gate = Gate.named("cphase", (0, 1), 1)
    assert gate.name == "CPHASE" and type(gate.param) is float and gate.param == 1.0
    assert gate == Gate.named("CPHASE", (0, 1), np.float64(1.0)) == Gate.named("CPHASE", (0, 1), np.int64(1))


def test_algorithm_locates_the_gate_its_layout_refuses():
    layout = RegisterLayout(n=2, symbol="bit")
    h, x = Gate.named("H", (1,)), Gate.named("X", (5,))
    with pytest.raises(SimulationError, match=r"steps\[2\]\.gates\[1\]: gate X wires \(5,\) out of range"):
        QueryAlgorithm(layout, ((h,), QUERY, (h, x)))
    with pytest.raises(SimulationError, match=r"steps\[0\]\.gates\[0\]: gate BLOCK wires \(1,\) need dimension 2"):
        QueryAlgorithm(layout, ((Gate.block(np.eye(3), (1,)),),))
    with pytest.raises(SimulationError, match="measure register 'work0' is not one of"):
        QueryAlgorithm(layout, ((h,),), Measurement(("index", "work0")))


@pytest.mark.parametrize(
    "fields, name",
    [({"n": True}, "n"), ({"n": 2.0}, "n"), ({"n": "2"}, "n"), ({"n": 2, "workspace": 2.0}, "workspace"),
     ({"n": 2, "workspace": False}, "workspace")],
)
def test_layout_refuses_non_integer_sizes(fields, name):
    with pytest.raises(SimulationError, match=f"layout {name} must be an integer"):
        RegisterLayout(symbol="bit", **fields)


def test_gates_compare_by_value():
    eye = Gate.block(np.eye(2), (0,))
    assert eye == Gate.block(np.eye(2), (0,)) and hash(eye) == hash(Gate.block(np.eye(2), (0,)))
    assert eye == eye.rewired((0,)) and eye != eye.rewired((1,))
    assert eye != Gate.block(np.eye(2), (1,))
    assert eye != Gate.block(np.array([[0, 1], [1, 0]]), (0,))
    assert eye != Gate.block(np.eye(4), (0,))
    assert Gate.named("X", (0,)) != Gate.block(np.array([[0, 1], [1, 0]]), (0,))
    assert Gate.named("CPHASE", (0, 1), 0.5) != Gate.named("CPHASE", (0, 1), 0.25)
    assert Gate.named("CPHASE", (0, 1), 0.5) == Gate.named("CPHASE", (0, 1), 0.5)
    assert len({eye, Gate.block(np.eye(2), (0,)), Gate.named("H", (0,)), Gate.named("H", (0,))}) == 2
    assert eye != "BLOCK"


def test_algorithms_compare_by_value():
    assert deutsch_parity() == deutsch_parity()
    assert grover_or(4, 1) == grover_or(4, 1)
    assert grover_or(4, 1) != grover_or(4, 2)
    assert deutsch_parity() != grover_or(2, 1)


# ---------------------------------------------------------------------------
# Monomial gates run on the gather kernel


def monomial_matrix(perm, phases):
    m = np.zeros((len(perm), len(perm)), dtype=np.complex128)
    m[np.arange(len(perm)), perm] = phases
    return m


@st.composite
def monomial_cases(draw):
    """Dims of 2-4 on up to 6 axes, distinct wires in any order, a permutation with phases."""
    dims = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=6)))
    order = draw(st.permutations(range(len(dims))))
    count = draw(st.integers(1, len(dims)))
    wires: list[int] = []
    for a in order[:count]:  # the longest prefix whose block fits BLOCK_CAP
        if math.prod(dims[w] for w in wires) * dims[a] > qsim.BLOCK_CAP:
            break
        wires.append(a)
    k = math.prod(dims[w] for w in wires)
    perm = draw(st.permutations(range(k)))
    phases = draw(st.lists(st.sampled_from([1, -1, 1j, -1j]), min_size=k, max_size=k))
    return dims, tuple(wires), monomial_matrix(perm, phases), draw(st.integers(0, 2**32 - 1))


def check_gather(dims, wires, matrix, seed):
    gate = Gate.block(matrix, wires)
    assert gate.monomial is not None
    state = random_state(np.random.default_rng(seed), math.prod(dims))
    before = state.copy()
    got = apply_gate(state, dims, gate)
    assert np.array_equal(got, moveaxis_apply_block(before, dims, wires, gate.matrix))
    assert np.array_equal(state, before) and not np.shares_memory(got, state)


@given(monomial_cases())
@settings(max_examples=150, deadline=None)
def test_gather_matches_moveaxis_reference(case):
    check_gather(*case)


@pytest.mark.parametrize(
    "dims, wires",
    [((3, 2, 2, 4, 2, 2), (3, 1, 4)), ((3, 2, 2, 4, 2), (4, 0)), ((2, 3, 2), (2, 1, 0)), ((5,), (0,))],
)
def test_gather_on_descending_and_non_adjacent_wires(dims, wires):
    rng = np.random.default_rng(len(dims) + sum(wires))
    k = math.prod(dims[w] for w in wires)
    for phases in (np.ones(k), rng.choice([1, -1, 1j, -1j], size=k)):
        check_gather(dims, wires, monomial_matrix(rng.permutation(k), phases), int(rng.integers(2**32)))
        check_gather(dims, wires, monomial_matrix(np.arange(k), phases), int(rng.integers(2**32)))


def test_gather_with_general_unit_phases_matches_within_1e_15():
    rng = np.random.default_rng(18)
    dims = (4, 2, 2, 4, 2, 2)
    for wires in [(3, 1, 4), (5, 0), (2,), (0, 1)]:
        k = math.prod(dims[w] for w in wires)
        for perm in (rng.permutation(k), np.arange(k)):
            gate = Gate.block(monomial_matrix(perm, np.exp(2j * np.pi * rng.random(k))), wires)
            assert gate.monomial is not None and gate.monomial.phases is not None
            state = random_state(rng, math.prod(dims))
            state /= np.linalg.norm(state)
            want = moveaxis_apply_block(state, dims, wires, gate.matrix)
            assert np.abs(apply_gate(state, dims, gate) - want).max() < 1e-15
    cphase = Gate.named("CPHASE", (4, 1), 0.7)
    want = moveaxis_apply_block(state, dims, (4, 1), cphase.matrix)
    assert np.abs(apply_gate(state, dims, cphase) - want).max() < 1e-15


def test_dense_and_nearly_monomial_gates_stay_on_the_matmul_path(monkeypatch):
    rng = np.random.default_rng(19)
    nearly = monomial_matrix(rng.permutation(4), np.ones(4))
    nearly[0, 1 if nearly[0, 0] else 0] = 1e-17  # unitary within the check, but not monomial
    calls = []
    monkeypatch.setattr(qsim, "apply_block", lambda *args: calls.append(args[2]) or apply_block(*args))
    dims = (3, 2, 2)
    for gate in (Gate.block(random_unitary(rng, 4), (2, 1)), Gate.block(nearly, (2, 1)), Gate.named("H", (1,))):
        assert gate.monomial is None
        state = random_state(rng, 12)
        assert np.array_equal(apply_gate(state, dims, gate), apply_block(state, dims, gate.wires, gate.matrix))
    assert calls == [(2, 1), (2, 1), (1,)]


def test_catalog_monomials_are_detected():
    named = [Gate.named(name, (0,)) for name in ("X", "Z")]
    named += [Gate.named(name, (0, 1)) for name in ("CNOT", "CZ", "SWAP")]
    named.append(Gate.named("CPHASE", (0, 1), 0.3))
    gadgets = [qsim._PHASE_MARK, *protocols._RESOLVE_GATES]
    for gate in named + gadgets:
        assert gate.monomial is not None, (gate.name, gate.wires)
    diagonal = {"Z", "CZ", "CPHASE"}
    assert all((g.monomial.cols is None) == (g.name in diagonal) for g in named)
    assert qsim._PHASE_MARK.monomial.cols is None  # a pure phase gate needs only the multiply
    assert all(g.monomial.phases is None for g in gadgets[1:])  # the gadgets only move amplitudes
    assert qsim._PHASE_MARK.monomial.phases is not None
    for gate in (qsim._TARGET_H, *qsim._index_gates(5)[:2]):
        assert gate.monomial is None
    moved = protocols._RESOLVE_GATES[1].rewired((5, 2, 6))
    assert moved.monomial is protocols._RESOLVE_GATES[1].monomial  # shared, not detected again


def test_wrapped_run_routes_the_gadget_through_the_gather(monkeypatch):
    conv = protocols.convert_strong(grover_or(3, 1))
    calls = []
    monkeypatch.setattr(qsim, "apply_block", lambda *args: calls.append(args[2]) or apply_block(*args))
    w = StrongInput.from_pair(BitString.coerce("010"), BitString.coerce("011"), "*")
    got = protocols.run_converted(conv, w)
    assert not set(calls) & {g.wires for g in protocols._RESOLVE_GATES}
    assert total_variation(got, run(grover_or(3, 1), oracle_bit("010")).distribution) < 1e-12


def test_gather_of_a_spread_cnot_holds_its_output_and_a_span_plan():
    """A CNOT on the first and last of 16 qubits: the span is the whole 2^16-entry state."""
    dims = (2,) * 16
    gate = Gate.named("CNOT", (0, 15))
    state = random_state(np.random.default_rng(20), 2**16)
    qsim._gather_plan.cache_clear()
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(2):  # the first call builds the plan, the second reuses it
            got = None
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            got = apply_gate(state, dims, gate)
            peaks.append((tracemalloc.get_traced_memory()[1] - held) / state.nbytes)
    finally:
        tracemalloc.stop()
    assert peaks[0] < 2.5 and peaks[1] < 1.25  # a dense apply_block holds two column blocks more
    assert np.array_equal(got, moveaxis_apply_block(state, dims, (0, 15), gate.matrix))
    span = state.size
    for pre, post, *arrays in [qsim._gather_plan(dims, gate.wires, gate.monomial)]:
        assert pre * post == 1 and all(a is None or a.size <= span for a in arrays)
    assert qsim._gather_plan.cache_info().maxsize == qsim._axis_plan.cache_info().maxsize


def test_phase_gate_on_distant_wires_holds_its_phases_not_a_span_column():
    """A CZ on the first and last of 16 qubits: the plan keeps the 4 phases, not 2^16 of them."""
    dims = (2,) * 16
    gate = Gate.named("CZ", (0, 15))
    state = random_state(np.random.default_rng(21), 2**16)
    # The former plan: one phase per span entry, a (span, 1) column over the (pre, span, post) view.
    s = np.arange(state.size)
    column = gate.monomial.phases[2 * (s >> 15) + (s & 1)].reshape(-1, 1)
    want = (state.reshape(1, -1, 1) * column).reshape(-1)
    qsim._gather_plan.cache_clear()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        got = apply_gate(state, dims, gate)
        peak = (tracemalloc.get_traced_memory()[1] - held) / state.nbytes
    finally:
        tracemalloc.stop()
    assert peak <= 1.1  # the output state and a k-entry plan
    assert np.array_equal(got, want)
    assert qsim._gather_plan(dims, gate.wires, gate.monomial)[3].size == 4


def test_mark_search_reads_the_index_marginal_of_the_final_state():
    for text, k in [("01*0*1", 2), ("+00100", 1), ("0*", 0), ("*" * 16, 3), ("0+00+00+000", 4)]:
        z = SabString.from_text(text)
        n = len(z)
        trace = run(qsim._grover_marks(n, k), oracle_weak(z))
        want = tuple(float(trace.distribution.get(j, 0.0)) for j in range(1, n + 1))
        assert grover_find_mark(z, k).position_probs == want


def test_apply_gate_refuses_what_apply_block_refuses():
    state = np.zeros(8, dtype=complex)
    for gate in (Gate.named("X", (0,)), Gate.named("H", (0,))):
        for wires, message in [((3,), "distinct and in 0..2"), ((0, 1), "matrix size")]:
            for _ in range(2):  # plans are cached, refusals are not
                with pytest.raises(ValueError, match=message):
                    apply_gate(state, (2, 2, 2), gate.rewired(wires))
