"""Conversion equality, interruption identities, amplification, baseline."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import total_variation
from sablab.boolfn import BitString, catalog, make_named
from sablab import protocols, qsim
from sablab.sabotage import DAGGER, STAR, SabString, StrongInput, make_strong
from sablab.qsim import (
    QUERY,
    QUERY_INV,
    Gate,
    Measurement,
    QueryAlgorithm,
    RegisterLayout,
    SimulationError,
    amplitude_amplify,
    deutsch_parity,
    evolve,
    grover_or,
    hybrid_sum,
    index_block_mass,
    oracle_bit,
    oracle_strong,
    random_query_algorithm,
    run,
    xor_controlled_block,
)
from sablab.protocols import (
    IndexFinderReport,
    ProtocolError,
    convert_strong,
    find_index_amplified,
    find_index_repeat,
    grover_baseline,
    run_converted,
    sample_interrupt,
)

XOR2 = make_named("XOR2", 2)


def all_strong_inputs(f):
    for x in f.d0:
        for y in f.d1:
            for marker in ("*", "+"):
                yield make_strong(f, x, y, marker)


def test_converted_deutsch_decides_exactly():
    conv = convert_strong(deutsch_parity())
    assert conv.wrapped.query_count == 2
    for w in all_strong_inputs(XOR2):
        marker = "*" if w.marker == 2 else "+"
        d = conv.decide(w)
        assert abs(d[marker] - 1.0) < 1e-12, (str(w), d)


def test_converted_grover_matches_source_distribution():
    or4 = make_named("OR", 4)
    source = grover_or(4, 1)
    conv = convert_strong(source)
    for w in all_strong_inputs(or4):
        base = w.x if w.marker == 2 else w.y
        want = run(source, oracle_bit(base)).distribution
        got = run_converted(conv, w)
        assert total_variation(want, got) <= 1e-10


def test_converted_query_count_doubles():
    src = grover_or(3, 3)
    assert convert_strong(src).wrapped.query_count == 2 * src.query_count == 6


def test_conversion_keeps_a_shared_gate_shared():
    wrapped = convert_strong(grover_or(4, 3)).wrapped
    # prep, then per iteration QUERY, gadget, QUERY_INV, diffusion
    diffusions = [wrapped.steps[k] for k in (4, 8, 12)]
    assert all(len(step) == 1 for step in diffusions)
    assert len({id(step[0]) for step in diffusions}) == 1


def test_conversion_equality_over_catalog_with_random_sources():
    """Distribution equality holds for arbitrary circuits, checked over every
    sabotage pair of every small catalog function."""
    rng = np.random.default_rng(1234)
    for f in catalog(max_arity=4):
        if not f.d0 or not f.d1:
            continue
        source = random_query_algorithm(f.n, 2, rng)
        conv = convert_strong(source)
        for w in list(all_strong_inputs(f))[:20]:
            base = w.x if w.marker == 2 else w.y
            want = run(source, oracle_bit(base)).distribution
            got = run_converted(conv, w)
            assert total_variation(want, got) <= 1e-10, (f.name, str(w))


@pytest.mark.parametrize(
    "registers, wrapped_registers",
    [
        (("index", "symbol"), ("index", "work0")),
        (("symbol", "work0"), ("work0", "work1")),
        (("work1", "index"), ("work2", "index")),
        (("work0",), ("work1",)),
    ],
)
def test_conversion_moves_measured_registers_with_their_wires(registers, wrapped_registers):
    """The source target bit becomes wrapped work0 and workK becomes work(K+1)."""
    rng = np.random.default_rng(77)
    source = replace(random_query_algorithm(3, 2, rng, workspace=4),
                     measure=Measurement(registers=registers))
    conv = convert_strong(source)
    assert conv.wrapped.measure.registers == wrapped_registers
    for w in all_strong_inputs(make_named("OR", 3)):
        base = w.x if w.marker == 2 else w.y
        want = run(source, oracle_bit(base)).distribution
        assert total_variation(want, run_converted(conv, w)) <= 1e-10, str(w)


def wide_source(rng, work_qubits):
    """A two-query source shaped like sabbench's simulate-wide: n = 8, Haar layers on the same wires."""
    layout = RegisterLayout(n=8, symbol="bit", workspace=1 << work_qubits)
    last, mid = len(layout.dims) - 1, 2 + work_qubits // 2

    def layer():
        wires = ((0, 1), (mid, mid + 1), (1, mid - 1), (last,))
        return tuple(Gate.block(random_unitary(rng, 16 if w == (0, 1) else 2 ** len(w)), w) for w in wires)

    steps = (layer(), QUERY, layer(), QUERY, layer())
    return QueryAlgorithm(layout, steps, Measurement(registers=("index",)))


def random_strong_input(rng, n):
    x = rng.integers(0, 2, n)
    flip = rng.random(n) < 0.5
    flip[rng.integers(n)] = True
    x, y = (BitString(tuple(v.tolist())) for v in (x, x ^ flip))
    return StrongInput.from_pair(x, y, "*+"[int(rng.integers(2))])


def source_run(conv, w):
    """The source run on the bit string a converted run queries: x on a star input, y on a dagger."""
    return run(conv.source, oracle_bit(w.x if w.marker == STAR else w.y))


def on_the_slice(conv, state):
    """A source-layout state put on the bx = by = bz = 0 slice of the wrapped layout."""
    layout = conv.wrapped.layout
    embedded = np.zeros(layout.total_dim, dtype=np.complex128)
    embedded.reshape(layout.n, 16, -1)[:, 0] = state.reshape(layout.n, -1)
    return embedded


def slice_instances(rng):
    """Every source family the wrapped-run tests pin, with workspace 1, 2^10 or 2^12."""
    instances = []
    for f in catalog(max_arity=4):
        sources = [deutsch_parity()] if f.n == 2 else []
        sources += [grover_or(f.n, k) for k in (1, 2)]
        instances += [(source, w) for source in sources for w in all_strong_inputs(f)]
    for n in range(5, 13):
        for k in (1, 2, 3):
            instances += [(grover_or(n, k), random_strong_input(rng, n)) for _ in range(2)]
    for work_qubits in (10, 12):
        source = wide_source(rng, work_qubits)
        w = random_strong_input(rng, 8)
        instances += [(source, StrongInput.from_pair(w.x, w.y, marker)) for marker in "*+"]
    return instances


def narrow_instances(rng):
    """Haar-random sources with workspace 1, 2 or 4 on random strong inputs."""
    for workspace in (1, 2, 4):
        for _ in range(10):
            n = int(rng.integers(2, 8))
            source = random_query_algorithm(n, int(rng.integers(1, 4)), rng, workspace)
            yield source, random_strong_input(rng, n)


def test_converted_run_is_bitwise_the_source_run_on_the_gadget_bits():
    """The converted run's distribution is the source run's own: same outcomes in the same
    order, float for float, for every source family, whatever its workspace."""
    rng = np.random.default_rng(29)
    instances = slice_instances(rng) + list(narrow_instances(rng))
    measured = replace(random_query_algorithm(3, 2, rng, workspace=4),
                       measure=Measurement(registers=("work0", "index", "symbol")))
    instances += [(measured, w) for w in all_strong_inputs(make_named("OR", 3))]
    for source, w in instances:
        conv = convert_strong(source)
        got = run_converted(conv, w)
        assert list(got.items()) == list(source_run(conv, w).distribution.items()), (source.layout, str(w))


def test_converted_run_on_the_slice_is_bitwise_the_wrapped_run():
    """The source at source size, put back on the zero-symbol slice, is the whole wrapped run's
    final state bit for bit, and the converted run's distribution is the wrapped run's."""
    rng = np.random.default_rng(25)
    for source, w in slice_instances(rng):
        conv = convert_strong(source)
        want = run(conv.wrapped, oracle_strong(w))
        assert run_converted(conv, w) == want.distribution, (source.layout, str(w))
        embedded = on_the_slice(conv, source_run(conv, w).final_state)
        assert np.array_equal(embedded, want.final_state), (source.layout, str(w))


def test_converted_run_on_the_slice_of_a_narrow_source_is_within_1e_15():
    """With workspace 1, 2 or 4 the source layout hands BLAS fewer columns per dense gate than
    the wrapped layout does, and a narrow product may sum in another order, as may a
    marginal over 4 live terms against one over 64 of which 60 are zero: the last bits can
    differ from the whole wrapped run, so these sources are held to 1e-15."""
    rng = np.random.default_rng(26)
    for source, w in narrow_instances(rng):
        conv = convert_strong(source)
        want = run(conv.wrapped, oracle_strong(w))
        got = run_converted(conv, w)
        assert got.keys() == want.distribution.keys()
        assert max(abs(got[k] - want.distribution[k]) for k in got) <= 1e-15, (source.layout, str(w))
        embedded = on_the_slice(conv, source_run(conv, w).final_state)
        assert np.abs(embedded - want.final_state).max() <= 1e-15, (source.layout, str(w))


def test_the_gadget_writes_x_on_a_star_and_y_on_a_dagger_in_every_local_case():
    """The gadget acts position by position, so this is check 07's identity for every n and
    every source: on a star input the converted run queries x, on a dagger input y."""
    want = {
        (x, y, x if x == y else marker): x if marker == STAR else y
        for x in (0, 1) for y in (0, 1) for marker in (STAR, DAGGER)
    }
    assert len(want) == 6
    assert protocols._gadget_bits(protocols._RESOLVE_GATES) == want
    assert convert_strong(deutsch_parity()).gadget_bits == want


def test_two_conversions_run_the_gadget_once_and_share_a_read_only_table(monkeypatch):
    gates = []

    def counting(state, dims, gate):
        gates.append(gate)
        return apply_gate(state, dims, gate)

    apply_gate = protocols.apply_gate
    monkeypatch.setattr(protocols, "apply_gate", counting)
    protocols._gadget_bits.cache_clear()
    first = convert_strong(deutsch_parity())
    second = convert_strong(grover_or(4, 1))
    assert gates == list(protocols._RESOLVE_GATES) * 2  # one star and one dagger pass
    assert second.gadget_bits is first.gadget_bits
    with pytest.raises(TypeError):
        first.gadget_bits[(0, 0, 0)] = 1


def test_a_gadget_that_leaves_a_symbol_register_set_is_refused(monkeypatch):
    monkeypatch.setattr(protocols, "_RESOLVE_GATES", (Gate.named("X", (1,)),))
    alg, w = _deutsch_instance()
    with pytest.raises(SimulationError, match="symbol registers bx, by, bz"):
        run_converted(convert_strong(alg), w)


@pytest.mark.parametrize("phase", [("Z",), ("X", "Z", "X")], ids="".join)
def test_a_gadget_with_a_phase_is_refused(monkeypatch, phase):
    """A Z on the answer wire, alone or between two X: the integer tags show the sign on either
    answer value."""
    phase = tuple(Gate.named(name, (4,)) for name in phase)
    monkeypatch.setattr(protocols, "_RESOLVE_GATES", protocols._RESOLVE_GATES + phase)
    with pytest.raises(SimulationError, match="symbol registers bx, by, bz"):
        convert_strong(deutsch_parity())


def test_a_converted_run_applies_nothing_to_a_wrapped_state(monkeypatch):
    """Every gate and query of a converted run acts on a source-size state, one per source
    gate and per source query: none acts on a state of the wrapped layout."""
    rng = np.random.default_rng(28)
    conv = convert_strong(wide_source(rng, 10))
    w = random_strong_input(rng, 8)
    sizes = []
    apply_gate, oracle_apply = qsim.apply_gate, qsim.Oracle.apply

    def recording_gate(state, dims, gate):
        sizes.append(state.size)
        return apply_gate(state, dims, gate)

    def recording_oracle(self, state, adjoint=False):
        sizes.append(state.size)
        return oracle_apply(self, state, adjoint)

    monkeypatch.setattr(qsim, "apply_gate", recording_gate)
    monkeypatch.setattr(protocols, "apply_gate", recording_gate)
    monkeypatch.setattr(qsim.Oracle, "apply", recording_oracle)
    run_converted(conv, w)
    gates = sum(len(step) for step in conv.source.steps if step not in (QUERY, QUERY_INV))
    assert sizes == [conv.source.layout.total_dim] * (gates + conv.source.query_count)
    assert conv.wrapped.layout.total_dim not in sizes


def test_converted_run_peaks_below_6_source_states():
    """A 2^16-amplitude source: the run and its measurement hold source-size arrays only
    (5.0 source states), where a whole wrapped run peaks at 49."""
    rng = np.random.default_rng(27)
    conv = convert_strong(wide_source(rng, 12))
    w = random_strong_input(rng, 8)
    source_bytes = conv.source.layout.total_dim * 16
    run_converted(conv, w)  # plans and caches are built outside the measurement
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        run_converted(conv, w)
        peak = (tracemalloc.get_traced_memory()[1] - held) / source_bytes
    finally:
        tracemalloc.stop()
    assert peak <= 6


def test_converted_run_without_measurement_is_refused_before_simulation(monkeypatch):
    _forbid_simulation(monkeypatch, "a source without measurement was simulated before it was refused")
    alg, w = _deutsch_instance()
    conv = convert_strong(replace(alg, measure=None))
    for call in (lambda: run_converted(conv, w), lambda: conv.decide(w)):
        with pytest.raises(ProtocolError, match="no measurement"):
            call()


def test_converted_run_refuses_an_input_of_the_wrong_length_before_any_gate(monkeypatch):
    def no_gate(*args, **kwargs):
        pytest.fail("a gate ran before the wrong-length input was refused")

    conv = convert_strong(grover_or(4, 1))  # reads the gadget's bits, gate by gate
    monkeypatch.setattr(qsim, "apply_gate", no_gate)
    monkeypatch.setattr(protocols, "apply_gate", no_gate)
    w = StrongInput.from_pair(BitString.from_text("000"), BitString.from_text("010"), "*")
    with pytest.raises(SimulationError, match=r"^oracle \(bit, n=3\) does not fit layout \(bit, n=4\)$"):
        run_converted(conv, w)


def test_convert_requires_bit_oracle():
    layout = RegisterLayout(n=2, symbol="weak", workspace=1)
    alg = QueryAlgorithm(layout=layout, steps=((), QUERY, ()),
                         measure=Measurement(registers=("index",)))
    with pytest.raises(ProtocolError):
        convert_strong(alg)


def _deutsch_instance():
    return deutsch_parity(), StrongInput.from_pair(
        BitString.from_text("00"), BitString.from_text("11"), "*"
    )


def test_sample_interrupt_deutsch():
    alg, w = _deutsch_instance()
    rep = sample_interrupt(alg, w, seed=0)
    assert abs(rep.exact_success - 1.0) < 1e-12
    assert rep.valid and rep.position in (1, 2)
    assert rep.empirical_success == 1.0


def test_per_trial_identity_links_to_hybrid():
    instances = [
        (deutsch_parity(), make_strong(XOR2, "00", "01", "*")),
        (grover_or(4, 1), make_strong(make_named("OR", 4), "0000", "0010", "*")),
        (grover_or(4, 1), make_strong(make_named("OR", 4), "0000", "1111", "+")),
    ]
    for alg, w in instances:
        rep = sample_interrupt(alg, w, seed=3)
        hb = hybrid_sum(alg, w.x, sorted(w.z.mark_positions))
        identity = (hb.sum_x + hb.sum_y) / (2 * alg.query_count)
        assert abs(rep.exact_success - identity) < 1e-10


def random_unitary(rng, k):
    q, r = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def former_per_trial_success(alg, w):
    """The former sum: index_block_mass of every interrupt state, branch 0 then branch 1."""
    block = set(sorted(w.z.mark_positions))
    n = alg.layout.n
    sums = []
    for x in (w.x, w.y):
        masses = []
        for state in protocols._interrupt_states(alg, x):
            probs = np.abs(state.reshape(n, -1)) ** 2
            masses.append(float(sum(probs[j - 1].sum() for j in block)))
        sums.append(sum(masses))
    return (sums[0] + sums[1]) / (2.0 * alg.query_count)


def test_per_trial_success_is_bitwise_the_former_block_mass_sum():
    instances = [(deutsch_parity(), w) for w in all_strong_inputs(XOR2)]
    rng = np.random.default_rng(15)
    # "001000001100" marks {3, 9, 10}, which a set iterates as 9, 10, 3.
    for n, k in ((4, 1), (6, 2), (12, 2), (12, 3)):
        for y in ("001000001100", *(rng.integers(0, 2, n) | (np.arange(n) == k) for _ in range(4))):
            y = "".join(map(str, y))[:n]
            w = make_strong(make_named("OR", n), "0" * n, y, "*+"[len(instances) % 2])
            instances.append((grover_or(n, k), w))
    for trial in range(24):
        n = int(rng.integers(2, 9))
        x = rng.integers(0, 2, n)
        flip = rng.random(n) < 0.4
        flip[trial % n] = True
        x, y = (BitString(tuple(v.tolist())) for v in (x, x ^ flip))
        w = StrongInput.from_pair(x, y, "*+"[trial % 2])
        instances.append((random_query_algorithm(n, int(rng.integers(1, 4)), rng), w))
    # Random index rotations, where the summation order shows in the last bit.
    layout = RegisterLayout(n=12, symbol="bit", workspace=1)
    for y in ("001000001100", "101000001011") * 8:
        layer = (Gate.block(random_unitary(rng, 12), (0,)), Gate.block(random_unitary(rng, 2), (1,)))
        alg = QueryAlgorithm(layout, (layer, QUERY, layer, QUERY, layer))
        instances.append((alg, make_strong(make_named("OR", 12), "0" * 12, y, "+")))
    for alg, w in instances:
        got = protocols._interrupt_traces(alg, w).per_trial_success
        assert got == former_per_trial_success(alg, w), (alg.layout, str(w))


def test_per_trial_success_is_bitwise_the_sum_of_index_block_masses():
    """The finders and index_block_mass sum a marginal's block through one helper, in one order."""
    instances = [
        (deutsch_parity(), make_strong(XOR2, "00", "01", "*")),  # the check 09 instances
        (grover_or(4, 1), make_strong(make_named("OR", 4), "0000", "0010", "*")),
        _quarter_instance(),
    ]
    rng = np.random.default_rng(22)
    for n in range(2, 13):
        for y in ("1" * n, *("".join(map(str, rng.integers(0, 2, n) | (np.arange(n) == t))) for t in range(2))):
            for k in (1, 2, 3):
                instances.append((grover_or(n, k), make_strong(make_named("OR", n), "0" * n, y, "*+"[k % 2])))
    for alg, w in instances:
        block = sorted(w.z.mark_positions)
        mass = [sum(index_block_mass(s, alg.layout, block) for s in protocols._interrupt_states(alg, x))
                for x in (w.x, w.y)]
        want = (mass[0] + mass[1]) / (2.0 * alg.query_count)
        assert protocols._interrupt_traces(alg, w).per_trial_success == want, (alg.layout, str(w))


def test_sample_interrupt_lower_bound_via_overlap():
    or4 = make_named("OR", 4)
    alg = grover_or(4, 1)
    w = make_strong(or4, "0000", "0010", "*")
    rep = sample_interrupt(alg, w, seed=0)
    hb = hybrid_sum(alg, w.x, sorted(w.z.mark_positions))
    assert rep.exact_success >= (1 - hb.overlap) / (2 * alg.query_count) - 1e-9


def test_sample_interrupt_rejects_zero_queries():
    layout = RegisterLayout(n=2, symbol="bit", workspace=1)
    alg = QueryAlgorithm(layout=layout, steps=((),), measure=None)
    _, w = _deutsch_instance()
    with pytest.raises(ProtocolError):
        sample_interrupt(alg, w, seed=0)


def test_find_index_repeat_immediate_success():
    alg, w = _deutsch_instance()
    rep = find_index_repeat(alg, w, budget=1, seed=0)
    assert rep.valid and rep.trials == 1
    assert abs(rep.exact_success - 1.0) < 1e-12


def test_find_index_repeat_budget_zero_is_failure_value():
    alg, w = _deutsch_instance()
    rep = find_index_repeat(alg, w, budget=0, seed=0)
    assert not rep.valid and rep.position is None and rep.exact_success == 0.0


def _forbid_simulation(monkeypatch, message):
    # The index finders simulate through protocols.evolve; run is patched too
    # so that a path moved back onto it is still caught.
    def no_simulation(*args, **kwargs):
        pytest.fail(message)

    monkeypatch.setattr(protocols, "evolve", no_simulation)
    monkeypatch.setattr(protocols, "run", no_simulation, raising=False)


def test_find_index_repeat_rejects_negative_budget(monkeypatch):
    _forbid_simulation(monkeypatch, "a negative budget was simulated before it was refused")
    alg, w = _deutsch_instance()
    with pytest.raises(ProtocolError, match="budget"):
        find_index_repeat(alg, w, budget=-2, seed=0)


def _quarter_instance():
    """One-query preparation leaving exactly 1/4 of the index mass on B = {2}."""
    layout = RegisterLayout(n=2, symbol="bit", workspace=1)
    rot = np.array([[math.sqrt(3) / 2, -0.5], [0.5, math.sqrt(3) / 2]], dtype=complex)
    alg = QueryAlgorithm(
        layout=layout,
        steps=((Gate.block(rot, (0,)),), QUERY, ()),
        measure=Measurement(registers=("index",)),
    )
    w = StrongInput.from_pair(BitString.from_text("00"), BitString.from_text("01"), "*")
    return alg, w


def test_find_index_repeat_success_probability_formula():
    alg, w = _quarter_instance()
    rep = find_index_repeat(alg, w, budget=8, seed=0)
    assert abs(rep.exact_success - (1 - 0.75**8)) < 1e-12
    # Monte Carlo cross-check of the per-trial rate with derived seeds
    hits = 0
    trials = 4000
    for i in range(trials):
        r = sample_interrupt(alg, w, seed=i)
        hits += r.valid
    assert abs(hits / trials - 0.25) < 0.02


def test_find_index_amplified_round_zero_matches_per_trial():
    alg, w = _deutsch_instance()
    base = sample_interrupt(alg, w, seed=5)
    amp = find_index_amplified(alg, w, rounds=0, seed=5)
    assert abs(amp.exact_success - base.exact_success) < 1e-10
    assert amp.valid and amp.position in (1, 2)
    assert amp.queries_used == (2 * 0 + 1) * (2 * 1 + 1)


def test_find_index_amplified_quarter_to_one():
    alg, w = _quarter_instance()
    base = sample_interrupt(alg, w, seed=2)
    assert abs(base.exact_success - 0.25) < 1e-12
    amp = find_index_amplified(alg, w, rounds=1, seed=2)
    assert abs(amp.exact_success - 1.0) < 1e-9
    assert amp.valid and amp.position == 2
    assert amp.queries_used == 3 * 3


def test_find_index_amplified_sine_law():
    alg, w = _quarter_instance()
    theta = math.asin(0.5)
    for rounds in range(4):
        amp = find_index_amplified(alg, w, rounds=rounds, seed=1)
        assert abs(amp.exact_success - math.sin((2 * rounds + 1) * theta) ** 2) < 1e-9


def test_find_index_amplified_rejects_negative_rounds(monkeypatch):
    _forbid_simulation(monkeypatch, "negative rounds were simulated before they were refused")
    alg, w = _deutsch_instance()
    with pytest.raises(ProtocolError, match="rounds must be >= 0, got -1"):
        find_index_amplified(alg, w, rounds=-1, seed=0)


def test_find_index_amplified_dimension_guard(monkeypatch):
    _forbid_simulation(monkeypatch, "the oversized request was simulated before it was refused")
    layout = RegisterLayout(n=16, symbol="bit", workspace=1024)
    steps = [()]
    for _ in range(40):
        steps.extend([QUERY, ()])
    alg = QueryAlgorithm(layout=layout, steps=tuple(steps), measure=None)
    w = StrongInput.from_pair(
        BitString(tuple([0] * 16)), BitString(tuple([1] * 16)), "*"
    )
    with pytest.raises(ProtocolError, match="find_index_repeat"):
        find_index_amplified(alg, w, rounds=1, seed=0)


@pytest.mark.parametrize("finder", ["sample-interrupt", "repeat", "amplified", "baseline", "baseline-n1"])
def test_finders_refuse_a_negative_seed(monkeypatch, finder):
    _forbid_simulation(monkeypatch, "a negative seed was simulated before it was refused")
    monkeypatch.setattr(protocols, "grover_find_mark", protocols.evolve)
    alg, w = _deutsch_instance()
    calls = {
        "sample-interrupt": lambda: sample_interrupt(alg, w, seed=-3),
        "repeat": lambda: find_index_repeat(alg, w, budget=2, seed=-3),
        "amplified": lambda: find_index_amplified(alg, w, rounds=1, seed=-3),
        "baseline": lambda: grover_baseline(SabString.from_text("00*0"), seed=-3),
        "baseline-n1": lambda: grover_baseline(SabString.from_text("*"), seed=-3),
    }
    with pytest.raises(ProtocolError, match="seed must be >= 0, got -3"):
        calls[finder]()


@pytest.mark.parametrize("finder", ["sample-interrupt", "repeat", "amplified"])
@pytest.mark.parametrize(
    "symbol, steps, message",
    [
        ("bit", ((), QUERY, (), QUERY_INV, ()), "forward queries only"),
        ("weak", ((), QUERY, ()), "bit oracle, not a weak layout"),
        ("strong", ((), QUERY, ()), "bit oracle, not a strong layout"),
    ],
)
def test_finders_refuse_what_the_strong_wrapping_cannot_carry(monkeypatch, finder, symbol, steps, message):
    _forbid_simulation(monkeypatch, "an unusable source was simulated before it was refused")
    alg = QueryAlgorithm(RegisterLayout(n=2, symbol=symbol), steps, Measurement(registers=("index",)))
    _, w = _deutsch_instance()
    calls = {
        "sample-interrupt": lambda: sample_interrupt(alg, w, seed=0),
        "repeat": lambda: find_index_repeat(alg, w, budget=2, seed=0),
        "amplified": lambda: find_index_amplified(alg, w, rounds=1, seed=0),
    }
    with pytest.raises(ProtocolError, match=message):
        calls[finder]()


def wrapped_branch_states(alg, w, branch):
    """The source moved onto the strong layout, each query turned into QUERY, an
    XOR of bx (branch 0) or by (branch 1) into the answer qubit, QUERY_INV; its
    state right before each forward query."""
    xor = Gate.block(xor_controlled_block(2, [1]), (1 + branch, 4))
    wrapped = protocols._wrap_strong(alg, (xor,))
    for k, state in enumerate(evolve(wrapped, oracle_strong(w))):
        if k % 2 == 0 and k < 2 * alg.query_count:
            yield state


def wrapped_amplified(alg, w, rounds, seed):
    """Position, validity and good mass of the dilation filled from the wrapped branch runs."""
    t_count, n = alg.query_count, alg.layout.n
    wrapped_dim = protocols._wrapped_layout(alg.layout).total_dim
    dims = (2, t_count + 1, wrapped_dim, 2)
    row = wrapped_dim // n
    flat_block = np.repeat([j in w.z.mark_positions for j in range(1, n + 1)], row)
    amp = 1.0 / math.sqrt(2.0 * t_count)
    prep = np.zeros(dims, dtype=np.complex128)
    for c in (0, 1):
        for t, state in enumerate(wrapped_branch_states(alg, w, c), start=1):
            prep[c, t, :, 1] = amp * np.where(flat_block, state, 0.0)
            prep[c, t, :, 0] = amp * np.where(flat_block, 0.0, state)
    good = np.zeros(dims, dtype=bool)
    good[:, :, :, 1] = True
    result = amplitude_amplify(prep.reshape(-1), good.reshape(-1), rounds)
    probs = np.abs(result.state) ** 2
    outcome = int(np.random.default_rng([seed]).choice(prep.size, p=probs / probs.sum()))
    position = int(np.unravel_index(outcome, dims)[2] // row) + 1
    return position, position in w.z.mark_positions, result.good_mass


def test_bit_oracle_branch_runs_match_the_strong_oracle_wrapping():
    rng = np.random.default_rng(19)
    exact = [(deutsch_parity(), w) for w in all_strong_inputs(XOR2)]
    for n in range(2, 13):
        for k in range(1, 4):
            y = rng.integers(0, 2, n)
            y[rng.integers(n)] = 1
            w = make_strong(make_named("OR", n), "0" * n, "".join(map(str, y)), "*+"[k % 2])
            exact.append((grover_or(n, k), w))
    close = []
    for workspace in (1, 2, 4, 8):
        for _ in range(4):
            n = int(rng.integers(2, 7))
            x = rng.integers(0, 2, n)
            flip = rng.random(n) < 0.5
            flip[rng.integers(n)] = True
            x, y = (BitString(tuple(v.tolist())) for v in (x, x ^ flip))
            w = StrongInput.from_pair(x, y, "*+"[int(rng.integers(2))])
            close.append((random_query_algorithm(n, int(rng.integers(1, 4)), rng, workspace), w))
    for tolerance, instances in ((0.0, exact), (1e-14, close)):
        for alg, w in instances:
            got = protocols._interrupt_traces(alg, w).index_probs
            n = alg.layout.n
            for b in (0, 1):
                want = [(np.abs(s.reshape(n, -1)) ** 2).sum(axis=1) for s in wrapped_branch_states(alg, w, b)]
                assert len(got[b]) == len(want) == alg.query_count
                for g, v in zip(got[b], want):
                    if tolerance:
                        assert np.abs(g - v).max() <= tolerance, (alg.layout, str(w))
                    else:
                        assert np.array_equal(g, v), (alg.layout, str(w))
            for rounds in range(4):
                seed = int(rng.integers(1 << 32))
                rep = find_index_amplified(alg, w, rounds, seed)
                position, valid, mass = wrapped_amplified(alg, w, rounds, seed)
                assert (rep.position, rep.valid) == (position, valid), (alg.layout, str(w), rounds)
                assert abs(rep.exact_success - mass) <= tolerance, (alg.layout, str(w), rounds)


def test_strong_wrappings_of_a_catalog_circuit_check_no_gate(gate_checks):
    alg = grover_or(5, 2)
    gate_checks.clear()
    converted = convert_strong(alg).wrapped
    assert gate_checks == []
    gates = [g for step in converted.steps if step not in (QUERY, QUERY_INV) for g in step]
    assert all(not g.matrix.flags.writeable for g in gates)
    # Each wrapped gate shares the matrix of its source gate.
    source, moved = alg.steps[0] + alg.steps[2], converted.steps[0] + converted.steps[4]
    assert [id(g.matrix) for g in source] == [id(g.matrix) for g in moved]


def test_reports_serialize_with_spec_fields():
    alg, w = _deutsch_instance()
    rep = sample_interrupt(alg, w, seed=0)
    payload = rep.to_json_dict()
    for key in ("protocol", "queries_used", "position", "valid",
                "exact_success", "empirical_success", "seed"):
        assert key in payload


def test_reports_derive_empirical_success_from_validity():
    alg, w = _deutsch_instance()
    or4 = grover_or(4, 1)
    w4 = StrongInput.from_pair(BitString.from_text("0000"), BitString.from_text("0010"), "*")
    reports = [sample_interrupt(or4, w4, seed=s) for s in range(4)]
    reports += [find_index_repeat(alg, w, budget=b, seed=0) for b in (0, 1)]
    reports += [find_index_amplified(or4, w4, rounds=r, seed=s) for r in (0, 1) for s in range(4)]
    reports += [grover_baseline(SabString.from_text(z), seed=0) for z in ("*", "00*0")]
    assert {rep.valid for rep in reports} == {True, False}
    keys = {"protocol", "queries_used", "position", "valid", "exact_success",
            "empirical_success", "seed", "trials"}
    for rep in reports:
        payload = rep.to_json_dict()
        assert rep.empirical_success == payload["empirical_success"] == float(rep.valid)
        amplified = rep.protocol == "find-index-amplified"
        assert set(payload) == (keys | {"rounds"} if amplified else keys)


def test_grover_baseline_single_mark_n4():
    rep = grover_baseline(SabString.from_text("00*0"), seed=0)
    assert rep.position == 3 and rep.valid
    assert abs(rep.exact_success - 1.0) < 1e-12
    assert rep.trials == 1  # first phase (k = 1) already succeeds with certainty


def test_grover_baseline_two_marks_n2():
    rep = grover_baseline(SabString.from_text("++"), seed=0)
    assert rep.valid and rep.position in (1, 2)
    assert rep.exact_success > 1 - 1e-9


def test_grover_baseline_immediate_n1():
    rep = grover_baseline(SabString.from_text("*"), seed=0)
    assert rep.position == 1 and rep.valid and rep.queries_used == 1


def test_grover_baseline_never_reports_unverified():
    for text in ("0*00", "+000000+", "0*0*0"):
        rep = grover_baseline(SabString.from_text(text), seed=7)
        if rep.valid:
            assert rep.position in SabString.from_text(text).mark_positions


def test_grover_baseline_deterministic():
    a = grover_baseline(SabString.from_text("00*0*"), seed=42)
    b = grover_baseline(SabString.from_text("00*0*"), seed=42)
    assert a == b


def _baseline_per_phase(z, seed):
    """The baseline as one mark search per phase, its distribution normalised in the phase."""
    n = len(z)
    if n == 1:
        return IndexFinderReport("grover-baseline", 1, 1, True, 1.0, seed)
    cap = max(1, math.ceil(math.pi / 4.0 * math.sqrt(n)))
    queries, k, miss_mass = 0, 1, 1.0
    position, trials = None, protocols._MAX_BASELINE_PHASES
    for phase in range(protocols._MAX_BASELINE_PHASES):
        result = qsim.grover_find_mark(z, k)
        queries += result.queries_used + 1
        miss_mass *= 1.0 - result.success_mass
        rng = np.random.default_rng([seed, phase])
        probs = np.array(result.position_probs)
        probs = probs / probs.sum()
        measured = int(rng.choice(n, p=probs)) + 1
        if measured in z.mark_positions:
            position, trials = measured, phase + 1
            break
        k = min(2 * k, cap)
    return IndexFinderReport("grover-baseline", queries, position, position is not None,
                             1.0 - miss_mass, seed, trials)


def test_grover_baseline_equals_one_run_per_phase(monkeypatch):
    """Field for field, with each distinct k run once per call; one input exhausts all 32 phases."""
    rng = np.random.default_rng(37)
    cases = [(SabString.from_text("01*"), 3161509852)]
    for n in range(1, 17):
        for marker in (STAR, DAGGER):
            symbols = [int(b) for b in rng.integers(0, 2, n)]
            for j in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False):
                symbols[j] = marker
            cases.append((SabString(tuple(symbols)), int(rng.integers(1 << 32))))
    runs = []
    monkeypatch.setattr(protocols, "grover_find_mark", lambda z, k: runs.append(k) or qsim.grover_find_mark(z, k))
    for z, seed in cases:
        runs.clear()
        got = grover_baseline(z, seed=seed)
        assert got == _baseline_per_phase(z, seed), (str(z), seed)
        assert runs == sorted(set(runs))  # 1, 2, 4, ... each once
    exhausted = grover_baseline(*cases[0])
    assert exhausted.trials == protocols._MAX_BASELINE_PHASES and exhausted.position is None
