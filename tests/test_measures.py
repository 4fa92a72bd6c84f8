"""Sensitivity measures against vertex enumeration and exhaustive packing."""

from __future__ import annotations

import dataclasses
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_bitstrings, diff_positions, partial_functions
from sablab import measures, simplex
from sablab.boolfn import (
    BitString,
    PartialFunction,
    catalog,
    make_indexing,
    make_named,
)
from sablab.measures import (
    FEAS_TOL,
    FbsSolution,
    MeasureError,
    block_sensitivity,
    fbs,
    fbs_global,
    sensitive_blocks,
)
from sablab.verify import fbs_vertex_exact


def brute_packing(f, x):
    """Independent max-disjoint-packing over ALL sensitive blocks."""
    xb = BitString.coerce(x)
    blocks = []
    for y in f.opposite_inputs(xb):
        blocks.append(frozenset(diff_positions(xb, y)))
    best = 0
    for r in range(len(blocks), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(set(blocks), r):
            union = set()
            total = sum(len(b) for b in combo)
            for b in combo:
                union |= b
            if len(union) == total:
                best = max(best, r)
                break
    return best


def test_bs_examples():
    assert block_sensitivity(make_named("PARITY", 4), "0000") == 4
    f = make_named("OR", 4)
    assert block_sensitivity(f, "0000") == 4
    assert block_sensitivity(f, "1000") == 1
    # one data-bit block plus disjoint address-and-data blocks
    assert block_sensitivity(make_indexing(2), "000000") == 3


def test_bs_matches_bruteforce_on_catalog():
    for f in catalog(max_arity=4):
        for x in f.domain():
            assert block_sensitivity(f, x) == brute_packing(f, x), (f.name, str(x))


def former_block_sensitivity(f, x):
    return former_packing(sensitive_blocks(f, x), f.n)


def former_packing(masks, n):
    """The packing as first written: O(m^2) minimal filter, branch on every fitting block."""
    if not masks:
        return 0
    minimal = [m for m in masks if not any(o != m and o & ~m == 0 for o in masks)]
    minimal.sort(key=lambda m: m.bit_count())
    memo = {}

    def best(avail):
        if avail in memo:
            return memo[avail]
        out = 0
        for m in minimal:
            if m & ~avail == 0:
                out = max(out, 1 + best(avail & ~m))
        memo[avail] = out
        return out

    return best((1 << n) - 1)


def lsb_first_blocks(f, x):
    """Sensitive blocks with position j at bit j - 1, from the difference bits of the opposite inputs."""
    bits, vals = f.arrays()
    diff = bits[vals != f.value(x)] ^ np.array(x.bits, dtype=np.uint8)
    return sorted(set((diff.astype(np.int64) @ (1 << np.arange(f.n))).tolist()))


def test_bs_does_not_depend_on_the_block_bit_order():
    """The packing over the MSB-first blocks equals the one over their LSB-first mirror."""
    for f in catalog(max_arity=6):
        for x in f.domain():
            assert block_sensitivity(f, x) == former_packing(lsb_first_blocks(f, x), f.n), (f.name, str(x))


@pytest.mark.parametrize("n", [9, 10, 11])
def test_bs_matches_former_packing_on_random_functions(n):
    rng = np.random.default_rng(n)
    total = PartialFunction._total(f"R{n}", n, rng.permutation(np.arange(1 << n) % 2))
    codes = np.sort(rng.choice(1 << n, size=1 << (n - 2), replace=False))
    partial = PartialFunction(f"P{n}", n, {f"{c:0{n}b}": int(rng.integers(2)) for c in codes})
    for f in (total, partial):
        bits, _ = f.arrays()
        for row in rng.choice(len(bits), size=6, replace=False):
            x = BitString(tuple(bits[row].tolist()))
            assert block_sensitivity(f, x) == former_block_sensitivity(f, x), (f.name, str(x))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bs_reaches_four_at_built_indexing_points(seed):
    """IND_3 where flipping any one address bit selects a data bit of the opposite
    value: those 3 flips and the selected data bit are 4 disjoint sensitive blocks."""
    rng = np.random.default_rng(seed)
    addr = int(rng.integers(8))
    data = rng.integers(0, 2, size=8)
    for i in range(3):
        data[addr ^ (1 << i)] = 1 - data[addr]
    x = BitString(tuple((addr >> (2 - i)) & 1 for i in range(3)) + tuple(data.tolist()))
    f = make_indexing(3)
    assert block_sensitivity(f, x) == former_block_sensitivity(f, x) == 4


def test_bs_outside_domain():
    from sablab.boolfn import DomainError, PartialFunction

    f = PartialFunction("half", 2, {"00": 0, "11": 1})
    with pytest.raises(DomainError):
        block_sensitivity(f, "01")


def test_fbs_examples():
    for n in (2, 3, 4, 5):
        sol = fbs(make_named("OR", n), "0" * n)
        assert abs(sol.value - n) < 1e-9
    assert abs(fbs(make_named("AND", 2), "11").value - 2) < 1e-9


def test_fbs_empty_opposite_side():
    from sablab.boolfn import PartialFunction

    f = PartialFunction("skew", 2, {"00": 0, "01": 0, "11": 1})
    sub = PartialFunction("zeros", 2, {"00": 0, "01": 0})
    sol = fbs(sub, "00")
    assert sol.value == 0.0 and not sol.weights
    assert f.value("00") == 0


def test_fbs_global_examples():
    value, x = fbs_global(make_indexing(2))
    assert abs(value - 3) < 1e-6
    assert abs(fbs_global(make_named("PARITY", 3))[0] - 3) < 1e-9
    value, x = fbs_global(make_named("MAJ", 3))
    # LP optimum 2, first attained at the lexicographically smallest point 001
    assert abs(value - 2) < 1e-9
    assert str(x) == "001"


def full_sweep(f, exact):
    """Reference for fbs_global: fbs at every domain point, same tie rule.

    Returns every (value, x) that replaced the running best, in order; the
    last one is the sweep's result.
    """
    records = []
    for x in f.domain():
        value = fbs(f, x, exact=exact).value
        if not records or value > records[-1][0] + (0 if exact else FEAS_TOL):
            records.append((value, x))
    return records


def _record_lp_solves(monkeypatch):
    """Record (x, exact) of every LP solve fbs_global makes."""
    calls = []
    solve = measures._fbs_lp

    def recording(f, x, exact):
        calls.append((x, exact))
        return solve(f, x, exact)

    monkeypatch.setattr(measures, "_fbs_lp", recording)
    return calls


def _check_against_full_sweep(f, exact, monkeypatch):
    calls = _record_lp_solves(monkeypatch)
    result = fbs_global(f, exact=exact)
    calls = list(calls)  # the full sweep's own solves are not fbs_global's
    records = full_sweep(f, exact)
    assert result == records[-1], f.name
    assert isinstance(result[0], Fraction if exact else float)
    # Every point where the running best changes must have been solved.
    solved = {x for x, _ in calls}
    assert all(x in solved for _, x in records), f.name
    assert all(flag == exact for _, flag in calls)
    return result, calls


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_fbs_global_matches_full_sweep_on_catalog(exact, monkeypatch):
    for f in catalog(max_arity=6):
        _check_against_full_sweep(f, exact, monkeypatch)


@given(partial_functions(max_arity=5), st.booleans())
@settings(max_examples=40, deadline=None)
def test_fbs_global_matches_full_sweep_random(f, exact):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check_against_full_sweep(f, exact, monkeypatch)


def _threshold(k):
    """0^n and the weight-1 points (value 0), and the weight-k points (value 1); n = k + 1."""
    n = k + 1
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    entries = {(0,) * n: 0}
    entries.update({u: 0 for u in units})
    entries.update({tuple(1 - b for b in u): 1 for u in units})
    return PartialFunction(f"THR_{k}", n, entries)


@pytest.mark.parametrize("k, exact", [(7, False), (7, True), (19, False)])
def test_fbs_global_solves_where_the_bound_is_nearly_tight(k, exact, monkeypatch):
    """An earlier dual can bound a better point within a factor k / (k - 1).

    Take n = k + 1 and the domain 0^n, the weight-1 points (value 0) and the
    weight-k points (value 1).  fbs(0^n) = n/k with the uniform dual 1/k.
    The next point 0..01 has fbs (n-1)/(k-1) > n/k, and that dual bounds it
    only by n/(k-1), so the sweep has to solve there.
    """
    n = k + 1
    f = _threshold(k)
    (value, x), _ = _check_against_full_sweep(f, exact, monkeypatch)
    assert abs(value - Fraction(n - 1, k - 1)) < 1e-12 and str(x) == "0" * k + "1"


@pytest.mark.parametrize("k, exact", [(7, False), (7, True), (19, False)])
def test_fbs_global_solves_where_the_bound_is_nearly_tight_off_the_symmetric_path(k, exact, monkeypatch):
    """THR_k is symmetric on its domain; one more value-0 point 110..0 makes it not.

    The sweep then takes the general path, and the uniform dual 1/k of 0^n
    still bounds 0..01 by n/(k-1), within k/(k-1) of the best n/k, so 0..01
    is solved.  The new point has fbs (k-1)/(k-2) and is the maximiser.
    """
    n = k + 1
    f = PartialFunction(f"THR_{k}+1", n, {**_threshold(k).entries, (1, 1) + (0,) * (n - 2): 0})
    (value, x), calls = _check_against_full_sweep(f, exact, monkeypatch)
    assert BitString((0,) * k + (1,)) in {y for y, _ in calls}
    assert abs(value - Fraction(k - 1, k - 2)) < 1e-12 and str(x) == "11" + "0" * (n - 2)


def test_fbs_global_indexing_solves_few_lps(monkeypatch):
    calls = _record_lp_solves(monkeypatch)
    f = make_indexing(3)
    value, x = fbs_global(f)
    assert abs(value - 4) < 1e-9 and str(x) == "0" * 11
    # A full sweep solves one LP at each of the 2048 domain points.
    assert 0 < len(calls) <= 16


def test_fbs_global_exact_mode_prunes(monkeypatch):
    f = make_named("MAJ", 5)
    _, calls = _check_against_full_sweep(f, True, monkeypatch)
    assert 0 < len(calls) < len(f.domain())


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_fbs_global_builds_no_fbs_solution(exact, monkeypatch):
    """The sweep reads only each LP's value and dual, so it builds no weights dict."""
    f = make_named("MAJ", 5)
    want = fbs_global(f, exact=exact)
    monkeypatch.setattr(measures, "fbs", lambda *args, **kwargs: pytest.fail("fbs_global called fbs"))
    assert fbs_global(f, exact=exact) == want


def _random_function(rng, n, points):
    """Random non-constant partial function on ``points`` distinct points of the n-cube."""
    codes = np.sort(rng.choice(1 << n, size=points, replace=False))
    vals = rng.integers(0, 2, size=points)
    vals[:2] = (0, 1)
    return PartialFunction("random", n, {f"{c:0{n}b}": int(v) for c, v in zip(codes, vals)})


def brute_coverage(f, u):
    """Least u-weight on the coordinates where x differs from an opposite input, per x."""
    bits, vals = f.arrays()
    u = np.asarray(u)
    return [((bits[vals != v] ^ x) @ u).min() for x, v in zip(bits, vals)]


COVERAGE_KERNELS = [measures._transform_coverage, measures._pairwise_coverage]


@pytest.mark.parametrize("seed", range(12))
def test_coverage_kernels_match_brute_force(seed):
    """Both kernels give the brute-force coverage: equal in integers, to 1e-12 in floats."""
    rng = np.random.default_rng(seed)
    n = 2 + seed % 11
    for points in sorted({2, min(1 << n, 12), 1 << max(1, n - 4), (1 << n) // 2, 1 << n}):
        f = _random_function(rng, n, points)
        ints = rng.integers(0, 7, size=n)
        floats = rng.random(n) * (rng.random(n) < 0.8)
        want_int, want_float = brute_coverage(f, ints), brute_coverage(f, floats)
        for kernel in COVERAGE_KERNELS:
            got = kernel(f, ints)
            assert got.dtype == np.int64 and got.tolist() == want_int, (kernel.__name__, n, points)
            got = kernel(f, floats)
            assert np.allclose(got, want_float, rtol=0, atol=1e-12), (kernel.__name__, n, points)
            start = points // 2
            assert kernel(f, ints, start).tolist() == want_int[start:]


def test_coverage_of_a_dual_near_2_to_62_is_exact_in_python_ints():
    f = _threshold(5)
    u = np.array([(1 << 62) - 3 * j for j in range(6)], dtype=object)
    want = brute_coverage(f, u)
    assert max(want) >= 1 << 63  # int64 would have wrapped
    for kernel in COVERAGE_KERNELS:
        assert kernel(f, u).tolist() == want


@pytest.mark.parametrize("make", [lambda: make_indexing(2), lambda: make_named("MAJ", 5),
                                  lambda: _threshold(7)], ids=["IND_2", "MAJ_5", "THR_7"])
def test_fbs_global_refuses_a_scaled_dual_past_int64(make, monkeypatch):
    """A scaled dual sums to at most 1.5e9 at arity 20; one past 2^31 raises, not overflows."""
    f = make()
    solve = measures._fbs_lp

    def scaled(f, x, exact):
        opp, sol = solve(f, x, exact)
        return opp, dataclasses.replace(sol, dual=tuple(u * (1 << 60) for u in sol.dual))

    with monkeypatch.context() as patch:
        patch.setattr(measures, "_fbs_lp", scaled)
        with pytest.raises(MeasureError, match="2\\^31"):
            fbs_global(f, exact=True)
    # The same guard at a limit the true duals reach.
    monkeypatch.setattr(measures, "_INT64_SAFE", 1)
    with pytest.raises(MeasureError, match="scaled dual"):
        fbs_global(f, exact=True)


@given(partial_functions(max_arity=12, max_points=24), st.booleans())
@settings(max_examples=40, deadline=None)
def test_fbs_global_matches_full_sweep_on_sparse_domains(f, exact):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check_against_full_sweep(f, exact, monkeypatch)


def test_fbs_global_pinned_results_and_lp_counts(monkeypatch):
    calls = _record_lp_solves(monkeypatch)
    assert fbs_global(make_indexing(3), exact=True) == (Fraction(4), BitString((0,) * 11))
    assert len(calls) <= 8
    calls.clear()
    assert fbs_global(make_indexing(3))[1] == BitString((0,) * 11) and len(calls) <= 8
    calls.clear()
    value, x = fbs_global(make_named("MAJ", 9))
    assert abs(value - 5) < 1e-9 and str(x) == "000001111" and len(calls) <= 10
    calls.clear()
    value, x = fbs_global(make_named("MAJ", 11))
    assert abs(value - 6) < 1e-9 and str(x) == "00000011111" and len(calls) <= 12


def _check_solution_against_full_sweep(f, exact, monkeypatch):
    """``_fbs_global_solution`` is, entry for entry, ``fbs`` at the full sweep's maximiser; returns the LP solves."""
    calls = _record_lp_solves(monkeypatch)
    got = measures._fbs_global_solution(f, exact)
    calls = list(calls)  # the full sweep's own solves are not the sweep's
    want = fbs(f, full_sweep(f, exact)[-1][1], exact=exact)
    assert got == want, f.name
    assert [repr(u) for u in got.dual] == [repr(u) for u in want.dual], f.name
    return calls


def _layered(name, n, values):
    """The function with value ``values[w]`` on every weight-w point, over the weights ``values`` names."""
    return PartialFunction(name, n, {x: values[sum(x.bits)] for x in all_bitstrings(n) if sum(x.bits) in values})


def _weights_solved(calls):
    return [sum(x.bits) for x, _ in calls]


SYMMETRIC_CASES = (
    [(f, exact) for f in catalog(max_arity=6) for exact in (False, True)]
    + [(make_named("MAJ", 7), True), (make_named("MAJ", 9), False)]
    + [(_layered("LAYERS_8", 8, {1: 0, 2: 1, 5: 0, 7: 1}), exact) for exact in (False, True)]
)


@pytest.mark.parametrize("f, exact", SYMMETRIC_CASES,
                         ids=[f"{f.name}-{'exact' if e else 'float'}" for f, e in SYMMETRIC_CASES])
def test_fbs_global_on_a_symmetric_function_solves_one_point_per_weight(f, exact, monkeypatch):
    calls = _check_solution_against_full_sweep(f, exact, monkeypatch)
    if f.entries != _layered(f.name, f.n, _weight_values(f)).entries:
        return  # IND in the catalog: the entry-for-entry check above is all
    weights = _weights_solved(calls)
    assert len(weights) == len(set(weights)) <= f.n + 1, f.name
    # Each solve is at the first point of its weight in domain order.
    firsts = {}
    for x in f.domain():
        firsts.setdefault(sum(x.bits), x)
    assert all(firsts[sum(x.bits)] == x for x, _ in calls), f.name


def _flip_one(f):
    """f with the value of its last weight-2 point flipped, so layer 2 holds both values."""
    entries = dict(f.entries)
    x = [x for x in f.domain() if sum(x.bits) == 2][-1]
    entries[x] = 1 - entries[x]
    return PartialFunction(f"{f.name}-flip", f.n, entries)


def _drop_one(f):
    """f without its last weight-3 point, so layer 3 is incomplete."""
    x = [x for x in f.domain() if sum(x.bits) == 3][-1]
    return PartialFunction(f"{f.name}-drop", f.n, {y: v for y, v in f.entries.items() if y != x})


NEAR_MISSES = [(make(make_named("MAJ", n)), exact) for make in (_flip_one, _drop_one)
               for n, exact in ((5, False), (5, True), (7, True), (9, False))]


@pytest.mark.parametrize("f, exact", NEAR_MISSES,
                         ids=[f"{f.name}-{'exact' if e else 'float'}" for f, e in NEAR_MISSES])
def test_fbs_global_near_a_symmetric_function_takes_the_general_path(f, exact, monkeypatch):
    """One flipped value or one missing point: the sweep solves two points of one weight."""
    weights = _weights_solved(_check_solution_against_full_sweep(f, exact, monkeypatch))
    assert len(weights) > len(set(weights)), f.name


def symmetric_fbs(values, n, k):
    """fbs at a weight-k point of the symmetric function with value ``values[w]`` at weight w.

    The orbit LP: averaging an optimal weighting over the permutations fixing
    x keeps it feasible and optimal, so one variable W_{a,b} per orbit (flip a
    of the k ones and b of the n - k zeros, to a weight of the other value)
    suffices, with the loads sum(W a / k) <= 1 and sum(W b / (n - k)) <= 1.
    A 2-row LP has an optimal vertex with at most two non-zeros: one column
    with its tighter row tight, or two with both rows tight.
    """
    cols = [(Fraction(a, k) if k else Fraction(0), Fraction(b, n - k) if k < n else Fraction(0))
            for a in range(k + 1) for b in range(n - k + 1)
            if values.get(k - a + b, values[k]) != values[k]]
    best = max((1 / max(p, q) for p, q in cols), default=Fraction(0))
    for (p1, q1), (p2, q2) in itertools.combinations(cols, 2):
        det = p1 * q2 - p2 * q1
        if det:
            w1, w2 = (q2 - p2) / det, (p1 - q1) / det
            if w1 >= 0 and w2 >= 0:
                best = max(best, w1 + w2)
    return best


def symmetric_fbs_global(values, n):
    """(max fbs, its least weight) over the weights of a symmetric function, by :func:`symmetric_fbs`."""
    value, k = max((symmetric_fbs(values, n, k), -k) for k in values)
    return value, -k


def _weight_values(f):
    return {sum(x.bits): v for x, v in f.entries.items()}


ORBIT_CASES = (
    [(make_named(name, n), True) for name in ("AND", "OR", "PARITY") for n in range(1, 8)]
    + [(make_named("MAJ", n), True) for n in (1, 3, 5, 7)]
    + [(_layered("LAYERS_8", 8, {1: 0, 2: 1, 5: 0, 7: 1}), True)]
    + [(make_named(name, n), False) for name in ("AND", "OR", "PARITY") for n in range(8, 12)]
    + [(make_named("MAJ", n), False) for n in (9, 11)]
)


@pytest.mark.parametrize("f, exact", ORBIT_CASES,
                         ids=[f"{f.name}-{'exact' if e else 'float'}" for f, e in ORBIT_CASES])
def test_fbs_global_matches_the_orbit_lp(f, exact, monkeypatch):
    """Equal as Fractions, maximiser included, in exact mode; within 1e-9 in float mode."""
    with monkeypatch.context() as patch:
        for name in ("solve_float", "solve_exact"):
            patch.setattr(simplex, name, lambda *args: pytest.fail("the orbit oracle called simplex"))
        want, k = symmetric_fbs_global(_weight_values(f), f.n)
    if exact:  # the first point of weight k in domain order is 0^(n-k) 1^k
        assert fbs_global(f, exact=True) == (want, BitString((0,) * (f.n - k) + (1,) * k))
    else:
        assert abs(fbs_global(f)[0] - want) <= 1e-9


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_fbs_global_on_a_sparse_arity_20_domain_builds_no_cube_array(exact):
    """THR_19 has 41 points at arity 20: the pairwise kernel, not a 2^20-entry transform."""
    f = _threshold(19)
    tracemalloc.start()
    try:
        fbs_global(f, exact=exact)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_fbs_global_rejects_constant():
    from sablab.boolfn import PartialFunction

    f = PartialFunction("const", 1, {"0": 1, "1": 1})
    with pytest.raises(MeasureError):
        fbs_global(f)


def test_certificates_on_catalog():
    for f in catalog(max_arity=5):
        for x in f.domain():
            sol = fbs(f, x)
            sol.check_certificate(f)
            assert block_sensitivity(f, x) <= sol.value + 1e-9 <= f.n + 2e-9


def test_float_matches_vertex_oracle_small():
    for f in catalog(max_arity=3):
        for x in f.domain():
            exact = fbs_vertex_exact(f, x)
            assert abs(fbs(f, x).value - float(exact)) < 1e-9


def test_exact_mode_matches_vertex_oracle():
    for f in [make_named("OR", 3), make_named("MAJ", 3), make_indexing(1)]:
        for x in f.domain():
            assert fbs(f, x, exact=True).value == fbs_vertex_exact(f, x)


def full_basis_vertex_oracle(f, x):
    """Reference vertex enumeration: every m-subset of the n + m constraints.

    Solves each candidate basis as a full m x m Fraction system, unit rows
    included, the way the oracle did before it moved to each basis's support.
    """
    xb = BitString.coerce(x)
    ys = f.opposite_inputs(xb)
    if not ys:
        return Fraction(0)
    m, n = len(ys), f.n
    rows = []  # (normal vector over weights, right-hand side)
    for j in range(1, n + 1):
        rows.append(([Fraction(int(y[j - 1] != xb[j - 1])) for y in ys], Fraction(1)))
    for i in range(m):
        rows.append(([Fraction(int(k == i)) for k in range(m)], Fraction(0)))

    def solve(system):
        mat = [list(lhs) + [rhs] for lhs, rhs in system]
        pivot_row = 0
        where = [-1] * m
        for col in range(m):
            sel = next((r for r in range(pivot_row, len(mat)) if mat[r][col] != 0), None)
            if sel is None:
                continue
            mat[pivot_row], mat[sel] = mat[sel], mat[pivot_row]
            inv = mat[pivot_row][col]
            mat[pivot_row] = [v / inv for v in mat[pivot_row]]
            for r in range(len(mat)):
                if r != pivot_row and mat[r][col] != 0:
                    factor = mat[r][col]
                    mat[r] = [a - factor * b for a, b in zip(mat[r], mat[pivot_row])]
            where[col] = pivot_row
            pivot_row += 1
            if pivot_row == len(mat):
                break
        if any(w == -1 for w in where):
            return None
        return [mat[where[c]][-1] for c in range(m)]

    best = Fraction(0)
    for subset in itertools.combinations(range(len(rows)), m):
        point = solve([rows[i] for i in subset])
        if point is None or any(w < 0 for w in point):
            continue
        if all(sum(c * w for c, w in zip(lhs, point)) <= rhs for lhs, rhs in rows[:n]):
            best = max(best, sum(point, Fraction(0)))
    return best


def _random_partial_function(rng, n):
    """Seeded non-constant partial function with at least two domain points."""
    universe = list(all_bitstrings(n))
    keep = rng.random(len(universe)) < 0.75
    domain = [x for x, k in zip(universe, keep) if k]
    if len(domain) < 2:
        domain = universe[:2]
    values = [int(v) for v in rng.integers(0, 2, size=len(domain))]
    if len(set(values)) < 2:
        values[0] = 1 - values[1]
    return PartialFunction(f"rand_{n}", n, dict(zip(domain, values)))


def test_vertex_oracle_matches_full_basis_enumeration_on_catalog():
    for f in catalog(max_arity=3):
        for x in f.domain():
            got = fbs_vertex_exact(f, x)
            assert isinstance(got, Fraction)
            assert got == full_basis_vertex_oracle(f, x), (f.name, str(x))


def test_vertex_oracle_matches_full_basis_enumeration_random():
    rng = np.random.default_rng(20_241)
    points = 0
    for i in range(200):
        f = _random_partial_function(rng, n=1 + i % 3)
        for x in f.domain():
            points += 1
            assert fbs_vertex_exact(f, x) == full_basis_vertex_oracle(f, x), (f.serialize(), str(x))
    assert points >= 600


def test_vertex_oracle_maximum_below_full_support():
    """Blocks {3}, {2}, {1,2,3} at 000: the optimum w = (1, 1, 0) has support 2.

    The one 3 x 3 basis is non-singular but gives w = (0, 0, 1), value 1, so
    the maximum 2 is reached only at k = 2 < min(n, m) = 3.
    """
    f = PartialFunction("blocks", 3, {"000": 0, "001": 1, "010": 1, "111": 1})
    assert fbs_vertex_exact(f, "000") == Fraction(2) == full_basis_vertex_oracle(f, "000")


def test_vertex_oracle_skips_singular_block():
    """Blocks {1,2} and {1,2,3} at 000 agree on rows {1,2}: that 2 x 2 block is singular."""
    f = PartialFunction("twins", 3, {"000": 0, "110": 1, "111": 1})
    assert fbs_vertex_exact(f, "000") == Fraction(1) == full_basis_vertex_oracle(f, "000")


def test_vertex_oracle_does_not_use_simplex(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the vertex oracle must not call the simplex")

    monkeypatch.setattr(simplex, "solve_float", refuse)
    monkeypatch.setattr(simplex, "solve_exact", refuse)
    with pytest.raises(AssertionError):
        fbs(make_named("MAJ", 3), "000")
    assert fbs_vertex_exact(make_named("MAJ", 3), "000") == Fraction(3, 2)
    assert fbs_vertex_exact(make_indexing(1), "000") == Fraction(2)


def test_exact_mode_values_are_fractions():
    sol = fbs(make_named("MAJ", 3), "000", exact=True)
    assert sol.value == Fraction(3, 2)
    assert all(isinstance(w, Fraction) for w in sol.weights.values())


def _balanced_total_function(rng, n):
    """Total function with half of its inputs mapped to 1, as in the certify benchmark."""
    universe = list(all_bitstrings(n))
    values = rng.permutation([i % 2 for i in range(len(universe))])
    return PartialFunction(f"balanced_{n}", n, {x: int(v) for x, v in zip(universe, values)}, total=True)


def test_exact_fbs_at_arity_7_never_pivots_in_fractions(monkeypatch):
    solve = simplex._solve

    def float_only(c, A, b, tol, num):
        if num is Fraction:
            raise AssertionError("the Fraction pivot loop was entered")
        return solve(c, A, b, tol, num)

    monkeypatch.setattr(simplex, "_solve", float_only)
    rng = np.random.default_rng(7)
    for _ in range(8):
        f = _balanced_total_function(rng, 7)
        for i in rng.choice(1 << 7, size=3, replace=False):
            x = f.domain()[i]
            sol = fbs(f, x, exact=True)
            sol.check_certificate(f)
            assert abs(float(sol.value) - fbs(f, x).value) <= 1e-9


@pytest.mark.parametrize(
    "f, x, value",
    [
        (make_named("MAJ", 11), "11111000000", 6),
        (make_named("OR", 12), "0" * 12, 12),
        # Address 000 with data bits 0, 1, 2, 4 set so that each is a sensitive block.
        (make_indexing(3), "000" + "01101000", 4),
    ],
    ids=["MAJ_11", "OR_12", "IND_3"],
)
def test_exact_certificates_above_arity_8(f, x, value):
    sol = fbs(f, x, exact=True)
    assert sol.value == value and block_sensitivity(f, x) == value
    assert all(type(v) is Fraction for v in (sol.value, *sol.weights.values(), *sol.dual))
    sol.check_certificate(f)


def test_exact_certificate_check_has_no_tolerance():
    f = make_named("MAJ", 3)
    sol = fbs(f, "000", exact=True)
    sol.check_certificate(f)
    dual = (sol.dual[0] - Fraction(1, 10**12), *sol.dual[1:])
    with pytest.raises(MeasureError):
        dataclasses.replace(sol, dual=dual).check_certificate(f)
    # The float check accepts the same tamper: it is within FEAS_TOL.
    FbsSolution(
        x=sol.x,
        weights={y: float(w) for y, w in sol.weights.items()},
        value=float(sol.value),
        dual=tuple(float(u) for u in dual),
    ).check_certificate(f)


@pytest.mark.parametrize("exact", [False, True])
def test_certificate_check_refuses_uncovered_inputs(exact):
    """Only the coverage check refuses these duals: the gap stays within DUALITY_TOL."""
    f = make_named("OR", 2)
    sol = fbs(f, "00", exact=exact)
    moved = (sol.dual[0] + sol.dual[1], 0 * sol.dual[1])
    with pytest.raises(MeasureError, match="dual infeasible at 01"):
        dataclasses.replace(sol, dual=moved).check_certificate(f)
    shrunk = tuple(u * (1 - Fraction(1, 10**8)) for u in sol.dual)
    with pytest.raises(MeasureError, match="dual infeasible at 01"):
        dataclasses.replace(sol, dual=shrunk).check_certificate(f)


def test_exact_certificate_check_refuses_float_entries():
    f = make_named("MAJ", 3)
    sol = fbs(f, "000", exact=True)
    with pytest.raises(MeasureError, match="non-rational"):
        dataclasses.replace(sol, dual=tuple(float(u) for u in sol.dual)).check_certificate(f)


def test_integral_restriction_reproduces_bs():
    """Re-maximizing over 0/1 weights gives exactly the packing number."""
    for f in catalog(max_arity=4):
        for x in f.domain():
            ys = f.opposite_inputs(x)
            best = 0
            xb = BitString.coerce(x)
            masks = [frozenset(diff_positions(xb, y)) for y in ys]
            for r in range(len(set(masks)), 0, -1):
                if r <= best:
                    break
                for combo in itertools.combinations(set(masks), r):
                    if sum(len(b) for b in combo) == len(set().union(*combo)):
                        best = r
                        break
            assert best == block_sensitivity(f, x)


@given(partial_functions(max_arity=4))
@settings(max_examples=50, deadline=None)
def test_bs_fbs_sandwich_random(f):
    for x in list(f.domain())[:6]:
        sol = fbs(f, x)
        sol.check_certificate(f)
        assert block_sensitivity(f, x) <= sol.value + 1e-9
        assert sol.value <= f.n + 1e-9


def test_sensitive_blocks_are_masks():
    f = make_named("OR", 2)
    masks = sensitive_blocks(f, "00")
    assert set(masks) == {0b01, 0b10, 0b11}
    # IND_1 at 000: the opposite inputs 010, 011, 101 and 111 as codes, MSB-first (LSB-first: 2, 5, 6, 7).
    assert sensitive_blocks(make_indexing(1), "000") == (2, 3, 5, 7)


def test_sensitive_blocks_are_the_code_xors_on_catalog():
    """Each block sets bit n - j for each position j where x and an opposite input differ."""
    for f in catalog(max_arity=6):
        for x in f.domain():
            ys = f.opposite_inputs(x)
            assert sensitive_blocks(f, x) == tuple(sorted({x.code ^ y.code for y in ys}))
            assert {sum(1 << (f.n - j) for j in diff_positions(x, y)) for y in ys} == set(sensitive_blocks(f, x))


def test_indexing_at_arity_20(monkeypatch):
    """make_indexing(4) against the textual rule at seeded points, and certified solves over 16 columns.

    At 0^20 and 1^20 the 16 minimal sensitive blocks are the selected data bit
    alone and, for each of the 15 other addresses, the address bits to flip
    with the data bit there.  The dense LP over all 2^19 opposite inputs reads
    5.000000000000001 at 1^20.
    """
    f = make_indexing(4)
    for row in np.random.default_rng(0).integers(0, 2, size=(256, 20)).tolist():
        address = int("".join(map(str, row[:4])), 2)
        assert f.value(BitString(tuple(row))) == row[4 + address]
    columns = []
    solve = simplex.solve_float

    def spy(c, A, b):
        columns.append(A.shape[1])
        return solve(c, A, b)

    monkeypatch.setattr(simplex, "solve_float", spy)
    for x in ("0" * 20, "1" * 20):
        sol = fbs(f, x)
        assert sol.value == 5
        sol.check_certificate(f)
    assert columns == [16, 16]


def brute_minimal(blocks):
    """The blocks that contain no other block, by the antichain definition."""
    return [not any(o != b and o & ~b == 0 for o in blocks) for b in blocks]


@pytest.mark.parametrize("pairs", [0, measures._MINIMAL_PAIRS])  # 0: the cube passes unless |blocks|^2 <= 2^n
@pytest.mark.parametrize("seed", range(8))
def test_minimal_mask_matches_the_antichain_definition(seed, pairs, monkeypatch):
    monkeypatch.setattr(measures, "_MINIMAL_PAIRS", pairs)
    rng = np.random.default_rng(seed)
    n = 1 + seed
    full = (1 << n) - 1  # every non-empty block
    for size in sorted({1, max(1, full // 4), max(1, full // 2), full}):
        blocks = rng.choice(np.arange(1, 1 << n), size=size, replace=False)
        assert measures._minimal(blocks, n).tolist() == brute_minimal(blocks.tolist())


def dense_lp(f, x, exact=False):
    """The value of the fbs LP with one column per opposite input."""
    opp, diff = measures._lp_data(f, x)
    if opp.size == 0:
        return Fraction(0) if exact else 0.0
    c, A, b = np.ones(opp.size), diff.T.astype(np.float64), np.ones(f.n)
    return (simplex.solve_exact if exact else simplex.solve_float)(c, A, b).value


def _dense_oracle_points():
    rng = np.random.default_rng(32)
    for f in catalog(max_arity=6):
        for x in f.domain():
            yield f, x
    for n, count in ((2, 24), (3, 12)):
        f = make_indexing(n)
        bits, _ = f.arrays()
        for row in rng.choice(len(bits), size=count, replace=False):
            yield f, BitString(tuple(bits[row].tolist()))
    for n in (3, 5, 7, 9):
        for points in (1 << (n - 1), 1 << n):
            f = _random_function(rng, n, points)
            for x in f.domain()[:8]:
                yield f, x


def test_fbs_matches_the_dense_lp():
    """The LP over the minimal blocks has the dense LP's value, and its certificate covers every opposite input."""
    for f, x in _dense_oracle_points():
        sol = fbs(f, x)
        assert abs(sol.value - dense_lp(f, x)) <= 1e-9, (f.name, str(x))
        sol.check_certificate(f)


def test_exact_fbs_equals_the_exact_dense_lp():
    for f, x in _dense_oracle_points():
        if f.n <= 4:
            assert fbs(f, x, exact=True).value == dense_lp(f, x, exact=True), (f.name, str(x))
