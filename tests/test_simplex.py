"""Simplex solver on hand-checked LPs, degenerate cases, and both modes."""

from __future__ import annotations

import dataclasses
import functools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sablab import measures, simplex, verify
from sablab.boolfn import PartialFunction
from sablab.simplex import _MAX_PIVOTS, _STALL_LIMIT, LpSolution, SimplexError, _as_array, solve_exact, solve_float


def dual_value(sol, b):
    """b.y, the dual objective: equal to ``sol.value`` at an optimum."""
    return sum(u * bi for u, bi in zip(sol.dual, b))


def test_textbook_lp():
    # max 3a + 2b s.t. a + b <= 4, a + 3b <= 6 -> optimum 12 at (4, 0)
    sol = solve_float(np.array([3.0, 2.0]), np.array([[1.0, 1.0], [1.0, 3.0]]), np.array([4.0, 6.0]))
    assert abs(sol.value - 12.0) < 1e-9
    assert abs(sol.weights[0] - 4.0) < 1e-9 and abs(sol.weights[1]) < 1e-9
    assert abs(dual_value(sol, [4.0, 6.0]) - sol.value) < 1e-9


def test_exact_matches_float():
    c = [2, 3, 1]
    A = [[1, 1, 1], [1, 2, 0], [0, 1, 1]]
    b = [10, 8, 7]
    f = solve_float(np.array(c, dtype=float), np.array(A, dtype=float), np.array(b, dtype=float))
    e = solve_exact([Fraction(v) for v in c], [[Fraction(v) for v in row] for row in A], [Fraction(v) for v in b])
    assert abs(f.value - float(e.value)) < 1e-9
    assert abs(dual_value(f, b) - f.value) < 1e-7
    assert dual_value(e, b) == e.value


def test_degenerate_lp_terminates():
    # Many ties in the ratio test; Bland's rule must still terminate.
    c = [1.0, 1.0, 1.0, 1.0]
    A = [[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0], [1.0, 0.0, 0.0, 1.0]]
    b = [1.0, 1.0, 1.0, 1.0]
    sol = solve_float(np.array(c), np.array(A), np.array(b))
    assert abs(sol.value - 2.0) < 1e-9
    e = solve_exact(
        [Fraction(1)] * 4,
        [[Fraction(int(v)) for v in row] for row in A],
        [Fraction(1)] * 4,
    )
    assert e.value == 2


def test_unbounded_detected():
    with pytest.raises(SimplexError):
        solve_float(np.array([1.0, 0.0]), np.array([[0.0, 1.0]]), np.array([1.0]))
    with pytest.raises(SimplexError):
        solve_exact([1, 0], [[0, 1]], [1])


def test_negative_rhs_rejected():
    with pytest.raises(SimplexError):
        solve_float(np.array([1.0]), np.array([[1.0]]), np.array([-1.0]))
    with pytest.raises(SimplexError):
        solve_exact([1], [[1]], [-1])


BEALE_C = [Fraction(3, 4), -20, Fraction(1, 2), -6]
BEALE_A = [
    [Fraction(1, 4), -8, -1, 9],
    [Fraction(1, 2), -12, Fraction(-1, 2), 3],
    [0, 0, 1, 0],
]
BEALE_B = [0, 0, 1]


def test_beale_cycling_lp_both_modes():
    # Beale's LP cycles under the textbook rule; the stall fallback to
    # Bland's rule must reach the optimum 5/4 in both arithmetic modes.
    exact = solve_exact(BEALE_C, BEALE_A, BEALE_B)
    assert exact.value == Fraction(5, 4)
    assert dual_value(exact, BEALE_B) == exact.value
    A = np.array(BEALE_A, dtype=float)
    approx = solve_float(np.array(BEALE_C, dtype=float), A, np.array(BEALE_B, dtype=float))
    assert abs(approx.value - 1.25) < 1e-9
    assert abs(dual_value(approx, BEALE_B) - approx.value) < 1e-9
    assert approx.pivots == exact.pivots  # one pivot loop, one pivot sequence


def _random_lps():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        A = rng.integers(0, 2, size=(n, m)).astype(float)
        A[:, 0] = np.maximum(A[:, 0], 1.0)  # keep the LP bounded
        A[0, :] = np.maximum(A[0, :], 1.0)
        yield np.ones(m), A, np.ones(n)


def test_dual_feasibility():
    for c, A, b in _random_lps():
        sol = solve_float(c, A, b)
        dual = np.array(sol.dual)
        assert dual.min() >= -1e-9
        assert (A.T @ dual - c).min() >= -1e-9  # dual feasible
        assert abs(dual_value(sol, b) - sol.value) < 1e-7  # strong duality
        w = np.array(sol.weights)
        assert w.min() >= -1e-12
        assert (A @ w - b).max() <= 1e-9  # primal feasible


def test_dual_feasibility_exact():
    for c, A, b in _random_lps():
        sol = solve_exact(c, A, b)
        assert sol.exact
        assert all(type(v) is Fraction for v in (sol.value, *sol.weights, *sol.dual))
        rows = A.astype(int).tolist()
        columns = A.T.astype(int).tolist()
        assert min(sol.dual) >= 0
        assert all(sum(a * u for a, u in zip(col, sol.dual)) >= 1 for col in columns)  # dual feasible
        assert dual_value(sol, [1] * len(b)) == sol.value  # strong duality, exactly
        assert min(sol.weights) >= 0
        assert all(sum(a * w for a, w in zip(row, sol.weights)) <= 1 for row in rows)  # primal feasible
        assert sum(sol.weights) == sol.value


def cold_fraction_loop(c, A, b):
    """The Fraction pivot loop from the all-slack basis, with no float guess."""
    return simplex._solve(c, A, b, 0, Fraction)


@pytest.fixture
def fraction_loop_calls(monkeypatch):
    """Count the runs of the pivot loop in Fraction arithmetic."""
    calls = []
    solve = simplex._solve

    def spy(c, A, b, tol, num):
        if num is Fraction:
            calls.append(num)
        return solve(c, A, b, tol, num)

    monkeypatch.setattr(simplex, "_solve", spy)
    return calls


def test_exact_matches_cold_fraction_loop(fraction_loop_calls):
    for c, A, b in [*_random_lps(), (BEALE_C, BEALE_A, BEALE_B)]:
        cold = cold_fraction_loop(c, A, b)
        sol = solve_exact(c, A, b)
        assert type(sol.value) is Fraction and sol.value == cold.value
        assert dual_value(sol, b) == sol.value
    # Each cold loop above is one call; solve_exact itself never fell back.
    assert len(fraction_loop_calls) == 26


def test_exact_falls_back_when_float_loop_raises(fraction_loop_calls):
    # The float loop reads the eps column as all-zero, hence unbounded.
    eps = Fraction(1, 10**12)
    c, A, b = [1, 1], [[1, 0], [0, eps]], [1, eps]
    with pytest.raises(SimplexError):
        solve_float(np.array(c, dtype=float), np.array(A, dtype=float), np.array(b, dtype=float))
    sol = solve_exact(c, A, b)
    assert sol.value == 2 and sol.weights == (1, 1) and sol.dual == (1, 1 / eps)
    # An integer too large for a float: the float loop cannot even read it.
    assert solve_exact([10**400], [[1]], [1]).value == 10**400
    assert len(fraction_loop_calls) == 2


@pytest.mark.parametrize(
    "basis",
    [(2, 3), (2, 0), (0, 1)],
    # On max 3a + 2b s.t. a + b <= 4, a + 3b <= 6 (columns a, b, slack 1, slack 2):
    ids=["slacks-dual-infeasible", "primal-infeasible", "negative-dual"],
)
def test_exact_falls_back_when_float_basis_is_not_optimal(monkeypatch, fraction_loop_calls, basis):
    # Each basis passes every exact check but one, so the verifier must refuse it.
    solve = simplex._solve

    def wrong_basis(c, A, b, tol, num):
        sol = solve(c, A, b, tol, num)
        return dataclasses.replace(sol, basis=basis) if num is float else sol

    monkeypatch.setattr(simplex, "_solve", wrong_basis)
    c, A, b = [3, 2], [[1, 1], [1, 3]], [4, 6]
    sol = solve_exact(c, A, b)
    assert sol.value == 12 and sol.weights == (4, 0) and dual_value(sol, b) == 12
    assert len(fraction_loop_calls) == 1


def test_exact_verification_with_large_integer_duals(fraction_loop_calls):
    # y = (1/p, 1/q) scales to (q, p), and c scales to p·q > 2**63: the
    # integer dual check must not overflow.
    p, q = 3**25, 5**17
    A = np.array([[p, 0], [0, q]], dtype=float)
    sol = solve_exact(np.ones(2), A, np.ones(2))
    assert sol.value == Fraction(1, p) + Fraction(1, q)
    assert sol.dual == (Fraction(1, p), Fraction(1, q))
    assert fraction_loop_calls == []


def test_float_solution_reports_its_basis():
    sol = solve_float(np.array([3.0, 2.0]), np.array([[1.0, 1.0], [1.0, 3.0]]), np.array([4.0, 6.0]))
    assert sol.basis == (0, 3)  # a in row 1, the slack of row 2 in row 2


def test_exact_solution_records_a_fallback(monkeypatch):
    c, A, b = [3, 2], [[1, 1], [1, 3]], [4, 6]
    verified = solve_exact(c, A, b)
    assert not verified.fallback
    assert not solve_float(np.array(c, dtype=float), np.array(A, dtype=float), np.array(b, dtype=float)).fallback
    monkeypatch.setattr(simplex, "_verify_basis", lambda *args: None)
    fell_back = solve_exact(c, A, b)
    assert fell_back.fallback
    assert fell_back.value == verified.value == 12 and dual_value(fell_back, b) == 12
    # A float loop that raises falls back too.
    assert solve_exact([10**400], [[1]], [1]).fallback


def test_fallback_flag_stays_out_of_the_canonical_report(monkeypatch):
    flags = []

    def recording(*args):
        sol = exact(*args)
        flags.append(sol.fallback)
        return sol

    exact = simplex.solve_exact
    monkeypatch.setattr(simplex, "_verify_basis", lambda *args: None)
    monkeypatch.setattr(simplex, "solve_exact", recording)
    results = verify.run_checks(seed=0, only="02-measures-catalog")
    assert flags and all(flags)
    assert results[0].passed and "fallback" not in verify.canonical_report(results, 0)


def _reference_solve(c, A, b, tol, num: type, full: bool = False) -> LpSolution:
    """The oracle for ``simplex._solve``: the same pivot rules over separate arrays.

    It keeps the objective row, its value and the right-hand side apart from
    the tableau and updates only the rows with a non-zero factor (every row
    with ``full``), so every result of the one-tableau loop must match it bit
    for bit.
    """
    A, c, b = _as_array(A, num), _as_array(c, num), _as_array(b, num)
    n_rows, n_vars = A.shape
    if np.any(b < 0):
        raise SimplexError("negative right-hand side; all-slack basis infeasible")

    # Tableau columns: structural variables then slacks.
    T = np.hstack([A, _as_array(np.eye(n_rows), num)])
    rhs = b.copy()
    zrow = np.concatenate([-c, _as_array(np.zeros(n_rows), num)])
    zval = num(0)
    basis = list(range(n_vars, n_vars + n_rows))

    pivots = 0
    stall = 0
    bland = False
    while True:
        neg = np.flatnonzero(zrow < -tol)
        if neg.size == 0:
            break
        if bland:
            enter = int(neg[0])
        else:
            enter = int(np.argmin(zrow))
        col = T[:, enter]
        pos = np.flatnonzero(col > tol)
        if pos.size == 0:
            raise SimplexError("unbounded linear program")
        ratios = rhs[pos] / col[pos]
        best = ratios.min()
        # The int 1 keeps the tie bound a Fraction in exact mode.
        ties = pos[np.flatnonzero(ratios <= best + tol * max(1, abs(best)))]
        leave = int(min(ties, key=lambda i: basis[i]))

        piv = T[leave, enter]
        T[leave] /= piv
        rhs[leave] /= piv
        factors = T[:, enter].copy()
        factors[leave] = 0
        # Rows with a zero entering-column entry are unchanged by the pivot.
        rows = np.arange(n_rows) if full else np.flatnonzero(factors)
        T[rows] -= np.outer(factors[rows], T[leave])
        rhs[rows] -= factors[rows] * rhs[leave]
        gain = -zrow[enter] * rhs[leave]
        zval += gain
        zrow = zrow - zrow[enter] * T[leave]
        basis[leave] = enter

        pivots += 1
        if pivots > _MAX_PIVOTS:
            raise SimplexError("pivot limit exceeded")
        if gain <= tol:
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True
        else:
            stall = 0
            bland = False

    weights = _as_array(np.zeros(n_vars), num)
    for i, var in enumerate(basis):
        if var < n_vars:
            weights[var] = rhs[i]
    weights[np.abs(weights) < tol] = 0
    dual = zrow[n_vars:].copy()
    dual[np.abs(dual) < tol] = 0
    return LpSolution(
        value=num(zval),
        weights=tuple(weights.tolist()),
        dual=tuple(dual.tolist()),
        pivots=pivots,
        exact=num is Fraction,
        basis=tuple(basis),
    )


def _bits(value):
    """``value`` with its type, every float by its hex so that ulps and -0.0 show."""
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    return type(value), float.hex(value) if isinstance(value, float) else value


def _outcome(solve, args):
    try:
        sol = solve(*args)
    except Exception as exc:  # an unbounded LP must raise the same error
        return type(exc), str(exc)
    return {field.name: _bits(getattr(sol, field.name)) for field in dataclasses.fields(sol)}


def assert_matches_reference(c, A, b, tol, num):
    assert _outcome(simplex._solve, (c, A, b, tol, num)) == _outcome(_reference_solve, (c, A, b, tol, num))


@given(st.integers(1, 12), st.integers(1, 300), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_pivot_loop_matches_reference_on_fbs_lps(n, m, seed):
    # A 0/1 fbs LP: one column per opposite input, one row per position.
    rng = np.random.default_rng(seed)
    A = (rng.random((n, m)) < rng.random()).astype(float)
    A[rng.integers(0, n, size=m), np.arange(m)] = 1.0  # each opposite input differs somewhere
    assert_matches_reference(np.ones(m), A, np.ones(n), simplex.PIVOT_TOL, float)


def _degenerate_integer_lps():
    """Integer LPs with entries in -2..2 and many zero right-hand sides.

    Almost half are unbounded, and a dozen of the larger all-zero ones stall
    into Bland's rule.
    """
    rng = np.random.default_rng(11)
    for low, high, zero_share in [(1, 6, 0.5)] * 60 + [(8, 16, 1.0)] * 30:
        n, m = int(rng.integers(low, high + 1)), int(rng.integers(low, high + 1))
        A = rng.integers(-2, 3, size=(n, m))
        b = rng.integers(1, 3, size=n) * (rng.random(n) >= zero_share)
        yield rng.integers(-2, 3, size=m), A, b


@pytest.mark.parametrize("num", [float, Fraction])
def test_pivot_loop_matches_reference_on_degenerate_lps(num):
    tol = simplex.PIVOT_TOL if num is float else 0
    for c, A, b in [*_degenerate_integer_lps(), (BEALE_C, BEALE_A, BEALE_B)]:
        if num is float:
            c, A, b = (np.array(v, dtype=float) for v in (c, A, b))
        assert_matches_reference(c, A, b, tol, num)


@pytest.mark.parametrize("check", ["01", "02", "03", "04", "05"])
def test_pivot_loop_matches_reference_on_verify_lps(monkeypatch, check):
    calls = []
    solve = simplex._solve

    def recording(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(simplex, "_solve", recording)
    assert all(result.passed for result in verify.run_checks(seed=0, only=check))
    monkeypatch.undo()
    assert calls or check == "05"  # check 05's relation bound solves no LP
    for args in calls:
        assert_matches_reference(*args)


def _arity_7_lps(monkeypatch) -> list[tuple]:
    """The 18 LPs of the exact fbs points of a certify round: three points of each of six
    seed-drawn balanced total functions of arity 7, recorded as ``measures.fbs`` solves them."""
    calls = []
    solve = simplex._solve
    monkeypatch.setattr(simplex, "_solve", lambda c, A, b, *rest: calls.append((c, A, b)) or solve(c, A, b, *rest))
    rng = np.random.default_rng(24)
    for i in range(6):
        vals = rng.permutation([k % 2 for k in range(128)]).tolist()
        f = PartialFunction(f"R7-{i}", 7, {f"{k:07b}": v for k, v in enumerate(vals)}, total=True)
        for code in rng.choice(128, size=3, replace=False).tolist():
            measures.fbs(f, f"{code:07b}")
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("num", [float, Fraction])
def test_pivot_loop_matches_the_full_update_on_arity_7_lps(monkeypatch, num):
    """In Fractions the loop skips the rows whose factor is zero and must still give every
    ``LpSolution`` of the full update; in float it updates every row and keeps its bits."""
    tol = simplex.PIVOT_TOL if num is float else 0
    lps = _arity_7_lps(monkeypatch)
    assert len(lps) == 18
    for c, A, b in lps:
        args = (c, A, b, tol, num)
        assert _outcome(simplex._solve, args) == _outcome(functools.partial(_reference_solve, full=True), args)


def test_pivot_peaks_at_two_tableaus():
    # The tableau, plus one rank-1 product per pivot; no per-row copies.
    n, m = 20, 2**15
    A = np.random.default_rng(0).integers(0, 2, size=(n, m)).astype(np.float64)
    c, b = np.ones(m), np.ones(n)
    tracemalloc.start()
    try:
        sol = solve_float(c, A, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.pivots > n  # many pivots, each with its own temporaries
    assert peak <= 2.2 * (n + 1) * (n + m + 1) * 8
