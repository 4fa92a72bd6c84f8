"""Simplex solver on hand-checked LPs, degenerate cases, and both modes."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from sablab import simplex, verify
from sablab.simplex import SimplexError, solve_exact, solve_float


def test_textbook_lp():
    # max 3a + 2b s.t. a + b <= 4, a + 3b <= 6 -> optimum 12 at (4, 0)
    sol = solve_float(np.array([3.0, 2.0]), np.array([[1.0, 1.0], [1.0, 3.0]]), np.array([4.0, 6.0]))
    assert abs(sol.value - 12.0) < 1e-9
    assert abs(sol.weights[0] - 4.0) < 1e-9 and abs(sol.weights[1]) < 1e-9
    assert abs(sol.dual_value([4.0, 6.0]) - sol.value) < 1e-9


def test_exact_matches_float():
    c = [2, 3, 1]
    A = [[1, 1, 1], [1, 2, 0], [0, 1, 1]]
    b = [10, 8, 7]
    f = solve_float(np.array(c, dtype=float), np.array(A, dtype=float), np.array(b, dtype=float))
    e = solve_exact([Fraction(v) for v in c], [[Fraction(v) for v in row] for row in A], [Fraction(v) for v in b])
    assert abs(f.value - float(e.value)) < 1e-9
    assert abs(f.dual_value(b) - f.value) < 1e-7
    assert e.dual_value(b) == e.value


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
    assert exact.dual_value(BEALE_B) == exact.value
    A = np.array(BEALE_A, dtype=float)
    approx = solve_float(np.array(BEALE_C, dtype=float), A, np.array(BEALE_B, dtype=float))
    assert abs(approx.value - 1.25) < 1e-9
    assert abs(approx.dual_value(BEALE_B) - approx.value) < 1e-9
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
        assert abs(sol.dual_value(b) - sol.value) < 1e-7  # strong duality
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
        assert sol.dual_value([1] * len(b)) == sol.value  # strong duality, exactly
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
        assert sol.dual_value(b) == sol.value
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
    assert sol.value == 12 and sol.weights == (4, 0) and sol.dual_value(b) == 12
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
    assert fell_back.value == verified.value == 12 and fell_back.dual_value(b) == 12
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
