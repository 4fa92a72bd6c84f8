"""Dense tableau simplex for small LPs of the form max c.w s.t. Aw <= b, w >= 0.

One pivot loop runs over two arithmetic types, ``float64`` with a 1e-9 pivot
tolerance and ``fractions.Fraction`` with tolerance 0:

* float mode (:func:`solve_float`): the pivot loop in ``float64``.
* exact mode (:func:`solve_exact`): float pivots, then one rational basis
  verification, with a ``Fraction`` pivot-loop fallback.  The optimal basis
  B of the float loop is re-solved from the exact inputs (B·w_B = b and
  yᵀB = c_B, two m×m systems in Fractions) and accepted only if w_B >= 0,
  y >= 0 and Aᵀy >= c hold exactly; c·w = b·y then holds by construction,
  which proves it optimal.
  Otherwise the pivot loop runs again in Fractions from the all-slack basis.
  This is the approach of QSopt_ex (Applegate, Cook, Dash and Espinoza 2007).

The loop pivots one tableau: row 0 holds the reduced costs and then the
objective value, the last column holds the right-hand side, and a pivot is
one rank-1 update of the whole tableau.

The entering rule is steepest-coefficient; whenever the objective stalls
(degenerate pivots) the solver engages Bland's anti-cycling rule until
progress resumes, so termination is guaranteed.  Both modes return the dual
vector of the optimal basis (the reduced costs of the slack columns), which
certifies optimality via strong duality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

PIVOT_TOL = 1e-9
_STALL_LIMIT = 12
_MAX_PIVOTS = 50_000


class SimplexError(RuntimeError):
    """Unbounded problem or pivot-limit exhaustion."""


@dataclass(frozen=True)
class LpSolution:
    """Primal/dual optimum of max c.w s.t. Aw <= b, w >= 0."""

    value: float | Fraction
    weights: tuple
    dual: tuple
    pivots: int
    exact: bool
    basis: tuple  # basic column per row; column n_vars + i is the slack of row i
    fallback: bool = False  # exact mode only: the Fraction pivot loop found this optimum


def solve_float(c: np.ndarray, A: np.ndarray, b: np.ndarray) -> LpSolution:
    """Float-mode simplex.  Requires b >= 0 (the all-slack basis is feasible)."""
    return _solve(c, A, b, PIVOT_TOL, float)


def solve_exact(c: Sequence, A: Sequence[Sequence], b: Sequence) -> LpSolution:
    """Exact optimum: the float basis verified in Fractions, else the Fraction pivot loop."""
    try:
        guess = _solve(c, A, b, PIVOT_TOL, float)
    except (SimplexError, OverflowError):
        guess = None
    if guess is not None:
        sol = _verify_basis(c, A, b, guess)
        if sol is not None:
            return sol
    return replace(_solve(c, A, b, 0, Fraction), fallback=True)


def _verify_basis(c, A, b, guess: LpSolution) -> LpSolution | None:
    """The basic solution of ``guess.basis`` in exact arithmetic, if it is optimal; else None."""
    A = np.asarray(A)
    n_rows, n_vars = A.shape
    zero, one = Fraction(0), Fraction(1)
    chosen = [k for k in guess.basis if k < n_vars]
    structural = zip(_as_array(A[:, chosen], Fraction).T.tolist(),
                     _as_array(np.asarray(c)[chosen], Fraction).tolist())
    columns, c_basis = [], []
    for k in guess.basis:
        if k < n_vars:
            column, ck = next(structural)
            columns.append(column)
            c_basis.append(ck)
        else:
            columns.append([one if i == k - n_vars else zero for i in range(n_rows)])
            c_basis.append(zero)
    b_exact = _as_array(b, Fraction).tolist()
    w_basis = _rational_solve([list(row) for row in zip(*columns)], b_exact)  # B·w_B = b
    y = _rational_solve(columns, c_basis)  # yᵀB = c_B, i.e. Bᵀy = c_B
    if w_basis is None or y is None or min(w_basis, default=0) < 0 or min(y, default=0) < 0:
        return None
    if not _dual_feasible(c, A, y):
        return None
    # c_B·w_B = yᵀB·w_B = yᵀb holds exactly, since B·w_B = b and Bᵀy = c_B are solved in Fractions.
    value = sum((ci * wi for ci, wi in zip(c_basis, w_basis)), zero)
    weights = [zero] * n_vars
    for k, w in zip(guess.basis, w_basis):
        if k < n_vars:
            weights[k] = w
    return LpSolution(value=value, weights=tuple(weights), dual=tuple(y),
                      pivots=guess.pivots, exact=True, basis=guess.basis)


def _rational_solve(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """x with rows·x = rhs by Gauss–Jordan elimination in Fractions; None if singular."""
    m = len(rhs)
    aug = [row + [r] for row, r in zip(rows, rhs)]
    for col in range(m):
        piv = next((i for i in range(col, m) if aug[i][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        lead = aug[col]
        inv = 1 / lead[col]
        lead[col:] = [v * inv for v in lead[col:]]
        for i, row in enumerate(aug):
            factor = row[col]
            if i != col and factor != 0:
                row[col:] = [v - factor * p for v, p in zip(row[col:], lead[col:])]
    return [row[m] for row in aug]


def _dual_feasible(c, A: np.ndarray, y: list[Fraction]) -> bool:
    """Aᵀy >= c exactly.

    With integer A and c (the 0/1 fbs matrices) the check runs in Python
    integers on y scaled by its common denominator, so A is never converted
    to Fractions; other data is.
    """
    A_int, c_int = _as_integers(A), _as_integers(c)
    if A_int is None or c_int is None:
        return bool(np.all(_as_array(A, Fraction).T @ np.array(y, dtype=object) >= _as_array(c, Fraction)))
    scale = math.lcm(*(u.denominator for u in y))
    scaled = np.array([u.numerator * (scale // u.denominator) for u in y], dtype=object)
    return bool(np.all(A_int.T @ scaled >= c_int * scale))


def _as_integers(values) -> np.ndarray | None:
    """``values`` as Python ints if they are integers (floats only below 2**53), else None."""
    arr = np.asarray(values)
    if arr.dtype.kind == "f" and np.all(np.abs(arr) <= 2.0**53) and np.all(arr == np.trunc(arr)):
        arr = arr.astype(np.int64)
    return arr.astype(object) if arr.dtype.kind == "i" else None


def _as_array(values, num: type) -> np.ndarray:
    """``values`` as a float64 array, or as an object array of Fractions."""
    if num is float:
        return np.asarray(values, dtype=np.float64)
    return np.frompyfunc(Fraction, 1, 1)(np.asarray(values, dtype=object))


def _solve(c, A, b, tol, num: type) -> LpSolution:
    """The pivot loop in ``num`` arithmetic: float with ``PIVOT_TOL``, or Fraction with 0.

    T is [-c, 0, 0; A, I, b]: row 0 holds the reduced costs and the value.  A
    pivot divides the leaving row by the pivot, then subtracts the entering
    column times that row from all of T.
    """
    A, c, b = _as_array(A, num), _as_array(c, num), _as_array(b, num)
    n_rows, n_vars = A.shape
    if np.any(b < 0):
        raise SimplexError("negative right-hand side; all-slack basis infeasible")

    T = _as_array(np.zeros((n_rows + 1, n_vars + n_rows + 1)), num)
    T[0, :n_vars] = -c
    T[1:, :n_vars] = A
    T[1:, -1] = b
    basis = np.arange(n_vars, n_vars + n_rows)
    T[1 + np.arange(n_rows), basis] = num(1)
    z, rhs = T[0, :-1], T[1:, -1]

    pivots = 0
    stall = 0  # degenerate pivots in a row; Bland's rule from _STALL_LIMIT on
    while True:
        enter = int(np.argmax(z < -tol) if stall >= _STALL_LIMIT else z.argmin())
        if not z[enter] < -tol:
            break
        col = T[1:, enter]
        pos = np.flatnonzero(col > tol)
        if pos.size == 0:
            raise SimplexError("unbounded linear program")
        ratios = rhs[pos] / col[pos]
        best = ratios.min()
        # The int 1 keeps the tie bound a Fraction in exact mode.
        ties = pos[ratios <= best + tol * max(1, abs(best))]
        leave = ties[basis[ties].argmin()]

        row = T[1 + leave]
        row /= row[enter]
        factors = T[:, enter].copy()
        factors[1 + leave] = 0
        gain = -factors[0] * row[-1]
        if num is float:
            # Every row: skipping a zero factor would keep a -0.0 that -0.0 - (-0.0) turns into 0.0.
            T -= np.outer(factors, row)
        else:  # x - 0·v = x exactly, but costs two Fraction operations: skip those rows
            rows = np.flatnonzero(factors)
            T[rows] -= np.outer(factors[rows], row)
        basis[leave] = enter

        pivots += 1
        if pivots > _MAX_PIVOTS:
            raise SimplexError("pivot limit exceeded")
        stall = stall + 1 if gain <= tol else 0

    weights = _as_array(np.zeros(n_vars), num)
    structural = basis < n_vars
    weights[basis[structural]] = rhs[structural]
    weights[np.abs(weights) < tol] = 0
    dual = z[n_vars:].copy()
    dual[np.abs(dual) < tol] = 0
    return LpSolution(
        value=num(T[0, -1]),
        weights=tuple(weights.tolist()),
        dual=tuple(dual.tolist()),
        pivots=pivots,
        exact=num is Fraction,
        basis=tuple(basis.tolist()),
    )
