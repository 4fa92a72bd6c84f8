"""Dense tableau simplex for small LPs of the form max c.w s.t. Aw <= b, w >= 0.

One pivot loop runs over two arithmetic types:

* float mode (:func:`solve_float`): a ``float64`` tableau with a 1e-9 pivot
  tolerance.
* exact mode (:func:`solve_exact`): an object tableau of
  ``fractions.Fraction`` with tolerance 0, so every comparison is exact.

The entering rule is steepest-coefficient; whenever the objective stalls
(degenerate pivots) the solver engages Bland's anti-cycling rule until
progress resumes, so termination is guaranteed.  Both modes return the dual
vector read off the optimal tableau (the reduced costs of the slack
columns), which certifies optimality via strong duality.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def dual_value(self, b: Sequence) -> float | Fraction:
        return sum(u * bi for u, bi in zip(self.dual, b))


def solve_float(c: np.ndarray, A: np.ndarray, b: np.ndarray) -> LpSolution:
    """Float-mode simplex.  Requires b >= 0 (the all-slack basis is feasible)."""
    return _solve(c, A, b, PIVOT_TOL, float)


def solve_exact(c: Sequence, A: Sequence[Sequence], b: Sequence) -> LpSolution:
    """Exact rational simplex: the same pivot loop over ``Fraction`` entries."""
    return _solve(c, A, b, 0, Fraction)


def _as_array(values, num: type) -> np.ndarray:
    """``values`` as a float64 array, or as an object array of Fractions."""
    if num is float:
        return np.asarray(values, dtype=np.float64)
    return np.frompyfunc(Fraction, 1, 1)(np.asarray(values, dtype=object))


def _solve(c, A, b, tol, num: type) -> LpSolution:
    """The pivot loop in ``num`` arithmetic: float with ``PIVOT_TOL``, or Fraction with 0."""
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
        rows = np.flatnonzero(factors)
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
    )
