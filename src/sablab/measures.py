"""Block sensitivity and fractional block sensitivity with LP certificates.

``fbs(f, x)`` maximizes the total weight over opposite-value inputs ``y``
subject to a unit load per coordinate: for every j, the weights of all y
differing from x at j sum to at most 1.  Block sensitivity is the integral
restriction, computed exactly by disjoint-block set packing.

``fbs_global`` does not solve the LP at every point.  The dual of fbs(f, x)
is a weight u >= 0 on coordinates covering every opposite y with weight at
least 1.  Any u >= 0 whose worst coverage c at x is positive becomes a dual
solution at x after division by c, so by weak duality fbs(f, x) <= sum(u) / c.
The sweep keeps the duals of the points it solved and skips a point when one
of them bounds it by the current best.  It returns exactly what a solve at
every point would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Mapping

import numpy as np

from . import simplex
from .boolfn import BitString, BoolFnError, PartialFunction, require_general_size

FEAS_TOL = 1e-9
DUALITY_TOL = 1e-7


class MeasureError(BoolFnError):
    """Measure undefined for the given function/point."""


@dataclass(frozen=True)
class FbsSolution:
    """Optimal weight assignment at a base point, with its dual certificate."""

    x: BitString
    weights: Mapping[BitString, float | Fraction]
    value: float | Fraction
    dual: tuple
    exact: bool = False

    def check_certificate(self, f: PartialFunction) -> None:
        """Raise unless primal feasible, dual feasible, and strongly dual.

        An exact solution is checked with no tolerance, its dual coverage in
        integers; a float one within ``FEAS_TOL`` and ``DUALITY_TOL``.
        """
        if self.exact:
            entries = (self.value, *self.weights.values(), *self.dual)
            if not all(isinstance(v, Rational) for v in entries):
                raise MeasureError("exact certificate holds a non-rational entry")
            scale = math.lcm(*(u.denominator for u in self.dual))
            dual = np.array([int(u * scale) for u in self.dual], dtype=object)
            num, feas_tol, duality_tol = object, 0, 0
        else:
            scale, dual = 1, np.array(self.dual, dtype=np.float64)
            num, feas_tol, duality_tol = np.float64, FEAS_TOL, DUALITY_TOL
        for y, w in self.weights.items():
            if w < -feas_tol:
                raise MeasureError(f"negative weight {w} on {y}")
        ys = np.array([y.bits for y in self.weights], dtype=np.uint8).reshape(-1, f.n)
        loads = np.array(list(self.weights.values()), dtype=num) @ (ys ^ self.x.bits).astype(num)
        if np.any(loads > 1 + feas_tol):
            raise MeasureError(f"primal infeasible: loads {loads.tolist()}")
        if abs(sum(self.weights.values()) - self.value) > feas_tol * max(1.0, float(self.value)):
            raise MeasureError("value does not match the weight total")
        if any(u < -feas_tol for u in self.dual):
            raise MeasureError("negative dual value")
        opp, diff = _lp_data(f, self.x)
        coverage = diff.astype(num) @ dual
        short = np.flatnonzero(coverage < scale * (1 - feas_tol))
        if short.size:
            y = BitString(tuple(f.arrays()[0][opp[short[0]]].tolist()))
            raise MeasureError(f"dual infeasible at {y}: coverage {coverage[short[0]] / scale}")
        if abs(sum(self.dual) - self.value) > duality_tol:
            raise MeasureError(
                f"duality gap: primal {self.value}, dual {sum(self.dual)}"
            )


def sensitive_blocks(f: PartialFunction, x: BitString | str) -> tuple[int, ...]:
    """Sensitive blocks at x as coordinate bitmasks, ascending.

    Masks are LSB-first: bit j - 1 is set for position j.  This is the
    mirror of the MSB-first integer codes of :class:`PartialFunction` and of
    the pair keys of ``sabotage.enumerate_sabotaged``, where position j is
    bit n - j.
    """
    _, diff = _lp_data(f, BitString.coerce(x))
    return tuple(np.unique(diff.astype(np.int64) @ (1 << np.arange(f.n))).tolist())


def block_sensitivity(f: PartialFunction, x: BitString | str) -> int:
    """Maximum number of pairwise disjoint sensitive blocks at x."""
    require_general_size(f, "block sensitivity", MeasureError)
    # A packing over minimal sensitive blocks achieves the optimum: any block
    # in a packing can be replaced by a minimal sensitive block inside it.
    # In popcount order, a block is minimal iff it contains no minimal block
    # found before it.
    minimal: list[int] = []
    for m in sorted(sensitive_blocks(f, x), key=int.bit_count):
        for k in minimal:
            if k & ~m == 0:
                break
        else:
            minimal.append(m)
    by_low: dict[int, list[int]] = {}  # minimal blocks by their lowest position
    for m in minimal:
        by_low.setdefault(m & -m, []).append(m)
    memo: dict[int, int] = {0: 0}

    def best(avail: int) -> int:
        # The lowest free position is either left out or covered by a block
        # starting there; a block inside avail cannot start lower.
        if avail not in memo:
            low = avail & -avail
            out = best(avail ^ low)
            for m in by_low.get(low, ()):
                if m & ~avail == 0:
                    out = max(out, 1 + best(avail & ~m))
            memo[avail] = out
        return memo[avail]

    return best((1 << f.n) - 1)


def _lp_data(f: PartialFunction, x: BitString) -> tuple[np.ndarray, np.ndarray]:
    """Rows of x's opposite inputs, and their (|opp|, n) uint8 difference bits from x."""
    bits, vals = f.arrays()
    opp = np.flatnonzero(vals != f.value(x))
    return opp, bits[opp] ^ np.array(x.bits, dtype=np.uint8)


def fbs(f: PartialFunction, x: BitString | str, exact: bool = False) -> FbsSolution:
    """Fractional block sensitivity at x, with weights and dual certificate."""
    xb = BitString.coerce(x)
    opp, diff = _lp_data(f, xb)
    if opp.size == 0:
        zeros = (Fraction(0),) * f.n if exact else (0.0,) * f.n
        return FbsSolution(
            x=xb,
            weights={},
            value=Fraction(0) if exact else 0.0,
            dual=zeros,
            exact=exact,
        )
    c, A, b = np.ones(opp.size), diff.T.astype(np.float64), np.ones(f.n)  # row j: ys differing at j
    sol = simplex.solve_exact(c, A, b) if exact else simplex.solve_float(c, A, b)
    weights = {BitString(tuple(f.arrays()[0][i].tolist())): w for i, w in zip(opp, sol.weights) if w > 0}
    return FbsSolution(x=xb, weights=weights, value=sol.value, dual=sol.dual, exact=exact)


def fbs_global(f: PartialFunction, exact: bool = False) -> tuple[float | Fraction, BitString]:
    """Maximum fbs over the declared domain; ties go to the smallest x.

    The LP is solved only where it could change the answer.  The dual u of
    each solved point, clipped at 0, bounds a later point x by sum(u) / c,
    where c > 0 is the least weight u puts on the coordinates where x differs
    from an opposite input.  A point bounded by the current best is skipped,
    since the full sweep would not replace the best there, so the result is
    the full sweep's ``(fbs(f, x).value, x)``.  Exact mode compares in exact
    arithmetic (each dual scaled to integers, which leaves sum(u) / c as it
    is); in float mode the bound's rounding is far below the ``FEAS_TOL``
    margin of the tie rule.
    """
    require_general_size(f, "fbs_global", MeasureError)
    bits, vals = f.arrays()
    if vals.min() == vals.max():
        raise MeasureError(f"{f.name} is constant on its domain")
    dtype = object if exact else np.float64
    by_value = [bits[vals == v].astype(dtype) for v in (0, 1)]
    pool = np.zeros((0, f.n), dtype=dtype)  # distinct clipped duals, one per row
    best_value: float | Fraction | None = None
    best_x: BitString | None = None
    for row, fx in zip(bits, vals):
        if len(pool):
            xbits = row.astype(dtype)
            # coverage[y, k] = sum of pool[k, j] over j with x_j != y_j
            coverage = by_value[1 - fx] @ (pool * (1 - 2 * xbits)).T + pool @ xbits
            worst = coverage.min(axis=0)
            if np.any((worst > 0) & (pool.sum(axis=1) <= best_value * worst)):
                continue
        x = BitString(tuple(row.tolist()))
        sol = fbs(f, x, exact=exact)
        if best_value is None or sol.value > best_value + (0 if exact else FEAS_TOL):
            best_value, best_x = sol.value, x
        dual = [max(u, 0) for u in sol.dual]
        if exact:
            scale = math.lcm(*(u.denominator for u in dual))
            dual = [int(u * scale) for u in dual]
        if not (pool == dual).all(axis=1).any():
            pool = np.vstack([pool, np.array([dual], dtype=dtype)])
    assert best_value is not None and best_x is not None
    return best_value, best_x
