"""Block sensitivity and fractional block sensitivity with LP certificates.

``fbs(f, x)`` maximizes the total weight over opposite-value inputs ``y``
subject to a unit load per coordinate: for every j, the weights of all y
differing from x at j sum to at most 1.  Block sensitivity is the integral
restriction, computed exactly by disjoint-block set packing.

Both range over the minimal sensitive blocks only, those that contain no
other sensitive block, found by one subset closure over the 2^n cube (or, for
few blocks, by comparing every pair).  Some optimal weighting sits on them:
weight moved from a block onto a sensitive block inside it keeps every load
and the total.  The LP has one column per minimal block, and its dual covers
every block, since a block covers at least what a block inside it does when
the dual is >= 0.  ``FbsSolution``'s certificate check still covers all
opposite inputs.

``fbs_global`` does not solve the LP at every point.  The dual of fbs(f, x)
is a weight u >= 0 on coordinates covering every opposite y with weight at
least 1.  Any u >= 0 whose worst coverage c at x is positive becomes a dual
solution at x after division by c, so by weak duality fbs(f, x) <= sum(u) / c.
Here c(x) is the u-weighted Hamming distance from x to the nearest opposite
input.  Each new dual of a solved point gets its coverage at every later
point at once: by a min-plus distance transform over the cube when
n 2^n <= |D0| |D1|, otherwise by one pairwise product over the domain.  Each
point keeps the tightest of these bounds, and the sweep skips it when that
bound does not exceed the current best; float mode allows FEAS_TOL / 2 of
slack there, which cannot change the tie rule's ``FEAS_TOL`` decision.  When
f is symmetric on its domain (complete Hamming-weight layers, one value per
layer), a coordinate permutation maps any point onto any other of its weight
and preserves f, so fbs(f, x) depends only on |x|, and the sweep visits only
the first point of each weight.  It returns exactly what a solve at every
point would.
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
# fbs_global refuses an exact dual summing to this or more, so its products stay in int64.
_INT64_SAFE = 1 << 31
# Entries per temporary of the pairwise coverage kernel: 8 MB of 8-byte entries.
_CHUNK_ENTRIES = 1 << 20
# _minimal compares every pair of blocks up to this many pairs, or up to 2^n:
# below that the pairs cost less than the passes over the cube.
_MINIMAL_PAIRS = 1 << 14


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
            y = BitString._from_code(f.n, f.codes.item(opp[short[0]]))
            raise MeasureError(f"dual infeasible at {y}: coverage {coverage[short[0]] / scale}")
        if abs(sum(self.dual) - self.value) > duality_tol:
            raise MeasureError(
                f"duality gap: primal {self.value}, dual {sum(self.dual)}"
            )


def sensitive_blocks(f: PartialFunction, x: BitString | str) -> tuple[int, ...]:
    """Sensitive blocks at x as coordinate bitmasks, ascending.

    The block of an opposite input y is ``x.code ^ y.code`` over the codes of
    :class:`PartialFunction`, so position j is bit n - j, as in the marks of
    ``sabotage.enumerate_sabotaged``'s pair keys.
    """
    xb = BitString.coerce(x)
    return tuple(np.unique(f.codes[f.arrays()[1] != f.value(xb)] ^ xb.code).tolist())


def block_sensitivity(f: PartialFunction, x: BitString | str) -> int:
    """Maximum number of pairwise disjoint sensitive blocks at x."""
    require_general_size(f, "block sensitivity", MeasureError)
    # A packing over minimal sensitive blocks achieves the optimum: any block
    # in a packing can be replaced by a minimal sensitive block inside it.
    # The fbs LP takes the same minimal blocks as its columns.
    xb = BitString.coerce(x)
    blocks = f.codes[f.arrays()[1] != f.value(xb)] ^ xb.code
    minimal = blocks[_minimal(blocks, f.n)].tolist()
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


def _minimal(blocks: np.ndarray, n: int) -> np.ndarray:
    """Mask of the blocks, distinct n-bit codes, that contain no other block.

    A subset closure over the cube marks every S that contains a block: n
    in-place passes of below[S | bit] |= below[S].  n more passes mark every
    S that contains a block once one of its bits is removed, that is, every S
    that strictly contains a block.  A block is minimal iff it is unmarked.
    Both tables hold 2^n bools, and nothing holds |blocks| x n entries.  When
    |blocks|^2 is at most 2^n or ``_MINIMAL_PAIRS``, as on a sparse domain at
    arity 20 or any small one, each pair of blocks is compared instead.
    """
    if blocks.size ** 2 <= max(1 << n, _MINIMAL_PAIRS):
        return ((blocks & ~blocks[:, None]) == 0).sum(axis=1) == 1  # row i: the blocks inside block i
    below = np.zeros(1 << n, dtype=bool)
    below[blocks] = True
    for j in range(n):
        halves = below.reshape(-1, 2, 1 << j)  # axis 1 is bit j
        halves[:, 1] |= halves[:, 0]
    strict = np.zeros_like(below)
    for j in range(n):
        strict.reshape(-1, 2, 1 << j)[:, 1] |= below.reshape(-1, 2, 1 << j)[:, 0]
    return ~strict[blocks]


def _lp_data(f: PartialFunction, x: BitString, minimal: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Rows of x's opposite inputs in domain order, and their (|rows|, n) uint8 difference bits from x.

    With ``minimal``, only the rows whose sensitive block is minimal.
    """
    bits, vals = f.arrays()
    opp = np.flatnonzero(vals != f.value(x))
    if minimal:
        opp = opp[_minimal(f.codes[opp] ^ x.code, f.n)]
    return opp, bits[opp] ^ np.array(x.bits, dtype=np.uint8)


def fbs(f: PartialFunction, x: BitString | str, exact: bool = False) -> FbsSolution:
    """Fractional block sensitivity at x, with weights and dual certificate."""
    xb = BitString.coerce(x)
    return _solution(f, xb, exact, *_fbs_lp(f, xb, exact))


def _solution(
    f: PartialFunction, x: BitString, exact: bool, opp: np.ndarray, sol: simplex.LpSolution | None
) -> FbsSolution:
    """The FbsSolution of ``_fbs_lp(f, x, exact)``'s result ``(opp, sol)``: positive weights by input, value, dual."""
    if sol is None:
        zeros = (Fraction(0),) * f.n if exact else (0.0,) * f.n
        return FbsSolution(
            x=x,
            weights={},
            value=Fraction(0) if exact else 0.0,
            dual=zeros,
            exact=exact,
        )
    weights = {BitString._from_code(f.n, c): w for c, w in zip(f.codes[opp].tolist(), sol.weights) if w > 0}
    return FbsSolution(x=x, weights=weights, value=sol.value, dual=sol.dual, exact=exact)


def _fbs_lp(f: PartialFunction, x: BitString, exact: bool) -> tuple[np.ndarray, simplex.LpSolution | None]:
    """The rows of x's minimal sensitive blocks and the fbs LP's solution over them (None when there are none)."""
    opp, diff = _lp_data(f, x, minimal=True)
    if opp.size == 0:
        return opp, None
    c, A, b = np.ones(opp.size), diff.T.astype(np.float64), np.ones(f.n)  # row j: ys differing at j
    return opp, simplex.solve_exact(c, A, b) if exact else simplex.solve_float(c, A, b)


def _transform_coverage(f: PartialFunction, u: np.ndarray, start: int = 0) -> np.ndarray:
    """Coverage of the dual u at the domain points from row ``start`` on, by a
    min-plus distance transform over the whole cube.

    Row v of the table holds the u-weighted distance to the nearest point of
    value v: 0 on those points, and at first sum(u) + 1, above every distance,
    everywhere else, off-domain points included.  Pass j sets
    d <- min(d, d o flip_j + u_j).  Since u >= 0, a shortest path flips each
    differing coordinate once, so after n passes every distance is exact.
    O(n 2^n) per dual, in ``u.dtype``.
    """
    vals, codes, n = f.arrays()[1], f.codes, f.n
    d = np.full((2, 1 << n), u.sum() + 1, dtype=u.dtype)
    d[vals, codes] = 0
    for j, w in enumerate(u):
        halves = d.reshape(2, -1, 2, 1 << (n - 1 - j))  # axis 2 is coordinate j
        lo, hi = halves[:, :, 0], halves[:, :, 1]
        step = np.minimum(lo, hi + w)
        np.minimum(hi, lo + w, out=hi)
        lo[...] = step
    return d[1 - vals[start:], codes[start:]]


def _pairwise_coverage(f: PartialFunction, u: np.ndarray, start: int = 0) -> np.ndarray:
    """The coverage of ``_transform_coverage``, by one product over the domain's rows.

    The u-weighted distance from x to y is x.u + y.u - 2 (x o u).y.  The rows of
    each value are taken in chunks, so that no temporary holds more than
    ``_CHUNK_ENTRIES`` entries.  O(|D0| |D1| n) per dual, in ``u.dtype``.
    """
    bits, vals = f.arrays()
    b = bits.astype(u.dtype)
    bu = b @ u
    cov = np.empty(vals.size - start, dtype=u.dtype)
    for v in (0, 1):
        rows = start + np.flatnonzero(vals[start:] == v)
        opp = vals != v
        opp_bits, opp_bu = b[opp].T, bu[opp]
        chunk = max(1, _CHUNK_ENTRIES // opp_bu.size)
        for lo in range(0, rows.size, chunk):
            r = rows[lo:lo + chunk]
            dist = bu[r, None] + opp_bu - 2 * (b[r] * u) @ opp_bits
            cov[r - start] = dist.min(axis=1)
    return cov


def fbs_global(f: PartialFunction, exact: bool = False) -> tuple[float | Fraction, BitString]:
    """Maximum fbs over the declared domain; ties go to the smallest x.

    The LP is solved only where it could change the answer.  When a solved
    point's dual u, clipped at 0, is new, its coverage c(x), the u-weighted
    Hamming distance from x to the nearest opposite input, is computed once for
    every later point, and each point keeps the pair (sum(u), c) of the dual
    with the least bound sum(u) / c.  The coverage comes from a distance
    transform over the cube when n 2^n <= |D0| |D1|, else from one pairwise
    product over the domain.  A point whose bound does not exceed the current
    best is skipped, since the full sweep would not replace the best there, so
    the result is the full sweep's ``(fbs(f, x).value, x)``.

    Exact mode scales each dual to integers, which leaves sum(u) / c as it is,
    and compares exactly in int64.  The scaled sum, fbs times the lcm of the
    denominators, is at most n |det B| <= n (n+1)^((n+1)/2) / 2^n for a 0/1
    basis B (Hadamard's bound): below 1.5e9 < 2^31 at arity 20.  A sum past
    2^31 raises :class:`MeasureError` rather than overflow.  Float mode skips
    x when sum(u) <= (best + FEAS_TOL / 2) c: then fbs(f, x) <= best +
    FEAS_TOL / 2, so x cannot beat the best by the tie rule's ``FEAS_TOL``
    margin, and the slack absorbs the kernels' rounding.

    When f is symmetric on its domain (complete Hamming-weight layers, one
    value each), the sweep visits only the first point of each weight in
    domain order: fbs(f, x) depends only on |x|, so the full sweep would not
    replace the best at a later point of a weight either.
    """
    x, _, sol = _global_sweep(f, exact)
    return sol.value, x


def _fbs_global_solution(f: PartialFunction, exact: bool = False) -> FbsSolution:
    """``fbs(f, x)`` at ``x = fbs_global(f, exact)[1]``, built from the LP the sweep solved there."""
    x, opp, sol = _global_sweep(f, exact)
    return _solution(f, x, exact, opp, sol)


def _sweep_rows(f: PartialFunction) -> np.ndarray | range:
    """The rows the sweep visits: the first of each Hamming weight when f is symmetric, else all.

    f is symmetric on its domain when the domain is a union of complete weight
    layers, C(n, w) points at each present weight w, and each layer holds one
    value.  The first point of a complete layer w in domain order is
    0^(n-w) 1^w, of code 2^w - 1.  O(|D| n), with arrays of n + 1 entries
    beyond the domain's weights.
    """
    bits, vals = f.arrays()
    weight = bits.sum(axis=1, dtype=np.int64)
    count = np.bincount(weight, minlength=f.n + 1)
    ones = np.bincount(weight, weights=vals, minlength=f.n + 1)
    full = np.array([math.comb(f.n, w) for w in range(f.n + 1)])
    if np.any((count != 0) & (count != full)) or np.any((ones != 0) & (ones != count)):
        return range(vals.size)
    return np.searchsorted(f.codes, (1 << np.flatnonzero(count)) - 1)


def _global_sweep(f: PartialFunction, exact: bool) -> tuple[BitString, np.ndarray, simplex.LpSolution]:
    """The sweep of :func:`fbs_global`: its maximiser x and ``_fbs_lp(f, x, exact)``, as solved there."""
    require_general_size(f, "fbs_global", MeasureError)
    vals = f.arrays()[1]
    if vals.min() == vals.max():
        raise MeasureError(f"{f.name} is constant on its domain")
    sizes = np.bincount(vals, minlength=2)
    coverage = _transform_coverage if f.n << f.n <= sizes[0] * sizes[1] else _pairwise_coverage
    dtype = np.int64 if exact else np.float64
    # Per point: the (sum(u), c) pair of its best dual so far; c = 0 means no bound yet.
    bound_s, bound_c = np.ones(vals.size, dtype), np.zeros(vals.size, dtype)
    pool: set[tuple] = set()  # distinct clipped duals
    best: tuple[BitString, np.ndarray, simplex.LpSolution] | None = None
    num, den = 0, 1  # the skip limit num / den: the best, plus FEAS_TOL / 2 in float mode
    for i in _sweep_rows(f):
        c = bound_c.item(i)
        if c > 0 and bound_s.item(i) * den <= num * c:
            continue
        x = BitString._from_code(f.n, f.codes.item(i))
        opp, sol = _fbs_lp(f, x, exact)  # x has opposite inputs: f is not constant
        if best is None or sol.value > best[2].value + (0 if exact else FEAS_TOL):
            best = x, opp, sol
            num, den = (sol.value.numerator, sol.value.denominator) if exact else (sol.value + FEAS_TOL / 2, 1)
        dual = tuple(max(u, 0) for u in sol.dual)
        if exact:
            scale = math.lcm(*(u.denominator for u in dual))
            dual = tuple(int(u * scale) for u in dual)
        if dual in pool:
            continue
        pool.add(dual)
        total = sum(dual)
        if total >= _INT64_SAFE:  # only an exact dual can get here
            raise MeasureError(f"scaled dual of {f.name} at {x} sums to {total} >= 2^31")
        cov = coverage(f, np.array(dual, dtype=dtype), i + 1)
        tighter = total * bound_c[i + 1:] < bound_s[i + 1:] * cov
        bound_s[i + 1:][tighter] = total
        bound_c[i + 1:][tighter] = cov[tighter]
    assert best is not None
    return best
