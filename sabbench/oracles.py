"""Checks made apart from sablab: closed forms, exact recounts, dense algebra.

None of these call into the package except to read plain attributes of its
results (weights, duals, labels, matrices).  Each returns ``None`` when the
output is right and a short reason when it is wrong.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np


def _bits(x) -> tuple[int, ...]:
    return tuple(int(b) for b in x)


def _mask(x, y) -> int:
    """Positions where x and y differ, bit j-1 for 1-based position j."""
    m = 0
    for j, (a, b) in enumerate(zip(_bits(x), _bits(y))):
        if a != b:
            m |= 1 << j
    return m


def _opposite_masks(table: dict, x) -> list[int]:
    fx = table[_bits(x)]
    return [_mask(x, y) for y, v in table.items() if v != fx]


# ---------------------------------------------------------------------------
# certify


def fbs_optimality(table: dict, n: int, x, weights: dict, dual, value, exact: bool) -> str | None:
    """Primal feasibility, dual feasibility against every opposite input, equal objectives.

    ``table`` maps bit tuples to 0/1.  In exact mode everything is compared
    as ``Fraction`` with no tolerance; in float mode within 1e-9.
    """
    tol = 0 if exact else 1e-9
    conv = Fraction if exact else float
    loads = [conv(0)] * n
    total = conv(0)
    fx = table[_bits(x)]
    for y, w in weights.items():
        w = conv(w)
        if table.get(_bits(y)) is None or table[_bits(y)] == fx:
            return f"weight on {y}, which is not an opposite input"
        if w < -tol:
            return f"negative weight on {y}"
        total += w
        m = _mask(x, y)
        for j in range(n):
            if m >> j & 1:
                loads[j] += w
    if any(load > 1 + tol for load in loads):
        return "a coordinate load exceeds 1"
    duals = [conv(u) for u in dual]
    if len(duals) != n or any(u < -tol for u in duals):
        return "dual has the wrong length or a negative entry"
    for m in _opposite_masks(table, x):
        if sum(duals[j] for j in range(n) if m >> j & 1) < 1 - tol:
            return "dual leaves an opposite input uncovered"
    value = conv(value)
    if abs(total - value) > tol * max(1.0, abs(float(value))):
        return f"weights sum to {total}, reported value {value}"
    if abs(sum(duals) - value) > tol * max(1.0, abs(float(value))):
        return f"dual objective {sum(duals)} differs from value {value}"
    return None


def fbs_closed_form(name: str, n: int, x) -> Fraction | None:
    """The paper's closed forms: IND none pointwise, OR at 0^n, PARITY, MAJ at every point."""
    bits = _bits(x)
    if name.startswith("PARITY"):
        return Fraction(n)
    if name.startswith("OR") and not any(bits):
        return Fraction(n)
    if name.startswith("MAJ"):
        w = sum(bits)
        half = (n + 1) // 2
        if w < half:  # value 0: every sensitive block raises the weight to half
            return Fraction(n - w, half - w)
        return Fraction(w, w - (half - 1))
    return None


def spectral_check(cert, differs) -> str | None:
    """Norms of the certificate and of every masked copy against numpy's eigvalsh."""
    gamma = np.asarray(cert.gamma, dtype=np.float64)
    want = float(np.abs(np.linalg.eigvalsh(gamma)).max())
    if abs(cert.norm_gamma - want) > 1e-8 * max(1.0, want):
        return f"norm {cert.norm_gamma} vs eigvalsh {want}"
    labels = cert.labels
    d = len(labels)
    for j, got in enumerate(cert.column_norms, start=1):
        keep = np.array([[differs(labels[a], labels[b], j) for b in range(d)] for a in range(d)])
        masked = np.where(keep, gamma, 0.0)
        ref = float(np.abs(np.linalg.eigvalsh(masked)).max()) if masked.any() else 0.0
        if abs(got - ref) > 1e-8 * max(1.0, ref):
            return f"position {j}: norm {got} vs eigvalsh {ref}"
    return None


def sabotaged_count(table: dict, n: int) -> int:
    """Distinct star strings over all (0-input, 1-input) pairs, by integer masks.

    A star string is fixed by the differing positions D and the bits of x
    outside D, so it is counted as the distinct pairs (D, x & ~D).
    """
    to_int = lambda bits: sum(b << (n - 1 - i) for i, b in enumerate(bits))
    zeros = np.array([to_int(k) for k, v in table.items() if v == 0], dtype=np.int64)
    ones = np.array([to_int(k) for k, v in table.items() if v == 1], dtype=np.int64)
    diff = zeros[:, None] ^ ones[None, :]
    keys = (diff << n) | (zeros[:, None] & ~diff)
    return int(np.unique(keys).size)


def relation_closed_form(n: int, rb) -> str | None:
    """m_X = m_Y = C(n, 2); address load products (n-1)^2; data load products C(n, 2)."""
    want_m = math.comb(n, 2)
    if rb.m_x != want_m or rb.m_y != want_m:
        return f"m_x, m_y = {rb.m_x}, {rb.m_y}; want {want_m}"
    per = dict(rb.per_position)
    if {per.get(j) for j in range(1, n + 1)} != {(n - 1) ** 2}:
        return "address load products differ from (n-1)^2"
    if {v for j, v in per.items() if j > n} != {want_m}:
        return "data load products differ from C(n, 2)"
    l_max = max((n - 1) ** 2, want_m)
    if rb.l_max != l_max or abs(rb.bound - want_m / math.sqrt(l_max)) > 1e-12:
        return f"l_max {rb.l_max} / bound {rb.bound} off the closed form"
    return None


# ---------------------------------------------------------------------------
# simulate-wide


def dense_run(dims: tuple[int, ...], steps, x) -> np.ndarray:
    """Final state from full-size matrices built with np.kron, bit oracle on x.

    ``steps`` holds (wires, matrix) lists for unitary steps and a string for
    each query step.
    """
    total = math.prod(dims)
    flat = np.arange(total).reshape(dims)
    state = np.zeros(total, dtype=np.complex128)
    state[0] = 1.0
    # Bit oracle from its definition: |j, b, rest> -> |j, b ^ x_j, rest>.
    rest = total // (dims[0] * 2)
    src = np.arange(total)
    j, b, r = src // (2 * rest), (src // rest) % 2, src % rest
    dst = (j * 2 + (b ^ np.asarray(x)[j])) * rest + r
    oracle = np.zeros((total, total))
    oracle[dst, src] = 1.0
    for step in steps:
        if isinstance(step, str):
            state = oracle @ state
            continue
        for wires, matrix in step:
            order = list(wires) + [a for a in range(len(dims)) if a not in wires]
            front = np.kron(matrix, np.eye(total // matrix.shape[0]))
            perm = flat.transpose(order).reshape(-1)  # front-order index -> flat index
            full = np.empty_like(front)
            full[np.ix_(perm, perm)] = front
            state = full @ state
    return state


def hybrid_inequality(rep) -> str | None:
    """sum p_x + sum p_y >= 1 - overlap, and each overlap drop <= p_x,t + p_y,t."""
    slack = sum(rep.p_x) + sum(rep.p_y) - (1.0 - rep.step_overlaps[-1])
    if slack < -1e-9:
        return f"hybrid slack {slack}"
    for t in range(len(rep.step_overlaps) - 1):
        drop = rep.step_overlaps[t] - rep.step_overlaps[t + 1]
        if drop - (rep.p_x[t] + rep.p_y[t]) > 1e-9:
            return f"overlap drop at step {t + 1} exceeds the block mass"
    return None


def total_variation(p: dict, q: dict) -> float:
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q))


# ---------------------------------------------------------------------------
# search-small


def grover_mass(m: int, n: int, k: int) -> float:
    return math.sin((2 * k + 1) * math.asin(math.sqrt(m / n))) ** 2


def amplified_mass(p0: float, rounds: int) -> float:
    return math.sin((2 * rounds + 1) * math.asin(math.sqrt(min(p0, 1.0)))) ** 2


def baseline_queries(n: int, trials: int) -> int:
    """Queries of the doubling schedule 1, 2, 4, ... capped at ceil(pi/4 sqrt n), one check each."""
    cap = max(1, math.ceil(math.pi / 4.0 * math.sqrt(n)))
    k, total = 1, 0
    for _ in range(trials):
        total += 2 * k + 1
        k = min(2 * k, cap)
    return total


def position_check(report, marks) -> str | None:
    """A reported position is flagged valid exactly when it is marked."""
    if report.position is None:
        return None if not report.valid else "valid report without a position"
    if report.valid != (report.position in marks):
        return f"position {report.position} flagged valid={report.valid}, marks {sorted(marks)}"
    return None


# ---------------------------------------------------------------------------
# verify-suite


def verify_report(text: str, seed: int) -> str | None:
    """Report numbers against the closed forms the checks claim."""
    payload = json.loads(text)
    if payload.get("seed") != seed or payload.get("passed") is not True:
        return "report seed differs or a check failed"
    checks = {c["name"]: c for c in payload["checks"]}
    if not all(c["passed"] for c in checks.values()):
        return "a check reported failure"
    if "01-fbs-indexing" in checks:
        got = checks["01-fbs-indexing"]["computed"]
        for n in (2, 3):
            if abs(got[f"fbs_ind_{n}"] - (n + 1)) > 1e-9:
                return f"fbs_ind_{n} = {got[f'fbs_ind_{n}']}, want {n + 1}"
    if "05-indexing-relation" in checks:
        got = checks["05-indexing-relation"]["computed"]
        for n in (2, 3, 4):
            want_m = math.comb(n, 2)
            lo, hi = sorted(((n - 1) ** 2, want_m))
            for model in ("weak", "strong"):
                row = got[f"n{n}_{model}"]
                if (row["m_x"], row["m_y"], row["min_aggregate"], row["max_aggregate"], row["l_max"]) != (
                    want_m, want_m, lo, hi, hi
                ):
                    return f"relation n={n} {model}: {row}"
    if "10-determinism" in checks and checks["10-determinism"]["computed"].get("identical") is not True:
        return "the in-process determinism pass saw two different reports"
    return None
