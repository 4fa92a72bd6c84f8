"""Shared strategies and brute-force reference helpers."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from hypothesis import strategies as st

from sablab.boolfn import BitString, PartialFunction
from sablab.qsim import Gate


def all_bitstrings(n: int) -> list[BitString]:
    """All length-n bit strings in lexicographic (MSB-first) order."""
    return [BitString(bits) for bits in itertools.product((0, 1), repeat=n)]


def function_file(f: PartialFunction) -> str:
    """The JSON function-file text of f, written from the README's format with f's public views."""
    entries = [[str(x), v] for x, v in f.entries.items()]
    return json.dumps({"name": f.name, "n": f.n, "total": f.total, "entries": entries})


def diff_positions(x: BitString, y: BitString) -> tuple[int, ...]:
    """1-based positions where x and y differ."""
    return tuple(j + 1 for j, (a, b) in enumerate(zip(x, y)) if a != b)


@st.composite
def bitstrings(draw, min_size: int = 1, max_size: int = 6) -> BitString:
    bits = draw(st.lists(st.integers(0, 1), min_size=min_size, max_size=max_size))
    return BitString(tuple(bits))


@st.composite
def partial_functions(draw, max_arity: int = 4, max_points: int | None = None) -> PartialFunction:
    """Random non-constant partial function with at least two domain points.

    With ``max_points``, the domain is at most that many distinct points drawn
    from the whole cube, so large arities give sparse domains.
    """
    n = draw(st.integers(2, max_arity))
    if max_points is None:
        universe = list(all_bitstrings(n))
        included = draw(
            st.lists(st.booleans(), min_size=len(universe), max_size=len(universe))
        )
        domain = [x for x, keep in zip(universe, included) if keep]
    else:
        codes = draw(st.sets(st.integers(0, (1 << n) - 1), max_size=min(max_points, 1 << n)))
        domain = [BitString(tuple(int(b) for b in f"{c:0{n}b}")) for c in sorted(codes)]
    if len(domain) < 2:
        domain = [BitString((0,) * (n - 1) + (b,)) for b in (0, 1)]
    values = draw(
        st.lists(st.integers(0, 1), min_size=len(domain), max_size=len(domain))
    )
    if len(set(values)) < 2:
        values[0] = 1 - values[1]
    return PartialFunction("random", n, dict(zip(domain, values)))


def total_variation(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def oracle_matrix(oracle, dim_rows: int, row_size: int = 1) -> np.ndarray:
    """Materialize an oracle's permutation by applying it to basis vectors."""
    dim = dim_rows * row_size
    m = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        e = np.zeros(dim, dtype=np.complex128)
        e[col] = 1.0
        m[:, col] = oracle.apply(e)
    return m


@pytest.fixture
def gate_checks(monkeypatch):
    """Names of the gates built while the test runs, one per unitarity check."""
    calls = []
    check = Gate.__post_init__

    def counting(self):
        calls.append(self.name)
        check(self)

    monkeypatch.setattr(Gate, "__post_init__", counting)
    return calls
