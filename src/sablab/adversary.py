"""Non-negative adversary certificates, explicit constructions, relation bounds.

A certificate is a labeled symmetric non-negative matrix G that vanishes on
same-value pairs; its value is ||G|| / max_j ||G o D_j||, where D_j masks the
pairs differing at position j.  Any such certificate lower-bounds quantum
query complexity, so the constructions here are verifiable witnesses, not
optima.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from .boolfn import BitString, PartialFunction
from .measures import FbsSolution
from .sabotage import DAGGER, STAR, SabString, StrongInput, hard_distribution, weighted_blocks

DIM_CAP = 5000
SYMMETRY_TOL = 1e-12


class AdversaryError(ValueError):
    """Invalid matrix, certificate pattern violation, or empty relation."""


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value of a symmetric real matrix, by one LAPACK SVD."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise AdversaryError(f"matrix must be square, got shape {m.shape}")
    if m.shape[0] > DIM_CAP:
        raise AdversaryError(f"dimension {m.shape[0]} exceeds cap {DIM_CAP}")
    scale = np.abs(m).max(initial=0.0)
    if not np.allclose(m, m.T, atol=SYMMETRY_TOL * max(1.0, scale), rtol=0.0):
        raise AdversaryError("matrix is not symmetric")
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(m, 2))


@dataclass(frozen=True)
class AdversaryCertificate:
    """Labeled certificate with its norm, per-position norms, and value."""

    labels: tuple[Hashable, ...]
    gamma: np.ndarray
    norm_gamma: float
    column_norms: tuple[float, ...]
    value: float

    def to_json_dict(self) -> dict:
        return {
            "labels": [str(label) for label in self.labels],
            "value": self.value,
            "norm_gamma": self.norm_gamma,
            "column_norms": list(self.column_norms),
        }


def evaluate_certificate(
    labels: Sequence[Hashable],
    gamma: np.ndarray,
    *,
    arity: int,
    fvalue: Callable[[Hashable], int],
) -> AdversaryCertificate:
    """Norms and value of an adversary matrix over the given labels.

    Position j (1-based) of a label is ``label[j - 1]``; two labels differ
    there when those entries differ, and tuple entries (strong inputs) are
    compared whole.
    """
    d = len(labels)
    if d > DIM_CAP:  # before any label is evaluated or any d x d copy is made
        raise AdversaryError(f"dimension {d} exceeds cap {DIM_CAP}")
    gamma = np.asarray(gamma, dtype=np.float64)
    if gamma.shape != (d, d):
        raise AdversaryError(f"gamma shape {gamma.shape} does not match {d} labels")
    if gamma.min(initial=0.0) < 0:
        raise AdversaryError("gamma has negative entries")
    if not np.allclose(gamma, gamma.T, atol=SYMMETRY_TOL * max(1.0, gamma.max(initial=0.0)), rtol=0.0):
        raise AdversaryError("gamma is not symmetric")
    if not gamma.any():
        raise AdversaryError("gamma is the zero matrix")
    values = np.array([fvalue(label) for label in labels])
    violations = np.argwhere((values[:, None] == values[None, :]) & (gamma != 0.0))
    if violations.size:
        a, b = violations[0]
        raise AdversaryError(
            f"pattern violation: gamma[{labels[a]}, {labels[b]}] nonzero on equal values"
        )

    # One integer code per distinct entry, so each position's mask is one comparison.
    index: dict[Hashable, int] = {}
    codes = np.array(
        [[index.setdefault(label[j], len(index)) for j in range(arity)] for label in labels]
    )
    column_norms = [
        spectral_norm(np.where(codes[:, None, j] != codes[None, :, j], gamma, 0.0))
        for j in range(arity)
    ]
    norm_gamma = spectral_norm(gamma)
    worst = max(column_norms)
    if worst == 0.0:
        raise AdversaryError("all per-position norms vanish")
    return AdversaryCertificate(
        labels=tuple(labels),
        gamma=gamma,
        norm_gamma=norm_gamma,
        column_norms=tuple(column_norms),
        value=norm_gamma / worst,
    )


def _blocks(sol: FbsSolution) -> tuple[tuple[BitString, float], ...]:
    """The hard distribution's blocks (:func:`weighted_blocks`); refuses an all-zero vector."""
    blocks = weighted_blocks(sol)
    if not blocks:
        raise AdversaryError("weight vector is identically zero")
    return blocks


def build_fbs_adversary(f: PartialFunction, sol: FbsSolution) -> AdversaryCertificate:
    """Star-shaped certificate with entries sqrt(w_y) between x and each block's y.

    Its norm squares to the fbs value while every per-position norm stays
    at most 1, certifying a sqrt(fbs) lower bound.
    """
    blocks = _blocks(sol)
    labels: list[Hashable] = [sol.x] + [y for y, _ in blocks]
    gamma = np.zeros((len(labels), len(labels)))
    gamma[0, 1:] = gamma[1:, 0] = np.sqrt([w for _, w in blocks])
    return evaluate_certificate(
        labels, gamma, arity=f.n, fvalue=lambda lab: f.value(lab)  # type: ignore[arg-type]
    )


def build_sabotage_adversary(f: PartialFunction, sol: FbsSolution) -> AdversaryCertificate:
    """Certificate over the support of the hard distribution.

    The entry between the star input of block a and the dagger input of
    block b is sqrt(w_a) sqrt(w_b), so the matrix is a rank-one block
    tensored with an off-diagonal 2x2 flip; its norm equals the fbs value
    and per-position norms stay within 1 + sqrt(fbs).
    """
    _blocks(sol)  # refuse an all-zero vector as an AdversaryError, before the distribution does
    dist = hard_distribution(f, sol.x, sol)
    roots = np.sqrt([w for _, w in dist.blocks])
    return evaluate_certificate(
        [strong for strong, _ in dist.support],
        np.kron(np.outer(roots, roots), [[0.0, 1.0], [1.0, 0.0]]),
        arity=f.n,
        fvalue=lambda lab: 0 if lab.marker == STAR else 1,  # type: ignore[union-attr]
    )


@dataclass(frozen=True)
class Relation:
    """Bipartite relation between inputs of different function value."""

    x_side: tuple[Hashable, ...]
    y_side: tuple[Hashable, ...]
    pairs: frozenset[tuple[Hashable, Hashable]]
    arity: int

    def __post_init__(self) -> None:
        if not self.pairs:
            raise AdversaryError("relation is empty")
        for u, v in self.pairs:
            if not any(u[i] != v[i] for i in range(self.arity)):
                raise AdversaryError(f"pair ({u}, {v}) has no differing position")


@dataclass(frozen=True)
class RelationBound:
    """Neighbor-multiplicity counting bound sqrt(m_x * m_y / l_max)."""

    m_x: int
    m_y: int
    l_max: int
    bound: float
    per_position: Mapping[int, int]

    def to_json_dict(self) -> dict:
        return asdict(self) | {"per_position": {str(j): v for j, v in sorted(self.per_position.items())}}


def relation_bound(rel: Relation) -> RelationBound:
    """m_x, m_y, the max load product l_max, and the query lower bound.

    ``per_position`` maps each 1-based position to the largest product
    l_{x,i} * l_{y,i} over relation pairs differing there.
    """
    nx: dict[Hashable, list[Hashable]] = {u: [] for u in rel.x_side}
    ny: dict[Hashable, list[Hashable]] = {v: [] for v in rel.y_side}
    for u, v in rel.pairs:
        nx[u].append(v)
        ny[v].append(u)
    m_x = min(len(vs) for vs in nx.values())
    m_y = min(len(us) for us in ny.values())

    lx: dict[tuple[Hashable, int], int] = {}
    ly: dict[tuple[Hashable, int], int] = {}
    for u, vs in nx.items():
        for i in range(rel.arity):
            lx[(u, i)] = sum(1 for v in vs if u[i] != v[i])
    for v, us in ny.items():
        for i in range(rel.arity):
            ly[(v, i)] = sum(1 for u in us if u[i] != v[i])

    per_position: dict[int, int] = {}
    for u, v in rel.pairs:
        for i in range(rel.arity):
            if u[i] != v[i]:
                product = lx[(u, i)] * ly[(v, i)]
                j = i + 1
                if product > per_position.get(j, 0):
                    per_position[j] = product
    l_max = max(per_position.values())
    return RelationBound(
        m_x=m_x,
        m_y=m_y,
        l_max=l_max,
        bound=math.sqrt(m_x * m_y / l_max),
        per_position=per_position,
    )


def build_indexing_relation(n: int, strong: bool = False) -> Relation:
    """Hard relation for the sabotaged indexing function.

    Star side: address a with a lone star at the data position a addresses;
    dagger side the same with daggers.  Pairs connect sides whose addresses
    are at Hamming distance exactly 2.
    """
    if not 1 <= n <= 4:
        raise AdversaryError(f"indexing arity {n} outside 1..4")
    size = 1 << n
    addresses = [tuple((k >> (n - 1 - i)) & 1 for i in range(n)) for k in range(size)]

    def weak_label(addr: tuple[int, ...], data_pos: int, marker: int) -> SabString:
        data = [0] * size
        data[data_pos] = marker
        return SabString(tuple(addr) + tuple(data))

    def strong_label(addr: tuple[int, ...], data_pos: int, marker: int) -> StrongInput:
        # Unique preimage pair: x = (addr, all-zero data), y = x with the
        # addressed data bit set, so f(x) = 0 and f(y) = 1.
        x = BitString(tuple(addr) + tuple(0 for _ in range(size)))
        y = x.flip([n + data_pos + 1])
        return StrongInput(x, y, marker)

    # Address k reads data position k: addresses run in binary order.
    make = strong_label if strong else weak_label
    x_side = tuple(make(a, k, STAR) for k, a in enumerate(addresses))
    y_side = tuple(make(a, k, DAGGER) for k, a in enumerate(addresses))
    pairs = frozenset(
        (x_side[i], y_side[k])
        for i, a in enumerate(addresses)
        for k, b in enumerate(addresses)
        if sum(p != q for p, q in zip(a, b)) == 2
    )
    if not pairs:
        raise AdversaryError(f"indexing relation is empty at n = {n}")
    return Relation(x_side=x_side, y_side=y_side, pairs=pairs, arity=n + size)
