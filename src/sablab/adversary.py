"""Non-negative adversary certificates, explicit constructions, relation bounds.

A certificate is a labeled symmetric non-negative matrix G that vanishes on
same-value pairs; its value is ||G|| / max_j ||G o D_j||, where D_j masks the
pairs differing at position j.  Any such certificate lower-bounds quantum
query complexity, so the constructions here are verifiable witnesses, not
optima.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from .boolfn import BitString, PartialFunction
from .measures import FbsSolution
from .sabotage import DAGGER, STAR, SabString, StrongInput, hard_distribution, weighted_blocks

DIM_CAP = 5000
SYMMETRY_TOL = 1e-12
# Entries per stack of masked copies in evaluate_certificate: 512 KB of float64, or one d x d copy
# when that is larger.  The builders' certificates (at most 2n labels at arity n <= 20) fit in one stack.
_STACK_ENTRIES = 1 << 16


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


def _entry_codes(labels: Sequence[Hashable], arity: int) -> np.ndarray:
    """One integer per distinct entry ``label[j - 1]``, j = 1..arity, as a (labels, arity) array.

    Labels differ at position j where their codes in column j - 1 differ; tuple entries (strong
    inputs) are compared whole.  Refuses a label with fewer than ``arity`` entries; later ones go unread.
    """
    for label in labels:
        if len(label) < arity:
            raise AdversaryError(f"label {label} has fewer than {arity} entries")
    index: dict[Hashable, int] = {}
    codes = [[index.setdefault(label[j], len(index)) for j in range(arity)] for label in labels]
    return np.array(codes, dtype=np.int64).reshape(len(labels), arity)


def _masked_norms(codes: np.ndarray, gamma: np.ndarray) -> list[float]:
    """The norm of each masked copy ``gamma o D_j``, by one stacked SVD per chunk of positions.

    A chunk of k positions is a (k, d, d) stack of the copies, with k * d * d at most
    ``_STACK_ENTRIES`` or k = 1.  Each copy must be symmetric within :func:`spectral_norm`'s
    tolerance, ``SYMMETRY_TOL * max(1, its largest entry)``, checked for the whole stack at once,
    and its norm is the largest singular value of one LAPACK SVD, as :func:`spectral_norm` computes it.
    """
    d, arity = codes.shape
    skew = np.abs(gamma - gamma.T)  # |m - m.T| of a copy: skew where D_j is 1, else 0
    step = max(1, _STACK_ENTRIES // (d * d))
    norms: list[float] = []
    for start in range(0, arity, step):
        chunk = codes.T[start:start + step]
        differs = chunk[:, :, None] != chunk[:, None, :]
        stack = np.where(differs, gamma, 0.0)
        scale = stack.max(axis=(1, 2))  # entries are non-negative
        if (np.where(differs, skew, 0.0).max(axis=(1, 2)) > SYMMETRY_TOL * np.maximum(1.0, scale)).any():
            raise AdversaryError("matrix is not symmetric")
        norms += np.linalg.svd(stack, compute_uv=False)[:, 0].tolist()
    return norms


def evaluate_certificate(
    labels: Sequence[Hashable],
    gamma: np.ndarray,
    *,
    arity: int,
    fvalue: Callable[[Hashable], int],
) -> AdversaryCertificate:
    """Norms and value of an adversary matrix over labels compared by :func:`_entry_codes`.

    Refuses, in this order: more than ``DIM_CAP`` labels (before any label is read), a label
    shorter than ``arity``, a gamma of the wrong shape, with a negative entry, not symmetric, or
    zero, a nonzero entry between labels of equal value, a masked copy that is not symmetric, and
    per-position norms that all vanish.  ``norm_gamma`` is :func:`spectral_norm` of gamma: gamma
    has passed that function's checks by then, so only its SVD runs.  The masked copies are
    checked and normed in stacks of positions by :func:`_masked_norms`, which holds no temporary
    larger than ``_STACK_ENTRIES`` entries or one d x d copy.
    """
    d = len(labels)
    if d > DIM_CAP:  # before any label is evaluated or any d x d copy is made
        raise AdversaryError(f"dimension {d} exceeds cap {DIM_CAP}")
    codes = _entry_codes(labels, arity)
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

    column_norms = _masked_norms(codes, gamma)
    # spectral_norm(gamma) without its second symmetry check: gamma passed the same one above.
    norm_gamma = float(np.linalg.norm(gamma, 2))
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
    """Bipartite relation between inputs of different function value.

    Construction reads the labels once into read-only integer arrays, kept out of ``repr`` and ``==``:
    the entry codes (:func:`_entry_codes`) of each side's distinct labels, each pair's two rows among
    them, and the (pairs, arity) mask of positions where each pair differs.  It refuses an empty
    relation, a pair not from an ``x_side`` to a ``y_side`` label, a label shorter than ``arity``
    and a pair that differs nowhere.
    """

    x_side: tuple[Hashable, ...]
    y_side: tuple[Hashable, ...]
    pairs: frozenset[tuple[Hashable, Hashable]]
    arity: int
    _codes: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    _rows: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    _differs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.pairs:
            raise AdversaryError("relation is empty")
        x_rows, y_rows = ({u: r for r, u in enumerate(dict.fromkeys(side))} for side in (self.x_side, self.y_side))
        for u, v in self.pairs:
            if u not in x_rows or v not in y_rows:
                raise AdversaryError(f"pair ({u}, {v}) does not run from x_side to y_side")
        x_codes, y_codes = np.split(_entry_codes([*x_rows, *y_rows], self.arity), [len(x_rows)])
        us, vs = np.array([(x_rows[u], y_rows[v]) for u, v in self.pairs]).T
        differs = x_codes[us] != y_codes[vs]
        for (u, v), differ in zip(self.pairs, differs.any(axis=1)):
            if not differ:
                raise AdversaryError(f"pair ({u}, {v}) has no differing position")
        for array in (x_codes, y_codes, us, vs, differs):
            array.flags.writeable = False
        vars(self).update(_codes=(x_codes, y_codes), _rows=(us, vs), _differs=differs)


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
    """m_x, m_y, the max load product l_max, and the query lower bound, as sums over the integer view.

    The load l_{x,i} of a label counts its pairs differing at position i; ``per_position`` maps each
    1-based position to the largest l_{x,i} * l_{y,i} over pairs differing there.  m_x and m_y are
    the fewest pairs on any distinct label of each side.
    """
    (x_codes, y_codes), (us, vs), differs = rel._codes, rel._rows, rel._differs
    l_x, l_y = np.zeros(x_codes.shape, dtype=np.int64), np.zeros(y_codes.shape, dtype=np.int64)
    np.add.at(l_x, us, differs)
    np.add.at(l_y, vs, differs)
    products = (l_x[us] * l_y[vs] * differs).max(axis=0).tolist()
    per_position = {j + 1: product for j, product in enumerate(products) if product}
    m_x = int(np.bincount(us, minlength=len(x_codes)).min())
    m_y = int(np.bincount(vs, minlength=len(y_codes)).min())
    l_max = max(per_position.values())
    return RelationBound(m_x, m_y, l_max, math.sqrt(m_x * m_y / l_max), per_position)


def build_indexing_relation(n: int, strong: bool = False) -> Relation:
    """Hard relation for the sabotaged indexing function.

    Star side: address a with a lone star at the data position a addresses;
    dagger side the same with daggers.  Pairs connect sides whose addresses
    are at Hamming distance exactly 2.
    """
    if not 1 <= n <= 4:
        raise AdversaryError(f"indexing arity {n} outside 1..4")
    size = 1 << n

    def label(k: int, marker: int) -> SabString | StrongInput:
        # Address k, MSB first, reads data position k.  The strong label is its unique preimage pair,
        # x = (address, all-zero data) and y = x with that data bit set, so f(x) = 0 and f(y) = 1.
        x = BitString.from_text(format(k, f"0{n}b") + "0" * size)
        if strong:
            return StrongInput(x, x.flip([n + k + 1]), marker)
        return SabString(tuple(marker if j == n + k else b for j, b in enumerate(x)))  # a lone marker there

    x_side = tuple(label(k, STAR) for k in range(size))
    y_side = tuple(label(k, DAGGER) for k in range(size))
    near = [(i, k) for i in range(size) for k in range(size) if (i ^ k).bit_count() == 2]
    pairs = frozenset((x_side[i], y_side[k]) for i, k in near)
    if not pairs:
        raise AdversaryError(f"indexing relation is empty at n = {n}")
    return Relation(x_side=x_side, y_side=y_side, pairs=pairs, arity=n + size)
