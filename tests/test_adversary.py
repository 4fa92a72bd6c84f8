"""Certificates and relation bounds against dense eigensolves and recounts."""

from __future__ import annotations

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sablab import adversary, verify
from sablab.adversary import (
    AdversaryError,
    build_fbs_adversary,
    build_indexing_relation,
    build_sabotage_adversary,
    evaluate_certificate,
    relation_bound,
    spectral_norm,
    Relation,
)
from sablab.boolfn import BitString, catalog, make_indexing, make_named
from sablab.measures import fbs, fbs_global
from sablab.sabotage import DAGGER, STAR, StrongInput


def eig_norm(m):
    """Independent spectral-norm oracle."""
    return float(np.abs(np.linalg.eigvalsh(m)).max())


def test_spectral_norm_examples():
    assert abs(spectral_norm(np.eye(3)) - 1.0) < 1e-10
    assert abs(spectral_norm(np.array([[0.0, 1.0], [1.0, 0.0]])) - 1.0) < 1e-10
    sw = np.sqrt(np.array([1.0, 1.0]))
    assert abs(spectral_norm(np.outer(sw, sw)) - 2.0) < 1e-10
    assert spectral_norm(np.zeros((4, 4))) == 0.0


def test_spectral_norm_rejects_nonsymmetric():
    with pytest.raises(AdversaryError):
        spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(AdversaryError):
        spectral_norm(np.zeros((2, 3)))


@given(st.integers(2, 8), st.integers(0, 2**31 - 1))
@example(dim=5, seed=1_166_638_819)  # |eigenvalues| 3.6949 and 3.6938 nearly tie
@settings(max_examples=60, deadline=None)
def test_spectral_norm_matches_eigensolver(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim))
    m = m + m.T
    want = eig_norm(m)
    got = spectral_norm(m)
    assert abs(got - want) <= 1e-8 * max(1.0, want)


def test_masked_norms_on_parity_certificate():
    # The mask at position 8 has eigenvalue pairs +/-31.6844 and +/-31.6828:
    # a near-tie that stalls iterative solvers without a gap guarantee.
    f = make_named("PARITY", 10)
    labels = f.domain()[:128]
    rng = np.random.default_rng([128, 0])
    values = np.array([f.value(x) for x in labels])
    g = rng.random((128, 128))
    g = (g + g.T) * (values[:, None] != values[None, :])
    cert = evaluate_certificate(labels, g, arity=10, fvalue=f.value)
    assert abs(cert.norm_gamma - eig_norm(g)) <= 1e-9 * eig_norm(g)
    bits = np.array([x.bits for x in labels])
    for j in range(10):
        want = eig_norm(g * (bits[:, None, j] != bits[None, :, j]))
        assert abs(cert.column_norms[j] - want) <= 1e-9 * want


def _per_position_reference(labels, gamma, arity):
    """(norm_gamma, column_norms, value) from one :func:`spectral_norm` call per masked copy."""
    codes = adversary._entry_codes(labels, arity)
    column_norms = tuple(
        spectral_norm(np.where(codes[:, None, j] != codes[None, :, j], gamma, 0.0)) for j in range(arity)
    )
    norm_gamma = spectral_norm(gamma)
    return norm_gamma, column_norms, norm_gamma / max(column_norms)


def _triple(cert):
    return cert.norm_gamma, cert.column_norms, cert.value


@pytest.mark.parametrize("f", catalog(max_arity=6), ids=lambda f: f.name)
def test_stacked_norms_equal_the_per_position_norms_on_the_catalog(f):
    """Both builders at every point of positive fbs: the stacked SVD gives the same floats, bit for bit."""
    for x in f.domain():
        sol = fbs(f, x)
        if sol.value <= 0:
            continue
        for build in (build_fbs_adversary, build_sabotage_adversary):
            cert = build(f, sol)
            assert _triple(cert) == _per_position_reference(cert.labels, cert.gamma, f.n), (build.__name__, str(x))


def _random_labels(rng, d, arity, strong):
    """d distinct labels: quaternary strings, or strong inputs; position 1 is the same on every label."""
    labels: dict = {}
    while len(labels) < d:
        if strong:
            x, y = (BitString((0, *(int(b) for b in rng.integers(0, 2, arity - 1)))) for _ in range(2))
            if x == y:
                continue
            label = StrongInput(x, y, (STAR, DAGGER)[int(rng.integers(2))])
        else:
            label = "0" + "".join(rng.choice(list("01*+"), arity - 1))
        labels.setdefault(label, None)
    return list(labels)


@pytest.mark.parametrize("strong", [False, True], ids=["strings", "strong-inputs"])
def test_stacked_norms_equal_the_per_position_norms_on_random_matrices(strong, monkeypatch):
    """Seeded non-negative symmetric matrices; position 1's masked copy is all zero.

    Stacks of one, a few and all positions (``_STACK_ENTRIES``) give the same floats.
    """
    rng = np.random.default_rng([36, strong])
    for trial in range(40):
        d, arity = int(rng.integers(2, 24)), int(rng.integers(4, 9))
        labels = _random_labels(rng, d, arity, strong)
        side = {label: int(rng.integers(2)) for label in labels}
        values = np.array([side[label] for label in labels])
        g = rng.random((d, d)) * 10.0 ** int(rng.integers(-6, 7))
        g = (g + g.T) * (values[:, None] != values[None, :]) * (rng.random((d, d)) < 0.7)
        g = np.maximum(g, g.T)
        if not g.any():
            continue
        want = _per_position_reference(labels, g, arity)
        assert want[1][0] == 0.0
        for entries in (1, 3 * d * d, adversary._STACK_ENTRIES):
            with monkeypatch.context() as patch:
                patch.setattr(adversary, "_STACK_ENTRIES", entries)
                cert = evaluate_certificate(labels, g, arity=arity, fvalue=side.__getitem__)
            assert _triple(cert) == want, (trial, entries)


def test_masked_copy_must_be_symmetric_at_its_own_scale():
    """Gamma passes as a whole (max entry 10, asymmetry 5e-12 <= 1e-12 * 10), but the copy
    masked at position 1 holds only the entries 1 and 1 + 5e-12, so its tolerance is 1e-12."""
    labels = ["00", "10", "01"]
    gamma = np.array([[0.0, 1.0, 10.0], [1.0 + 5e-12, 0.0, 0.0], [10.0, 0.0, 0.0]])
    assert np.allclose(gamma, gamma.T, atol=adversary.SYMMETRY_TOL * 10.0, rtol=0.0)
    with pytest.raises(AdversaryError, match="^matrix is not symmetric$"):
        evaluate_certificate(labels, gamma, arity=2, fvalue=lambda lab: int(lab != "00"))
    with pytest.raises(AdversaryError, match="^matrix is not symmetric$"):
        spectral_norm(np.where([[0, 1, 0], [1, 0, 0], [0, 0, 0]], gamma, 0.0))
    gamma[1, 0] = 1.0 + 5e-13  # within 1e-12 of its copy: accepted
    cert = evaluate_certificate(labels, gamma, arity=2, fvalue=lambda lab: int(lab != "00"))
    assert _triple(cert) == _per_position_reference(labels, gamma, 2)


def test_masked_norms_hold_one_chunk_of_copies_at_a_time():
    """256 labels of arity 20: the tracemalloc peak stays within 5 d x d float64 copies.

    The call peaks near 3.2 copies; a stack of all 20 masked copies at once would take over 40.
    """
    rng = np.random.default_rng(36)
    d, arity = 256, 20
    labels = [format(int(c), f"0{arity}b") for c in rng.choice(1 << arity, size=d, replace=False)]
    side = {label: label.count("1") % 2 for label in labels}
    values = np.array([side[label] for label in labels])
    g = rng.random((d, d))
    g = (g + g.T) * (values[:, None] != values[None, :])
    tracemalloc.start()
    try:
        evaluate_certificate(labels, g, arity=arity, fvalue=side.__getitem__)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * g.nbytes, peak / g.nbytes


def _or2_cert():
    f = make_named("OR", 2)
    return f, build_fbs_adversary(f, fbs(f, "00"))


def test_fbs_certificate_or2():
    _, cert = _or2_cert()
    assert abs(cert.value - math.sqrt(2)) < 1e-9
    assert abs(cert.norm_gamma - eig_norm(cert.gamma)) < 1e-9
    assert max(cert.column_norms) <= 1 + 1e-9


def test_fbs_certificate_parity3():
    f = make_named("PARITY", 3)
    cert = build_fbs_adversary(f, fbs(f, "000"))
    assert abs(cert.value - math.sqrt(3)) < 1e-9


def test_fbs_certificate_single_block():
    f = make_named("AND", 2)

    class Sol:
        x = f.domain()[0]  # 00
        weights = {f.domain()[3]: 1.0}  # 11

    cert = build_fbs_adversary(f, Sol())
    assert abs(cert.value - 1.0) < 1e-10
    assert cert.gamma.shape == (2, 2) and cert.gamma[0, 0] == 0.0


def test_certificate_scaling_and_permutation_invariance():
    f, cert = _or2_cert()
    labels = list(cert.labels)
    scaled = evaluate_certificate(
        labels, 3.7 * cert.gamma, arity=2, fvalue=f.value
    )
    assert abs(scaled.value - cert.value) < 1e-9
    perm = [2, 0, 1]
    gperm = cert.gamma[np.ix_(perm, perm)]
    permuted = evaluate_certificate(
        [labels[i] for i in perm], gperm, arity=2, fvalue=f.value
    )
    assert abs(permuted.value - cert.value) < 1e-9


def test_certificate_pattern_violation():
    f = make_named("OR", 2)
    labels = [f.domain()[0], f.domain()[1]]  # 00 -> 0, 01 -> 1
    bad = np.array([[1.0, 0.0], [0.0, 0.0]])  # diagonal on equal values
    with pytest.raises(AdversaryError):
        evaluate_certificate(labels, bad, arity=2, fvalue=f.value)
    with pytest.raises(AdversaryError):
        evaluate_certificate(labels, np.zeros((2, 2)), arity=2, fvalue=f.value)
    with pytest.raises(AdversaryError):
        evaluate_certificate(labels, -np.eye(2), arity=2, fvalue=f.value)


def test_certificate_refuses_too_many_labels_before_any_work(monkeypatch):
    def never(label):
        pytest.fail("fvalue called before the label count was refused")

    monkeypatch.setattr(adversary, "DIM_CAP", 2)
    labels = [BitString.from_text(t) for t in ("00", "01", "10")]
    gamma = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(AdversaryError, match="dimension 3 exceeds cap 2"):
        evaluate_certificate(labels, gamma, arity=2, fvalue=never)


def test_certificate_refuses_a_label_shorter_than_its_arity():
    gamma = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(AdversaryError, match=re.escape("label 1 has fewer than 2 entries")):
        evaluate_certificate(["00", "1"], gamma, arity=2, fvalue=lambda lab: int(lab[0]))
    # A longer label is read at positions 1..arity only.
    short = evaluate_certificate(["00", "11"], gamma, arity=2, fvalue=lambda lab: int(lab[0]))
    long = evaluate_certificate(["000", "111"], gamma, arity=2, fvalue=lambda lab: int(lab[0]))
    assert long.column_norms == short.column_norms and long.value == short.value


def test_certificate_never_beats_random_search():
    """Sanity, not optimality: 10^4 random feasible matrices on the same
    support approach the certificate's value from below and never beat the
    true optimum of the support (sqrt(2) for the OR_2 star pattern)."""
    f, cert = _or2_cert()
    support = cert.gamma > 0
    rng = np.random.default_rng(5)
    best = 0.0
    for _ in range(10_000):
        upper = np.triu(rng.random(cert.gamma.shape) * support)
        g = upper + upper.T
        if not g.any():
            continue
        c = evaluate_certificate(cert.labels, g, arity=2, fvalue=f.value)
        best = max(best, c.value)
    assert best <= cert.value + 1e-9  # the witness is optimal on this support
    assert cert.value <= best + 1e-3  # and random search gets close to it


def test_sabotage_certificate_or2():
    f = make_named("OR", 2)
    cert = build_sabotage_adversary(f, fbs(f, "00"))
    assert abs(cert.norm_gamma - 2.0) < 1e-9
    assert cert.value >= 2 / (1 + math.sqrt(2)) - 1e-9
    golden = (1 + math.sqrt(5)) / 2
    assert all(abs(c - golden) < 1e-9 for c in cert.column_norms)
    assert max(cert.column_norms) <= 1 + math.sqrt(2) + 1e-9


def test_sabotage_certificate_single_block():
    f = make_named("AND", 2)

    class Sol:
        x = f.domain()[0]
        weights = {f.domain()[3]: 1.0}

    cert = build_sabotage_adversary(f, Sol())
    assert cert.gamma.shape == (2, 2)
    assert abs(cert.norm_gamma - 1.0) < 1e-10
    assert cert.gamma[0, 1] == cert.gamma[1, 0] == 1.0 and cert.gamma[0, 0] == 0.0


def test_sabotage_certificate_ind2():
    f = make_indexing(2)
    value, x = fbs_global(f)
    cert = build_sabotage_adversary(f, fbs(f, x))
    assert abs(cert.norm_gamma - 3.0) < 1e-9


def test_sabotage_certificate_kronecker_identity():
    """Over every catalog point, gamma is exactly the sqrt(w_a) sqrt(w_b) block tensored with the flip."""
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    checked = 0
    for f in catalog():
        for x in f.domain():
            sol = fbs(f, x)
            if not any(w > 0 for w in sol.weights.values()):
                continue
            cert = build_sabotage_adversary(f, sol)
            roots = np.array([math.sqrt(float(w)) for _, w in sorted(sol.weights.items()) if w > 0])
            assert np.array_equal(cert.gamma, np.kron(np.outer(roots, roots), flip)), (f.name, str(x))
            checked += 1
    assert checked > 400


@pytest.mark.parametrize("build", [build_fbs_adversary, build_sabotage_adversary])
@pytest.mark.parametrize("weights", [{}, {"11": 0.0}], ids=["empty", "all-zero"])
def test_builders_refuse_a_zero_weight_vector(build, weights):
    f = make_named("OR", 2)

    class Sol:
        x = BitString.from_text("00")

    Sol.weights = {BitString.from_text(y): w for y, w in weights.items()}
    with pytest.raises(AdversaryError, match="identically zero"):
        build(f, Sol())


def test_sabotage_labels_marker_pattern():
    f = make_named("OR", 2)
    cert = build_sabotage_adversary(f, fbs(f, "00"))
    markers = [label.marker for label in cert.labels]
    assert markers == [STAR, 3, STAR, 3]
    for a, la in enumerate(cert.labels):
        for b, lb in enumerate(cert.labels):
            if la.marker == lb.marker:
                assert cert.gamma[a, b] == 0.0


def test_relation_single_pair():
    rel = Relation(
        x_side=("0*",),
        y_side=("0+",),
        pairs=frozenset({("0*", "0+")}),
        arity=2,
    )
    rb = relation_bound(rel)
    assert (rb.m_x, rb.m_y, rb.l_max, rb.bound) == (1, 1, 1, 1.0)


def test_relation_rejects_empty_and_equal():
    with pytest.raises(AdversaryError):
        Relation(x_side=(), y_side=(), pairs=frozenset(), arity=2)
    with pytest.raises(AdversaryError):
        Relation(
            x_side=("00",),
            y_side=("00",),
            pairs=frozenset({("00", "00")}),
            arity=2,
        )


@pytest.mark.parametrize(
    "pair", [("1*", "0+"), ("0*", "1+"), ("0+", "0*")], ids=["first-off-x_side", "second-off-y_side", "reversed"]
)
def test_relation_refuses_a_pair_off_its_sides(pair):
    with pytest.raises(AdversaryError, match=re.escape(f"pair ({pair[0]}, {pair[1]}) does not run from x_side to y_side")):
        Relation(x_side=("0*",), y_side=("0+",), pairs=frozenset({pair}), arity=2)


def test_relation_refuses_a_label_shorter_than_its_arity():
    # Position 1 already differs, so only the length check stands in the way.
    with pytest.raises(AdversaryError, match=re.escape("label 0* has fewer than 3 entries")):
        Relation(x_side=("0*",), y_side=("1+1",), pairs=frozenset({("0*", "1+1")}), arity=3)


def test_relation_keeps_its_integer_view_out_of_repr_and_equality():
    rel = build_indexing_relation(2, strong=True)
    again = Relation(x_side=rel.x_side, y_side=rel.y_side, pairs=rel.pairs, arity=rel.arity)
    assert rel == again and hash(rel) == hash(again) and repr(rel) == repr(again)
    assert "_codes" not in repr(rel) and rel._differs.shape == (len(rel.pairs), rel.arity)
    with pytest.raises(ValueError, match="read-only"):
        rel._differs[0, 0] = False


def _random_relation(rng, strong):
    """A small relation over a pool of labels: sides drawn with repeats, so a label may sit on both."""
    arity = int(rng.integers(2, 5))
    if strong:
        pool = []
        while len(pool) < 5:
            x, y = (BitString(tuple(int(b) for b in rng.integers(0, 2, arity))) for _ in range(2))
            if x != y:
                pool.append(StrongInput(x, y, (STAR, DAGGER)[int(rng.integers(2))]))
    else:  # some labels run past the arity; only positions 1..arity count
        pool = ["".join(rng.choice(list("01*+"), arity + int(rng.integers(2)))) for _ in range(5)]
    x_side = tuple(pool[int(i)] for i in rng.integers(0, len(pool), int(rng.integers(2, 5))))
    y_side = tuple(pool[int(i)] for i in rng.integers(0, len(pool), int(rng.integers(2, 5))))
    pairs = frozenset(
        (u, v) for u in x_side for v in y_side
        if any(u[i] != v[i] for i in range(arity)) and rng.random() < 0.6
    )
    return Relation(x_side=x_side, y_side=y_side, pairs=pairs, arity=arity) if pairs else None


@pytest.mark.parametrize("strong", [False, True], ids=["strings", "strong-inputs"])
def test_relation_bound_matches_the_recount_on_random_relations(strong):
    """per_position against check 05's recount, m_x and m_y against a count over the raw pairs."""
    rng = np.random.default_rng([35, strong])
    seen = {"unpaired": 0, "repeat": 0, "both sides": 0}
    for _ in range(60):
        rel = _random_relation(rng, strong)
        if rel is None:
            continue
        rb = relation_bound(rel)
        assert rb.per_position == verify._recount_relation(rel)
        assert list(rb.per_position) == sorted(rb.per_position)
        on = {side: [sum(1 for pair in rel.pairs if pair[k] == label) for label in set(labels)]
              for k, (side, labels) in enumerate((("x", rel.x_side), ("y", rel.y_side)))}
        assert (rb.m_x, rb.m_y) == (min(on["x"]), min(on["y"]))
        assert rb.l_max == max(rb.per_position.values())
        assert rb.bound == math.sqrt(rb.m_x * rb.m_y / rb.l_max)
        assert all(type(v) is int for v in (rb.m_x, rb.m_y, rb.l_max, *rb.per_position, *rb.per_position.values()))
        assert type(rb.bound) is float and json.dumps(rb.to_json_dict())
        if rb.m_x == 0 or rb.m_y == 0:
            seen["unpaired"] += 1
            assert rb.bound == 0.0
        seen["repeat"] += len(set(rel.x_side)) < len(rel.x_side) or len(set(rel.y_side)) < len(rel.y_side)
        seen["both sides"] += bool(set(rel.x_side) & set(rel.y_side))
    assert min(seen.values()) >= 3, seen


def test_relation_bound_skips_a_pair_that_agrees_at_a_position():
    # (0a, 0b) agrees at position 1, where each of its labels has load 3: their product 9
    # does not count, and the largest product over the pairs differing there is 3 * 1.
    u, v, us, vs = "0a", "0b", ("1c", "1d", "1e"), ("1f", "1g", "1h")
    pairs = frozenset({(u, v), *((u, b) for b in vs), *((a, v) for a in us)})
    rel = Relation(x_side=(u, *us), y_side=(v, *vs), pairs=pairs, arity=2)
    rb = relation_bound(rel)
    assert rb.per_position == verify._recount_relation(rel) == {1: 3, 2: 16}


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("strong", [False, True])
def test_indexing_relation_counts(n, strong):
    rel = build_indexing_relation(n, strong=strong)
    rb = relation_bound(rel)
    want = math.comb(n, 2)
    assert rb.m_x == rb.m_y == want
    for j in range(1, n + 1):
        assert rb.per_position[j] == (n - 1) ** 2
    data_products = {rb.per_position[j] for j in rb.per_position if j > n}
    assert data_products == {want}
    assert rb.l_max == max((n - 1) ** 2, want)
    # independent recount by a double loop over the raw pair set
    for u, v in sorted(rel.pairs, key=str)[:5]:
        for i in range(rel.arity):
            if u[i] == v[i]:
                continue
            lu = sum(1 for a, b in rel.pairs if a == u and a[i] != b[i])
            lv = sum(1 for a, b in rel.pairs if b == v and a[i] != b[i])
            assert lu * lv == rb.per_position[i + 1] or lu * lv <= rb.per_position[i + 1]


def test_indexing_relation_sizes():
    rel = build_indexing_relation(2)
    assert len(rel.x_side) == 4 and len(rel.y_side) == 4
    rb = relation_bound(rel)
    assert rb.m_x == rb.m_y == 1
    with pytest.raises(AdversaryError):
        build_indexing_relation(1)  # no address pairs at distance 2
    with pytest.raises(AdversaryError):
        build_indexing_relation(5)


def test_strong_relation_labels_are_unique_preimages():
    rel = build_indexing_relation(2, strong=True)
    for label in rel.x_side:
        f = make_indexing(2)
        assert f.value(label.x) == 0 and f.value(label.y) == 1
        assert label.z.mark_positions == {2 + int(str(label.x)[:2], 2) + 1}
