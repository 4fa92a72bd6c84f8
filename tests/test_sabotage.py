"""Sabotage constructions against brute-force pair enumeration.

``sabotage_star``, ``sabotage_dagger`` and ``eval_sab`` (the paper's
definitions of the sabotaged strings and of f_sab) live here as the oracles
of ``enumerate_sabotaged`` and ``StrongInput``.
"""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import partial_functions
from sablab.boolfn import BitString, PartialFunction, catalog, make_named
from sablab.measures import fbs, sensitive_blocks
from sablab.sabotage import (
    DAGGER,
    STAR,
    SabString,
    SabotageError,
    StrongInput,
    _sab_strings,
    enumerate_sabotaged,
    hard_distribution,
    make_strong,
)


def brute_sabotaged(f):
    """Independent double-loop enumeration of the star set."""
    out = set()
    for x in f.d0:
        for y in f.d1:
            s = tuple(a if a == b else STAR for a, b in zip(x, y))
            out.add(s)
    return out


def sabotage_star(x: BitString, y: BitString) -> SabString:
    """x with every position where x and y differ replaced by a star."""
    return SabString(tuple(a if a == b else STAR for a, b in zip(x, y)))


def sabotage_dagger(x: BitString, y: BitString) -> SabString:
    """x with every position where x and y differ replaced by a dagger."""
    return SabString(tuple(a if a == b else DAGGER for a, b in zip(x, y)))


def eval_sab(f: PartialFunction, z: SabString) -> int:
    """The paper's f_sab: 0 for star-sabotaged inputs of f, 1 for dagger-sabotaged ones.

    z is sabotaged when some x in f's 0-set agrees with z off its marked
    positions and x with those positions flipped lies in f's 1-set.
    """
    if len(z) != f.n:
        raise SabotageError(f"{z} has length {len(z)}, but {f.name} has arity {f.n}")
    bits, vals = f.arrays()
    symbols = np.array(z.symbols)
    marked = symbols >= STAR
    cube = np.all(bits[:, ~marked] == symbols[~marked], axis=1)  # agrees with z off the marks
    # Key each cube point by its bits on the marks; flipping the marks maps key k to full ^ k.
    key = bits[cube][:, marked].astype(np.int64) @ (1 << np.arange(marked.sum()))
    full = (1 << int(marked.sum())) - 1
    if np.intersect1d(key[vals[cube] == 0], full ^ key[vals[cube] == 1]).size:
        return 0 if z.marker == STAR else 1
    raise SabotageError(f"{z} is not a sabotaged input of {f.name}")


def test_sabotage_star_examples():
    assert str(sabotage_star(BitString.from_text("0101"), BitString.from_text("0110"))) == "01**"
    assert str(sabotage_star(BitString.from_text("00"), BitString.from_text("11"))) == "**"
    assert str(sabotage_star(BitString.from_text("0"), BitString.from_text("1"))) == "*"


def test_sabotage_dagger_examples():
    assert str(sabotage_dagger(BitString.from_text("0101"), BitString.from_text("0110"))) == "01++"
    assert str(sabotage_dagger(BitString.from_text("00"), BitString.from_text("11"))) == "++"
    assert str(sabotage_dagger(BitString.from_text("10"), BitString.from_text("11"))) == "1+"


def test_sabotage_rejects_equal_or_mismatched():
    with pytest.raises(SabotageError, match="differ"):
        StrongInput(BitString.from_text("01"), BitString.from_text("01"), "*")
    with pytest.raises(SabotageError, match="length mismatch"):
        StrongInput(BitString.from_text("01"), BitString.from_text("011"), "+")


@pytest.mark.parametrize("symbols", [
    (0, 5, STAR),  # out of range
    (2.5, STAR),  # not an integer symbol
    ([1], STAR),  # unhashable
    (0, 1, 0),  # no mark
    (STAR, DAGGER),  # mixed markers
    (),
])
def test_sabstring_rejects(symbols):
    with pytest.raises(SabotageError):
        SabString(symbols)


def test_sabstring_invariants():
    z = SabString.from_text("0*1*")
    assert z.marker == STAR and z.mark_positions == {2, 4}
    w = SabString(tuple(np.array([0, DAGGER, 1], dtype=np.int64)))
    assert str(w) == "0+1" and w.marker == DAGGER and w.mark_positions == {2}
    assert w == SabString((0, DAGGER, 1))


def test_enumerate_or2():
    f = make_named("OR", 2)
    stars, daggers = enumerate_sabotaged(f)
    assert {str(z) for z in stars} == {"0*", "*0", "**"}
    assert {str(z) for z in daggers} == {"0+", "+0", "++"}
    assert len(stars) == len(daggers) == 3


def test_enumerate_and2_by_duality():
    stars, daggers = enumerate_sabotaged(make_named("AND", 2))
    assert len(stars) == 3 and len(daggers) == 3


def test_enumerate_identity_bit():
    f = make_named("PARITY", 1)  # identity on one bit
    stars, daggers = enumerate_sabotaged(f)
    assert {str(z) for z in stars} == {"*"}
    assert {str(z) for z in daggers} == {"+"}


def test_enumerate_rejects_constant():
    constant = make_named("OR", 2)
    from sablab.boolfn import PartialFunction

    f = PartialFunction("const", 2, {x: 1 for x in constant.entries})
    with pytest.raises(SabotageError):
        enumerate_sabotaged(f)


def _balanced(rng, n, size):
    """Seed-drawn function on ``size`` of the 2^n inputs, half of them mapped to 1."""
    codes = sorted(rng.choice(1 << n, size=size, replace=False).tolist())
    vals = rng.permutation([i % 2 for i in range(size)]).tolist()
    return PartialFunction(f"R{n}-{size}", n, {f"{c:0{n}b}": v for c, v in zip(codes, vals)},
                           total=size == 1 << n)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_enumerate_matches_pair_loop_at_certify_sizes(seed):
    """A balanced total function of arity 8 and a partial one on 128 of 512 inputs."""
    rng = np.random.default_rng(seed)
    for f in (_balanced(rng, 8, 256), _balanced(rng, 9, 128)):
        stars, daggers = enumerate_sabotaged(f)
        assert stars == {sabotage_star(x, y) for x in f.d0 for y in f.d1}
        assert daggers == {SabString(tuple(DAGGER if s == STAR else s for s in z.symbols)) for z in stars}
        assert all(type(s) is int for z in stars for s in z.symbols)
        _assert_constructor_built(stars | daggers)


def _assert_constructor_built(strings):
    """Each string equals, hashes and prints as the constructor's string of its symbols."""
    for z in strings:
        again = SabString(z.symbols)
        assert z == again and hash(z) == hash(again) and str(z) == str(again) and repr(z) == repr(again)
        assert type(z.symbols) is tuple and z.marker == again.marker


@pytest.mark.parametrize("row, message", [
    ((0, 1, 1), "sabotaged string needs at least one */dagger symbol"),
    ((STAR, 1, DAGGER), "sabotaged string cannot mix * and dagger symbols"),
    ((STAR, 4, 0), "symbols must be in 0..3, got (2, 4, 0)"),
], ids=["no-mark", "mixed", "entry-4"])
def test_sab_strings_refuses_a_bad_row_with_the_constructors_message(row, message):
    """The batched check refuses what ``SabString`` refuses, with its message, wherever the row sits."""
    good = [(0, STAR, 1), (STAR, STAR, 0), (1, 1, STAR)]
    for at in (0, 2, 3):
        symbols = np.array(good[:at] + [row] + good[at:], dtype=np.uint8)
        with pytest.raises(SabotageError, match=f"^{re.escape(message)}$"):
            _sab_strings(symbols)
    with pytest.raises(SabotageError, match=f"^{re.escape(message)}$"):
        SabString(row)


def test_sab_strings_builds_the_constructors_strings():
    symbols = np.array([(0, STAR, 1), (STAR, STAR, 0), (DAGGER, 1, 0), (0, 0, DAGGER)], dtype=np.uint8)
    strings = _sab_strings(symbols)
    assert strings == {SabString(tuple(int(s) for s in row)) for row in symbols}
    assert {str(z) for z in strings} == {"0*1", "**0", "+10", "00+"}
    _assert_constructor_built(strings)


@pytest.mark.parametrize("f", catalog(max_arity=6), ids=lambda f: f.name)
def test_enumerate_on_catalog_marks_the_sensitive_blocks(f):
    """The pair loop's sets, whose marks are the sensitive blocks at the 0-inputs as codes."""
    stars, daggers = enumerate_sabotaged(f)
    assert stars == {sabotage_star(x, y) for x in f.d0 for y in f.d1}
    assert daggers == {sabotage_dagger(x, y) for x in f.d0 for y in f.d1}
    marks = {sum(1 << (f.n - j) for j in z.mark_positions) for z in stars}
    assert marks == {m for x in f.d0 for m in sensitive_blocks(f, x)}


@given(partial_functions(max_arity=4))
@settings(max_examples=60)
def test_enumerate_matches_bruteforce(f):
    if not f.d0 or not f.d1:
        return
    stars, daggers = enumerate_sabotaged(f)
    assert {z.symbols for z in stars} == brute_sabotaged(f)
    assert len(stars) == len(daggers)
    for z in stars:
        assert eval_sab(f, z) == 0
    for z in daggers:
        assert eval_sab(f, z) == 1
    for marker, members in ((STAR, stars), (DAGGER, daggers)):
        for symbols in itertools.product((0, 1, marker), repeat=f.n):
            if marker not in symbols or SabString(symbols) in members:
                continue
            with pytest.raises(SabotageError):
                eval_sab(f, SabString(symbols))


def test_eval_sab_or2():
    f = make_named("OR", 2)
    assert eval_sab(f, SabString.from_text("0*")) == 0
    assert eval_sab(f, SabString.from_text("++")) == 1
    with pytest.raises(SabotageError):
        eval_sab(f, SabString.from_text("1*"))  # not a sabotaged input of OR_2
    with pytest.raises(SabotageError):
        eval_sab(f, SabString.from_text("0*0"))  # length mismatch


def test_make_strong():
    f = make_named("OR", 2)
    w = make_strong(f, "00", "01", "*")
    assert w.tuples == ((0, 0, 0), (0, 1, STAR))
    w2 = make_strong(f, "00", "11", "+")
    assert w2.tuples == ((0, 1, DAGGER), (0, 1, DAGGER))
    with pytest.raises(SabotageError):
        make_strong(f, "01", "00", "*")  # f(x) must be 0


def test_strong_input_projections():
    f = make_named("OR", 2)
    w = make_strong(f, "00", "01", "*")
    assert str(w.x) == "00" and str(w.y) == "01" and str(w.z) == "0*"
    assert f.value(w.x) == 0 and f.value(w.y) == 1


def test_strong_input_structural_invariants():
    """Only the pair and the marker can be wrong: every tuple built from them obeys the sabotage rule."""
    x = BitString.from_text("01")
    with pytest.raises(SabotageError, match="differ"):
        StrongInput(x, x, STAR)  # x = y leaves no mark
    with pytest.raises(SabotageError, match="length"):
        StrongInput(x, BitString.from_text("011"), STAR)
    for marker in (0, 1, 4, "x", "**", "2", None, True, []):
        with pytest.raises(SabotageError, match="marker"):
            StrongInput(x, BitString.from_text("11"), marker)


@pytest.mark.parametrize("x,y,name", [("00", "01", "x"), ((0, 0), (0, 1), "x"), (BitString.from_text("00"), "01", "y"),
                                      (BitString.from_text("00"), (0, 1), "y")])
def test_strong_input_refuses_a_pair_that_is_not_bitstrings(x, y, name):
    """A string or tuple in place of a BitString is named, not met by an unrelated error."""
    with pytest.raises(SabotageError, match=f"strong input {name} must be a BitString"):
        StrongInput(x, y, "*")


@given(partial_functions(), st.data())
@settings(max_examples=60, deadline=None)
def test_strong_input_is_its_pair_and_marker(f, data):
    x, y = data.draw(st.sampled_from(f.d0)), data.draw(st.sampled_from(f.d1))
    for marker, char, sabotage in ((STAR, "*", sabotage_star), (DAGGER, "+", sabotage_dagger)):
        w = make_strong(f, x, y, char)
        assert (w.x, w.y, w.marker, w.z) == (x, y, marker, sabotage(x, y))
        assert w.tuples == tuple(zip(w.x, w.y, w.z))
        assert all(w[j] == w.tuples[j] for j in range(len(w)))
        again, alias = StrongInput(w.x, w.y, w.marker), StrongInput.from_pair(w.x, w.y, char)
        assert again == w == alias and hash(again) == hash(w) == hash(alias)
    assert make_strong(f, x, y, STAR) != make_strong(f, x, y, DAGGER)


def test_strong_input_json_roundtrip():
    w = StrongInput.from_pair(BitString.from_text("00"), BitString.from_text("11"), "+")
    payload = w.to_json_dict()
    assert payload == {"x": "00", "y": "11", "marker": "+"}
    assert StrongInput.from_pair(
        BitString.from_text(payload["x"]), BitString.from_text(payload["y"]), payload["marker"]
    ) == w


def test_strong_input_mark_positions():
    def strong(x: str, y: str, marker) -> StrongInput:
        return StrongInput(BitString.from_text(x), BitString.from_text(y), marker)

    assert strong("00", "01", STAR).z.mark_positions == {2}
    assert strong("00", "11", DAGGER).z.mark_positions == {1, 2}
    assert strong("100", "110", "*").z.mark_positions == {2}


def test_hard_distribution_or2():
    f = make_named("OR", 2)
    sol = fbs(f, "00")
    dist = hard_distribution(f, "00", sol)
    assert len(dist.support) == 4
    assert all(abs(p - 0.25) < 1e-12 for _, p in dist.support)


def test_hard_distribution_single_block():
    f = make_named("OR", 2)

    class Weights:
        weights = {BitString.from_text("11"): 1.0}

    dist = hard_distribution(f, "00", Weights())
    assert len(dist.support) == 2
    assert all(abs(p - 0.5) < 1e-15 for _, p in dist.support)
    assert dist.blocks == ((BitString.from_text("11"), 1.0),)


def test_hard_distribution_and3_sums_to_one():
    f = make_named("AND", 3)
    sol = fbs(f, "111")
    dist = hard_distribution(f, "111", sol)
    assert abs(sum(p for _, p in dist.support) - 1.0) < 1e-12
    assert all(p <= 0.5 + 1e-15 for _, p in dist.support)
    for strong, _ in dist.support:
        assert f.value(strong.x) == 0 and f.value(strong.y) == 1


def test_hard_distribution_support_follows_blocks():
    """Star then dagger input per block, each pairing base and block the 0-input first."""
    for f, x in ((make_named("OR", 3), "000"), (make_named("AND", 3), "111"), (make_named("MAJ", 3), "011")):
        sol = fbs(f, x)
        dist = hard_distribution(f, x, sol)
        assert dist.blocks == tuple((y, float(w)) for y, w in sorted(sol.weights.items()))
        total = sum(w for _, w in dist.blocks)
        assert len(dist.support) == 2 * len(dist.blocks)
        for k, (y, w) in enumerate(dist.blocks):
            (star, p_star), (dagger, p_dagger) = dist.support[2 * k: 2 * k + 2]
            assert (star.marker, dagger.marker) == (STAR, DAGGER)
            assert star.x == dagger.x and star.y == dagger.y and {star.x, star.y} == {dist.base, y}
            assert f.value(star.x) == 0 and f.value(star.y) == 1
            assert p_star == p_dagger and abs(p_star - w / (2 * total)) < 1e-15


def test_hard_distribution_rejects_zero_weight():
    f = make_named("OR", 2)

    class Weights:
        weights = {}

    with pytest.raises(SabotageError):
        hard_distribution(f, "00", Weights())


@given(partial_functions(max_arity=4))
@settings(max_examples=40)
def test_sabotage_positions_property(f):
    if not f.d0 or not f.d1:
        return
    for x in f.d0[:3]:
        for y in f.d1[:3]:
            z = sabotage_star(x, y)
            for j, (a, b) in enumerate(zip(x, y)):
                if a == b:
                    assert z[j] == a
                else:
                    assert z[j] == STAR
