"""Sabotage constructions against brute-force pair enumeration."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import partial_functions
from sablab.boolfn import BitString, PartialFunction, make_named
from sablab.measures import fbs
from sablab.sabotage import (
    DAGGER,
    STAR,
    SabString,
    SabotageError,
    StrongInput,
    enumerate_sabotaged,
    eval_sab,
    hard_distribution,
    make_strong,
    sabotage_dagger,
    sabotage_star,
)


def brute_sabotaged(f):
    """Independent double-loop enumeration of the star set."""
    out = set()
    for x in f.d0:
        for y in f.d1:
            s = tuple(a if a == b else STAR for a, b in zip(x, y))
            out.add(s)
    return out


def test_sabotage_star_examples():
    assert str(sabotage_star(BitString.from_text("0101"), BitString.from_text("0110"))) == "01**"
    assert str(sabotage_star(BitString.from_text("00"), BitString.from_text("11"))) == "**"
    assert str(sabotage_star(BitString.from_text("0"), BitString.from_text("1"))) == "*"


def test_sabotage_dagger_examples():
    assert str(sabotage_dagger(BitString.from_text("0101"), BitString.from_text("0110"))) == "01++"
    assert str(sabotage_dagger(BitString.from_text("00"), BitString.from_text("11"))) == "++"
    assert str(sabotage_dagger(BitString.from_text("10"), BitString.from_text("11"))) == "1+"


def test_sabotage_rejects_equal_or_mismatched():
    with pytest.raises(SabotageError):
        sabotage_star(BitString.from_text("01"), BitString.from_text("01"))
    with pytest.raises(SabotageError):
        sabotage_star(BitString.from_text("01"), BitString.from_text("011"))


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
    with pytest.raises(SabotageError):
        StrongInput(((0, 0, 1),))  # z must equal x = y
    with pytest.raises(SabotageError):
        StrongInput(((0, 1, 0),))  # z must be a marker where x != y
    with pytest.raises(SabotageError):
        StrongInput(((2, 1, STAR),))  # x must be a bit
    with pytest.raises(SabotageError):
        StrongInput(((0, 0, 0), (1, 1, 1)))  # x = y leaves no mark
    with pytest.raises(SabotageError):
        StrongInput(((0, 1, STAR), (1, 0, DAGGER)))  # mixed markers


def test_strong_input_json_roundtrip():
    w = StrongInput.from_pair(BitString.from_text("00"), BitString.from_text("11"), "+")
    assert StrongInput.from_json(w.to_json()) == w


def test_strong_input_mark_positions():
    assert StrongInput(((0, 0, 0), (0, 1, STAR))).z.mark_positions == {2}
    assert StrongInput(((0, 1, DAGGER), (0, 1, DAGGER))).z.mark_positions == {1, 2}
    assert StrongInput(((1, 1, 1), (0, 1, STAR), (0, 0, 0))).z.mark_positions == {2}


def test_hard_distribution_or2():
    f = make_named("OR", 2)
    sol = fbs(f, "00")
    dist = hard_distribution(f, "00", sol)
    assert len(dist.support) == 4
    assert all(abs(p - 0.25) < 1e-12 for p in dist.probabilities())


def test_hard_distribution_single_block():
    f = make_named("OR", 2)

    class Weights:
        weights = {BitString.from_text("11"): 1.0}

    dist = hard_distribution(f, "00", Weights())
    assert len(dist.support) == 2
    assert all(abs(p - 0.5) < 1e-15 for p in dist.probabilities())


def test_hard_distribution_and3_sums_to_one():
    f = make_named("AND", 3)
    sol = fbs(f, "111")
    dist = hard_distribution(f, "111", sol)
    assert abs(sum(dist.probabilities()) - 1.0) < 1e-12
    assert all(p <= 0.5 + 1e-15 for p in dist.probabilities())
    for strong, _ in dist.support:
        assert f.value(strong.x) == 0 and f.value(strong.y) == 1


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
