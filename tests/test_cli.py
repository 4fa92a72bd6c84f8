"""CLI surface: subcommand outputs, formats, exit codes, determinism."""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import re
import shlex
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sablab import measures, protocols, qsim, sabotage, simplex, verify
from sablab.boolfn import BitString, PartialFunction, make_named
from sablab.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fbs_indexing(capsys):
    code, out, _ = run_cli(capsys, "fbs", "--fn", "IND", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 3.0) < 1e-6
    assert payload["weights"] and payload["dual"]


def test_fbs_global_prints_one_solve(capsys, monkeypatch):
    # The printed value and weights must come from one solve: the sweep's own
    # LP at the x it chose, not a second solve there.
    calls = []

    def recording(f, x, exact):
        calls.append(str(x))
        return solve(f, x, exact)

    solve = measures._fbs_lp
    monkeypatch.setattr(measures, "_fbs_lp", recording)
    monkeypatch.setattr(measures, "fbs", lambda *args, **kwargs: pytest.fail("fbs solved the maximiser again"))
    code, out, _ = run_cli(capsys, "fbs", "--fn", "MAJ", "--n", "5")
    payload = json.loads(out)
    assert code == 0 and payload["x"] == "00011"
    assert calls.count("00011") == 1 and len(calls) == len(set(calls))
    assert abs(payload["value"] - sum(w["w"] for w in payload["weights"])) <= 1e-12
    assert abs(payload["value"] - 3.0) < 1e-9


def test_fbs_global_of_a_symmetric_function_solves_one_point_per_weight(capsys, monkeypatch):
    calls = []
    solve = measures._fbs_lp
    monkeypatch.setattr(measures, "_fbs_lp", lambda f, x, exact: (calls.append(x), solve(f, x, exact))[1])
    code, out, _ = run_cli(capsys, "fbs", "--fn", "MAJ", "--n", "11")
    payload = json.loads(out)
    assert code == 0 and payload["x"] == "00000011111" and abs(payload["value"] - 6) < 1e-9
    assert len(calls) <= 12
    measures.FbsSolution(
        x=BitString.coerce(payload["x"]),
        weights={BitString.coerce(w["y"]): w["w"] for w in payload["weights"]},
        value=payload["value"],
        dual=tuple(payload["dual"]),
    ).check_certificate(make_named("MAJ", 11))


def test_fbs_at_point(capsys):
    code, out, _ = run_cli(capsys, "fbs", "--fn", "OR", "--n", "4", "--x", "0000")
    payload = json.loads(out)
    assert code == 0 and abs(payload["value"] - 4.0) < 1e-9


def test_bs_parity(capsys):
    code, out, _ = run_cli(capsys, "bs", "--fn", "PARITY", "--n", "5", "--x", "00000")
    assert code == 0 and json.loads(out)["value"] == 5


def test_adv_fbs_construction(capsys):
    code, out, _ = run_cli(capsys, "adv", "--construction", "fbs", "--fn", "OR", "--n", "2")
    payload = json.loads(out)
    assert code == 0 and abs(payload["value"] - 2**0.5) < 1e-6


def test_adv_relation(capsys):
    code, out, _ = run_cli(
        capsys, "adv", "--construction", "indexing-relation", "--n", "3", "--model", "weak"
    )
    payload = json.loads(out)
    assert code == 0 and payload["m_x"] == 3 and payload["m_y"] == 3
    assert payload["aggregates"] == {"max": 4, "min": 3}


def test_adv_sabotage_ind2(capsys):
    code, out, _ = run_cli(capsys, "adv", "--construction", "sabotage", "--fn", "IND", "--n", "2")
    payload = json.loads(out)
    assert code == 0 and abs(payload["norm_gamma"] - 3.0) < 1e-9


def test_sab_enum(capsys):
    code, out, _ = run_cli(capsys, "sab-enum", "--fn", "OR", "--n", "2")
    payload = json.loads(out)
    assert code == 0
    assert payload["stars"] == ["**", "*0", "0*"]
    assert payload["count"] == 3


def test_sab_enum_reads_positions_msb_first(capsys, tmp_path):
    """Only the pair (0101, 0110): the marks sit on positions 3 and 4, not on their mirror."""
    path = tmp_path / "asym.json"
    path.write_text(PartialFunction("asym", 4, {"0101": 0, "0110": 1}).serialize(), encoding="utf-8")
    code, out, _ = run_cli(capsys, "sab-enum", "--file", str(path))
    payload = json.loads(out)
    assert code == 0
    assert payload["stars"] == ["01**"] and payload["daggers"] == ["01++"]


def test_protocol_convert(capsys):
    code, out, _ = run_cli(
        capsys, "protocol", "convert-strong", "--alg", "deutsch",
        "--pair", "00,10", "--marker", "*",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["queries_wrapped"] == 2
    assert abs(payload["decision"]["*"] - 1.0) < 1e-12


@pytest.mark.parametrize(
    "alg, source, pair, marker",
    [
        ("deutsch", qsim.deutsch_parity(), "00,10", "*"),
        ("grover-or-4-1", qsim.grover_or(4, 1), "0000,0010", "+"),
        ("grover-or-3-2", qsim.grover_or(3, 2), "000,011", "*"),
    ],
    ids=["deutsch", "grover-or-4-1", "grover-or-3-2"],
)
def test_protocol_convert_runs_the_source_once(capsys, monkeypatch, alg, source, pair, marker):
    """One CLI call evolves the source once, at source size: each gadget is a query of that run
    to the bit oracle of the gadget's bits."""
    runs = []
    simulate = qsim.evolve

    def counted_evolve(alg, *args, **kwargs):
        runs.append(alg)
        return simulate(alg, *args, **kwargs)

    monkeypatch.setattr(qsim, "evolve", counted_evolve)  # the run inside qsim.run
    monkeypatch.setattr(protocols, "evolve", counted_evolve)  # a run through protocols' own import
    code, out, _ = run_cli(
        capsys, "protocol", "convert-strong", "--alg", alg, "--pair", pair, "--marker", marker
    )
    assert code == 0 and runs == [source]
    monkeypatch.undo()
    x, y = pair.split(",")
    w = sabotage.StrongInput.from_pair(BitString.from_text(x), BitString.from_text(y), marker)
    conv = protocols.convert_strong(source)

    def by_key(dist):
        return {str(k): float(v) for k, v in sorted(dist.items(), key=lambda kv: str(kv[0]))}

    assert json.loads(out) == {
        "protocol": "convert-strong",
        "input": {"x": x, "y": y, "marker": marker},
        "queries_source": source.query_count,
        "queries_wrapped": 2 * source.query_count,
        "output": by_key(protocols.run_converted(conv, w)),
        "decision": by_key(conv.decide(w)),
    }


def test_protocol_convert_refuses_a_source_without_measurement(capsys, monkeypatch, tmp_path):
    def no_simulation(*args, **kwargs):
        pytest.fail("a source without measurement was simulated before it was refused")

    monkeypatch.setattr(protocols, "evolve", no_simulation)
    monkeypatch.setattr(protocols, "run", no_simulation)
    path = tmp_path / "alg.json"
    path.write_text(qsim.algorithm_to_json(replace(qsim.deutsch_parity(), measure=None)), encoding="utf-8")
    code, out, err = run_cli(capsys, "protocol", "convert-strong", "--alg-file", str(path), "--pair", "00,01")
    assert code == 2 and out == ""
    assert err.startswith("sablab: ") and "no measurement" in err and "Traceback" not in err


def test_protocol_convert_refuses_a_pair_of_the_wrong_length_before_any_gate(capsys, monkeypatch):
    def no_gate(*args, **kwargs):
        pytest.fail("a gate ran before the wrong-length pair was refused")

    # convert_strong reads the gadget's bits gate by gate; read them before gates are forbidden.
    bits = protocols._gadget_bits(protocols._RESOLVE_GATES)
    monkeypatch.setattr(protocols, "_gadget_bits", lambda gadget: bits)
    monkeypatch.setattr(qsim, "apply_gate", no_gate)
    monkeypatch.setattr(protocols, "apply_gate", no_gate)
    code, out, err = run_cli(capsys, "protocol", "convert-strong", "--alg", "grover-or-4-1", "--pair", "000,010")
    assert code == 2 and out == ""
    assert err == "sablab: oracle (bit, n=3) does not fit layout (bit, n=4)\n"


def test_protocol_hybrid_json_and_csv(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "protocol", "hybrid", "--alg", "deutsch", "--x", "00", "--block", "1,2"
    )
    payload = json.loads(out)
    assert code == 0
    assert abs(payload["sum_x"] - 1.0) < 1e-9 and abs(payload["sum_y"] - 1.0) < 1e-9
    assert payload["sum_x"] + payload["sum_y"] >= payload["lower_bound"] - 1e-9

    out_path = tmp_path / "trace.csv"
    code = main([
        "protocol", "hybrid", "--alg", "deutsch", "--x", "00", "--block", "1,2",
        "--format", "csv", "--out", str(out_path),
    ])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "t,p_x_t,p_y_t" and lines[1].startswith("1,")


def test_protocol_grover_find(capsys):
    code, out, _ = run_cli(capsys, "protocol", "grover-find", "--z", "00*0")
    payload = json.loads(out)
    assert code == 0 and payload["position"] == 3 and payload["valid"]


def test_protocol_grover_find_at_arity_20(capsys):
    code, out, _ = run_cli(capsys, "protocol", "grover-find", "--z", "0" * 19 + "*")
    payload = json.loads(out)
    assert code == 0 and payload["position"] == 20 and payload["valid"]


def test_protocol_index_find_repeat(capsys):
    code, out, _ = run_cli(
        capsys, "protocol", "index-find", "--alg", "deutsch",
        "--pair", "00,11", "--marker", "*", "--mode", "repeat", "--budget", "4",
    )
    payload = json.loads(out)
    assert code == 0 and payload["valid"] and payload["position"] in (1, 2)


def test_protocol_index_find_amplified(capsys):
    code, out, _ = run_cli(
        capsys, "protocol", "index-find", "--alg", "deutsch",
        "--pair", "00,11", "--marker", "*", "--mode", "amplified", "--rounds", "0",
    )
    payload = json.loads(out)
    assert code == 0 and abs(payload["exact_success"] - 1.0) < 1e-9


INDEX_FIND = ("protocol", "index-find", "--alg", "grover-or-4-1", "--pair", "0000,0010", "--seed", "3")


@pytest.mark.parametrize("mode, flag, default", [("repeat", "--budget", "16"), ("amplified", "--rounds", "0")])
def test_index_find_mode_defaults(capsys, mode, flag, default):
    unset = run_cli(capsys, *INDEX_FIND, "--mode", mode)
    assert unset[0] == 0 and unset == run_cli(capsys, *INDEX_FIND, "--mode", mode, flag, default)


@pytest.mark.parametrize("mode, flag", [("repeat", "--rounds"), ("amplified", "--budget")])
def test_index_find_refuses_the_other_modes_flag(capsys, mode, flag):
    code, out, err = run_cli(capsys, *INDEX_FIND, "--mode", mode, flag, "1")
    assert code == 2 and out == "" and flag in err


def test_adv_csv_cells_are_numbers(capsys):
    code, out, _ = run_cli(
        capsys, "adv", "--construction", "fbs", "--fn", "OR", "--n", "2", "--format", "csv"
    )
    rows = [[float(cell) for cell in line.split(",")] for line in out.splitlines()]
    assert code == 0
    assert rows == [[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]


def test_protocol_errors_exit_2(capsys):
    for argv in (
        ("--alg", "grover-or-4-0", "--pair", "0000,0010"),  # no queries
        ("--alg", "grover-or-4-0", "--pair", "0000,0010", "--mode", "amplified"),
        ("--alg", "grover-or-4-1", "--pair", "0000,0010", "--budget", "-2"),
        ("--alg", "grover-or-4-1", "--pair", "0000,0010", "--mode", "amplified", "--rounds", "-1"),
        ("--alg", "grover-or-4-1-7", "--pair", "0000,0010"),  # only grover-or-N-K exactly
        ("--alg", "grover-orx-4-1", "--pair", "0000,0010"),
    ):
        code, out, err = run_cli(capsys, "protocol", "index-find", *argv)
        assert code == 2 and out == ""
        assert err.startswith("sablab: ") and "Traceback" not in err


def test_index_find_refuses_a_grover_count_over_the_cap(capsys):
    cap = qsim.GROVER_ITERATION_CAP
    code, out, err = run_cli(capsys, "protocol", "index-find", "--alg", f"grover-or-4-{cap + 1}",
                             "--pair", "0000,0010")
    assert code == 2 and out == ""
    assert err.startswith("sablab: ") and f"GROVER_ITERATION_CAP = {cap}" in err


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"layout": {"n": 2}, "steps": []}', "'symbol'"),
        ('{"layout": {"n": 2, "symbol": "bit"}, "steps": [{"gates": [{"gate": "H"}]}]}', "'wires'"),
        ('{"layout": {"n": 2, "symbol": "bit"}, "steps": [{"gates": [{"gate": "H", "wires": 1}]}]}', "steps[0].gates[0]"),
        ('{"layout": {"n": 2, "symbol": "bit"}}', "'steps'"),
        ("[1,2]", "JSON object"),
        ("nope", "invalid JSON"),
        ('{"layout": {"n": 2.5, "symbol": "bit"}, "steps": [{"gates": []}], "measure": {"registers": ["index"]}}',
         "layout n must be an integer, got 2.5"),
        ('{"layout": {"n": true, "symbol": "bit"}, "steps": [{"gates": []}]}', "layout n must be an integer"),
        ('{"layout": {"n": 2, "symbol": "bit", "workspace": 2.0}, "steps": [{"gates": []}]}',
         "layout workspace must be an integer"),
        ('{"layout": {"n": 2, "symbol": "bit"}, "steps": [{"gates": [{"gate": "H", "wires": [true]}]}]}',
         "steps[0].gates[0]: gate wires must be integers"),
        ('{"layout": {"n": 2, "symbol": "bit"}, "steps": [{"gates": []}], "measure": {"registers": "index"}}',
         "measure: measure registers must be a tuple of str names"),
        ('{"layout": {"n": 2, "symbol": "bit"}, "steps": [{"gates": []}],'
         ' "measure": {"registers": ["index"], "map": {"1": [0]}}}',
         "measure: measure map must map str outcomes to str/int/float answers"),
        ('{"layout": {"n": 2, "symbol": "bit", "wrokspace": 2}, "steps": [{"gates": []}]}',
         "layout: unknown field 'wrokspace'"),
        ('{"layout": {"n": 2, "symbol": "bit"}, "steps": [{"gates": [{"gate": "BLOCK", "wires": [0],'
         ' "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "param": 3}]}]}',
         "steps[0].gates[0]: unknown field 'param'"),
        ('{"layout": {"n": 2, "symbol": "bit"}, "steps": [{"gates": [{"gate": "H", "wires": [0],'
         ' "matrix": [[[1, 0]]]}]}]}', "steps[0].gates[0]: unknown field 'matrix'"),
        ('{"layout": {"n": 2, "symbol": "bit"}, "steps": [{"gates": [{"gate": "H", "wires": [0], "wirez": 5}]}]}',
         "steps[0].gates[0]: unknown field 'wirez'"),
    ],
    ids=["no-symbol", "gate-without-wires", "wires-not-a-list", "no-steps", "not-an-object", "not-json",
         "fractional-n", "boolean-n", "float-workspace", "boolean-wire", "registers-not-a-list",
         "unhashable-answer", "misspelt-workspace", "param-on-block", "matrix-on-named-gate", "stray-key"],
)
def test_malformed_algorithm_file_exits_2(capsys, tmp_path, text, field):
    path = tmp_path / "alg.json"
    path.write_text(text, encoding="utf-8")
    argv = ("protocol", "convert-strong", "--alg-file", str(path), "--pair", "00,01")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("sablab: ") and field in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# One wrong field in a valid input file: exit 2, and the message names the field

MISSING = object()  # the mutation that leaves the field out


def mutated(doc: dict, path: tuple, value) -> str:
    """``doc`` as JSON text with the field at ``path`` set to ``value``, or removed for MISSING."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc)


def exits_2_naming(capsys, tmp_path, argv: tuple, text: str, fragments: tuple[str, ...]) -> None:
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, *argv[:-1], argv[-1], str(path))
    assert code == 2 and out == "", (text, err)
    assert err.startswith("sablab: ") and "Traceback" not in err
    assert all(f in err for f in fragments), (text, err, fragments)


def not_in(*values):
    return lambda v: v not in values


JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=4))
# Values no JSON reader takes as an object or an array.
NOT_A_CONTAINER = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4))
NOT_AN_INT = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=4),
                       st.lists(st.integers(), max_size=2))
NAMED_GATES = {"H", "X", "Z", "CNOT", "CZ", "SWAP", "CPHASE", "BLOCK"}

ALG_FILE = {
    "layout": {"n": 2, "symbol": "bit", "workspace": 2},
    "steps": [
        {"gates": [{"gate": "X", "wires": [1]}, {"gate": "H", "wires": [1]},
                   {"gate": "BLOCK", "wires": [0], "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
                   {"gate": "CPHASE", "wires": [1, 2], "param": 0.5}]},
        "QUERY",
        {"gates": [{"gate": "H", "wires": [1]}, {"gate": "X", "wires": [1]}]},
    ],
    "measure": {"registers": ["index"], "map": {"1": 0, "2": 1}},
}
ALG_ARGV = ("protocol", "convert-strong", "--pair", "00,01", "--alg-file")
GATE = ("steps", 0, "gates")

# Each field of ALG_FILE: whether it is required, its wrong or out-of-range values,
# and the words an error on it must contain.
ALG_FIELDS = [
    (("layout",), True, NOT_A_CONTAINER, ("algorithm layout",)),
    (("layout", "n"), True, st.one_of(NOT_AN_INT, st.integers(max_value=0)), ("algorithm layout", "layout n")),
    (("layout", "symbol"), True, st.one_of(NOT_AN_INT, st.text().filter(not_in("bit", "weak", "strong"))),
     ("algorithm layout", "symbol")),
    (("layout", "workspace"), False,
     st.one_of(NOT_AN_INT, st.integers(max_value=2**30).filter(lambda w: w < 1 or w & (w - 1))),
     ("algorithm layout", "workspace")),
    (("steps",), True, st.one_of(NOT_A_CONTAINER, st.just([]), st.just({})), ("algorithm", "step")),
    (("steps", 0), False, st.one_of(st.none(), st.booleans(), st.integers(), st.lists(st.integers(), max_size=2),
                                   st.text(max_size=4).filter(not_in("QUERY", "QUERY_INV"))), ("steps[0]",)),
    (("steps", 0, "gates"), True, st.one_of(st.none(), st.booleans(), st.integers(), st.text(min_size=1, max_size=4)),
     ("steps[0]",)),
    ((*GATE, 1), False, st.one_of(NOT_A_CONTAINER, st.lists(st.integers(), max_size=2)), ("steps[0].gates[1]",)),
    ((*GATE, 1, "gate"), True,
     st.one_of(st.none(), st.booleans(), st.integers(), st.lists(st.text(max_size=2), max_size=2),
               st.text(max_size=6).filter(lambda t: t.upper() not in NAMED_GATES)),
     ("steps[0].gates[1]", "unknown gate")),
    ((*GATE, 1, "wires"), True,
     st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=3),
               st.lists(st.one_of(st.booleans(), st.floats(allow_nan=False), st.text(max_size=2)), min_size=1,
                        max_size=2),
               st.lists(st.one_of(st.integers(max_value=-1), st.integers(min_value=3)), min_size=1, max_size=1),
               st.just([1, 1])),
     ("steps[0].gates[1]", "wires")),
    ((*GATE, 1, "param"), False, JSON_SCALARS.filter(lambda v: v is not None), ("steps[0].gates[1]", "param")),
    ((*GATE, 2, "matrix"), True,
     st.one_of(NOT_A_CONTAINER, st.just([[[1, 0], [1, 0]], [[0, 0], [1, 0]]]), st.just([[1, 0], [0, 1]]),
               st.just([[[1, 0]]]), st.just([[[1, 0, 0], [0, 0, 0]], [[0, 0], [1, 0]]])),
     ("steps[0].gates[2]",)),
    ((*GATE, 3, "param"), False,
     st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.lists(st.floats(allow_nan=False), max_size=1),
               st.sampled_from([math.inf, -math.inf, math.nan])),
     ("steps[0].gates[3]", "param")),
    (("measure",), False, st.one_of(st.booleans(), st.integers(), st.text(max_size=4), st.just([]), st.just({})),
     ("measure",)),
    (("measure", "registers"), True,
     st.one_of(NOT_A_CONTAINER, st.lists(st.integers(), min_size=1, max_size=2),
               st.lists(st.text(max_size=5).filter(not_in("index", "symbol", "work0")), min_size=1, max_size=2),
               st.just(["index", "index"])),
     ("measure", "register")),
    (("measure", "map"), False,
     st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4), st.lists(st.integers(), max_size=2),
               st.dictionaries(st.text(max_size=2), st.one_of(st.none(), st.booleans(), st.lists(st.integers())),
                               min_size=1, max_size=2)),
     ("measure map",)),
]


@st.composite
def alg_mutations(draw):
    path, required, wrong, fragments = draw(st.sampled_from(ALG_FIELDS))
    value = draw(st.one_of(st.just(MISSING), wrong) if required else wrong)
    if value is MISSING:
        fragments = (f"no field {path[-1]!r}",)
    return mutated(ALG_FILE, path, value), fragments


# Each JSON object of ALG_FILE: the keys its reader reads, and the place an error names.
ALG_OBJECTS = [
    ((), ("layout", "steps", "measure"), "algorithm file"),
    (("layout",), ("n", "symbol", "workspace"), "algorithm layout"),
    (("steps", 0), ("gates",), "steps[0]"),
    ((*GATE, 1), ("gate", "wires", "param"), "steps[0].gates[1]"),
    ((*GATE, 2), ("gate", "wires", "matrix"), "steps[0].gates[2]"),
    (("measure",), ("registers", "map"), "measure"),
]
EXTRA_KEYS = st.one_of(st.sampled_from(["wrokspace", "param", "matrix", "wirez", "gates", "map", "n"]),
                       st.text(max_size=6))


@st.composite
def alg_extra_keys(draw):
    """A key its reader does not read, added to one object of ALG_FILE."""
    path, keys, place = draw(st.sampled_from(ALG_OBJECTS))
    key = draw(EXTRA_KEYS.filter(not_in(*keys)))
    return mutated(ALG_FILE, (*path, key), draw(JSON_SCALARS)), (place, f"unknown field {key!r}")


def test_valid_algorithm_file_converts(capsys, tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(ALG_FILE), encoding="utf-8")
    assert run_cli(capsys, *ALG_ARGV, str(path))[0] == 0


@given(st.one_of(alg_mutations(), alg_extra_keys()))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_one_bad_algorithm_field_exits_2_naming_it(capsys, tmp_path, case):
    text, fragments = case
    exits_2_naming(capsys, tmp_path, ALG_ARGV, text, fragments)


FUNCTION_FILE = {"name": "f", "n": 2, "total": False, "entries": [["00", 0], ["01", 1], ["10", 1]]}
FUNCTION_ARGV = ("fbs", "--file")
FUNCTION_FIELDS = [
    (("name",), st.one_of(st.none(), st.booleans(), st.integers(), st.lists(st.text(max_size=2), max_size=2)),
     ("function name",)),
    (("n",), st.one_of(NOT_AN_INT, st.integers().filter(lambda n: n != 2)), ("n = ",)),
    (("total",), st.one_of(st.none(), st.integers(), st.text(max_size=4), st.lists(st.booleans(), max_size=2),
                           st.just(True)), ("total",)),
    (("entries",), st.one_of(NOT_A_CONTAINER, st.just({}), st.just({"00": 0}), st.just([])), ("entries",)),
    (("entries", 1), st.one_of(NOT_A_CONTAINER, st.just({}), st.lists(st.just("01"), max_size=3).filter(
        lambda e: len(e) != 2)), ("malformed entry",)),
    (("entries", 1, 0), st.one_of(st.none(), st.booleans(), st.integers(), st.lists(st.integers(0, 1), max_size=2)),
     ("malformed entry",)),
    (("entries", 1, 1), st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=2),
                                  st.lists(st.integers(), max_size=2), st.integers().filter(not_in(0, 1))),
     ("value for 01",)),
]


@st.composite
def function_mutations(draw):
    path, wrong, fragments = draw(st.sampled_from(FUNCTION_FIELDS + [(("entries", 1, 0), None, None)]))
    if wrong is None:  # a key of the wrong length, off the alphabet, or repeating another
        key = draw(st.text(alphabet="01a", max_size=3))
        assume(len(key) != 2 or "a" in key or key in ("00", "10"))
        return mutated(FUNCTION_FILE, path, key), (key,)
    value = draw(st.one_of(st.just(MISSING), wrong) if len(path) == 1 else wrong)
    if value is MISSING:
        fragments = (f"no field {path[-1]!r}",)
    return mutated(FUNCTION_FILE, path, value), fragments


@st.composite
def function_extra_keys(draw):
    key = draw(EXTRA_KEYS.filter(not_in(*FUNCTION_FILE)))
    return mutated(FUNCTION_FILE, (key,), draw(JSON_SCALARS)), ("function file", f"unknown field {key!r}")


def test_valid_function_file_solves(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(FUNCTION_FILE), encoding="utf-8")
    assert run_cli(capsys, *FUNCTION_ARGV, str(path))[0] == 0


@given(st.one_of(function_mutations(), function_extra_keys()))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_one_bad_function_field_exits_2_naming_it(capsys, tmp_path, case):
    text, fragments = case
    exits_2_naming(capsys, tmp_path, FUNCTION_ARGV, text, fragments)


def test_function_file_with_a_boolean_arity_exits_2(capsys, tmp_path):
    """Such a file once loaded with n = True, and printing it raised on a format specifier."""
    text = '{"name": "f", "n": true, "total": true, "entries": [["0", 0], ["1", true]]}'
    exits_2_naming(capsys, tmp_path, FUNCTION_ARGV, text, ("arity n = True",))


@pytest.mark.parametrize(
    "argv",
    [("protocol", "convert-strong", "--pair", "00,01", "--alg-file"), ("fbs", "--file")],
    ids=["alg-file", "function-file"],
)
def test_undecodable_input_file_exits_2(capsys, tmp_path, argv):
    path = tmp_path / "input.json"
    path.write_bytes(b"\xff\xfe{")
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err.startswith("sablab: ") and "decode" in err


@pytest.mark.parametrize("block", ["1,a", "1,,2", "0,1", "3"])
def test_hybrid_bad_block_exits_2(capsys, block):
    argv = ("protocol", "hybrid", "--alg", "deutsch", "--x", "00", "--block", block)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("sablab: ") and "Traceback" not in err


def test_adv_at_point_skips_global_sweep(capsys, monkeypatch):
    def no_sweep(f, exact=False):
        pytest.fail("adv --x ran the fbs_global sweep")

    monkeypatch.setattr(measures, "_global_sweep", no_sweep)
    code, out, _ = run_cli(
        capsys, "adv", "--construction", "fbs", "--fn", "OR", "--n", "2", "--x", "00"
    )
    payload = json.loads(out)
    assert code == 0 and payload["x"] == "00" and abs(payload["value"] - 2**0.5) < 1e-6


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "fbs", "--fn", "NOPE", "--n", "2")[0] == 2
    assert run_cli(capsys, "fbs")[0] == 2
    assert run_cli(capsys, "protocol", "grover-find")[0] == 2
    assert run_cli(capsys, "fbs", "--fn", "OR", "--n", "2", "--x", "0101")[0] == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_tol_is_an_fbs_only_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["adv", "--construction", "fbs", "--fn", "OR", "--n", "2", "--tol", "1e-6"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def leaf_parsers(parser, path=()):
    subcommands = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subcommands:
        yield " ".join(path), parser
    for action in subcommands:
        for name, child in action.choices.items():
            yield from leaf_parsers(child, path + (name,))


FUNCTION = {"--fn", "--file", "--n"}
ALGORITHM = {"--alg", "--alg-file"}
PAIR = {"--pair", "--marker"}
ACCEPTED_FLAGS = {
    "fbs": FUNCTION | {"--x", "--out"},
    "bs": FUNCTION | {"--x", "--out"},
    "adv": FUNCTION | {"--x", "--out", "--format", "--construction", "--model"},
    "sab-enum": FUNCTION | {"--out"},
    "protocol convert-strong": ALGORITHM | PAIR | {"--out"},
    "protocol hybrid": ALGORITHM | {"--x", "--block", "--format", "--out"},
    "protocol grover-find": {"--z", "--seed", "--out"},
    "protocol index-find": ALGORITHM | PAIR | {"--mode", "--budget", "--rounds", "--seed", "--out"},
    "verify-all": {"--only", "--seed", "--out"},
}


def test_each_subcommand_accepts_exactly_the_flags_it_reads():
    accepted = {
        path: {o for a in p._actions for o in a.option_strings if o not in ("-h", "--help")}
        for path, p in leaf_parsers(build_parser())
    }
    assert accepted == ACCEPTED_FLAGS
    assert sum(len(flags) for flags in accepted.values()) == 48


@pytest.mark.parametrize(
    "argv",
    [
        ("fbs", "--fn", "OR", "--n", "2", "--tol", "1e-6"),
        ("fbs", "--fn", "OR", "--n", "2", "--format", "csv"),
        ("sab-enum", "--fn", "OR", "--n", "2", "--x", "00"),
        ("protocol", "grover-find", "--z", "00*0", "--alg", "deutsch"),
        ("protocol", "convert-strong", "--alg", "deutsch", "--pair", "00,10", "--seed", "3"),
        ("verify-all", "--only", "05", "--fn", "OR"),
    ],
    ids=" ".join,
)
def test_unread_flag_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra",
    [("--fn", "OR"), ("--file", "or2.json"), ("--x", "11"), ("--format", "csv")],
    ids=lambda extra: extra[0],
)
def test_indexing_relation_refuses_function_flags(capsys, extra):
    code, out, err = run_cli(capsys, "adv", "--construction", "indexing-relation", "--n", "2", *extra)
    assert code == 2 and out == ""
    assert extra[0] in err


@pytest.mark.parametrize("construction", ["fbs", "sabotage"])
def test_model_is_refused_outside_indexing_relation(capsys, construction):
    code, out, err = run_cli(
        capsys, "adv", "--construction", construction, "--fn", "OR", "--n", "2", "--model", "weak"
    )
    assert code == 2 and out == "" and "--model" in err


def test_relation_model_defaults_to_weak(capsys):
    _, default, _ = run_cli(capsys, "adv", "--construction", "indexing-relation", "--n", "3")
    _, weak, _ = run_cli(
        capsys, "adv", "--construction", "indexing-relation", "--n", "3", "--model", "weak"
    )
    assert default == weak and json.loads(default)["model"] == "weak"


def readme_examples() -> list[str]:
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI examples", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("sablab ")]


def test_readme_examples_parse():
    examples = readme_examples()
    assert len(examples) >= 12
    parser = build_parser()
    for line in examples:
        words = shlex.split(line, comments=True)
        assert words[0] == "sablab"
        parser.parse_args(words[1:])


# sha256 of each README CLI example's stdout, keyed by the example without its
# comment.  verify-all is left out: its report goes to a file, pinned in
# test_acceptance.py.  A change that moves an example's output on purpose
# updates its pin and says so in CHANGES.md.
README_STDOUT_SHA256 = {
    "sablab fbs --fn IND --n 2": "63679caa81f5dbb1ebf59ab83afb04bd6df793ff60c3556f69d2961323725375",
    "sablab fbs --fn IND --n 3": "b135c96b503cc3b32c40e5d1a13782fc2a99a9c24da2d816dcc2c7e870ebd73c",
    "sablab fbs --fn OR --n 4 --x 0000": "cb632a12c01d35e6fb76007d83b069503471a2441688966c40b614608a920977",
    "sablab bs --fn PARITY --n 5 --x 00000": "bcc457783bffdf4c76105962b752860ff6bbc82cb55188d1cfda4f92ec440ccf",
    "sablab sab-enum --fn OR --n 2": "183a5d0e055ac729e50742f7f6c7b2b9731b3c0850768a4aa5df32984898662d",
    "sablab adv --construction fbs --fn OR --n 2": "c1d36a70ebd9be013f7b5f757f2a9e68683e5473ab1dc6c0b744967d75eab5ed",
    "sablab adv --construction sabotage --fn IND --n 2":
        "a5d145c9e0a4286b256647bd7098e59367e5fc85c8372bfcec0b81e8d59a0ca4",
    "sablab adv --construction indexing-relation --n 3 --model strong":
        "7a5fbddd5753f6c92b99e497a73e9c0a4a2cbfb53c802d789b6ac2ff3802b273",
    "sablab protocol convert-strong --alg deutsch --pair 00,10 --marker '*'":
        "97fb4dacfed567a530e7e9cc37e1aa25f695cf24c2cc0496a24aa4e362b02d38",
    "sablab protocol hybrid --alg deutsch --x 00 --block 1,2 --format csv":
        "5e124b281af64d7fb4759846ffb379e1a7948ac41fa5b70570d56c4f91182e5e",
    "sablab protocol grover-find --z '00*0'": "2c783c913e082dc75b7d2f217756df66cfef869fffb87b0e69f1b15b5715cb06",
    "sablab protocol index-find --alg deutsch --pair 00,11 --marker '*' --mode amplified --rounds 0":
        "9377a578ca2f84597b9331519864e8eb4d1985236d1a78b1a013bb875e1f8208",
}


# sha256 of `sablab adv --construction indexing-relation --n N --model M` stdout.
INDEXING_RELATION_STDOUT_SHA256 = {
    (2, "weak"): "7548139d82b88918f827103471b64807302033ff12f6b159dccdb6dc05dd2918",
    (2, "strong"): "48488270605ae110b0271bc8915513fb9396ca878e4f02b1192c5571c9f6c8e0",
    (3, "weak"): "5db9aab4ccd7873d22a0a5411b7e3a5bdaa5fe7ecd035ba3b237da4bba3d7407",
    (3, "strong"): "7a5fbddd5753f6c92b99e497a73e9c0a4a2cbfb53c802d789b6ac2ff3802b273",
    (4, "weak"): "83cdfaac119126df7d49768d5c7782fc748ff46d1a617246c937b24d3d13d758",
    (4, "strong"): "c016488654a098f8d1856b2ae3cc779ac0f31f0fb8e4498bc1f116eaf70a293a",
}


@pytest.mark.parametrize("n, model", list(INDEXING_RELATION_STDOUT_SHA256))
def test_indexing_relation_stdout_is_pinned(capsys, n, model):
    code, out, _ = run_cli(capsys, "adv", "--construction", "indexing-relation", "--n", str(n), "--model", model)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == INDEXING_RELATION_STDOUT_SHA256[(n, model)]


def test_readme_examples_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # verify-all --out writes report.json here
    pinned = []
    for line in readme_examples():
        code, out, err = run_cli(capsys, *shlex.split(line, comments=True)[1:])
        assert code == 0, (line, err)
        command = line.split("#", 1)[0].strip()
        if not command.startswith("sablab verify-all"):
            assert hashlib.sha256(out.encode()).hexdigest() == README_STDOUT_SHA256[command], line
            pinned.append(command)
    assert sorted(pinned) == sorted(README_STDOUT_SHA256)


def test_seed_defaults_to_0_whatever_the_environment(capsys, monkeypatch):
    argvs = [("protocol", "grover-find", "--z", "00*0"), ("fbs", "--fn", "OR", "--n", "2"),
             ("protocol", "index-find", "--alg", "deutsch", "--pair", "00,11", "--seed", "3")]
    want = [run_cli(capsys, *argv) for argv in argvs]
    assert json.loads(want[0][1])["seed"] == 0 and json.loads(want[2][1])["seed"] == 3
    for value in ("5", "seven", "-2"):
        monkeypatch.setenv("SABLAB_SEED", value)
        assert [run_cli(capsys, *argv) for argv in argvs] == want


def test_the_library_reads_no_environment_variable():
    for path in sorted((README.parent / "src" / "sablab").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"\bos\.(environ|getenv)|\bgetenv\(|\benviron\b", text), path.name


@pytest.mark.parametrize(
    "argv",
    [
        ("protocol", "grover-find", "--z", "00*0", "--seed", "-1"),
        ("protocol", "index-find", "--alg", "deutsch", "--pair", "00,11", "--seed", "-3"),
        ("verify-all", "--seed", "-1"),
        ("verify-all", "--seed", "x"),
    ],
    ids=" ".join,
)
def test_bad_seed_flag_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "sablab: error: --seed must be a non-negative integer" in err and "Traceback" not in err




def test_function_file_input(capsys, tmp_path):
    path = tmp_path / "or2.json"
    path.write_text(make_named("OR", 2).serialize())
    code, out, _ = run_cli(capsys, "fbs", "--file", str(path), "--x", "00")
    assert code == 0 and abs(json.loads(out)["value"] - 2.0) < 1e-9


def test_verify_only_subset(capsys):
    code, out, err = run_cli(capsys, "verify-all", "--only", "05-indexing-relation")
    assert code == 0
    payload = json.loads(out)
    assert [c["name"] for c in payload["checks"]] == ["05-indexing-relation"]
    assert payload["passed"] is True
    assert "PASS" in err


def test_verify_failing_check_exits_1(capsys, monkeypatch):
    """An injected defect must surface as a failing entry and exit code 1."""
    from sablab import verify

    def broken(seed):
        return {"injected": True}, False

    claim, expected, _ = verify._CHECKS["05-indexing-relation"]
    monkeypatch.setitem(verify._CHECKS, "05-indexing-relation", (claim, expected, broken))
    code, out, err = run_cli(capsys, "verify-all", "--only", "05-indexing-relation")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert "FAIL" in err


@pytest.fixture
def no_check_may_run(monkeypatch):
    def must_not_run(seed):
        raise AssertionError("no check may run")

    for name, (claim, expected, _) in list(verify._CHECKS.items()):
        monkeypatch.setitem(verify._CHECKS, name, (claim, expected, must_not_run))


def test_verify_only_matching_nothing_is_refused(capsys, no_check_may_run):
    code, out, err = run_cli(capsys, "verify-all", "--only", "99")
    assert code == 2
    assert out == ""
    assert "'99'" in err
    assert all(name in err for name in verify._CHECKS)


def test_verify_empty_filter_is_refused(capsys, no_check_may_run):
    code, out, err = run_cli(capsys, "verify-all", "--only", "")
    assert code == 2
    assert out == ""
    assert "empty" in err


def test_verify_reports_are_deterministic_and_seeded(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify-all", "--only", "07-strong-conversion", "--seed", "9",
                 "--out", str(a)]) == 0
    assert main(["verify-all", "--only", "07-strong-conversion", "--seed", "9",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["seed"] == 9


@pytest.mark.parametrize("command", [("fbs",), ("adv", "--construction", "fbs"), ("bs",), ("bs", "--x", "0" * 20),
                                     ("sab-enum",)])
def test_whole_domain_commands_refuse_arity_20(capsys, monkeypatch, command):
    """IND_4 has 2^20 points: the sweep, the bs scan and the pair loop refuse before they start."""
    def never(*args, **kwargs):
        pytest.fail("whole-domain work started")

    monkeypatch.setattr(simplex, "solve_float", never)
    monkeypatch.setattr(sabotage, "_pair_keys", never)
    monkeypatch.setattr(sabotage, "SabString", never)
    monkeypatch.setattr(measures, "sensitive_blocks", never)
    monkeypatch.setattr(PartialFunction, "domain", never)
    code, out, err = run_cli(capsys, *command, "--fn", "IND", "--n", "4")
    assert code == 2 and out == ""
    assert "1048576 domain points" in err and "2^12 = 4096" in err
