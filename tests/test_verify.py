"""The verification suite's own bookkeeping."""

from __future__ import annotations

import ast
import json
import re
import subprocess
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sablab import adversary, measures, protocols, qsim, verify
from sablab.cli import main
from sablab.sabotage import SabString


def test_certificate_checks_share_one_global_sweep_per_pass(monkeypatch):
    """Checks 03 and 04 run the fbs_global sweep once per function per base pass."""
    calls = []

    def counting(f, *args, **kwargs):
        calls.append(f.name)
        return sweep(f, *args, **kwargs)

    sweep = measures._global_sweep
    monkeypatch.setattr(measures, "_global_sweep", counting)
    certificate_checks = {k: v for k, v in verify._CHECKS.items() if "certificate" in k}
    assert sorted(certificate_checks) == ["03-fbs-certificate", "04-sabotage-certificate"]
    monkeypatch.setattr(verify, "_CHECKS", certificate_checks)
    functions = [f.name for f in verify._cert_functions()]
    assert len(functions) == 18

    results = verify._run_base_checks(seed=0)
    assert [r.name for r in results] == sorted(certificate_checks)
    assert calls == functions

    calls.clear()
    for _ in range(2):
        verify._run_base_checks(seed=0)
    assert calls == functions * 2  # a second pass shares nothing with the first


def test_certificate_checks_solve_each_maximiser_once(monkeypatch):
    """Checks 03 and 04 read the sweep's own LP at each of the 18 maximisers: no second solve there."""
    calls = []

    def recording(f, x, exact):
        calls.append((f.name, str(x)))
        return solve(f, x, exact)

    solve = measures._fbs_lp
    monkeypatch.setattr(measures, "_fbs_lp", recording)
    monkeypatch.setattr(measures, "fbs", lambda *args, **kwargs: pytest.fail("a maximiser was solved again"))
    results = verify._run_base_checks(0, only="certificate")
    assert [r.name for r in results] == ["03-fbs-certificate", "04-sabotage-certificate"]
    assert all(r.passed for r in results)
    assert len(calls) == len(set(calls))  # each sweep solves each point at most once
    maximisers = {(f.name, str(sol.x)) for f, sol in verify._cert_global_optima()}
    assert len(maximisers) == 18 and maximisers <= set(calls)


def test_run_checks_refuses_a_negative_seed(monkeypatch):
    def no_check(name, seed):
        pytest.fail("a check ran with a negative seed")

    monkeypatch.setattr(verify, "_run_check", no_check)
    with pytest.raises(verify.VerifyError, match="seed must be >= 0, got -1"):
        verify.run_checks(seed=-1)
    with pytest.raises(verify.VerifyError, match="got -1"):
        verify.run_checks(seed=-1, only="05")


def _popen_spy(monkeypatch) -> list[subprocess.Popen]:
    started = []
    popen = subprocess.Popen

    def spy(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", spy)
    return started


def _one_check(fn) -> dict:
    return {"01-only": ("a claim", "an expectation", fn)}


def test_the_determinism_rerun_is_a_fresh_interpreter(capsys, monkeypatch, tmp_path):
    """A check patched in this process only runs unpatched in the re-run, so check 10 fails."""
    claim, expected, fn = verify._CHECKS["05-indexing-relation"]

    def patched(seed):
        computed, ok = fn(seed)
        return {**computed, "patched": True}, ok

    monkeypatch.setitem(verify._CHECKS, "05-indexing-relation", (claim, expected, patched))
    path = tmp_path / "report.json"
    assert main(["verify-all", "--seed", "0", "--out", str(path)]) == 1
    checks = json.loads(path.read_text(encoding="utf-8"))["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == [verify.DETERMINISM_CHECK]
    assert checks[-1]["computed"]["identical"] is False
    assert "FAIL  10-determinism" in capsys.readouterr().err


def test_a_base_check_that_raises_leaves_no_rerun_running(monkeypatch):
    def broken(seed):
        raise RuntimeError("the check broke")

    started = _popen_spy(monkeypatch)
    monkeypatch.setattr(verify, "_CHECKS", _one_check(broken))
    with pytest.raises(RuntimeError, match="the check broke"):
        verify.run_checks(seed=0)
    assert len(started) == 1 and started[0].poll() is not None
    assert started[0].returncode < 0  # stopped, not left to finish its pass


@pytest.mark.parametrize(
    "source, message",
    [
        ("import sys; sys.stderr.write('first\\nlast words\\n'); sys.exit(3)", "code 3: last words$"),
        ("import os, signal; os.kill(os.getpid(), signal.SIGKILL)", "code -9: no error output$"),
    ],
    ids=["exit-3", "killed"],
)
def test_a_rerun_that_exits_non_zero_raises(monkeypatch, source, message):
    monkeypatch.setattr(verify, "_RERUN_SOURCE", source)
    monkeypatch.setattr(verify, "_CHECKS", _one_check(lambda seed: ({}, True)))
    with pytest.raises(verify.VerifyError, match="^the determinism re-run exited with " + message):
        verify.run_checks(seed=0)


def test_a_filtered_run_starts_no_second_process(monkeypatch):
    started = _popen_spy(monkeypatch)
    results = verify.run_checks(seed=0, only="01")
    assert [r.name for r in results] == ["01-fbs-indexing"] and started == []


def test_shared_grover_run_matches_grover_find_mark_exactly():
    """Every other state of one 5-iteration run gives grover_find_mark's mass at k = 0..5, to the bit."""
    for n in range(1, 9):
        for m in range(1, n + 1):
            z = SabString(tuple([2] * m + [0] * (n - m)))
            masses = verify._grover_masses(z, 5)
            assert masses == [qsim.grover_find_mark(z, k).success_mass for k in range(6)], (n, m)


def test_check_08_fails_when_grover_find_mark_drifts(monkeypatch):
    find = qsim.grover_find_mark

    def drifting(z, iterations):
        res = find(z, iterations)
        return replace(res, success_mass=res.success_mass + 1e-6)

    assert verify.run_checks(0, only="08")[0].passed
    monkeypatch.setattr(qsim, "grover_find_mark", drifting)
    assert not verify.run_checks(0, only="08")[0].passed


def test_check_07_simulates_the_wrapped_algorithm(monkeypatch):
    """A wrapping with no gadget between its queries leaves run_converted right, but check 07 must fail."""
    wrap = protocols._wrap_strong
    assert verify.run_checks(0, only="07")[0].passed
    monkeypatch.setattr(protocols, "_wrap_strong", lambda alg, gadget: wrap(alg, ()))
    result = verify.run_checks(0, only="07")[0]
    assert not result.passed and result.computed["max_tv"] > 0.5


def test_check_02_fails_when_a_minimal_block_is_dropped(monkeypatch):
    """Check 02 keeps its own oracles: a minimal-block mask missing one block must fail it."""
    minimal = measures._minimal

    def dropping(blocks, n):
        keep = minimal(blocks, n)
        keep[np.flatnonzero(keep)[:1]] = False
        return keep

    assert verify._check_measures_catalog(0)[1]
    monkeypatch.setattr(measures, "_minimal", dropping)
    assert not verify._check_measures_catalog(0)[1]


def test_check_02_fails_when_fbs_values_are_scaled(monkeypatch):
    solve = measures.fbs

    def scaled(f, x, exact=False):
        sol = solve(f, x, exact)
        return replace(sol, value=sol.value * (1 + Fraction(1, 10**6)))

    monkeypatch.setattr(measures, "fbs", scaled)
    assert not verify._check_measures_catalog(0)[1]



def _drifting(fn, change):
    return lambda *args, **kwargs: change(fn(*args, **kwargs))


def _scaled_norm(cert):
    return replace(cert, norm_gamma=cert.norm_gamma * 1.001)


def _one_more_at_position_1(rb):
    return replace(rb, per_position={**rb.per_position, 1: rb.per_position[1] + 1})


def _raised_first_overlap(rep):
    """A larger drop at the first query only: the final overlap, and so the slack, stay as they were."""
    return replace(rep, step_overlaps=(rep.step_overlaps[0] + 0.5, *rep.step_overlaps[1:]))


@pytest.mark.parametrize(
    "check, module, name, change",
    [
        ("01", measures, "fbs_global", lambda out: (out[0] + 1e-5, out[1])),
        ("03", adversary, "build_fbs_adversary", _scaled_norm),
        ("04", adversary, "build_sabotage_adversary", _scaled_norm),
        ("05", adversary, "relation_bound", _one_more_at_position_1),
        ("06", qsim, "hybrid_sum", lambda rep: replace(rep, p_x=(0.0,) * len(rep.p_x))),
        ("06", qsim, "hybrid_sum", _raised_first_overlap),
        ("09", protocols, "sample_interrupt", lambda rep: replace(rep, exact_success=rep.exact_success + 1e-6)),
    ],
    ids=[
        "01-fbs_global",
        "03-build_fbs_adversary",
        "04-build_sabotage_adversary",
        "05-relation_bound",
        "06-hybrid_sum",
        "06-step_overlaps",
        "09-sample_interrupt",
    ],
)
def test_check_fails_when_the_path_it_certifies_drifts(monkeypatch, check, module, name, change):
    """Each check turns to FAIL when the library function it certifies returns a wrong answer."""
    assert verify.run_checks(0, only=check)[0].passed
    monkeypatch.setattr(module, name, _drifting(getattr(module, name), change))
    assert not verify.run_checks(0, only=check)[0].passed


# (check, bound, a value below the seed-0 figure that bound caps)
_BOUNDS_BELOW_THE_REPORT = [
    ("01", "_FBS_TOL", -1e-6),  # fbs_ind_n is exactly n + 1
    ("03", "_NORM_TOL", 1e-16),  # max_norm_sq_error 1.8e-15
    ("03", "_COLUMN_SLACK", -1e-6),  # max_column_norm 1.0
    ("04", "_NORM_TOL", 1e-16),  # max_norm_error 8.9e-16
    ("04", "_MARGIN_SLACK", -0.5),  # min_value_margin 0.40
    ("06", "_HYBRID_SLACK", 1e-16),  # min_slack -2.2e-16
    ("07", "_DECISION_TOL", 1e-16),  # max_decision_error 4.4e-16
    ("07", "_TV_TOL", -1e-6),  # max_tv 0.0
    ("08", "_GROVER_TOL", 1e-15),  # max_error 6.0e-15
    ("09", "_IDENTITY_TOL", 1e-17),  # max_aa0_error 1.1e-16
    ("09", "_BASE_P_TOL", -1e-6),  # base_p exactly 0.25
    ("09", "_AMPLIFIED_TOL", 1e-16),  # amplified_once 1 - 2.2e-16
]


@pytest.mark.parametrize(
    "check, bound, value", _BOUNDS_BELOW_THE_REPORT, ids=[f"{c}-{b}" for c, b, _ in _BOUNDS_BELOW_THE_REPORT]
)
def test_check_decides_from_its_named_bound(monkeypatch, check, bound, value):
    """A bound moved below the number the check reports fails the check, and leaves the number as it was."""
    before = verify.run_checks(0, only=check)[0]
    monkeypatch.setattr(verify, bound, value)
    after = verify.run_checks(0, only=check)[0]
    assert before.passed and not after.passed
    assert after.computed == before.computed


def _written_by_hand(value) -> bool:
    """A float literal such as 1e-9: a power of ten below 1."""
    return isinstance(value, float) and f"{value:.0e}".startswith("1e-") and float(f"{value:.0e}") == value


def test_no_check_writes_a_bound_by_hand():
    """Check bodies compare with named bounds, and expected strings print them through _bound."""
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    literals = [
        f"{fn.name}:{node.lineno}: {node.value!r}"
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_check_")
        for node in ast.walk(fn)
        if isinstance(node, ast.Constant) and _written_by_hand(node.value)
    ]
    assert literals == []
    (checks,) = [n.value for n in tree.body if isinstance(n, ast.AnnAssign) and n.target.id == "_CHECKS"]
    assert len(checks.values) == len(verify._CHECKS)
    typed = [
        f"{name.value}: {node.value!r}"
        for name, entry in zip(checks.keys, checks.values)
        for node in ast.walk(entry.elts[1])
        if isinstance(node, ast.Constant) and re.search(r"\de-\d", str(node.value))
    ]
    assert typed == []
