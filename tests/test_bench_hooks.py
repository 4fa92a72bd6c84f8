"""The benchmark in ``sabbench/`` still reaches the package layers it measures."""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

from sablab import qsim

SABBENCH = Path(__file__).resolve().parents[1] / "sabbench"


def test_tracer_hooks_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(SABBENCH))
    tracing = importlib.import_module("tracing")
    original = qsim.apply_block
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.unhooked == []
        assert qsim.apply_block is not original
        qsim.run(qsim.grover_or(2, 1), qsim.oracle_bit("01"))
        calls = {name: row["calls"] for name, row in tracer.span_table().items()}
        assert calls["qsim.apply_block"] > 0 and calls["qsim.permute_rows"] == 1
    finally:
        tracer.uninstall()
    assert qsim.apply_block is original


def _smoke_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(SABBENCH / "run.py"), "--workload", workload, "--smoke", "--trace", "0"],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
        timeout=300,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_simulate_wide_smoke_run():
    result = _smoke_run("simulate-wide")
    assert result["correct"] is True and result["failed"] == 0


def test_certify_smoke_run():
    # The certify oracles include exact Fraction LP optimality of solve_exact.
    result = _smoke_run("certify")
    assert result["correct"] is True and result["failed"] == 0


def test_search_small_smoke_run():
    # The search-small oracles check the interrupt and amplified index finders
    # against the sine laws and the zero-round identity, and the oversize refusal.
    result = _smoke_run("search-small")
    assert result["correct"] is True and result["failed"] == 0


def test_verify_suite_smoke_run():
    # verify-all with its determinism re-run, in-process through the CLI.
    result = _smoke_run("verify-suite")
    assert result["correct"] is True and result["failed"] == 0
