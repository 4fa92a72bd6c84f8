"""Acceptance suite: every numbered criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s or look at the
captured output).  Criteria 1-9 execute the corresponding verification
check directly; criterion 10 runs the full verify-all command twice and
compares the reports byte for byte, and against the pinned sha256 of the
canonical report.
"""

from __future__ import annotations

import hashlib
import time

import pytest

from sablab import verify
from sablab.cli import main

# sha256 of `sablab verify-all --seed 0 --out FILE`.  A change that moves the
# report's bytes on purpose updates this pin and says so in CHANGES.md.
CANONICAL_REPORT_SHA256 = "098bd7ac52b5195f019c6672537d2e77076c10908c7099da702dea43949a0b56"

# sha256 of `canonical_report(_run_base_checks(seed), seed)` at further seeds:
# the seeded draws of checks 06 and 09 change with the seed, so these pins
# guard the random algorithms and index finders beyond seed 0.
BASE_REPORT_SHA256 = {
    1: "3c7b233fb19bff56c4b73a1b686842b7a120f0796b80f1f0171fdcda8d79b2f4",
    2: "9673052117c1dde79910900e5f4fc9dfada1e0e02738109b13b8f17c4db57ac2",
    3: "f04fa56328c53280bdb4b0e8dfb8640b9ed17b43d5bfbd6b6e442c110de8ff70",
}

# (check name, human label, wall-clock budget in seconds)
_CRITERIA = [
    ("01-fbs-indexing", "criterion 1: fbs of indexing", 5.0),
    ("02-measures-catalog", "criterion 2: measures over the catalog", 30.0),
    ("03-fbs-certificate", "criterion 3: star certificates", 10.0),
    ("04-sabotage-certificate", "criterion 4: sabotage certificates", 20.0),
    ("05-indexing-relation", "criterion 5: indexing relation counts", 10.0),
    ("06-hybrid-argument", "criterion 6: hybrid inequality", 60.0),
    ("07-strong-conversion", "criterion 7: strong-oracle conversion", 30.0),
    ("08-grover-closed-form", "criterion 8: mark-search closed form", 10.0),
    ("09-index-finder", "criterion 9: index-finder identities", 30.0),
]


@pytest.mark.parametrize("name,label,budget", _CRITERIA, ids=[c[0] for c in _CRITERIA])
def test_criterion(name, label, budget):
    start = time.perf_counter()
    results = verify.run_checks(seed=0, only=name)
    elapsed = time.perf_counter() - start
    assert len(results) == 1
    result = results[0]
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}  {label}  [{elapsed:.2f}s < {budget:.0f}s]  {result.computed}")
    assert result.passed, result.computed
    assert elapsed < budget, f"{label} took {elapsed:.2f}s, budget {budget}s"
    assert plain_leaves(result.computed), f"{name} computed a value json may not write: {result.computed}"


def plain_leaves(value) -> bool:
    """Only dicts (str keys), lists and exact str, int, float and bool leaves: the report writes them as they are."""
    if type(value) is dict:
        return all(type(k) is str and plain_leaves(v) for k, v in value.items())
    if type(value) is list:
        return all(map(plain_leaves, value))
    return type(value) in (str, int, float, bool)


def test_criterion_10_determinism(tmp_path, capsys):
    start = time.perf_counter()
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    code_a = main(["verify-all", "--seed", "0", "--out", str(first)])
    code_b = main(["verify-all", "--seed", "0", "--out", str(second)])
    elapsed = time.perf_counter() - start
    identical = first.read_bytes() == second.read_bytes()
    status = "PASS" if identical and code_a == code_b == 0 else "FAIL"
    print(f"{status}  criterion 10: byte-identical verify-all reports  [{elapsed:.2f}s]")
    assert code_a == 0 and code_b == 0
    assert identical
    assert hashlib.sha256(first.read_bytes()).hexdigest() == CANONICAL_REPORT_SHA256


@pytest.mark.parametrize("seed", sorted(BASE_REPORT_SHA256))
def test_base_report_pinned_at_more_seeds(seed):
    report = verify.canonical_report(verify._run_base_checks(seed), seed)
    assert hashlib.sha256(report.encode()).hexdigest() == BASE_REPORT_SHA256[seed]
