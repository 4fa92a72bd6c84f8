"""The verification suite's own bookkeeping."""

from __future__ import annotations

import pytest

from sablab import measures, verify


def test_certificate_checks_share_one_global_sweep_per_pass(monkeypatch):
    """Checks 03 and 04 solve fbs_global once per function per base pass."""
    calls = []

    def counting(f, *args, **kwargs):
        calls.append(f.name)
        return fbs_global(f, *args, **kwargs)

    fbs_global = measures.fbs_global
    monkeypatch.setattr(measures, "fbs_global", counting)
    certificate_checks = {k: v for k, v in verify._CHECKS.items() if "certificate" in k}
    assert sorted(certificate_checks) == ["03-fbs-certificate", "04-sabotage-certificate"]
    monkeypatch.setattr(verify, "_CHECKS", certificate_checks)
    functions = [f.name for f in verify._cert_functions()]
    assert len(functions) == 18

    results = verify._run_base_checks(seed=0)
    assert [r.name for r in results] == sorted(certificate_checks)
    assert calls == functions

    calls.clear()
    results = verify.run_checks(seed=0)
    assert results[-1].name == verify.DETERMINISM_CHECK and results[-1].passed
    assert calls == functions * 2



def test_run_checks_refuses_a_negative_seed(monkeypatch):
    def no_check(name, seed):
        pytest.fail("a check ran with a negative seed")

    monkeypatch.setattr(verify, "_run_check", no_check)
    with pytest.raises(verify.VerifyError, match="seed must be >= 0, got -1"):
        verify.run_checks(seed=-1)
    with pytest.raises(verify.VerifyError, match="got -1"):
        verify.run_checks(seed=-1, only="05")
