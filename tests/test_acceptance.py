"""Acceptance gate: every criterion runs at its stated tolerance.

Each test executes one criterion from funcfield.acceptance and prints its
pass/fail line (run pytest with -s to see them; the same lines come from the
``funcfield selftest`` subcommand).
"""

import pytest

from funcfield import acceptance


@pytest.mark.parametrize("criterion", acceptance.CRITERIA,
                         ids=[c.__name__ for c in acceptance.CRITERIA])
def test_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, result.line()


def test_criterion_reports_first_failure(monkeypatch):
    monkeypatch.setattr(acceptance, "cyclotomic_genus", lambda q, d, n: -1)
    result = acceptance.criterion_4_genus_triangle()
    assert result.passed is False
    assert (result.number, result.name) == (4, "genus-formula-triangle")
    assert result.detail == "n=1 mismatch at q=2, d=1"
