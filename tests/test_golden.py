"""Golden CLI outputs: every pinned command must reproduce its stdout bytes
and exit code exactly.

``tests/golden/cli.json`` pins each command's argv with its recorded exit
code and stdout.  After an intended output change, re-record every pinned
command from the current sources with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import subprocess
import sys

import pytest

from funcfield.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli.json")


def _load():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", _load(), ids=lambda case: " ".join(case["argv"]))
def test_cli_output_matches_golden(capsys, case):
    status = main(case["argv"])
    out = capsys.readouterr().out
    assert status == case["exit"]
    assert out.encode() == case["stdout"].encode()


def _record():
    """Run every pinned command in its own process and store its results."""
    cases = []
    for case in _load():
        run = subprocess.run([sys.executable, "-m", "funcfield.cli", *case["argv"]],
                             capture_output=True, check=False)
        cases.append({"argv": case["argv"], "exit": run.returncode,
                      "stdout": run.stdout.decode()})
    with open(GOLDEN, "w") as fh:
        json.dump(cases, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    _record()
