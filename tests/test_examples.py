"""Every script under ``examples/`` runs to completion.

Each runs as its own process, the way a reader would start it
(``PYTHONPATH=src python examples/NAME.py``), and must exit 0 and print
one line that shows it reached its end.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: (script and arguments, stdin, the start of a line the output must hold)
CASES = {
    "quickstart": (["quickstart.py"], None, "session stats: 7 queries"),
    "bibliography": (["bibliography.py"], None, "== cheapest book =="),
    "plan_explorer": (["plan_explorer.py"], None, "result: 110 210 120 220"),
    "auction_analytics": (
        ["auction_analytics.py", "0.0005"],
        None,
        "baseline cross-check on the join query: agree=True",
    ),
    "xquery_shell": (
        ["xquery_shell.py", "0.0005"],
        "count(//item)\n\\mil\n1+1\n\\quit\n",
        "# XQuery: 1+1",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_example_runs(name):
    argv, stdin, expected = CASES[name]
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, str(REPO / "examples" / argv[0]), *argv[1:]],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert any(line.startswith(expected) for line in lines), proc.stdout[-2000:]
