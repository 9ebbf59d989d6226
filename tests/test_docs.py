"""The docs job's checks, enforced by tier-1 too: markdown links in
README/docs must resolve and the relational, api, encoding and server
layers must be fully docstringed (mirrors the CI ruff pydocstyle
job over the same directories)."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from check_docs import check_docstrings, check_links  # noqa: E402


def test_markdown_links_resolve():
    assert check_links() == []


def test_documented_layers_docstrings_complete():
    assert check_docstrings() == []
