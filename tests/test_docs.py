"""The docs job's checks, enforced by tier-1 too: markdown links in
README/docs must resolve, the relational, api, encoding and server
layers must be fully docstringed (mirrors the CI ruff pydocstyle
job over the same directories), and the operator table of
docs/algebra.md must match the algebra and the optimizer's passes."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import check_docs  # noqa: E402
from check_docs import check_algebra_table, check_docstrings, check_links  # noqa: E402


def test_markdown_links_resolve():
    assert check_links() == []


def test_documented_layers_docstrings_complete():
    assert check_docstrings() == []


def test_algebra_table_matches_the_code():
    assert check_algebra_table() == []


def test_algebra_table_drift_is_reported(tmp_path, monkeypatch):
    """A stale row, a missing row and an unknown pass name are each
    reported."""
    text = (check_docs.REPO / check_docs.ALGEBRA_DOC).read_text()
    text = text.replace(
        "| `GenRange` |", "| `OldTwigJoin` | ⋈⤲ | `(iter, item)` | old_collapse |\n| `X` |"
    )
    text = text.replace("| `DocRoot` |", "| `NotDocRoot` |")
    doc = tmp_path / "algebra.md"
    doc.write_text(text)
    monkeypatch.setattr(check_docs, "ALGEBRA_DOC", str(doc))
    errors = check_algebra_table()
    assert any("no table row for operator DocRoot" in e for e in errors)
    assert any("no table row for operator GenRange" in e for e in errors)
    assert any("OldTwigJoin is not an operator" in e for e in errors)
    assert any("old_collapse is not an optimizer pass" in e for e in errors)
    assert all("join_order" not in e for e in errors)
