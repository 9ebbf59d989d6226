"""The docs job's checks, enforced by tier-1 too: markdown links in
README/docs must resolve, the relational, api, encoding and server
layers must be fully docstringed (mirrors the CI ruff pydocstyle
job over the same directories), the operator table of
docs/algebra.md must match the algebra and the optimizer's passes, the
option table of docs/serving.md the flags of ``repro serve``, and every
documented ``Class.member`` of a public class a member in the code."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import check_docs  # noqa: E402
from check_docs import (  # noqa: E402
    check_algebra_table,
    check_api_names,
    check_docstrings,
    check_links,
    check_serve_options,
)


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


def test_serve_option_table_matches_the_parser():
    assert check_serve_options() == []


def test_serve_option_table_drift_is_reported(tmp_path, monkeypatch):
    """A flag the parser lacks and a parser flag the table lacks are
    each reported."""
    text = (check_docs.REPO / check_docs.SERVING_DOC).read_text()
    text = text.replace("| `--page-budget BYTES` |", "| `--old-knob` |")
    doc = tmp_path / "serving.md"
    doc.write_text(text)
    monkeypatch.setattr(check_docs, "SERVING_DOC", str(doc))
    errors = check_serve_options()
    assert any("option table lacks --page-budget" in e for e in errors)
    assert any("--old-knob is not a serve option" in e for e in errors)
    assert len(errors) == 2


def test_documented_api_names_exist():
    assert check_api_names() == []


def test_api_name_drift_is_reported(tmp_path, monkeypatch):
    """A member the class lacks is reported; methods, properties,
    dataclass fields and ``self.`` attributes all resolve."""
    doc = tmp_path / "api.md"
    doc.write_text(
        "Call `Database.no_such_member()` or `Database.compile_cached`;\n"
        "read `Database.default_document`, `CachedPlan.documents` and\n"
        "`Database.plan_cache`, not `PlanCache.get`.\n"
    )
    monkeypatch.setattr(check_docs, "DOC_FILES", (str(doc),))
    errors = check_api_names()
    assert errors == [
        f"{doc}:1: Database.no_such_member is not a member of Database",
        f"{doc}:3: PlanCache.get is not a member of PlanCache",
    ]
