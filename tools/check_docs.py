"""Documentation checks: markdown links, per-package docstring presence,
the algebra reference, the serving option table and the API names the
docs mention against the code.

Five checks, all runnable standalone (CI docs job) and from the test
suite (``tests/test_docs.py``):

* **link check** — every relative markdown link in ``README.md`` and
  ``docs/*.md`` must point at an existing file (anchors are stripped);
  bare ``http(s)`` links are not fetched.
* **docstring check** — every public module, class, top-level function
  and public method under the packages in :data:`DOCSTRING_ROOTS`
  (the relational, api, encoding, server, compiler, xquery and xml
  layers) must carry a docstring.  This mirrors ruff's pydocstyle
  D100–D103 presence rules, which the CI docs job also runs over the
  same directories.
* **algebra table check** — the operator table of ``docs/algebra.md``
  names exactly the ``Op`` subclasses of ``relational/algebra.py``, and
  every snake_case word in its "passes" column is a registered optimizer
  pass (``PASSES`` in ``relational/optimizer.py``).  Both sides are read
  with :mod:`ast`, so the check needs neither ``src`` on the path nor
  numpy.
* **serve option check** — the option table of ``docs/serving.md``
  names exactly the flags ``build_serve_parser()`` in
  ``server/cli.py`` adds, read with :mod:`ast` the same way.
* **API name check** — every ``Class.member`` reference in
  ``README.md`` and ``docs/*.md`` to one of the public classes in
  :data:`API_CLASSES` must name a method, property, dataclass field or
  ``self.`` attribute of that class under ``src/``, read with :mod:`ast`.

Usage::

    python tools/check_docs.py          # exit 1 on any failure
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: markdown files whose relative links must resolve
DOC_FILES = (
    "README.md",
    "docs/ARCHITECTURE.md",
    "docs/algebra.md",
    "docs/serving.md",
    "docs/storage.md",
    "docs/updates.md",
)

#: package subtrees held to the public-docstring standard
DOCSTRING_ROOTS = (
    "src/repro/relational",
    "src/repro/api",
    "src/repro/encoding",
    "src/repro/server",
    "src/repro/compiler",
    "src/repro/xquery",
    "src/repro/xml",
)

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

ALGEBRA_DOC = "docs/algebra.md"
ALGEBRA_SRC = "src/repro/relational/algebra.py"
OPTIMIZER_SRC = "src/repro/relational/optimizer.py"

SERVING_DOC = "docs/serving.md"
SERVE_CLI_SRC = "src/repro/server/cli.py"

#: a row of the operator table: "| `Name` | symbol | schema | passes |"
_OP_ROW = re.compile(r"^\|\s*`(\w+)`\s*\|(?:[^|]*\|){2}([^|]*)\|\s*$")
_SNAKE = re.compile(r"\b[a-z]+(?:_[a-z]+)+\b")
#: a command-line flag inside a table cell
_FLAG = re.compile(r"--[a-z][a-z-]*")

#: the public classes whose documented ``Class.member`` names are checked
API_CLASSES = (
    "Database",
    "Session",
    "PreparedQuery",
    "QueryResult",
    "PlanCache",
    "CachedPlan",
    "NodeArena",
    "QueryService",
    "ClusterService",
    "DocumentStore",
    "StringPool",
)
_API_REF = re.compile(r"`(" + "|".join(API_CLASSES) + r")\.(\w+)")


def check_links() -> list[str]:
    """Return one error string per broken relative markdown link."""
    errors = []
    for rel in DOC_FILES:
        path = REPO / rel
        if not path.exists():
            errors.append(f"{rel}: file missing")
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for target in _LINK.findall(line):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                resolved = (path.parent / target.split("#", 1)[0]).resolve()
                if target.startswith("#"):
                    continue  # intra-page anchor
                if not resolved.exists():
                    errors.append(f"{rel}:{lineno}: broken link -> {target}")
    return errors


def _missing_docstrings(tree: ast.Module, rel: str) -> list[str]:
    errors = []
    if not ast.get_docstring(tree):
        errors.append(f"{rel}:1: missing module docstring")

    def visit(node, public_scope: bool, method_scope: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                public = public_scope and not child.name.startswith("_")
                if public and not ast.get_docstring(child):
                    errors.append(
                        f"{rel}:{child.lineno}: missing docstring on class "
                        f"{child.name}"
                    )
                visit(child, public, True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                public = public_scope and not child.name.startswith("_")
                if public and not ast.get_docstring(child):
                    kind = "method" if method_scope else "function"
                    errors.append(
                        f"{rel}:{child.lineno}: missing docstring on {kind} "
                        f"{child.name}"
                    )
                # nested defs are private implementation detail
                # (pydocstyle: nested functions inherit privateness)
                visit(child, False, False)
    visit(tree, True, False)
    return errors


def _op_classes() -> set[str]:
    """Names of the classes in the algebra module deriving from ``Op``."""
    tree = ast.parse((REPO / ALGEBRA_SRC).read_text())
    return {
        node.name
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any(isinstance(b, ast.Name) and b.id == "Op" for b in node.bases)
    }


def _pass_names() -> set[str]:
    """The names registered in the optimizer's ``PASSES`` tuple."""
    tree = ast.parse((REPO / OPTIMIZER_SRC).read_text())
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", "") == "PASSES":
            return {
                call.args[0].value
                for call in ast.walk(node.value)
                if isinstance(call, ast.Call)
                and getattr(call.func, "id", "") == "RewritePass"
            }
    return set()


def check_algebra_table() -> list[str]:
    """Return one error string per drift between the operator table of
    ``docs/algebra.md`` and the code (operators, pass names)."""
    rows: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate((REPO / ALGEBRA_DOC).read_text().splitlines(), 1):
        m = _OP_ROW.match(line)
        if m:
            rows[m.group(1)] = (lineno, m.group(2))
    ops = _op_classes()
    errors = [
        f"{ALGEBRA_DOC}: no table row for operator {name}"
        for name in sorted(ops - set(rows))
    ]
    passes = _pass_names()
    for name, (lineno, cell) in sorted(rows.items(), key=lambda r: r[1][0]):
        if name not in ops:
            errors.append(f"{ALGEBRA_DOC}:{lineno}: {name} is not an operator")
        for word in _SNAKE.findall(cell):
            if word not in passes:
                errors.append(f"{ALGEBRA_DOC}:{lineno}: {word} is not an optimizer pass")
    return errors


def _serve_flags() -> set[str]:
    """The ``--flags`` that ``build_serve_parser`` adds to its parser."""
    tree = ast.parse((REPO / SERVE_CLI_SRC).read_text())
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "build_serve_parser":
            return {
                arg.value
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
                and getattr(call.func, "attr", "") == "add_argument"
                for arg in call.args
                if isinstance(arg, ast.Constant)
                and str(arg.value).startswith("--")
            }
    return set()


def check_serve_options() -> list[str]:
    """Return one error string per drift between the option table of
    ``docs/serving.md`` (the table headed ``| option |``) and the flags
    of ``python -m repro serve``."""
    documented: dict[str, int] = {}
    in_table = False
    for lineno, line in enumerate((REPO / SERVING_DOC).read_text().splitlines(), 1):
        if line.startswith("| option |"):
            in_table = True
        elif in_table and line.startswith("|"):
            for flag in _FLAG.findall(line.split("|")[1]):
                documented[flag] = lineno
        else:
            in_table = False
    flags = _serve_flags()
    errors = [
        f"{SERVING_DOC}: option table lacks {flag}"
        for flag in sorted(flags - set(documented))
    ]
    errors += [
        f"{SERVING_DOC}:{documented[flag]}: {flag} is not a serve option"
        for flag in sorted(set(documented) - flags)
    ]
    return errors


def _class_members() -> dict[str, set[str]]:
    """Per class of :data:`API_CLASSES`: its methods and properties, its
    annotated class-level fields and every ``self.`` attribute its
    methods assign."""
    members: dict[str, set[str]] = {name: set() for name in API_CLASSES}
    for path in sorted((REPO / "src").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not (isinstance(node, ast.ClassDef) and node.name in members):
                continue
            names = members[node.name]
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(child.name)
                elif isinstance(child, ast.AnnAssign) and isinstance(
                    child.target, ast.Name
                ):
                    names.add(child.target.id)
            names.update(
                target.attr
                for target in ast.walk(node)
                if isinstance(target, ast.Attribute)
                and isinstance(target.ctx, ast.Store)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            )
    return members


def check_api_names() -> list[str]:
    """Return one error string per ``Class.member`` reference in the
    docs that names no member of that class."""
    members = _class_members()
    errors = []
    for rel in DOC_FILES:
        for lineno, line in enumerate((REPO / rel).read_text().splitlines(), 1):
            for cls, member in _API_REF.findall(line):
                if member not in members[cls]:
                    errors.append(f"{rel}:{lineno}: {cls}.{member} is not a member of {cls}")
    return errors


def check_docstrings() -> list[str]:
    """Return one error string per missing public docstring."""
    errors = []
    for root in DOCSTRING_ROOTS:
        for path in sorted((REPO / root).glob("*.py")):
            rel = str(path.relative_to(REPO))
            errors.extend(_missing_docstrings(ast.parse(path.read_text()), rel))
    return errors


def main() -> int:
    """Run every check; print failures and return a process exit code."""
    errors = (
        check_links()
        + check_docstrings()
        + check_algebra_table()
        + check_serve_options()
        + check_api_names()
    )
    for err in errors:
        print(err, file=sys.stderr)
    if errors:
        print(f"{len(errors)} documentation problem(s)", file=sys.stderr)
        return 1
    print(
        "docs OK: links resolve; algebra table, serve options and API "
        "names match the code; "
        "fully docstringed: "
        + ", ".join(r.rsplit("/", 1)[-1] for r in DOCSTRING_ROOTS)
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
