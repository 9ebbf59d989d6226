"""Tests for the command-line front end (python -m repro)."""

import io

import pytest

from repro.__main__ import main


@pytest.fixture
def doc_file(tmp_path):
    path = tmp_path / "data.xml"
    path.write_text("<r><a>1</a><a>2</a></r>")
    return str(path)


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestCLI:
    def test_inline_query(self, doc_file):
        code, out = run_cli(["-q", "count(//a)", "--doc", f"d.xml={doc_file}"])
        assert code == 0 and out.strip() == "2"

    def test_query_file(self, tmp_path, doc_file):
        qfile = tmp_path / "query.xq"
        qfile.write_text("sum(/r/a)")
        code, out = run_cli(["-f", str(qfile), "--doc", f"d.xml={doc_file}"])
        assert code == 0 and out.strip() == "3"

    def test_explain(self, doc_file):
        code, out = run_cli(
            ["-q", "count(//a)", "--doc", f"d.xml={doc_file}", "--explain"]
        )
        assert code == 0
        assert "# plan:" in out and "⤲" in out
        # per-pass statistics ride along
        assert "# optimizer passes:" in out
        assert "pushdown" in out and "join_order" in out

    def test_mil(self, doc_file):
        code, out = run_cli(["-q", "1+1", "--doc", f"d.xml={doc_file}", "--mil"])
        assert code == 0 and "MIL program" in out

    def test_baseline_check(self, doc_file):
        code, out = run_cli(
            ["-q", "/r/a/text()", "--doc", f"d.xml={doc_file}", "--baseline"]
        )
        assert code == 0 and "baseline agrees: True" in out

    def test_xmark_instance(self):
        code, out = run_cli(["-q", "count(/site/regions/*)", "--xmark", "0.0005"])
        assert code == 0 and out.strip() == "6"

    def test_timing_flag(self, doc_file):
        code, out = run_cli(
            ["-q", "1", "--doc", f"d.xml={doc_file}", "--time"]
        )
        assert code == 0 and "# compile" in out

    def test_error_exit_code(self, doc_file):
        code, _ = run_cli(["-q", "$undefined", "--doc", f"d.xml={doc_file}"])
        assert code == 1

    def test_bad_doc_spec(self):
        code, _ = run_cli(["-q", "1", "--doc", "nopath"])
        assert code == 2

    def test_no_optimizer_flag(self, doc_file):
        code, out = run_cli(
            ["-q", "count(//a)", "--doc", f"d.xml={doc_file}", "--no-optimizer"]
        )
        assert code == 0 and out.strip() == "2"

    def test_serve_store_on_a_file_is_an_error_not_a_traceback(
        self, tmp_path, capsys
    ):
        path = tmp_path / "plain.txt"
        path.write_text("not a store")
        code, _ = run_cli(["serve", "--store", str(path), "--port", "0"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_serve_zero_plan_cache_is_an_error_not_a_traceback(self, capsys):
        code, _ = run_cli(["serve", "--plan-cache", "0", "--port", "0"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: plan cache capacity must be >= 1\n"
