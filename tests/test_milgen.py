"""Tests for the MIL program generator (the demo's compilation artifact)."""

import pytest

from repro.compiler.milgen import to_mil

from tests.conftest import open_session


@pytest.fixture
def session():
    return open_session("d", "<r><a>1</a><a>2</a></r>")


class TestMilGeneration:
    def test_figure5_program_shape(self, session):
        mil = session.explain("for $v in (10,20) return $v + 100").mil
        assert mil.startswith("# MIL program")
        assert "var t" in mil
        # the paper highlights mark() as MonetDB's no-cost row numbering
        assert ".mark(" in mil
        assert "[add](" in mil
        assert "serialize(" in mil

    def test_staircase_join_call_emitted(self, session):
        # //a is one descendant step; a positional predicate keeps the
        # literal descendant-or-self::node()/child::a form
        mil = session.explain("count(//a)").mil
        assert "staircasejoin(" in mil
        assert '"descendant"' in mil
        assert '"descendant-or-self"' not in mil
        mil = session.explain("count(//a[1])").mil
        assert '"descendant-or-self"' in mil and '"child"' in mil

    def test_theta_join_emitted(self, session):
        mil = session.explain(
            "for $x in /r/a, $y in (1, 2) where $x/@n < $y return $y"
        ).mil
        assert "thetajoin(" in mil
        assert '"<"' in mil or '">"' in mil

    def test_query_text_embedded_as_comment(self, session):
        mil = session.explain("1 + 1").mil
        assert "# XQuery: 1 + 1" in mil

    def test_every_operator_gets_a_variable_block(self, session):
        report = session.explain("for $x in /r/a order by $x return $x/text()")
        from repro.relational import algebra as alg

        mil = report.mil
        n_ops = alg.op_count(report.optimized)
        assert mil.count("# t") >= n_ops

    def test_listing_is_the_schedule(self, session):
        # one block per schedule step, named by slot, and each slot but
        # the root's freed once, after the step of its last consumer
        plan = session.database.compile_query(
            "for $x in /r/a return ($x, $x/text())", use_optimizer=True
        ).plan
        sched = plan.schedule
        lines = to_mil(plan).splitlines()
        blocks = [line for line in lines if line.startswith("# t")]
        assert [b.split(":")[0] for b in blocks] == [
            f"# t{i:03d}" for i in range(len(sched.inputs))
        ]
        freed = [
            line.removeprefix("# free ").split(", ")
            for line in lines
            if line.startswith("# free ")
        ]
        assert sorted(s for f in freed for s in f) == [
            f"t{i:03d}" for i in range(len(sched.inputs) - 1)
        ]

    def test_aggregates_render(self, session):
        mil = session.explain("sum(/r/a)").mil
        assert "{sum}(" in mil or "sum(" in mil
        assert ".group()" in mil

    def test_string_literals_escaped(self, session):
        mil = session.explain('"say ""hi"""').mil
        assert '\\"hi\\"' in mil

    def test_deterministic(self, session):
        q = "for $v in (1,2) return $v * 2"
        assert session.explain(q).mil == session.explain(q).mil

    def test_direct_to_mil_api(self, session):
        plan = session.database.compile_query("1 + 2", use_optimizer=True).plan
        text = to_mil(plan)
        assert "serialize(" in text
