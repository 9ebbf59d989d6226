"""Tests for the XMark workload: generator structure + the 20 queries.

The heavyweight check — Pathfinder ≡ baseline on every query — runs on a
small instance so the whole file stays fast.
"""

import pytest

from repro.xmark import XMARK_QUERIES, document_stats, generate_document, xmark_query

from tests.conftest import open_session, run_baseline
from tests.reference_xml import parse_document


@pytest.fixture(scope="module")
def doc_text():
    return generate_document(0.001, seed=5)


@pytest.fixture(scope="module")
def session(doc_text):
    return open_session("auction.xml", doc_text)


class TestGenerator:
    def test_deterministic(self):
        assert generate_document(0.001, seed=1) == generate_document(0.001, seed=1)

    def test_seed_changes_output(self):
        assert generate_document(0.001, seed=1) != generate_document(0.001, seed=2)

    def test_scaling_monotone(self):
        small = document_stats(0.001)
        big = document_stats(0.01)
        assert big.items > small.items
        assert big.people > small.people

    def test_well_formed(self, doc_text):
        root = parse_document(doc_text)
        assert root.name == "site"

    def test_structure(self, session):
        def run(q):
            return session.execute(q).serialize()
        stats = document_stats(0.001)
        assert run("count(/site/people/person)") == str(stats.people)
        assert run("count(//open_auction)") == str(stats.open_auctions)
        assert run("count(//closed_auction)") == str(stats.closed_auctions)
        assert run("count(//item)") == str(stats.items)
        assert run("count(/site/regions/*)") == "6"

    def test_person0_exists(self, session):
        out = session.execute('/site/people/person[@id = "person0"]/name/text()')
        assert out.serialize()

    def test_q15_deep_chain_exists(self, session):
        out = session.execute(
            "count(/site/closed_auctions/closed_auction/annotation/description/"
            "parlist/listitem/parlist/listitem/text/emph/keyword)"
        )
        assert int(out.serialize()) > 0

    def test_incomes_partition(self, session):
        """Q20 needs all four partitions to be non-trivial-ish."""
        total = int(session.execute("count(/site/people/person)").serialize())
        with_income = int(
            session.execute("count(/site/people/person/profile/@income)").serialize()
        )
        assert 0 < with_income < total

    def test_bidders_present(self, session):
        assert int(session.execute("count(//bidder)").serialize()) > 0

    def test_generated_document_round_trips(self, doc_text):
        """Parse → shred → serialize reproduces the generated text."""
        from repro.encoding.arena import NodeArena
        from repro.encoding.shred import shred_text
        from repro.xml.serializer import serialize_node

        arena = NodeArena()
        doc = shred_text(arena, doc_text)
        assert serialize_node(arena, doc) == doc_text

    def test_other_seed_also_consistent(self):
        """Both engines agree on a second generated instance too."""
        session = open_session("auction.xml", generate_document(0.0008, seed=99))
        for name in ("Q1", "Q6", "Q8", "Q19", "Q20"):
            query = XMARK_QUERIES[name]
            assert session.execute(query).serialize() == run_baseline(session, query), name


class TestQueries:
    def test_query_lookup(self):
        assert xmark_query(1) == XMARK_QUERIES["Q1"]
        assert len(XMARK_QUERIES) == 20

    @pytest.mark.parametrize("name", list(XMARK_QUERIES))
    def test_pathfinder_equals_baseline(self, session, name):
        query = XMARK_QUERIES[name]
        assert session.execute(query).serialize() == run_baseline(session, query)

    def test_q1_returns_person0_name(self, session):
        out = session.execute(XMARK_QUERIES["Q1"]).serialize()
        direct = session.execute(
            '/site/people/person[@id = "person0"]/name/text()'
        ).serialize()
        assert out == direct

    def test_q5_counts_expensive_closed_auctions(self, session):
        out = int(session.execute(XMARK_QUERIES["Q5"]).serialize())
        assert 0 <= out <= document_stats(0.001).closed_auctions

    def test_q6_one_count_per_region_root(self, session):
        out = session.execute(XMARK_QUERIES["Q6"]).serialize()
        assert out == str(document_stats(0.001).items)

    def test_q20_partitions_sum_to_people(self, session):
        out = session.execute(XMARK_QUERIES["Q20"]).serialize()
        import re

        nums = [int(x) for x in re.findall(r">(\d+)<", out)]
        assert sum(nums) == document_stats(0.001).people
