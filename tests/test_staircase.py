"""Tests for the staircase join and the axis kernels.

The central property: for every axis and every batch of (iter, context)
pairs, :func:`staircase_step` ≡ :func:`naive_step` ≡ the scalar region
oracle of :mod:`repro.encoding.axes`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.encoding.arena import NodeArena
from repro.encoding.axes import Axis, NodeTest, axis_region_holds, element, text
from repro.encoding.shred import shred_text, shred_tree
from repro.relational.staircase import naive_step, staircase_step, twig_match

from tests.test_xml import _tree

NODE = NodeTest("node")

_ALL_AXES = [a for a in Axis if a is not Axis.ATTRIBUTE]


def _oracle(arena, iters, nodes, axis, test):
    """Reference implementation straight from the region predicates."""
    out = set()
    lo = 0
    hi = arena.num_nodes
    for it, v in zip(iters, nodes):
        for w in range(lo, hi):
            if axis_region_holds(arena, int(v), w, axis):
                out.add((int(it), w))
    # node test
    from repro.relational.staircase import node_test_mask

    kept = []
    for it, w in sorted(out):
        if node_test_mask(arena, np.asarray([w]), test)[0]:
            kept.append((it, w))
    return kept


@pytest.fixture(scope="module")
def tree_arena():
    arena = NodeArena()
    doc = shred_text(
        arena,
        "<r><a><b>t1</b><b>t2<c/></b></a><a><c><b>t3</b></c></a><d/></r>",
    )
    return arena, doc


class TestAxesAgainstOracle:
    @pytest.mark.parametrize("axis", _ALL_AXES)
    def test_single_context_all_axes(self, tree_arena, axis):
        arena, doc = tree_arena
        for v in range(doc, doc + int(arena.size[doc]) + 1):
            iters = np.asarray([1], dtype=np.int64)
            nodes = np.asarray([v], dtype=np.int64)
            got_i, got_n = staircase_step(arena, iters, nodes, axis, NODE)
            want = _oracle(arena, iters, nodes, axis, NODE)
            assert list(zip(got_i.tolist(), got_n.tolist())) == want, (axis, v)

    @pytest.mark.parametrize("axis", _ALL_AXES)
    def test_multi_context_multi_iter(self, tree_arena, axis):
        arena, doc = tree_arena
        n = doc + int(arena.size[doc])
        iters = np.asarray([1, 1, 2, 2, 2], dtype=np.int64)
        nodes = np.asarray([doc + 1, doc + 2, doc + 1, n - 1, doc + 4], dtype=np.int64)
        got_i, got_n = staircase_step(arena, iters, nodes, axis, NODE)
        want = _oracle(arena, iters, nodes, axis, NODE)
        assert list(zip(got_i.tolist(), got_n.tolist())) == want, axis

    @pytest.mark.parametrize("axis", _ALL_AXES)
    def test_staircase_equals_naive(self, tree_arena, axis):
        arena, doc = tree_arena
        rng = np.random.RandomState(3)
        all_rows = np.arange(doc, doc + int(arena.size[doc]) + 1)
        nodes = rng.choice(all_rows, size=6)
        iters = rng.randint(1, 4, size=6)
        order = np.lexsort((nodes, iters))
        got = staircase_step(arena, iters[order], nodes[order], axis, NODE)
        want = naive_step(arena, iters[order], nodes[order], axis, NODE)
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tolist() == want[1].tolist()


class TestNodeTests:
    def test_element_name_test(self, tree_arena):
        arena, doc = tree_arena
        _, rows = staircase_step(
            arena,
            np.asarray([1]),
            np.asarray([doc]),
            Axis.DESCENDANT,
            element("b"),
        )
        assert all(arena.name[r] == arena.pool.lookup("b") for r in rows)
        assert len(rows) == 3

    def test_text_test(self, tree_arena):
        arena, doc = tree_arena
        _, rows = staircase_step(
            arena, np.asarray([1]), np.asarray([doc]), Axis.DESCENDANT, text()
        )
        assert len(rows) == 3

    def test_unknown_name_matches_nothing(self, tree_arena):
        arena, doc = tree_arena
        _, rows = staircase_step(
            arena, np.asarray([1]), np.asarray([doc]), Axis.DESCENDANT,
            element("never-seen-tag"),
        )
        assert len(rows) == 0

    def test_attribute_axis(self):
        arena = NodeArena()
        doc = shred_text(arena, '<r><x a="1" b="2"/><y a="3"/></r>')
        iters, attrs = staircase_step(
            arena,
            np.asarray([1, 1]),
            np.asarray([doc + 2, doc + 3]),
            Axis.ATTRIBUTE,
            NodeTest("attribute", "a"),
        )
        assert len(attrs) == 2
        assert all(arena.attr_name[a] == arena.pool.lookup("a") for a in attrs)


class TestStaircaseProperties:
    def test_descendant_pruning_no_duplicates(self):
        """Nested contexts within one iter: pruning covers the inner one."""
        arena = NodeArena()
        doc = shred_text(arena, "<r><a><b><c/></b></a></r>")
        iters = np.asarray([1, 1], dtype=np.int64)
        nodes = np.asarray([doc + 1, doc + 2], dtype=np.int64)  # r and a
        got_i, got_n = staircase_step(arena, iters, nodes, Axis.DESCENDANT, NODE)
        assert len(got_n) == len(set(got_n.tolist()))

    def test_results_document_ordered_per_iter(self, tree_arena):
        arena, doc = tree_arena
        iters = np.asarray([1, 1, 2], dtype=np.int64)
        nodes = np.asarray([doc + 2, doc + 1, doc], dtype=np.int64)
        got_i, got_n = staircase_step(arena, iters, nodes, Axis.DESCENDANT, NODE)
        for it in set(got_i.tolist()):
            sub = got_n[got_i == it]
            assert list(sub) == sorted(sub)

    def test_duplicate_contexts_collapse(self, tree_arena):
        arena, doc = tree_arena
        iters = np.asarray([1, 1], dtype=np.int64)
        nodes = np.asarray([doc, doc], dtype=np.int64)
        got_i, got_n = staircase_step(arena, iters, nodes, Axis.CHILD, NODE)
        assert len(got_n) == 1

    def test_empty_context(self, tree_arena):
        arena, _ = tree_arena
        e = np.asarray([], dtype=np.int64)
        got_i, got_n = staircase_step(arena, e, e, Axis.DESCENDANT, NODE)
        assert len(got_i) == 0 and len(got_n) == 0

    @settings(max_examples=15, deadline=None)
    @given(_tree(), st.data())
    def test_random_trees_all_axes_match_naive(self, tree, data):
        arena = NodeArena()
        doc = shred_tree(arena, tree)
        rows = list(range(doc, doc + int(arena.size[doc]) + 1))
        picks = data.draw(
            st.lists(
                st.tuples(st.integers(1, 3), st.sampled_from(rows)),
                min_size=1,
                max_size=6,
            )
        )
        iters = np.asarray([p[0] for p in picks], dtype=np.int64)
        nodes = np.asarray([p[1] for p in picks], dtype=np.int64)
        for axis in _ALL_AXES:
            got = staircase_step(arena, iters, nodes, axis, NODE)
            want = naive_step(arena, iters, nodes, axis, NODE)
            assert got[0].tolist() == want[0].tolist(), axis
            assert got[1].tolist() == want[1].tolist(), axis


class TestTwigMatch:
    """``twig_match`` — one pass over a chain of downward steps — against
    folding ``staircase_step`` and ``naive_step`` over the same chain, on
    an XMark document.  No plan operator calls it, so this differential
    is its only check beyond the benchmark's layer probe."""

    CHAINS = {
        # items have names in every region: only the first step's test
        # keeps the other regions' out
        "child3": (
            (Axis.CHILD, element("europe")),
            (Axis.CHILD, element("item")),
            (Axis.CHILD, element("name")),
        ),
        "descendant-child": (
            (Axis.DESCENDANT, element("person")),
            (Axis.CHILD, element("name")),
        ),
        "dos-child-child": (
            (Axis.DESCENDANT_OR_SELF, NODE),
            (Axis.CHILD, element("open_auction")),
            (Axis.CHILD, element("bidder")),
        ),
        "wildcard": (
            (Axis.DESCENDANT, element("item")),
            (Axis.CHILD, element()),
            (Axis.CHILD, text()),
        ),
        "empty-midway": (
            (Axis.DESCENDANT, element("person")),
            (Axis.CHILD, element("no_such_element")),
            (Axis.CHILD, element("name")),
        ),
    }

    @pytest.fixture(scope="class")
    def xmark(self):
        from repro.xmark import generate_document

        arena = NodeArena()
        doc = shred_text(arena, generate_document(0.0005, seed=42))
        one = np.asarray([1], dtype=np.int64)
        root = np.asarray([doc], dtype=np.int64)
        _, regions = naive_step(arena, one, root, Axis.DESCENDANT, element("regions"))
        _, auctions = naive_step(arena, one, root, Axis.DESCENDANT, element("open_auction"))
        _, people = naive_step(arena, one, root, Axis.DESCENDANT, element("people"))
        assert len(regions) and len(auctions) > 3 and len(people)
        # iteration 1: the document alone; 2: nested contexts (the root
        # and subtrees below it) listed twice, out of document order;
        # 3: a few auctions, one repeated; 4: people again — contexts
        # recur within an iteration and across iterations
        contexts = [(1, doc)]
        contexts += [(2, n) for n in (*people, doc, regions[0], doc, *people)]
        contexts += [(3, n) for n in (*auctions[:3], auctions[1], auctions[-1])]
        contexts += [(4, people[0])]
        iters = np.asarray([i for i, _ in contexts], dtype=np.int64)
        nodes = np.asarray([n for _, n in contexts], dtype=np.int64)
        return arena, iters, nodes

    @staticmethod
    def _fold(step, arena, iters, nodes, chain):
        for axis, test in chain:
            iters, nodes = step(arena, iters, nodes, axis, test)
        return iters, nodes

    @pytest.mark.parametrize("name", sorted(CHAINS))
    def test_twig_equals_folded_steps(self, xmark, name):
        arena, iters, nodes = xmark
        chain = self.CHAINS[name]
        got_i, got_n = twig_match(arena, iters, nodes, chain)
        for step in (staircase_step, naive_step):
            want_i, want_n = self._fold(step, arena, iters, nodes, chain)
            assert got_i.tolist() == want_i.tolist(), (name, step.__name__)
            assert got_n.tolist() == want_n.tolist(), (name, step.__name__)
        assert (len(got_n) == 0) == (name == "empty-midway")

    @pytest.mark.parametrize("name", ["child3", "descendant-child"])
    def test_empty_context(self, xmark, name):
        arena, _, _ = xmark
        e = np.asarray([], dtype=np.int64)
        got_i, got_n = twig_match(arena, e, e, self.CHAINS[name])
        assert len(got_i) == 0 and len(got_n) == 0
