"""Unit tests for the polymorphic item columns and the string pool."""

import math
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import DynamicError
from repro.relational import items as it
from repro.relational.items import (
    ItemColumn,
    StringPool,
    K_BOOL,
    K_DBL,
    K_INT,
    K_STR,
    K_UNTYPED,
)


class TestStringPool:
    def test_intern_is_idempotent(self, pool):
        a = pool.intern("hello")
        b = pool.intern("hello")
        assert a == b
        assert len(pool) == 1

    def test_distinct_strings_get_distinct_ids(self, pool):
        assert pool.intern("a") != pool.intern("b")

    def test_value_round_trip(self, pool):
        sid = pool.intern("xyz")
        assert pool.value(sid) == "xyz"

    def test_lookup_missing_returns_minus_one(self, pool):
        assert pool.lookup("never-seen") == -1

    def test_lookup_present(self, pool):
        sid = pool.intern("seen")
        assert pool.lookup("seen") == sid

    def test_doubles_for_parses_and_memoises(self, pool):
        ids = pool.intern_many(["1.5", "x", "-2", "", " 3 "])
        out = pool.doubles_for(np.asarray(ids))
        assert out[0] == 1.5
        assert math.isnan(out[1])
        assert out[2] == -2.0
        assert math.isnan(out[3])
        assert out[4] == 3.0

    def test_doubles_for_inf_lexical(self, pool):
        ids = pool.intern_many(["INF", "-INF"])
        out = pool.doubles_for(np.asarray(ids))
        assert out[0] == math.inf and out[1] == -math.inf

    def test_doubles_for_parses_only_the_ids_asked(self, pool, monkeypatch):
        """A cast of k distinct ids over a large pool parses at most k
        strings, and a repeat parses none: never the whole pool."""
        ids = pool.intern_many([str(i) for i in range(5000)])
        calls = []
        real = it._parse_double
        monkeypatch.setattr(it, "_parse_double", lambda s: calls.append(s) or real(s))
        asked = np.asarray([ids[7], ids[4000], ids[7], ids[123], ids[4000]])
        assert pool.doubles_for(asked).tolist() == [7.0, 4000.0, 7.0, 123.0, 4000.0]
        assert sorted(calls) == ["123", "4000", "7"]
        calls.clear()
        assert pool.doubles_for(asked[::-1]).tolist() == [4000.0, 123.0, 7.0, 4000.0, 7.0]
        assert pool.doubles_for(asked[:0]).tolist() == []
        assert calls == []
        # a later cast parses only its own misses, also past a pool grow
        late = pool.intern_many([f"{i}.5" for i in range(5000, 9000)])
        assert pool.doubles_for(np.asarray([ids[7], late[-1]])).tolist() == [7.0, 8999.5]
        assert calls == ["8999.5"]

    def test_doubles_for_under_concurrent_interning(self, pool):
        """Threads casting small, overlapping sets of freshly interned ids
        while another thread grows the pool all see what a single-threaded
        parse gives: a memo entry is never read before it is filled, and
        a grow never loses one."""
        published = pool.intern_many([" 1e1 ", "x", "INF", "-INF", "", " -0 "]).tolist()
        stop = threading.Event()
        failures = []

        def grow():
            for n in range(5000):
                if stop.is_set():
                    return
                published.extend(pool.intern_many([f"{n}.{j}5" for j in range(8)]).tolist())

        def cast(seed):
            rng = random.Random(seed)
            for _ in range(2000):
                picked = rng.sample(published[-6:], 2)
                got = pool.doubles_for(np.asarray(picked)).tolist()
                expect = [it._parse_double(pool.value(i)) for i in picked]
                if not all(g == e or (math.isnan(g) and math.isnan(e))
                           for g, e in zip(got, expect)):
                    failures.append((picked, got, expect))

        grower = threading.Thread(target=grow)
        casters = [threading.Thread(target=cast, args=(seed,)) for seed in range(4)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            grower.start()
            for t in casters:
                t.start()
            for t in casters:
                t.join(timeout=60)
        finally:
            stop.set()
            grower.join(timeout=60)
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in [grower, *casters])
        assert not failures

    def test_values_decode_by_index(self, pool):
        ids = pool.intern_many(["a", "b", "c"])
        assert pool.values(ids[[2, 0, 2]]) == ["c", "a", "c"]
        assert pool.values([1]) == ["b"]
        assert pool.values(np.empty(0, dtype=np.int64)) == []
        with pytest.raises(IndexError):
            pool.value(3)
        with pytest.raises(IndexError):
            pool.values([3])

    def test_pool_grows_past_its_first_array(self, pool):
        words = [f"w{i}" for i in range(1000)]
        ids = [pool.intern(w) for w in words]
        assert ids == list(range(1000)) and len(pool) == 1000
        assert pool.values(np.asarray(ids)) == words
        assert pool.intern_many(words + ["new"]).tolist() == ids + [1000]

    @given(
        earlier=st.lists(st.text("ab", max_size=2), max_size=6),
        batches=st.lists(st.lists(st.text("abc", max_size=2), max_size=12), max_size=4),
    )
    def test_intern_many_assigns_what_sequential_interns_do(self, earlier, batches):
        """Batches with duplicates and strings interned before: the same
        surrogates, and the same pool order, as one intern per string."""
        bulk, single = it.StringPool(), it.StringPool()
        for word in earlier:
            assert bulk.intern(word) == single.intern(word)
        for batch in batches:
            got = bulk.intern_many(batch)
            assert got.dtype == np.int64
            assert got.tolist() == [single.intern(word) for word in batch]
        assert len(bulk) == len(single)
        assert bulk.values(range(len(bulk))) == single.values(range(len(single)))

    def test_sort_ranks_match_lexicographic_order(self, pool):
        words = ["pear", "apple", "fig", "apple", "banana"]
        ids = pool.intern_many(words)
        ranks = pool.sort_ranks(np.asarray(ids))
        reordered = [w for _, w in sorted(zip(ranks, words))]
        assert reordered == sorted(words)

    def test_bytes_used_counts_utf8(self, pool):
        pool.intern("ab")
        pool.intern("cdé")
        assert pool.bytes_used() == 2 + 4


class TestItemColumnConstruction:
    def test_from_values_mixed(self, pool):
        col = ItemColumn.from_values([1, 2.5, "x", True], pool)
        assert list(col.kinds) == [K_INT, K_DBL, K_STR, K_BOOL]
        assert col.to_values(pool) == [1, 2.5, "x", True]

    def test_from_ints_round_trip(self, pool):
        col = ItemColumn.from_ints([-5, 0, 7])
        assert col.to_values(pool) == [-5, 0, 7]

    def test_from_doubles_round_trip(self, pool):
        col = ItemColumn.from_doubles([1.25, -0.0, 3e10])
        assert col.to_values(pool) == [1.25, 0.0, 3e10]

    def test_negative_zero_is_canonicalised(self, pool):
        col = ItemColumn.from_doubles([0.0, -0.0])
        assert col.data[0] == col.data[1]

    def test_concat_and_take(self, pool):
        a = ItemColumn.from_ints([1, 2])
        b = ItemColumn.from_values(["x"], pool)
        c = ItemColumn.concat([a, b])
        assert len(c) == 3
        assert c.take(np.asarray([2, 0])).to_values(pool) == ["x", 1]

    def test_empty(self):
        assert len(ItemColumn.empty()) == 0

    def test_is_homogeneous(self, pool):
        assert ItemColumn.from_ints([1, 2]).is_homogeneous(K_INT)
        assert not ItemColumn.from_values([1, "x"], pool).is_homogeneous(K_INT)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ItemColumn(np.zeros(2, dtype=np.uint8), np.zeros(3, dtype=np.int64))


class TestCasts:
    def test_to_double_homogeneous_int(self, pool):
        col = ItemColumn.from_ints([1, 2])
        assert list(it.to_double(col, pool)) == [1.0, 2.0]

    def test_to_double_mixed_with_untyped(self, pool):
        sid = pool.intern("4.5")
        col = ItemColumn(
            np.asarray([K_INT, K_UNTYPED], dtype=np.uint8),
            np.asarray([3, sid], dtype=np.int64),
        )
        assert list(it.to_double(col, pool)) == [3.0, 4.5]

    def test_to_double_rejects_nodes(self, pool):
        col = ItemColumn.from_nodes([0])
        with pytest.raises(DynamicError):
            it.to_double(col, pool)

    def test_to_string_ids_lexical_forms(self, pool):
        col = ItemColumn.from_values([7, 2.5, True, "s"], pool)
        ids = it.to_string_ids(col, pool)
        assert pool.values(ids) == ["7", "2.5", "true", "s"]

    def test_format_double(self):
        assert it.format_double(3.0) == "3"
        assert it.format_double(float("nan")) == "NaN"
        assert it.format_double(float("inf")) == "INF"
        assert it.format_double(-1.5) == "-1.5"


class TestArithmetic:
    def test_int_int_stays_int(self, pool):
        a, b = ItemColumn.from_ints([7]), ItemColumn.from_ints([3])
        assert it.arithmetic("add", a, b, pool).to_values(pool) == [10]
        assert it.arithmetic("sub", a, b, pool).to_values(pool) == [4]
        assert it.arithmetic("mul", a, b, pool).to_values(pool) == [21]
        assert it.arithmetic("mod", a, b, pool).to_values(pool) == [1]

    def test_div_promotes_to_double(self, pool):
        a, b = ItemColumn.from_ints([7]), ItemColumn.from_ints([2])
        assert it.arithmetic("div", a, b, pool).to_values(pool) == [3.5]

    def test_idiv_truncates_toward_zero(self, pool):
        a = ItemColumn.from_ints([7, -7, 7, -7])
        b = ItemColumn.from_ints([2, 2, -2, -2])
        assert it.arithmetic("idiv", a, b, pool).to_values(pool) == [3, -3, -3, 3]

    def test_idiv_by_zero_raises(self, pool):
        with pytest.raises(DynamicError):
            it.arithmetic(
                "idiv", ItemColumn.from_ints([1]), ItemColumn.from_ints([0]), pool
            )

    def test_untyped_operand_casts(self, pool):
        a = ItemColumn.from_pooled(K_UNTYPED, [pool.intern("5")])
        b = ItemColumn.from_ints([2])
        assert it.arithmetic("mul", a, b, pool).to_values(pool) == [10.0]

    def test_negate(self, pool):
        assert it.negate(ItemColumn.from_ints([4]), pool).to_values(pool) == [-4]
        assert it.negate(ItemColumn.from_doubles([1.5]), pool).to_values(pool) == [-1.5]

    def test_promotion_is_per_row(self, pool):
        # regression: a row's result type must not depend on its
        # neighbours — the optimizer prunes rows, and pruning changed
        # an int row's add result from float to int when promotion was
        # decided column-wide over a mixed bool/int column
        a = ItemColumn.from_values([1, False, 2.5], pool)
        b = ItemColumn.from_ints([1, 1, 1])
        out = it.arithmetic("add", a, b, pool)
        assert out.kinds.tolist() == [K_INT, K_DBL, K_DBL]
        assert out.to_values(pool) == [2, 1.0, 3.5]
        neg = it.negate(a, pool)
        assert neg.kinds.tolist() == [K_INT, K_DBL, K_DBL]
        assert neg.to_values(pool) == [-1, 0.0, -2.5]

    def test_per_row_div_by_zero(self, pool):
        # only the exact-numeric row raises; a lone double row yields INF
        zero = ItemColumn.from_ints([0])
        dbl = it.arithmetic("div", ItemColumn.from_doubles([1.0]), zero, pool)
        assert dbl.to_values(pool) == [math.inf]
        with pytest.raises(DynamicError):
            it.arithmetic("div", ItemColumn.from_ints([1]), zero, pool)

    def test_idiv_returns_integer_for_doubles(self, pool):
        out = it.arithmetic(
            "idiv", ItemColumn.from_doubles([7.9]), ItemColumn.from_ints([2]), pool
        )
        assert out.kinds.tolist() == [K_INT]
        assert out.to_values(pool) == [3]

    @given(
        st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=20),
        st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=20),
    )
    def test_add_matches_python(self, xs, ys):
        n = min(len(xs), len(ys))
        xs, ys = xs[:n], ys[:n]
        pool = StringPool()
        out = it.arithmetic(
            "add", ItemColumn.from_ints(xs), ItemColumn.from_ints(ys), pool
        )
        assert out.to_values(pool) == [x + y for x, y in zip(xs, ys)]


class TestComparison:
    def test_numeric_comparison(self, pool):
        a = ItemColumn.from_ints([1, 5, 3])
        b = ItemColumn.from_ints([2, 5, 1])
        assert list(it.compare("lt", a, b, pool)) == [True, False, False]
        assert list(it.compare("eq", a, b, pool)) == [False, True, False]

    def test_untyped_vs_numeric_is_numeric(self, pool):
        a = ItemColumn.from_pooled(K_UNTYPED, [pool.intern("05")])
        b = ItemColumn.from_ints([5])
        assert list(it.compare("eq", a, b, pool)) == [True]

    def test_untyped_vs_untyped_is_string(self, pool):
        a = ItemColumn.from_pooled(K_UNTYPED, [pool.intern("05")])
        b = ItemColumn.from_pooled(K_UNTYPED, [pool.intern("5")])
        assert list(it.compare("eq", a, b, pool)) == [False]

    def test_string_ordering(self, pool):
        a = ItemColumn.from_values(["apple"], pool)
        b = ItemColumn.from_values(["banana"], pool)
        assert list(it.compare("lt", a, b, pool)) == [True]
        assert list(it.compare("ge", a, b, pool)) == [False]

    def test_non_numeric_string_vs_number_compares_false(self, pool):
        a = ItemColumn.from_values(["zzz"], pool)
        b = ItemColumn.from_ints([1])
        assert list(it.compare("eq", a, b, pool)) == [False]
        assert list(it.compare("lt", a, b, pool)) == [False]

    @given(st.lists(st.text(max_size=6), min_size=1, max_size=12))
    def test_string_lt_matches_python(self, words):
        pool = StringPool()
        a = ItemColumn.from_values(words, pool)
        b = ItemColumn.from_values(list(reversed(words)), pool)
        got = list(it.compare("lt", a, b, pool))
        want = [x < y for x, y in zip(words, reversed(words))]
        assert got == want


class TestEbvAndOrdering:
    def test_ebv_rules(self, pool):
        col = ItemColumn.from_values([0, 1, 0.0, "", "x", True, False], pool)
        assert list(it.ebv(col, pool)) == [False, True, False, False, True, True, False]

    def test_ebv_nan_false(self, pool):
        col = ItemColumn.from_doubles([float("nan")])
        assert list(it.ebv(col, pool)) == [False]

    def test_ebv_node_true(self, pool):
        col = ItemColumn.from_nodes([3])
        assert list(it.ebv(col, pool)) == [True]

    def test_order_columns_numeric_before_string(self, pool):
        col = ItemColumn.from_values([5, "a"], pool)
        cls, _ = it.order_columns(col, pool)
        assert cls[0] < cls[1]

    def test_order_columns_sorts_strings_lexicographically(self, pool):
        words = ["pear", "apple", "fig"]
        col = ItemColumn.from_values(words, pool)
        cls, val = it.order_columns(col, pool)
        order = np.lexsort((val, cls))
        assert [words[i] for i in order] == sorted(words)

    def test_join_keys_folds_untyped_to_string(self, pool):
        sid = pool.intern("v")
        a = ItemColumn.from_pooled(K_UNTYPED, [sid])
        kinds, payload = it.join_keys(a)
        assert kinds[0] == K_STR and payload[0] == sid
