"""Tests for the content-addressed operand cache (repro.serve.cache)."""

import gc

import numpy as np
import pytest

from repro.core.assemble import assemble_chunks
from repro.core.chunks import ChunkGrid
from repro.core.executor import execute_chunk_grid
from repro.core.governor.integrity import crc32_matrix
from repro.sparse.formats import CSRMatrix
from repro.sparse.generators import banded, random_csr
from repro.serve.cache import OperandCache, content_hash


def tiny(seed, n=12, nnz=40):
    return random_csr(n, n, nnz, seed=seed)


class TestContentHash:
    def test_identical_matrices_hash_equal(self):
        m = tiny(1)
        copy = CSRMatrix(m.n_rows, m.n_cols, m.row_offsets.copy(),
                         m.col_ids.copy(), m.data.copy())
        assert content_hash(m) == content_hash(copy)

    def test_same_shape_different_values_hash_differently(self):
        # identical sparsity pattern, values differ: the classic
        # collision hazard for structure-only keys
        m = tiny(2)
        other = CSRMatrix(m.n_rows, m.n_cols, m.row_offsets.copy(),
                          m.col_ids.copy(), m.data * 2.0)
        assert m.shape == other.shape
        np.testing.assert_array_equal(m.col_ids, other.col_ids)
        assert content_hash(m) != content_hash(other)

    def test_same_values_different_structure_hash_differently(self):
        a = banded(16, 2, seed=3)
        b = banded(16, 3, seed=3)
        assert content_hash(a) != content_hash(b)

    def test_shape_is_part_of_the_digest(self):
        # an empty 4x6 and an empty 6x4 share all three (empty) arrays
        a = CSRMatrix.empty(4, 6)
        b = CSRMatrix.empty(6, 4)
        assert content_hash(a) != content_hash(b)


class TestGetOrPut:
    def test_miss_then_hit(self):
        cache = OperandCache(1 << 20)
        m = tiny(4)
        key1, got1, hit1 = cache.get_or_put(m)
        key2, got2, hit2 = cache.get_or_put(m)
        assert (hit1, hit2) == (False, True)
        assert key1 == key2 == content_hash(m)
        assert got1 is got2 is m
        assert cache.hits == 1 and cache.misses == 1

    def test_same_shape_different_values_get_distinct_entries(self):
        cache = OperandCache(1 << 20)
        m = tiny(5)
        other = CSRMatrix(m.n_rows, m.n_cols, m.row_offsets.copy(),
                          m.col_ids.copy(), m.data + 1.0)
        key_a, got_a, _ = cache.get_or_put(m)
        key_b, got_b, hit_b = cache.get_or_put(other)
        assert not hit_b, "different values must not hit the same entry"
        assert key_a != key_b
        np.testing.assert_array_equal(got_a.data, m.data)
        np.testing.assert_array_equal(got_b.data, other.data)

    def test_uncounted_probe_does_not_skew_hit_rate(self):
        cache = OperandCache(1 << 20)
        assert cache.get("0" * 64) is None
        assert cache.misses == 0
        assert cache.get("0" * 64, count=True) is None
        assert cache.misses == 1


class TestEviction:
    def test_an_evicted_operand_still_held_is_found_and_shared(self):
        """Eviction drops the cache's own reference, not the caller's:
        while a job holds an evicted operand its hash still finds it and
        a repeat of it is that object, not a second copy; once the last
        reference goes, so does the entry."""
        m1, m2 = tiny(10, n=64, nnz=400), tiny(11, n=64, nnz=400)
        cache = OperandCache(m1.nbytes() + 1)  # room for one of the two
        key, held, _ = cache.get_or_put(m1)
        cache.get_or_put(m2)
        assert cache.evictions == 1 and cache.stats()["entries"] == 1
        assert cache.get(key) is held
        equal = m1.copy()
        again_key, again, hit = cache.get_or_put(equal)
        assert (again_key, hit) == (key, True)
        assert again is held
        del m1, held, again
        gc.collect()
        assert cache.get(key, count=True) is None
        _, rebuilt, hit = cache.get_or_put(equal)
        assert rebuilt is equal and not hit

    def test_freshest_entry_survives_even_alone_over_budget(self):
        m = tiny(13, n=64, nnz=400)
        cache = OperandCache(16)  # absurdly small
        cache.get_or_put(m)
        assert cache.stats()["entries"] == 1
        assert cache.evictions == 0
        assert cache.get(content_hash(m)) is m

    def test_eviction_drops_spec_aliases(self):
        big = tiny(14, n=64, nnz=400)
        small = tiny(15, n=8, nnz=10)
        cache = OperandCache((8 + 1) * 8 + 10 * 16 + 8)
        key, _, _ = cache.get_or_put(big)
        cache.alias('{"gen":1}', key)
        assert cache.lookup_alias('{"gen":1}') == key
        cache.get_or_put(small)  # evicts big
        assert cache.lookup_alias('{"gen":1}') is None


class TestSharedOperandResults:
    def test_two_jobs_sharing_one_cached_operand_bit_identical(self):
        # the acceptance property: a run whose A operand came out of the
        # cache produces the byte-for-byte product of a run on a private
        # copy of the matrix
        a = random_csr(96, 96, 900, seed=20)
        b = random_csr(96, 96, 900, seed=21)
        grid = ChunkGrid.regular(a.n_rows, b.n_cols, 3, 1)

        def product(a_mat, b_mat):
            _, outputs = execute_chunk_grid(a_mat, b_mat, grid,
                                            workers=1, keep_outputs=True)
            return assemble_chunks(outputs)

        baseline = product(a.copy(), b)
        cache = OperandCache(1 << 22)
        _, one, _ = cache.get_or_put(a)
        _, two, hit = cache.get_or_put(a)
        assert hit
        got_one = product(one, b)
        got_two = product(two, b)
        for got in (got_one, got_two):
            assert got == baseline
            assert crc32_matrix(got) == crc32_matrix(baseline)
            np.testing.assert_array_equal(got.data, baseline.data)


class TestLifecycle:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            OperandCache(0)
