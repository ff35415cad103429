"""Unit tests for the per-layer KV cache."""

import numpy as np
import pytest

from repro.nn.kv_cache import KVCache, LayerKVCache


@pytest.fixture
def layer_cache():
    return LayerKVCache(n_heads=2, head_dim=4)


class TestLayerKVCache:
    def test_starts_empty(self, layer_cache):
        assert len(layer_cache) == 0
        assert layer_cache.nbytes == 0

    def test_append_accumulates(self, layer_cache, rng):
        k = rng.normal(size=(2, 3, 4))
        v = rng.normal(size=(2, 3, 4))
        layer_cache.append(k, v, np.array([0, 1, 2]))
        layer_cache.append(k[:, :1], v[:, :1], np.array([3]))
        assert len(layer_cache) == 4
        assert np.array_equal(layer_cache.token_ids, [0, 1, 2, 3])

    def test_append_shape_validation(self, layer_cache, rng):
        k = rng.normal(size=(2, 3, 4))
        with pytest.raises(ValueError):
            layer_cache.append(k, rng.normal(size=(2, 2, 4)), np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            layer_cache.append(
                rng.normal(size=(3, 3, 4)), rng.normal(size=(3, 3, 4)),
                np.array([0, 1, 2]),
            )
        with pytest.raises(ValueError):
            layer_cache.append(k, k, np.array([0, 1]))

    def test_keep_preserves_order_and_content(self, layer_cache, rng):
        k = rng.normal(size=(2, 5, 4))
        v = rng.normal(size=(2, 5, 4))
        layer_cache.append(k, v, np.arange(5))
        layer_cache.keep(np.array([0, 2, 4]))
        assert np.array_equal(layer_cache.token_ids, [0, 2, 4])
        assert np.array_equal(layer_cache.keys, k[:, [0, 2, 4]])
        assert np.array_equal(layer_cache.values, v[:, [0, 2, 4]])

    def test_keep_rejects_unsorted(self, layer_cache, rng):
        layer_cache.append(
            rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4)), np.arange(3)
        )
        with pytest.raises(ValueError):
            layer_cache.keep(np.array([2, 0]))

    def test_nbytes_fp16(self, layer_cache, rng):
        layer_cache.append(
            rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4)), np.arange(3)
        )
        # 2 tensors x 2 heads x 3 tokens x 4 dims x 2 bytes
        assert layer_cache.nbytes == 2 * 2 * 3 * 4 * 2

    def test_nbytes_is_dtype_aware(self, rng):
        cache = LayerKVCache(n_heads=2, head_dim=4, bytes_per_element=4)
        cache.append(
            rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4)), np.arange(3)
        )
        assert cache.nbytes == 2 * 2 * 3 * 4 * 4
        with pytest.raises(ValueError):
            LayerKVCache(n_heads=2, head_dim=4, bytes_per_element=0)

    def test_keep_empty_empties_the_cache(self, layer_cache, rng):
        layer_cache.append(
            rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4)), np.arange(3)
        )
        layer_cache.keep(np.array([], dtype=np.int64))
        assert len(layer_cache) == 0
        assert layer_cache.nbytes == 0
        assert layer_cache.evicted_tokens == 3

    def test_keep_rejects_out_of_range(self, layer_cache, rng):
        layer_cache.append(
            rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4)), np.arange(3)
        )
        with pytest.raises(ValueError):
            layer_cache.keep(np.array([1, 3]))  # beyond the last column
        with pytest.raises(ValueError):
            layer_cache.keep(np.array([-1, 1]))
        # Failed keeps must not disturb the cache.
        assert len(layer_cache) == 3
        assert layer_cache.evicted_tokens == 0

    def test_keep_tracks_cumulative_evictions(self, layer_cache, rng):
        layer_cache.append(
            rng.normal(size=(2, 5, 4)), rng.normal(size=(2, 5, 4)), np.arange(5)
        )
        layer_cache.keep(np.array([0, 2, 4]))
        layer_cache.keep(np.array([1]))
        assert layer_cache.evicted_tokens == 2 + 2
        assert np.array_equal(layer_cache.token_ids, [2])

    def test_append_empty_token_ids_mismatch(self, layer_cache, rng):
        with pytest.raises(ValueError):
            layer_cache.append(
                rng.normal(size=(2, 2, 4)), rng.normal(size=(2, 2, 4)),
                np.array([], dtype=np.int64),
            )

    def test_append_wrong_head_dim(self, layer_cache, rng):
        bad = rng.normal(size=(2, 3, 5))
        with pytest.raises(ValueError):
            layer_cache.append(bad, bad, np.arange(3))


class TestKVCache:
    def test_per_layer_independence(self, rng):
        cache = KVCache(n_layers=3, n_heads=2, head_dim=4)
        cache[0].append(
            rng.normal(size=(2, 2, 4)), rng.normal(size=(2, 2, 4)), np.arange(2)
        )
        assert len(cache[0]) == 2
        assert len(cache[1]) == 0
        assert cache.total_cached_tokens == 2
        assert len(cache) == 3

    def test_total_bytes(self, rng):
        cache = KVCache(n_layers=2, n_heads=2, head_dim=4)
        for layer in range(2):
            cache[layer].append(
                rng.normal(size=(2, 1, 4)), rng.normal(size=(2, 1, 4)),
                np.array([0]),
            )
        assert cache.nbytes == 2 * (2 * 2 * 1 * 4 * 2)

    def test_bytes_per_element_propagates_to_layers(self, rng):
        cache = KVCache(n_layers=2, n_heads=2, head_dim=4, bytes_per_element=4)
        cache[1].append(
            rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4)), np.arange(3)
        )
        assert cache.nbytes == 2 * 2 * 3 * 4 * 4

    def test_lengths_and_evictions_across_layers(self, rng):
        cache = KVCache(n_layers=3, n_heads=2, head_dim=4)
        for layer in range(3):
            cache[layer].append(
                rng.normal(size=(2, 4, 4)), rng.normal(size=(2, 4, 4)),
                np.arange(4),
            )
        cache[1].keep(np.array([0, 3]))
        cache[2].keep(np.array([], dtype=np.int64))
        assert cache.lengths() == [4, 2, 0]
        assert cache.total_cached_tokens == 6
        assert cache.total_evicted_tokens == 2 + 4
        # Eviction in one layer never disturbs the others.
        assert np.array_equal(cache[0].token_ids, np.arange(4))


class TestCapacityModel:
    """Capacity/length separation: preallocated page-aligned buffers."""

    def test_capacity_is_page_aligned_and_doubles(self, rng):
        cache = LayerKVCache(n_heads=2, head_dim=4, page_tokens=8)
        assert cache.capacity == 0
        cache.append(rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4)),
                     np.arange(3))
        assert cache.capacity == 8  # one page
        for i in range(3, 9):
            cache.append(rng.normal(size=(2, 1, 4)), rng.normal(size=(2, 1, 4)),
                         np.array([i]))
        assert len(cache) == 9
        assert cache.capacity == 16  # doubled, page-aligned
        assert cache.capacity % cache.page_tokens == 0

    def test_views_are_zero_copy(self, rng):
        cache = LayerKVCache(n_heads=2, head_dim=4)
        k = rng.normal(size=(2, 3, 4))
        cache.append(k, k, np.arange(3))
        assert cache.keys.base is not None  # a view, not a copy
        assert np.shares_memory(cache.keys, cache.values) is False
        np.testing.assert_array_equal(cache.keys, k)

    def test_append_does_not_reallocate_within_capacity(self, rng):
        cache = LayerKVCache(n_heads=2, head_dim=4, page_tokens=16)
        cache.reserve(16)
        buffer_before = cache.keys.base
        for i in range(16):
            cache.append(rng.normal(size=(2, 1, 4)), rng.normal(size=(2, 1, 4)),
                         np.array([i]))
        assert cache.keys.base is buffer_before

    def test_reserve_prepares_capacity(self):
        cache = LayerKVCache(n_heads=2, head_dim=4, page_tokens=8)
        cache.reserve(20)
        assert cache.capacity == 24  # ceil(20 / 8) pages
        assert len(cache) == 0

    def test_keep_compacts_in_place(self, rng):
        cache = LayerKVCache(n_heads=2, head_dim=4)
        k = rng.normal(size=(2, 6, 4))
        v = rng.normal(size=(2, 6, 4))
        cache.append(k, v, np.arange(6))
        buffer_before = cache.keys.base
        cache.keep(np.array([1, 3, 4]))
        assert cache.keys.base is buffer_before  # no reallocation
        np.testing.assert_array_equal(cache.keys, k[:, [1, 3, 4]])
        np.testing.assert_array_equal(cache.token_ids, [1, 3, 4])

    def test_padded_to_returns_zero_tail_views(self, rng):
        cache = LayerKVCache(n_heads=2, head_dim=4)
        k = rng.normal(size=(2, 5, 4))
        cache.append(k, k, np.arange(5))
        cache.keep(np.array([0, 2]))  # leaves stale tail data
        keys, values = cache.padded_to(7)
        assert keys.shape == (2, 7, 4)
        np.testing.assert_array_equal(keys[:, :2], k[:, [0, 2]])
        assert np.all(keys[:, 2:] == 0.0)
        assert np.all(values[:, 2:] == 0.0)
        with pytest.raises(ValueError):
            cache.padded_to(1)  # below the live length

    def test_nbytes_counts_live_columns_not_capacity(self, rng):
        cache = LayerKVCache(n_heads=2, head_dim=4, page_tokens=16)
        cache.append(rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4)),
                     np.arange(3))
        assert cache.nbytes == 2 * 2 * 3 * 4 * 2          # live columns
        assert cache.capacity_nbytes == 2 * 2 * 16 * 4 * 2  # one page
        assert cache.capacity_nbytes >= cache.nbytes

    def test_invalid_page_tokens_rejected(self):
        with pytest.raises(ValueError):
            LayerKVCache(n_heads=2, head_dim=4, page_tokens=0)

    def test_kvcache_reserve_covers_every_layer(self):
        cache = KVCache(n_layers=3, n_heads=2, head_dim=4, page_tokens=8)
        cache.reserve(10)
        assert all(layer.capacity == 16 for layer in cache.layers)
        assert cache.capacity_nbytes == 3 * (2 * 2 * 16 * 4 * 2)


class TestNumericsStorage:
    """Dtype-parameterized planes: the numerics ladder's KV storage.

    ``dtype=float32`` must round-trip every lifecycle operation at fp32
    precision; ``dtype=int8`` stores codes plus per-(head, column) fp32
    scales and must dequantize consistently across views, compaction,
    padding, and mid-generation appends — and the byte accounting must
    follow the storage width, scales included.
    """

    def test_fp32_views_round_trip_the_cast(self, rng):
        cache = LayerKVCache(
            n_heads=2, head_dim=4, dtype=np.float32, bytes_per_element=4
        )
        k = rng.normal(size=(2, 5, 4))
        v = rng.normal(size=(2, 5, 4))
        cache.append(k, v, np.arange(5))
        assert cache.keys.dtype == np.float32
        assert np.array_equal(cache.keys, k.astype(np.float32))
        assert np.array_equal(cache.values, v.astype(np.float32))
        assert cache.key_scales is None and cache.value_scales is None

    def test_fp32_keep_reserve_padded_to(self, rng):
        cache = LayerKVCache(
            n_heads=2, head_dim=4, dtype=np.float32, bytes_per_element=4,
            page_tokens=4,
        )
        k = rng.normal(size=(2, 6, 4)).astype(np.float32)
        v = rng.normal(size=(2, 6, 4)).astype(np.float32)
        cache.append(k, v, np.arange(6))
        cache.keep(np.array([0, 2, 5]))
        assert np.array_equal(cache.keys, k[:, [0, 2, 5]])
        cache.reserve(12)
        assert cache.capacity >= 12
        assert np.array_equal(cache.keys, k[:, [0, 2, 5]])
        pk, pv = cache.padded_to(8)
        assert pk.dtype == np.float32
        assert np.array_equal(pk[:, :3], k[:, [0, 2, 5]])
        assert np.all(pk[:, 3:] == 0.0)
        assert np.all(pv[:, 3:] == 0.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int8])
    def test_append_of_live_heads_equals_zero_filled_append(self, rng, dtype):
        """``heads=`` stores exactly what appending the full-width planes
        with the absent heads zeroed stores — over a dirty tail too."""
        heads = np.array([0, 2])
        caches = [
            LayerKVCache(n_heads=3, head_dim=4, dtype=dtype, page_tokens=4)
            for _ in range(2)
        ]
        for step, n_new in enumerate((6, 1, 3)):
            k_live = rng.normal(size=(2, n_new, 4))
            v_live = rng.normal(size=(2, n_new, 4))
            k_full = np.zeros((3, n_new, 4))
            v_full = np.zeros((3, n_new, 4))
            k_full[heads], v_full[heads] = k_live, v_live
            ids = np.arange(n_new) + 10 * step
            caches[0].append(k_live, v_live, ids, heads=heads)
            caches[1].append(k_full, v_full, ids)
            if step == 0:  # compaction leaves stale columns past the end
                for cache in caches:
                    cache.keep(np.array([0, 3]))
        live, full = caches
        assert np.array_equal(live.token_ids, full.token_ids)
        for name in ("_keys", "_values") + (
            ("_kscales", "_vscales") if live.quantized else ()
        ):
            assert np.array_equal(
                getattr(live, name)[:, :len(live)],
                getattr(full, name)[:, :len(full)],
            ), name
        with pytest.raises(ValueError, match="expected"):
            live.append(k_full, v_full, ids, heads=heads)

    def test_fp32_decode_col_appends_at_storage_dtype(self, rng):
        cache = LayerKVCache(
            n_heads=2, head_dim=4, dtype=np.float32, bytes_per_element=4
        )
        k = rng.normal(size=(2, 4)).astype(np.float32)
        v = rng.normal(size=(2, 4)).astype(np.float32)
        cache.append_decode_col(k, v, 17)
        assert len(cache) == 1
        assert np.array_equal(cache.keys[:, 0], k)
        assert np.array_equal(cache.token_ids, [17])

    def test_int8_round_trip_within_half_step(self, rng):
        cache = LayerKVCache(
            n_heads=2, head_dim=4, dtype=np.int8, bytes_per_element=1
        )
        k = rng.normal(size=(2, 5, 4))
        v = rng.normal(size=(2, 5, 4))
        cache.append(k, v, np.arange(5))
        assert cache.quantized
        assert cache.keys.dtype == np.float32  # dequantized view
        k_err = np.abs(cache.keys - k)
        v_err = np.abs(cache.values - v)
        assert np.all(k_err <= cache.key_scales[..., None] * (0.5 + 1e-5))
        assert np.all(v_err <= cache.value_scales[..., None] * (0.5 + 1e-5))

    def test_int8_keep_moves_scales_with_rows(self, rng):
        cache = LayerKVCache(
            n_heads=2, head_dim=4, dtype=np.int8, bytes_per_element=1
        )
        cache.append(
            rng.normal(size=(2, 6, 4)), rng.normal(size=(2, 6, 4)),
            np.arange(6),
        )
        before_k = cache.keys.copy()
        before_scales = cache.key_scales.copy()
        cache.keep(np.array([1, 3, 4]))
        # Compaction never requantizes: surviving dequantized columns
        # and their scales are bit-identical to the pre-keep state.
        assert np.array_equal(cache.keys, before_k[:, [1, 3, 4]])
        assert np.array_equal(cache.key_scales, before_scales[:, [1, 3, 4]])
        assert cache.evicted_tokens == 3

    def test_int8_mid_generation_eviction_then_append(self, rng):
        from repro.core.quantization import quantize_rows

        cache = LayerKVCache(
            n_heads=2, head_dim=4, dtype=np.int8, bytes_per_element=1
        )
        cache.append(
            rng.normal(size=(2, 5, 4)), rng.normal(size=(2, 5, 4)),
            np.arange(5),
        )
        cache.keep(np.array([0, 2]))
        survivors = cache.keys.copy()
        k_new = rng.normal(size=(2, 1, 4))
        v_new = rng.normal(size=(2, 1, 4))
        k_codes, k_scales = quantize_rows(k_new, bits=8)
        v_codes, v_scales = quantize_rows(v_new, bits=8)
        cache.append_decode_col_quantized(
            k_codes[:, 0], k_scales[:, 0, 0], v_codes[:, 0], v_scales[:, 0, 0], 5
        )
        assert len(cache) == 3
        assert np.array_equal(cache.keys[:, :2], survivors)
        assert np.array_equal(
            cache.keys[:, 2:], k_codes.astype(np.float32) * k_scales
        )
        assert np.array_equal(cache.token_ids, [0, 2, 5])

    def test_int8_padded_to_dequantizes_with_zero_tail(self, rng):
        cache = LayerKVCache(
            n_heads=2, head_dim=4, dtype=np.int8, bytes_per_element=1
        )
        cache.append(
            rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4)),
            np.arange(3),
        )
        pk, pv = cache.padded_to(6)
        assert pk.dtype == np.float32 and pk.shape == (2, 6, 4)
        assert np.array_equal(pk[:, :3], cache.keys)
        assert np.all(pk[:, 3:] == 0.0) and np.all(pv[:, 3:] == 0.0)

    def test_nbytes_matches_storage_width(self, rng):
        fp32 = LayerKVCache(
            n_heads=2, head_dim=4, dtype=np.float32, bytes_per_element=4
        )
        int8 = LayerKVCache(
            n_heads=2, head_dim=4, dtype=np.int8, bytes_per_element=1
        )
        k = rng.normal(size=(2, 3, 4))
        v = rng.normal(size=(2, 3, 4))
        fp32.append(k, v, np.arange(3))
        int8.append(k, v, np.arange(3))
        # 2 tensors x 2 heads x 4 dims at the declared width per column.
        assert fp32.nbytes == 3 * (2 * 2 * 4 * 4)
        # int8 adds two fp32 scales (K and V) per head per column.
        assert int8.nbytes == 3 * (2 * 2 * 4 * 1 + 2 * 2 * 4)

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ValueError):
            LayerKVCache(n_heads=2, head_dim=4, dtype=np.float16)

    def test_quantized_appends_require_matching_dtype(self, layer_cache, rng):
        with pytest.raises(ValueError):
            layer_cache.append_quantized(
                np.zeros((2, 1, 4), dtype=np.int8), np.ones((2, 1), dtype=np.float32),
                np.zeros((2, 1, 4), dtype=np.int8), np.ones((2, 1), dtype=np.float32),
                np.array([0]),
            )
        # The float decode-col append on int8 storage routes through
        # the requantizing append() instead of the raw-write fast path.
        cache = LayerKVCache(
            n_heads=2, head_dim=4, dtype=np.int8, bytes_per_element=1
        )
        cache.append_decode_col(
            rng.normal(size=(2, 4)), rng.normal(size=(2, 4)), 0
        )
        assert len(cache) == 1 and cache.quantized

    def test_kvcache_propagates_dtype_to_layers(self):
        cache = KVCache(
            n_layers=2, n_heads=2, head_dim=4, dtype=np.float32,
            bytes_per_element=4,
        )
        assert all(layer.dtype == np.dtype(np.float32) for layer in cache.layers)
