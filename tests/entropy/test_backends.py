"""Pluggable entropy-backend suite.

Covers the registry contract, the per-thread default scoping, the
property-based cross-backend round-trip guarantee (random tables,
non-power-of-two totals, single-symbol alphabets), bit-identical
legacy behaviour of the arithmetic default, strict rANS end-of-stream
checking, and the byte-identical fast path of ``BitWriter.write_run``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.entropy import (DEFAULT_BACKEND, BitWriter, EntropyBackend,
                           backend_from_tag, decode_symbols,
                           decode_symbols_rans, encode_symbols,
                           encode_symbols_rans, get_backend,
                           get_default_backend, list_backends,
                           register_backend, using_backend)
from repro.entropy.coder import pmf_to_cumulative
from repro.entropy.tablecoder import (encode_symbols_trans,
                                      get_table_cache)
from repro.entropy.vrans import encode_symbols_vrans

ALL_BACKENDS = ("arithmetic", "rans", "trans", "vrans")


def _random_stream(seed, n, n_ctx, alphabet, total=None):
    rng = np.random.default_rng(seed)
    pmf = rng.random((n_ctx, alphabet)) + 0.01
    total = total or max(alphabet, 1 << 16)
    tables = pmf_to_cumulative(pmf, total=total)
    contexts = rng.integers(0, n_ctx, size=n)
    symbols = rng.integers(0, alphabet, size=n)
    return symbols, tables, contexts


class TestRegistry:
    def test_all_backends_registered(self):
        assert list_backends() == sorted(ALL_BACKENDS)

    def test_get_backend_resolves_names_and_instances(self):
        for name in ALL_BACKENDS:
            backend = get_backend(name)
            assert backend.name == name
            assert get_backend(backend) is backend
            assert get_backend(name.upper()) is backend  # normalized

    def test_tags_are_unique_one_byte(self):
        tags = [get_backend(n).tag for n in ALL_BACKENDS]
        assert len(set(tags)) == len(tags)
        assert all(1 <= t <= 255 for t in tags)

    def test_tag_roundtrip(self):
        for name in ALL_BACKENDS:
            backend = get_backend(name)
            assert backend_from_tag(backend.tag) is backend

    def test_legacy_tag_is_arithmetic(self):
        assert backend_from_tag(0).name == "arithmetic"

    def test_unknown_name_lists_registered(self):
        with pytest.raises(KeyError, match="arithmetic"):
            get_backend("huffman")

    def test_unknown_tag_raises(self):
        with pytest.raises(ValueError, match="tag"):
            backend_from_tag(200)

    def test_register_rejects_collisions(self):
        class Clash(EntropyBackend):
            name = "vrans"
            tag = 77

        class TagClash(EntropyBackend):
            name = "other"
            tag = get_backend("arithmetic").tag

        with pytest.raises(ValueError):
            register_backend(Clash())
        with pytest.raises(ValueError):
            register_backend(TagClash())


class TestDefaultScoping:
    def test_default_is_arithmetic(self):
        assert get_default_backend().name == DEFAULT_BACKEND == "arithmetic"

    def test_using_backend_scopes_and_restores_on_error(self):
        with using_backend("rans") as backend:
            assert backend.name == "rans"
            assert get_default_backend().name == "rans"
            with using_backend("vrans"):
                assert get_default_backend().name == "vrans"
            assert get_default_backend().name == "rans"
        assert get_default_backend().name == "arithmetic"
        with pytest.raises(RuntimeError):
            with using_backend("vrans"):
                raise RuntimeError("boom")
        assert get_default_backend().name == "arithmetic"

    def test_using_none_is_a_no_op(self):
        with using_backend(None) as backend:
            assert backend.name == "arithmetic"

    def test_non_lifo_same_name_scopes(self):
        """Engine thread pools hold one scope per concurrent window
        job and exit in completion order — an exit must not end the
        selection of a job still compressing, and no thread's
        selection may reach the driving thread."""
        import threading

        entered = [threading.Event(), threading.Event()]
        release = [threading.Event(), threading.Event()]
        seen = {}

        def job(i):
            with using_backend("vrans"):
                entered[i].set()
                release[i].wait(timeout=10)
                seen[i] = get_default_backend().name

        threads = [threading.Thread(target=job, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for event in entered:
            assert event.wait(timeout=10)
        assert get_default_backend().name == "arithmetic"
        release[0].set()  # job 0 finishes first
        threads[0].join(timeout=10)
        release[1].set()  # job 1 was still compressing
        threads[1].join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert seen == {0: "vrans", 1: "vrans"}
        assert get_default_backend().name == "arithmetic"

    def test_concurrent_scopes_stress_threads(self):
        """Hammer same-name scopes from many threads: each thread must
        read 'vrans' inside its own scope, and the driving thread stays
        at arithmetic throughout."""
        import threading

        errors = []
        barrier = threading.Barrier(8)

        def work():
            try:
                barrier.wait(timeout=5)
                for _ in range(200):
                    with using_backend("vrans"):
                        if get_default_backend().name != "vrans":
                            errors.append("lost selection mid-scope")
                            return
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(repr(exc))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert get_default_backend().name == "arithmetic"


class TestLegacyBitIdentity:
    """The named backends must be the exact historical functions."""

    def test_arithmetic_backend_matches_legacy_bytes(self):
        symbols, tables, contexts = _random_stream(0, 700, 4, 19)
        backend = get_backend("arithmetic")
        assert (backend.encode(symbols, tables, contexts)
                == encode_symbols(symbols, tables, contexts))

    def test_rans_backend_matches_module_bytes(self):
        symbols, tables, contexts = _random_stream(1, 700, 4, 19)
        backend = get_backend("rans")
        assert (backend.encode(symbols, tables, contexts)
                == encode_symbols_rans(symbols, tables, contexts))

    def test_untagged_stream_decodes_via_arithmetic(self):
        """A pre-backend stream (raw encode_symbols bytes) decodes
        bit-identically through the default selection path."""
        symbols, tables, contexts = _random_stream(2, 400, 3, 11)
        legacy = encode_symbols(symbols, tables, contexts)
        out = get_backend(DEFAULT_BACKEND).decode(legacy, tables,
                                                  contexts)
        np.testing.assert_array_equal(out, symbols)


class TestCrossBackendProperty:
    """Random tables — including non-power-of-two totals and
    single-symbol alphabets — must round-trip identically under every
    registered backend."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10 ** 9), n=st.integers(0, 400),
           n_ctx=st.integers(1, 6), alphabet=st.integers(1, 40),
           pad=st.integers(0, 999))
    def test_roundtrip_all_backends(self, seed, n, n_ctx, alphabet,
                                    pad):
        total = alphabet + pad  # frequently not a power of two
        symbols, tables, contexts = _random_stream(seed, n, n_ctx,
                                                   alphabet, total)
        for name in ALL_BACKENDS:
            backend = get_backend(name)
            data = backend.encode(symbols, tables, contexts)
            out = backend.decode(data, tables, contexts)
            np.testing.assert_array_equal(out, symbols, err_msg=name)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10 ** 9))
    def test_vrans_agrees_with_scalar_backends(self, seed):
        symbols, tables, contexts = _random_stream(seed, 300, 4, 23,
                                                   total=5000)
        decoded = {
            name: get_backend(name).decode(
                get_backend(name).encode(symbols, tables, contexts),
                tables, contexts)
            for name in ALL_BACKENDS}
        for name, out in decoded.items():
            np.testing.assert_array_equal(out, symbols, err_msg=name)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10 ** 9), n=st.integers(0, 300),
           n_ctx=st.integers(1, 5), alphabet=st.integers(1, 12))
    def test_mixed_per_context_totals(self, seed, n, n_ctx, alphabet):
        """Rows with *different* totals (vrans's slow path, trans's
        LUT rescale) must round-trip under every backend."""
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 50, size=(n_ctx, alphabet))
        tables = np.concatenate(
            [np.zeros((n_ctx, 1), dtype=np.int64),
             np.cumsum(counts, axis=1)], axis=1)
        contexts = rng.integers(0, n_ctx, size=n)
        symbols = rng.integers(0, alphabet, size=n)
        for name in ALL_BACKENDS:
            backend = get_backend(name)
            data = backend.encode(symbols, tables, contexts)
            out = backend.decode(data, tables, contexts)
            np.testing.assert_array_equal(out, symbols, err_msg=name)

    def test_cold_and_warm_cache_are_byte_identical(self):
        """The cache-using backends must produce the same stream
        whether the table entry is freshly built or reused."""
        symbols, tables, contexts = _random_stream(12, 500, 4, 19,
                                                   total=777)
        for name in ("rans", "trans"):
            backend = get_backend(name)
            get_table_cache().clear()
            cold = backend.encode(symbols, tables, contexts)
            before = get_table_cache().stats()["hits"]
            warm = backend.encode(symbols, tables, contexts)
            assert cold == warm, name
            # the second encode reused the entry built by the first
            assert get_table_cache().stats()["hits"] > before, name
            np.testing.assert_array_equal(
                backend.decode(warm, tables, contexts), symbols,
                err_msg=name)


class TestContextValidation:
    """Negative or oversized context ids must raise, not wrap."""

    def _stream(self):
        return _random_stream(3, 50, 4, 9)

    @pytest.mark.parametrize("bad_value", [-1, -7, 4, 99])
    def test_encode_rejects_bad_contexts(self, bad_value):
        symbols, tables, contexts = self._stream()
        contexts = contexts.copy()
        contexts[10] = bad_value
        for encode in (encode_symbols, encode_symbols_rans,
                       encode_symbols_vrans, encode_symbols_trans):
            with pytest.raises(ValueError, match="context id"):
                encode(symbols, tables, contexts)

    @pytest.mark.parametrize("bad_value", [-1, 4])
    def test_decode_rejects_bad_contexts(self, bad_value):
        symbols, tables, contexts = self._stream()
        streams = {name: get_backend(name).encode(symbols, tables,
                                                  contexts)
                   for name in ALL_BACKENDS}
        contexts = contexts.copy()
        contexts[10] = bad_value
        for name, data in streams.items():
            with pytest.raises(ValueError, match="context id"):
                get_backend(name).decode(data, tables, contexts)


class TestRansStrictEndOfStream:
    def _encoded(self):
        symbols, tables, contexts = _random_stream(4, 600, 4, 21)
        return (symbols, tables, contexts,
                encode_symbols_rans(symbols, tables, contexts))

    def test_trailing_garbage_raises(self):
        _, tables, contexts, data = self._encoded()
        with pytest.raises(ValueError, match="corrupted rANS"):
            decode_symbols_rans(data + b"\x00\x00\x00\x00", tables,
                                contexts)

    def test_truncated_stream_raises(self):
        _, tables, contexts, data = self._encoded()
        assert len(data) > 12  # carries at least one word
        with pytest.raises(ValueError, match="corrupted rANS"):
            decode_symbols_rans(data[:-4], tables, contexts)

    def test_intact_stream_still_decodes(self):
        symbols, tables, contexts, data = self._encoded()
        out = decode_symbols_rans(data, tables, contexts)
        np.testing.assert_array_equal(out, symbols)


class TestBitWriterRuns:
    """write_run's whole-byte fast path must stay byte-identical."""

    @settings(max_examples=40, deadline=None)
    @given(ops=st.lists(st.tuples(st.integers(0, 1),
                                  st.integers(0, 70)),
                        min_size=0, max_size=12))
    def test_write_run_matches_bitwise_reference(self, ops):
        fast = BitWriter()
        reference = BitWriter()
        for bit, count in ops:
            fast.write_run(bit, count)
            for _ in range(count):
                reference.write(bit)
        assert fast.getvalue() == reference.getvalue()
        assert len(fast) == len(reference)

    def test_long_runs_cover_byte_path(self):
        w = BitWriter()
        w.write(1)            # partial byte first
        w.write_run(0, 23)    # top-up + 2 whole bytes + stub
        w.write_run(1, 16)    # whole bytes on a byte boundary
        reference = BitWriter()
        for bit, count in ((1, 1), (0, 23), (1, 16)):
            for _ in range(count):
                reference.write(bit)
        assert w.getvalue() == reference.getvalue()
