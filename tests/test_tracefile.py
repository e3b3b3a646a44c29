"""On-disk trace files: round trips, read-only loads, and integrity."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.io import TRACE_FILE_FORMAT, load_trace, save_trace
from repro.io.tracefile import TRACE_FILE_VERSION
from repro.sim.coltrace import ColumnarThreadTrace, ColumnarTrace, trace_digest
from repro.sim.trace import Access, AccessKind


def _fixture_trace():
    # Kind codes: 0 load, 1 store, 3 L2 software prefetch.
    return ColumnarTrace(
        (
            ColumnarThreadTrace(0, [0, 64, 128], [0, 3, 1], [1.0, 0.5, 2.0]),
            ColumnarThreadTrace(1, [4096], [0], [3.0]),
        ),
        routine="filetest",
        line_bytes=64,
    )


def _write_with_meta(path, meta_doc):
    """A two-thread trace file whose ``meta`` member is ``meta_doc``."""
    members = {"meta": np.frombuffer(json.dumps(meta_doc).encode(), dtype=np.uint8)}
    for i, thread in enumerate(_fixture_trace().threads):
        members[f"t{i}_addr"] = thread.addr
        members[f"t{i}_kind"] = thread.kind
        members[f"t{i}_gap"] = thread.gap_cycles
    with open(path, "wb") as handle:
        np.savez(handle, **members)


class TestRoundTrip:
    def test_save_load_preserves_content_and_digest(self, tmp_path):
        trace = _fixture_trace()
        path = tmp_path / "t.trace"
        meta = save_trace(path, trace)
        assert meta["format"] == TRACE_FILE_FORMAT
        loaded = load_trace(path)
        assert isinstance(loaded, ColumnarTrace)
        assert loaded.threads[0].accesses == (
            Access(0, AccessKind.LOAD, 1.0),
            Access(64, AccessKind.SWPF_L2, 0.5),
            Access(128, AccessKind.STORE, 2.0),
        )
        assert loaded.routine == "filetest"
        assert trace_digest(loaded) == meta["sha256"] == trace_digest(trace)

    def test_columnar_input_round_trips(self, tmp_path):
        col = _fixture_trace()
        path = tmp_path / "t.trace"
        save_trace(path, col)
        assert load_trace(path) == col

    def test_compressed_round_trips_via_fallback(self, tmp_path):
        trace = _fixture_trace()
        path = tmp_path / "t.trace"
        save_trace(path, trace, compress=True)
        assert load_trace(path) == trace


class TestMmapFastPath:
    """Loaded arrays are read-only."""

    def test_loaded_arrays_read_only(self, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(path, _fixture_trace())
        loaded = load_trace(path)
        with pytest.raises(ValueError):
            loaded.threads[0].addr[0] = 99


class TestIntegrity:
    def test_corrupted_payload_detected(self, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(path, _fixture_trace())
        # Flip a byte inside the first address array's payload (stored
        # verbatim in an uncompressed archive).
        data = bytearray(path.read_bytes())
        offset = data.find(_fixture_trace().threads[0].addr.tobytes())
        assert offset > 0
        data[offset + 8] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError):
            load_trace(path)

    def test_not_a_trace_file(self, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez(path, x=np.arange(3))
        with pytest.raises(TraceError, match="meta"):
            load_trace(path)

    def test_bare_npy_file_rejected(self, tmp_path):
        path = tmp_path / "array.npy"
        np.save(path, np.arange(3))
        with pytest.raises(TraceError, match="not an .npz archive"):
            load_trace(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.trace"
        path.write_bytes(b"not a zip at all")
        with pytest.raises(TraceError):
            load_trace(path)


def _valid_meta():
    trace = _fixture_trace()
    return {
        "format": TRACE_FILE_FORMAT,
        "version": TRACE_FILE_VERSION,
        "routine": trace.routine,
        "line_bytes": trace.line_bytes,
        "thread_ids": [0, 1],
        "sha256": trace_digest(trace),
    }


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

#: Well-formed headers with arbitrary values under the keys load_trace
#: parses, so generated documents get past the format/version checks.
_NEAR_VALID_META = st.fixed_dictionaries(
    {"format": st.just(TRACE_FILE_FORMAT), "version": st.just(TRACE_FILE_VERSION)},
    optional={
        "routine": _JSON,
        "line_bytes": st.integers(-2, 128) | _JSON,
        "thread_ids": st.lists(st.integers(-1, 3), max_size=3) | _JSON,
        "sha256": st.text(max_size=4),
    },
)


class TestMalformedMetadata:
    @pytest.mark.parametrize("missing", ["thread_ids", "routine", "line_bytes"])
    def test_missing_key_is_trace_error(self, tmp_path, missing):
        meta = _valid_meta()
        del meta[missing]
        path = tmp_path / "t.trace"
        _write_with_meta(path, meta)
        with pytest.raises(TraceError, match=missing):
            load_trace(path)

    def test_non_object_meta_is_trace_error(self, tmp_path):
        path = tmp_path / "t.trace"
        _write_with_meta(path, [TRACE_FILE_FORMAT, TRACE_FILE_VERSION])
        with pytest.raises(TraceError, match="JSON object"):
            load_trace(path)

    def test_non_integer_line_bytes_is_trace_error(self, tmp_path):
        path = tmp_path / "t.trace"
        _write_with_meta(path, {**_valid_meta(), "line_bytes": "x"})
        with pytest.raises(TraceError, match="malformed"):
            load_trace(path)

    @given(meta=_JSON | _NEAR_VALID_META)
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_arbitrary_meta_loads_or_raises_trace_error(self, tmp_path, meta):
        path = tmp_path / "t.trace"
        _write_with_meta(path, meta)
        try:
            load_trace(path)
        except TraceError:
            pass

    @given(data=st.data())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_truncated_file_loads_or_raises_trace_error(self, tmp_path, data):
        path = tmp_path / "t.trace"
        save_trace(path, _fixture_trace())
        blob = path.read_bytes()
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        path.write_bytes(blob[:cut])
        try:
            load_trace(path)
        except TraceError:
            pass

    @given(data=st.data())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_flipped_bit_loads_or_raises_trace_error(self, tmp_path, data):
        path = tmp_path / "t.trace"
        save_trace(path, _fixture_trace())
        blob = bytearray(path.read_bytes())
        pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
        blob[pos] ^= 1 << data.draw(st.integers(0, 7), label="bit")
        path.write_bytes(bytes(blob))
        try:
            load_trace(path)
        except TraceError:
            pass
