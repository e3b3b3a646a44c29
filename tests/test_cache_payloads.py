"""Payload store, persistent tallies, and stats scan (repro.perf.cache).

The generic ``(kind, digest)`` payload store hosts the queueing-model
calibrations beside the SimStats shards; these tests pin its layout
(never colliding with the two-hex sim shards), quarantine behavior,
the append-only tallies ledger, and the ``repro cache stats`` scan.
"""

from __future__ import annotations

import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import CacheKeyError
from repro.perf.cache import (
    SCHEMA_VERSION,
    TALLIES_FILE,
    CacheCounters,
    SimCache,
    collect_stats,
    read_tallies,
    stable_digest,
)
from repro.sim.stats import SimStats

DIGEST = stable_digest({"payload": "unit"})

#: Arbitrary JSON values, small enough to keep examples fast.
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

_FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture
def cache(tmp_path):
    return SimCache(tmp_path, enabled=True)


class TestPayloadStore:
    def test_round_trip(self, cache):
        doc = {"a": 1, "b": [1.5, 2.5]}
        cache.store_payload(DIGEST, doc, kind="calibration")
        assert cache.load_payload(DIGEST, kind="calibration") == doc
        assert cache.counters.hits == 1 and cache.counters.stores == 1

    def test_missing_is_miss(self, cache):
        assert cache.load_payload(DIGEST, kind="calibration") is None
        assert cache.counters.misses == 1

    def test_kind_namespaces_are_disjoint(self, cache):
        cache.store_payload(DIGEST, {"k": "one"}, kind="calibration")
        assert cache.load_payload(DIGEST, kind="other-kind") is None
        assert cache.load_payload(DIGEST, kind="calibration") == {"k": "one"}

    def test_layout_never_collides_with_sim_shards(self, cache):
        path = cache.payload_path_for(DIGEST, kind="calibration")
        # kind dir sits beside the two-hex shard dirs, never inside them
        assert path.parent.parent.name == "calibration"
        assert path.parent.parent.parent == cache.cache_dir

    @pytest.mark.parametrize("bad", ["ab", "1f", "", "has space", ".dot", "a/b"])
    def test_invalid_kinds_rejected(self, cache, bad):
        with pytest.raises(CacheKeyError):
            cache.payload_path_for(DIGEST, kind=bad)

    def test_corrupt_payload_quarantined(self, cache):
        cache.store_payload(DIGEST, {"ok": True}, kind="calibration")
        path = cache.payload_path_for(DIGEST, kind="calibration")
        path.write_text("garbage{")
        with pytest.warns(UserWarning, match="corrupt calibration"):
            assert cache.load_payload(DIGEST, kind="calibration") is None
        assert path.with_suffix(".corrupt").exists()
        assert not path.exists()

    def test_wrong_digest_rejected(self, cache):
        path = cache.payload_path_for(DIGEST, kind="calibration")
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({"schema": 3, "digest": "not-it", "payload": {}})
        )
        with pytest.warns(UserWarning):
            assert cache.load_payload(DIGEST, kind="calibration") is None

    def test_disabled_cache_is_inert(self, tmp_path):
        cache = SimCache(tmp_path, enabled=False)
        cache.store_payload(DIGEST, {"a": 1}, kind="calibration")
        assert cache.load_payload(DIGEST, kind="calibration") is None
        assert not any(tmp_path.iterdir())


class TestTallies:
    def test_flush_appends_deltas(self, cache):
        cache.counters.hits += 2
        cache.counters.misses += 1
        cache.flush_tallies()
        cache.counters.hits += 3
        cache.flush_tallies()
        total = read_tallies(cache.cache_dir)
        assert (total.hits, total.misses) == (5, 1)

    def test_flush_skips_when_idle(self, cache):
        cache.flush_tallies()
        assert not (cache.cache_dir / "tallies.jsonl").exists()

    def test_torn_ledger_line_skipped(self, cache):
        cache.counters.hits += 1
        cache.flush_tallies()
        with open(cache.cache_dir / "tallies.jsonl", "a") as fh:
            fh.write('{"hits": 4, "mis')  # torn append
        total = read_tallies(cache.cache_dir)
        assert total.hits == 1

    def test_counters_diff_and_add(self):
        a = CacheCounters(hits=5, misses=3, stores=2, errors=1)
        b = a.snapshot()
        a.hits += 2
        assert a.diff(b).hits == 2
        b.add(CacheCounters(hits=1))
        assert b.hits == 6


class TestCollectStats:
    def test_scan_counts_both_stores(self, cache):
        cache.store_payload(DIGEST, {"a": 1}, kind="calibration")
        shard = cache.cache_dir / DIGEST[:2]
        shard.mkdir(parents=True, exist_ok=True)
        (shard / f"{DIGEST}.json").write_text("{}")
        (shard / "dead.corrupt").write_text("x")
        cache.counters.misses += 4
        stats = collect_stats(cache)
        assert stats.usage["sim"].entries == 1
        assert stats.usage["calibration"].entries == 1
        assert stats.total_entries == 2
        assert stats.total_bytes > 0
        assert stats.corrupt_entries == 1
        # collect_stats flushes the live counters into the ledger first.
        assert stats.tallies.misses == 4

    def test_scan_of_empty_dir(self, cache):
        stats = collect_stats(cache)
        assert stats.total_entries == 0
        assert stats.usage["sim"].entries == 0


@pytest.fixture(scope="module")
def stats_doc(skl):
    """A real SimStats document to mutate into near-valid entries."""
    from repro.sim import SimConfig, run_trace
    from repro.xmem.kernels import throughput_trace

    trace = throughput_trace(threads=1, accesses_per_thread=40, line_bytes=64)
    return run_trace(trace, SimConfig(machine=skl, sim_cores=1)).to_dict()


@st.composite
def _entry_bytes(draw, body_key, body):
    """Entry-file contents: raw bytes, arbitrary JSON, or a valid header
    over a damaged body (the only shape that reaches the body decoder)."""
    kind = draw(st.sampled_from(["bytes", "json", "header"]))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    if kind == "json":
        return json.dumps(draw(_JSON)).encode()
    doc = {"schema": SCHEMA_VERSION, "digest": DIGEST, body_key: draw(body)}
    return json.dumps(doc).encode()


@st.composite
def _damaged_stats(draw, doc):
    """``doc`` with one field replaced or dropped, or arbitrary JSON."""
    if draw(st.booleans()):
        return draw(_JSON)
    damaged = dict(doc)
    key = draw(st.sampled_from(sorted(damaged)))
    if draw(st.booleans()):
        del damaged[key]
    else:
        damaged[key] = draw(_JSON)
    return damaged


def _load_or_quarantine(load, path: Path, blob: bytes):
    """Write ``blob`` as the entry, load it, and check the two outcomes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(blob)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        result = load()
    if result is None:
        assert not path.exists()
        assert path.with_suffix(".corrupt").read_bytes() == blob
    return result


class TestHostileEntries:
    """Entry files are the resume store: any bytes load or quarantine."""

    @pytest.mark.parametrize("blob", [b"[]", b"1", b'"x"', b"null", b"[" * 100_000])
    def test_non_object_entry_is_a_quarantined_miss(self, cache, blob):
        for load, path in (
            (lambda: cache.load(DIGEST), cache.path_for(DIGEST)),
            (
                lambda: cache.load_payload(DIGEST, kind="calibration"),
                cache.payload_path_for(DIGEST, kind="calibration"),
            ),
        ):
            assert _load_or_quarantine(load, path, blob) is None
        assert cache.counters.errors == 2

    @given(data=st.data())
    @_FUZZ
    def test_any_sim_entry_loads_or_is_quarantined(self, stats_doc, data):
        blob = data.draw(_entry_bytes("stats", _damaged_stats(stats_doc)))
        with tempfile.TemporaryDirectory() as root:
            cache = SimCache(root, enabled=True)
            result = _load_or_quarantine(
                lambda: cache.load(DIGEST), cache.path_for(DIGEST), blob
            )
        assert result is None or isinstance(result, SimStats)

    @given(blob=_entry_bytes("payload", _JSON))
    @_FUZZ
    def test_any_payload_entry_loads_or_is_quarantined(self, blob):
        with tempfile.TemporaryDirectory() as root:
            cache = SimCache(root, enabled=True)
            result = _load_or_quarantine(
                lambda: cache.load_payload(DIGEST, kind="calibration"),
                cache.payload_path_for(DIGEST, kind="calibration"),
                blob,
            )
        assert result is None or isinstance(result, dict)


class TestHostileLedger:
    def test_malformed_lines_are_skipped(self, cache):
        cache.counters.hits += 2
        cache.flush_tallies()
        with open(cache.cache_dir / TALLIES_FILE, "a") as fh:
            fh.write('[1]\n"x"\n{"hits": 1e400}\n{"hits": NaN}\n')
        cache.counters.hits += 3
        cache.flush_tallies()
        assert read_tallies(cache.cache_dir).hits == 5
        assert collect_stats(cache).tallies.hits == 5

    @given(
        lines=st.lists(
            st.binary(max_size=24).map(lambda b: b.decode("latin-1"))
            | _JSON.map(json.dumps)
            | st.dictionaries(
                st.sampled_from(["hits", "misses", "stores", "errors"]),
                _JSON | st.just(float("inf")) | st.just(1e300),
            ).map(json.dumps),
            max_size=6,
        )
    )
    @_FUZZ
    def test_any_ledger_reads_without_raising(self, lines):
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / TALLIES_FILE
            path.write_bytes("\n".join(lines).encode("utf-8", "surrogatepass"))
            total = read_tallies(Path(root))
        assert all(
            isinstance(n, int)
            for n in (total.hits, total.misses, total.stores, total.errors)
        )
