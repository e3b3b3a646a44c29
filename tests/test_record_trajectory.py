"""The trajectory recorder's history handling (benchmarks/record_trajectory.py).

Only the cheap persistence layer is tested — ``load_history`` /
``append_point`` — not the measurement functions (those simulate for
seconds and are exercised by the CI benchmark leg).
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_MODULE_PATH = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "record_trajectory.py"
)


@pytest.fixture(scope="module")
def recorder():
    spec = importlib.util.spec_from_file_location("record_trajectory", _MODULE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_missing_file_starts_fresh(recorder, tmp_path):
    assert recorder.load_history(tmp_path / "absent.json") == []


def test_valid_history_preserved(recorder, tmp_path):
    path = tmp_path / "bench.json"
    history = [{"schema_version": 1, "git_sha": "abc"}]
    path.write_text(json.dumps(history))
    assert recorder.load_history(path) == history


def test_corrupt_json_warns_and_starts_fresh(recorder, tmp_path, capsys):
    path = tmp_path / "bench.json"
    path.write_text("{not json at all")
    assert recorder.load_history(path) == []
    err = capsys.readouterr().err
    assert "warning" in err and "fresh trajectory" in err
    # The damaged original is preserved, not destroyed.
    backup = path.with_suffix(".json.corrupt")
    assert backup.exists() and backup.read_text() == "{not json at all"
    assert not path.exists()


def test_non_list_payload_warns_and_starts_fresh(recorder, tmp_path, capsys):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"oops": "a dict"}))
    assert recorder.load_history(path) == []
    assert "not a JSON list" in capsys.readouterr().err


def test_append_point_accumulates(recorder, tmp_path):
    path = tmp_path / "bench.json"
    recorder.append_point(path, {"schema_version": recorder.SCHEMA_VERSION, "n": 1})
    recorder.append_point(path, {"schema_version": recorder.SCHEMA_VERSION, "n": 2})
    history = json.loads(path.read_text())
    assert [entry["n"] for entry in history] == [1, 2]
    assert all(
        entry["schema_version"] == recorder.SCHEMA_VERSION for entry in history
    )


def test_append_point_recovers_from_corruption(recorder, tmp_path, capsys):
    path = tmp_path / "bench.json"
    path.write_text("\x00\x01 garbage")
    recorder.append_point(path, {"n": 1})
    capsys.readouterr()
    assert json.loads(path.read_text()) == [{"n": 1}]


def test_out_path_is_bench_keyed(recorder):
    assert recorder.out_path("analytic_speedup").name == "BENCH_analytic_speedup.json"
    # The original single-bench location is preserved for old tooling.
    assert recorder.OUT_PATH == recorder.out_path("sim_throughput")


def test_bench_registry_names(recorder):
    assert set(recorder.BENCHES) == {"sim_throughput", "analytic_speedup"}
    assert all(callable(fn) for fn in recorder.BENCHES.values())


def test_record_rejects_unknown_bench(recorder):
    with pytest.raises(SystemExit, match="unknown bench"):
        recorder.record(["no_such_bench"])


def test_sim_throughput_record_shape(recorder, monkeypatch, capsys):
    """v4 records carry the all-hit ``batch`` block and no ``miss_batch``."""
    monkeypatch.setattr(recorder, "_events_per_sec", lambda m: 1e5)
    monkeypatch.setattr(recorder, "_gen_throughput", lambda: 1e6)
    monkeypatch.setattr(recorder, "_warm_cache_speedup", lambda tmp: 50.0)
    monkeypatch.setattr(recorder, "_git_sha", lambda: "0" * 40)
    batch = {
        "speedup": 6.0,
        "batch_accesses_per_sec": 6e5,
        "event_accesses_per_sec": 1e5,
        "batched_fraction": 0.95,
        "fingerprint_equal": True,
    }
    monkeypatch.setattr(recorder, "_batch_speedup", lambda: batch)
    entry = recorder._record_sim_throughput()
    assert entry["schema_version"] == recorder.SCHEMA_VERSION == 4
    assert "miss_batch" not in entry
    assert entry["batch"] == batch
    recorder._summarize("sim_throughput", entry)
    assert "batch fast path: 6.0x" in capsys.readouterr().out
