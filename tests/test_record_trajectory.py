"""The benchmark ledger appender (benchmarks/record_trajectory.py).

The benchmark runs themselves take minutes, so ``spread.one_run`` is
replaced by a fake that returns perfbench-shaped results instantly; what
is tested is the record built from them and the ledger's persistence.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_MODULE_PATH = _ROOT / "benchmarks" / "record_trajectory.py"
_SPEC = json.loads((_ROOT / "BENCHMARK.json").read_text())
_WORKLOADS = [w["name"] for w in _SPEC["workloads"]]
_METRICS = [m["name"] for m in _SPEC["end_to_end"]]


@pytest.fixture(scope="module")
def recorder():
    spec = importlib.util.spec_from_file_location("record_trajectory", _MODULE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _FakeRuns:
    """Stands in for ``spread.one_run``; records every call it gets."""

    def __init__(self, failed_workload=None):
        self.calls = []
        self.failed_workload = failed_workload

    def __call__(self, workload, seed, seconds, trace):
        self.calls.append((workload, seed, seconds, trace))
        if trace:
            metrics = {
                "sim.engine.self_s": 3.0,
                "sim.cache.self_s": 1.0,
                "cli.import_s": 0.5,
                "sim.events": 1e6,
            }
        else:
            metrics = {name: float(seed) for name in _METRICS}
        failed = int(workload == self.failed_workload)
        return {
            "correct": not failed,
            "attempted": 20,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
        }


@pytest.fixture
def fake_runs(recorder, monkeypatch, tmp_path):
    fake = _FakeRuns()
    monkeypatch.setattr(recorder.spread, "one_run", fake)
    monkeypatch.setattr(recorder, "LEDGER", tmp_path / "BENCH_e2e.json")
    return fake


def _git(cwd, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
        cwd=cwd, check=True, capture_output=True,
    )


def test_record_holds_every_workload_and_metric(recorder, fake_runs):
    entry = recorder.record()
    assert entry["schema_version"] == recorder.SCHEMA_VERSION
    assert list(entry["end_to_end"]) == _WORKLOADS and len(_WORKLOADS) == 3
    for workload in _WORKLOADS:
        metrics = entry["end_to_end"][workload]
        assert list(metrics) == _METRICS and len(_METRICS) == 5
        for summary in metrics.values():
            # Seeds 1-10 report their seed as every metric's value.
            assert summary == {"median": 5.5, "q1": 2.75, "q3": 8.25}
    plain = [(w, s) for w, s, _, trace in fake_runs.calls if not trace]
    traced = [(w, s) for w, s, _, trace in fake_runs.calls if trace]
    assert plain == [(w, s) for w in _WORKLOADS for s in range(1, 11)]
    assert traced == [(w, recorder.TRACE_SEED) for w in _WORKLOADS]
    assert {c[2] for c in fake_runs.calls} == {_SPEC["run_seconds"]}


def test_layer_shares_of_traced_run(recorder, fake_runs):
    layers = recorder.record()["layers"]
    assert list(layers) == _WORKLOADS
    for layer in layers.values():
        assert layer["profiled_s"] == 4.0
        assert layer["shares"] == {"sim.engine": 0.75, "sim.cache": 0.25}
        assert layer["spans_s"] == {"cli.import_s": 0.5}


def test_dirty_flag_follows_the_tree(recorder, fake_runs, monkeypatch, tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "f.txt").write_text("a\n")
    _git(repo, "add", "f.txt")
    _git(repo, "commit", "-q", "-m", "init")
    monkeypatch.setattr(recorder, "REPO_ROOT", repo)
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=repo, capture_output=True, text=True
    ).stdout.strip()
    clean = recorder.record()
    assert clean["git_sha"] == sha and clean["dirty"] is False
    (repo / "f.txt").write_text("b\n")
    dirty = recorder.record()
    assert dirty["git_sha"] == sha and dirty["dirty"] is True


def test_main_appends_one_point(recorder, fake_runs, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["record_trajectory.py"])
    assert recorder.main() == 0
    assert recorder.main() == 0
    history = json.loads(recorder.LEDGER.read_text())
    assert len(history) == 2
    assert "appended" in capsys.readouterr().out


def test_failed_run_appends_nothing_and_exits_1(
    recorder, fake_runs, monkeypatch, capsys
):
    fake_runs.failed_workload = _WORKLOADS[1]
    monkeypatch.setattr("sys.argv", ["record_trajectory.py"])
    recorder.LEDGER.write_text("[]\n")
    assert recorder.main() == 1
    assert recorder.LEDGER.read_text() == "[]\n"
    assert "nothing appended" in capsys.readouterr().out
    # It stops at the failing workload rather than running the rest.
    assert {c[0] for c in fake_runs.calls} == set(_WORKLOADS[:2])


def test_no_options_accepted(recorder, fake_runs, monkeypatch):
    monkeypatch.setattr("sys.argv", ["record_trajectory.py", "sim_throughput"])
    with pytest.raises(SystemExit) as info:
        recorder.main()
    assert info.value.code == 2
    assert fake_runs.calls == []


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
