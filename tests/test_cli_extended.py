"""CLI: ingest, headroom, recipe-score, reproduce-all paths."""

import pytest

from repro.cli import main


class TestIngest:
    def test_csv_ingestion(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("count_local_keys,106.9,0.05\n")
        assert main(["ingest", "--machine", "skl", "--file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "count_local_keys" in out
        assert "STOP" in out

    def test_perf_ingestion(self, capsys, tmp_path):
        path = tmp_path / "perf.txt"
        path.write_text(
            "  1,000,000,000  OFFCORE_RESPONSE_0:ANY_REQUEST:L3_MISS_LOCAL\n"
        )
        code = main(
            [
                "ingest",
                "--machine",
                "skl",
                "--file",
                str(path),
                "--format",
                "perf",
                "--seconds",
                "1.0",
                "--routine",
                "demo",
            ]
        )
        assert code == 0
        assert "demo" in capsys.readouterr().out

    def test_perf_without_seconds_errors(self, capsys, tmp_path):
        path = tmp_path / "perf.txt"
        path.write_text("1 X\n")
        code = main(
            ["ingest", "--machine", "skl", "--file", str(path), "--format", "perf"]
        )
        assert code == 2

    def test_bad_measurement_reports_error(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# nothing here\n")
        code = main(["ingest", "--machine", "skl", "--file", str(path)])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestHeadroom:
    def test_map_rendered(self, capsys):
        assert main(["headroom", "--machine", "knl"]) == 0
        out = capsys.readouterr().out
        assert "verdict" in out
        assert "streaming" in out

    def test_concept_machines_available(self, capsys):
        assert main(["headroom", "--machine", "hbm3"]) == 0


class TestRecipeScore:
    def test_score_is_clean(self, capsys):
        assert main(["recipe-score"]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out


class TestReproduceAll:
    def test_all_tables(self, capsys):
        assert main(["reproduce"]) == 0
        out = capsys.readouterr().out
        for table in ("IV", "V", "VI", "VII", "VIII", "IX"):
            assert f"Table {table} reproduction" in out
        assert "all rows within tolerance" in out


class TestLenientIngest:
    def test_bad_rows_survive_with_quality_report(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "count_local_keys,106.9,0.05\n"
            "broken_row,not_a_number,0.5\n"
        )
        code = main(
            ["ingest", "--machine", "skl", "--file", str(path), "--lenient"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "data quality" in out
        assert "bad-cell" in out
        assert "error budget widened" in out
        assert "count_local_keys" in out

    def test_strict_mode_still_dies_on_bad_row(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("ok,50.0,0.5\nbroken,not_a_number,0.5\n")
        code = main(["ingest", "--machine", "skl", "--file", str(path)])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_clean_input_prints_no_quality_block(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("count_local_keys,106.9,0.05\n")
        code = main(
            ["ingest", "--machine", "skl", "--file", str(path), "--lenient"]
        )
        assert code == 0
        assert "data quality" not in capsys.readouterr().out


class TestCharacterizeResume:
    ARGS = ["characterize", "--machine", "skl", "--levels", "3"]

    def test_checkpoint_then_resume_replays(self, capsys, tmp_path):
        ck = tmp_path / "ck.jsonl"
        assert main(self.ARGS + ["--checkpoint", str(ck)]) == 0
        first = capsys.readouterr().out
        assert ck.exists()
        code = main(self.ARGS + ["--checkpoint", str(ck), "--resume"])
        resumed = capsys.readouterr().out
        assert code == 0
        assert "resuming from checkpoint" in resumed
        assert "3 level(s) already done" in resumed
        # The replayed profile must match the fresh one line for line
        # (wall time and cache stats legitimately differ).
        profile = first[first.index("latency profile") : first.index("characterized in")]
        assert profile in resumed

    def test_no_resume_clears_stale_checkpoint(self, capsys, tmp_path):
        ck = tmp_path / "ck.jsonl"
        assert main(self.ARGS + ["--checkpoint", str(ck)]) == 0
        capsys.readouterr()
        assert main(self.ARGS + ["--checkpoint", str(ck)]) == 0
        assert "cleared stale checkpoint" in capsys.readouterr().out

    def test_resume_without_checkpoint_is_an_error(self, capsys):
        code = main(self.ARGS + ["--resume"])
        assert code == 2
        assert "--checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [ARGS, ["reproduce", "--table", "isx"]],
        ids=["characterize", "reproduce"],
    )
    def test_fan_out_flags_reach_fan_out(self, argv, monkeypatch):
        import os

        import repro.perf.parallel as parallel

        seen = []
        real_fan_out = parallel.fan_out

        def spy(func, items, **kwargs):
            seen.append(kwargs)
            return real_fan_out(func, items, **kwargs)

        monkeypatch.setattr(parallel, "fan_out", spy)
        # setenv (not delenv) so teardown restores the original state
        # even if main() did write the variables.
        monkeypatch.setenv("REPRO_RETRIES", "")
        monkeypatch.setenv("REPRO_TIMEOUT_S", "")
        code = main(argv + ["-j", "1", "--retries", "2", "--timeout-s", "30"])
        assert code == 0
        assert seen
        for kwargs in seen:
            assert kwargs["jobs"] == 1
            assert kwargs["retries"] == 2
            assert kwargs["timeout_s"] == 30.0
        # Passed as arguments, not mirrored into the environment.
        assert os.environ["REPRO_RETRIES"] == os.environ["REPRO_TIMEOUT_S"] == ""
