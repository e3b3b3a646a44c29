"""CLI surface: every subcommand end to end (capsys-based)."""

import json

import pytest

from repro.cli import build_parser, main


class TestMachines:
    def test_lists_all_three(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "skl" in out and "knl" in out and "a64fx" in out


class TestAnalyze:
    def test_isx_knl_analysis(self, capsys):
        code = main(
            [
                "analyze",
                "--machine",
                "knl",
                "--bandwidth",
                "233",
                "--pattern",
                "random",
                "--routine",
                "count_local_keys",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "count_local_keys" in out
        assert "L1" in out
        assert "sw_prefetch_l2" in out  # the recipe's headline move

    def test_saturated_case_stops(self, capsys):
        main(
            [
                "analyze",
                "--machine",
                "skl",
                "--bandwidth",
                "106.9",
                "--pattern",
                "random",
            ]
        )
        assert "STOP" in capsys.readouterr().out


class TestCharacterize:
    def test_profile_output_and_save(self, capsys, tmp_path, monkeypatch):
        out_path = tmp_path / "p.json"
        # Shrink the sweep for test speed.
        code = main(
            [
                "characterize",
                "--machine",
                "skl",
                "--levels",
                "3",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        assert "latency profile" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        assert doc["machine"] == "skl"


class TestReproduce:
    def test_single_table(self, capsys):
        assert main(["reproduce", "--table", "comd"]) == 0
        out = capsys.readouterr().out
        assert "Table VII" in out
        assert "within tolerance" in out

    def test_figure2(self, capsys):
        assert main(["figure2"]) == 0
        assert "L1-MSHR ceiling" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_machine_rejected_by_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "--machine", "epyc", "--bandwidth", "1"])


#: Which run flags each command honours (and therefore accepts).
RUN_FLAG_TABLE = {
    "characterize": {"--jobs", "--retries", "--timeout-s", "--no-cache", "--sanitize"},
    "reproduce": {"--jobs", "--retries", "--timeout-s"},
    "simulate": {"--no-cache", "--batch", "--sanitize"},
    "advisor": set(),
    "crossval-analytic": {"--jobs", "--retries", "--timeout-s", "--no-cache", "--sanitize"},
}
_COMMAND_ARGS = {
    "characterize": ["--machine", "skl"],
    "reproduce": [],
    "simulate": ["--machine", "skl", "--workload", "isx"],
    "advisor": ["--machine", "skl", "--workload", "isx"],
    "crossval-analytic": [],
}
#: Every spelling of each run flag, with a valid value.
_FLAG_SPELLINGS = {
    "--jobs": (["--jobs", "2"], ["-j", "2"]),
    "--retries": (["--retries", "1"],),
    "--timeout-s": (["--timeout-s", "5"],),
    "--no-cache": (["--no-cache"],),
    "--batch": (["--batch"], ["--no-batch"]),
    "--sanitize": (["--sanitize"],),
}


class TestRunFlagTable:
    @pytest.mark.parametrize(
        "command,flag,spelling",
        [
            pytest.param(command, flag, spelling, id=f"{command} {' '.join(spelling)}")
            for command in RUN_FLAG_TABLE
            for flag, spellings in _FLAG_SPELLINGS.items()
            for spelling in spellings
        ],
    )
    def test_command_accepts_exactly_its_run_flags(
        self, command, flag, spelling, capsys
    ):
        argv = [command] + _COMMAND_ARGS[command] + spelling
        if flag in RUN_FLAG_TABLE[command]:
            build_parser().parse_args(argv)
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_workload_choices_match_the_registry(self):
        from repro.cli import WORKLOAD_NAMES
        from repro.workloads import ALL_WORKLOADS

        assert WORKLOAD_NAMES == tuple(w.name for w in ALL_WORKLOADS)
