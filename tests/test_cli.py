"""Command-line surface: exit codes, report round-trips, determinism."""

import json
import subprocess
import sys

import pytest

from splitrep.cli import (
    EXIT_LOWER_BOUND,
    EXIT_TABLE_MISMATCH,
    EXIT_USAGE,
    EXIT_VALIDATION,
    RunReport,
    main,
)
from splitrep.words import parse_word


# far above any CLI call below; a command that does not return fails its
# test instead of hanging the suite, and subprocess.run kills it
CLI_TIMEOUT_S = 300


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "splitrep.cli", *argv],
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    return proc


class TestAnalyze:
    def test_disjoint_clean(self, capsys):
        assert main(["analyze", "0001110", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "no disjoint length-2 pair" in out
        assert "period: 6" in out

    def test_split_clean(self, capsys):
        assert main(["analyze", "0011", "--t", "1"]) == 0
        out = capsys.readouterr().out
        assert "no split 1-overlap" in out
        assert "no reversed split 1-overlap" in out

    def test_violation_reported(self, capsys):
        assert main(["analyze", "00110", "--t", "1"]) == 0
        out = capsys.readouterr().out
        assert "split-t-overlap" in out

    def test_empty_word_is_usage_error(self):
        proc = run_cli("analyze", "")
        assert proc.returncode == EXIT_USAGE

    def test_malformed_word_is_usage_error(self):
        proc = run_cli("analyze", "01a1")
        assert proc.returncode == EXIT_USAGE

    def test_symbol_out_of_range(self):
        proc = run_cli("analyze", "012", "--k", "2")
        assert proc.returncode == EXIT_USAGE


class TestSearchCommand:
    def test_exact_exit_zero(self, capsys):
        assert main(["search", "S", "--k", "3", "--t", "1"]) == 0
        out = capsys.readouterr().out
        assert "max_length: 9" in out
        assert "witness: 012021012" in out

    def test_lower_bound_exit_three(self, capsys):
        code = main(["search", "C", "--k", "2", "--n", "5",
                     "--budget", "100", "--split-depth", "0"])
        assert code == EXIT_LOWER_BOUND

    def test_missing_param_usage(self):
        proc = run_cli("search", "C", "--k", "2")
        assert proc.returncode == EXIT_USAGE

    def test_closed_stdout_keeps_exit_code(self):
        # a reader that closes the pipe before the report is written, as
        # `| head` does, must not turn the exit code into 1 with a traceback
        proc = subprocess.Popen(
            [sys.executable, "-m", "splitrep.cli",
             "search", "C", "--k", "2", "--n", "3"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        proc.stdout.close()
        try:
            _, err = proc.communicate(timeout=CLI_TIMEOUT_S)
        finally:
            proc.kill()
        assert proc.returncode == 0, err
        assert "Traceback" not in err

    def test_json_round_trip(self, capsys):
        assert main(["search", "R", "--k", "2", "--t", "2", "--json"]) == 0
        text = capsys.readouterr().out
        report = RunReport(**json.loads(text))
        assert RunReport(**json.loads(report.to_json())) == report
        assert report.outcome["max_length"] == 15
        assert report.outcome["witness"] == "010001100111001"
        assert report.outcome["witness_verified"] is True

    def test_thread_determinism_modulo_elapsed(self, capsys):
        assert main(["search", "C", "--k", "2", "--n", "4", "--json",
                     "--threads", "1"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["search", "C", "--k", "2", "--n", "4", "--json",
                     "--threads", "8"]) == 0
        second = json.loads(capsys.readouterr().out)
        first["elapsed"] = second["elapsed"] = None
        first["params"]["threads"] = second["params"]["threads"] = None
        assert first == second

    def test_frontier_with_checkpoint(self, tmp_path, capsys):
        ckpt = tmp_path / "c.ckpt"
        code = main(["search", "C", "--k", "2", "--n", "6", "--frontier",
                     "--budget", "20000", "--checkpoint", str(ckpt)])
        assert code == EXIT_LOWER_BOUND
        assert ckpt.exists()
        code = main(["search", "C", "--k", "2", "--n", "6", "--frontier",
                     "--budget", "20000", "--resume", str(ckpt)])
        assert code == EXIT_LOWER_BOUND
        out = capsys.readouterr().out
        assert "nodes: 40000" in out


class TestBoundsCommand:
    def test_c_family(self, capsys):
        assert main(["bounds", "--family", "C", "--k", "2", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "'period-sum': '<= 7'" in out
        assert "'pigeonhole': '<= 9'" in out
        assert "'closed-form': '<= 14'" in out

    def test_s_family_t0(self, capsys):
        assert main(["bounds", "--family", "S", "--k", "2", "--t", "0"]) == 0
        assert "'repeated-letter-exact': '= 2'" in capsys.readouterr().out

    def test_s_family_unary(self, capsys):
        assert main(["bounds", "--family", "S", "--k", "1", "--t", "4"]) == 0
        assert "'unary-exact': '= 11'" in capsys.readouterr().out

    def test_missing_param(self):
        proc = run_cli("bounds", "--family", "C", "--k", "2")
        assert proc.returncode == EXIT_USAGE


class TestConstructCommand:
    def test_c3(self, capsys):
        assert main(["construct", "c3", "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "length: 41" in out
        assert "no_disjoint_length_3_pair: True" in out

    def test_debruijn(self, capsys):
        assert main(["construct", "debruijn", "--k", "2", "--n", "3"]) == 0
        assert "length: 10" in capsys.readouterr().out

    def test_witness(self, capsys):
        assert main(["construct", "witness", "--x", "010"]) == 0
        out = capsys.readouterr().out
        assert "word: 01010" in out
        assert "occurrences: 2" in out

    def test_no_disjoint_pair_check_sees_every_pair(self):
        from splitrep.cli import _no_disjoint_of

        # 000 starts at 0..4 in 0000000: each start overlaps the next, but
        # the occurrences at 0 and 3 are disjoint
        assert not _no_disjoint_of(parse_word("0000000", 2), parse_word("000", 2))
        assert _no_disjoint_of(parse_word("00000", 2), parse_word("000", 2))
        assert _no_disjoint_of(parse_word("01010", 2), parse_word("010", 2))
        assert _no_disjoint_of(parse_word("0110", 2), parse_word("010", 2))


class TestTableCommand:
    def test_table_2_matches(self, capsys):
        assert main(["table", "2"]) == 0
        out = capsys.readouterr().out
        assert "mismatches: 0" in out

    def test_table_3_matches(self, capsys):
        assert main(["table", "3"]) == 0
        assert "mismatches: 0" in capsys.readouterr().out

    @pytest.mark.stretch
    def test_table_1_matches(self, capsys):
        assert main(["table", "1"]) == 0
        out = capsys.readouterr().out
        assert "mismatches: 0" in out
        assert "witness_match=True" in out

    def test_table_3_with_budget_reports_lower_bounds(self, capsys):
        assert main(["table", "3", "--budget-per-cell", "2000"]) == 0
        out = capsys.readouterr().out
        assert "mismatches: 0" in out
        assert "skipped" not in out
        assert ">=" in out

    def test_table_mismatch_exits_four(self, capsys, monkeypatch):
        import splitrep.cli as cli
        from splitrep.knownvalues import KnownCell

        wrong = [KnownCell(table="S", k=2, param=1, relation="=", value=5)]
        monkeypatch.setattr(cli, "load_known_cells", lambda: wrong)
        assert main(["table", "2"]) == EXIT_TABLE_MISMATCH
        assert "mismatches: 1" in capsys.readouterr().out


class TestValidationExitCode:
    def test_unverifiable_witness_exits_five(self, capsys, monkeypatch):
        import splitrep.cli as cli

        monkeypatch.setattr(cli, "verify_witness", lambda problem, w: False)
        code = main(["search", "S", "--k", "2", "--t", "1"])
        assert code == EXIT_VALIDATION
        assert "witness_verified: False" in capsys.readouterr().out


class TestUsageErrors:
    """Bad input ends in one line on stderr and exit 2, never a traceback."""

    def assert_usage_error(self, proc):
        assert proc.returncode == EXIT_USAGE
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("splitrep: error: "), lines

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "debruijn", "--k", "200", "--n", "3"],
            ["construct", "c3", "--k", "1"],
            ["bounds", "--family", "C", "--k", "0", "--n", "3"],
            ["search", "S", "--k", "2", "--t", "1", "--threads", "0"],
            ["search", "S", "--k", "2", "--t", "1", "--threads", "-3"],
            ["search", "S", "--k", "2", "--t", "2", "--budget", "-1"],
            ["search", "S", "--k", "2", "--t", "2", "--budget", "0",
             "--split-depth", "-2"],
            ["table", "3", "--budget-per-cell", "-1"],
            ["search", "S", "--k", "2", "--t", "1", "--seconds", "-1"],
            ["search", "S", "--k", "2", "--t", "1", "--seconds", "nan"],
            # 2**30 words: over the enumeration budget of the capacity table
            ["search", "C", "--k", "2", "--n", "30", "--seconds", "1"],
            # the split engine's letters are chr() values
            ["search", "S", "--k", "1114113", "--t", "1"],
            # 8e9 triples: over the budget of the order-3 cycle partition
            ["construct", "c3", "--k", "2000"],
            ["construct", "debruijn", "--k", "2000", "--n", "3", "--special"],
            # checks in the commands themselves
            ["search", "C", "--k", "2"],
            ["analyze", "0120", "--k", "2"],
            ["bounds", "--family", "C", "--k", "2"],
            # argparse's own errors
            ["search", "S", "--t", "1"],
            ["search", "S", "--k", "x", "--t", "1"],
            ["search", "S", "--k", "2", "--t", "1", "--k2"],
            # options the chosen search mode would ignore
            ["search", "S", "--k", "2", "--t", "1", "--seed", "0101"],
            ["search", "S", "--k", "2", "--t", "2", "--frontier", "--seed", "01",
             "--resume", "run.ckpt"],
            ["search", "S", "--k", "2", "--t", "2", "--frontier", "--threads", "2"],
            ["search", "S", "--k", "2", "--t", "2", "--frontier", "--split-depth", "3"],
            ["search", "S", "--k", "2", "--t", "2", "--checkpoint", "run.ckpt",
             "--threads", "2"],
            # options the chosen command, kind or family would ignore
            ["construct", "debruijn", "--n", "4", "--special"],
            ["construct", "c2", "--n", "5"],
            ["construct", "c3", "--x", "01"],
            ["construct", "witness", "--x", "010", "--special"],
            ["analyze", "0101", "--split"],
            ["analyze", "0101", "--convention", "gap-required"],
            ["analyze", "0101", "--t", "1", "--overlap", "--convention", "gap-required"],
            ["bounds", "--family", "C", "--k", "2", "--n", "3", "--t", "2",
             "--use-known"],
            ["bounds", "--family", "S", "--k", "2", "--t", "1", "--n", "3"],
            ["search", "C", "--k", "2", "--n", "3", "--t", "2"],
            ["search", "C", "--k", "2", "--n", "3", "--convention", "gap-required"],
            ["search", "S", "--k", "2", "--t", "1", "--n", "3"],
        ],
    )
    def test_rejected_arguments(self, argv):
        self.assert_usage_error(run_cli(*argv))

    def test_resume_missing_file(self, tmp_path):
        missing = tmp_path / "missing.ckpt"
        self.assert_usage_error(
            run_cli("search", "S", "--k", "2", "--t", "2", "--frontier",
                    "--resume", str(missing))
        )

    def test_resume_truncated_checkpoint(self, tmp_path):
        ckpt = tmp_path / "c.ckpt"
        assert main(["search", "S", "--k", "2", "--t", "2", "--frontier",
                     "--budget", "500", "--checkpoint", str(ckpt)]) == EXIT_LOWER_BOUND
        text = ckpt.read_text()
        ckpt.write_text(text[: text.index("param=")])
        self.assert_usage_error(
            run_cli("search", "S", "--k", "2", "--t", "2", "--frontier",
                    "--resume", str(ckpt))
        )

    def test_resume_with_a_violating_best(self, tmp_path):
        # a resume replays the stored best word, not only the prefix: this
        # one is longer than C(2,3), so no resumed walk outruns it
        ckpt = tmp_path / "c.ckpt"
        assert main(["search", "C", "--k", "2", "--n", "3", "--frontier",
                     "--budget", "2000", "--checkpoint", str(ckpt)]) == EXIT_LOWER_BOUND
        lines = [
            "best=" + "0" * 20 if line.startswith("best=") else line
            for line in ckpt.read_text().splitlines()
        ]
        ckpt.write_text("\n".join(lines) + "\n")
        self.assert_usage_error(
            run_cli("search", "C", "--k", "2", "--n", "3", "--frontier",
                    "--budget", "1000", "--resume", str(ckpt))
        )

    def test_resume_with_other_frontier_settings(self, tmp_path):
        # the CLI runs the default settings; this checkpoint has dive_nodes=200
        from splitrep.search import (
            ProblemKind, SearchBudget, SearchProblem, frontier_lower_bound,
        )

        ckpt = tmp_path / "c.ckpt"
        frontier_lower_bound(
            SearchProblem(ProblemKind.SPLIT_OVERLAP, 2, 2), SearchBudget(nodes=500),
            dive_nodes=200, checkpoint_path=ckpt,
        )
        proc = run_cli("search", "S", "--k", "2", "--t", "2", "--frontier",
                       "--resume", str(ckpt))
        self.assert_usage_error(proc)
        assert "dive_nodes=200" in proc.stderr

    def test_seed_with_violation(self):
        self.assert_usage_error(
            run_cli("search", "S", "--k", "2", "--t", "2", "--frontier",
                    "--seed", "0000000")
        )
