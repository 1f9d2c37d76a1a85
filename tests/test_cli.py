"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_sequence(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--sequence", "matrix"])

    def test_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.sequence == "foreman"
        assert args.plr == 0.1
        assert args.scheme == "PBPAIR"


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for token in ("PBPAIR", "foreman", "akiyo", "garden", "ipaq", "zaurus"):
            assert token in out

    def test_simulate_pbpair(self, capsys):
        code = main(
            [
                "simulate",
                "--frames",
                "8",
                "--scheme",
                "PBPAIR",
                "--intra-th",
                "0.9",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "delivered PSNR" in out
        assert "encoding energy" in out

    def test_simulate_baseline(self, capsys):
        assert main(["simulate", "--frames", "6", "--scheme", "GOP-2"]) == 0
        assert "GOP-2" in capsys.readouterr().out

    def test_simulate_zaurus_device(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--frames",
                    "6",
                    "--scheme",
                    "NO",
                    "--device",
                    "zaurus",
                ]
            )
            == 0
        )
        assert "Zaurus" in capsys.readouterr().out

    def test_simulate_bad_scheme_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--frames", "4", "--scheme", "MAGIC-9"])

    def test_bad_frames_exits(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--frames", "0"])

    def test_sweep(self, capsys):
        assert (
            main(["sweep", "--frames", "8", "--sequence", "akiyo", "--no-cache"])
            == 0
        )
        out = capsys.readouterr().out
        assert "Intra_Th" in out
        assert "operating points" in out

    def test_sweep_parallel_with_cache(self, capsys, tmp_path):
        argv = [
            "sweep",
            "--frames",
            "4",
            "--sequence",
            "akiyo",
            "--jobs",
            "2",
            "--cache-dir",
            str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0  # second run: all cells from the cache
        warm = capsys.readouterr().out
        assert warm == cold
        assert len(list(tmp_path.glob("*.pkl"))) >= 6

    def test_sweep_rejects_negative_jobs(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "sweep",
                    "--frames",
                    "4",
                    "--jobs",
                    "-1",
                    "--cache-dir",
                    str(tmp_path),
                ]
            )

    @pytest.mark.slow
    def test_compare(self, capsys, tmp_path):
        assert (
            main(["compare", "--frames", "12", "--cache-dir", str(tmp_path)])
            == 0
        )
        out = capsys.readouterr().out
        for scheme in ("NO", "PBPAIR", "PGOP-3", "GOP-3", "AIR-24"):
            assert scheme in out

    def test_compare_parallel_matches_serial(self, capsys, tmp_path):
        base = ["compare", "--frames", "4", "--sequence", "akiyo"]
        assert main(base + ["--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert (
            main(base + ["--jobs", "2", "--cache-dir", str(tmp_path)]) == 0
        )
        parallel = capsys.readouterr().out
        assert parallel == serial


class TestRateControlFlags:
    def test_simulate_reports_delivered_bitrate(self, capsys):
        code = main(
            ["simulate", "--frames", "8", "--scheme", "NO",
             "--target-kbps", "400"]
        )
        assert code == 0
        assert "delivered bitrate" in capsys.readouterr().out

    def test_compare_matched_bitrate_skips_calibration(self, capsys):
        code = main(
            ["compare", "--frames", "8", "--sequence", "akiyo",
             "--target-kbps", "400", "--no-cache"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "Calibrating" not in captured.err  # zero bisection probes
        assert "matched bitrate 400 kbps" in captured.out
        for column in ("kbps", "err %"):
            assert column in captured.out
        for scheme in ("NO", "PBPAIR", "PGOP-3", "GOP-3", "AIR-24"):
            assert scheme in captured.out

    def test_sweep_accepts_target_kbps(self, capsys):
        code = main(
            ["sweep", "--frames", "6", "--sequence", "akiyo",
             "--target-kbps", "400", "--no-cache"]
        )
        assert code == 0
        assert "PBPAIR operating points" in capsys.readouterr().out

    def test_nonpositive_target_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--frames", "4", "--target-kbps", "0"])
        with pytest.raises(SystemExit):
            main(["compare", "--frames", "4", "--target-kbps", "-100"])

    def test_sensitivity_without_target_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--frames", "4", "--rate-sensitivity", "2.0"])

    def test_bad_sensitivity_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main(
                ["simulate", "--frames", "4", "--target-kbps", "400",
                 "--rate-sensitivity", "0"]
            )


class TestSigmaCommand:
    def test_sigma_prints_heatmaps(self, capsys):
        assert main(["sigma", "--frames", "8", "--sequence", "akiyo"]) == 0
        out = capsys.readouterr().out
        assert "sigma heatmaps" in out
        assert "frame" in out
        # 9 rows of 11 glyphs for QCIF.
        lines = [l for l in out.splitlines() if len(l) == 11]
        assert len(lines) >= 9


class TestTraceCommandErrors:
    """`repro trace` exits with a message, never a traceback."""

    def test_missing_file(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "no/such/trace.jsonl"])
        assert "no such trace file" in str(excinfo.value.code)

    def test_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "trace.jsonl"
        empty.write_text("")
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", str(empty)])
        assert "empty" in str(excinfo.value.code)

    def test_truncated_jsonl(self, tmp_path, capsys):
        torn = tmp_path / "trace.jsonl"
        torn.write_text('{"schema": 2, "trace_id": "t"}\n{"span": {"na')
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", str(torn)])
        assert "not a trace file" in str(excinfo.value.code)

    def test_directory_instead_of_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", str(tmp_path)])
        assert "directory" in str(excinfo.value.code)


class TestSubmitCommandErrors:
    def test_unknown_scheme_fails_before_contacting_the_daemon(self, capsys):
        # Nothing listens on port 1: the spec must be refused first.
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["submit", "--url", "http://127.0.0.1:1", "--scheme", "NOPE",
                 "--sequence", "akiyo", "--frames", "4"]
            )
        assert excinfo.value.code == 2
        assert "unknown strategy 'NOPE'" in capsys.readouterr().err


class TestStatusCommandErrors:
    """`repro status --journal` mirrors the trace command's robustness."""

    def test_missing_journal(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["status", "--journal", "no/such/journal.jsonl"])
        assert "no such journal file" in str(excinfo.value.code)

    def test_empty_journal(self, tmp_path, capsys):
        empty = tmp_path / "journal.jsonl"
        empty.write_text("")
        with pytest.raises(SystemExit) as excinfo:
            main(["status", "--journal", str(empty)])
        assert "empty" in str(excinfo.value.code)

    def test_header_only_journal(self, tmp_path, capsys):
        path = tmp_path / "journal.jsonl"
        path.write_text(
            '{"type":"header","schema_version":1,'
            '"format":"repro-service-journal"}\n'
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["status", "--journal", str(path)])
        assert "no job events" in str(excinfo.value.code)

    def test_non_journal_jsonl(self, tmp_path, capsys):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"something": "else"}\n')
        with pytest.raises(SystemExit) as excinfo:
            main(["status", "--journal", str(path)])
        assert "not a journal file" in str(excinfo.value.code)

    def test_truncated_final_line_tolerated(self, tmp_path, capsys):
        path = tmp_path / "journal.jsonl"
        path.write_text(
            '{"type":"header","schema_version":1}\n'
            '{"type":"event","event":"submitted","job_id":"a1",'
            '"state":"pending","session_class":"standard","priority":0,'
            '"attempts":0,"fail_count":0,"ts":1.0}\n'
            '{"type":"event","event":"comp'  # daemon died mid-append
        )
        assert main(["status", "--journal", str(path)]) == 0
        captured = capsys.readouterr()
        assert "a1" in captured.out
        assert "truncated final journal line" in captured.err

    def test_truncated_middle_line_rejected(self, tmp_path, capsys):
        path = tmp_path / "journal.jsonl"
        path.write_text(
            '{"type":"header","schema_version":1}\n'
            '{"type":"event","event":"subm\n'
            '{"type":"event","event":"submitted","job_id":"a1",'
            '"state":"pending","ts":1.0}\n'
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["status", "--journal", str(path)])
        assert "bad JSON" in str(excinfo.value.code)

    def test_unknown_job_id_in_journal(self, tmp_path, capsys):
        path = tmp_path / "journal.jsonl"
        path.write_text(
            '{"type":"header","schema_version":1}\n'
            '{"type":"event","event":"submitted","job_id":"a1",'
            '"state":"pending","ts":1.0}\n'
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["status", "--journal", str(path), "zzz"])
        assert "no such job in journal" in str(excinfo.value.code)
