"""Tests for the mediar command-line interface."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SYNTH = ("--synthetic", "2014Q1", "--scale", "0.005")


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mine", "--method", "astrology"])

    def test_serve_options_parse(self):
        args = build_parser().parse_args(
            [
                "serve", "--synthetic", "2014Q1", "--port", "9000",
                "--name", "q1", "--save", "runs_dir", "--cache-size", "64",
            ]
        )
        assert args.command == "serve"
        assert args.port == 9000 and args.name == "q1"
        assert str(args.save) == "runs_dir" and args.cache_size == 64

    def test_serve_load_needs_no_mining_input(self):
        args = build_parser().parse_args(["serve", "--load", "runs_dir"])
        assert args.load is not None and args.synthetic is None


class TestStats:
    def test_synthetic_stats(self, capsys):
        code, out, _ = run(capsys, "stats", *SYNTH)
        assert code == 0
        assert "reports:" in out and "drugs:" in out

    def test_missing_input_is_an_error(self, capsys):
        with pytest.raises(SystemExit, match="provide --synthetic"):
            main(["stats"])


class TestGenerateAndParseBack:
    def test_generate_then_stats_on_files(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "generate", "2014Q1", "--scale", "0.005", "--out", str(tmp_path)
        )
        assert code == 0
        demo = tmp_path / "DEMO14Q1.txt"
        drug = tmp_path / "DRUG14Q1.txt"
        reac = tmp_path / "REAC14Q1.txt"
        assert demo.exists() and drug.exists() and reac.exists()

        code, out, _ = run(
            capsys,
            "stats",
            "--demo",
            str(demo),
            "--drug-file",
            str(drug),
            "--reac",
            str(reac),
        )
        assert code == 0
        assert "reports:" in out

    @staticmethod
    def generate(capsys, directory):
        code, _, _ = run(
            capsys, "generate", "2014Q1", "--scale", "0.005", "--out", str(directory)
        )
        assert code == 0
        return [
            str(directory / name) for name in ("DEMO14Q1.txt", "DRUG14Q1.txt", "REAC14Q1.txt")
        ]

    def test_run_on_files_stamps_the_quarter_of_the_demo_name(self, capsys, tmp_path):
        import json

        demo, drug, reac = self.generate(capsys, tmp_path)
        out_path = tmp_path / "r.json"
        code, _, _ = run(
            capsys, "run", "--demo", demo, "--drug-file", drug, "--reac", reac,
            "--min-support", "4", "--out", str(out_path),
        )
        assert code == 0
        assert json.loads(out_path.read_text())["quarter"] == "2014Q1"
        code, out, _ = run(
            capsys, "stats", "--demo", demo, "--drug-file", drug, "--reac", reac
        )
        assert "quarter:  2014Q1" in out

    def test_watch_on_files_names_the_stored_run_after_the_quarter(
        self, capsys, tmp_path
    ):
        # The default run name is the quarter label when there is one,
        # as for --synthetic input; "watch" only for unlabelled files.
        from repro.store import open_backend

        demo, drug, reac = self.generate(capsys, tmp_path)
        store = f"sqlite://{tmp_path / 'store.db'}"
        code, _, _ = run(
            capsys, "watch", "--demo", demo, "--drug-file", drug, "--reac", reac,
            "--min-support", "4", "--batches", "2", "--store", store,
        )
        assert code == 0
        assert open_backend(store).run_names() == ["2014Q1"]

    def test_unrecognized_demo_name_leaves_the_quarter_unlabelled(self, capsys, tmp_path):
        demo, drug, reac = self.generate(capsys, tmp_path)
        renamed = tmp_path / "demo_extract.txt"
        Path(demo).rename(renamed)
        code, out, _ = run(
            capsys, "stats", "--demo", str(renamed), "--drug-file", drug, "--reac", reac
        )
        assert code == 0
        assert "quarter:  (unlabelled)" in out

    def test_profile_times_the_parse(self, capsys, tmp_path):
        demo, drug, reac = self.generate(capsys, tmp_path)
        code, _, err = run(
            capsys, "--profile", "mine", "--demo", demo, "--drug-file", drug,
            "--reac", reac, "--min-support", "4", "--top", "1",
        )
        assert code == 0
        timings = err.split("counters")[0]  # the span table, not the counters
        assert "faers.parse " in timings and "faers.clean " in timings


class TestMine:
    def test_mine_prints_ranked_clusters(self, capsys):
        code, out, _ = run(capsys, "mine", *SYNTH, "--min-support", "4", "--top", "3")
        assert code == 0
        assert "#1" in out and "=>" in out

    def test_mine_with_context(self, capsys):
        code, out, _ = run(
            capsys,
            "mine",
            *SYNTH,
            "--min-support",
            "4",
            "--top",
            "1",
            "--show-context",
        )
        assert code == 0
        assert "R~1" in out

    def test_mine_profile_prints_stage_table(self, capsys):
        code, out, err = run(
            capsys, "--profile", "mine", *SYNTH, "--min-support", "4", "--top", "3"
        )
        assert code == 0
        assert "#1" in out  # normal output unaffected
        assert "stage timings" in err
        for stage in (
            "pipeline.prepare",
            "pipeline.mine",
            "pipeline.filter",
            "pipeline.cluster",
        ):
            assert stage.rsplit(".", 1)[-1] in err, stage
        assert "pipeline.clusters" in err

    def test_mine_profile_writes_jsonl_trace(self, capsys, tmp_path):
        from repro.obs import read_jsonl

        trace = tmp_path / "trace.jsonl"
        code, _, err = run(
            capsys,
            "--profile",
            "--trace",
            str(trace),
            "mine",
            *SYNTH,
            "--min-support",
            "4",
        )
        assert code == 0
        assert f"wrote trace {trace}" in err
        records = read_jsonl(trace)
        span_names = {r["name"] for r in records if r["event"] == "span"}
        assert {
            "pipeline.prepare",
            "pipeline.mine",
            "pipeline.filter",
            "pipeline.cluster",
        } <= span_names
        assert records[-1]["event"] == "metrics"
        assert records[-1]["counters"]["pipeline.clusters"] > 0

    def test_no_profile_no_stage_table(self, capsys):
        code, _, err = run(capsys, "mine", *SYNTH, "--min-support", "4")
        assert code == 0
        assert "stage timings" not in err

    def test_mine_search_no_match(self, capsys):
        code, out, _ = run(
            capsys, "mine", *SYNTH, "--min-support", "4", "--drug", "NO-SUCH-DRUG"
        )
        assert code == 1
        assert "no clusters match" in out

    def test_mine_method_choice(self, capsys):
        code, out, _ = run(
            capsys, "mine", *SYNTH, "--min-support", "4", "--method", "confidence"
        )
        assert code == 0
        assert "by confidence" in out


class TestRender:
    def test_render_writes_svgs(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "render",
            *SYNTH,
            "--min-support",
            "4",
            "--top",
            "4",
            "--out",
            str(tmp_path / "glyphs"),
        )
        assert code == 0
        assert (tmp_path / "glyphs" / "panorama.svg").exists()
        assert (tmp_path / "glyphs" / "top1_zoom.svg").exists()


class TestValidate:
    def test_validate_prints_novelty(self, capsys):
        code, out, _ = run(capsys, "validate", *SYNTH, "--min-support", "4")
        assert code == 0
        assert "unknown" in out or "known" in out


class TestStudy:
    def test_study_prints_accuracy_table(self, capsys):
        code, out, _ = run(
            capsys, "study", "--synthetic", "2014Q1", "--scale", "0.02",
            "--min-support", "5", "--annotators", "10",
        )
        assert code == 0
        assert "glyph" in out and "%" in out


class TestReport:
    def test_report_written(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "report", *SYNTH, "--min-support", "4",
            "--out", str(tmp_path / "q.md"),
        )
        assert code == 0
        content = (tmp_path / "q.md").read_text()
        assert content.startswith("# MeDIAR quarterly surveillance report")


class TestExport:
    def test_export_written_and_loadable(self, capsys, tmp_path):
        from repro.core.export import load_export

        code, out, _ = run(
            capsys, "export", *SYNTH, "--min-support", "4",
            "--out", str(tmp_path / "q.json"),
        )
        assert code == 0
        loaded = load_export(tmp_path / "q.json")
        assert loaded.clusters


class TestRun:
    def test_run_writes_export(self, capsys, tmp_path):
        from repro.core.export import load_export

        code, out, _ = run(
            capsys, "run", *SYNTH, "--min-support", "4",
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 0
        assert "workers=1" in out
        assert load_export(tmp_path / "r.json").clusters

    def test_run_workers_byte_identical(self, capsys, tmp_path):
        serial, sharded = tmp_path / "w1.json", tmp_path / "w2.json"
        code, _, _ = run(
            capsys, "run", *SYNTH, "--min-support", "4",
            "--out", str(serial),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "run", *SYNTH, "--min-support", "4",
            "--workers", "2", "--out", str(sharded),
        )
        assert code == 0
        assert "workers=2" in out
        assert sharded.read_bytes() == serial.read_bytes()

    def test_bad_shard_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--synthetic", "2014Q1", "--shard-strategy", "nope"]
            )

    def test_negative_workers_is_config_error(self, capsys):
        code, _, err = run(
            capsys, "run", *SYNTH, "--workers", "-2",
        )
        assert code == 2
        assert "n_workers" in err


class TestWorkerValidation:
    """run/watch/serve reject bad --workers with one line, no traceback."""

    def test_run_absurd_workers_one_line(self, capsys):
        code, _, err = run(capsys, "run", *SYNTH, "--workers", "1000000")
        assert code == 2
        assert "n_workers must be <= 512" in err
        assert len(err.strip().splitlines()) == 1

    def test_watch_negative_workers_one_line(self, capsys):
        code, _, err = run(capsys, "watch", *SYNTH, "--workers", "-3")
        assert code == 2
        assert err.startswith("error:") and "n_workers" in err
        assert len(err.strip().splitlines()) == 1

    def test_watch_absurd_workers_one_line(self, capsys):
        code, _, err = run(capsys, "watch", *SYNTH, "--workers", "99999")
        assert code == 2
        assert "n_workers must be <= 512" in err
        assert len(err.strip().splitlines()) == 1

    def test_serve_zero_workers_one_line(self, capsys):
        code, _, err = run(capsys, "serve", *SYNTH, "--workers", "0")
        assert code == 2
        assert err.startswith("error:") and "--workers" in err
        assert len(err.strip().splitlines()) == 1

    def test_serve_absurd_workers_one_line(self, capsys):
        code, _, err = run(capsys, "serve", *SYNTH, "--workers", "4096")
        assert code == 2
        assert "--workers must be <= 128" in err
        assert len(err.strip().splitlines()) == 1


class TestDashboard:
    def test_dashboard_written(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "dashboard", *SYNTH, "--min-support", "4", "--top", "5",
            "--out", str(tmp_path / "d.html"),
        )
        assert code == 0
        content = (tmp_path / "d.html").read_text()
        assert content.startswith("<!DOCTYPE html>")
        assert "<svg" in content


class TestProfile:
    def test_profile_known_drug(self, capsys):
        code, out, _ = run(
            capsys, "profile", "ASPIRIN", "--synthetic", "2014Q1",
            "--scale", "0.02", "--min-support", "5",
        )
        assert code == 0
        assert out.startswith("ASPIRIN:")
        assert "body systems:" in out

    def test_profile_unknown_drug_exits_2(self, capsys):
        code, out, err = run(
            capsys, "profile", "NO-SUCH-DRUG", *SYNTH, "--min-support", "4",
        )
        assert code == 2
        assert "unknown drug" in err
