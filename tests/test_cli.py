"""Tests for the top-level CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_survey_defaults(self):
        args = build_parser().parse_args(["survey"])
        assert args.ases == 150
        assert not args.covid

    def test_simulate_args(self):
        args = build_parser().parse_args(
            ["simulate", "out.jsonl", "--probes", "2"]
        )
        assert args.out == "out.jsonl"
        assert args.probes == 2


class TestInfo:
    def test_prints_version(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert "IMC 2020" in out


class TestSimulateAndClassify:
    def test_simulate_writes_jsonl_and_rib(self, tmp_path, capsys):
        out = tmp_path / "campaign.jsonl"
        rib = tmp_path / "rib.txt"
        code = main([
            "simulate", str(out),
            "--probes", "2", "--days", "1",
            "--rib-out", str(rib),
        ])
        assert code == 0
        assert out.exists()
        assert rib.exists()
        assert "wrote" in capsys.readouterr().out
        # JSONL rows parse back as Atlas results.
        import json

        from repro.atlas import TracerouteResult

        first = out.read_text().splitlines()[0]
        result = TracerouteResult.from_json(json.loads(first))
        assert result.hops

    def test_classify_roundtrip(self, tmp_path, capsys):
        """simulate -> binned dataset -> classify via the CLI."""
        import datetime as dt

        from repro.atlas import AtlasPlatform, ProbeVersion
        from repro.io import save_lastmile
        from repro.netbase import AccessTechnology, ASInfo, ASRole
        from repro.timebase import MeasurementPeriod
        from repro.topology import ProvisioningPolicy, World

        world = World(seed=9)
        isp = world.add_isp(
            ASInfo(
                64500, "X", "JP", ASRole.EYEBALL,
                access_technologies=[
                    AccessTechnology.FTTH_PPPOE_LEGACY
                ],
            ),
            provisioning=ProvisioningPolicy(
                peak_utilization={
                    AccessTechnology.FTTH_PPPOE_LEGACY: 0.96
                },
                device_spread=0.005,
                load_jitter_std=0.005,
            ),
        )
        world.add_default_targets()
        world.finalize()
        platform = AtlasPlatform(world)
        probes = platform.deploy_probes_on_isp(
            isp, 4, version=ProbeVersion.V3
        )
        # Two weeks: Welch segment averaging needs several days for
        # the daily fundamental to dominate its harmonics.
        period = MeasurementPeriod(
            "cli-test", dt.datetime(2019, 9, 2), 14
        )
        dataset = platform.run_period_binned(period, probes)
        base = tmp_path / "lastmile"
        save_lastmile(dataset, base)

        assert main(["classify", str(base)]) == 0
        out = capsys.readouterr().out
        assert "AS64500" in out
        assert any(
            word in out for word in ("LOW", "MILD", "SEVERE")
        )

    def test_classify_empty_dataset(self, tmp_path, capsys):
        import datetime as dt

        from repro.core import LastMileDataset
        from repro.io import save_lastmile
        from repro.timebase import MeasurementPeriod, TimeGrid

        grid = TimeGrid(
            MeasurementPeriod("empty", dt.datetime(2019, 9, 2), 1)
        )
        base = tmp_path / "empty"
        save_lastmile(LastMileDataset(grid=grid), base)
        assert main(["classify", str(base)]) == 1


class TestSurveyCommand:
    def test_small_survey_exports_site(self, tmp_path, capsys):
        out = tmp_path / "site"
        code = main([
            "survey", "--ases", "20", "--countries", "5",
            "--periods", "1", "--out", str(out),
        ])
        assert code == 0
        assert (out / "surveys.json").exists()
        assert (out / "index.md").exists()
        assert "exported" in capsys.readouterr().out


class TestKernelsFlag:
    def test_survey_backends_export_identical_sites(self, tmp_path,
                                                    capsys):
        """The exported site is the same bytes whether the production
        kernels or the reference loops do the arithmetic."""
        from tests.kernels.oracle import run_on

        sites = {}
        for backend in ("reference", "vector"):
            out = tmp_path / backend
            code = run_on(backend, main, [
                "survey", "--ases", "10", "--countries", "3",
                "--periods", "1", "--out", str(out),
            ])
            assert code == 0
            sites[backend] = (out / "surveys.json").read_bytes()
        capsys.readouterr()
        assert sites["vector"] == sites["reference"]

    def test_parser_rejects_unknown_backend(self):
        """There is one analysis path: no backend name is known."""
        for backend in ("turbo", "vector", "reference"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["survey", "--kernels", backend]
                )


class TestTokyoCommand:
    def test_prints_digests(self, capsys):
        code = main(["tokyo", "--client-scale", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ISP_A" in out and "Spearman" in out


class TestObsFlags:
    def test_obs_flags_parse(self):
        args = build_parser().parse_args([
            "survey", "--trace", "--metrics-out", "m.json",
            "--log-jsonl", "events.jsonl",
        ])
        assert args.trace
        assert args.metrics_out == "m.json"
        assert args.log_jsonl == "events.jsonl"

    def test_obs_report_defaults(self):
        args = build_parser().parse_args(["obs", "report"])
        assert args.path == "metrics.json"
        assert not args.prometheus

    def test_survey_with_metrics_out(self, tmp_path, capsys, monkeypatch):
        # The full worker-level span tree (lastmile/aggregate/spectral)
        # is a serial-path contract: sharded workers run silenced and
        # the parent re-emits shard-level spans instead.  Pin serial so
        # the CI REPRO_WORKERS matrix leg exercises the same assertions.
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        report_path = tmp_path / "metrics.json"
        code = main([
            "survey", "--ases", "12", "--countries", "4",
            "--periods", "1", "--out", str(tmp_path / "site"),
            "--trace", "--metrics-out", str(report_path),
            "--log-jsonl", str(tmp_path / "events.jsonl"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "survey-period" in out  # the printed trace tree

        import json

        report = json.loads(report_path.read_text())
        metrics = report["metrics"]
        for name in (
            "pipeline_items_in_total",
            "pipeline_items_out_total",
            "pipeline_duration_seconds",
            "quality_ingested_total",
        ):
            assert name in metrics, name
        stages = {
            sample["labels"]["stage"]
            for sample in metrics["pipeline_duration_seconds"]["samples"]
        }
        assert {
            "survey-period", "load", "lastmile", "classify-dataset",
            "filter", "aggregate", "spectral",
        } <= stages
        # Structured events landed in the JSONL sink.
        events = [
            json.loads(line) for line in
            (tmp_path / "events.jsonl").read_text().splitlines()
        ]
        assert any(e["event"] == "classify-done" for e in events)

        # The saved report renders back through `repro obs report`.
        assert main(["obs", "report", str(report_path)]) == 0
        rendered = capsys.readouterr().out
        assert "== trace ==" in rendered
        assert "== metrics ==" in rendered
        assert main([
            "obs", "report", str(report_path), "--prometheus",
        ]) == 0
        prom = capsys.readouterr().out
        assert "# TYPE pipeline_items_in_total counter" in prom

    def test_obs_report_missing_file(self, tmp_path, capsys):
        code = main(["obs", "report", str(tmp_path / "nope.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # exactly one line
        assert "error:" in err
        assert "no observability report" in err

    def test_obs_report_unreadable_file(self, tmp_path, capsys):
        bad = tmp_path / "garbage.json"
        bad.write_text("{not json")
        code = main(["obs", "report", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: cannot read")


class TestQualityErrorPaths:
    def test_quality_missing_path(self, tmp_path, capsys):
        code = main(["quality", str(tmp_path / "nope.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: cannot read")

    def test_quality_unreadable_path(self, tmp_path, capsys):
        # A directory is unreadable as a traceroute campaign.
        code = main(["quality", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: cannot read")


class TestObsDiff:
    def _write_report(self, path, value):
        from repro.obs import Observability
        from repro.obs.report import write_report

        obs = Observability()
        obs.counter("reqs_total", "", ("route",)).inc(value, route="as")
        write_report(obs, path)

    def test_diff_prints_counter_deltas(self, tmp_path, capsys):
        before, after = tmp_path / "a.json", tmp_path / "b.json"
        self._write_report(before, 3)
        self._write_report(after, 10)
        code = main([
            "obs", "report", "--diff", str(before), str(after),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert 'reqs_total{route="as"} +7 (now 10)' in out

    def test_diff_with_no_changes(self, tmp_path, capsys):
        before = tmp_path / "a.json"
        self._write_report(before, 3)
        code = main([
            "obs", "report", "--diff", str(before), str(before),
        ])
        assert code == 0
        assert "(no counter changes)" in capsys.readouterr().out

    def test_diff_unreadable_side_errors(self, tmp_path, capsys):
        before = tmp_path / "a.json"
        self._write_report(before, 1)
        code = main([
            "obs", "report", "--diff", str(before),
            str(tmp_path / "missing.json"),
        ])
        assert code == 1
        assert "error: cannot read" in capsys.readouterr().err

    def test_diff_garbage_json_errors(self, tmp_path, capsys):
        before, after = tmp_path / "a.json", tmp_path / "b.json"
        self._write_report(before, 1)
        after.write_text("{not json")
        code = main([
            "obs", "report", "--diff", str(before), str(after),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: cannot read {after}")

    def test_diff_non_object_report_errors(self, tmp_path, capsys):
        """Valid JSON that is not a report object must be a one-line
        error, not an AttributeError traceback."""
        before, after = tmp_path / "a.json", tmp_path / "b.json"
        self._write_report(before, 1)
        after.write_text("[1, 2, 3]\n")
        code = main([
            "obs", "report", "--diff", str(before), str(after),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: cannot read {after}")
        assert "JSON object" in err

    def test_diff_non_object_metrics_section_errors(
        self, tmp_path, capsys
    ):
        import json

        before, after = tmp_path / "a.json", tmp_path / "b.json"
        self._write_report(before, 1)
        after.write_text(json.dumps(
            {"schema": 1, "metrics": ["oops"]}
        ))
        code = main([
            "obs", "report", "--diff", str(before), str(after),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: cannot read {after}")
        assert "metrics section" in err


class TestLoadtestCommand:
    @pytest.fixture()
    def archive_dir(self, tmp_path):
        import datetime as dt

        from repro.core import Severity
        from repro.store import SurveyArchive
        from tests.store.conftest import make_ranking, make_survey

        archive = SurveyArchive(tmp_path / "arc")
        archive.ingest(
            make_survey("2019-06", dt.datetime(2019, 6, 1), {
                100: Severity.SEVERE, 200: Severity.LOW,
            }),
            ranking=make_ranking(),
        )
        return str(tmp_path / "arc")

    def test_in_process_run_writes_report(self, tmp_path, archive_dir,
                                          capsys):
        import json

        report_path = tmp_path / "report.json"
        code = main([
            "loadtest", archive_dir, "--in-process",
            "--concurrency", "2", "--duration", "0.3",
            "--warmup", "0", "--report", str(report_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "req/s" in out
        assert "p99" in out
        payload = json.loads(report_path.read_text())
        assert payload["requests"] > 0
        assert payload["error_rate"] == 0.0
        assert payload["p99_ms"] > 0
        assert payload["concurrency"] == 2

    def test_update_bench_upserts_loadtest_section(
        self, tmp_path, archive_dir, capsys
    ):
        import json

        bench = tmp_path / "BENCH.json"
        bench.write_text(json.dumps({"overload": {"shed": 1}}))
        code = main([
            "loadtest", archive_dir, "--in-process",
            "--concurrency", "2", "--duration", "0.2", "--warmup", "0",
            "--mix", "as=4", "--mix", "healthz=1",
            "--update-bench", str(bench),
        ])
        assert code == 0
        capsys.readouterr()
        data = json.loads(bench.read_text())
        assert data["overload"] == {"shed": 1}
        assert data["loadtest"]["requests"] > 0

    def test_requires_archive_or_url(self, capsys):
        assert main(["loadtest"]) == 2
        assert "archive directory or --url" in capsys.readouterr().err

    def test_rejects_bad_mix_entry(self, archive_dir, capsys):
        code = main([
            "loadtest", archive_dir, "--mix", "bogus=1",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_archive_errors(self, tmp_path, capsys):
        from repro.store import SurveyArchive

        SurveyArchive(tmp_path / "empty")
        code = main(["loadtest", str(tmp_path / "empty")])
        assert code == 1
        assert "no committed periods" in capsys.readouterr().err
