"""CLI end-to-end tests (simulate -> run -> evaluate -> scaling)."""

import os

import pytest

from repro.cli.main import main


@pytest.fixture(scope="module")
def sample_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cli_sample"))
    rc = main(
        [
            "simulate",
            out,
            "--genome-size",
            "12000",
            "--coverage",
            "6",
            "--seed",
            "5",
        ]
    )
    assert rc == 0
    return out


class TestSimulate:
    def test_writes_all_files(self, sample_dir):
        for name in (
            "reference.fa",
            "sample_1.fastq",
            "sample_2.fastq",
            "known_sites.vcf",
            "truth.vcf",
        ):
            path = os.path.join(sample_dir, name)
            assert os.path.exists(path) and os.path.getsize(path) > 0

    def test_files_parse(self, sample_dir):
        from repro.formats.fasta import read_fasta
        from repro.formats.fastq import read_fastq
        from repro.formats.vcf import read_vcf

        ref = read_fasta(os.path.join(sample_dir, "reference.fa"))
        assert ref.total_length() == 12000
        reads1 = read_fastq(os.path.join(sample_dir, "sample_1.fastq"))
        reads2 = read_fastq(os.path.join(sample_dir, "sample_2.fastq"))
        assert len(reads1) == len(reads2) > 0
        _, truth = read_vcf(os.path.join(sample_dir, "truth.vcf"))
        assert truth

    def test_deterministic_by_seed(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            main(["simulate", out, "--genome-size", "6000", "--seed", "9"])
        with open(os.path.join(a, "sample_1.fastq")) as fa, open(
            os.path.join(b, "sample_1.fastq")
        ) as fb:
            assert fa.read() == fb.read()


class TestRunAndEvaluate:
    @pytest.fixture(scope="class")
    def calls_path(self, sample_dir):
        out = os.path.join(sample_dir, "calls.vcf")
        rc = main(
            [
                "run",
                "--reference",
                os.path.join(sample_dir, "reference.fa"),
                "--fastq1",
                os.path.join(sample_dir, "sample_1.fastq"),
                "--fastq2",
                os.path.join(sample_dir, "sample_2.fastq"),
                "--known-sites",
                os.path.join(sample_dir, "known_sites.vcf"),
                "--output",
                out,
                "--partition-length",
                "4000",
            ]
        )
        assert rc == 0
        return out

    def test_run_writes_vcf(self, calls_path):
        from repro.formats.vcf import read_vcf

        _, calls = read_vcf(calls_path)
        assert calls

    def test_evaluate_reports_scores(self, sample_dir, calls_path, capsys):
        rc = main(
            [
                "evaluate",
                "--calls",
                calls_path,
                "--truth",
                os.path.join(sample_dir, "truth.vcf"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "precision" in out and "recall" in out
        recall = float(out.split("recall")[1].split()[0])
        assert recall > 0.3

    def test_run_without_known_sites(self, sample_dir, tmp_path):
        out = str(tmp_path / "nodbsnp.vcf")
        rc = main(
            [
                "run",
                "--reference",
                os.path.join(sample_dir, "reference.fa"),
                "--fastq1",
                os.path.join(sample_dir, "sample_1.fastq"),
                "--fastq2",
                os.path.join(sample_dir, "sample_2.fastq"),
                "--output",
                out,
                "--partition-length",
                "4000",
                "--no-optimize",
            ]
        )
        assert rc == 0
        assert os.path.exists(out)


class TestFaultToleranceFlags:
    def _run_args(self, sample_dir, out, *extra):
        return [
            "run",
            "--reference",
            os.path.join(sample_dir, "reference.fa"),
            "--fastq1",
            os.path.join(sample_dir, "sample_1.fastq"),
            "--fastq2",
            os.path.join(sample_dir, "sample_2.fastq"),
            "--output",
            out,
            "--partition-length",
            "4000",
            *extra,
        ]

    def test_malformed_quarantine_survives_bad_quad(
        self, sample_dir, tmp_path, capsys
    ):
        # Corrupt one FASTQ quad; fail policy dies, quarantine completes.
        bad_dir = tmp_path / "bad"
        bad_dir.mkdir()
        for name in ("reference.fa", "sample_2.fastq"):
            (bad_dir / name).write_text(
                open(os.path.join(sample_dir, name)).read()
            )
        lines = open(os.path.join(sample_dir, "sample_1.fastq")).read().splitlines()
        lines[2] = "BROKEN-SEPARATOR"  # first record's '+' line
        (bad_dir / "sample_1.fastq").write_text("\n".join(lines) + "\n")

        out = str(tmp_path / "calls.vcf")
        args = [
            "run",
            "--reference",
            str(bad_dir / "reference.fa"),
            "--fastq1",
            str(bad_dir / "sample_1.fastq"),
            "--fastq2",
            str(bad_dir / "sample_2.fastq"),
            "--output",
            out,
            "--partition-length",
            "4000",
        ]
        # fail policy: one-line error plus the quarantine hint, exit 1
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "run: " in err
        assert "--malformed quarantine" in err
        rc = main(args + ["--malformed", "quarantine"])
        assert rc == 0
        assert os.path.exists(out)
        assert "quarantine:" in capsys.readouterr().out

    def test_journal_dir_resumes(self, sample_dir, tmp_path, capsys):
        out = str(tmp_path / "calls.vcf")
        journal = str(tmp_path / "journal")
        rc = main(self._run_args(sample_dir, out, "--journal-dir", journal))
        assert rc == 0
        first = capsys.readouterr().out
        assert "resumed from journal" not in first
        first_vcf = open(out).read()

        rc = main(self._run_args(sample_dir, out, "--journal-dir", journal))
        assert rc == 0
        second = capsys.readouterr().out
        assert "resumed from journal" in second
        assert open(out).read() == first_vcf


class TestLint:
    def test_builtin_plan_lints_clean(self, capsys):
        rc = main(["lint"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gpfcheck" in out
        assert "0 error(s)" in out and "0 warning(s)" in out
        assert "GPF103" in out  # the IR->BQSR->HC fusion chain

    def test_lints_files_plan(self, sample_dir, capsys):
        rc = main(
            [
                "lint",
                "--reference",
                os.path.join(sample_dir, "reference.fa"),
                "--fastq1",
                os.path.join(sample_dir, "sample_1.fastq"),
                "--fastq2",
                os.path.join(sample_dir, "sample_2.fastq"),
                "--known-sites",
                os.path.join(sample_dir, "known_sites.vcf"),
            ]
        )
        assert rc == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_examples_scan(self, capsys):
        examples = os.path.join(os.path.dirname(__file__), "..", "examples")
        rc = main(["lint", "--examples", examples])
        assert rc == 0
        out = capsys.readouterr().out
        assert "source scan" in out and "clean" in out

    def test_reference_without_fastqs_rejected(self, sample_dir, capsys):
        rc = main(
            ["lint", "--reference", os.path.join(sample_dir, "reference.fa")]
        )
        assert rc == 2
        assert "requires --fastq1/--fastq2" in capsys.readouterr().err


class TestRunErrorHandling:
    def _args(self, reference, tmp_path, *extra):
        return [
            "run",
            "--reference",
            reference,
            "--fastq1",
            "missing_1.fastq",
            "--fastq2",
            "missing_2.fastq",
            "--output",
            str(tmp_path / "calls.vcf"),
            *extra,
        ]

    def test_failure_is_one_line_plus_hints_not_a_traceback(
        self, tmp_path, capsys
    ):
        rc = main(self._args("/no/such/reference.fa", tmp_path))
        assert rc == 1
        err = capsys.readouterr().err
        assert "run: FileNotFoundError" in err
        assert "--journal-dir" in err  # resume hint
        assert "--malformed quarantine" in err  # bad-input hint
        assert "Traceback" not in err

    def test_failure_with_journal_dir_hints_resume(self, tmp_path, capsys):
        journal = str(tmp_path / "journal")
        rc = main(
            self._args("/no/such/reference.fa", tmp_path, "--journal-dir", journal)
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "re-run with the same flags to resume" in err

    def test_job_id_requires_journal_dir(self, tmp_path, capsys):
        rc = main(self._args("/no/such/reference.fa", tmp_path, "--job-id", "a"))
        assert rc == 2
        assert "--job-id requires --journal-dir" in capsys.readouterr().err


class TestRunJobIdNamespacing:
    def _run(self, sample_dir, out, journal, job_id):
        return main(
            [
                "run",
                "--reference",
                os.path.join(sample_dir, "reference.fa"),
                "--fastq1",
                os.path.join(sample_dir, "sample_1.fastq"),
                "--fastq2",
                os.path.join(sample_dir, "sample_2.fastq"),
                "--output",
                out,
                "--journal-dir",
                journal,
                "--job-id",
                job_id,
            ]
        )

    def test_distinct_job_ids_share_a_root_without_cross_restore(
        self, sample_dir, tmp_path, capsys
    ):
        journal = str(tmp_path / "journal")
        out = str(tmp_path / "calls.vcf")
        assert self._run(sample_dir, out, journal, "alpha") == 0
        first = capsys.readouterr().out
        assert "resumed from journal" not in first

        # Identical plan, same journal root, different job id: must NOT
        # restore alpha's checkpoints.
        assert self._run(sample_dir, out, journal, "beta") == 0
        second = capsys.readouterr().out
        assert "resumed from journal" not in second

        # Same job id: resumes.
        assert self._run(sample_dir, out, journal, "alpha") == 0
        third = capsys.readouterr().out
        assert "resumed from journal" in third
        assert os.path.isdir(os.path.join(journal, "alpha"))
        assert os.path.isdir(os.path.join(journal, "beta"))


class TestServeCli:
    def test_serve_requires_state_dir(self):
        with pytest.raises(SystemExit):
            main(["serve"])

    @pytest.fixture()
    def live_service(self, tmp_path):
        from repro.serve import PipelineService, ServiceConfig, start_http_server

        def instant(job, ctx, should_cancel, journal_dir):
            return {"records": 4, "output": job.spec.get("output")}

        service = PipelineService(
            str(tmp_path / "state"),
            ServiceConfig(workers=1, queue_depth=4),
            runner=instant,
        ).start()
        server = start_http_server(service)
        yield f"http://127.0.0.1:{server.port}"
        server.shutdown()
        service.drain()

    def _submit_args(self, url, *extra):
        return [
            "submit",
            "--url",
            url,
            "--reference",
            "r.fa",
            "--fastq1",
            "a.fq",
            "--fastq2",
            "b.fq",
            *extra,
        ]

    def test_submit_wait_jobs_status_roundtrip(self, live_service, capsys):
        rc = main(self._submit_args(live_service, "--wait", "--timeout", "30"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "submitted" in out and "succeeded" in out

        assert main(["jobs", "--url", live_service]) == 0
        listing = capsys.readouterr().out
        assert "succeeded" in listing and "4 records" in listing
        job_id = listing.split()[0]

        assert main(["status", job_id, "--url", live_service]) == 0
        assert "succeeded" in capsys.readouterr().out

        assert main(["status", job_id, "--url", live_service, "--json"]) == 0
        assert '"state": "succeeded"' in capsys.readouterr().out

    def test_jobs_metrics_dump(self, live_service, capsys):
        assert main(["jobs", "--url", live_service, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert '"jobs_submitted"' in out

    def test_status_unknown_job_fails(self, live_service, capsys):
        assert main(["status", "nope", "--url", live_service]) == 1
        assert "404" in capsys.readouterr().err

    def test_submit_unreachable_service_fails(self, capsys):
        rc = main(self._submit_args("http://127.0.0.1:1"))
        assert rc == 1
        assert "submit:" in capsys.readouterr().err


class TestScaling:
    def test_prints_table(self, capsys):
        rc = main(["scaling", "--cores", "128", "256"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "GPF" in out and "Churchill" in out
        assert "128" in out and "256" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestLintSelf:
    """gpf lint --self: the GPF3xx framework self-analysis gate."""

    def test_self_lint_clean_against_committed_baseline(self, capsys):
        rc = main(["lint", "--self"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gpfcheck --self" in out and "0 new" in out

    def test_self_lint_json_shape(self, capsys):
        import json

        rc = main(["lint", "--self", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mode"] == "self"
        assert data["new"] == []
        assert isinstance(data["findings"], list)

    def test_update_baseline_writes_file(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        rc = main(["lint", "--self", "--update-baseline", "--baseline", str(baseline)])
        assert rc == 0
        import json

        data = json.loads(baseline.read_text())
        assert "fingerprints" in data

    def test_new_finding_fails_against_empty_baseline(self, tmp_path, capsys, monkeypatch):
        # Point the self-lint at a source tree with a seeded bug and an
        # empty baseline: the run must exit nonzero and name the finding.
        import repro.analysis.selfcheck as selfcheck

        bad_root = tmp_path / "repro"
        bad_root.mkdir()
        (bad_root / "racy.py").write_text(
            "import threading\n"
            "class Racy:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._n = 0\n"
            "    def inc(self):\n"
            "        with self._lock:\n"
            "            self._n += 1\n"
            "    def peek(self):\n"
            "        return self._n\n"
        )
        monkeypatch.setattr(selfcheck, "SELF_ROOT", bad_root)
        baseline = tmp_path / "empty.json"
        rc = main(["lint", "--self", "--baseline", str(baseline)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "GPF301" in out and "1 new" in out

    def test_pipeline_lint_json(self, capsys):
        import json

        rc = main(["lint", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mode"] == "pipeline" and data["plan"] == "wgs"
        codes = {f["code"] for f in data["findings"]}
        assert "GPF103" in codes  # the fusion-info finding is stable


class TestObservabilityCli:
    def test_run_profile_flag_parses(self):
        from repro.cli.main import build_parser

        args = build_parser().parse_args(
            ["run", "--reference", "r", "--fastq1", "a", "--fastq2", "b",
             "--output", "o", "--profile"]
        )
        assert args.profile == 0.005
        args = build_parser().parse_args(
            ["run", "--reference", "r", "--fastq1", "a", "--fastq2", "b",
             "--output", "o", "--profile", "0.01"]
        )
        assert args.profile == 0.01
        args = build_parser().parse_args(
            ["run", "--reference", "r", "--fastq1", "a", "--fastq2", "b",
             "--output", "o"]
        )
        assert args.profile is None

    def test_top_parser_defaults(self):
        from repro.cli.main import build_parser

        args = build_parser().parse_args(["top", "--once"])
        assert args.command == "top"
        assert args.once and args.interval == 2.0 and args.iterations == 0

    def test_profiled_run_prints_hot_functions_and_flame(
        self, sample_dir, tmp_path, capsys
    ):
        out = str(tmp_path / "calls.vcf")
        trace = str(tmp_path / "trace")
        rc = main(
            ["run", "--reference", os.path.join(sample_dir, "reference.fa"),
             "--fastq1", os.path.join(sample_dir, "sample_1.fastq"),
             "--fastq2", os.path.join(sample_dir, "sample_2.fastq"),
             "--output", out, "--profile", "0.002", "--trace-out", trace]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "profile:" in err and "sample(s)" in err
        assert os.path.exists(os.path.join(trace, "profile.folded"))
        # report --flame over the same event log prints folded stacks
        rc = main(["report", os.path.join(trace, "events.jsonl"), "--flame"])
        assert rc == 0
        flame = capsys.readouterr().out
        lines = [ln for ln in flame.splitlines() if ln.strip()]
        assert lines
        assert all(";" in ln or " " in ln for ln in lines)
        stack, count = lines[0].rsplit(" ", 1)
        assert int(count) > 0 and stack

    def test_run_report_json_is_the_report_of_its_event_log(
        self, sample_dir, tmp_path, capsys
    ):
        trace = str(tmp_path / "trace")
        rc = main(
            ["run", "--reference", os.path.join(sample_dir, "reference.fa"),
             "--fastq1", os.path.join(sample_dir, "sample_1.fastq"),
             "--fastq2", os.path.join(sample_dir, "sample_2.fastq"),
             "--output", str(tmp_path / "calls.vcf"), "--trace-out", trace,
             "--report", "json"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        # The JSON document follows the "wrote ..." summary lines.
        printed = out[out.index("\n{\n") + 1 :]
        rc = main(
            ["report", os.path.join(trace, "events.jsonl"), "--format", "json"]
        )
        assert rc == 0
        assert printed == capsys.readouterr().out

    def test_flame_of_an_appended_log_folds_the_last_run(self, tmp_path, capsys):
        from repro.engine.context import EngineConfig, GPFContext
        from repro.obs import last_run, read_events

        trace = str(tmp_path / "trace")
        for _ in range(2):  # two profiled runs append to one events.jsonl
            config = EngineConfig(
                spill_dir=str(tmp_path / "spill"),
                trace_dir=trace,
                profile_interval=0.001,
            )
            with GPFContext(config) as ctx:
                ctx.parallelize([(i % 4, i) for i in range(4000)], 4).map_values(
                    lambda v: sum(j * j for j in range(v % 197))
                ).group_by_key().collect()
        log = os.path.join(trace, "events.jsonl")
        events = read_events(log)

        def samples(segment):
            return sum(
                int(n)
                for event in segment
                if event["kind"] == "profile.sample"
                for n in event["stacks"].values()
            )

        last = samples(last_run(events))
        assert 0 < last < samples(events)
        assert main(["report", log, "--flame"]) == 0
        flame = capsys.readouterr().out.splitlines()
        assert sum(int(line.rsplit(" ", 1)[1]) for line in flame) == last

    def test_flame_without_profile_events_is_error(self, tmp_path, capsys):
        import json

        events = tmp_path / "events.jsonl"
        events.write_text(json.dumps({"kind": "run.start", "ts": 0.0}) + "\n")
        rc = main(["report", str(events), "--flame"])
        assert rc == 2
        assert "no profile.sample events" in capsys.readouterr().err

    def test_top_once_renders_against_live_service(self, tmp_path, capsys):
        from repro.serve import PipelineService, ServiceConfig, start_http_server
        from repro.engine.context import EngineConfig

        def instant(job, ctx, should_cancel, journal_dir):
            return {"records": 4}

        service = PipelineService(
            str(tmp_path / "state"),
            ServiceConfig(workers=1, queue_depth=4,
                          engine=EngineConfig(default_parallelism=2)),
            runner=instant,
        ).start()
        server = start_http_server(service)
        try:
            rc = main(["top", "--url", f"http://127.0.0.1:{server.port}",
                       "--once"])
            assert rc == 0
            out = capsys.readouterr().out
            assert "gpf top" in out and "[healthy]" in out
        finally:
            server.shutdown()
            service.drain()


class TestBenchHistory:
    def test_append_history_keeps_trajectory(self, tmp_path):
        import json
        import sys

        sys.path.insert(0, "benchmarks")
        try:
            from bench_history import append_history
        finally:
            sys.path.pop(0)
        path = str(tmp_path / "BENCH_kernels.json")
        append_history(path, {"kernel": {"speedup": 10.0}})
        doc = append_history(path, {"kernel": {"speedup": 11.0}})
        assert doc["kernel"]["speedup"] == 11.0
        assert len(doc["history"]) == 2
        assert all("at" in entry for entry in doc["history"])
        with open(path) as fh:
            on_disk = json.load(fh)
        assert [e["kernel"]["speedup"] for e in on_disk["history"]] == [10.0, 11.0]

    def test_history_bounded_by_keep(self, tmp_path):
        import sys

        sys.path.insert(0, "benchmarks")
        try:
            from bench_history import append_history
        finally:
            sys.path.pop(0)
        path = str(tmp_path / "BENCH.json")
        for i in range(6):
            doc = append_history(path, {"k": {"speedup": float(i)}}, keep=3)
        assert [e["k"]["speedup"] for e in doc["history"]] == [3.0, 4.0, 5.0]

    def test_check_kernel_regression(self):
        import sys

        sys.path.insert(0, "benchmarks")
        try:
            from bench_history import check_kernel_regression
        finally:
            sys.path.pop(0)
        baseline = {"pairhmm": {"speedup": 10.0}, "sw": {"speedup": 4.0}}
        ok = {"pairhmm": {"speedup": 8.0}, "sw": {"speedup": 3.5}}
        assert check_kernel_regression(baseline, ok) == []
        bad = {"pairhmm": {"speedup": 6.0}, "sw": {"speedup": 3.5}}
        problems = check_kernel_regression(baseline, bad)
        assert problems and "pairhmm" in problems[0]
        missing = {"sw": {"speedup": 3.5}}
        assert any("missing" in p for p in check_kernel_regression(baseline, missing))
