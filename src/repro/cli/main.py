"""argparse front end for the GPF reproduction."""

from __future__ import annotations

import argparse
import os
import sys
import time

_SIZE_SUFFIXES = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30, "T": 1 << 40}


def parse_size(text: str) -> int:
    """``64M`` / ``2G`` / ``512K`` / ``1.5G`` / plain bytes -> bytes."""
    value = text.strip().upper()
    if value.endswith("B") and len(value) > 1 and value[-2] in _SIZE_SUFFIXES:
        value = value[:-1]
    multiplier = 1
    if value and value[-1] in _SIZE_SUFFIXES:
        multiplier = _SIZE_SUFFIXES[value[-1]]
        value = value[:-1]
    try:
        result = int(float(value) * multiplier)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid size {text!r}") from None
    if result < 0:
        raise argparse.ArgumentTypeError(f"negative size {text!r}")
    return result


def _add_cluster_options(sub_parser: argparse.ArgumentParser) -> None:
    """The `--backend cluster` flag family, shared by run and serve."""
    from repro.dist.spec import parse_hostport, parse_workers

    sub_parser.add_argument(
        "--cluster-listen",
        type=parse_hostport,
        metavar="HOST:PORT",
        default=None,
        help=(
            "fleet listener address for --backend cluster "
            "(default 127.0.0.1:7077)"
        ),
    )
    sub_parser.add_argument(
        "--expect-workers",
        type=parse_workers,
        metavar="N|HOST:PORT,...",
        default=None,
        help=(
            "wait for this many workers (or this explicit list) to "
            "register before scheduling tasks remotely"
        ),
    )
    sub_parser.add_argument(
        "--cluster-wait",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="how long to wait for --expect-workers before falling back",
    )


def build_parser() -> argparse.ArgumentParser:
    """The gpf argument parser with all four subcommands."""
    parser = argparse.ArgumentParser(
        prog="gpf",
        description=(
            "GPF: high-performance genomic analysis framework with "
            "in-memory computing (PPoPP'18 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic sample")
    sim.add_argument("output_dir")
    sim.add_argument("--genome-size", type=int, default=30_000)
    sim.add_argument("--contigs", type=int, default=1)
    sim.add_argument("--coverage", type=float, default=8.0)
    sim.add_argument("--snp-rate", type=float, default=0.002)
    sim.add_argument("--indel-rate", type=float, default=0.0003)
    sim.add_argument("--duplicate-fraction", type=float, default=0.05)
    sim.add_argument("--seed", type=int, default=0)

    run = sub.add_parser("run", help="run the WGS pipeline over files")
    run.add_argument("--reference", required=True, help="FASTA path")
    run.add_argument("--fastq1", required=True)
    run.add_argument("--fastq2", required=True)
    run.add_argument("--known-sites", help="dbSNP-like VCF path")
    run.add_argument("--output", required=True, help="output VCF path")
    run.add_argument(
        "--serializer", choices=("gpf", "compact"), default="gpf"
    )
    run.add_argument("--partition-length", type=int, default=5_000)
    run.add_argument("--partitions", type=int, default=4)
    run.add_argument("--gvcf", action="store_true")
    run.add_argument(
        "--no-optimize",
        action="store_true",
        help="disable redundancy elimination (Fig. 7)",
    )
    run.add_argument(
        "--backend",
        choices=("serial", "threads", "process", "cluster"),
        default="serial",
        help="executor backend (default: serial); 'process' selects the threads pool",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=4,
        help=(
            "pool threads for the threads backend, in-flight ships for "
            "cluster (default: 4)"
        ),
    )
    _add_cluster_options(run)
    run.add_argument(
        "--malformed",
        choices=("fail", "drop", "quarantine"),
        default="fail",
        help=(
            "bad-input policy for FASTQ/SAM/VCF parsing: fail on the first "
            "corrupt record, drop silently, or quarantine and report"
        ),
    )
    run.add_argument(
        "--journal-dir",
        help=(
            "run-journal directory: finished pipeline Processes are "
            "checkpointed there, and a re-run with the same plan resumes "
            "after the last completed Process"
        ),
    )
    run.add_argument(
        "--job-id",
        help=(
            "namespace the journal as <journal-dir>/<job-id>/ so runs "
            "sharing one journal root never restore each other's "
            "checkpoints (requires --journal-dir)"
        ),
    )
    run.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help="per-attempt task deadline in seconds (hung tasks are retried)",
    )
    run.add_argument(
        "--memory-budget",
        metavar="SIZE",
        type=parse_size,
        default=None,
        help=(
            "block-manager memory budget for cached partitions, accounted "
            "in *compressed* bytes (e.g. 64M, 2G, or plain bytes); blocks "
            "past the budget spill to disk in codec form"
        ),
    )
    run.add_argument(
        "--trace-out",
        metavar="DIR",
        help=(
            "tracing directory: enables the span tracer and structured "
            "event log; writes DIR/events.jsonl and DIR/trace.json "
            "(Chrome trace, load in chrome://tracing or Perfetto)"
        ),
    )
    run.add_argument(
        "--profile",
        metavar="INTERVAL",
        nargs="?",
        const=0.005,
        type=float,
        default=None,
        help=(
            "enable the sampling profiler (optional sampling interval in "
            "seconds, default 0.005); prints the hottest functions, and "
            "with --trace-out also writes DIR/profile.folded (flamegraph "
            "input) plus sample events in the Chrome trace"
        ),
    )
    run.add_argument(
        "--report",
        choices=("text", "json"),
        default=None,
        help="print the full run report (Table 4 stages, blocked time, telemetry)",
    )
    run.add_argument(
        "--chaos",
        metavar="PLAN",
        help=(
            "chaos plan JSON (see `gpf chaos`): inject the plan's seeded "
            "faults into this run's block manager, shuffle, journal, and "
            "scheduler"
        ),
    )

    ev = sub.add_parser("evaluate", help="score a VCF against a truth VCF")
    ev.add_argument("--calls", required=True)
    ev.add_argument("--truth", required=True)

    rep = sub.add_parser(
        "report",
        help="render a run report from a saved events.jsonl",
        description=(
            "Rebuild the gpf run report (process wall times, Table 4 stage "
            "table, Fig. 12 blocked-time fractions, failures, telemetry) "
            "from an event log written by `gpf run --trace-out DIR`."
        ),
    )
    rep.add_argument("events", help="path to events.jsonl")
    rep.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    rep.add_argument(
        "--validate",
        action="store_true",
        help="check every event against the schema; exit nonzero on problems",
    )
    rep.add_argument(
        "--flame",
        action="store_true",
        help=(
            "print the folded flamegraph (collapsed stacks from the run's "
            "profile.sample events) instead of the report; pipe into "
            "flamegraph.pl or load into speedscope"
        ),
    )

    lint = sub.add_parser(
        "lint",
        help="statically validate the WGS pipeline plan (gpfcheck)",
        description=(
            "Build the standard WGS plan (over a tiny in-memory sample, or "
            "over your files) and run gpfcheck's static analysis: DAG plan "
            "rules, optimizer cross-check, and closure analysis. Nothing is "
            "executed."
        ),
    )
    lint.add_argument("--reference", help="FASTA path (default: simulated)")
    lint.add_argument("--fastq1", help="FASTQ mate-1 path")
    lint.add_argument("--fastq2", help="FASTQ mate-2 path")
    lint.add_argument("--known-sites", help="dbSNP-like VCF path")
    lint.add_argument("--partition-length", type=int, default=5_000)
    lint.add_argument("--partitions", type=int, default=4)
    lint.add_argument(
        "--no-closures",
        action="store_true",
        help="skip the closure-analysis layer",
    )
    lint.add_argument(
        "--warnings-as-errors",
        action="store_true",
        help="exit nonzero on warnings too",
    )
    lint.add_argument(
        "--examples",
        metavar="DIR",
        action="append",
        help="also source-scan every *.py plan in DIR (repeatable)",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit findings as JSON (stable interface for CI/hooks)",
    )
    lint.add_argument(
        "--self",
        dest="self_lint",
        action="store_true",
        help=(
            "lint the framework's own source instead of a pipeline: "
            "GPF3xx concurrency & resource-safety rules against the "
            "committed baseline"
        ),
    )
    lint.add_argument(
        "--baseline",
        metavar="FILE",
        help="baseline file for --self (default: the committed one)",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="with --self: rewrite the baseline from this run's findings",
    )

    sc = sub.add_parser("scaling", help="print the Fig. 10 scaling table")
    sc.add_argument("--gigabases", type=float, default=146.9)
    sc.add_argument(
        "--cores", type=int, nargs="+", default=[128, 256, 512, 1024, 2048]
    )

    srv = sub.add_parser(
        "serve",
        help="run the resident pipeline service (job queue + HTTP API)",
        description=(
            "Start a multi-tenant pipeline service: a bounded job queue, "
            "N workers with warm pooled engine contexts, per-job run "
            "journals (a killed service resumes incomplete jobs on "
            "restart), and a JSON API (POST/GET/DELETE /jobs, /healthz, "
            "/metrics).  SIGINT/SIGTERM drains gracefully: running jobs "
            "finish, queued jobs survive in --state-dir."
        ),
    )
    srv.add_argument("--state-dir", required=True, help="durable service state")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8765, help="0 picks a free port")
    srv.add_argument("--workers", type=int, default=2, help="worker threads")
    srv.add_argument(
        "--queue-depth", type=int, default=8, help="admission bound (HTTP 429 past it)"
    )
    srv.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help="per-job deadline in seconds (checked between Processes)",
    )
    srv.add_argument(
        "--backend",
        choices=("serial", "threads", "process", "cluster"),
        default="serial",
    )
    _add_cluster_options(srv)
    srv.add_argument(
        "--partitions", type=int, default=4, help="default per-job parallelism"
    )
    srv.add_argument(
        "--access-log", action="store_true", help="log every HTTP request to stderr"
    )
    srv.add_argument(
        "--chaos",
        metavar="PLAN",
        help=(
            "chaos plan JSON: serve.* rules fault the service layer, "
            "engine rules fault every worker context"
        ),
    )
    srv.add_argument(
        "--profile",
        metavar="INTERVAL",
        nargs="?",
        const=0.005,
        type=float,
        default=None,
        help=(
            "profile every worker context (sampling interval in seconds, "
            "default 0.005); hot functions stream into each job's "
            "/jobs/<id>/progress document"
        ),
    )

    from repro.dist.spec import parse_hostport as _hostport

    wrk = sub.add_parser(
        "worker",
        help="run a cluster worker daemon (connects to a gpf driver fleet)",
        description=(
            "Start a worker that registers with a driver's fleet listener "
            "(gpf serve --backend cluster / gpf run --backend cluster), "
            "executes shipped tasks, serves its shuffle map outputs to "
            "peers over a block server, and runs until the driver says "
            "goodbye or closes its task channels, or until interrupted."
        ),
    )
    wrk.add_argument(
        "--connect",
        type=_hostport,
        metavar="HOST:PORT",
        required=True,
        help="driver fleet address to register with",
    )
    wrk.add_argument(
        "--slots",
        type=int,
        default=None,
        help="concurrent task slots (default: CPU count)",
    )
    wrk.add_argument(
        "--id",
        dest="worker_id",
        default=None,
        help="stable worker id (default: host-pid derived)",
    )
    wrk.add_argument(
        "--work-dir",
        default=None,
        help="scratch root for shuffle blocks/caches (default: a tempdir)",
    )
    wrk.add_argument(
        "--advertise-host",
        default=None,
        help=(
            "host peers should use to fetch this worker's shuffle blocks "
            "(default: the address the driver connection binds from)"
        ),
    )

    top = sub.add_parser(
        "top",
        help="live view of a gpf serve instance (jobs, progress, hot functions)",
        description=(
            "Poll a serve instance and render a terminal dashboard: health "
            "and queue state, per-job stage progress with ETAs, latency "
            "percentiles from /metrics histograms, and the hottest "
            "functions when the service runs with --profile.  Refreshes "
            "in place until interrupted."
        ),
    )
    top.add_argument("--url", default="http://127.0.0.1:8765")
    top.add_argument(
        "--interval", type=float, default=2.0, help="refresh period in seconds"
    )
    top.add_argument(
        "--once", action="store_true", help="render one frame and exit"
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="stop after N frames (0 = until interrupted)",
    )

    cha = sub.add_parser(
        "chaos",
        help="run the seeded chaos scenario suite",
        description=(
            "Run seeded fault-injection scenarios against the full WGS "
            "pipeline and the serve layer.  Every scenario must end in "
            "byte-identical output or a typed failure — never a hang — "
            "and identically-seeded runs must inject the identical fault "
            "sequence.  Exit code 1 if any scenario fails."
        ),
    )
    cha.add_argument(
        "--scenario",
        action="append",
        dest="scenarios",
        metavar="NAME",
        help="scenario to run (repeatable; default: all)",
    )
    cha.add_argument("--seed", type=int, default=0, help="chaos plan seed")
    cha.add_argument(
        "--out", metavar="DIR", help="write per-run chaos event logs here"
    )
    cha.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    cha.add_argument(
        "--json", action="store_true", help="emit outcomes as JSON lines"
    )

    smt = sub.add_parser("submit", help="submit a WGS run to a gpf serve instance")
    smt.add_argument("--url", default="http://127.0.0.1:8765")
    smt.add_argument("--reference", required=True, help="FASTA path")
    smt.add_argument("--fastq1", required=True)
    smt.add_argument("--fastq2", required=True)
    smt.add_argument("--known-sites", help="dbSNP-like VCF path")
    smt.add_argument("--output", help="server-side output VCF path")
    smt.add_argument("--partitions", type=int, default=None)
    smt.add_argument("--partition-length", type=int, default=None)
    smt.add_argument("--gvcf", action="store_true")
    smt.add_argument("--priority", type=int, default=0, help="larger runs first")
    smt.add_argument(
        "--wait", action="store_true", help="poll until the job finishes"
    )
    smt.add_argument(
        "--timeout", type=float, default=600.0, help="--wait deadline in seconds"
    )

    jb = sub.add_parser("jobs", help="list jobs on a gpf serve instance")
    jb.add_argument("--url", default="http://127.0.0.1:8765")
    jb.add_argument(
        "--state",
        choices=("queued", "admitted", "running", "succeeded", "failed", "cancelled"),
        help="only jobs in this state",
    )
    jb.add_argument(
        "--metrics", action="store_true", help="print /metrics instead of the job table"
    )

    st = sub.add_parser("status", help="show one job on a gpf serve instance")
    st.add_argument("job_id")
    st.add_argument("--url", default="http://127.0.0.1:8765")
    st.add_argument(
        "--json", action="store_true", help="dump the raw job document (with report)"
    )
    st.add_argument("--cancel", action="store_true", help="cancel instead of show")

    return parser


def cmd_simulate(args: argparse.Namespace) -> int:
    """simulate: write reference/FASTQ/known/truth files."""
    from repro.formats.fasta import write_fasta
    from repro.formats.fastq import write_fastq
    from repro.formats.vcf import VcfHeader, sort_records, write_vcf
    from repro.sim import (
        ReadSimConfig,
        ReadSimulator,
        generate_known_sites,
        generate_reference,
        plant_variants,
    )

    os.makedirs(args.output_dir, exist_ok=True)
    per_contig = args.genome_size // max(1, args.contigs)
    reference = generate_reference(
        [per_contig] * args.contigs, seed=args.seed
    )
    truth = plant_variants(
        reference,
        snp_rate=args.snp_rate,
        indel_rate=args.indel_rate,
        seed=args.seed + 1,
    )
    known = generate_known_sites(truth, reference, seed=args.seed + 2)
    pairs = ReadSimulator(
        truth.donor,
        ReadSimConfig(
            coverage=args.coverage,
            duplicate_fraction=args.duplicate_fraction,
            seed=args.seed + 3,
        ),
    ).simulate()

    paths = {
        "reference": os.path.join(args.output_dir, "reference.fa"),
        "fastq1": os.path.join(args.output_dir, "sample_1.fastq"),
        "fastq2": os.path.join(args.output_dir, "sample_2.fastq"),
        "known": os.path.join(args.output_dir, "known_sites.vcf"),
        "truth": os.path.join(args.output_dir, "truth.vcf"),
    }
    write_fasta(reference, paths["reference"])
    write_fastq([p.read1 for p in pairs], paths["fastq1"])
    write_fastq([p.read2 for p in pairs], paths["fastq2"])
    header = VcfHeader(tuple(reference.contig_lengths()))
    write_vcf(header, sort_records(known, reference.contig_names), paths["known"])
    write_vcf(
        header, sort_records(truth.records, reference.contig_names), paths["truth"]
    )
    print(f"wrote {len(pairs)} read pairs, {len(truth.records)} truth variants:")
    for name, path in paths.items():
        print(f"  {name:<10} {path}")
    return 0


def _cluster_engine_fields(args: argparse.Namespace) -> dict:
    """EngineConfig overrides from the --backend cluster flag family."""
    if getattr(args, "backend", None) != "cluster":
        return {}
    from repro.dist.spec import format_hostport

    fields: dict = {"cluster_wait": getattr(args, "cluster_wait", 30.0)}
    # An ephemeral port would leave workers with nothing to --connect to,
    # so the CLI pins a default; the API default (None) stays ephemeral
    # for in-process fleets that pass the port to workers directly.
    listen = getattr(args, "cluster_listen", None) or ("127.0.0.1", 7077)
    fields["cluster_listen"] = format_hostport(listen)
    spec = getattr(args, "expect_workers", None)
    if spec is not None:
        fields["cluster_min_workers"] = spec.count
    return fields


def cmd_worker(args: argparse.Namespace) -> int:
    """worker: run a cluster worker daemon until the driver hangs up."""
    from repro.dist.worker import WorkerDaemon

    daemon = WorkerDaemon(
        args.connect,
        slots=args.slots,
        worker_id=args.worker_id,
        root_dir=args.work_dir,
        advertise_host=args.advertise_host,
    )
    try:
        daemon.run()
        return 0
    except KeyboardInterrupt:
        daemon.stop()
        return 0
    except OSError as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 1


def cmd_run(args: argparse.Namespace) -> int:
    """run: execute the WGS pipeline over files, write the VCF.

    Pipeline failures never escape as raw tracebacks: the error is
    reported on one stderr line with resume (journal) and bad-input
    (quarantine) hints, and the exit code is 1.
    """
    from repro.engine import EngineConfig
    from repro.engine.journal import job_journal_dir

    journal_dir = args.journal_dir
    if args.job_id:
        if not journal_dir:
            print("run: --job-id requires --journal-dir", file=sys.stderr)
            return 2
        journal_dir = job_journal_dir(journal_dir, args.job_id)

    chaos_plan = None
    if getattr(args, "chaos", None):
        from repro.chaos import ChaosPlan

        chaos_plan = ChaosPlan.load(args.chaos)
    config = EngineConfig(
        default_parallelism=args.partitions,
        serializer=args.serializer,
        executor_backend=args.backend,
        num_workers=max(1, args.workers),
        task_timeout=args.task_timeout,
        profile_interval=args.profile,
        trace_dir=args.trace_out,
        memory_budget=args.memory_budget,
        chaos=chaos_plan,
        **_cluster_engine_fields(args),
    )
    start = time.perf_counter()
    try:
        return _run_pipeline(args, config, journal_dir, start)
    except KeyboardInterrupt:
        raise
    except Exception as exc:  # noqa: BLE001 - CLI boundary: no raw tracebacks
        print(f"run: {type(exc).__name__}: {exc}", file=sys.stderr)
        if journal_dir:
            print(
                f"  finished Processes are journaled under {journal_dir}; "
                "re-run with the same flags to resume after the last one",
                file=sys.stderr,
            )
        else:
            print(
                "  hint: --journal-dir DIR makes an interrupted run resumable",
                file=sys.stderr,
            )
        if args.malformed == "fail":
            print(
                "  hint: --malformed quarantine isolates corrupt input "
                "records instead of failing the run",
                file=sys.stderr,
            )
        return 1


def _run_pipeline(args, config, journal_dir: str | None, start: float) -> int:
    """The happy path of ``gpf run`` (exceptions handled by the caller)."""
    from repro.engine import GPFContext
    from repro.obs import RunReport
    from repro.wgs import run_wgs_files

    # The report is built from the run's own events, by the code
    # `gpf report` runs on a saved events.jsonl.
    events: list[dict] = []
    with GPFContext(config) as ctx:
        ctx.events.subscribe(events.append)
        handles, calls = run_wgs_files(
            ctx,
            args.reference,
            args.fastq1,
            args.fastq2,
            args.partitions,
            known_sites=args.known_sites,
            output=args.output,
            partition_length=args.partition_length,
            use_gvcf=args.gvcf,
            malformed=args.malformed,
            optimize=not args.no_optimize,
            journal_dir=journal_dir,
        )
        job = ctx.metrics.job()
        elapsed = time.perf_counter() - start
        print(f"wrote {len(calls)} records to {args.output}")
        print(
            f"  elapsed {elapsed:.1f}s | stages {job.stage_count} | "
            f"shuffle {job.shuffle_bytes / 1e3:.1f} KB | "
            f"executed: {', '.join(p.name for p in handles.pipeline.executed)}"
        )
        if handles.pipeline.skipped:
            print(
                "  resumed from journal; skipped: "
                + ", ".join(p.name for p in handles.pipeline.skipped)
            )
        failures = ctx.metrics.failure_counts()
        if failures:
            worst = sorted(failures.items(), key=lambda kv: -kv[1])[:3]
            summary = ", ".join(
                f"{kind} p{part}×{n}" for (kind, part), n in worst
            )
            print(f"  task failures (retried): {summary}")
        if ctx.quarantine.total:
            print(f"  {ctx.quarantine.summary()}")
        profiler = ctx.profiler
    # Closing the context published the final telemetry and run.end.
    report = RunReport.from_events(events)
    print(report.summary_line(), file=sys.stderr)
    if profiler is not None:
        total = profiler.samples
        print(
            f"profile: {total} sample(s) at {profiler.interval * 1e3:.1f}ms",
            file=sys.stderr,
        )
        for name, count in profiler.top_functions(8):
            share = 100.0 * count / total if total else 0.0
            print(f"  {share:5.1f}%  {name}", file=sys.stderr)
        if args.trace_out:
            print(
                f"  folded stacks: {os.path.join(args.trace_out, 'profile.folded')}",
                file=sys.stderr,
            )
    if args.trace_out:
        print(
            f"trace: {os.path.join(args.trace_out, 'events.jsonl')} "
            f"(render with `gpf report`); Chrome trace at "
            f"{os.path.join(args.trace_out, 'trace.json')}",
            file=sys.stderr,
        )
    if args.report == "text":
        print(report.render_text(), end="")
    elif args.report == "json":
        import json

        print(json.dumps(report.to_json(), indent=2))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """report: rebuild and render the run report from an event log."""
    import json

    from repro.obs import RunReport, last_run, read_events, validate_events

    if not os.path.exists(args.events):
        print(f"report: no such file: {args.events}", file=sys.stderr)
        return 2
    events = read_events(args.events)
    if not events:
        print(f"report: no events found in {args.events}", file=sys.stderr)
        return 2
    if args.flame:
        from repro.obs import fold_folded_text

        stacks = [
            event.get("stacks")
            for event in last_run(events)
            if event.get("kind") == "profile.sample"
            and isinstance(event.get("stacks"), dict)
        ]
        if not stacks:
            print(
                f"report: no profile.sample events in {args.events} "
                "(was the run profiled? see `gpf run --profile`)",
                file=sys.stderr,
            )
            return 2
        print(fold_folded_text(stacks), end="")
        return 0
    exit_code = 0
    if args.validate:
        problems = validate_events(events)
        if problems:
            for problem in problems:
                print(f"report: schema: {problem}", file=sys.stderr)
            exit_code = 1
        else:
            print(f"report: {len(events)} event(s), schema OK", file=sys.stderr)
    report = RunReport.from_events(events)
    if args.fmt == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render_text(), end="")
    return exit_code


def cmd_lint_self(args: argparse.Namespace) -> int:
    """lint --self: GPF3xx concurrency rules over the framework source."""
    import json as _json

    from repro.analysis import (
        compare_to_baseline,
        load_baseline,
        self_lint,
        write_baseline,
    )
    from repro.analysis.selfcheck import DEFAULT_BASELINE

    report = self_lint()
    baseline_path = args.baseline or DEFAULT_BASELINE

    if args.update_baseline:
        path = write_baseline(report, baseline_path)
        print(f"gpfcheck --self: baseline written to {path} "
              f"({len(report)} finding(s) grandfathered)")
        return 0

    baseline = load_baseline(baseline_path)
    new, fixed = compare_to_baseline(report, baseline)

    if args.json:
        print(_json.dumps(
            {
                "mode": "self",
                "findings": [d.to_json() for d in report.sorted()],
                "new": [d.to_json() for d in new],
                "fixed_fingerprints": fixed,
                "baseline": str(baseline_path),
                "baseline_size": sum(baseline.values()),
            },
            indent=2,
        ))
    else:
        print(f"gpfcheck --self: {len(report)} finding(s), "
              f"{sum(baseline.values())} baselined, {len(new)} new")
        for diag in new or []:
            print(diag.render())
        if fixed:
            print(
                f"note: {len(fixed)} baselined finding(s) no longer occur; "
                "prune them with --update-baseline"
            )
    return 1 if new else 0


def cmd_lint(args: argparse.Namespace) -> int:
    """lint: build the WGS plan and statically validate it (no execution)."""
    import json as _json

    from repro.analysis import LintOptions, Severity, lint_pipeline, scan_directory
    from repro.engine import EngineConfig, GPFContext
    from repro.wgs import build_wgs_pipeline

    if args.self_lint:
        return cmd_lint_self(args)

    if args.reference:
        from repro.engine.files import load_fastq_pair_lazy
        from repro.formats.fasta import read_fasta
        from repro.formats.vcf import read_vcf

        if not (args.fastq1 and args.fastq2):
            print("lint: --reference requires --fastq1/--fastq2", file=sys.stderr)
            return 2
        reference = read_fasta(args.reference)
        known = []
        if args.known_sites:
            _, known = read_vcf(args.known_sites)
    else:
        # No files: lint the built-in plan over a tiny simulated sample.
        from repro.sim import (
            ReadSimConfig,
            ReadSimulator,
            generate_known_sites,
            generate_reference,
            plant_variants,
        )

        reference = generate_reference([4_000], seed=0)
        truth = plant_variants(
            reference, snp_rate=0.002, indel_rate=0.0003, seed=1
        )
        known = generate_known_sites(truth, reference, seed=2)

    exit_code = 0
    options = LintOptions(check_closures=not args.no_closures)
    with GPFContext(EngineConfig(default_parallelism=args.partitions)) as ctx:
        if args.reference:
            rdd = load_fastq_pair_lazy(
                ctx, args.fastq1, args.fastq2, args.partitions
            )
        else:
            pairs = ReadSimulator(
                truth.donor, ReadSimConfig(coverage=2.0, seed=3)
            ).simulate()
            rdd = ctx.parallelize(pairs, args.partitions)
        handles = build_wgs_pipeline(
            ctx,
            reference,
            rdd,
            known,
            partition_length=args.partition_length,
        )
        report = lint_pipeline(handles.pipeline, options=options)
        if not args.json:
            print(f"gpfcheck: plan {handles.pipeline.name!r} "
                  f"({len(handles.pipeline.processes)} processes)")
            print(report.render(min_severity=Severity.INFO))
        if report.has_errors or (args.warnings_as_errors and report.warnings):
            exit_code = 1

    scan_results: dict[str, list] = {}
    for directory in args.examples or []:
        if not os.path.isdir(directory):
            print(f"lint: no such directory: {directory}", file=sys.stderr)
            return 2
        if not args.json:
            print(f"\ngpfcheck: source scan over {directory}/*.py")
        for name, diags in scan_directory(directory).items():
            scan_results[os.path.join(directory, name)] = diags
            for diag in diags:
                if not args.json:
                    print(f"  {name}: {diag.render()}")
                if diag.severity >= Severity.ERROR or args.warnings_as_errors:
                    exit_code = 1
            if not diags and not args.json:
                print(f"  {name}: clean")

    if args.json:
        print(_json.dumps(
            {
                "mode": "pipeline",
                "plan": handles.pipeline.name,
                "findings": [d.to_json() for d in report.sorted()],
                "source_scan": {
                    path: [d.to_json() for d in diags]
                    for path, diags in scan_results.items()
                },
                "exit_code": exit_code,
            },
            indent=2,
        ))
    return exit_code


def cmd_evaluate(args: argparse.Namespace) -> int:
    """evaluate: score calls against truth and print the report."""
    from repro.caller.evaluation import evaluate_calls
    from repro.formats.vcf import read_vcf

    _, calls = read_vcf(args.calls)
    _, truth = read_vcf(args.truth)
    report = evaluate_calls(calls, truth, pass_only=False)
    overall = report.overall
    print(f"TP {overall.tp}  FP {overall.fp}  FN {overall.fn}")
    print(
        f"precision {overall.precision:.3f}  recall {overall.recall:.3f}  "
        f"F1 {overall.f1:.3f}"
    )
    print()
    print(report.summary())
    return 0


def cmd_scaling(args: argparse.Namespace) -> int:
    """scaling: print the simulated Fig. 10 table."""
    from repro.cluster.costmodel import DEFAULT_COST_MODEL
    from repro.cluster.simulator import ClusterSimulator
    from repro.cluster.topology import ClusterSpec
    from repro.cluster.workloads import churchill_stages, gpf_wgs_stages

    model = DEFAULT_COST_MODEL
    reads = model.reads_for_gigabases(args.gigabases)
    print(f"{'cores':>6}  {'GPF (min)':>10}  {'Churchill (min)':>15}  {'efficiency':>10}")
    for cores in args.cores:
        sim = ClusterSimulator(ClusterSpec.with_cores(cores))
        gpf = sim.run_job(gpf_wgs_stages(reads, model))
        churchill = sim.run_job(churchill_stages(reads, model))
        print(
            f"{cores:>6}  {gpf.makespan / 60:>10.1f}  "
            f"{churchill.makespan / 60:>15.1f}  "
            f"{100 * gpf.parallel_efficiency(cores):>9.0f}%"
        )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """serve: run the resident pipeline service until signalled."""
    import signal
    import threading

    from repro.engine import EngineConfig
    from repro.serve import PipelineService, ServiceConfig, start_http_server

    chaos_plan = None
    if getattr(args, "chaos", None):
        from repro.chaos import ChaosPlan

        chaos_plan = ChaosPlan.load(args.chaos)
    config = ServiceConfig(
        workers=max(1, args.workers),
        queue_depth=max(1, args.queue_depth),
        job_timeout=args.job_timeout,
        engine=EngineConfig(
            default_parallelism=args.partitions,
            executor_backend=args.backend,
            profile_interval=args.profile,
            chaos=chaos_plan,
            **_cluster_engine_fields(args),
        ),
        chaos=chaos_plan,
    )
    service = PipelineService(args.state_dir, config).start()
    server = start_http_server(
        service, host=args.host, port=args.port, quiet=not args.access_log
    )
    recovered = service.metrics()["service"]["jobs_recovered"]
    print(
        f"gpf serve: listening on http://{args.host}:{server.port} "
        f"({config.workers} worker(s), queue depth {config.queue_depth}, "
        f"state in {args.state_dir})"
    )
    if recovered:
        print(f"gpf serve: recovered {recovered} unfinished job(s) from the log")
    if args.backend == "cluster":
        print(
            f"gpf serve: fleet on {config.engine.cluster_listen} — attach "
            f"workers with: gpf worker --connect {config.engine.cluster_listen}"
        )
    stop = threading.Event()

    def _signalled(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, _signalled)
    signal.signal(signal.SIGINT, _signalled)
    stop.wait()
    print("gpf serve: draining (running jobs finish; queued jobs stay durable)")
    server.shutdown()
    service.drain()
    print("gpf serve: drained cleanly")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """chaos: run the seeded fault-injection scenario suite."""
    import json

    from repro.chaos import SCENARIOS, run_suite

    if args.list:
        width = max(len(name) for name in SCENARIOS)
        for name in sorted(SCENARIOS):
            print(f"{name:<{width}}  {SCENARIOS[name][1]}")
        return 0
    names = args.scenarios or sorted(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        print(f"chaos: unknown scenario(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    outcomes = run_suite(names, seed=args.seed, out_dir=args.out)
    failed = 0
    for outcome in outcomes:
        if args.json:
            print(json.dumps(outcome.to_json()))
        else:
            mark = "PASS" if outcome.passed else "FAIL"
            extra = f"  ({outcome.detail})" if outcome.detail else ""
            print(
                f"{mark}  {outcome.name:<16} seed={outcome.seed} "
                f"outcome={outcome.outcome} injected={outcome.injected} "
                f"replay={'ok' if outcome.replay_ok else outcome.replay_ok} "
                f"{outcome.elapsed:.1f}s{extra}"
            )
        failed += 0 if outcome.passed else 1
    if args.out:
        with open(os.path.join(args.out, "outcomes.json"), "w") as fh:
            json.dump([o.to_json() for o in outcomes], fh, indent=2)
    if not args.json:
        print(
            f"chaos: {len(outcomes) - failed}/{len(outcomes)} scenario(s) "
            f"passed (seed {args.seed})"
        )
    return 1 if failed else 0


def _client(args):
    from repro.serve import ServiceClient

    return ServiceClient(args.url)


def _print_job_line(job: dict) -> None:
    took = ""
    if job.get("run_seconds") is not None:
        took = f"  {job['run_seconds']:.1f}s"
    elif job.get("finished_at") and job.get("started_at"):
        # Jobs from an older service: wall-clock difference is all we have.
        took = f"  {job['finished_at'] - job['started_at']:.1f}s"
    error = f"  {job['error']}" if job.get("error") else ""
    records = ""
    if job.get("result") and job["result"].get("records") is not None:
        records = f"  {job['result']['records']} records"
    print(
        f"{job['id']}  {job['state']:<9}  prio {job['priority']:>3}"
        f"{took}{records}{error}"
    )


def cmd_submit(args: argparse.Namespace) -> int:
    """submit: POST one WGS run spec to a serve instance."""
    from repro.serve import ServiceError

    spec: dict = {
        "reference": args.reference,
        "fastq1": args.fastq1,
        "fastq2": args.fastq2,
    }
    if args.known_sites:
        spec["known_sites"] = args.known_sites
    if args.output:
        spec["output"] = args.output
    if args.partitions:
        spec["partitions"] = args.partitions
    if args.partition_length:
        spec["partition_length"] = args.partition_length
    if args.gvcf:
        spec["gvcf"] = True
    client = _client(args)
    try:
        job = client.submit(spec, priority=args.priority)
    except (ServiceError, OSError) as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 1
    print(f"submitted {job['id']} ({job['state']})")
    if not args.wait:
        return 0
    try:
        job = client.wait(job["id"], timeout=args.timeout)
    except TimeoutError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 1
    _print_job_line(job)
    return 0 if job["state"] == "succeeded" else 1


def cmd_jobs(args: argparse.Namespace) -> int:
    """jobs: list jobs (or dump /metrics) from a serve instance."""
    import json

    from repro.obs import RunReport
    from repro.serve import ServiceError

    client = _client(args)
    try:
        if args.metrics:
            metrics = client.metrics()
            # Pre-digested memory view over the raw gauge fold: resident
            # (compressed) vs decoded footprint of cached blocks fleet-wide.
            metrics["memory"] = RunReport(
                counters=metrics.get("counters", {}),
                gauges=metrics.get("gauges", {}),
            ).memory_summary()
            print(json.dumps(metrics, indent=2, sort_keys=True))
            return 0
        jobs = client.jobs(state=args.state)
    except (ServiceError, OSError) as exc:
        print(f"jobs: {exc}", file=sys.stderr)
        return 1
    if not jobs:
        print("no jobs")
        return 0
    for job in jobs:
        _print_job_line(job)
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    """status: one job's state (or cancel it)."""
    import json

    from repro.serve import ServiceError

    client = _client(args)
    try:
        if args.cancel:
            job = client.cancel(args.job_id)
        else:
            job = client.job(args.job_id)
    except (ServiceError, OSError) as exc:
        print(f"status: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(job, indent=2, sort_keys=True))
        return 0
    _print_job_line(job)
    result = job.get("result") or {}
    if result.get("skipped"):
        print(f"  resumed from journal; skipped: {', '.join(result['skipped'])}")
    if result.get("output"):
        print(f"  output: {result['output']}")
    return 0


def _fmt_eta(seconds) -> str:
    if seconds is None:
        return "--"
    seconds = max(0.0, float(seconds))
    if seconds < 60:
        return f"{seconds:.0f}s"
    return f"{int(seconds // 60)}m{int(seconds % 60):02d}s"


def _top_frame(client) -> list[str]:
    """One rendered `gpf top` frame as lines (separated for testability)."""
    from repro.obs import Histogram
    from repro.serve import ServiceError

    try:
        health = client.health()
    except ServiceError as exc:
        # /healthz answers 503 while shedding/draining but still carries
        # the full health document — top should show that, not die.
        if exc.status != 503:
            raise
        health = exc.payload
    state = health.get("status", "?")
    lines = [
        f"gpf top — {client.base_url}  [{state}]  "
        f"queued {health.get('queued', 0)}  running {health.get('running', 0)}"
    ]
    metrics = client.metrics()
    fleet = metrics.get("fleet") or []
    if fleet:
        lines.append("")
        lines.append(
            f"{'worker':<28}{'state':<8}{'slots':>6}{'tasks':>8}  fetch"
        )
        for row in sorted(fleet, key=lambda r: r["worker"]):
            state = "up" if row.get("alive") else "lost"
            lines.append(
                f"{row['worker']:<28}{state:<8}{row.get('slots', 0):>6}"
                f"{row.get('tasks_done', 0):>8}  {row.get('fetch', '--')}"
            )
    hists = metrics.get("histograms") or {}
    if hists:
        lines.append("")
        lines.append(
            f"{'latency':<32}{'count':>8}{'p50':>12}{'p95':>12}{'p99':>12}"
        )
        for name in sorted(hists):
            hist = Histogram.from_snapshot(hists[name])
            pct = hist.percentiles()
            lines.append(
                f"{name:<32}{hist.count:>8}"
                f"{pct['p50'] * 1e3:>10.1f}ms"
                f"{pct['p95'] * 1e3:>10.1f}ms"
                f"{pct['p99'] * 1e3:>10.1f}ms"
            )
    jobs = client.jobs()
    active = [j for j in jobs if j["state"] in ("queued", "admitted", "running")]
    finished = [j for j in jobs if j not in active]
    lines.append("")
    if not jobs:
        lines.append("no jobs")
    for job in active:
        lines.append(f"{job['id']}  {job['state']:<9}  prio {job['priority']}")
        if job["state"] != "running":
            continue
        try:
            prog = client.progress(job["id"])
        except (ServiceError, OSError):
            continue
        total = prog.get("tasks_total") or 0
        done = prog.get("tasks_done") or 0
        share = done / total if total else 0.0
        width = 24
        bar = "#" * int(width * share) + "-" * (width - int(width * share))
        lines.append(
            f"  [{bar}] {100 * share:5.1f}%  tasks {done}/{total}  "
            f"process {prog.get('current_process') or '--'}  "
            f"eta {_fmt_eta(prog.get('eta_seconds'))}"
        )
        hot = prog.get("hot_functions") or []
        samples = prog.get("samples") or 0
        if hot and samples:
            lines.append(
                "  hot: "
                + ", ".join(
                    f"{f['function']} {100 * f['samples'] / samples:.0f}%"
                    for f in hot[:3]
                )
            )
    for job in finished[-5:]:
        took = ""
        if job.get("run_seconds") is not None:
            took = f"  {job['run_seconds']:.1f}s"
        lines.append(f"{job['id']}  {job['state']:<9}{took}")
    return lines


def cmd_top(args: argparse.Namespace) -> int:
    """top: live terminal dashboard over a serve instance."""
    from repro.serve import ServiceError

    client = _client(args)
    frames = 0
    try:
        while True:
            try:
                lines = _top_frame(client)
            except (ServiceError, OSError) as exc:
                print(f"top: {exc}", file=sys.stderr)
                return 1
            frames += 1
            if args.once or args.iterations:
                # Bounded runs print plainly — capturable in scripts/CI.
                print("\n".join(lines))
            else:
                sys.stdout.write("\x1b[H\x1b[2J" + "\n".join(lines) + "\n")
                sys.stdout.flush()
            if args.once or (args.iterations and frames >= args.iterations):
                return 0
            time.sleep(max(0.1, args.interval))
    except KeyboardInterrupt:
        return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "run": cmd_run,
        "evaluate": cmd_evaluate,
        "lint": cmd_lint,
        "scaling": cmd_scaling,
        "report": cmd_report,
        "serve": cmd_serve,
        "worker": cmd_worker,
        "chaos": cmd_chaos,
        "submit": cmd_submit,
        "jobs": cmd_jobs,
        "status": cmd_status,
        "top": cmd_top,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
