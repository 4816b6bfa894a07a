"""Command-line interface: ``python -m repro <command>``.

Exposes the pipeline the way the real HEALERS tooling would be driven:

* ``extract``            — section-3 front end statistics
* ``inject FUNCTION...`` — run fault injectors, print declarations
* ``harden``             — run the pipeline and write the C artifacts
* ``ballista``           — the Figure-6 robustness evaluation
* ``campaign``           — managed campaigns: run / status / clean
  (``run --jobs N`` fans the inject phase out over the local process
  pool)
* ``serve``              — the hardening-as-a-service daemon
* ``query``              — one request against a running daemon
* ``bitflips``           — the section-9 bit-flip campaign
* ``diff``               — compare declaration bundles across releases
* ``list``               — the simulated library's catalog
* ``report``             — summarize a campaign telemetry trace, or
  render the dependability dashboard (``--html``) from the ledger
* ``ledger``             — the persistent results database:
  import / list / show / gc
* ``regressions``        — the CI gate: latest run vs baseline window

``inject``, ``harden`` and ``ballista`` accept ``--trace PATH`` to
record the run's telemetry as a JSONL trace readable by ``report``,
plus the campaign engine's ``--jobs N`` / ``--cache-dir DIR``
(fan-out over the supervised process pool, and content-addressed
outcome reuse, which also resumes an interrupted campaign);
``extract``, ``inject``, ``harden`` and ``ballista`` accept ``--json``
for scriptable output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence


def _telemetry_for(args: argparse.Namespace):
    """A live Telemetry when ``--trace`` was given, else the no-op."""
    from repro.obs import NULL_TELEMETRY, Telemetry

    if getattr(args, "trace", None):
        return Telemetry()
    return NULL_TELEMETRY


def _export_trace(telemetry, args: argparse.Namespace) -> None:
    path = getattr(args, "trace", None)
    if path and telemetry.enabled:
        try:
            records = telemetry.export_jsonl(path)
        except OSError as exc:
            print(f"cannot write trace {path}: {exc}", file=sys.stderr)
            return
        # stderr so --json stdout stays machine-parseable
        print(f"trace: {records} records -> {path}", file=sys.stderr)


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.libc.catalog import CATALOG

    print(f"{'function':14s} {'headers':24s} {'evaluated':9s} prototype")
    for spec in CATALOG:
        in_set = "ballista" if spec.ballista else "-"
        print(f"{spec.name:14s} {','.join(spec.headers):24s} {in_set:9s} "
              f"{spec.prototype}")
    print(f"\n{len(CATALOG)} functions "
          f"({sum(1 for s in CATALOG if s.ballista)} in the evaluation set)")
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    from repro.extract import Extractor
    from repro.syslib import build_environment

    report = Extractor(build_environment()).run()
    if args.json:
        document: dict[str, object] = {"stats": report.stats.summary()}
        if args.verbose:
            document["functions"] = {
                name: {
                    "route": fn.route.value,
                    "prototype": fn.prototype.render() if fn.prototype else None,
                    "headers_searched": fn.headers_searched,
                }
                for name, fn in sorted(report.functions.items())
            }
        print(json.dumps(document, indent=2))
        return 0
    for key, value in report.stats.summary().items():
        print(f"{key:28s} {value}")
    if args.verbose:
        for name, fn in sorted(report.functions.items()):
            proto = fn.prototype.render() if fn.prototype else "(not found)"
            print(f"  {name:24s} [{fn.route.value}] {proto}")
    return 0


def _run_arg(args: argparse.Namespace):
    """The :class:`~repro.injector.RunSpec` ``--fault-models`` asks
    for, or None after printing the parse error (callers then return
    exit code 2)."""
    from repro.injector import RunSpec

    try:
        return RunSpec.parse(args.fault_models)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return None


def _known_functions(names: Sequence[str]) -> bool:
    """True when the catalog has every name; else prints the unknown
    ones (callers then return exit code 2)."""
    from repro.libc.catalog import BY_NAME

    unknown = [n for n in names if n not in BY_NAME]
    if unknown:
        print(f"unknown functions: {', '.join(unknown)}", file=sys.stderr)
    return not unknown


def _campaign_config(args: argparse.Namespace, run, cache_dir=None):
    """The :class:`~repro.campaign.CampaignConfig` a command's options
    ask for; ``cache_dir`` stands in when ``--cache-dir`` is absent."""
    from repro.campaign import CampaignConfig

    cache_dir = args.cache_dir or cache_dir
    ledger = getattr(args, "ledger", None)
    return CampaignConfig(
        jobs=args.jobs,
        cache_dir=Path(cache_dir) if cache_dir else None,
        run=run,
        ledger=Path(ledger) if ledger else None,
    )


def _cmd_inject(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignRunner
    from repro.declarations import apply_manual_edits, declaration_from_report

    if not _known_functions(args.functions):
        return 2
    run = _run_arg(args)
    if run is None:
        return 2
    telemetry = _telemetry_for(args)
    rows: list[dict[str, object]] = []
    with telemetry.span("campaign", kind="inject", functions=len(args.functions)):
        result = CampaignRunner(
            functions=args.functions,
            config=_campaign_config(args, run),
            telemetry=telemetry,
        ).run()
    for report in result.reports.values():
        declaration = declaration_from_report(report)
        if args.semi_auto:
            declaration = apply_manual_edits(declaration)
        if args.json:
            rows.append(
                report.summary_row(
                    tail={"assertions": sorted(declaration.assertions)}
                )
            )
        else:
            print(declaration.to_xml())
            print(f"<!-- {report.calls_made} calls, {report.retries} retries, "
                  f"{report.crashes} crashes -->\n")
    if args.json:
        print(json.dumps(rows, indent=2))
    for name, error in result.failed.items():
        print(f"failed: {name}: {error}", file=sys.stderr)
    _export_trace(telemetry, args)
    return 1 if result.failed else 0


def _cmd_harden(args: argparse.Namespace) -> int:
    from repro.core import HealersPipeline
    from repro.core.cache import save_declarations
    from repro.wrapper import generate_checks_header

    if not _known_functions(args.functions):
        return 2
    run = _run_arg(args)
    if run is None:
        return 2
    telemetry = _telemetry_for(args)
    progress = None
    if not args.json:
        progress = lambda name, report: print(  # noqa: E731
            f"  {'UNSAFE' if report.unsafe else 'safe  '} {name}"
        )
    hardened = HealersPipeline(
        functions=args.functions or None,
        config=_campaign_config(args, run),
        progress=progress,
        telemetry=telemetry,
    ).run()
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    (out / "healers_wrapper.c").write_text(
        hardened.wrapper_source(semi_auto=args.semi_auto)
    )
    (out / "healers_checks.h").write_text(generate_checks_header())
    save_declarations(hardened.declarations, out / "declarations.xml")
    reports = hardened.reports.values()
    if args.json:
        print(
            json.dumps(
                {
                    "output": str(out),
                    "unsafe": hardened.unsafe_functions(),
                    "safe": hardened.safe_functions(),
                    "scenario_unsafe": sorted(
                        n for n, d in hardened.declarations.items()
                        if d.scenario_unsafe
                    ),
                    "failed": hardened.failed_functions,
                    "elapsed_seconds": round(hardened.elapsed_seconds, 6),
                    "phase_timings": {
                        k: round(v, 6) for k, v in hardened.phase_timings.items()
                    },
                    "totals": {
                        "vectors": sum(r.vectors_run for r in reports),
                        "calls": sum(r.calls_made for r in reports),
                        "crashes": sum(r.crashes for r in reports),
                        "hangs": sum(r.hangs for r in reports),
                    },
                },
                indent=2,
            )
        )
    else:
        print(f"\nwrote {out}/healers_wrapper.c, healers_checks.h, declarations.xml")
        print(f"{len(hardened.unsafe_functions())} unsafe / "
              f"{len(hardened.safe_functions())} safe functions "
              f"in {hardened.elapsed_seconds:.1f}s "
              f"({sum(r.vectors_run for r in reports)} vectors, "
              f"{sum(r.calls_made for r in reports)} calls, "
              f"{sum(r.crashes for r in reports)} crashes, "
              f"{sum(r.hangs for r in reports)} hangs)")
        for name, error in hardened.failed_functions.items():
            print(f"  FAILED {name}: {error.splitlines()[-1]}", file=sys.stderr)
    _export_trace(telemetry, args)
    return 1 if hardened.failed_functions else 0


def _cmd_ballista(args: argparse.Namespace) -> int:
    from repro.ballista import BallistaHarness
    from repro.campaign import DEFAULT_CAMPAIGN_DIR
    from repro.core import HealersPipeline
    from repro.libc.catalog import BY_NAME

    if not _known_functions(args.functions):
        return 2
    run = _run_arg(args)
    if run is None:
        return 2
    telemetry = _telemetry_for(args)
    configurations = [("unwrapped", None)]
    if not args.unwrapped_only:
        # Phase 1 only feeds the wrappers.  The full catalog is minutes
        # of injection: reuse the shared content-addressed outcome
        # store unless another was named.
        hardened = HealersPipeline(
            functions=args.functions or None,
            config=_campaign_config(
                args, run, None if args.functions else DEFAULT_CAMPAIGN_DIR
            ),
            telemetry=telemetry,
        ).run()
        configurations += [
            ("full-auto", hardened.wrapper(telemetry=telemetry)),
            ("semi-auto", hardened.wrapper(semi_auto=True, telemetry=telemetry)),
        ]
    if args.functions:
        # A name given twice is one function, as in phase 1.
        harness = BallistaHarness(
            functions=[BY_NAME[n] for n in dict.fromkeys(args.functions)],
            telemetry=telemetry,
        )
    else:
        harness = BallistaHarness(total_target=11995, telemetry=telemetry)
    if not args.json:
        print(f"{len(harness.tests())} tests")
    from repro.ballista import render_figure6

    reports = [
        harness.run(wrapper=wrapper, configuration=label, jobs=args.jobs,
                    run=run)
        for label, wrapper in configurations
    ]
    if args.json:
        print(
            json.dumps(
                {
                    "tests": len(harness.tests()),
                    "configurations": [r.summary_row() for r in reports],
                    "crashing_functions": {
                        r.configuration: r.crashing_functions()
                        for r in reports
                        if r.count("crash")
                    },
                },
                indent=2,
            )
        )
    else:
        print(render_figure6(reports))
        if args.verbose:
            for report in reports:
                if report.count("crash"):
                    print(f"{report.configuration} crashing: "
                          f"{report.crashing_functions()}")
    _export_trace(telemetry, args)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import DEFAULT_CAMPAIGN_DIR

    cache_dir = Path(args.cache_dir) if args.cache_dir else DEFAULT_CAMPAIGN_DIR
    if args.campaign_command == "run":
        return _campaign_run(args, cache_dir)
    if args.campaign_command == "status":
        return _campaign_status(args, cache_dir)
    return _campaign_clean(args, cache_dir)


def _campaign_run(args: argparse.Namespace, cache_dir: Path) -> int:
    from repro.campaign import CampaignRunner

    if not _known_functions(args.functions):
        return 2
    run = _run_arg(args)
    if run is None:
        return 2
    telemetry = _telemetry_for(args)
    progress = None
    if not args.json:
        progress = lambda name, outcome, report: print(  # noqa: E731
            f"  {outcome.status:6s} {name}"
            + (f" ({outcome.error.splitlines()[-1]})" if outcome.error else "")
        )
    runner = CampaignRunner(
        functions=args.functions or None,
        config=_campaign_config(args, run, cache_dir),
        telemetry=telemetry,
        progress=progress,
    )
    result = runner.run()
    if args.json:
        print(json.dumps(_campaign_summary(result), indent=2))
    else:
        timings = ", ".join(
            f"{k}={v:.2f}s" for k, v in result.phase_timings.items()
        )
        print(f"\ncampaign {result.campaign}: "
              f"{result.cache_hits} cached, {result.ran} ran, "
              f"{len(result.failed)} failed ({timings})")
        print(f"manifest: {cache_dir / 'manifest.json'}")
    _export_trace(telemetry, args)
    return 1 if result.failed else 0


def _campaign_summary(result) -> dict[str, object]:
    return {
        "campaign": result.campaign,
        "fleet_mode": result.fleet_mode,
        "workers": result.workers,
        "fault_models": list(result.run.fault_models),
        "cached": result.cache_hits,
        "ran": result.ran,
        "failed": result.failed,
        "phase_timings": {
            k: round(v, 6) for k, v in result.phase_timings.items()
        },
        "functions": {
            name: {
                "status": outcome.status,
                "digest": outcome.digest,
                "attempts": outcome.attempts,
                "elapsed": round(outcome.elapsed, 6),
            }
            for name, outcome in result.outcomes.items()
        },
    }


def _campaign_status(args: argparse.Namespace, cache_dir: Path) -> int:
    from repro.campaign import OutcomeStore, load_manifest

    manifest = load_manifest(cache_dir)
    if manifest is None:
        print(f"no campaign manifest under {cache_dir}", file=sys.stderr)
        return 2
    if args.json:
        manifest["stored_outcomes"] = len(OutcomeStore(cache_dir).entries())
        print(json.dumps(manifest, indent=2))
        return 0
    functions = manifest.get("functions", [])
    by_status: dict[str, int] = {}
    for entry in functions:
        by_status[entry["status"]] = by_status.get(entry["status"], 0) + 1
    print(f"campaign {manifest.get('campaign')} "
          f"(jobs={manifest.get('jobs')}, {len(functions)} functions)")
    for status in ("cached", "ran", "failed", "pending"):
        if by_status.get(status):
            print(f"  {status:8s} {by_status[status]}")
    for entry in functions:
        if entry["status"] == "failed":
            error = (entry.get("error") or "").splitlines()
            print(f"  failed: {entry['name']}: {error[-1] if error else ''}")
    timings = manifest.get("phase_timings", {})
    if timings:
        print("  phases: " + ", ".join(f"{k}={v:.2f}s" for k, v in timings.items()))
    print(f"  stored outcomes: {len(OutcomeStore(cache_dir).entries())}")
    return 0


def _campaign_clean(args: argparse.Namespace, cache_dir: Path) -> int:
    from repro.campaign import clean_cache

    stats = clean_cache(cache_dir, dry_run=args.dry_run)
    verb = "would remove" if stats.dry_run else "removed"
    print(f"{verb} {stats.files} entries "
          f"({stats.bytes_reclaimed} bytes) from {cache_dir}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.service import HealersService, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queue=args.max_queue,
        rate=args.rate,
        burst=args.burst,
        default_deadline_ms=args.deadline_ms,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        drain_seconds=args.drain_seconds,
        ledger=Path(args.ledger) if args.ledger else None,
    )

    async def run() -> None:
        service = HealersService(config)
        await service.start()
        host, port = service.address
        cache = args.cache_dir or "(none)"
        print(f"serving on {host}:{port} "
              f"(workers={config.workers}, queue={config.max_queue}, "
              f"cache={cache})", flush=True)
        loop = asyncio.get_running_loop()
        stopping = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stopping.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        serve = asyncio.ensure_future(service.serve_forever())
        await stopping.wait()
        print("draining...", file=sys.stderr, flush=True)
        await service.stop(drain=True)
        serve.cancel()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        pass
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient, ServiceError, wait_for_service

    if args.wait and not wait_for_service(args.host, args.port, timeout=args.wait):
        print(f"no service at {args.host}:{args.port} "
              f"after {args.wait:.0f}s", file=sys.stderr)
        return 2
    params: dict[str, object] = {}
    if args.op in ("declaration", "inject"):
        if len(args.functions) != 1:
            print(f"{args.op} takes exactly one function", file=sys.stderr)
            return 2
        params["function"] = args.functions[0]
    elif args.op in ("harden", "ballista"):
        if args.functions:
            params["functions"] = args.functions
    elif args.op == "validate":
        if not args.calls:
            print("validate requires --calls JSON", file=sys.stderr)
            return 2
        try:
            calls = json.loads(args.calls)
        except json.JSONDecodeError as exc:
            print(f"--calls is not valid JSON: {exc}", file=sys.stderr)
            return 2
        params["calls"] = calls
        params["policy"] = args.policy
        if args.execute:
            params["execute"] = True
    elif args.functions:
        print(f"{args.op} takes no functions", file=sys.stderr)
        return 2
    if args.semi_auto:
        if args.op not in ("declaration", "harden", "validate"):
            print(f"--semi-auto does not apply to {args.op}", file=sys.stderr)
            return 2
        params["semi_auto"] = True
    try:
        with ServiceClient(
            args.host, args.port, retries=args.retries
        ) as client:
            result = client.call(args.op, params, deadline_ms=args.deadline_ms)
    except ServiceError as exc:
        print(f"error {exc.code}: {exc.message}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot reach {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    if args.op == "metrics":
        print(result.get("body", ""), end="")
    else:
        print(json.dumps(result, indent=2))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.core.cache import load_declarations
    from repro.declarations import diff_declarations

    old = load_declarations(Path(args.old))
    new = load_declarations(Path(args.new))
    diff = diff_declarations(old, new)
    print(f"declaration diff: {diff.old_version} -> {diff.new_version}")
    for change in diff.changed:
        print(f"  {change.describe()}")
    if not diff.changed:
        print("  (no changes)")
    print(f"summary: {diff.summary()}")
    if diff.needs_regeneration:
        print(f"wrappers to regenerate: {', '.join(diff.needs_regeneration)}")
    return 0


def _cmd_bitflips(args: argparse.Namespace) -> int:
    from repro.core import HealersPipeline
    from repro.injector import BitFlipCampaign, GOLDEN_CALLS

    functions = args.functions or sorted(GOLDEN_CALLS)
    unknown = [n for n in functions if n not in GOLDEN_CALLS]
    if unknown:
        print(f"no golden call registered for: {', '.join(unknown)} "
              f"(known: {', '.join(sorted(GOLDEN_CALLS))})", file=sys.stderr)
        return 2
    hardened = HealersPipeline(functions=functions).run()
    for name in functions:
        campaign = BitFlipCampaign(name)
        rows = [
            campaign.run().summary_row(),
            campaign.run(hardened.wrapper(), "full-auto").summary_row(),
            campaign.run(hardened.wrapper(semi_auto=True), "semi-auto").summary_row(),
        ]
        for row in rows:
            print(row)
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults import available_models, get_model

    models = [get_model(name)() for name in available_models()]
    if args.faults_command == "list":
        if args.json:
            print(
                json.dumps(
                    [
                        {
                            "name": model.name,
                            "version": model.version,
                            "default_params": dict(model.default_params),
                            "description": model.describe(),
                        }
                        for model in models
                    ],
                    indent=2,
                )
            )
            return 0
        for model in models:
            params = ", ".join(
                f"{key}={value}" for key, value in sorted(model.default_params.items())
            )
            print(f"{model.name} (v{model.version})")
            print(f"  {model.describe()}")
            if params:
                print(f"  defaults: {params}")
        return 0
    return 2


def _ledger_for(args: argparse.Namespace):
    from repro.obs import DEFAULT_LEDGER_PATH, Ledger

    db = getattr(args, "db", None)
    return Ledger(Path(db) if db else DEFAULT_LEDGER_PATH)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import render_report, summarize_trace_file

    if args.html:
        from repro.obs import LedgerError, build_dashboard

        ledger = _ledger_for(args)
        try:
            document = build_dashboard(ledger)
        except LedgerError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        out = Path(args.html)
        out.write_text(document, encoding="utf-8")
        print(f"dashboard: {len(document)} bytes -> {out}", file=sys.stderr)
        return 0
    if not args.trace:
        print("report needs a TRACE file or --html PATH", file=sys.stderr)
        return 2
    path = Path(args.trace)
    if not path.exists():
        print(f"no such trace: {path}", file=sys.stderr)
        return 2
    if args.prometheus:
        from repro.obs import render_prometheus
        from repro.obs.tracing import read_trace

        snapshots = [r for r in read_trace(path) if r.get("type") == "metric"]
        print(render_prometheus(snapshots), end="")
        return 0
    try:
        summary = summarize_trace_file(path)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json:
        print(
            json.dumps(
                {
                    "sandbox_calls": summary.sandbox_calls,
                    "phases": {
                        name: {
                            "count": phase.count,
                            "total_seconds": phase.total_seconds,
                            "mean_seconds": phase.mean_seconds,
                            "max_seconds": phase.max_seconds,
                        }
                        for name, phase in summary.phases.items()
                    },
                    "functions": summary.functions,
                    "counters": summary.counters,
                },
                indent=2,
            )
        )
        return 0
    print(render_report(summary, source=str(path)))
    return 0


def _cmd_ledger(args: argparse.Namespace) -> int:
    from repro.obs import LedgerError

    ledger = _ledger_for(args)
    try:
        if args.ledger_command == "import":
            code = 0
            for path in args.paths:
                try:
                    run = ledger.ingest_bench_file(path)
                except LedgerError as exc:
                    print(f"skipped {path}: {exc}", file=sys.stderr)
                    code = 1
                    continue
                state = "deduped" if run.deduped else "ingested"
                print(f"{state} {path} -> run {run.id} ({run.label})")
            return code
        if args.ledger_command == "list":
            stats = ledger.stats()
            runs = ledger.runs(kind=args.kind, limit=args.limit)
            if args.json:
                print(json.dumps(
                    {"ledger": stats, "runs": [r.summary() for r in runs]},
                    indent=2,
                ))
                return 0
            print(f"ledger {stats['path']}: {stats['runs_total']} runs "
                  f"({', '.join(f'{k}={v}' for k, v in sorted(stats['by_kind'].items())) or 'empty'})")
            for run in runs:
                print(f"  {run.id:>4d} {run.kind:9s} {run.created}  "
                      f"v{run.repro_version}  {run.label}")
            return 0
        if args.ledger_command == "show":
            detail = ledger.run(args.run_id)
            print(json.dumps(detail, indent=2))
            return 0
        # gc
        stats = ledger.gc(keep=args.keep)
        print(f"kept {stats.runs_kept} runs, deleted {stats.runs_deleted} "
              f"runs ({stats.rows_deleted} child rows)")
        return 0
    except LedgerError as exc:
        print(str(exc), file=sys.stderr)
        return 2


def _cmd_regressions(args: argparse.Namespace) -> int:
    from repro.obs import LedgerError, check_regressions

    ledger = _ledger_for(args)
    try:
        report = check_regressions(
            ledger, baseline=args.baseline, regress_ratio=args.ratio
        )
    except LedgerError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render())
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="HEALERS reproduction: automated robustness wrappers "
        "for C libraries (Fetzer & Xiao, DSN 2002)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show the simulated library catalog")

    extract = sub.add_parser("extract", help="section-3 extraction statistics")
    extract.add_argument("-v", "--verbose", action="store_true")
    extract.add_argument("--json", action="store_true",
                         help="emit the statistics as JSON")

    def fault_models_option(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--fault-models", metavar="SPEC",
                         help="arm fault-model scenarios: comma-separated "
                              "specs like 'resource,signal:offsets=1|64' "
                              "(see 'faults list')")

    def campaign_options(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="fan the injection campaign out over N workers")
        cmd.add_argument("--cache-dir", metavar="DIR",
                         help="content-addressed outcome cache directory "
                              "(a re-run resumes an interrupted campaign)")
        fault_models_option(cmd)

    inject = sub.add_parser("inject", help="fault-inject functions, print declarations")
    inject.add_argument("functions", nargs="+")
    inject.add_argument("--semi-auto", action="store_true",
                        help="apply the manual edits before printing")
    inject.add_argument("--json", action="store_true",
                        help="emit per-function campaign stats as JSON")
    inject.add_argument("--trace", metavar="PATH",
                        help="write a JSONL telemetry trace of the campaign")
    campaign_options(inject)

    harden = sub.add_parser("harden", help="run the pipeline, write C artifacts")
    harden.add_argument("functions", nargs="*",
                        help="functions to harden (default: the 86-function set)")
    harden.add_argument("-o", "--output", default="healers_out")
    harden.add_argument("--semi-auto", action="store_true")
    harden.add_argument("--json", action="store_true",
                        help="emit the run summary as JSON")
    harden.add_argument("--trace", metavar="PATH",
                        help="write a JSONL telemetry trace of the campaign")
    campaign_options(harden)

    ballista = sub.add_parser("ballista", help="run the Figure-6 evaluation")
    ballista.add_argument("functions", nargs="*")
    ballista.add_argument("--unwrapped-only", action="store_true")
    ballista.add_argument("-v", "--verbose", action="store_true")
    ballista.add_argument("--json", action="store_true",
                          help="emit the evaluation summary as JSON")
    ballista.add_argument("--trace", metavar="PATH",
                          help="write a JSONL telemetry trace of the evaluation")
    campaign_options(ballista)

    campaign = sub.add_parser(
        "campaign", help="managed injection campaigns (run/status/clean)"
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)
    campaign_run = campaign_sub.add_parser(
        "run", help="run a campaign against the outcome cache"
    )
    campaign_run.add_argument("functions", nargs="*",
                              help="functions (default: the 86-function set)")
    campaign_run.add_argument("--jobs", type=int, default=1, metavar="N",
                              help="worker count: 1 injects in this process, "
                                   "more run the local process pool")
    campaign_run.add_argument("--cache-dir", metavar="DIR",
                              help="cache directory (default: "
                                   ".healers_cache/campaign)")
    campaign_run.add_argument("--json", action="store_true")
    campaign_run.add_argument("--trace", metavar="PATH")
    campaign_run.add_argument("--ledger", metavar="DB",
                              help="ingest the finished campaign into this "
                                   "results ledger (sqlite)")
    fault_models_option(campaign_run)
    campaign_status = campaign_sub.add_parser(
        "status", help="summarize the checkpoint manifest"
    )
    campaign_status.add_argument("--cache-dir", metavar="DIR")
    campaign_status.add_argument("--json", action="store_true")
    campaign_clean = campaign_sub.add_parser(
        "clean", help="delete cached outcomes and the manifest"
    )
    campaign_clean.add_argument("--cache-dir", metavar="DIR")
    campaign_clean.add_argument("--dry-run", action="store_true",
                                help="report what would be removed without "
                                     "deleting anything")

    serve = sub.add_parser(
        "serve", help="run the hardening-as-a-service daemon"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7411,
                       help="TCP port (0 picks an ephemeral port)")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="injection worker threads")
    serve.add_argument("--max-queue", type=int, default=32, metavar="N",
                       help="admitted requests beyond the busy workers; "
                            "past it the daemon answers RETRY_LATER")
    serve.add_argument("--rate", type=float, default=0.0, metavar="R",
                       help="token-bucket refill per second (0 = unlimited)")
    serve.add_argument("--burst", type=float, default=1.0, metavar="B",
                       help="token-bucket burst size")
    serve.add_argument("--deadline-ms", type=float, default=60_000,
                       help="default per-request deadline")
    serve.add_argument("--cache-dir", metavar="DIR",
                       help="content-addressed outcome store (shared with "
                            "the campaign engine)")
    serve.add_argument("--drain-seconds", type=float, default=10.0,
                       help="graceful-shutdown drain budget")
    serve.add_argument("--ledger", metavar="DB",
                       help="results ledger (sqlite): enables the history "
                            "op and the shutdown traffic rollup")

    query = sub.add_parser(
        "query", help="send one request to a running daemon"
    )
    query.add_argument("op", choices=[
        "declaration", "inject", "harden", "ballista", "validate", "status",
        "metrics", "history",
    ])
    query.add_argument("functions", nargs="*",
                       help="function names (declaration/inject take one; "
                            "harden/ballista take a list)")
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--port", type=int, default=7411)
    query.add_argument("--semi-auto", action="store_true",
                       help="declaration/harden/validate: the semi-auto "
                            "(manually edited) declarations")
    query.add_argument("--deadline-ms", type=float, default=None,
                       help="per-request deadline forwarded to the server")
    query.add_argument("--retries", type=int, default=0,
                       help="automatic RETRY_LATER retries")
    query.add_argument("--wait", type=float, default=0.0, metavar="SECONDS",
                       help="wait up to SECONDS for the daemon to come up")
    query.add_argument("--calls", default=None, metavar="JSON",
                       help="validate: JSON list of {function, args} call "
                            "specs (args: numbers or null/invalid/cstring/"
                            "readonly/buffer/malloc objects)")
    query.add_argument("--execute", action="store_true",
                       help="validate: forward admitted calls to the "
                            "simulated library too")
    query.add_argument("--policy", default="robust",
                       help="validate: wrapper policy (default: robust)")

    report = sub.add_parser(
        "report",
        help="summarize a telemetry trace, or render the dashboard "
             "(--html) from the results ledger",
    )
    report.add_argument("trace", nargs="?",
                        help="JSONL trace written by --trace")
    report.add_argument("--json", action="store_true",
                        help="emit the summary as JSON")
    report.add_argument("--prometheus", action="store_true",
                        help="render the trace's metric snapshots in "
                             "Prometheus text format")
    report.add_argument("--html", metavar="PATH",
                        help="write the dependability dashboard (built from "
                             "ledger data alone) to PATH")
    report.add_argument("--db", metavar="DB",
                        help="ledger database for --html "
                             "(default: .healers_cache/ledger.sqlite)")

    ledger = sub.add_parser(
        "ledger", help="the persistent dependability results database"
    )
    ledger.add_argument("--db", metavar="DB",
                        help="ledger database "
                             "(default: .healers_cache/ledger.sqlite)")
    ledger_sub = ledger.add_subparsers(dest="ledger_command", required=True)
    ledger_import = ledger_sub.add_parser(
        "import", help="ingest BENCH_*.json artifacts"
    )
    ledger_import.add_argument("paths", nargs="+", metavar="BENCH_JSON")
    ledger_list = ledger_sub.add_parser("list", help="list stored runs")
    ledger_list.add_argument("--kind", choices=["campaign", "bench", "service"])
    ledger_list.add_argument("--limit", type=int, default=20, metavar="N")
    ledger_list.add_argument("--json", action="store_true")
    ledger_show = ledger_sub.add_parser(
        "show", help="full detail of one run as JSON"
    )
    ledger_show.add_argument("run_id", type=int)
    ledger_gc = ledger_sub.add_parser(
        "gc", help="trim to the newest N runs per kind"
    )
    ledger_gc.add_argument("--keep", type=int, default=50, metavar="N")

    regressions = sub.add_parser(
        "regressions",
        help="compare the latest runs against a baseline window; "
             "exits non-zero on a regression (the CI gate)",
    )
    regressions.add_argument("--db", metavar="DB",
                             help="ledger database (default: "
                                  ".healers_cache/ledger.sqlite)")
    regressions.add_argument("--baseline", type=int, default=3, metavar="N",
                             help="baseline window size (prior points "
                                  "averaged per series)")
    regressions.add_argument("--ratio", type=float, default=1.5,
                             metavar="R",
                             help="effective ratio past which a series "
                                  "counts as regressed")
    regressions.add_argument("--json", action="store_true")

    bitflips = sub.add_parser("bitflips", help="run the bit-flip campaign")
    bitflips.add_argument("functions", nargs="*")

    faults = sub.add_parser(
        "faults", help="inspect the pluggable fault-model dictionary"
    )
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)
    faults_list = faults_sub.add_parser(
        "list", help="list registered fault models and their defaults"
    )
    faults_list.add_argument("--json", action="store_true")

    diff = sub.add_parser(
        "diff", help="compare two declaration bundles (release adaptation)"
    )
    diff.add_argument("old", help="old declarations.xml")
    diff.add_argument("new", help="new declarations.xml")

    return parser


_COMMANDS = {
    "list": _cmd_list,
    "extract": _cmd_extract,
    "inject": _cmd_inject,
    "harden": _cmd_harden,
    "ballista": _cmd_ballista,
    "campaign": _cmd_campaign,
    "serve": _cmd_serve,
    "query": _cmd_query,
    "bitflips": _cmd_bitflips,
    "faults": _cmd_faults,
    "diff": _cmd_diff,
    "report": _cmd_report,
    "ledger": _cmd_ledger,
    "regressions": _cmd_regressions,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:  # e.g. `repro list | head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
