"""Service endpoints and the shared state they execute against.

:class:`ServiceState` owns the long-lived pieces one daemon process
keeps warm: the declaration parser, the content-addressed outcome
store, the single-flight table, and the bounded worker pool that runs
CPU-heavy injections off the event loop.  Handlers are thin async
functions ``handler(state, params) -> result dict`` that raise
:class:`~repro.service.protocol.ServiceError` for typed failures.

The request path for anything needing an
:class:`~repro.injector.InjectionReport` is always::

    digest = outcome_digest(spec, run)     # content address (cached)
    memo hit?       -> the memoized report, no store read, no decode
    store hit?      -> decode once, memoize, zero sandbox work
    store miss or
    undecodable?    -> single-flight by digest -> worker pool injection
                       -> persist the payload to the store
                       -> every waiter shares the fresh report, memoize

so a warm cache answers without touching the sandbox or the disk, and
N identical concurrent requests cost exactly one injection.  The memo
is keyed by the outcome digest, which pins the payload's content, so
it can never serve a stale report; handlers only read the reports it
hands out.  Without a store nothing is memoized.
"""

from __future__ import annotations

import asyncio
import functools
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional

from repro.campaign.digest import outcome_digest
from repro.campaign.store import OutcomeStore, report_to_payload
from repro.cdecl import DeclarationParser, typedef_table
from repro.injector import FaultInjector, InjectionReport, RunSpec
from repro.libc.catalog import BALLISTA_SET, BY_NAME, CATALOG
from repro.obs import Telemetry
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.obs.telemetry import NULL_TELEMETRY
from repro.service.admission import AdmissionController
from repro.service.protocol import PROTOCOL_VERSION, ErrorCode, ServiceError
from repro.service.singleflight import SingleFlight

#: Bound on :attr:`ServiceState._reports`, the per-digest memo of
#: reports; it is cleared when full, so a client cycling
#: through many fault-model sets cannot grow memory without limit.
_REPORT_MEMO_LIMIT = 256


def _run_injection(
    name: str,
    telemetry=NULL_TELEMETRY,
    run: RunSpec = RunSpec(),
    encode: bool = False,
) -> tuple[InjectionReport, Optional[dict]]:
    """Run one function's injector in the calling (worker) thread and
    return the report with, when ``encode``, its JSON-stable outcome
    payload (None otherwise)."""
    spec = BY_NAME[name]
    report = FaultInjector(spec, run=run, telemetry=telemetry).run()
    if not encode:
        return report, None
    return report, report_to_payload(report, spec.prototype)


class ServiceState:
    """Everything the endpoints share within one daemon process."""

    def __init__(
        self,
        cache_dir: Optional[Path | str] = None,
        workers: int = 2,
        max_queue: int = 32,
        rate: float = 0.0,
        burst: float = 1.0,
        telemetry: Optional[Telemetry] = None,
        ledger: Optional[Path | str] = None,
    ) -> None:
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.ledger_path = Path(ledger) if ledger is not None else None
        if self.ledger_path is not None and self.ledger_path.exists():
            # Publish ledger gauges from the first metrics scrape on.
            try:
                from repro.obs.ledger import Ledger

                Ledger(self.ledger_path).publish_gauges(self.telemetry)
            except Exception:  # noqa: BLE001 - gauges are best-effort
                pass
        self.parser = DeclarationParser(typedef_table())
        self.store = OutcomeStore(cache_dir) if cache_dir is not None else None
        self.singleflight = SingleFlight()
        self.workers = workers
        self.executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="healers-worker"
        )
        # Capacity = every worker busy plus a bounded wait queue; past
        # it the admission controller answers RETRY_LATER.
        self.admission = AdmissionController(
            capacity=workers + max_queue, rate=rate, burst=burst
        )
        self.started = time.monotonic()
        self.shutting_down = False
        self._digests: dict[tuple[str, RunSpec], str] = {}
        self._reports: dict[str, InjectionReport] = {}

    # ------------------------------------------------------------------
    def digest_for(self, name: str, run: RunSpec = RunSpec()) -> str:
        """The content address of ``name``'s outcome (memoized: specs,
        generators, and lattice version are fixed for a process; the
        run keys the memo alongside the name)."""
        key = (name, run)
        digest = self._digests.get(key)
        if digest is None:
            digest = outcome_digest(BY_NAME[name], run, parser=self.parser)
            self._digests[key] = digest
        return digest

    def spec_for(self, name: object):
        if not isinstance(name, str) or name not in BY_NAME:
            raise ServiceError(
                ErrorCode.UNKNOWN_FUNCTION,
                f"unknown function: {name!r} (see the `list` CLI command)",
            )
        return BY_NAME[name]

    # ------------------------------------------------------------------
    def _memoize(self, digest: str, report: InjectionReport) -> None:
        if len(self._reports) >= _REPORT_MEMO_LIMIT:
            self._reports.clear()
        self._reports[digest] = report

    async def report_for(
        self, name: str, run: RunSpec = RunSpec()
    ) -> tuple[InjectionReport, str]:
        """One function's report plus how it was obtained (``"cache"``
        or ``"injected"``).  Callers share the returned report and must
        not mutate it."""
        self.spec_for(name)
        digest = self.digest_for(name, run)
        if self.store is not None:
            report = self._reports.get(digest)
            if report is None:
                # An entry that does not decode reads as a miss.
                report = self.store.get(digest, self.parser)
                if report is not None:
                    self._memoize(digest, report)
            if report is not None:
                self.telemetry.counter("service.cache", result="hit").inc()
                return report, "cache"
            self.telemetry.counter("service.cache", result="miss").inc()

        async def factory() -> InjectionReport:
            loop = asyncio.get_running_loop()
            report, payload = await loop.run_in_executor(
                self.executor,
                functools.partial(
                    _run_injection, name, self.telemetry, run,
                    self.store is not None,
                ),
            )
            if payload is not None:
                self.store.put_payload(digest, payload)
            return report

        # The fresh report equals a decode of the payload just stored,
        # so waiters share it instead of decoding the payload back.
        report = await self.singleflight.run(digest, factory)
        if self.store is not None:
            self._memoize(digest, report)
        return report, "injected"

    # ------------------------------------------------------------------
    def close(self) -> None:
        self.executor.shutdown(wait=False, cancel_futures=True)


# ----------------------------------------------------------------------
# parameter helpers
# ----------------------------------------------------------------------


def _function_param(params: dict) -> str:
    name = params.get("function")
    if not isinstance(name, str) or not name:
        raise ServiceError(
            ErrorCode.INVALID_PARAMS, "params.function (string) is required"
        )
    return name


def _functions_param(params: dict, required: bool) -> Optional[list[str]]:
    functions = params.get("functions")
    if functions is None:
        if required:
            raise ServiceError(
                ErrorCode.INVALID_PARAMS,
                "params.functions (non-empty list) is required",
            )
        return None
    if (
        not isinstance(functions, list)
        or not functions
        or not all(isinstance(n, str) for n in functions)
    ):
        raise ServiceError(
            ErrorCode.INVALID_PARAMS,
            "params.functions must be a non-empty list of strings",
        )
    return functions


def _run_param(params: dict) -> RunSpec:
    """The run ``params.fault_models`` asks for (a spec string or list
    of them; absent → no models armed)."""
    raw = params.get("fault_models")
    if raw is not None and (
        not isinstance(raw, (str, list))
        or (isinstance(raw, list) and not all(isinstance(m, str) for m in raw))
    ):
        raise ServiceError(
            ErrorCode.INVALID_PARAMS,
            "params.fault_models must be a spec string or list of strings",
        )
    try:
        return RunSpec.parse(raw)
    except ValueError as exc:
        raise ServiceError(ErrorCode.INVALID_PARAMS, str(exc)) from exc


#: The param keys each work op reads.  Any other key is refused:
#: dropping a misspelled ``fault_models`` would serve an unfaulted
#: report, and a ``sampling`` request (injection is exhaustive;
#: docs/performance.md) would get an answer it did not ask for.
PARAM_KEYS = {
    "declaration": frozenset({"function", "semi_auto"}),
    "inject": frozenset({"function", "fault_models"}),
    "harden": frozenset({"functions", "semi_auto", "include_source"}),
    "ballista": frozenset({"functions", "configurations"}),
    "validate": frozenset({"calls", "fault_models", "execute", "policy", "semi_auto"}),
}


def _check_param_keys(op: str, params: dict) -> None:
    unknown = sorted(set(params) - PARAM_KEYS[op])
    if unknown:
        raise ServiceError(
            ErrorCode.INVALID_PARAMS,
            f"{op} does not take params.{', params.'.join(unknown)} "
            f"(it takes {', '.join(sorted(PARAM_KEYS[op]))})",
        )


# ----------------------------------------------------------------------
# endpoints
# ----------------------------------------------------------------------


async def handle_declaration(state: ServiceState, params: dict) -> dict:
    """One function's declaration (Figure-2 XML), hardening on demand."""
    from repro.declarations import apply_manual_edits, declaration_from_report

    _check_param_keys("declaration", params)
    name = _function_param(params)
    spec = state.spec_for(name)
    report, source = await state.report_for(name)
    declaration = declaration_from_report(report, spec.version)
    if params.get("semi_auto"):
        declaration = apply_manual_edits(declaration)
    return {
        "function": name,
        "digest": state.digest_for(name),
        "source": source,
        "unsafe": declaration.unsafe,
        "xml": declaration.to_xml(),
        "assertions": sorted(declaration.assertions),
    }


async def handle_inject(state: ServiceState, params: dict) -> dict:
    """One function's full injection-campaign summary."""
    _check_param_keys("inject", params)
    name = _function_param(params)
    run = _run_param(params)
    report, source = await state.report_for(name, run)
    return report.summary_row(
        head={"digest": state.digest_for(name, run), "source": source}
    )


async def handle_harden(state: ServiceState, params: dict) -> dict:
    """Harden a function set; returns declarations and optionally the
    generated C wrapper source."""
    from repro.core.pipeline import HardenedLibrary

    _check_param_keys("harden", params)
    names = _functions_param(params, required=False)
    if names is None:
        names = [spec.name for spec in BALLISTA_SET]
    specs = [state.spec_for(n) for n in names]
    results = await asyncio.gather(
        *(state.report_for(spec.name) for spec in specs), return_exceptions=True
    )
    reports: dict[str, InjectionReport] = {}
    sources: dict[str, str] = {}
    failed: dict[str, str] = {}
    for spec, outcome in zip(specs, results):
        if isinstance(outcome, BaseException):
            if isinstance(outcome, asyncio.CancelledError):
                raise outcome
            failed[spec.name] = str(outcome)
            continue
        reports[spec.name], sources[spec.name] = outcome
    hardened = HardenedLibrary.from_reports(reports)
    declarations = hardened.declarations
    chosen = (
        hardened.semi_auto_declarations if params.get("semi_auto")
        else declarations
    )
    result: dict[str, object] = {
        "functions": list(names),
        "unsafe": sorted(n for n, d in declarations.items() if d.unsafe),
        "safe": sorted(n for n, d in declarations.items() if not d.unsafe),
        "failed": failed,
        "sources": sources,
        "declarations": {n: d.to_xml() for n, d in chosen.items()},
    }
    if params.get("include_source"):
        from repro.wrapper.codegen import generate_wrapper_library

        result["wrapper_source"] = generate_wrapper_library(chosen)
    return result


async def handle_ballista(state: ServiceState, params: dict) -> dict:
    """A Figure-6 robustness evaluation over the named functions."""
    _check_param_keys("ballista", params)
    names = _functions_param(params, required=True)
    specs = [state.spec_for(n) for n in names]
    configurations = params.get("configurations") or [
        "unwrapped", "full-auto", "semi-auto"
    ]
    known = {"unwrapped", "full-auto", "semi-auto"}
    if not isinstance(configurations, list) or not set(configurations) <= known:
        raise ServiceError(
            ErrorCode.INVALID_PARAMS,
            f"params.configurations must be a subset of {sorted(known)}",
        )
    reports = {}
    for spec in specs:
        report, _ = await state.report_for(spec.name)
        reports[spec.name] = report

    def evaluate() -> dict:
        from repro.ballista import BallistaHarness
        from repro.core.pipeline import HardenedLibrary

        hardened = HardenedLibrary.from_reports(reports)
        harness = BallistaHarness(functions=specs)
        rows = []
        for label in configurations:
            wrapper = None
            if label == "full-auto":
                wrapper = hardened.wrapper()
            elif label == "semi-auto":
                wrapper = hardened.wrapper(semi_auto=True)
            rows.append(harness.run(wrapper=wrapper, configuration=label).summary_row())
        return {"tests": len(harness.tests()), "configurations": rows}

    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(state.executor, evaluate)


def _calls_param(params: dict) -> list[tuple[str, list]]:
    """``params.calls``: a non-empty list of ``{"function", "args"}``."""
    calls = params.get("calls")
    if not isinstance(calls, list) or not calls:
        raise ServiceError(
            ErrorCode.INVALID_PARAMS,
            "params.calls (non-empty list of {function, args}) is required",
        )
    parsed: list[tuple[str, list]] = []
    for index, entry in enumerate(calls):
        if not isinstance(entry, dict) or not isinstance(
            entry.get("function"), str
        ):
            raise ServiceError(
                ErrorCode.INVALID_PARAMS,
                f"params.calls[{index}] must be an object with a "
                "string `function`",
            )
        args = entry.get("args", [])
        if not isinstance(args, list):
            raise ServiceError(
                ErrorCode.INVALID_PARAMS,
                f"params.calls[{index}].args must be a list",
            )
        parsed.append((entry["function"], args))
    return parsed


def _materialize_arg(spec: object, runtime, index: int, position: int):
    """Turn one wire arg spec into a concrete runtime value.

    Numbers pass through; objects allocate into the request's private
    runtime: ``{"null": true}``, ``{"invalid": true}``,
    ``{"cstring": s}``, ``{"readonly": s}`` (read-only string),
    ``{"buffer": n}`` (mapped scratch), ``{"malloc": n}`` (tracked
    heap block).
    """
    from repro.memory import INVALID_POINTER, NULL, Protection

    if isinstance(spec, bool) or not isinstance(spec, (int, float, dict)):
        raise ServiceError(
            ErrorCode.INVALID_PARAMS,
            f"params.calls[{index}].args[{position}] must be a number "
            "or an allocation object",
        )
    if isinstance(spec, (int, float)):
        return spec
    if spec.get("null"):
        return NULL
    if spec.get("invalid"):
        return INVALID_POINTER
    if isinstance(spec.get("cstring"), str):
        return runtime.space.alloc_cstring(spec["cstring"]).base
    if isinstance(spec.get("readonly"), str):
        return runtime.space.alloc_cstring(
            spec["readonly"], prot=Protection.READ
        ).base
    if isinstance(spec.get("buffer"), int) and not isinstance(
        spec.get("buffer"), bool
    ):
        return runtime.space.map_region(spec["buffer"]).base
    if isinstance(spec.get("malloc"), int) and not isinstance(
        spec.get("malloc"), bool
    ):
        return runtime.heap.malloc(spec["malloc"])
    raise ServiceError(
        ErrorCode.INVALID_PARAMS,
        f"params.calls[{index}].args[{position}]: unknown allocation "
        "spec (use null/invalid/cstring/readonly/buffer/malloc)",
    )


async def handle_validate(state: ServiceState, params: dict) -> dict:
    """Batch-validate many calls through one compiled wrapper.

    The whole batch runs under this request's single admission ticket:
    declarations come from the (cached) injection reports, the calls
    are checked by shared :class:`~repro.wrapper.program.CheckProgram`s
    with a warm revalidation cache, and — only when ``execute`` is
    set — forwarded to the simulated library as well.
    """
    from repro.declarations import apply_all_manual_edits, declaration_from_report

    _check_param_keys("validate", params)
    calls = _calls_param(params)
    run = _run_param(params)
    execute = bool(params.get("execute"))
    policy_name = params.get("policy", "robust")
    names = sorted({name for name, _ in calls})
    specs = {name: state.spec_for(name) for name in names}
    reports = {}
    for name in names:
        report, _ = await state.report_for(name, run)
        reports[name] = report

    def run() -> dict:
        from repro.libc.runtime import standard_runtime
        from repro.wrapper import WrapperLibrary, WrapperPolicy

        try:
            policy = WrapperPolicy(policy_name)
        except ValueError:
            raise ServiceError(
                ErrorCode.INVALID_PARAMS,
                f"params.policy must be one of "
                f"{sorted(p.value for p in WrapperPolicy)}",
            ) from None
        declarations = {
            name: declaration_from_report(reports[name], specs[name].version)
            for name in names
        }
        if params.get("semi_auto"):
            declarations = apply_all_manual_edits(declarations)
        wrapper = WrapperLibrary(
            declarations, policy=policy, telemetry=state.telemetry
        )
        runtime = standard_runtime()
        materialized = [
            (
                name,
                [
                    _materialize_arg(spec, runtime, index, position)
                    for position, spec in enumerate(args)
                ],
            )
            for index, (name, args) in enumerate(calls)
        ]
        rows: list[dict] = []
        if execute:
            outcomes = wrapper.call_many(materialized, runtime)
            for (name, _), outcome in zip(materialized, outcomes):
                rows.append(
                    {
                        "function": name,
                        "status": outcome.status.name,
                        "return_value": outcome.return_value,
                        "errno": outcome.errno,
                    }
                )
            violations = wrapper.stats.violations
        else:
            for (name, _), violation in zip(
                materialized, wrapper.validate_many(materialized, runtime)
            ):
                rows.append(
                    {
                        "function": name,
                        "ok": violation is None,
                        "violation": violation,
                    }
                )
            violations = sum(1 for row in rows if not row["ok"])
        stats = wrapper.stats
        return {
            "calls": rows,
            "batch": len(rows),
            "violations": violations,
            "wrapper": {
                "checks": stats.checks,
                "programs_compiled": stats.programs_compiled,
                "program_shares": stats.program_shares,
                "revalidate_hits": stats.revalidate_hits,
                "revalidate_misses": stats.revalidate_misses,
            },
        }

    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(state.executor, run)


async def handle_status(state: ServiceState, params: dict) -> dict:
    """Liveness, capacity, and cache visibility in one cheap call."""
    from repro import __version__

    return {
        "service": "repro.service",
        "version": __version__,
        "protocol": PROTOCOL_VERSION,
        "uptime_seconds": round(time.monotonic() - state.started, 3),
        "functions": len(CATALOG),
        "workers": state.workers,
        "shutting_down": state.shutting_down,
        "ops": sorted(HANDLERS),
        "admission": state.admission.snapshot(),
        "singleflight": state.singleflight.stats(),
        "cache": {
            "dir": str(state.store.root) if state.store is not None else None,
            "entries": len(state.store.entries()) if state.store is not None else 0,
        },
    }


async def handle_metrics(state: ServiceState, params: dict) -> dict:
    """The live metrics registry in Prometheus text format."""
    return {
        "content_type": PROMETHEUS_CONTENT_TYPE,
        "body": render_prometheus(state.telemetry.registry),
    }


async def handle_history(state: ServiceState, params: dict) -> dict:
    """The dependability ledger, read-only over the wire.

    Control-plane: bypasses admission so operators can read the
    trajectory even when the daemon is saturated or draining.
    """
    if state.ledger_path is None:
        raise ServiceError(
            ErrorCode.INVALID_PARAMS,
            "this service was started without --ledger; no history to read",
        )
    limit = params.get("limit", 20)
    if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
        raise ServiceError(
            ErrorCode.INVALID_PARAMS, "params.limit must be a positive integer"
        )
    kind = params.get("kind")
    from repro.obs.ledger import RUN_KINDS, Ledger, LedgerError

    if kind is not None and kind not in RUN_KINDS:
        raise ServiceError(
            ErrorCode.INVALID_PARAMS,
            f"params.kind must be one of {sorted(RUN_KINDS)}",
        )
    ledger = Ledger(state.ledger_path)
    try:
        stats = ledger.stats()
        runs = ledger.runs(kind=kind, limit=limit)
    except LedgerError as exc:
        raise ServiceError(ErrorCode.INTERNAL, str(exc)) from exc
    return {
        "ledger": stats,
        "runs": [run.summary() for run in runs],
    }


#: Endpoint registry; the ``status`` endpoint publishes the key set.
HANDLERS = {
    "declaration": handle_declaration,
    "inject": handle_inject,
    "harden": handle_harden,
    "ballista": handle_ballista,
    "validate": handle_validate,
    "status": handle_status,
    "metrics": handle_metrics,
    "history": handle_history,
}

#: Control-plane ops bypass admission control and run without a work
#: deadline: overload and drain must never blind the operator.
CONTROL_OPS = frozenset({"status", "metrics", "history"})
