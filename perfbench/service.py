"""The ``service-warm`` workload: the shipped daemon under one
closed-loop client.

Set-up starts ``repro serve --workers 2 --cache-dir <fresh dir>`` and
prefills its outcome store with ``harden`` requests for the first 20
catalog functions (a quarter of the catalog, all string and memory
functions), one function per request.  The timed script then sends only warm requests:
``declaration`` lookups (automated and semi-automatic), two 10-function
``harden`` requests and four 60-call ``validate`` batches of benign
calls, two of them with ``execute=true``.  The seed orders the script.

Every response is compared with the same request answered in-process
through the public API over the golden declarations.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from perfbench.calib import calibrate_brackets, measure_reference
from perfbench.paths import ROOT, SCRATCH, child_env

#: Catalog-order prefix the set-up prefills (strcpy .. memchr).
PREFILL = 20
#: Requests per reference bracket.
SLICE = 4
#: How many times each distinct declaration request appears per pass.
DECLARATION_REPEATS = 5

#: One benign call per prefilled function: (function, wire args).
BENIGN_CALLS = [
    ("strcpy", [{"buffer": 64}, {"cstring": "hello"}]),
    ("strncpy", [{"buffer": 64}, {"cstring": "hello"}, 5]),
    ("strcat", [{"buffer": 64}, {"cstring": "ab"}]),
    ("strncat", [{"buffer": 64}, {"cstring": "ab"}, 2]),
    ("strcmp", [{"cstring": "abc"}, {"cstring": "abd"}]),
    ("strncmp", [{"cstring": "abc"}, {"cstring": "abd"}, 2]),
    ("strlen", [{"cstring": "hello world"}]),
    ("strchr", [{"cstring": "hello"}, 108]),
    ("strrchr", [{"cstring": "hello"}, 108]),
    ("strstr", [{"cstring": "haystack"}, {"cstring": "st"}]),
    ("strspn", [{"cstring": "hello"}, {"cstring": "hel"}]),
    ("strcspn", [{"cstring": "hello"}, {"cstring": "o"}]),
    ("strpbrk", [{"cstring": "hello"}, {"cstring": "lo"}]),
    ("strtok", [{"cstring": "a,b,c"}, {"cstring": ","}]),
    ("strdup", [{"cstring": "copy me"}]),
    ("memcpy", [{"buffer": 64}, {"cstring": "abcdef"}, 6]),
    ("memmove", [{"buffer": 64}, {"cstring": "abcdef"}, 6]),
    ("memset", [{"buffer": 64}, 0, 16]),
    ("memcmp", [{"cstring": "abc"}, {"cstring": "abd"}, 3]),
    ("memchr", [{"cstring": "hello"}, 101, 5]),
]


def prefill_functions() -> list[str]:
    from repro.libc.catalog import BALLISTA_SET

    return [spec.name for spec in BALLISTA_SET[:PREFILL]]


def build_script(seed: int, functions: list[str]) -> list[tuple[str, dict]]:
    """One pass of requests, ordered by ``seed``."""
    calls = [{"function": name, "args": args} for name, args in BENIGN_CALLS] * 3
    script: list[tuple[str, dict]] = []
    for _ in range(DECLARATION_REPEATS):
        for name in functions:
            for semi in (False, True):
                script.append(("declaration", {"function": name, "semi_auto": semi}))
    half = len(functions) // 2
    for names in (functions[:half], functions[half:]):
        script.append(("harden", {"functions": names, "semi_auto": False, "include_source": False}))
    for execute in (False, True, False, True):
        script.append(("validate", {"calls": calls, "semi_auto": False,
                                    "policy": "robust", "execute": execute}))
    random.Random(seed).shuffle(script)
    return script


def prefill_script(functions: list[str]) -> list[tuple[str, dict]]:
    """The set-up's requests: one cold ``harden`` per function."""
    return [("harden", {"functions": [name], "semi_auto": False, "include_source": False})
            for name in functions]


# ----------------------------------------------------------------------
# expected answers, in-process over the golden declarations
# ----------------------------------------------------------------------


def request_key(op: str, params: dict) -> str:
    return op + json.dumps(params, sort_keys=True)


class Expected:
    """The in-process answer to each distinct request, and the check."""

    def __init__(self, declarations: dict) -> None:
        self.declarations = declarations
        self._answers: dict[str, dict] = {}

    def answer(self, op: str, params: dict) -> dict:
        key = request_key(op, params)
        if key not in self._answers:
            self._answers[key] = getattr(self, f"_{op}")(params)
        return self._answers[key]

    def check(self, op: str, params: dict, result: dict) -> Optional[str]:
        """None when ``result`` matches, else what differs."""
        expected = self.answer(op, params)
        for field, value in expected.items():
            if result.get(field) != value:
                return f"{op} {params.get('function', '')}: field {field!r} differs"
        return None

    def _declaration(self, params: dict) -> dict:
        from repro.declarations import apply_manual_edits

        declaration = self.declarations[params["function"]]
        if params["semi_auto"]:
            declaration = apply_manual_edits(declaration)
        return {
            "function": params["function"],
            "unsafe": declaration.unsafe,
            "xml": declaration.to_xml(),
            "assertions": sorted(declaration.assertions),
        }

    def _harden(self, params: dict) -> dict:
        from repro.declarations import apply_all_manual_edits

        names = params["functions"]
        chosen = {name: self.declarations[name] for name in names}
        unsafe = sorted(n for n, d in chosen.items() if d.unsafe)
        if params["semi_auto"]:
            chosen = apply_all_manual_edits(chosen)
        return {
            "functions": list(names),
            "unsafe": unsafe,
            "safe": sorted(n for n in names if n not in unsafe),
            "failed": {},
            "declarations": {n: d.to_xml() for n, d in chosen.items()},
        }

    def _validate(self, params: dict) -> dict:
        from repro.libc.runtime import standard_runtime
        from repro.wrapper import WrapperLibrary, WrapperPolicy

        names = sorted({call["function"] for call in params["calls"]})
        wrapper = WrapperLibrary(
            {name: self.declarations[name] for name in names},
            policy=WrapperPolicy(params["policy"]),
        )
        runtime = standard_runtime()
        materialized = [
            (call["function"], [_materialize(arg, runtime) for arg in call["args"]])
            for call in params["calls"]
        ]
        rows = []
        if params["execute"]:
            for (name, _), outcome in zip(materialized, wrapper.call_many(materialized, runtime)):
                rows.append({"function": name, "status": outcome.status.name,
                             "return_value": outcome.return_value, "errno": outcome.errno})
            violations = wrapper.stats.violations
        else:
            for (name, _), violation in zip(materialized, wrapper.validate_many(materialized, runtime)):
                rows.append({"function": name, "ok": violation is None, "violation": violation})
            violations = sum(1 for row in rows if not row["ok"])
        return {"calls": rows, "batch": len(rows), "violations": violations}


def _materialize(arg, runtime):
    """The wire arg specs the script uses, allocated as the service
    documents them (docs/service.md, ``validate``)."""
    if isinstance(arg, int):
        return arg
    if "cstring" in arg:
        return runtime.space.alloc_cstring(arg["cstring"]).base
    if "buffer" in arg:
        return runtime.space.map_region(arg["buffer"]).base
    raise ValueError(f"unsupported arg spec {arg!r}")


# ----------------------------------------------------------------------
# the daemon
# ----------------------------------------------------------------------


class Daemon:
    """One ``repro serve`` process with a fresh cache dir."""

    def __init__(self, run_dir: Path, spans_file: Optional[Path] = None) -> None:
        self.cache_dir = run_dir / "cache"
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        serve = ["serve", "--port", "0", "--workers", "2", "--cache-dir", str(self.cache_dir)]
        if spans_file is None:
            command = [sys.executable, "-m", "repro", *serve]
        else:
            command = [sys.executable, str(ROOT / "perfbench" / "daemon.py"),
                       "--spans", str(spans_file), *serve]
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        line = self.proc.stdout.readline()
        match = re.match(r"serving on ([\w.]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        return int(match.group(1)) / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def start_and_prefill(run_dir: Path, functions: list[str], expected: Expected,
                      spans_file: Optional[Path] = None):
    """Start a daemon and prefill it, one ``harden`` request per
    function with a reference measurement between requests; returns
    (daemon, client, calibrated set-up seconds, raw set-up seconds,
    failures)."""
    from repro.service import ServiceClient, ServiceError

    refs = [measure_reference()]
    started = time.perf_counter()
    daemon = Daemon(run_dir, spans_file)
    client = ServiceClient(daemon.host, daemon.port).connect()
    raw = [time.perf_counter() - started]
    refs.append(measure_reference())
    failures = []
    for _, params in prefill_script(functions):
        name = params["functions"][0]
        started = time.perf_counter()
        try:
            result = client.call("harden", params)
        except ServiceError as exc:
            result = None
            failures.append(f"prefill {name}: {exc.code}")
        raw.append(time.perf_counter() - started)
        refs.append(measure_reference())
        problem = result and expected.check("harden", params, result)
        if problem:
            failures.append(f"prefill {name}: {problem}")
    calibrated = sum(calibrate_brackets(raw, refs, [1] * len(raw)))
    return daemon, client, calibrated, sum(raw), failures


def pin_to_one_cpu() -> None:
    """Run this process, and the daemon it starts, on one CPU.  Client
    and daemon take turns in the closed loop, and the reference units
    the client measures then time the core the daemon runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_script(client, script, expected: Expected, tracer=None) -> dict:
    """One pass: every request of the script, bracketed by reference
    measurements every ``SLICE`` requests."""
    from repro.service import ServiceError

    from perfbench.layers import PASS_SPAN

    refs = [measure_reference()]
    raw: list[float] = []
    ops: list[str] = []
    failures: list[str] = []
    retry_later = 0
    for start in range(0, len(script), SLICE):
        root = tracer.open(PASS_SPAN) if tracer else None
        for op, params in script[start:start + SLICE]:
            began = time.perf_counter()
            try:
                result = client.call(op, params, retries=0)
            except ServiceError as exc:
                result = None
                failures.append(f"{op}: {exc.code}")
                retry_later += exc.code == "RETRY_LATER"
            ended = time.perf_counter()
            raw.append(ended - began)
            ops.append(op)
            if tracer:
                tracer.record(f"service.client.{op}", began, ended, root[0])
            if result is not None:
                problem = expected.check(op, params, result)
                if problem:
                    failures.append(problem)
        if tracer:
            tracer.close(root)
        refs.append(measure_reference())
    brackets = [len(script[i:i + SLICE]) for i in range(0, len(script), SLICE)]
    return {"raw": raw, "refs": refs, "brackets": brackets, "ops": ops,
            "failures": failures, "retry_later": retry_later}


def cache_counts(client) -> dict[str, float]:
    """``service.cache`` hit/miss counters from the ``metrics`` op."""
    body = client.call("metrics")["body"]
    counts = {"hit": 0.0, "miss": 0.0}
    for result, value in re.findall(r'^service_cache_total\{result="(\w+)"\} (\S+)$', body, re.M):
        counts[result] = float(value)
    return counts


def run_dir_for(seed: int) -> Path:
    path = SCRATCH / f"service-{os.getpid()}-{seed}"
    path.mkdir(parents=True, exist_ok=True)
    return path
