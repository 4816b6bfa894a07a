"""Bit-flip fault injection (the paper's section 9 future work).

"In the future, we plan to evaluate the robustness of our system using
other types of fault injection techniques (e.g. bit-flips)."

This module implements that evaluation: starting from a *valid* call
(every argument correct), it flips one bit at a time in

* an argument *value* (a corrupted register or spilled slot), or
* the *memory* an argument points to (a corrupted heap/stack object),

then executes the call — unwrapped or through a wrapper — and
classifies the outcome.  Unlike the Ballista pools, which sample
exceptional values from a type-aware catalog, bit flips explore the
immediate neighbourhood of valid states: a good model of hardware
upsets and of stray writes by unrelated buggy code.

The flip primitives now live in :mod:`repro.faults.bitflip`, where
the ``bitflip`` :class:`~repro.faults.FaultModel` shares them with
the injector's scenario sweep; this module keeps its public API
(``FlipSpec``, ``enumerate_flips``, ``BitFlipCampaign``, the golden
calls) as a shim over that single registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.faults.bitflip import (  # noqa: F401  (re-exported shim API)
    VALUE_BITS,
    BitFlipModel,
    FlipSpec,
    apply_flip,
    enumerate_flips,
)
from repro.libc.catalog import BY_NAME
from repro.libc.runtime import LibcRuntime, standard_runtime
from repro.sandbox import CallOutcome, CallStatus, Sandbox
from repro.wrapper.wrapper import WrapperLibrary


@dataclass
class BitFlipResult:
    spec: FlipSpec
    status: str  # "crash" | "errno" | "silent"
    detail: str = ""


@dataclass
class BitFlipReport:
    """Aggregate over one campaign."""

    function: str
    configuration: str
    results: list[BitFlipResult] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.results)

    def count(self, status: str) -> int:
        return sum(1 for r in self.results if r.status == status)

    @property
    def crash_rate(self) -> float:
        return self.count("crash") / self.total if self.total else 0.0

    def summary_row(self) -> dict[str, object]:
        return {
            "function": self.function,
            "configuration": self.configuration,
            "flips": self.total,
            "crash_pct": round(100 * self.crash_rate, 2),
            "errno_pct": round(100 * self.count("errno") / self.total, 2)
            if self.total
            else 0.0,
            "silent_pct": round(100 * self.count("silent") / self.total, 2)
            if self.total
            else 0.0,
        }


#: A "golden call" builder returns (args, pointer_block_sizes) where
#: pointer_block_sizes[i] is the byte length of the object argument i
#: points at (0 for scalar arguments).
GoldenCall = Callable[[LibcRuntime], tuple[list[int], list[int]]]


def _golden_asctime(runtime: LibcRuntime) -> tuple[list[int], list[int]]:
    tm = runtime.space.map_region(44)
    for index, value in enumerate((30, 15, 12, 4, 6, 102, 4, 184, 0)):
        runtime.space.store_i32(tm.base + 4 * index, value)
    return [tm.base], [44]


def _golden_strcpy(runtime: LibcRuntime) -> tuple[list[int], list[int]]:
    dst = runtime.heap.malloc(32)
    src = runtime.space.alloc_cstring("bit flip payload")
    return [dst, src.base], [32, src.size]


def _golden_strlen(runtime: LibcRuntime) -> tuple[list[int], list[int]]:
    s = runtime.space.alloc_cstring("measure me")
    return [s.base], [s.size]


def _golden_fclose(runtime: LibcRuntime) -> tuple[list[int], list[int]]:
    from repro.libc import fileio
    from repro.libc.kernel import READ
    from repro.sandbox.context import CallContext

    fd = runtime.kernel.open("/tmp/input.txt", READ)
    fp = fileio.alloc_file(CallContext(runtime), fd, True, False)
    return [fp], [216]


def _golden_fseek(runtime: LibcRuntime) -> tuple[list[int], list[int]]:
    from repro.libc import fileio
    from repro.libc.kernel import READ
    from repro.sandbox.context import CallContext

    fd = runtime.kernel.open("/tmp/input.txt", READ)
    fp = fileio.alloc_file(CallContext(runtime), fd, True, False)
    return [fp, 4, 0], [216, 0, 0]


def _golden_closedir(runtime: LibcRuntime) -> tuple[list[int], list[int]]:
    from repro.libc.dirent_fns import alloc_dir
    from repro.libc.kernel import READ
    from repro.sandbox.context import CallContext

    fd = runtime.kernel.open("/tmp", READ)
    dirp = alloc_dir(CallContext(runtime), [".", ".."], fd)
    return [dirp], [72]


#: Golden calls for the functions the campaign covers.
GOLDEN_CALLS: dict[str, GoldenCall] = {
    "asctime": _golden_asctime,
    "strcpy": _golden_strcpy,
    "strlen": _golden_strlen,
    "fclose": _golden_fclose,
    "fseek": _golden_fseek,
    "closedir": _golden_closedir,
}


class BitFlipCampaign:
    """Runs a bit-flip sweep for one function."""

    def __init__(self, function: str) -> None:
        if function not in GOLDEN_CALLS:
            raise KeyError(
                f"no golden call registered for {function!r}; "
                f"known: {sorted(GOLDEN_CALLS)}"
            )
        self.function = function
        self.golden = GOLDEN_CALLS[function]
        self.sandbox = Sandbox()

    def run(
        self,
        wrapper: Optional[WrapperLibrary] = None,
        configuration: str = "unwrapped",
    ) -> BitFlipReport:
        base = standard_runtime()
        probe_args, block_sizes = self.golden(base.fork())
        report = BitFlipReport(self.function, configuration)
        for spec in enumerate_flips(probe_args, block_sizes):
            runtime = base.fork()
            args, _ = self.golden(runtime)
            if wrapper is not None:
                # A stream/dir created by the golden call counts as
                # opened through the wrapper.
                wrapper.state.file_table.clear()
                wrapper.state.dir_table.clear()
                if self.function in ("fclose", "fseek"):
                    wrapper.state.seed_file(args[0])
                if self.function == "closedir":
                    wrapper.state.seed_dir(args[0])
            flipped = apply_flip(runtime, args, spec)
            if wrapper is not None:
                outcome = wrapper.call(self.function, flipped, runtime)
            else:
                outcome = self.sandbox.call(
                    BY_NAME[self.function].model, flipped, runtime
                )
            report.results.append(BitFlipResult(spec, *_classify(outcome)))
        return report


def _classify(outcome: CallOutcome) -> tuple[str, str]:
    if outcome.status is not CallStatus.RETURNED:
        return "crash", outcome.describe()
    if outcome.errno_was_set:
        return "errno", ""
    return "silent", ""
