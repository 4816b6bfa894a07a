"""Regression gates over the dependability ledger.

:func:`check_regressions` compares the newest point of every ledger
series against a baseline window of its predecessors and emits typed
verdicts — the CI gate behind ``repro regressions`` and the verdict
column on the dashboard.

Two comparison families:

* **metric series** — every ``(bench, metric)`` series whose name has
  a known direction (``*_seconds`` is lower-better, ``speedup`` is
  higher-better, …) is compared as latest vs the mean of up to
  ``baseline`` prior points.  An effective ratio past
  ``regress_ratio`` is ``regressed``; past the inverse it is
  ``improved``; otherwise ``ok``.  Undirected metrics (counts, core
  counts) are never gated.
* **campaign robustness** — consecutive campaign runs over the *same
  function set* are diffed on their unsafe verdicts: a function
  flipping safe→unsafe is ``regressed`` (the dependability story
  changed), unsafe→safe is ``improved``.

Verdicts are data, not prints: :class:`RegressionReport` renders text,
serializes to JSON, and exposes the gate's exit code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.obs.ledger import Ledger

#: Default baseline window: latest vs mean of up to this many priors.
DEFAULT_BASELINE = 3

#: Default effective-ratio threshold for ``regressed``; ``improved``
#: is the inverse.  Chosen under the 2x-slowdown acceptance bar with
#: headroom for timing noise.
DEFAULT_REGRESS_RATIO = 1.5

#: Absolute noise floor of timing series (``*seconds*`` in seconds,
#: ``*_ms`` in milliseconds): a latest value within this many seconds
#: of its baseline is ``ok`` whatever the ratio.  A one-function
#: campaign's ``inject_seconds`` moves from 1.6 to 4.2 ms between
#: identical runs on a shared host, and a gen-2 collection alone costs
#: about 15 ms.
TIMING_NOISE_FLOOR_SECONDS = 0.02

#: Substrings marking a metric where *bigger is worse*.
LOWER_IS_BETTER = (
    "seconds", "_ms", "_ns", "_pct", "overhead", "latency",
    "p50", "p95", "p99", "elapsed", "unsafe", "_bytes",
)

#: Substrings marking a metric where *bigger is better* (checked
#: first: ``cache_hit_rate_pct`` is a rate, not an overhead).
HIGHER_IS_BETTER = (
    "speedup", "hit_rate", "hits", "rps", "throughput", "qps",
)


def metric_direction(metric: str) -> Optional[str]:
    """``"lower"``, ``"higher"``, or None when the metric has no
    gateable direction (plain counts are findings, not performance)."""
    name = metric.lower()
    if any(token in name for token in HIGHER_IS_BETTER):
        return "higher"
    if any(token in name for token in LOWER_IS_BETTER):
        return "lower"
    return None


def _timing_floor(metric: str) -> Optional[float]:
    """The noise floor of a timing metric in its own unit, or None."""
    name = metric.lower()
    if "seconds" in name:
        return TIMING_NOISE_FLOOR_SECONDS
    if "_ms" in name:
        return TIMING_NOISE_FLOOR_SECONDS * 1e3
    return None


@dataclass(frozen=True)
class Verdict:
    """One gated comparison."""

    metric: str                      # "bench/metric" or "campaign[fn]"
    verdict: str                     # ok | regressed | improved | new
    direction: str                   # lower | higher | flag
    latest: float
    baseline: Optional[float] = None  # mean of the baseline window
    ratio: Optional[float] = None     # effective ratio (>1 = worse)
    samples: int = 0                  # baseline points compared against
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "metric": self.metric,
            "verdict": self.verdict,
            "direction": self.direction,
            "latest": self.latest,
            "baseline": self.baseline,
            "ratio": self.ratio,
            "samples": self.samples,
            "detail": self.detail,
        }


@dataclass
class RegressionReport:
    """Everything one gate evaluation produced."""

    verdicts: list[Verdict] = field(default_factory=list)
    baseline_window: int = DEFAULT_BASELINE
    regress_ratio: float = DEFAULT_REGRESS_RATIO

    def by_verdict(self, verdict: str) -> list[Verdict]:
        return [v for v in self.verdicts if v.verdict == verdict]

    @property
    def regressed(self) -> list[Verdict]:
        return self.by_verdict("regressed")

    @property
    def improved(self) -> list[Verdict]:
        return self.by_verdict("improved")

    @property
    def ok(self) -> bool:
        return not self.regressed

    @property
    def exit_code(self) -> int:
        """The CI gate contract: non-zero iff something regressed."""
        return 1 if self.regressed else 0

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "baseline_window": self.baseline_window,
            "regress_ratio": self.regress_ratio,
            "counts": {
                verdict: len(self.by_verdict(verdict))
                for verdict in ("regressed", "improved", "ok", "new")
            },
            "verdicts": [v.to_json() for v in self.verdicts],
        }

    def render(self) -> str:
        """Human-readable gate summary, worst news first."""
        lines = [
            f"regression gate: baseline window {self.baseline_window}, "
            f"threshold {self.regress_ratio:.2f}x"
        ]
        order = {"regressed": 0, "improved": 1, "ok": 2, "new": 3}
        for verdict in sorted(
            self.verdicts, key=lambda v: (order.get(v.verdict, 9), v.metric)
        ):
            ratio = f"{verdict.ratio:.2f}x" if verdict.ratio is not None else "-"
            base = (
                f"{verdict.baseline:.6g}" if verdict.baseline is not None else "-"
            )
            lines.append(
                f"  {verdict.verdict.upper():9s} {verdict.metric:52s} "
                f"latest={verdict.latest:.6g} baseline={base} {ratio}"
                + (f"  {verdict.detail}" if verdict.detail else "")
            )
        if len(lines) == 1:
            lines.append("  (no comparable series in the ledger)")
        lines.append(
            f"verdict: {'REGRESSED' if self.regressed else 'ok'} "
            f"({len(self.regressed)} regressed, {len(self.improved)} improved, "
            f"{len(self.by_verdict('ok'))} ok, {len(self.by_verdict('new'))} new)"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------


def _metric_verdict(
    name: str,
    metric: str,
    direction: str,
    points: list[dict],
    baseline: int,
    regress_ratio: float,
    min_value: float,
) -> Verdict:
    latest = points[-1]["value"]
    window = points[max(0, len(points) - 1 - baseline):-1]
    values = [p["value"] for p in window]
    mean = sum(values) / len(values)
    if max(abs(latest), abs(mean)) < min_value:
        return Verdict(name, "ok", direction, latest, mean, None,
                       len(values), "below noise floor")
    floor = _timing_floor(metric)
    if floor is not None and abs(latest - mean) < floor:
        return Verdict(name, "ok", direction, latest, mean, None,
                       len(values), "within timing noise floor")
    if mean <= 0.0 or latest <= 0.0:
        # A zero crossing cannot be expressed as a ratio: a metric
        # that was zero and now is not (or vice versa) is a real
        # change in the measured quantity.
        worse = latest > mean if direction == "lower" else latest < mean
        verdict = "regressed" if worse else ("ok" if latest == mean else "improved")
        return Verdict(name, verdict, direction, latest, mean, None,
                       len(values), "zero crossing")
    ratio = latest / mean if direction == "lower" else mean / latest
    if ratio >= regress_ratio:
        verdict = "regressed"
    elif ratio <= 1.0 / regress_ratio:
        verdict = "improved"
    else:
        verdict = "ok"
    return Verdict(name, verdict, direction, latest, mean,
                   round(ratio, 4), len(values))


def _campaign_flips(ledger: Ledger) -> list[Verdict]:
    """Unsafe-verdict diffs between consecutive same-set campaigns."""
    latest_by_set: dict[str, tuple] = {}
    previous_by_set: dict[str, tuple] = {}
    for run, rows in ledger.campaign_runs():
        fnset = str(run.extra.get("functions_key", ""))
        if fnset in latest_by_set:
            previous_by_set[fnset] = latest_by_set[fnset]
        latest_by_set[fnset] = (run, rows)
    verdicts: list[Verdict] = []
    for fnset, (run, rows) in sorted(latest_by_set.items()):
        prior = previous_by_set.get(fnset)
        if prior is None:
            continue
        _, prior_rows = prior
        before = {
            r["function"]: r["unsafe"] for r in prior_rows
            if r["unsafe"] is not None
        }
        after = {
            r["function"]: r["unsafe"] for r in rows
            if r["unsafe"] is not None
        }
        for function in sorted(set(before) & set(after)):
            if before[function] == after[function]:
                continue
            went_unsafe = bool(after[function])
            verdicts.append(
                Verdict(
                    metric=f"campaign[{function}].unsafe",
                    verdict="regressed" if went_unsafe else "improved",
                    direction="flag",
                    latest=float(after[function]),
                    baseline=float(before[function]),
                    samples=1,
                    detail=(
                        "function now classified unsafe"
                        if went_unsafe
                        else "function now classified safe"
                    ),
                )
            )
    return verdicts


def check_regressions(
    ledger: Ledger,
    baseline: int = DEFAULT_BASELINE,
    regress_ratio: float = DEFAULT_REGRESS_RATIO,
    min_value: float = 1e-6,
) -> RegressionReport:
    """Evaluate the gate over everything the ledger holds."""
    if baseline < 1:
        raise ValueError(f"baseline window must be >= 1, got {baseline}")
    if regress_ratio <= 1.0:
        raise ValueError(f"regress_ratio must be > 1.0, got {regress_ratio}")
    report = RegressionReport(
        baseline_window=baseline, regress_ratio=regress_ratio
    )
    for (bench, metric), points in sorted(ledger.bench_series().items()):
        direction = metric_direction(metric)
        if direction is None:
            continue
        name = f"{bench}/{metric}"
        if len(points) < 2:
            report.verdicts.append(
                Verdict(name, "new", direction, points[-1]["value"],
                        detail="no baseline yet")
            )
            continue
        report.verdicts.append(
            _metric_verdict(
                name, metric, direction, points, baseline, regress_ratio,
                min_value,
            )
        )
    report.verdicts.extend(_campaign_flips(ledger))
    return report
