"""Declarative SLOs: attainment and error-budget burn on simulated time.

An :class:`SLOObjective` states one promise — "traffic class *C* meets
a *METRIC* percentile target" — in the compact spec syntax the CLI
accepts (``--slo CLASS:METRIC:pPCT:TARGET_MS``):

* ``CLASS`` — a priority tier (the integer the request carries) or
  ``all`` for every request;
* ``METRIC`` — ``ttft`` (time to first token), ``tpot`` (time per
  output token: decode seconds per token after the first), or ``e2e``
  (arrival to terminal event);
* ``pPCT`` — the percentile, e.g. ``p95`` or ``p99.9``;
* ``TARGET_MS`` — the target in milliseconds of simulated time.

``0:ttft:p95:150`` reads "tier 0's p95 TTFT stays under 150 ms".

An :class:`SLOPolicy` bundles objectives with a window width and
evaluates them over request samples from either source — the engines'
:class:`~repro.serving.request.RequestRecord` lists (the caller stores
the verdicts in ``ServingStats.slo`` / ``ClusterStats.slo``, as
``repro serve --slo`` does) or the per-request timelines the trace
reconstructs (the ``repro slo-report`` path).  Both reduce to the same
:class:`RequestSample` shape, so the two views agree by construction.

Evaluation is deliberately simple and exactly reproducible:

* the *measured* percentile uses the same NaN-propagating
  ``_percentile`` the serving stats report (no samples → NaN → rendered
  ``n/a`` / JSON ``null``, never a fake zero);
* *attainment* is the fraction of eligible requests meeting the target,
  where a FAILED request counts as a violation of every objective on
  its tier (a dropped request met no latency promise);
* *burn rate* tiles the run into tumbling simulated-clock windows (by
  arrival time) and reports each window's violation rate divided by the
  error budget (``1 - pct/100``) — burn > 1 means the window spent
  budget faster than the objective allows; the report carries the worst
  window and how many windows burned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..eval.reporting import Table
from ..serving.request import RequestStatus
from ..serving.stats import _null_if_nan, _percentile
from .timeline import RequestTimeline

__all__ = [
    "SLO_METRICS",
    "RequestSample",
    "SLOObjective",
    "SLOPolicy",
    "SLOReport",
    "samples_from_records",
    "samples_from_timelines",
]

SLO_METRICS = ("ttft", "tpot", "e2e")


@dataclass(frozen=True)
class RequestSample:
    """One request's SLO-relevant outcome, source-agnostic."""

    request_id: int
    priority: int
    arrival_s: float
    #: ``None`` when the metric is undefined for this request (a failed
    #: request has no latencies; a 1-token request has no TPOT).
    ttft_s: Optional[float]
    tpot_s: Optional[float]
    e2e_s: Optional[float]
    failed: bool

    def value(self, metric: str) -> Optional[float]:
        return getattr(self, f"{metric}_s")


def samples_from_records(records) -> List[RequestSample]:
    """Samples from engine :class:`RequestRecord` lists."""
    samples = []
    for record in records:
        arrival = record.request.arrival_time
        failed = record.status is RequestStatus.FAILED
        ttft = tpot = e2e = None
        if record.first_token_time is not None:
            ttft = record.first_token_time - arrival
        if record.finish_time is not None:
            e2e = record.finish_time - arrival
            if record.first_token_time is not None \
                    and record.n_generated >= 2:
                tpot = (record.finish_time - record.first_token_time) \
                    / (record.n_generated - 1)
        samples.append(RequestSample(
            request_id=record.request.request_id,
            priority=record.request.priority,
            arrival_s=arrival,
            ttft_s=ttft, tpot_s=tpot, e2e_s=e2e,
            failed=failed,
        ))
    return sorted(samples, key=lambda s: s.request_id)


def samples_from_timelines(
    timelines: Dict[int, RequestTimeline],
) -> List[RequestSample]:
    """Samples from trace-reconstructed timelines.

    Matches :func:`samples_from_records` semantics: TTFT is the last
    promotion (requeues reset the record's first-token time), TPOT is
    decode seconds per token after the first, failed requests carry no
    latency samples.
    """
    samples = []
    for rid in sorted(timelines):
        tl = timelines[rid]
        if tl.arrival_us is None:
            continue
        arrival = float(tl.arrival_us) / 1e6
        failed = tl.failed
        ttft = tpot = e2e = None
        ttft_us = tl.ttft_us
        if not failed and ttft_us is not None:
            ttft = float(ttft_us) / 1e6
        if not failed and tl.end_us is not None:
            e2e = float(tl.end_us - tl.arrival_us) / 1e6
            if ttft_us is not None and tl.n_tokens >= 2:
                tpot = float(
                    tl.end_us - tl.promoted_us[-1]
                ) / 1e6 / (tl.n_tokens - 1)
        samples.append(RequestSample(
            request_id=rid,
            priority=tl.priority,
            arrival_s=arrival,
            ttft_s=ttft, tpot_s=tpot, e2e_s=e2e,
            failed=failed,
        ))
    return samples


@dataclass(frozen=True)
class SLOObjective:
    """One declarative objective: CLASS:METRIC:pPCT:TARGET_MS."""

    metric: str
    percentile: float
    target_s: float
    #: Priority tier the objective covers; ``None`` means every request.
    tier: Optional[int] = None

    def __post_init__(self):
        if self.metric not in SLO_METRICS:
            raise ValueError(
                f"unknown SLO metric {self.metric!r}; "
                f"choose from {SLO_METRICS}"
            )
        if not 0 < self.percentile <= 100:
            raise ValueError(
                f"SLO percentile must be in (0, 100], got {self.percentile}"
            )
        if not self.target_s > 0:
            raise ValueError(
                f"SLO target must be positive, got {self.target_s}"
            )

    @property
    def name(self) -> str:
        tier = "all" if self.tier is None else str(self.tier)
        pct = f"{self.percentile:g}"
        return f"{tier}:{self.metric}:p{pct}:{self.target_s * 1e3:g}ms"

    @property
    def error_budget(self) -> float:
        """Allowed violation fraction (``1 - pct/100``)."""
        return 1.0 - self.percentile / 100.0

    @classmethod
    def parse(cls, spec: str) -> "SLOObjective":
        """Parse a ``CLASS:METRIC:pPCT:TARGET_MS`` spec string."""
        parts = spec.split(":")
        if len(parts) != 4:
            raise ValueError(
                f"bad SLO spec {spec!r}: expected CLASS:METRIC:pPCT:"
                f"TARGET_MS, e.g. 0:ttft:p95:150 or all:e2e:p99:2000"
            )
        tier_part, metric, pct_part, target_part = parts
        if tier_part == "all":
            tier = None
        else:
            try:
                tier = int(tier_part)
            except ValueError:
                raise ValueError(
                    f"bad SLO traffic class {tier_part!r} in {spec!r}: "
                    f"expected a priority integer or 'all'"
                ) from None
        if not pct_part.startswith("p"):
            raise ValueError(
                f"bad SLO percentile {pct_part!r} in {spec!r}: "
                f"expected e.g. p95 or p99.9"
            )
        try:
            percentile = float(pct_part[1:])
            target_s = float(target_part) / 1e3
        except ValueError:
            raise ValueError(
                f"bad SLO spec {spec!r}: percentile and target must be "
                f"numbers (e.g. 0:ttft:p95:150)"
            ) from None
        return cls(
            metric=metric, percentile=percentile, target_s=target_s,
            tier=tier,
        )

    def eligible(self, sample: RequestSample) -> bool:
        return self.tier is None or sample.priority == self.tier


@dataclass(frozen=True)
class SLOPolicy:
    """A set of objectives plus the burn-rate window width."""

    objectives: Tuple[SLOObjective, ...]
    window_s: float = 0.1

    def __post_init__(self):
        if not self.objectives:
            raise ValueError("SLO policy needs at least one objective")
        if not self.window_s > 0:
            raise ValueError("SLO window must be positive")

    @classmethod
    def from_specs(
        cls, specs: Sequence[str], window_s: float = 0.1
    ) -> "SLOPolicy":
        return cls(
            objectives=tuple(SLOObjective.parse(s) for s in specs),
            window_s=window_s,
        )

    # ------------------------------------------------------------------
    def evaluate_records(self, records, makespan_s: float) -> "SLOReport":
        return self.evaluate_samples(samples_from_records(records),
                                     makespan_s)

    def evaluate_timelines(
        self, timelines: Dict[int, RequestTimeline], makespan_s: float
    ) -> "SLOReport":
        return self.evaluate_samples(samples_from_timelines(timelines),
                                     makespan_s)

    def evaluate_samples(
        self, samples: Sequence[RequestSample], makespan_s: float
    ) -> "SLOReport":
        results = [
            self._evaluate_objective(obj, samples)
            for obj in self.objectives
        ]
        return SLOReport(
            objectives=list(self.objectives),
            results=results,
            window_s=self.window_s,
            makespan_s=makespan_s,
        )

    def _evaluate_objective(
        self, obj: SLOObjective, samples: Sequence[RequestSample]
    ) -> dict:
        #: (arrival, violated) per sample the objective can judge: a
        #: failed request violates; a request with the metric defined
        #: is judged against the target; a finished request for which
        #: the metric is undefined (1-token TPOT) is out of scope.
        judged: List[Tuple[float, bool]] = []
        values: List[float] = []
        for sample in samples:
            if not obj.eligible(sample):
                continue
            if sample.failed:
                judged.append((sample.arrival_s, True))
                continue
            value = sample.value(obj.metric)
            if value is None:
                continue
            values.append(value)
            judged.append((sample.arrival_s, value > obj.target_s))
        n = len(judged)
        n_violations = sum(violated for _, violated in judged)
        measured = _percentile(values, obj.percentile)
        attained = None if math.isnan(measured) \
            else bool(measured <= obj.target_s)
        attainment = (n - n_violations) / n if n else float("nan")

        # Tumbling windows over arrival time: worst burn and how many
        # windows burned budget faster than allowed (> 1).
        windows: Dict[int, List[bool]] = {}
        for arrival, violated in judged:
            windows.setdefault(int(arrival // self.window_s), []).append(
                violated
            )
        budget = obj.error_budget
        worst_burn = float("nan")
        worst_window_start = None
        n_burning = 0
        for index in sorted(windows):
            outcomes = windows[index]
            rate = sum(outcomes) / len(outcomes)
            burn = (
                rate / budget if budget > 0
                else (math.inf if rate > 0 else 0.0)
            )
            if math.isnan(worst_burn) or burn > worst_burn:
                worst_burn = burn
                worst_window_start = index * self.window_s
            if burn > 1.0:
                n_burning += 1
        return {
            "objective": obj.name,
            "traffic_class": "all" if obj.tier is None else obj.tier,
            "metric": obj.metric,
            "percentile": obj.percentile,
            "target_s": obj.target_s,
            "n_samples": n,
            "n_violations": n_violations,
            "measured_s": _null_if_nan(measured),
            "attained": attained,
            "attainment": _null_if_nan(attainment),
            "error_budget": budget,
            "burn_rate_worst": _finite_or_none(worst_burn),
            "burn_window_start_s": worst_window_start,
            "n_windows": len(windows),
            "n_burning_windows": n_burning,
        }


def _finite_or_none(value: float) -> Optional[float]:
    """Strict-JSON guard: NaN *and* inf become null (json.dumps would
    otherwise emit the non-standard ``Infinity`` literal)."""
    return value if isinstance(value, float) and math.isfinite(value) \
        else (value if not isinstance(value, float) else None)


@dataclass
class SLOReport:
    """Attainment verdicts for one run under one policy."""

    objectives: List[SLOObjective]
    results: List[dict]
    window_s: float
    makespan_s: float

    @property
    def attained(self) -> Optional[bool]:
        """Whether every measurable objective met its target."""
        verdicts = [r["attained"] for r in self.results]
        if any(v is False for v in verdicts):
            return False
        if all(v is None for v in verdicts):
            return None
        return True

    def to_dict(self) -> dict:
        return {
            "window_s": self.window_s,
            "makespan_s": self.makespan_s,
            "attained": self.attained,
            "objectives": [dict(r) for r in self.results],
        }

    def table(self) -> Table:
        t = Table(
            title=(
                f"SLO attainment — {len(self.results)} objective(s), "
                f"{self.window_s * 1e3:g} ms windows"
            ),
            headers=["objective", "measured", "target", "attained",
                     "violations", "worst burn"],
        )
        for r in self.results:
            measured = r["measured_s"]
            burn = r["burn_rate_worst"]
            t.add_row(
                r["objective"],
                "n/a" if measured is None else f"{measured * 1e3:.2f} ms",
                f"{r['target_s'] * 1e3:g} ms",
                {True: "yes", False: "NO", None: "n/a"}[r["attained"]],
                f"{r['n_violations']}/{r['n_samples']}",
                (
                    "n/a" if burn is None and r["n_windows"] == 0
                    else "inf" if burn is None
                    else f"{burn:.2f}x"
                ),
            )
        verdict = self.attained
        t.add_note(
            "every objective attained" if verdict
            else "objective(s) MISSED" if verdict is False
            else "no measurable samples"
        )
        return t

    def render(self) -> str:
        return str(self.table())
