"""The autotuner's decision journal.

Every control decision -- observe, hold, plan, swap, rollback -- lands
here as one structured record, so a tuning run can be audited after
the fact: what the controller saw (the workload profile and the
measured window), what the planner predicted (the ranked candidates
with per-config p50/p99 estimates), what was done, and how the
prediction held up against the post-swap measurement.  The
predicted-vs-measured aggregation is the point: it validates the
calibrated cost model at serving scale, swap by swap.

Predicted latencies are analytic *model nanoseconds per lookup*
(index work on the modeled machine); measured latencies are *serving
milliseconds* (queueing + batching + Python dispatch on this host).
The two live in different regimes, so the journal compares them where
they are commensurable: the **improvement ratio**.  If the model says
the winner's p99 is 0.6x the incumbent's and the measured post-swap
p99 comes in at 0.7x the pre-swap window, the prediction erred by 0.1
-- that error, per swap, is what :meth:`DecisionJournal.
predicted_vs_measured` reports.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any

__all__ = ["DecisionJournal"]


class DecisionJournal:
    """Append-only record of every autotune decision."""

    #: Record kinds, for reference: ``idle`` (window too quiet to act),
    #: ``hold`` (no candidate beat the threshold), ``plan`` (dry-run:
    #: winner found, swap suppressed), ``verify_failed`` (built winner
    #: answered the probe set wrong; never swapped), ``swap``,
    #: ``rollback``, ``rollback_failed`` (the rollback's rebuild raised;
    #: the swap keeps serving).
    KINDS = ("idle", "hold", "plan", "verify_failed", "swap", "rollback",
             "rollback_failed")

    def __init__(self, maxlen: "int | None" = 4096,
                 clock=time.time) -> None:
        self._records: "list[dict[str, Any]]" = []
        self._maxlen = maxlen
        self._clock = clock
        self._seq = 0

    def record(self, kind: str, **fields: Any) -> "dict[str, Any]":
        """Append one decision record and return it (mutable: the
        controller attaches the post-swap measurement to ``swap``
        records one window later)."""
        if kind not in self.KINDS:
            raise ValueError(f"unknown journal kind {kind!r}; "
                             f"known: {self.KINDS}")
        entry = {"seq": self._seq, "kind": kind, "t": self._clock()}
        entry.update(fields)
        self._seq += 1
        self._records.append(entry)
        if self._maxlen is not None and len(self._records) > self._maxlen:
            del self._records[: len(self._records) - self._maxlen]
        return entry

    # -- views -----------------------------------------------------------

    @property
    def records(self) -> "list[dict[str, Any]]":
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def of_kind(self, kind: str) -> "list[dict[str, Any]]":
        return [r for r in self._records if r["kind"] == kind]

    @property
    def swaps(self) -> "list[dict[str, Any]]":
        return self.of_kind("swap")

    @property
    def rollbacks(self) -> "list[dict[str, Any]]":
        return self.of_kind("rollback")

    def predicted_vs_measured(self) -> "dict[str, Any]":
        """Per-swap prediction error, plus the aggregate bound.

        For every completed swap (one with a post-swap measurement
        attached), compares the *predicted* improvement ratio
        (winner's modeled p99 / incumbent's modeled p99) against the
        *measured* one (post-swap window p99 / pre-swap window p99).
        ``max_abs_error`` over those per-swap errors is the error
        bound the tune benchmark commits.
        """
        entries = []
        for rec in self.swaps:
            pred = rec.get("predicted_ratio")
            pre = rec.get("measured_pre_p99_ms")
            post = rec.get("measured_post_p99_ms")
            if pred is None or not pre or post is None:
                continue
            measured = float(post) / float(pre)
            entries.append({
                "seq": rec["seq"],
                "to": rec.get("to"),
                "predicted_ratio": round(float(pred), 4),
                "measured_ratio": round(measured, 4),
                "abs_error": round(abs(float(pred) - measured), 4),
                "direction_agrees": (float(pred) < 1.0) == (measured < 1.0),
            })
        return {
            "swaps_measured": len(entries),
            "entries": entries,
            "max_abs_error": max((e["abs_error"] for e in entries),
                                 default=0.0),
            "directions_agree": all(e["direction_agrees"]
                                    for e in entries),
        }

    def summary(self) -> "dict[str, Any]":
        counts = {k: 0 for k in self.KINDS}
        for rec in self._records:
            counts[rec["kind"]] += 1
        return {
            "records": len(self._records),
            "counts": counts,
            "predicted_vs_measured": self.predicted_vs_measured(),
        }

    # -- persistence -----------------------------------------------------

    def to_json(self) -> "dict[str, Any]":
        return {"summary": self.summary(), "records": self.records}

    def dump(self, path: "str | os.PathLike") -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")
