"""Async index-serving subsystem: micro-batching, backpressure, metrics.

Everything built before this package runs offline under a benchmark
driver; this package turns the same indexes and workload generators
into a live serving system, the setting SOSD (arXiv:1911.13014) and
*Benchmarking Learned Indexes* (arXiv:2006.12804) argue index quality
must ultimately be judged in.  Four pieces:

* :mod:`repro.serve.batcher` -- a **dynamic micro-batcher** that
  coalesces concurrent ``lookup``/``range`` requests into one
  ``lookup_batch``/``range_query_batch`` call when either a max batch
  size or a max-wait deadline is reached (the continuous-batching shape
  inference servers use);
* :mod:`repro.serve.server` -- :class:`IndexServer`: admission control
  over a bounded queue (load shedding or blocking backpressure),
  per-request deadlines answered with *timeout* responses, atomic
  **snapshot hot-swap** of the served index under live traffic, and
  graceful drain on shutdown;
* :mod:`repro.serve.metrics` -- counters and log-binned latency /
  batch-size / queue-depth histograms with p50/p95/p99, exported as
  JSON and as a periodic log line;
* :mod:`repro.serve.loadgen` -- an **open-loop load generator** that
  replays :mod:`repro.workload.generator` key streams at a target QPS
  with Poisson arrivals (open-loop, so queueing delay shows up in the
  measured tail instead of being hidden by client back-off).

``python -m repro.serve`` exposes ``serve``, ``bench``, and ``swap``
subcommands; ``bench`` produces the committed ``BENCH_serve.json``.
"""

from .batcher import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_TIMEOUT,
    MicroBatcher,
    Request,
    Response,
)
from .cluster import Cluster, WorkerOptions, WorkerSpec
from .loadgen import (
    run_batch_closed_loop,
    run_mixed_closed_loop,
    run_open_loop,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    ServeMetrics,
    rollup_states,
    window_between,
)
from .router import (
    LocalBackend,
    ShardDeadError,
    ShardPlan,
    ShardRouter,
    plan_shards,
)
from .server import IndexServer

__all__ = [
    "Cluster",
    "Counter",
    "Gauge",
    "Histogram",
    "IndexServer",
    "LocalBackend",
    "MicroBatcher",
    "Request",
    "Response",
    "ServeMetrics",
    "ShardDeadError",
    "ShardPlan",
    "ShardRouter",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_REJECTED",
    "STATUS_TIMEOUT",
    "WorkerOptions",
    "WorkerSpec",
    "plan_shards",
    "rollup_states",
    "run_batch_closed_loop",
    "run_mixed_closed_loop",
    "run_open_loop",
    "window_between",
]
