"""Characterization core: runs DSS workloads through the simulated machine.

This is the paper's experimental apparatus (section 4.3): one query per
simulated processor, statistics recorded for the complete execution stage,
misses and stall time attributed to the software data structures they land
on.

This package is the stable API surface: library callers import from
``repro.core`` (everything in ``__all__``), not from the submodules, whose
internals may move.  The run-level entry points are :class:`RunConfig`
(one frozen config object for a whole run), :func:`configure_run` (apply
it process-wide), and :func:`run_experiments` (the library face of the
``repro-experiments`` CLI); :class:`~repro.obs.metrics.MetricsRegistry`
re-exports the observability layer's metric store.
"""

from repro.obs.metrics import MetricsRegistry
from repro.core.experiment import (
    WorkloadResult,
    clear_caches,
    run_mixed_workload,
    run_query_workload,
    run_warm_workload,
    set_trace_dir,
    trace_cache_stats,
    workload_database,
    workload_trace_cache,
)
from repro.core.backend import fabric_stats
from repro.core.errors import (
    InvalidPointResult,
    LeaseExpired,
    LedgerError,
    PointFailure,
    PointTimeout,
    RemoteWorkerError,
    ReproError,
    SweepError,
    TraceStoreError,
    TraceStoreWarning,
    WorkerError,
    WorkerProtocolError,
    is_retryable,
)
from repro.core.ledger import Ledger
from repro.core.report import format_table, percent
from repro.core.locality import LocalityReport, analyze, analyze_query
from repro.core.run import (
    RunConfig,
    build_run_report,
    configure_run,
    current_run_config,
    run_experiments,
)
from repro.core.sweep import (
    SweepPoint, run_sweep, summarize, supervisor_stats,
)
from repro.core.tracecache import QueryTrace, TraceCache

__all__ = [
    "RunConfig",
    "build_run_report",
    "configure_run",
    "current_run_config",
    "run_experiments",
    "MetricsRegistry",
    "Ledger",
    "fabric_stats",
    "InvalidPointResult",
    "LeaseExpired",
    "LedgerError",
    "PointFailure",
    "PointTimeout",
    "RemoteWorkerError",
    "ReproError",
    "SweepError",
    "TraceStoreError",
    "TraceStoreWarning",
    "WorkerError",
    "WorkerProtocolError",
    "is_retryable",
    "supervisor_stats",
    "LocalityReport",
    "analyze",
    "analyze_query",
    "WorkloadResult",
    "clear_caches",
    "run_mixed_workload",
    "run_query_workload",
    "run_warm_workload",
    "set_trace_dir",
    "trace_cache_stats",
    "workload_database",
    "workload_trace_cache",
    "QueryTrace",
    "TraceCache",
    "SweepPoint",
    "run_sweep",
    "summarize",
    "format_table",
    "percent",
]
