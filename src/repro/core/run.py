"""The unified run API: one frozen config object, one experiment driver.

Every run-level knob lives on one frozen dataclass, :class:`RunConfig`,
built once (by the CLI, or by a library caller) and passed whole through
runner -> sweep -> supervisor:

    >>> from repro.core import RunConfig, run_experiments, configure_run
    >>> cfg = RunConfig(scale="small", jobs=4, report_out="run.json")
    >>> configure_run(cfg)
    >>> outcome = run_experiments(["fig8", "fig9"], cfg)

:func:`configure_run` stores the config as the process default that
:func:`repro.core.sweep.run_sweep` falls back to when it is not handed one.
The trace directory, strict-store mode and replay kernel also have setters
of their own (``set_trace_dir`` and friends), so those three are read back
from their stores: :func:`current_run_config` is always what a sweep
started now would run under.
"""

import time
from dataclasses import asdict, dataclass, replace
from typing import Optional

from repro.obs import enable as _obs_enable
from repro.obs import events as _events
from repro.obs.spans import span


@dataclass(frozen=True)
class RunConfig:
    """Everything a run of the experiment harness can be told once.

    Frozen: derive variants with :meth:`with_options` (or
    ``dataclasses.replace``), never by mutation -- a config handed to a
    sweep is immutable for the sweep's lifetime.

    ``scale``/``jobs`` select the workload sizing and worker processes;
    ``trace_dir`` the persistent trace store; ``checkpoint_dir``,
    ``point_timeout``, ``retries``, ``backoff`` tune the supervised
    executor; ``strict_store`` makes damaged store entries fatal;
    ``report_out`` and ``progress`` drive the observability layer
    (:mod:`repro.obs`); ``kernel`` picks the replay dispatch engine
    (``auto``/``batched``/``horizon``/``scalar``; see
    :mod:`repro.memsim.batch` and :mod:`repro.memsim.horizon`).

    A sweep with more than one memo miss fans out over
    ``repro-sweep-worker`` subprocesses (:mod:`repro.core.backend`), as
    many as ``jobs`` and never more than the points; a width of one runs
    in-process.  ``backend`` and ``workers`` are ignored, kept so older
    callers keep working: ``backend`` is only validated (``auto``,
    ``inproc``, ``pool`` and ``workers`` are accepted; any other name
    raises ``ValueError``).
    ``lease_ttl`` is the heartbeat silence, in seconds, after which a
    sweep worker holding a point is killed and the point requeued.
    """

    scale: str = "small"
    jobs: int = 1
    trace_dir: Optional[str] = None
    checkpoint_dir: Optional[str] = None
    point_timeout: Optional[float] = None
    retries: int = 2
    backoff: float = 0.05
    strict_store: bool = False
    report_out: Optional[str] = None
    progress: bool = False
    kernel: str = "auto"
    backend: str = "auto"
    workers: int = 0
    lease_ttl: float = 30.0

    def as_dict(self):
        """Plain-dict view (the run report embeds this under ``config``)."""
        return asdict(self)

    def with_options(self, **changes):
        """A copy with ``changes`` applied (frozen-dataclass ``replace``)."""
        return replace(self, **changes)


#: The last config applied by :func:`configure_run`.
_CURRENT = RunConfig()


def configure_run(config):
    """Apply ``config`` to the process: the one call the CLI makes.

    Stores it as the process default for sweeps, sets the persistent-trace
    directory, strict-store mode and replay kernel, and switches the
    observability layer on when the config asks for a report or live
    progress.  Library callers that want per-call behaviour instead pass a
    config directly to :func:`repro.core.sweep.run_sweep`.
    """
    global _CURRENT
    from repro.core import tracestore
    from repro.core.experiment import set_trace_dir
    from repro.memsim.batch import set_default_kernel

    _CURRENT = config
    set_trace_dir(config.trace_dir)
    tracestore.set_strict(config.strict_store)
    set_default_kernel(config.kernel)
    if config.report_out or config.progress:
        _obs_enable()
    return config


def current_run_config(**overrides):
    """The process's effective :class:`RunConfig`: the one
    :func:`configure_run` stored, with the trace directory, strict-store
    mode and kernel read back from their own stores (so direct
    ``set_trace_dir`` calls are reflected) and ``overrides`` applied."""
    from repro.core import tracestore
    from repro.core.experiment import get_trace_dir
    from repro.memsim.batch import default_kernel

    return replace(_CURRENT, trace_dir=get_trace_dir(),
                   strict_store=tracestore.get_strict(),
                   kernel=default_kernel(), **overrides)


def run_experiments(names, config=None, on_result=None):
    """Run the named experiments under one config; the library face of the
    ``repro-experiments`` CLI.

    ``names`` mixes family names (keys of
    :data:`repro.experiments.families.FAMILIES`) with
    :class:`~repro.workload.spec.ScenarioSpec` instances -- a spec runs as
    an ad hoc single-scenario experiment named after itself, its results
    being the :func:`repro.workload.run_scenario` dict.

    Returns ``{"outcomes": [{"name", "results", "seconds"}, ...],
    "interrupted": bool}``.  A ``KeyboardInterrupt`` mid-run keeps the
    completed outcomes and sets ``interrupted`` (completed sweep points
    are already durable when a checkpoint directory is configured).
    ``on_result(name, results, seconds)`` is called as each experiment
    finishes, so callers can render incrementally.
    """
    from repro.experiments.families import FAMILIES, run_family
    from repro.workload import run_scenario
    from repro.workload.spec import ScenarioSpec

    config = config or current_run_config()
    unknown = [n for n in names
               if not isinstance(n, ScenarioSpec) and n not in FAMILIES]
    if unknown:
        raise ValueError(f"unknown experiments: {unknown}")

    outcomes = []
    interrupted = False
    try:
        for entry in names:
            if isinstance(entry, ScenarioSpec):
                name = entry.name
                runner = lambda e=entry: run_scenario(
                    e, scale=config.scale, jobs=config.jobs, config=config)
            else:
                name = entry
                runner = lambda n=entry: run_family(n, config)
            _events.emit("experiment.start", name=name)
            start = time.monotonic()
            with span("experiment", name=name, scale=config.scale):
                results = runner()
            elapsed = time.monotonic() - start
            _events.emit("experiment.end", name=name, seconds=elapsed)
            outcomes.append({"name": name, "results": results,
                             "seconds": elapsed})
            if on_result is not None:
                on_result(name, results, elapsed)
    except KeyboardInterrupt:
        interrupted = True
    return {"outcomes": outcomes, "interrupted": interrupted}


def build_run_report(config=None, outcomes=(), interrupted=False):
    """Assemble the structured run report for one :func:`run_experiments`
    outcome from the live observability state (metrics registry, span
    tree, recorded events)."""
    from repro.obs import build_report, events, registry, tracer

    return build_report(
        config=config or current_run_config(),
        experiments=[(o["name"], o["results"], o["seconds"])
                     for o in outcomes],
        metrics=registry(),
        spans=tracer().tree(),
        events=events.recorded(),
        interrupted=interrupted,
    )
