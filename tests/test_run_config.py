"""A passed RunConfig is the whole configuration of the call.

``run_experiments(names, config)`` and ``run_sweep(points, config=...)``
must run under the config they are handed -- its replay kernel, trace
store, strict-store mode and checkpoint directory -- whatever the process
default (:func:`repro.core.configure_run`) says.
"""

from dataclasses import replace

import pytest

from repro.core import (
    RunConfig, clear_caches, configure_run, current_run_config,
    run_experiments, run_sweep, supervisor_stats,
)
from repro.core.errors import PointFailure, TraceStoreError, TraceStoreWarning
from repro.core.faults import corrupt_file
from repro.core.ledger import Ledger, iter_records
from repro.core.tracestore import corruption_stats
from repro.experiments import fig8
from repro.experiments.families import line_size_points
from repro.memsim.batch import kernel_stats

SCALE = "tiny"


@pytest.fixture(autouse=True)
def _default_config():
    """Leave the process default at ``RunConfig()`` during each test."""
    saved = current_run_config()
    configure_run(RunConfig())
    yield
    configure_run(saved)
    clear_caches()


def _fig8(config):
    clear_caches()  # a cold point memo: every point simulates
    return run_experiments(["fig8"], config)["outcomes"][0]["results"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_experiments_runs_the_config_it_is_handed(tmp_path, jobs):
    store, ckpt = tmp_path / "traces", tmp_path / "ckpt"
    config = RunConfig(scale=SCALE, jobs=jobs, kernel="scalar",
                       trace_dir=str(store), checkpoint_dir=str(ckpt),
                       strict_store=True)
    n_points = len(fig8.QUERIES) * len(fig8.LINE_SIZES)
    before = kernel_stats()
    _fig8(config)
    after = kernel_stats()
    if jobs == 1:  # a worker counts its replays in its own process
        assert after["scalar_runs"] - before["scalar_runs"] == n_points
        for other in ("batched_runs", "horizon_runs"):
            assert after[other] == before[other], other
    traces = sorted(p.name for p in store.iterdir())
    assert len(traces) == 4 * len(fig8.QUERIES)
    with Ledger(ckpt) as ledger, open(ledger.path, "rb") as fh:
        assert len(ledger.completed) == n_points
        assert len(list(iter_records(fh.read()))) == n_points

    # One damaged entry stops the strict run, on whichever process reads it.
    corrupt_file(str(store / traces[0]), "flip")
    with pytest.raises((TraceStoreError, PointFailure)):
        _fig8(replace(config, checkpoint_dir=None))


def test_damaged_spool_entry_is_not_retried_on_another_worker(tmp_path):
    store = tmp_path / "traces"
    points = line_size_points(["Q12"], [32, 64])
    serial = RunConfig(scale=SCALE, trace_dir=str(store))
    expected = run_sweep(points, scale=SCALE, config=serial)
    corrupt_file(str(store / sorted(p.name for p in store.iterdir())[0]),
                 "flip")
    clear_caches()
    before, corrupt = supervisor_stats(), corruption_stats()["corrupt"]
    with pytest.warns(TraceStoreWarning):
        got = run_sweep(points, scale=SCALE,
                        config=replace(serial, jobs=2))
    moved = {k: v - before[k] for k, v in supervisor_stats().items()}
    assert got == expected
    # Each worker fails once on the damaged entry; the parent re-records.
    assert moved["retries"] == 0
    assert moved["fallbacks"] == len(points)
    assert corruption_stats()["corrupt"] > corrupt
