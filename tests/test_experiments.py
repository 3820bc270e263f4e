"""Each experiment module runs, reports, and shows the paper's shape."""

import inspect
import os

import pytest

from repro.experiments import (
    FAMILIES, fig6, fig7, fig8, fig9, fig10, fig11, fig12, fig13, mixed_rw,
    table1,
)
from repro.experiments.runner import main as runner_main

SCALE = "tiny"
EXAMPLE_SPEC = os.path.join(os.path.dirname(__file__), "..", "examples",
                            "specs", "mixed_rw_small.json")


def test_registry_covers_all_artifacts():
    assert set(FAMILIES) == {
        "table1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
        "fig12", "fig13", "mixed-rw",
    }


def test_registry_mirrors_family_registry():
    for name, family in FAMILIES.items():
        module = family.resolve()
        assert family.name == name
        assert callable(module.run)
        assert callable(module.report)
        # Sweep families take the run's whole config.
        params = inspect.signature(module.run).parameters
        assert ("config" in params) == family.sweep


def test_table1_all_match():
    results = table1.run(scale=SCALE)
    assert all(r["match"] for r in results.values())
    text = table1.report(results)
    assert "Q12" in text and "NO" not in text


def test_fig6_shapes_and_report():
    results = fig6.run(scale=SCALE)
    assert set(results) == {"Q3", "Q6", "Q12"}
    for qid, r in results.items():
        assert abs(sum(r["breakdown"].values()) - 1.0) < 1e-9
        assert abs(sum(r["mem_breakdown"].values()) - 1.0) < 1e-6
    assert results["Q6"]["mem_breakdown"]["Data"] > 0.6
    text = fig6.report(results)
    assert "Busy" in text and "Metadata" in text


def test_fig7_classification_totals():
    results = fig7.run(scale=SCALE)
    for qid, r in results.items():
        grid_total = sum(sum(t.values()) for t in r["l2"].values())
        grouped_total = sum(sum(v) for v in r["l2_grouped"].values())
        assert grid_total == grouped_total
        assert 0 < r["l1_miss_rate"] < 0.2
    assert "LockSLock" in fig7.report(results)


def test_fig8_normalization_and_monotone_data():
    results = fig8.run(scale=SCALE, queries=["Q6"], line_sizes=[32, 64, 128])
    norm = fig8.normalized(results, "l2")["Q6"]
    assert sum(norm[64].values()) == pytest.approx(100.0)
    assert norm[32]["Data"] > norm[64]["Data"] > norm[128]["Data"]
    assert "Figure 8" in fig8.report(results)


def test_fig9_best_line_size():
    results = fig9.run(scale=SCALE, queries=["Q6"], line_sizes=[32, 64, 256])
    assert fig9.best_line_size(results, "Q6") == 64
    assert "best = 64B" in fig9.report(results)


def test_fig10_data_flat():
    results = fig10.run(scale=SCALE, queries=["Q6"], multipliers=[1, 16])
    d = results["Q6"]
    assert d[16]["l2"]["Data"] == pytest.approx(d[1]["l2"]["Data"], rel=0.05)
    assert d[16]["l1"]["Priv"] < d[1]["l1"]["Priv"]
    assert "Figure 10" in fig10.report(results)


def test_fig11_speedup_from_pmem():
    results = fig11.run(scale=SCALE, queries=["Q6"], multipliers=[1, 16])
    r = results["Q6"]
    assert r[16]["exec_time"] <= r[1]["exec_time"]
    assert (r[1]["PMem"] - r[16]["PMem"]) > 0
    assert "Figure 11" in fig11.report(results)


def test_fig12_reuse_shapes():
    results = fig12.run(scale=SCALE)
    cold = results[("Q12", None)]["l2"]["Data"]
    warm_same = results[("Q12", "Q12")]["l2"]["Data"]
    warm_other = results[("Q12", "Q3")]["l2"]["Data"]
    assert warm_same < 0.2 * cold
    assert warm_other > 0.7 * cold
    assert "after Q12" in fig12.report(results)


def test_fig13_prefetch_shapes():
    results = fig13.run(scale=SCALE)
    assert results["Q6"]["speedup"] > 1.0
    assert results["Q12"]["speedup"] > 1.0
    assert results["Q3"]["speedup"] <= 1.01
    assert "Figure 13" in fig13.report(results)


def test_mixed_rw_family_reports_lock_and_coherence_columns():
    results = mixed_rw.run(scale=SCALE, update_fracs=[0.0, 0.5],
                           client_counts=[4], cpu_counts=[2])
    assert set(results) == {(0.0, 4, 2), (0.5, 4, 2)}
    for r in results.values():
        assert r["l2_misses"] > 0
        assert r["l2_coherence"] >= 0
        assert "lock_line_cohe" in r
    text = mixed_rw.report(results)
    assert "LockLine" in text and "Cohe%" in text


def test_mixed_rw_specs_validate_at_the_extremes():
    for frac in (0.0, 0.5, 1.0):
        spec = mixed_rw.make_mixed_rw_spec(frac, clients=4, cpus=2)
        assert spec.validate() is spec
    ops = {op for op, _w in
           mixed_rw.make_mixed_rw_spec(1.0, 4, 2).tenants[0].mix}
    assert ops == {"UF1", "UF2"}


def test_run_experiments_accepts_scenario_specs():
    from repro.core.run import RunConfig, run_experiments
    from repro.workload import load_spec

    spec = load_spec(EXAMPLE_SPEC)
    out = run_experiments(["table1", spec], RunConfig(scale=SCALE))
    assert [o["name"] for o in out["outcomes"]] == ["table1", spec.name]
    scenario = out["outcomes"][1]["results"]
    assert scenario["qid"].startswith("scn:")
    assert scenario["summary"]["exec_time"] > 0


def test_runner_cli_list(capsys):
    assert runner_main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fig13" in out


def test_runner_cli_executes_experiment(capsys):
    assert runner_main(["table1", "--scale", SCALE]) == 0
    out = capsys.readouterr().out
    assert "matches paper" in out


def test_runner_cli_rejects_unknown(capsys):
    assert runner_main(["nope"]) == 2


def test_runner_cli_scenario_flag(capsys):
    assert runner_main(["--scenario", EXAMPLE_SPEC, "--scale", SCALE]) == 0
    out = capsys.readouterr().out
    assert "mixed-rw-demo" in out
    assert "lock-line" in out


def test_runner_cli_rejects_invalid_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert runner_main(["--scenario", str(bad), "--scale", SCALE]) == 2
    assert "invalid scenario spec" in capsys.readouterr().err
