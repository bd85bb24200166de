"""Tests of the benchmark itself: seeded inputs, oracle controls, tracing.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from eczcs import Verdict, Violation, load_fixture_family, verify  # noqa: E402


def _shape(item):
    return {k: v for k, v in item.items() if k not in ("parts", "eta", "mc_seed", "rng_seed")}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_deterministic_and_seed_only_moves_free_choices(workload):
    first = workloads.make_items(workload, 11)
    assert first == workloads.make_items(workload, 11)
    other = workloads.make_items(workload, 12)
    assert [_shape(i) for i in first] == [_shape(i) for i in other]
    assert first != other


def _runner(tmp_path, workload, keep):
    runner = run.Runner(workload, 5, tmp_path)
    runner.items = [it for it in runner.items if keep(it)]
    return runner


def _run(runner, passes=1):
    for _ in range(passes):
        runner.run_pass()
    runner.check_first_pass()
    return len(runner.failures) / runner.attempted


def _small_sweep(item):
    return item["m"] == 3 and len(item["parts"]) <= 2


def _cheap_zone(item):
    return item["kind"] == "fixture"


def _cheap_gsm(item):
    return item["kind"] == "cli" or (item.get("nt") == 4 and item["source"] in ("fixture", "zadoff-chu"))


@pytest.mark.parametrize(
    "workload, keep",
    [("theorem-sweep", _small_sweep), ("zone-scan", _cheap_zone), ("gsm-estimation", _cheap_gsm)],
)
def test_clean_outputs_pass_the_oracle(tmp_path, workload, keep):
    runner = _runner(tmp_path, workload, keep)
    assert _run(runner, passes=2) == 0, runner.failures
    assert runner.attempted == 2 * len(runner.items)


def test_negative_control_corrupted_family(tmp_path, monkeypatch):
    build = workloads.gbf.theorem3_construct

    def corrupted(*args, **kwargs):
        fam = build(*args, **kwargs)
        rows = [[list(s.phases) for s in st.members] for st in fam.sets]
        rows[0][0][-1] = (rows[0][0][-1] + 1) % fam.q
        return workloads.sequences.family_from_lists(fam.q, rows)

    monkeypatch.setattr(workloads.gbf, "theorem3_construct", corrupted)
    runner = _runner(tmp_path, "theorem-sweep", _small_sweep)
    assert _run(runner) > 0


def test_negative_control_forced_wrong_verdict(tmp_path, monkeypatch):
    def wrong(fam, width):
        return Verdict((Violation("cross-channel", (0, 0), fam.length - 1, 1.0),))

    monkeypatch.setattr(workloads.verify, "check_eczcs", wrong)
    runner = _runner(tmp_path, "theorem-sweep", _small_sweep)
    assert _run(runner) > 0


def test_negative_control_wrong_width(tmp_path, monkeypatch):
    measure = workloads.verify.measure_zcz_width
    monkeypatch.setattr(workloads.verify, "measure_zcz_width", lambda fam: measure(fam) + 1)
    runner = _runner(tmp_path, "zone-scan", _cheap_zone)
    assert _run(runner) > 0


def test_negative_control_biased_monte_carlo(tmp_path, monkeypatch):
    simulate = workloads.simulate.monte_carlo_mse

    def biased(tm, cfg):
        report = simulate(tm, cfg)
        points = tuple(
            p.__class__(**{**p.__dict__, "empirical_mse": 1.2 * p.empirical_mse}) for p in report.points
        )
        return report.__class__(points)

    monkeypatch.setattr(workloads.simulate, "monte_carlo_mse", biased)
    runner = _runner(tmp_path, "gsm-estimation", lambda it: it["kind"] == "matrix" and it["nt"] == 4
                     and it["source"] == "fixture")
    assert _run(runner) > 0


def test_negative_control_failing_cli_step(tmp_path, monkeypatch):
    argv = workloads.cli_argv

    def bad_z(workdir):
        steps = argv(workdir)
        steps["verify"][steps["verify"].index("--Z") + 1] = "10"
        return steps

    monkeypatch.setattr(workloads, "cli_argv", bad_z)
    runner = _runner(tmp_path, "gsm-estimation", lambda it: it["kind"] == "cli")
    assert _run(runner) > 0


def test_float_oracle_matches_exact_verdicts():
    table4 = load_fixture_family("eczcs_2x2x24")
    assert oracle.float_eczcs(table4, 9) == {}
    assert oracle.compare_verdict("w10", verify.check_eczcs(table4, 10), oracle.float_eczcs(table4, 10)) == []
    assert oracle.float_eczcs(table4, 10)


def test_tracer_counts_repeat_and_uninstall_restores(tmp_path):
    runner = _runner(tmp_path, "zone-scan", lambda it: it.get("name") == "eczcs_2x2x24")
    original = verify.check_eczcs
    tracer = tracing.Tracer()
    tracer.install()
    assert verify.check_eczcs is not original
    segments = []
    for _ in range(2):
        lo = tracer.size()
        tracer.counts.clear()
        runner.run_pass(tracer)
        segments.append(tracer.segment_metrics(lo, tracer.size(), tracer.counts))
    tracer.uninstall()
    assert verify.check_eczcs is original
    counts = [tracing.work_counts(s) for s in segments]
    assert counts[0] == counts[1]
    # width 9 of a length-24 family: the scan checks widths 24 down to 9
    assert counts[0]["verify.width_scan_checks"] == 16
    assert counts[0]["correlation.table_calls"] > 0
    metrics = tracing.combine(segments[0], segments[1:])
    shares = sum(metrics[f"{layer}.self_share"] for layer in tracing.LAYERS)
    assert shares == pytest.approx(1.0)
