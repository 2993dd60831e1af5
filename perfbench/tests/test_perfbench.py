"""Self-tests of the benchmark, at a scale where every workload takes well
under a second per pass."""

import json
import os
import time

import numpy as np
import pytest

from perfbench import compare as compare_mod
from perfbench.build import ROOT
from perfbench.host import PROBE_SHARE, REFERENCE_UNITS_PER_S, HostProbe, keep_awake
from perfbench.layers import LAYERS, PER_LAYER
from perfbench.runner import END_TO_END, OutputCheck, _timed, latency_p99_us, run
from perfbench.spans import Tracer, layer_fractions, self_times
from perfbench.workloads import (
    WORKLOADS,
    BatchInputs,
    PassResult,
    check_feasible,
    schedule_digest,
)

TINY = 0.05
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(name, trace, seed=3):
    return run(name, seed, seconds=0.0, trace=trace, scale=TINY, verbose=False)


# ----------------------------------------------------------------------
# BENCHMARK.json and the code say the same thing
# ----------------------------------------------------------------------
def test_benchmark_json_lists_what_the_code_defines():
    # The driver refuses a file with any other key.
    assert sorted(BENCHMARK) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"
    ]
    assert BENCHMARK["command"] == ["python3", "-m", "perfbench"]
    assert BENCHMARK["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == PER_LAYER
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in BENCHMARK["end_to_end"]
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_emits_exactly_the_listed_metrics(name):
    untraced = _run(name, trace=False)
    assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] >= 1
    assert {k: v["unit"] for k, v in untraced["metrics"].items()} == dict(END_TO_END)
    assert all(v["value"] > 0 for v in untraced["metrics"].values())

    traced = _run(name, trace=True)
    assert traced["correct"]
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == {
        n: u for n, u, _ in PER_LAYER
    }
    fractions = [traced["metrics"][f"{layer}.self_frac"]["value"] for layer in LAYERS]
    assert sum(fractions) == pytest.approx(1.0, abs=0.02)
    assert (ROOT / "perfbench" / "out" / f"trace-{name}.json").is_file()


def test_bypassed_layers_read_zero():
    backfill = _run("batch_backfill", trace=True)["metrics"]
    assert backfill["search.calls"]["value"] == 0
    assert backfill["service.requests"]["value"] == 0
    assert backfill["backfill.decide_p50_us"]["value"] > 0
    replay = _run("service_replay", trace=True)["metrics"]
    assert replay["recovery.snapshots"]["value"] == 0
    assert replay["service.mode_search_frac"]["value"] == 1.0
    snapshot = _run("service_snapshot", trace=True)["metrics"]
    assert snapshot["recovery.snapshots"]["value"] > 0


# ----------------------------------------------------------------------
# The output check
# ----------------------------------------------------------------------
def test_tampered_start_time_fails_every_operation(monkeypatch):
    real = BatchInputs.run_pass

    def tampered(self, tracer=None, workdir=None):
        result = real(self, tracer, workdir)
        for label, jobs in result.jobs.items():
            jobs[0].start_time += 1.0
            result.digests[label] = schedule_digest(jobs, result.decisions)
        return result

    monkeypatch.setattr(BatchInputs, "run_pass", tampered)
    result = _run("batch_backfill", trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_a_run_with_failed_operations_exits_non_zero(monkeypatch, capsys):
    from perfbench import __main__ as cli
    from perfbench import runner

    def failing(name, seed, seconds, trace, **_):
        return {"correct": False, "attempted": 3, "failed": 1, "metrics": {}}

    monkeypatch.setattr(cli, "build_program", lambda: 0.0)
    monkeypatch.setattr(runner, "run", failing)
    assert cli.main(["--workload", "batch_backfill", "--seconds", "0"]) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["failed"] == 1


def test_digest_and_feasibility_see_a_moved_job():
    inputs = WORKLOADS["batch_backfill"].build(3, TINY)
    result = inputs.run_pass()
    label, jobs = next(iter(result.jobs.items()))
    trace = inputs.legs[0].trace
    assert check_feasible(jobs, trace) is None
    before = schedule_digest(jobs, result.decisions)
    jobs[0].start_time += 1.0
    assert schedule_digest(jobs, result.decisions) != before
    assert "runtime" in check_feasible(jobs, trace)


def test_a_pass_that_differs_from_the_first_is_counted_failed():
    inputs = WORKLOADS["batch_backfill"].build(3, TINY)
    check = OutputCheck()
    check.add(inputs.run_pass())
    other = inputs.run_pass()
    other.digests = {label: "0" * 64 for label in other.digests}
    check.add(other)
    assert (check.attempted, check.failed) == (2, 1)


def test_another_seed_is_another_schedule_and_still_checks_out():
    digests = {
        seed: WORKLOADS["batch_L1k"].build(seed, TINY).run_pass().digests
        for seed in (3, 4)
    }
    assert digests[3] != digests[4]


# ----------------------------------------------------------------------
# The host: speed probe and idle keeper
# ----------------------------------------------------------------------
def test_probe_takes_its_share_and_times_scale_with_the_speed_it_measured():
    probe = HostProbe()
    probe.start()
    deadline = time.perf_counter() + 0.05
    while time.perf_counter() < deadline:
        probe.sample()
    probe.stop()
    assert probe.units > 0
    # (a stall of the host inside a unit can only lengthen it)
    assert 0.5 * PROBE_SHARE * 0.05 < probe.seconds < 0.05

    # A host at half the reference speed: the pass would have taken half
    # as long at the reference speed, and answered twice as fast.
    probe.units, probe.seconds = int(REFERENCE_UNITS_PER_S * 0.5), 1.0
    result = PassResult(
        decisions=900, wall=10.0, latencies=[0.002] * 100, digests={}, jobs={},
        attempted=1, failed=0, probe=probe,
    )
    timed = _timed(result)
    assert timed["raw_decisions_per_s"] == pytest.approx(100.0)
    assert timed["decisions_per_s"] == pytest.approx(200.0)
    assert timed["latencies"] == pytest.approx([0.001] * 100)


def test_p99_is_over_each_operations_median_across_passes():
    # 200 operations of 1 ms; operations 0-3 are slow in every pass, and in
    # each pass the host stalls on six other operations.
    passes = []
    for number in range(5):
        latencies = np.full(200, 0.001)
        latencies[:4] = 0.010
        latencies[10 + 6 * number : 16 + 6 * number] = 0.050
        passes.append({"latencies": latencies})
    check = OutputCheck()
    assert latency_p99_us(passes, check) == pytest.approx(10_000.0)
    assert not check.rejected
    # A pass with another number of operations is not the same workload.
    passes.append({"latencies": np.full(199, 0.001)})
    latency_p99_us(passes, check)
    assert check.rejected


def test_keep_awake_leaves_no_process_behind():
    with keep_awake():
        pass
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def _span(tracer, name, start, end, parent=None):
    span = tracer.begin(name, parent)
    span.start, span.end = start, end
    return span


def test_self_time_subtracts_the_union_of_child_spans():
    tracer = Tracer()
    root = _span(tracer, "harness.pass", 0.0, 10.0)
    run_ = _span(tracer, "simulator.run", 1.0, 9.0, root)
    a = _span(tracer, "scheduler.decide", 2.0, 5.0, run_)
    _span(tracer, "search.search", 3.0, 4.0, a)
    # A child on another thread overlaps its sibling; covered once.
    _span(tracer, "scheduler.decide", 4.0, 7.0, run_)
    selfs = self_times(tracer.spans)
    assert selfs[root.id] == pytest.approx(2.0)
    assert selfs[run_.id] == pytest.approx(8.0 - 5.0)
    assert selfs[a.id] == pytest.approx(2.0)
    fractions = layer_fractions(tracer.spans)
    assert fractions["harness"] == pytest.approx(0.2)
    assert fractions["search"] == pytest.approx(0.1)


def test_fractions_sum_to_one_without_overlap():
    tracer = Tracer()
    root = _span(tracer, "harness.driver", 0.0, 4.0)
    request = _span(tracer, "service.request", 0.5, 3.5, root)
    handle = _span(tracer, "tenant.handle", 1.0, 3.0, request)
    _span(tracer, "executor.decide", 1.5, 2.5, handle)
    _span(tracer, "recovery.snapshot", 3.0, 3.25, request)
    assert sum(layer_fractions(tracer.spans).values()) == pytest.approx(1.0)


def test_nesting_is_per_thread_and_explicit_across_threads():
    tracer = Tracer()
    root = tracer.open("harness.pass", op=7)
    inner = tracer.open("simulator.run")
    tracer.close(inner)
    client = tracer.begin("service.request", parent=root)
    after = tracer.open("tenant.handle")  # begin() did not push `client`
    tracer.close(after)
    tracer.end(client)
    tracer.close(root)
    assert inner.parent == root.id and inner.op == 7
    assert after.parent == root.id
    assert client.parent == root.id


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _results(dps, failed=0):
    runs = []
    for workload in WORKLOADS:
        for seed, value in enumerate(dps):
            runs.append(
                {
                    "workload": workload,
                    "seed": seed,
                    "trace": False,
                    "correct": failed == 0,
                    "attempted": 10,
                    "failed": failed,
                    "metrics": {
                        "setup_s": {"value": 2.0, "unit": "s"},
                        "decisions_per_s": {"value": value, "unit": "1/s"},
                        "latency_p99_us": {"value": 300.0, "unit": "us"},
                        "peak_rss_mb": {"value": 50.0, "unit": "MB"},
                    },
                }
            )
    return {"run_seconds": 8, "seeds": list(range(len(dps))), "runs": runs}


STEADY = [1000.0 + i for i in range(10)]
#: The committed bounds follow the reference box's noise; these tests fix
#: their own so they say what `compare` does, not how noisy that box is.
BOUNDED = {
    **BENCHMARK,
    "end_to_end": [{**m, "bound": 0.10} for m in BENCHMARK["end_to_end"]],
}


def test_compare_passes_identical_inputs():
    rows, reasons = compare_mod.compare(_results(STEADY), _results(STEADY), BOUNDED)
    assert not reasons and {row["verdict"] for row in rows} == {"ok"}
    assert len(rows) == len(WORKLOADS) * len(END_TO_END)


def test_compare_flags_a_twenty_percent_shift():
    slower = [v * 0.8 for v in STEADY]
    rows, reasons = compare_mod.compare(_results(STEADY), _results(slower), BOUNDED)
    assert len(reasons) == len(WORKLOADS)
    flagged = {r["metric"] for r in rows if r["verdict"] == "REGRESSED"}
    assert flagged == {"decisions_per_s"}
    # The same shift the other way is an improvement, not a regression.
    _, reasons = compare_mod.compare(_results(slower), _results(STEADY), BOUNDED)
    assert not reasons


def test_compare_calls_a_wide_spread_unresolved_and_failures_regressions():
    noisy = [1000.0 * (1 + 0.5 * (i % 2)) for i in range(10)]
    rows, reasons = compare_mod.compare(_results(STEADY), _results(noisy), BOUNDED)
    assert not reasons
    assert {r["verdict"] for r in rows if r["metric"] == "decisions_per_s"} == {"unresolved"}
    _, reasons = compare_mod.compare(_results(STEADY), _results(STEADY, failed=1), BOUNDED)
    assert len(reasons) == len(WORKLOADS) and "failed operations rose" in reasons[0]


def test_compare_command_line(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(json.dumps(_results(STEADY)))
    b = tmp_path / "b.json"
    b.write_text(json.dumps(_results([v * 0.5 for v in STEADY])))
    assert compare_mod.main([str(a), str(a)]) == 0
    assert compare_mod.main([str(a), str(b)]) == 1
    assert "REGRESSED" in capsys.readouterr().out


def test_compare_refuses_sets_made_differently(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(json.dumps(_results(STEADY)))
    shorter = tmp_path / "shorter.json"
    shorter.write_text(json.dumps({**_results(STEADY), "run_seconds": 4}))
    fewer = tmp_path / "fewer.json"
    fewer.write_text(json.dumps(_results(STEADY[:5])))
    assert compare_mod.main([str(a), str(shorter)]) == 2
    assert compare_mod.main([str(a), str(fewer)]) == 2
    assert "NOT COMPARABLE" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
EXACT = (
    "workloads.jobs",
    "simulator.decisions",
    "search.calls",
    "search.nodes_visited",
    "scheduler.queue_len_max",
    "backfill.backfilled_starts",
    "service.requests",
    "recovery.snapshots",
    "recovery.replayed_requests",
    "metrics.avg_wait_h",
    "metrics.max_wait_h",
    "metrics.avg_bsld",
)


@pytest.mark.parametrize("name", ["batch_L1k", "batch_backfill", "service_snapshot"])
def test_same_seed_gives_identical_exact_counters_and_digests(name, tmp_path):
    first, second = (_run(name, trace=True)["metrics"] for _ in range(2))
    for key in EXACT:
        assert first[key]["value"] == second[key]["value"], key
    digests = [
        WORKLOADS[name].build(3, TINY).run_pass(workdir=tmp_path).digests
        for _ in range(2)
    ]
    assert digests[0] == digests[1]
