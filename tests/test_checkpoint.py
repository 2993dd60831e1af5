"""Checkpoint/resume for long simulations (``repro.simulator.checkpoint``).

The acceptance bar is the paper-reproduction one: a simulation that is
interrupted (by a real signal or an injected ``engine.step`` fault) and
resumed from its newest snapshot must finish **bit-identical** to the
uninterrupted run — same schedule, same metrics, same decision count.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import PolicyRun, resume_run, simulate
from repro.simulator.checkpoint import (
    CheckpointConfig,
    CorruptCheckpoint,
    latest_checkpoint,
    load_checkpoint,
    resume,
)
from repro.simulator.events import EventKind, EventQueue
from repro.util import faults
from repro.util.faults import FaultPlan, InjectedFault, injected_faults
from repro.workloads.synthetic import generate_month


def _workload():
    return generate_month("2003-07", seed=2005, scale=0.04)


def _policy():
    from repro.cli import parse_policy

    return parse_policy("dds/lxf/dynB", 200, True)


def run_signature(run: PolicyRun) -> tuple:
    """Everything observable about a run except wall-clock time."""
    return (
        run.workload_name,
        run.policy_name,
        run.offered_load,
        tuple(sorted(run.metrics.as_dict().items())),
        run.avg_queue_length,
        run.utilization,
        tuple((j.job_id, j.start_time, j.end_time) for j in run.jobs),
        tuple(sorted((k, v) for k, v in run.policy_stats.items())),
    )


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
def test_config_rejects_nonpositive_cadence(tmp_path):
    with pytest.raises(ValueError, match="every_decisions"):
        CheckpointConfig(directory=tmp_path, every_decisions=0)
    with pytest.raises(ValueError, match="keep"):
        CheckpointConfig(directory=tmp_path, keep=0)


# ----------------------------------------------------------------------
# Snapshot lifecycle
# ----------------------------------------------------------------------
def test_run_writes_and_rotates_snapshots(tmp_path):
    config = CheckpointConfig(directory=tmp_path, every_decisions=40, keep=2)
    simulate(_workload(), _policy(), checkpoint=config)
    snapshots = sorted(tmp_path.glob("ckpt-*.pkl"))
    assert len(snapshots) == 2  # rotation trimmed the older ones
    counts = [int(p.stem.split("-")[1]) for p in snapshots]
    assert counts == sorted(counts)
    assert all(c % 40 == 0 for c in counts)


def test_checkpointed_run_is_bit_identical_to_plain_run(tmp_path):
    plain = simulate(_workload(), _policy())
    config = CheckpointConfig(directory=tmp_path, every_decisions=32)
    checkpointed = simulate(_workload(), _policy(), checkpoint=config)
    assert run_signature(checkpointed) == run_signature(plain)


def test_latest_checkpoint_none_when_empty(tmp_path):
    assert latest_checkpoint(tmp_path) is None
    with pytest.raises(FileNotFoundError):
        resume(tmp_path)
    with pytest.raises(FileNotFoundError):
        resume_run(tmp_path)


# ----------------------------------------------------------------------
# Interrupt + resume differential
# ----------------------------------------------------------------------
def _interrupted_run(tmp_path, after: int):
    """Run until an injected engine crash at decision ``after`` + 1."""
    config = CheckpointConfig(directory=tmp_path, every_decisions=25)
    with injected_faults(FaultPlan.parse(f"seed=1,engine.step=1@{after}")):
        with pytest.raises(InjectedFault):
            simulate(_workload(), _policy(), checkpoint=config)


def test_interrupted_and_resumed_run_matches_clean_run(tmp_path):
    clean = simulate(_workload(), _policy())
    _interrupted_run(tmp_path, after=120)
    snapshot = latest_checkpoint(tmp_path)
    assert snapshot is not None
    assert 0 < snapshot.decision_count <= 120

    resumed = resume_run(tmp_path)
    assert run_signature(resumed) == run_signature(clean)


def test_resume_survives_a_corrupt_newest_snapshot(tmp_path):
    clean = simulate(_workload(), _policy())
    _interrupted_run(tmp_path, after=120)
    snapshots = sorted(tmp_path.glob("ckpt-*.pkl"))
    assert len(snapshots) >= 2
    # Tear the newest snapshot in half — the crash-during-save scenario.
    torn = snapshots[-1].read_bytes()
    snapshots[-1].write_bytes(torn[: len(torn) // 2])

    snapshot = latest_checkpoint(tmp_path)
    assert snapshot is not None  # fell back to the older snapshot
    resumed = resume_run(tmp_path)
    assert run_signature(resumed) == run_signature(clean)


def test_a_checkpoint_with_the_old_dataclass_events_is_unusable_not_a_crash(
    tmp_path, parent_format_events, caplog
):
    """``Event`` became a tuple; a heap pickled as dataclass instances
    cannot be rebuilt.  That is one more unusable snapshot — refused by
    ``load_checkpoint``, skipped with a warning by ``resume`` — never a
    ``TypeError`` out of the unpickler."""
    _interrupted_run(tmp_path, after=60)
    parent_format_events()  # back to the real class
    snapshots = sorted(tmp_path.glob("ckpt-*.pkl"))
    assert snapshots
    with pytest.raises(CorruptCheckpoint, match="unpicklable blob"):
        load_checkpoint(snapshots[-1])
    with caplog.at_level("WARNING"), pytest.raises(FileNotFoundError):
        resume(tmp_path)
    assert caplog.text.count("skipping unusable checkpoint") == len(snapshots)


def test_checkpoint_resume_under_compiled_engine_is_bit_identical(tmp_path):
    """The interrupt/resume differential holds with the compiled search
    kernel active: the engine choice rides inside the snapshot and the
    resumed run finishes exactly like the uninterrupted compiled run."""
    from repro.core.ckernel import have_compiled

    if not have_compiled():
        pytest.skip("compiled search kernel not built")

    def compiled_policy():
        policy = _policy()
        policy.searcher.engine = "compiled"
        return policy

    clean = simulate(_workload(), compiled_policy())
    config = CheckpointConfig(directory=tmp_path, every_decisions=25)
    with injected_faults(FaultPlan.parse("seed=1,engine.step=1@120")):
        with pytest.raises(InjectedFault):
            simulate(_workload(), compiled_policy(), checkpoint=config)

    resumed = resume_run(tmp_path)
    assert run_signature(resumed) == run_signature(clean)


def test_resumed_run_keeps_checkpointing(tmp_path):
    """A resumed run carries its config and keeps snapshotting forward."""
    _interrupted_run(tmp_path, after=120)
    before = {p.name for p in sorted(tmp_path.glob("ckpt-*.pkl"))}
    resume_run(tmp_path)
    after = {p.name for p in sorted(tmp_path.glob("ckpt-*.pkl"))}
    assert after and after != before


def test_resume_run_restores_envelope_metadata(tmp_path):
    _interrupted_run(tmp_path, after=120)
    resumed = resume_run(tmp_path)
    workload = _workload()
    assert resumed.workload_name == workload.name
    assert resumed.offered_load == workload.offered_load()


# ----------------------------------------------------------------------
# File-format validation
# ----------------------------------------------------------------------
def test_load_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "ckpt-000000000001.pkl"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CorruptCheckpoint, match="bad magic"):
        load_checkpoint(path)


def test_load_checkpoint_rejects_flipped_bytes(tmp_path):
    _interrupted_run(tmp_path, after=120)
    victim = sorted(tmp_path.glob("ckpt-*.pkl"))[-1]
    raw = bytearray(victim.read_bytes())
    raw[-1] ^= 0xFF
    victim.write_bytes(bytes(raw))
    with pytest.raises(CorruptCheckpoint, match="checksum mismatch"):
        load_checkpoint(victim)


def test_engine_step_site_is_consulted_once_per_decision():
    from repro.simulator.engine import Simulation

    workload = _workload()
    with injected_faults(FaultPlan.parse("seed=1")) as injector:
        sim = Simulation(
            workload.fresh_jobs(), _policy(), workload.cluster, window=workload.window
        )
        result = sim.run()
    assert injector.checked["engine.step"] == result.decision_count
    assert injector.fired["engine.step"] == 0
    assert not faults.should_fire("engine.step")


# ----------------------------------------------------------------------
# EventQueue snapshots (hypothesis): pickling preserves drain order and
# the tie-break sequence across the snapshot boundary.
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=40
    ),
    split=st.integers(min_value=0, max_value=40),
)
def test_event_queue_pickle_roundtrip_preserves_order(times, split):
    queue = EventQueue()
    for i, t in enumerate(times):
        queue.push(t, EventKind.ARRIVAL, payload=i)
    drained = [queue.pop() for _ in range(min(split, len(queue)))]

    clone: EventQueue = pickle.loads(pickle.dumps(queue))
    # Same remaining drain order...
    rest_a = [(e.time, e.seq, e.payload) for e in _drain(queue)]
    rest_b = [(e.time, e.seq, e.payload) for e in _drain(clone)]
    assert rest_a == rest_b
    # ... and pushes after the snapshot continue the tie-break sequence.
    seqs = {e.seq for e in drained} | {s for _, s, _ in rest_a}
    follow_up = clone.push(0.0, EventKind.FINISH)
    assert follow_up.seq == len(times)
    assert follow_up.seq not in seqs


def _drain(queue: EventQueue):
    while queue:
        yield queue.pop()
