"""The deterministic fault injector (``repro.util.faults``).

The injector's whole value is *replayability*: a plan is a seed plus
per-site firing rules, and the same plan must reproduce the same firing
sequence byte-for-byte no matter what other sites are consulted in
between.  These tests pin that contract, the plan grammar, and the
process-wide activation plumbing (env var, override, scoped contexts).
"""

from __future__ import annotations

import pytest

from repro.util import faults
from repro.util.faults import (
    FaultInjector,
    FaultPlan,
    InjectedFault,
    SiteSpec,
    faults_suppressed,
    injected_faults,
)


# ----------------------------------------------------------------------
# Plan grammar
# ----------------------------------------------------------------------
def test_parse_full_grammar():
    plan = FaultPlan.parse(
        "seed=7,service.decide=0.25, cache.write=1.0/3 service.snapshot=1@120"
    )
    assert plan.seed == 7
    assert plan.sites["service.decide"] == SiteSpec(rate=0.25)
    assert plan.sites["cache.write"] == SiteSpec(rate=1.0, limit=3)
    assert plan.sites["service.snapshot"] == SiteSpec(rate=1.0, after=120)


def test_parse_roundtrips_through_describe():
    text = "seed=7,cache.write=1/3,service.snapshot=1@120,service.decide=0.25"
    plan = FaultPlan.parse(text)
    assert FaultPlan.parse(plan.describe()) == plan


def test_unknown_site_rejected():
    with pytest.raises(ValueError, match="unknown fault sites"):
        FaultPlan.parse("seed=1,service.decyde=0.5")


def test_retired_pool_site_is_an_unknown_site():
    """A stale plan naming a site of the retired process-pool rung — or
    the retired ``engine.step``, which crashed batch runs so they could be
    resumed from a checkpoint — must fail loudly, listing what is left,
    not parse and fire nothing."""
    with pytest.raises(ValueError, match="unknown fault sites") as excinfo:
        FaultPlan.parse("seed=1,worker.crash=0.1")
    assert len(faults.SITES) == 5
    assert all(site in str(excinfo.value) for site in faults.SITES)
    with pytest.raises(ValueError, match="unknown fault sites"):
        FaultPlan.parse("seed=1,engine.step=1@120")


@pytest.mark.parametrize("bad", ["service.decide", "service.decide=1.5", "service.decide=-0.1"])
def test_malformed_tokens_rejected(bad):
    with pytest.raises(ValueError):
        FaultPlan.parse(bad)


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def _firing_sequence(injector: FaultInjector, site: str, n: int) -> tuple[bool, ...]:
    # Parametric helper; every call site below passes a declared SITES literal.
    return tuple(injector.should_fire(site) for _ in range(n))  # simlint: skip=SIM010


def test_same_plan_same_firing_sequence():
    plan = FaultPlan.parse("seed=42,service.decide=0.3")
    a = _firing_sequence(FaultInjector(plan), "service.decide", 200)
    b = _firing_sequence(FaultInjector(plan), "service.decide", 200)
    assert a == b
    assert any(a) and not all(a)  # a 0.3 rate actually fires sometimes


def test_sites_draw_from_independent_streams():
    """Consulting one site must never shift when another site fires."""
    plan = FaultPlan.parse("seed=42,service.decide=0.3,cache.read=0.3")
    alone = _firing_sequence(FaultInjector(plan), "service.decide", 100)

    interleaved_injector = FaultInjector(plan)
    interleaved = []
    for _ in range(100):
        interleaved_injector.should_fire("cache.read")  # interleaved noise
        interleaved.append(interleaved_injector.should_fire("service.decide"))
    assert tuple(interleaved) == alone


def test_limit_caps_total_firings():
    injector = FaultInjector(FaultPlan.parse("seed=1,cache.write=1.0/3"))
    fired = _firing_sequence(injector, "cache.write", 10)
    assert fired == (True, True, True) + (False,) * 7
    assert injector.fired["cache.write"] == 3
    assert injector.checked["cache.write"] == 10


def test_after_suppresses_early_consultations():
    injector = FaultInjector(FaultPlan.parse("seed=1,service.snapshot=1@5"))
    assert _firing_sequence(injector, "service.snapshot", 7) == (False,) * 5 + (True, True)


def test_unlisted_site_never_fires():
    injector = FaultInjector(FaultPlan.parse("seed=1,cache.write=1.0"))
    assert not any(_firing_sequence(injector, "service.decide", 50))


def test_fire_raises_with_site_and_ordinal():
    injector = FaultInjector(FaultPlan.parse("seed=1,service.request=1.0"))
    with pytest.raises(InjectedFault) as excinfo:
        injector.fire("service.request")
    assert excinfo.value.site == "service.request"
    assert excinfo.value.ordinal == 1


# ----------------------------------------------------------------------
# Activation plumbing
# ----------------------------------------------------------------------
def test_module_level_defaults_to_no_faults():
    faults.reset_faults()
    assert faults.active_injector() is None or faults.plan_from_env() is not None
    with faults_suppressed():
        assert not faults.should_fire("service.decide")
        faults.fire("service.decide")  # must be a no-op


def test_env_var_activates_plan(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "seed=3,cache.read=1.0/1")
    faults.reset_faults()
    try:
        assert faults.should_fire("cache.read")
        assert not faults.should_fire("cache.read")  # limit spent
    finally:
        faults.reset_faults()


def test_set_fault_plan_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "seed=3,cache.read=1.0")
    faults.reset_faults()
    try:
        faults.set_fault_plan(None)  # explicit off beats the env
        assert not faults.should_fire("cache.read")
    finally:
        faults.reset_faults()


def test_injected_faults_context_scopes_and_restores():
    with injected_faults(FaultPlan.parse("seed=1,service.snapshot=1.0")) as injector:
        assert faults.should_fire("service.snapshot")
        assert injector.fired["service.snapshot"] == 1
        with faults_suppressed():
            assert not faults.should_fire("service.snapshot")
        assert faults.should_fire("service.snapshot")
    assert not faults.should_fire("service.snapshot")
