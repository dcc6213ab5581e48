from dataclasses import replace

import pytest

from cesrsim.config import Mode, SimConfig
from cesrsim.metrics import (
    MismatchedRunSetError,
    ZeroDeliveryError,
    energy_efficiency,
    gain,
)
from cesrsim.scenario import Area, generate_scenario
from cesrsim.simcore import RunStats, run


def _stats(run_index=0, seed=1, mode="benchmark", energy=100.0, mbits=50.0,
           duration=10.0):
    # minimal hand-built single-node run record
    return RunStats(
        run_index=run_index,
        mode=mode,
        duration=duration,
        scenario_seed=seed,
        classes=["A"],
        generated=[10],
        delivered_pkts=[10],
        delivered_mbits=[mbits],
        dropped_queue=[0],
        dropped_hops=[0],
        dropped_link=[0],
        relayed=[0],
        hops_sum=[0],
        in_flight=[0],
        iface_seconds=[{}],
        iface_energy=[{0: energy}],
    )


def test_efficiency_is_mean_of_per_run_ratios():
    # run ratios 2.0 and 4.0 J/Mb: the report averages ratios, not totals
    rep = energy_efficiency([
        _stats(run_index=0, energy=100.0, mbits=50.0),
        _stats(run_index=1, energy=100.0, mbits=25.0),
    ])
    assert rep.eb_per_mb == pytest.approx(3.0)
    assert rep.runs == 2
    assert rep.goodput_mbps == pytest.approx((5.0 + 2.5) / 2)
    assert [d.eb_per_mb for d in rep.per_run] == [2.0, 4.0]


def test_zero_delivery_raises():
    with pytest.raises(ZeroDeliveryError):
        energy_efficiency([_stats(mbits=0.0)])


def test_empty_run_set_raises():
    with pytest.raises(ValueError):
        energy_efficiency([])


def test_gain_formula():
    bmk = energy_efficiency([_stats(energy=100.0, mbits=50.0)])        # 2 J/Mb
    coop = energy_efficiency([_stats(mode="cooperative", energy=50.0, mbits=50.0)])
    assert gain(bmk, coop) == pytest.approx(0.5)
    # negative when cooperation costs more per bit
    worse = energy_efficiency([_stats(mode="cooperative", energy=300.0, mbits=50.0)])
    assert gain(bmk, worse) == pytest.approx(-2.0)


def test_gain_requires_paired_runs():
    bmk = energy_efficiency([_stats(seed=1)])
    coop = energy_efficiency([_stats(seed=2, mode="cooperative")])
    with pytest.raises(MismatchedRunSetError):
        gain(bmk, coop)
    coop2 = energy_efficiency([_stats(run_index=1, mode="cooperative")])
    with pytest.raises(MismatchedRunSetError):
        gain(bmk, coop2)


def test_end_to_end_paired_gain():
    sc = generate_scenario(Area(60, 20), 10, 2, 20.0, seed=8)
    cfg = SimConfig(duration=5.0, runs=2, cbr_rate=1000.0)
    bmk = [run(replace(cfg, mode=Mode.BENCHMARK), sc, i) for i in range(2)]
    coop = [run(replace(cfg, mode=Mode.COOPERATIVE), sc, i) for i in range(2)]
    bmk_rep, coop_rep = energy_efficiency(bmk), energy_efficiency(coop)
    assert (bmk_rep.mode, coop_rep.mode) == ("benchmark", "cooperative")
    assert -5.0 < gain(bmk_rep, coop_rep) < 1.0
