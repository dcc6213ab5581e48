import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesrsim.energy import (
    DEFAULT_PROFILES,
    EnergyLedger,
    InterfaceKind,
    PowerProfile,
    RadioState,
    TimeRegressionError,
    energy_per_bit,
)

SR = InterfaceKind.SHORT_RANGE
LR = InterfaceKind.LONG_RANGE


def test_energy_per_bit_reference_values():
    # cost = TX watts / (Mb/s) = J/Mb, computed by hand:
    # 0.890 / 54  = 0.01648148...
    # 2.409 / 74  = 0.03255405...
    # 2.409 / 16  = 0.15056250
    assert energy_per_bit(0.890, 54.0) == pytest.approx(0.016481481481481482, abs=1e-15)
    assert energy_per_bit(2.409, 74.0) == pytest.approx(0.032554054054054054, abs=1e-15)
    assert energy_per_bit(2.409, 16.0) == pytest.approx(0.15056250, abs=1e-15)


def test_energy_per_bit_rejects_bad_inputs():
    with pytest.raises(ValueError):
        energy_per_bit(1.0, 0.0)
    with pytest.raises(ValueError):
        energy_per_bit(-1.0, 10.0)


def test_default_profiles_values():
    sr = DEFAULT_PROFILES[SR]
    lr = DEFAULT_PROFILES[LR]
    assert (sr.tx_w, sr.rx_w, sr.idle_w) == (0.890, 0.890, 0.256)
    assert (lr.tx_w, lr.rx_w, lr.idle_w) == (2.409, 1.485, 0.660)


def test_ledger_simple_accounting():
    led = EnergyLedger((SR, LR))
    led.transition_state(SR, RadioState.TX, 1.0)   # idle [0, 1)
    led.transition_state(SR, RadioState.RX, 3.0)   # tx [1, 3)
    led.transition_state(LR, RadioState.TX, 4.0)   # lr idle [0, 4)
    led.close(10.0)
    assert led.seconds[SR][RadioState.IDLE] == pytest.approx(1.0)
    assert led.seconds[SR][RadioState.TX] == pytest.approx(2.0)
    assert led.seconds[SR][RadioState.RX] == pytest.approx(7.0)
    assert led.seconds[LR][RadioState.IDLE] == pytest.approx(4.0)
    assert led.seconds[LR][RadioState.TX] == pytest.approx(6.0)
    # 1*0.256 + 2*0.890 + 7*0.890 + 4*0.660 + 6*2.409
    expected = 1 * 0.256 + 9 * 0.890 + 4 * 0.660 + 6 * 2.409
    energy = sum(led.interface_energy(i, DEFAULT_PROFILES[i]) for i in led.interfaces)
    assert energy == pytest.approx(expected, abs=1e-12)


def test_ledger_rejects_time_regression():
    led = EnergyLedger((LR,))
    led.transition_state(LR, RadioState.TX, 5.0)
    with pytest.raises(TimeRegressionError):
        led.transition_state(LR, RadioState.IDLE, 4.0)


def test_ledger_single_interface_has_no_other_entries():
    led = EnergyLedger((LR,))
    led.close(2.0)
    assert led.interfaces == (LR,)
    assert SR not in led.seconds
    assert led.interface_energy(LR, DEFAULT_PROFILES[LR]) == pytest.approx(2.0 * 0.660)


@settings(max_examples=80, deadline=None)
@given(
    times=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=25),
    states=st.lists(st.sampled_from(list(RadioState)), min_size=25, max_size=25),
    scale=st.floats(min_value=0.1, max_value=10.0),
)
def test_ledger_time_conservation_and_homogeneity(times, states, scale):
    # whatever the transition sequence, state seconds sum to the closing time,
    # and scaling all powers scales the energy linearly
    seq = sorted(times)
    led = EnergyLedger((SR,))
    for t, s in zip(seq, states):
        led.transition_state(SR, s, t)
    end = seq[-1] + 1.0
    led.close(end)
    assert sum(led.seconds[SR]) == pytest.approx(end, abs=1e-9)
    base = DEFAULT_PROFILES[SR]
    scaled = PowerProfile(base.tx_w * scale, base.rx_w * scale, base.idle_w * scale)
    e1 = led.interface_energy(SR, base)
    e2 = led.interface_energy(SR, scaled)
    assert e2 == pytest.approx(scale * e1, rel=1e-12)


def test_power_profile_rejects_negative():
    with pytest.raises(ValueError):
        PowerProfile(1.0, -0.1, 0.0)
