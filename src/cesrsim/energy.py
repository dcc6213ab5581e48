"""Per-interface radio energy accounting and energy-per-bit link costs.

Each interface is in exactly one of TX/RX/IDLE at any time (there is no
sleep state), and its energy is the sum of state power times state seconds.
A ledger credits time to the state an interface was in since its last
transition; the simulator keeps one per node for the long-range radio only,
and short-range seconds in flat accumulators.  It books each long-range
packet when the uplink accepts it, as one TX interval [start, end) after
which the radio is IDLE, so bookings may lie ahead of the simulation clock;
they only have to come in time order.  Routing costs are the TX power
divided by the achievable data rate, carried in J/Mb.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum


class InterfaceKind(IntEnum):
    SHORT_RANGE = 0
    LONG_RANGE = 1


class RadioState(IntEnum):
    TX = 0
    RX = 1
    IDLE = 2


# plain list indices of the ledger's TX and IDLE seconds
_TX = int(RadioState.TX)
_IDLE = int(RadioState.IDLE)


@dataclass(frozen=True)
class PowerProfile:
    """Power draw in watts for one interface in each radio state."""

    tx_w: float
    rx_w: float
    idle_w: float

    def __post_init__(self):
        if min(self.tx_w, self.rx_w, self.idle_w) < 0:
            raise ValueError("power values must be >= 0")

    def power(self, state: RadioState) -> float:
        return (self.tx_w, self.rx_w, self.idle_w)[state]


# Measured consumption for a WiFi-class short-range radio and a WiMAX-class
# long-range radio, W per state (TX / RX / IDLE).
DEFAULT_PROFILES: dict[InterfaceKind, PowerProfile] = {
    InterfaceKind.SHORT_RANGE: PowerProfile(0.890, 0.890, 0.256),
    InterfaceKind.LONG_RANGE: PowerProfile(2.409, 1.485, 0.660),
}


class TimeRegressionError(ValueError):
    """A ledger transition was requested before the previous one."""


def energy_per_bit(power_tx: float, rate_mbps: float) -> float:
    """Link cost in J/Mb: TX power divided by the achievable data rate.

    W / (Mb/s) == J/Mb, so no unit conversion is needed.
    """
    if rate_mbps <= 0:
        raise ValueError(f"rate must be positive, got {rate_mbps}")
    if power_tx < 0:
        raise ValueError(f"tx power must be >= 0, got {power_tx}")
    return power_tx / rate_mbps


def interface_energy(seconds: list[float], profile: PowerProfile) -> float:
    """Joules of one interface from its [TX, RX, IDLE] seconds."""
    tx, rx, idle = seconds
    return profile.tx_w * tx + profile.rx_w * rx + profile.idle_w * idle


class EnergyLedger:
    """Time-in-state accounting for one node's radio interfaces.

    Only the interfaces passed at construction exist in the ledger.  All
    of them start in IDLE at time 0.  ``seconds[iface]`` is the interface's
    [TX, RX, IDLE] list.
    """

    __slots__ = ("interfaces", "seconds", "_records")

    def __init__(self, interfaces: tuple[InterfaceKind, ...]):
        self.interfaces = tuple(interfaces)
        # one [seconds, current state, last transition] record per interface,
        # so a booking looks the interface up once
        self._records = {iface: [[0.0, 0.0, 0.0], _IDLE, 0.0] for iface in self.interfaces}
        self.seconds: dict[InterfaceKind, list[float]] = {
            iface: rec[0] for iface, rec in self._records.items()
        }

    def transition_state(self, iface: InterfaceKind, new_state: RadioState, now: float) -> None:
        """Credit elapsed time to the previous state, then switch.

        A transition to the current state is a no-op switch but still credits
        the elapsed time.
        """
        rec = self._records[iface]
        seconds, state, last = rec
        if now < last:
            raise TimeRegressionError(f"transition at {now} before last transition at {last}")
        seconds[state] += now - last
        rec[1] = new_state
        rec[2] = now

    def book(self, iface: InterfaceKind, start: float, end: float) -> None:
        """Credit the current state up to ``start`` and TX over [start, end),
        leaving the interface IDLE at ``end``: the same seconds, bit for bit,
        as a transition to TX at ``start`` and one to IDLE at ``end``."""
        rec = self._records[iface]
        seconds, state, last = rec
        if start < last or end < start:
            raise TimeRegressionError(
                f"booking [{start}, {end}) before last transition at {last} or ending before it starts")
        seconds[state] += start - last
        seconds[_TX] += end - start
        rec[1] = _IDLE
        rec[2] = end

    def close(self, now: float) -> None:
        """Credit all remaining time up to ``now``; the run is over."""
        for iface in self.interfaces:
            self.transition_state(iface, self._records[iface][1], now)
