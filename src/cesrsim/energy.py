"""Per-interface radio energy accounting and energy-per-bit link costs.

Each interface is in exactly one of TX/RX/IDLE at any time (there is no
sleep state).  A ledger credits wall-clock time to the state an interface
was in since its last transition; total energy is the sum of state power
times state time.  Routing costs are the TX power divided by the achievable
data rate, carried in J/Mb.
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


class EnergyLedger:
    """Time-in-state accounting for one node's radio interfaces.

    Only the interfaces passed at construction exist in the ledger; a
    single-interface (benchmark) node simply has no short-range entry.
    All interfaces start in IDLE at ``start_time``.
    """

    __slots__ = ("interfaces", "seconds", "current_state", "last_transition")

    def __init__(self, interfaces: tuple[InterfaceKind, ...], start_time: float = 0.0):
        self.interfaces = tuple(interfaces)
        self.seconds: dict[InterfaceKind, list[float]] = {
            iface: [0.0, 0.0, 0.0] for iface in self.interfaces
        }
        self.current_state: dict[InterfaceKind, RadioState] = {
            iface: RadioState.IDLE for iface in self.interfaces
        }
        self.last_transition: dict[InterfaceKind, float] = {
            iface: start_time for iface in self.interfaces
        }

    def transition_state(self, iface: InterfaceKind, new_state: RadioState, now: float) -> None:
        """Credit elapsed time to the previous state, then switch.

        A transition to the current state is a no-op switch but still credits
        the elapsed time.
        """
        last = self.last_transition[iface]
        if now < last:
            raise TimeRegressionError(f"transition at {now} before last transition at {last}")
        self.seconds[iface][self.current_state[iface]] += now - last
        self.last_transition[iface] = now
        self.current_state[iface] = new_state

    def close(self, now: float) -> None:
        """Credit all remaining time up to ``now``; the run is over."""
        for iface in self.interfaces:
            self.transition_state(iface, self.current_state[iface], now)

    def interface_energy(self, iface: InterfaceKind, profile: PowerProfile) -> float:
        secs = self.seconds[iface]
        return profile.tx_w * secs[RadioState.TX] + profile.rx_w * secs[RadioState.RX] + profile.idle_w * secs[RadioState.IDLE]
