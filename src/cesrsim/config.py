"""Run configuration: the experiment contract, loadable from strict YAML."""

from __future__ import annotations

import io
import math
import re
import sys
from dataclasses import dataclass, field, fields
from enum import Enum

import yaml

from .energy import DEFAULT_PROFILES, InterfaceKind, PowerProfile
from .mobility import MobilityParams
from .scenario import RateProfile, is_finite_number, read_text


class ConfigError(ValueError):
    """Invalid or unknown configuration key/value."""


class Mode(Enum):
    BENCHMARK = "benchmark"
    COOPERATIVE = "cooperative"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# SimConfig field -> (type check, what the error message asks for)
_FIELD_TYPES = {
    **dict.fromkeys(
        ("runs", "packet_size", "beacon_size", "hop_budget",
         "uplink_queue_cap_per_node", "sr_queue_cap", "master_seed"),
        (_is_int, "an integer"),
    ),
    **dict.fromkeys(
        ("duration", "beacon_period", "table_timeout", "cbr_rate", "tx_range",
         "cs_range_factor", "contention_slot"),
        (is_finite_number, "a finite number"),
    ),
    **dict.fromkeys(
        ("class_a_generates", "beacon_energy_counted"),
        (lambda value: isinstance(value, bool), "true or false"),
    ),
}


@dataclass(frozen=True)
class SimConfig:
    duration: float = 100.0            # seconds per run
    runs: int = 10
    beacon_period: float = 5.0         # seconds
    table_timeout: float | None = None  # default 3 * beacon_period
    cbr_rate: float = 3000.0           # packets/s per source
    packet_size: int = 1024            # bytes
    beacon_size: int = 64              # bytes
    tx_range: float = 20.0             # meters; sweep generates with it, run reads the scenario's
    # carrier-sense range as a multiple of tx_range; transmissions block the
    # medium (and hold sensing radios in RX) out to this range but are only
    # decodable within tx_range
    cs_range_factor: float = 6.0
    # deterministic CSMA contention cost: every medium acquisition extends
    # the frame occupancy by one slot per node currently deferring, standing
    # in for expected backoff and collision overhead
    contention_slot: float = 9e-6
    mode: Mode = Mode.COOPERATIVE
    hop_budget: int | None = None      # default 4 * n_nodes
    uplink_queue_cap_per_node: int = 50
    sr_queue_cap: int = 50
    class_a_generates: bool = True
    beacon_energy_counted: bool = True
    mobility: MobilityParams | None = None
    master_seed: int = 1
    rates: RateProfile = field(default_factory=RateProfile)
    power_profiles: dict[InterfaceKind, PowerProfile] = field(
        default_factory=lambda: dict(DEFAULT_PROFILES)
    )

    def __post_init__(self):
        for name, (ok, what) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not ok(value) and not (value is None and name in ("hop_budget", "table_timeout")):
                raise ConfigError(f"{name} must be {what}, got {value!r}")
        if self.table_timeout is None:
            object.__setattr__(self, "table_timeout", 3.0 * self.beacon_period)
        if self.master_seed < 0:
            raise ConfigError("master_seed must be >= 0")
        if self.duration <= 0:
            raise ConfigError("duration must be > 0")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        for name in ("packet_size", "beacon_size"):
            size = getattr(self, name)
            if size <= 0:
                raise ConfigError(f"{name} must be > 0")
            try:
                size * 8 / 1e6  # the simulator carries sizes in megabits as floats
            except OverflowError:
                raise ConfigError(
                    f"{name} is too large: {name} * 8 / 1e6 megabits overflows a float") from None
        if self.cbr_rate < 0:
            raise ConfigError("cbr_rate must be >= 0")
        if self.cbr_rate > 0 and math.isinf(1.0 / self.cbr_rate):
            raise ConfigError(f"cbr_rate {self.cbr_rate!r} is too small: 1/cbr_rate overflows")
        # below 2**52 arrivals, phase + k/cbr_rate grows strictly with k, so
        # the simulator's arrival-index search is exact and ends
        if not self.duration * self.cbr_rate < 2.0 ** 52:
            raise ConfigError(
                f"duration * cbr_rate must be below 2**52 arrivals per source, "
                f"got {self.duration * self.cbr_rate!r}")
        if self.beacon_period <= 0:
            raise ConfigError("beacon_period must be > 0")
        # likewise below 2**52 steps t + period > t, so periodic events reach the end
        periods = {"beacon_period": self.beacon_period}
        if self.mobility is not None:
            periods["mobility update_interval"] = self.mobility.update_interval
        for name, period in periods.items():
            if not self.duration / period < 2.0 ** 52:
                raise ConfigError(f"duration / {name} must be below 2**52 steps, "
                                  f"got {self.duration / period!r}")
        if self.tx_range <= 0:
            raise ConfigError("tx_range must be > 0")
        if self.cs_range_factor < 1.0:
            raise ConfigError("cs_range_factor must be >= 1 (sensing cannot be shorter than delivery)")
        if self.contention_slot < 0:
            raise ConfigError("contention_slot must be >= 0")
        if self.table_timeout <= 0:
            raise ConfigError("table_timeout must be > 0")
        if self.hop_budget is not None and self.hop_budget < 1:
            raise ConfigError("hop_budget must be >= 1")
        if self.uplink_queue_cap_per_node < 1 or self.sr_queue_cap < 1:
            raise ConfigError("queue caps must be >= 1")

    def resolved_hop_budget(self, n_nodes: int) -> int:
        return self.hop_budget if self.hop_budget is not None else 4 * n_nodes


_CONFIG_KEYS = {*_FIELD_TYPES, "mode", "mobility"}

_MOBILITY_KEYS = {f.name for f in fields(MobilityParams)}

# "both" at the file level means: run benchmark and cooperative on the same
# scenario and seeds and report the gain.
_MODES = ("benchmark", "cooperative", "both")


def _check_keys(data: dict, allowed: set[str], what: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown {what} key(s): {', '.join(sorted(map(str, unknown)))}")


def parse_mobility(data: dict | None) -> MobilityParams | None:
    if data is None:
        return None
    if not isinstance(data, dict):
        raise ConfigError("mobility must be a mapping or null")
    _check_keys(data, _MOBILITY_KEYS, "mobility")
    try:
        return MobilityParams(**data)
    except ValueError as exc:
        raise ConfigError(f"invalid mobility parameters: {exc}") from exc


def parse_config(data: dict) -> tuple[SimConfig, bool]:
    """Build a SimConfig from a parsed mapping.

    Returns (config, run_both_modes).  Unknown keys are rejected so that a
    typo cannot silently fall back to a default.
    """
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a mapping")
    _check_keys(data, _CONFIG_KEYS, "config")
    data = dict(data)
    mode_str = data.pop("mode", "cooperative")
    if mode_str not in _MODES:
        raise ConfigError(f"mode must be one of {sorted(_MODES)}, got {mode_str!r}")
    both = mode_str == "both"
    mode = Mode.COOPERATIVE if both else Mode(mode_str)
    if "mobility" in data:
        data["mobility"] = parse_mobility(data["mobility"])
    return SimConfig(mode=mode, **data), both


class _StrictLoader(yaml.SafeLoader):
    """SafeLoader that rejects a key repeated within one mapping and an
    integer with more digits than Python converts."""

    def construct_int(self, node):
        try:
            return self.construct_yaml_int(node)
        except ValueError:
            mark = node.start_mark
            raise ConfigError(f"{mark.name}: integer on line {mark.line + 1} has more than "
                              f"{sys.get_int_max_str_digits()} digits") from None

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            # "<<" merges may be overridden; the base class rejects unhashable keys
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node)
                if key in seen:
                    mark = key_node.start_mark
                    raise ConfigError(f"{mark.name}: duplicate key {key!r} on line {mark.line + 1}")
                seen.add(key)
        return super().construct_mapping(node, deep=deep)


# add_constructor copies the inherited table, so SafeLoader keeps its own
_StrictLoader.add_constructor("tag:yaml.org,2002:int", _StrictLoader.construct_int)

# PyYAML follows YAML 1.1, whose floats need a decimal point and a signed
# exponent, so it reads 9e-6 or 1.0e3 as strings.  YAML 1.2's float form is
# tried after every YAML 1.1 resolver, so integers stay integers.
# add_implicit_resolver copies the inherited table, so SafeLoader is unchanged.
_StrictLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
    list("-+0123456789."),
)


def load_yaml(path):
    """The parsed contents of a YAML file.

    Text that is not UTF-8, bad syntax or a repeated key is a one-line
    ConfigError naming the file.
    """
    # newline=None reads line ends as a text-mode file would
    with io.StringIO(read_text(path, ConfigError, "utf-8"), newline=None) as fh:
        fh.name = path  # PyYAML's marks, and so the duplicate-key error, name it
        try:
            return yaml.load(fh, Loader=_StrictLoader)
        except yaml.YAMLError as exc:
            # PyYAML's own text spans several lines of context and marks
            problem, mark = getattr(exc, "problem", None), getattr(exc, "problem_mark", None)
            if problem and mark:
                detail = f"{problem} (line {mark.line + 1}, column {mark.column + 1})"
            else:
                detail = str(exc).split("\n", 1)[0]
            raise ConfigError(f"cannot parse {path}: {detail}") from exc


def load_config(path) -> tuple[SimConfig, bool]:
    data = load_yaml(path)
    return parse_config({} if data is None else data)
