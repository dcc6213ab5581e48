from dataclasses import replace

import pytest
import yaml

from cesrsim.config import ConfigError, Mode, SimConfig, load_config, load_yaml, parse_config
from cesrsim.mobility import MobilityParams


def test_defaults():
    cfg = SimConfig()
    assert cfg.duration == 100.0
    assert cfg.runs == 10
    assert cfg.beacon_period == 5.0
    assert cfg.table_timeout == 15.0  # 3 beacon periods
    assert cfg.packet_size == 1024
    assert cfg.beacon_size == 64
    assert cfg.tx_range == 20.0
    assert cfg.mode is Mode.COOPERATIVE
    assert cfg.mobility is None


def test_table_timeout_follows_beacon_period():
    cfg = SimConfig(beacon_period=2.0)
    assert cfg.table_timeout == 6.0
    cfg = SimConfig(beacon_period=2.0, table_timeout=9.0)
    assert cfg.table_timeout == 9.0


def test_hop_budget_default_scales_with_network():
    cfg = SimConfig()
    assert cfg.resolved_hop_budget(10) == 40
    assert SimConfig(hop_budget=3).resolved_hop_budget(10) == 3


def test_validation_errors():
    for kwargs in (
        dict(duration=0),
        dict(runs=0),
        dict(packet_size=0),
        dict(cbr_rate=-1),
        dict(beacon_period=0),
        dict(tx_range=0),
        dict(cs_range_factor=0.5),
        dict(contention_slot=-1e-6),
        dict(table_timeout=-1),
        dict(hop_budget=0),
        dict(uplink_queue_cap_per_node=0),
        dict(sr_queue_cap=0),
    ):
        with pytest.raises(ConfigError):
            SimConfig(**kwargs)


def test_cbr_rate_whose_period_overflows_is_rejected():
    with pytest.raises(ConfigError, match="cbr_rate"):
        SimConfig(cbr_rate=1.0e-320)
    assert SimConfig(cbr_rate=1.0e-300).cbr_rate == 1.0e-300


@pytest.mark.parametrize("name", ["packet_size", "beacon_size"])
def test_size_whose_megabits_overflow_is_rejected(name):
    # size * 8 / 1e6 cannot convert 8e400 to a float
    with pytest.raises(ConfigError, match=name):
        SimConfig(**{name: 10 ** 400})
    assert getattr(SimConfig(**{name: 10 ** 300}), name) == 10 ** 300


@pytest.mark.parametrize("name, with_period", [
    ("beacon_period", lambda period: {"beacon_period": period}),
    ("update_interval", lambda period: {"mobility": MobilityParams(update_interval=period)}),
], ids=["beacon_period", "update_interval"])
def test_period_too_short_for_the_run_is_rejected(name, with_period):
    # from 2**52 steps per run on, t + period can equal t
    for period in (1e-300, 2.0 ** -52):
        with pytest.raises(ConfigError, match=name):
            SimConfig(duration=1.0, cbr_rate=1.0, **with_period(period))
    SimConfig(duration=1.0, cbr_rate=1.0, **with_period(2.0 ** -51))


def test_integer_with_too_many_digits_is_a_config_error_naming_file_and_line(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("duration: 1\nbeacon_size: 1" + "0" * 5000 + "\n")
    with pytest.raises(ConfigError, match=r"cfg\.yaml: integer on line 2 has more than"):
        load_yaml(path)
    path.write_text("beacon_size: 1" + "0" * 4000 + "\n")
    assert load_yaml(path) == {"beacon_size": 10 ** 4000}


def test_parse_config_minimal_and_modes():
    cfg, both = parse_config({})
    assert cfg.mode is Mode.COOPERATIVE and not both
    cfg, both = parse_config({"mode": "benchmark"})
    assert cfg.mode is Mode.BENCHMARK and not both
    cfg, both = parse_config({"mode": "both"})
    assert cfg.mode is Mode.COOPERATIVE and both


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="cbr_rte"):
        parse_config({"cbr_rte": 100})
    with pytest.raises(ConfigError):
        parse_config({"mode": "bench"})
    with pytest.raises(ConfigError, match="alpa"):
        parse_config({"mobility": {"alpa": 0.5}})


def test_parse_config_mobility_block():
    cfg, _ = parse_config({"mobility": {"alpha": 0.7, "mean_speed": 2.0}})
    assert cfg.mobility == MobilityParams(alpha=0.7, mean_speed=2.0)
    cfg, _ = parse_config({"mobility": None})
    assert cfg.mobility is None
    with pytest.raises(ConfigError):
        parse_config({"mobility": {"alpha": 2.0}})


def test_replace_mode_keeps_other_fields():
    cfg = SimConfig(duration=7.0, beacon_period=2.0)
    bmk = replace(cfg, mode=Mode.BENCHMARK)
    assert bmk.mode is Mode.BENCHMARK
    assert bmk.duration == 7.0
    assert bmk.table_timeout == 6.0
    assert cfg.mode is Mode.COOPERATIVE  # original untouched
    assert replace(bmk, mode=Mode.COOPERATIVE) == cfg


def test_load_config_yaml(tmp_path):
    p = tmp_path / "cfg.yaml"
    p.write_text("duration: 12.5\nruns: 2\nmode: both\ncbr_rate: 250\n")
    cfg, both = load_config(p)
    assert cfg.duration == 12.5
    assert cfg.runs == 2
    assert cfg.cbr_rate == 250
    assert both


def test_load_config_empty_file_gives_defaults(tmp_path):
    p = tmp_path / "empty.yaml"
    p.write_text("")
    cfg, both = load_config(p)
    assert cfg == SimConfig()
    assert not both


def test_load_config_bad_yaml(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("mode: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_load_yaml_rejects_repeated_keys_but_keeps_merges(tmp_path):
    p = tmp_path / "dup.yaml"
    p.write_text("duration: 1\nmobility:\n  alpha: 0.5\n  alpha: 0.6\n")
    with pytest.raises(ConfigError, match=r"duplicate key 'alpha' on line 4"):
        load_config(p)
    # a "<<" merge may override what it merges
    p.write_text("a: &x {b: 1}\nc: {<<: *x, b: 2}\n")
    assert load_yaml(p) == {"a": {"b": 1}, "c": {"b": 2}}


def test_load_yaml_reads_floats_with_an_exponent_but_no_decimal_point(tmp_path):
    # YAML 1.1, which PyYAML follows, reads 9e-6 and 1.0e3 as strings
    p = tmp_path / "cfg.yaml"
    p.write_text("contention_slot: 9e-6\ncbr_rate: 1e3\n")
    cfg, _ = load_config(p)
    p.write_text("contention_slot: 9.0e-6\ncbr_rate: 1000.0\n")
    assert cfg == load_config(p)[0] == SimConfig(contention_slot=9.0e-6, cbr_rate=1000.0)
    p.write_text("a: [1e3, 3.0e3, -2E+1, .5e1, 12, 0x1f, '1e3', 1_000]\n")
    assert load_yaml(p) == {"a": [1000.0, 3000.0, -20.0, 5.0, 12, 31, "1e3", 1000]}
    assert [type(x) for x in load_yaml(p)["a"]][4:] == [int, int, str, int]
    # only the config loader changes; PyYAML's own SafeLoader keeps YAML 1.1
    assert yaml.safe_load("a: 1e3") == {"a": "1e3"}
