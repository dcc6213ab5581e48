from dataclasses import replace

import pytest

from cesrsim.config import ConfigError, Mode, SimConfig, load_config, parse_config
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
