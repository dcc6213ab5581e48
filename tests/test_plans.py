from dataclasses import replace

import pytest

from cesrsim.config import ConfigError
from cesrsim.plans import (
    SWEEP_COLUMNS,
    SweepRow,
    SweepSchemaError,
    load_sweep_csv,
    parse_plan,
    run_point,
    run_sweep,
    summarize,
    write_sweep_csv,
)

PLAN = {
    "name": "tiny",
    "axis": "cbr_rate",
    "values": [100, 1000],
    "areas": [[60, 20]],
    "n_total": 6,
    "class_a_counts": [2],
    "config": {"duration": 2.0, "runs": 2},
}


def _plan(**overrides):
    data = {**PLAN, **overrides}
    data["config"] = dict(data["config"])
    return parse_plan(data)


def test_parse_plan_defaults_mode_to_both():
    plan = _plan()
    assert plan.name == "tiny"
    assert plan.values == (100.0, 1000.0)
    assert plan.base.duration == 2.0


def test_parse_plan_rejects_single_mode():
    with pytest.raises(ConfigError, match="both"):
        _plan(config={"duration": 2.0, "runs": 2, "mode": "cooperative"})


def test_parse_plan_rejects_unknown_axis_and_keys():
    with pytest.raises(ConfigError):
        _plan(axis="packet_size")
    with pytest.raises(ConfigError):
        parse_plan({**PLAN, "extra_key": 1})
    with pytest.raises(ConfigError):
        parse_plan({k: v for k, v in PLAN.items() if k != "values"})


def test_mean_speed_axis_needs_mobility():
    with pytest.raises(ConfigError, match="mobility"):
        _plan(axis="mean_speed", values=[0, 1])
    plan = _plan(
        axis="mean_speed",
        values=[0, 2],
        config={"duration": 2.0, "runs": 1, "mobility": {"alpha": 0.5}},
    )
    p0, p1 = plan.points()
    assert p0.config().mobility.mean_speed == 0.0
    assert p1.config().mobility.mean_speed == 2.0
    # stddev rescales with the mean rather than staying at the base value
    assert p1.config().mobility.speed_stddev == 1.0


def test_points_enumerate_area_class_value_grid():
    plan = _plan(areas=[[60, 20], [100, 50]], class_a_counts=[1, 2])
    pts = plan.points()
    assert len(pts) == 8
    assert [p.index for p in pts] == list(range(8))
    assert pts[0].area == (60.0, 20.0)
    assert pts[-1].area == (100.0, 50.0)


def test_node_count_axis_overrides_n_total():
    plan = _plan(axis="node_count", values=[4, 8], n_total=0)
    pts = plan.points()
    assert pts[0].n_total == 4
    assert pts[1].n_total == 8


def test_scenario_seed_independent_of_axis_value():
    # paired trends: the same run index draws the same topology at every
    # point along the axis
    plan = _plan()
    p_low, p_high = plan.points()
    assert p_low.scenario_seed(0) == p_high.scenario_seed(0)
    assert p_low.scenario_seed(0) != p_low.scenario_seed(1)


def test_run_point_produces_paired_gain():
    plan = _plan()
    row = run_point(plan.points()[1])
    assert row.plan == "tiny"
    assert row.axis_value == 1000.0
    assert row.runs == 2
    assert row.gain == pytest.approx(1.0 - row.coop_eb_per_mb / row.bmk_eb_per_mb)


def test_run_sweep_serial_matches_parallel():
    plan = _plan()
    rows_s, fails_s = run_sweep(plan, parallel=1)
    rows_p, fails_p = run_sweep(plan, parallel=2)
    assert fails_s == [] and fails_p == []
    assert rows_s == rows_p
    assert [r.axis_value for r in rows_s] == [100.0, 1000.0]


def test_parse_plan_rejects_class_a_counts_above_a_point_node_count():
    with pytest.raises(ConfigError, match="class_a_counts"):
        _plan(axis="node_count", values=[2, 6], n_total=0, class_a_counts=[3])
    with pytest.raises(ConfigError, match="class_a_counts"):
        _plan(class_a_counts=[7])


def test_run_sweep_collects_failures():
    # 3 class-A nodes cannot fit a 2-node point; parse_plan rejects that, so
    # the count is swapped into an already parsed plan
    plan = replace(
        _plan(axis="node_count", values=[2, 6], n_total=0, class_a_counts=[2]),
        class_a_counts=(3,),
    )
    rows, failures = run_sweep(plan)
    assert len(rows) == 1
    assert len(failures) == 1
    assert failures[0][0].value == 2.0


def test_sweep_csv_round_trip(tmp_path):
    plan = _plan()
    rows, _ = run_sweep(plan)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    assert path.read_text().splitlines()[0] == ",".join(SWEEP_COLUMNS)
    back = load_sweep_csv(path)
    assert back == rows
    # byte stability: writing the loaded rows reproduces the file
    path2 = tmp_path / "sweep2.csv"
    write_sweep_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_sweep_csv_schema_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(SweepSchemaError):
        load_sweep_csv(empty)
    headeronly = tmp_path / "h.csv"
    headeronly.write_text(",".join(SWEEP_COLUMNS) + "\n")
    with pytest.raises(SweepSchemaError):
        load_sweep_csv(headeronly)
    wrong = tmp_path / "w.csv"
    wrong.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(SweepSchemaError):
        load_sweep_csv(wrong)
    good = "tiny,60.0,20.0,6,2,cbr_rate,100.0,2,1.0,0.9,1.0,1.0,0.1"
    for bad_row in (good.rsplit(",", 1)[0], good.replace(",6,", ",six,")):
        bad = tmp_path / "bad.csv"
        bad.write_text(",".join(SWEEP_COLUMNS) + f"\n{good}\n{bad_row}\n")
        with pytest.raises(SweepSchemaError, match="line 3"):
            load_sweep_csv(bad)


def _row(area=(60.0, 20.0), ca=2, value=100.0, g=0.1):
    return SweepRow(
        plan="p", area_w=area[0], area_h=area[1], n_total=6, n_class_a=ca,
        axis="cbr_rate", axis_value=value, runs=1, bmk_eb_per_mb=1.0,
        coop_eb_per_mb=1.0 - g, bmk_goodput_mbps=1.0, coop_goodput_mbps=1.0,
        gain=g,
    )


def test_summarize_blocks_and_plot_data():
    rows = [
        _row(value=100.0, g=0.1),
        _row(value=1000.0, g=0.3),
        _row(area=(100.0, 50.0), value=100.0, g=-0.2),
        _row(area=(100.0, 50.0), value=1000.0, g=0.2),
    ]
    text, plot = summarize(rows)
    assert "area 60x20 m:" in text
    assert "area 100x50 m:" in text
    assert "overall max gain: 30.0% at cbr_rate = 1000" in text
    assert plot["p_60x20_ca2"] == [(100.0, 0.1), (1000.0, 0.3)]
    assert plot["p_100x50_ca2"] == [(100.0, -0.2), (1000.0, 0.2)]
