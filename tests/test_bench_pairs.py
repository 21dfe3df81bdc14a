"""The summary code of ``tests/bench_pairs.py`` on synthetic samples: its
subprocess runs are not exercised here."""

import bench_pairs as bp
import pytest


def test_rotation_gives_each_role_each_place():
    orders = [bp.rotation(k) for k in range(3)]
    assert orders[0] == ("parent", "change", "control")
    assert bp.rotation(3) == orders[0]
    for place in range(3):
        assert {order[place] for order in orders} == set(bp.ROLES)


def test_quartiles():
    assert bp.quartiles([5.0]) == (5.0, 5.0)
    assert bp.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 4.0)
    assert bp.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 3.25)


def test_summary_of_a_higher_is_better_metric():
    s = bp.summarize({"parent": [100.0, 102.0, 98.0, 101.0, 99.0],
                      "change": [110.0, 101.0, 111.0, 112.0, 108.0],
                      "control": [99.0, 103.0, 97.0, 100.0, 101.0]}, "higher")
    assert s["parent_median"] == 100.0 and s["parent_iqr"] == [99.0, 101.0]
    assert s["change_median"] == 110.0 and s["change_move_pct"] == pytest.approx(10.0)
    assert s["change_pairs_better"] == 4 and s["pairs"] == 5  # 101 < 102 in round 2
    assert s["control_median"] == 100.0 and s["control_move_pct"] == 0.0
    assert s["control_pairs_better"] == 2  # 103 > 102 and 101 > 99
    assert s["change_clears_iqr"] and not s["exact"]


def test_summary_of_a_lower_is_better_metric():
    s = bp.summarize({"parent": [1.0, 1.2, 1.1], "change": [1.05, 1.1, 1.2],
                      "control": [0.9, 1.3, 1.1]}, "lower")
    assert s["parent_median"] == 1.1 and s["parent_iqr"] == [1.05, 1.15]
    assert s["change_move_pct"] == pytest.approx(0.0)
    assert s["change_pairs_better"] == 1  # only 1.1 < 1.2
    assert s["control_pairs_better"] == 1 and s["control_move_pct"] == pytest.approx(0.0)
    assert not s["change_clears_iqr"]  # a median that does not move clears nothing


def test_a_deterministic_metric_is_exact():
    s = bp.summarize({"parent": [19.0] * 3, "change": [16.0] * 3, "control": [19.0] * 3},
                     "lower")
    assert s["exact"] and s["change_clears_iqr"] and s["change_pairs_better"] == 3
    assert bp.cell(s) == "19 -> 16 (-15.8%)"
    same = bp.summarize({role: [7.5] * 2 for role in bp.ROLES}, "lower")
    assert bp.cell(same) == "7.5 -> 7.5 (identical)"
    assert bp._move(0.0, 1.0) is None and bp._move(0.0, 0.0) == 0.0
    one_round = bp.summarize({role: [7.5] for role in bp.ROLES}, "lower")
    assert not one_round["exact"]  # one run a role shows no spread


def test_cell_and_table():
    s = bp.summarize({"parent": [1000.0, 1010.0, 990.0], "change": [1050.0, 1040.0, 1060.0],
                      "control": [1005.0, 1000.0, 995.0]}, "higher")
    assert bp.cell(s) == "1000 [995-1005] -> 1050 (+5.0%, 3/3; ctl +0.0%)"
    results = {"deep-witness": {"1": {"items_per_s": s}, "2": {"items_per_s": s}}}
    assert bp.table(results, [1, 2]).splitlines() == [
        "| workload | metric | seed 1 | seed 2 |",
        "| --- | --- | --- | --- |",
        f"| deep-witness | items_per_s | {bp.cell(s)} | {bp.cell(s)} |"]


def test_profile_rows_parse():
    text = ("run_scripts {'math.hypot': 598, 'geom.cut': 126} engine calls: 3546\n"
            "constructions.py:build_apex 6\n")
    assert bp.PROFILE_ROW.findall(text) == [
        ("run_scripts", "{'math.hypot': 598, 'geom.cut': 126}", "3546")]
