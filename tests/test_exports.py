import json

import numpy as np
import pytest

from rfa import BasisNumber, LcNumber, LinearParams, OscillatorParams, simulate_system
from rfa.cli import ExportTable, export_csv, export_json, read_csv, trajectory_table
from rfa.cli.exports import band_color, emit_svg

BASIS = BasisNumber.triangular(-0.5, 0, 0.51)
ALPHAS = tuple(i / 10 for i in range(11))


def crisp_three_step_trajectory():
    params = LinearParams(LcNumber(1, 0), LcNumber(1, 0))
    return simulate_system("linear", params, (0.0, 0.2), dt=0.1).attach_bands(BASIS, (0.0, 1.0))


def test_table_shape_and_row_contract():
    traj = crisp_three_step_trajectory()
    table = trajectory_table(traj)
    assert len(table.rows) == 3
    assert table.columns[:3] == ["t", "w_re", "w_fu"]
    assert "w_a0_lo" in table.columns and "w_a1_hi" in table.columns


def test_csv_row_count_contract(tmp_path):
    table = trajectory_table(crisp_three_step_trajectory())
    target = tmp_path / "crisp.csv"
    export_csv(table, target)
    assert len(target.read_text().strip().splitlines()) == 4


def test_csv_round_trip_is_bit_exact(tmp_path):
    params = LinearParams(LcNumber(-0.5, 0.8), LcNumber(2, 2))
    traj = simulate_system("linear", params, (0.0, 1.0), dt=0.01).attach_bands(BASIS, ALPHAS)
    table = trajectory_table(traj)
    target = tmp_path / "run.csv"
    export_csv(table, target)
    back = read_csv(target)
    assert back.columns == table.columns
    assert back.rows == table.rows


def test_json_round_trip_and_alpha_keys(tmp_path):
    params = LinearParams(LcNumber(-0.5, 0.8), LcNumber(2, 2))
    traj = simulate_system("linear", params, (0.0, 0.5), dt=0.05).attach_bands(BASIS, ALPHAS)
    table = trajectory_table(traj)
    target = tmp_path / "run.json"
    export_json(table, target)
    payload = json.loads(target.read_text())
    assert payload["columns"] == table.columns
    assert payload["rows"] == table.rows
    assert payload["alphas"] == list(ALPHAS)
    assert payload["bands"]["w"]["0.5"] == ["w_a0.5_lo", "w_a0.5_hi"]


def test_table_must_be_rectangular():
    with pytest.raises(ValueError):
        ExportTable(["a", "b"], [[1.0, 2.0], [3.0]])


def test_band_color_endpoints():
    assert band_color(0.0) == "#ebebeb"
    assert band_color(1.0) == "#000000"


def test_emit_svg_counts_polylines(tmp_path):
    xs = np.linspace(0, 1, 20)
    series = [(xs, np.sin(xs + k), band_color(k / 4), 1.0) for k in range(5)]
    target = tmp_path / "plot.svg"
    emit_svg(series, target, "t", "w")
    text = target.read_text()
    assert text.count("<polyline") == 5
    assert text.startswith("<svg")
    assert "http://www.w3.org/2000/svg" in text
    # self-contained: no external references
    assert "href" not in text


def test_emit_svg_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_svg([], tmp_path / "empty.svg")


def test_phase_svg_has_two_polylines_per_level_plus_crisp(tmp_path):
    from rfa.cli.presets import load_config, run_scenario

    cfg = load_config(
        dict(
            system="oscillator",
            basis="tri(-1;0;1.01)",
            initial={"x": "100 + 2*A", "y": "100 + 2*A"},
            t_span=(0.0, 2.0),
            dt=0.01,
            name="mini6",
            plot="phase:x-vs-s",
        )
    )
    run_scenario(cfg, out_dir=tmp_path, formats=("svg",))
    text = (tmp_path / "mini6.svg").read_text()
    assert text.count("<polyline") == 2 * 11 + 1


def test_preset_csv_round_trip_matches_memory(tmp_path):
    from rfa.cli.presets import preset_config, run_scenario

    table, written = run_scenario(preset_config("fig2"), out_dir=tmp_path, formats=("csv",))
    back = read_csv(written[0])
    assert back.columns == table.columns
    assert back.rows == table.rows


def test_oscillator_table_has_both_variables():
    params = OscillatorParams(LcNumber(1, 1), LcNumber(0, 0))
    traj = simulate_system("oscillator", params, (0.0, 0.5), dt=0.1).attach_bands(BASIS, (0.0, 0.5, 1.0))
    table = trajectory_table(traj)
    assert "x_re" in table.columns and "y_re" in table.columns
    assert "x_a0.5_lo" in table.columns and "y_a0.5_hi" in table.columns
    assert len(table.rows) == len(traj)
