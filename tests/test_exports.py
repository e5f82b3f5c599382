import csv
import dataclasses
import json
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from rfa import BasisNumber, LcNumber, LinearParams, OscillatorParams, simulate_system
from rfa.cli import ExportTable, export_csv, export_json, read_csv, trajectory_table
from rfa.cli import exports
from rfa.cli.exports import band_color, emit_svg

BASIS = BasisNumber.triangular(-0.5, 0, 0.51)
ALPHAS = tuple(i / 10 for i in range(11))


def assert_same_bits(got, want):
    """Equal shapes and equal doubles bit for bit, so signed zeros and NaN count."""
    got, want = (np.ascontiguousarray(a, dtype=np.float64) for a in (got, want))
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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
    assert_same_bits(back.rows, table.rows)


def test_json_round_trip_and_alpha_keys(tmp_path):
    params = LinearParams(LcNumber(-0.5, 0.8), LcNumber(2, 2))
    traj = simulate_system("linear", params, (0.0, 0.5), dt=0.05).attach_bands(BASIS, ALPHAS)
    table = trajectory_table(traj)
    target = tmp_path / "run.json"
    export_json(table, target)
    payload = json.loads(target.read_text())
    assert payload["columns"] == table.columns
    assert_same_bits(payload["rows"], table.rows)
    assert payload["alphas"] == list(ALPHAS)
    assert payload["bands"]["w"]["0.5"] == ["w_a0.5_lo", "w_a0.5_hi"]


def test_table_must_be_rectangular():
    with pytest.raises(ValueError):
        ExportTable(["a", "b"], [[1.0, 2.0], [3.0]])


@pytest.mark.parametrize(
    "rows", [[[1.0, 2.0, 3.0]], np.zeros((2, 3)), np.zeros(2), np.zeros((2, 2, 2)), 5.0], ids=lambda r: str(np.shape(r))
)
def test_table_must_be_two_dimensional_with_the_header_width(rows):
    with pytest.raises(ValueError, match="do not match the header's 2 columns"):
        ExportTable(["a", "b"], rows)


def test_table_refuses_repeated_column_names():
    with pytest.raises(ValueError, match="column names repeat"):
        ExportTable(["t", "w_a0.1_lo", "w_a0.1_lo"], [[0.0, 1.0, 2.0]])
    # 0.1 and 0.1000001 share the alpha key "0.1", so their band columns would repeat
    traj = crisp_three_step_trajectory().attach_bands(BASIS, (0.1, 0.1000001, 0.5))
    with pytest.raises(ValueError, match="column names repeat"):
        trajectory_table(traj)


def test_rows_are_one_writable_float64_array_from_every_constructor(tmp_path):
    from_trajectory = trajectory_table(crisp_three_step_trajectory())
    export_csv(from_trajectory, tmp_path / "t.csv")
    tables = [from_trajectory, read_csv(tmp_path / "t.csv"), ExportTable(["a", "b"], [[1, 2], [3, 4]]),
              ExportTable(["a", "b"], [])]
    for table in tables:
        assert isinstance(table.rows, np.ndarray) and table.rows.dtype == np.float64
        assert table.rows.ndim == 2 and table.rows.shape[1] == len(table.columns)
        assert table.rows.flags.writeable
    assert_same_bits(tables[1].rows, from_trajectory.rows)
    assert tables[3].rows.shape == (0, 2)


def test_read_csv_of_a_header_alone_is_an_empty_table_without_a_warning(tmp_path):
    target = tmp_path / "header.csv"
    target.write_text("t,w_re,w_fu\r\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = read_csv(target)
    assert table.columns == ["t", "w_re", "w_fu"]
    assert table.rows.shape == (0, 3)


@pytest.mark.parametrize("n_rows", [0, 1, 3])
def test_a_table_without_columns_is_refused(tmp_path, n_rows):
    with pytest.raises(ValueError, match="at least one column"):
        ExportTable([], np.zeros((n_rows, 0)))
    # an empty header names no column, whatever lines follow it
    target = tmp_path / "empty.csv"
    target.write_bytes(b"\r\n" * (n_rows + 1))
    with pytest.raises(ValueError, match="names no column"):
        read_csv(target)


@pytest.mark.parametrize(
    "text",
    ["", "a,b\r\n1,2\r\n3\r\n", "a,b\r\n1,2,3\r\n", "a,b\r\n1,x\r\n", "a,b\r\n1,2#3\r\n", "a,b,c\r\n1,2\r\n",
     # float() reads both, np.loadtxt neither
     "a,b\r\n1,1_0\r\n", "a,b\r\n1,\u0661\r\n"],
    ids=["empty-file", "short-row", "long-row", "not-a-number", "comment-mark", "header-wider", "underscore",
         "non-ascii-digit"],
)
def test_read_csv_refuses_what_is_not_a_table(tmp_path, text):
    target = tmp_path / "bad.csv"
    target.write_text(text, newline="")
    with pytest.raises(ValueError):
        read_csv(target)


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


def test_emit_svg_centres_a_constant_coordinate(tmp_path):
    # a span of zero widens to one around the value, which lands mid-frame
    emit_svg([([2.0, 2.0, 2.0], [0.0, 1.0, 2.0], "black", 1.0)], tmp_path / "vertical.svg")
    emit_svg([([0.0, 1.0], [3.0, 3.0], "black", 1.0)], tmp_path / "horizontal.svg")
    assert re.findall(r'points="([^"]*)"', (tmp_path / "vertical.svg").read_text()) == ["400,550 400,300 400,50"]
    assert re.findall(r'points="([^"]*)"', (tmp_path / "horizontal.svg").read_text()) == ["50,300 750,300"]


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


def _svg_coordinates(text):
    return np.array([float(v) for points in re.findall(r'points="([^"]*)"', text) for v in re.split("[ ,]", points)])


def test_svg_of_a_range_beyond_the_double_span_stays_in_the_viewport(tmp_path):
    from rfa.cli.presets import load_config, run_scenario

    cfg = load_config(
        dict(
            system="oscillator",
            basis="tri(-0.5;0;0.51)",
            initial={"x": "1e308", "y": "0"},
            t_span=(0.0, 7.0),
            dt=0.01,
            name="huge",
            plot="time-series:x",
        )
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_scenario(cfg, out_dir=tmp_path, formats=("svg",))
        # both axes at once, straight through the writer
        emit_svg([([-1e308, 1e308], [-1.7e308, 1.7e308], "black", 1.0)], tmp_path / "both.svg")
    for name in ("huge.svg", "both.svg"):
        coords = _svg_coordinates((tmp_path / name).read_text())
        xs, ys = coords[0::2], coords[1::2]
        assert np.isfinite(coords).all(), name
        assert ((0 <= xs) & (xs <= 800)).all() and ((0 <= ys) & (ys <= 600)).all(), name
    assert _svg_coordinates((tmp_path / "both.svg").read_text()).tolist() == [50, 550, 750, 50]


def test_preset_csv_round_trip_matches_memory(tmp_path):
    from rfa.cli.presets import preset_config, run_scenario

    table, written = run_scenario(preset_config("fig2"), out_dir=tmp_path, formats=("csv",))
    back = read_csv(written[0])
    assert back.columns == table.columns
    assert_same_bits(back.rows, table.rows)


def test_scenario_table_serves_the_benchmark_reads(tmp_path):
    # bench/ reads a table three ways: len(rows) (tracer), np.array(rows)
    # (checks) and a cell swap through the row views (broken-band test)
    from rfa.cli.presets import preset_config, run_scenario

    table, _ = run_scenario(preset_config("fig2", t_span=(0.0, 1.0), dt=0.1), out_dir=tmp_path, formats=())
    assert len(table.rows) == 11
    data = np.array(table.rows, dtype=float)
    assert data.shape == (11, len(table.columns))
    lo, hi = table.band_columns["w"]["0"]
    i, j = table.columns.index(lo), table.columns.index(hi)
    for row in table.rows:
        row[i], row[j] = row[j] + 1.0, row[i]
    swapped = np.array(table.rows, dtype=float)
    assert np.array_equal(swapped[:, i], data[:, j] + 1.0)
    assert np.array_equal(swapped[:, j], data[:, i])


def test_oscillator_table_has_both_variables():
    params = OscillatorParams(LcNumber(1, 1), LcNumber(0, 0))
    traj = simulate_system("oscillator", params, (0.0, 0.5), dt=0.1).attach_bands(BASIS, (0.0, 0.5, 1.0))
    table = trajectory_table(traj)
    assert "x_re" in table.columns and "y_re" in table.columns
    assert "x_a0.5_lo" in table.columns and "y_a0.5_hi" in table.columns
    assert len(table.rows) == len(traj)


# -- byte oracles: the straightforward writers the fast ones must match ------


def reference_csv(table, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([f"{v:.17g}" for v in row])


def reference_json(table, path):
    payload = {
        "columns": table.columns,
        "alphas": list(table.alphas),
        "bands": table.band_columns,
        "rows": table.rows.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def reference_svg_points(px, py):
    return " ".join(f"{x:.6g},{y:.6g}" for x, y in zip(px, py))


EDGE_CELLS = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1e-300, 7, float("inf"),
              float("nan"), -float("inf"), 0.1, 1 / 3, 0.0,
              # the ends of fixed notation: 17 digits before the dot, and 10^-4
              1e16, 1e17, math.nextafter(1e17, 0), 9.9999999999999995e-05, 1e-4, 1e-3, math.nextafter(1e-3, 0),
              # halves, whose trailing zeros are stripped
              0.5, 2.5, 123456.5,
              # the ends of repr's fixed notation: 1e+16 is exponent notation there, 1e-05 too
              9999999999999998.0, 1e-5, math.nextafter(1e-5, 0),
              # integral values, which repr ends in ".0"
              123.0, 2.0**53,
              # powers of two, whose rounding interval is lopsided
              2.0**-20, 2.0**60,
              # 17 digits as the shortest
              0.30000000000000004]

WRITERS = ((export_csv, reference_csv, "csv"), (export_json, reference_json, "json"))


def assert_same_bytes(fast, reference, suffix, table, where):
    fast(table, where / f"fast.{suffix}")
    reference(table, where / f"reference.{suffix}")
    assert (where / f"fast.{suffix}").read_bytes() == (where / f"reference.{suffix}").read_bytes()


@pytest.mark.parametrize("n_rows", [0, 1, 3, 2500])
def test_writers_match_the_reference_bytes_on_edge_cells(tmp_path, n_rows):
    width = len(EDGE_CELLS)
    # rotate the cells so every column sees every value; 2500 rows span
    # five blocks of either writer
    rows = [EDGE_CELLS[i % width :] + EDGE_CELLS[: i % width] for i in range(n_rows)]
    table = ExportTable([f"c{k}" for k in range(width)], rows, (0.0, 0.5, 1.0), {"w": {"0.5": ["c1", "c2"]}})
    for fast, reference, suffix in WRITERS:
        assert_same_bytes(fast, reference, suffix, table, tmp_path)


@pytest.mark.parametrize("rows", [[[], [], []], []], ids=["three-empty-rows", "no-rows"])
def test_writers_match_the_reference_bytes_on_tables_without_cells(tmp_path, rows):
    with pytest.raises(ValueError, match="at least one column"):
        ExportTable([], rows)
    if not rows:  # a column of no rows is a table without cells too
        for fast, reference, suffix in WRITERS:
            assert_same_bytes(fast, reference, suffix, ExportTable(["a"], rows), tmp_path)


def test_writers_match_the_reference_bytes_on_every_power_of_two(tmp_path):
    # the rounding interval of a power of two is narrower below; the JSON
    # kernel measures it as if it were not, which is right for every one
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    table = ExportTable(["c0", "c1"], np.stack([powers, -powers[::-1]], axis=1))
    for fast, reference, suffix in WRITERS:
        assert_same_bytes(fast, reference, suffix, table, tmp_path)


# cells whose last one, two, three or four 4-digit groups of D1..D16 are "0000"
ZERO_GROUP_CELLS = [1.234567890123, 1.2345678901, 1234.5678, 1.2345, 1.5, 0.25, 3.0, 1e-4, 1e5, 1e15, 5e15, 7.0, 4096.0]


def test_writers_take_trailing_zeros_from_every_zero_group_across_a_block_cut(tmp_path):
    width = 7
    step = exports._CELLS_PER_BLOCK // width  # the rows of one block
    rng = np.random.default_rng(13)
    rows = rng.standard_normal((2 * step, width)) * 10.0 ** rng.integers(-3, 6, (2 * step, width))
    cells = np.array(ZERO_GROUP_CELLS + [-v for v in ZERO_GROUP_CELLS])
    # the last rows of the first block and the first rows of the second
    rows[step - 2 : step + 2] = np.resize(cells, (4, width))
    rows[step + 2 : step + 2 + len(cells), 3] = cells
    table = ExportTable([f"c{k}" for k in range(width)], rows)
    for fast, reference, suffix in WRITERS:
        assert_same_bytes(fast, reference, suffix, table, tmp_path)


def _near_powers_of_ten():
    """Six doubles on either side of each power of ten from 10^-8 to 10^19, and the power."""
    cells = []
    for k in range(-8, 20):
        for direction in (math.inf, 0.0):
            cell = float(f"1e{k}")
            for _ in range(7):
                cells.append(cell)
                cell = math.nextafter(cell, direction)
    return np.array(cells)


NEAR_POWERS_OF_TEN = _near_powers_of_ten()


def _cells(source, seed, pool, size):
    rng = np.random.default_rng(seed)
    signs = rng.choice([1.0, -1.0], size)
    if source == "floats":
        return rng.choice(np.array(pool), size)
    if source == "bits":
        return rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64)
    if source == "powers":
        return rng.choice(NEAR_POWERS_OF_TEN, size) * signs
    # odd m * 2^e: some have 18 digits ending in 5, a tie at 17 digits
    m = (rng.integers(1, 2**53, size) >> rng.integers(0, 53, size)) | 1
    return np.ldexp(m.astype(np.float64), rng.integers(-70, 20, size)) * signs


any_cells = given(
    st.sampled_from(["floats", "bits", "powers", "dyadic"]),
    st.integers(1, 105),
    st.floats(0.0, 2.5),
    st.integers(0, 2**32 - 1),
    st.lists(st.floats(), min_size=1, max_size=40),
)


# a failing example is a whole table; shrinking one takes minutes, so report the first
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


def assert_same_bytes_on_any_cells(writer, where, source, width, blocks, seed, pool):
    # up to two and a half blocks of whole rows, so rows cross block ends
    n_rows = int(blocks * max(1, exports._CELLS_PER_BLOCK // width))
    rows = _cells(source, seed, pool, n_rows * width).reshape(n_rows, width)
    table = ExportTable([f"c{k}" for k in range(width)], rows)
    assert_same_bytes(*writer, table, where)


@settings(deadline=None, max_examples=80, phases=NO_SHRINK)
@any_cells
def test_csv_matches_the_reference_bytes_on_any_cells(tmp_path_factory, source, width, blocks, seed, pool):
    assert_same_bytes_on_any_cells(WRITERS[0], tmp_path_factory.mktemp("csv"), source, width, blocks, seed, pool)


@settings(deadline=None, max_examples=80, phases=NO_SHRINK)
@any_cells
def test_json_matches_the_reference_bytes_on_any_cells(tmp_path_factory, source, width, blocks, seed, pool):
    assert_same_bytes_on_any_cells(WRITERS[1], tmp_path_factory.mktemp("json"), source, width, blocks, seed, pool)


def assert_same_bytes_off_log10(writer, where, monkeypatch):
    # a decimal exponent one too high or one too low sends the cell to the writer's own text
    rng = np.random.default_rng(3)
    cells = np.concatenate([NEAR_POWERS_OF_TEN, rng.standard_normal(2000) * 10.0 ** rng.integers(-6, 19, 2000)])
    table = ExportTable(["c0", "c1"], cells.reshape(-1, 2))
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + rng.integers(-1, 2, a.shape))
    assert_same_bytes(*writer, table, where)


def test_csv_bytes_do_not_rest_on_log10(tmp_path, monkeypatch):
    assert_same_bytes_off_log10(WRITERS[0], tmp_path, monkeypatch)


def test_json_bytes_do_not_rest_on_log10(tmp_path, monkeypatch):
    assert_same_bytes_off_log10(WRITERS[1], tmp_path, monkeypatch)


def test_svg_points_match_the_reference_on_edge_values(tmp_path, monkeypatch):
    xs = np.array([-0.0, 5e-324, 1e-300, 3.0, 1 / 3, 2.5e-7, 1e6])
    series = [(xs, xs[::-1] * 1e5, "#000000", 1.0), (xs, -xs, "#777777", 1.2), ([0.0], [7], "#222266", 1.6)]
    emit_svg(series, tmp_path / "fast.svg", "x", "y")
    monkeypatch.setattr(exports, "_svg_points", reference_svg_points)
    emit_svg(series, tmp_path / "reference.svg", "x", "y")
    assert (tmp_path / "fast.svg").read_bytes() == (tmp_path / "reference.svg").read_bytes()


def _pixel_cells():
    """Every exact tie of ``%.6g`` in [10, 1000), both neighbours of every 6-digit midpoint in [50, 750], edge cells."""
    # v * 10^4 (below 100) or v * 10^3 (from 100) is a half-integer at an odd multiple of 1/32 or 1/16
    ties = np.concatenate([np.arange(321, 3200, 2) / 32, np.arange(1601, 16000, 2) / 16])
    # (2N + 1) / (2 * 10^d) is the double nearest the midpoint: one neighbour, the other beside it
    nearest = np.concatenate([np.arange(1000001, 2000000, 2) / 2e4, np.arange(200001, 1500000, 2) / 2e3])
    edges = [99.99995, 999.9995, 10.0, 1000.0, 750.0, math.nan, math.inf, -math.inf, -0.0, 5e-324]
    return np.concatenate([ties, nearest, np.nextafter(nearest, 0.0), np.nextafter(nearest, math.inf), edges])


def test_svg_points_match_the_reference_on_every_tie_and_midpoint():
    cells = _pixel_cells()
    assert (cells >= 50).sum() > 3 * 1_150_000
    for start in range(0, len(cells), 2**18):  # even chunks, so each holds whole pairs
        chunk = cells[start : start + 2**18]
        # reference_svg_points' bytes, from one "%" over the chunk: an f-string per pair takes seconds more
        reference = " ".join(["%.6g,%.6g"] * (len(chunk) // 2)) % tuple(chunk.tolist())
        assert exports._svg_points(chunk[0::2], chunk[1::2]) == reference, start


def _pixel_source(source, seed, pool, size):
    rng = np.random.default_rng(seed)
    if source == "pixels":
        return rng.uniform(0.0, 1100.0, size)
    if source == "ticks":  # dyadic pixels, many of them ties at 6 digits
        return rng.integers(0, 2**21, size) / 2.0 ** rng.integers(0, 12, size)
    return _cells(source, seed, pool, size)


@settings(deadline=None, max_examples=80, phases=NO_SHRINK)
@given(
    st.sampled_from(["pixels", "ticks", "floats", "bits", "powers", "dyadic"]),
    st.integers(0, 3000),
    st.integers(0, 2**32 - 1),
    st.lists(st.floats(), min_size=1, max_size=40),
)
def test_svg_points_match_the_reference_on_any_cells(source, n_pairs, seed, pool):
    cells = _pixel_source(source, seed, pool, 2 * n_pairs)
    px, py = cells[0::2], cells[1::2]
    assert exports._svg_points(px, py) == reference_svg_points(px, py)


@pytest.mark.parametrize(
    "fig, plot",
    [("fig2", "time-series"), ("fig6", "phase:x-vs-s"), ("fig12", "phase:r-vs-y"), ("fig8", "components")],
)
def test_scenario_files_match_the_reference_bytes(tmp_path, monkeypatch, fig, plot):
    from rfa.cli import presets

    scenario = presets.preset_config(fig, t_span=(0.0, 3.0), dt=0.01, plot=plot)
    fast = presets.run_scenario(scenario, out_dir=tmp_path / "fast", formats=("csv", "json", "svg"))[1]
    monkeypatch.setattr(presets, "export_csv", reference_csv)
    monkeypatch.setattr(presets, "export_json", reference_json)
    monkeypatch.setattr(exports, "_svg_points", reference_svg_points)
    reference = presets.run_scenario(scenario, out_dir=tmp_path / "reference", formats=("csv", "json", "svg"))[1]
    assert [path.name for path in fast] == [path.name for path in reference]
    for fast_path, reference_path in zip(fast, reference):
        assert fast_path.read_bytes() == reference_path.read_bytes(), fast_path.name


def _full_resolution_table():
    """10001 rows x 105 columns: a full-resolution 51-alpha table with two variables."""
    rng = np.random.default_rng(7)
    row = (rng.standard_normal(105) * 10.0 ** rng.integers(-5, 5, 105)).tolist()
    return ExportTable(["t"] + [f"c{k}" for k in range(104)], [row] * 10001)


def test_writers_hold_a_block_not_the_document(tmp_path):
    # A writer that builds the whole document as one string peaks above the file
    # size (22 MB here); the block writers measured 181-182 bytes per cell of a
    # block, 2.8 MiB (279-280 while every temporary lived to the end of the block).
    table = _full_resolution_table()
    for writer in (export_csv, export_json):
        target = tmp_path / f"big.{writer.__name__}"
        tracemalloc.start()
        try:
            writer(table, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 320 * exports._CELLS_PER_BLOCK, (writer.__name__, peak, target.stat().st_size)


# -- the reader against its oracle: the doubles of np.loadtxt, bit for bit ----


def reference_read_csv(path):
    """``csv`` reads the header and ``np.loadtxt`` the body."""
    with open(path, newline="") as fh:
        columns = next(csv.reader(fh), None)
        if columns is None:
            raise ValueError(f"{path} is empty: no header")
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    return ExportTable(columns, rows)


def assert_reads_as_loadtxt(path):
    """``read_csv`` gives the oracle's columns and bits, or both raise ``ValueError``."""
    try:
        want = reference_read_csv(path)
    except ValueError:
        with pytest.raises(ValueError):
            read_csv(path)
        return
    got = read_csv(path)
    assert got.columns == want.columns
    assert_same_bits(got.rows, want.rows)


# texts np.loadtxt reads or refuses that the writer never writes
ODD_CELLS = [" 1.5", "+1.5", ".5", "5.", "-.5", "1e5", "-2.5E-3", "inf", "-Infinity", "nan", "-nan", "1_0", "x", "",
             "2#3", "1.2.3", ".", "-", "+", "1 2", "-1-", "\t7\x0b", "0x10", "1e", "00012.5000", "123456789012345678",
             "0.1234567890123456789012", "-98765432109876543210.5", "0.00000000000000000000001"]


@settings(deadline=None, max_examples=80, phases=NO_SHRINK)
@given(
    st.sampled_from(["floats", "bits", "powers", "dyadic"]),
    st.integers(1, 12),
    st.integers(0, 40),
    st.integers(0, 2**32 - 1),
    st.lists(st.floats(), min_size=1, max_size=40),
    st.lists(st.tuples(st.sampled_from(["odd", "blank", "short", "long"]), st.integers(0, 2**16),
                       st.sampled_from(ODD_CELLS)), max_size=4),
    st.sampled_from(["\r\n", "\n", "\r"]),
    st.booleans(),
    st.sampled_from([8, 64, 1024, exports._CHUNK_BYTES]),
)
def test_read_csv_matches_loadtxt_on_any_text(tmp_path_factory, source, width, n_rows, seed, pool, edits, line_end,
                                              final_line_end, chunk):
    where = tmp_path_factory.mktemp("read")
    cells = _cells(source, seed, pool, n_rows * width).reshape(n_rows, width)
    reference_csv(ExportTable([f"c{k}" for k in range(width)], cells), where / "written.csv")
    header, *rows = [line.split(",") for line in (where / "written.csv").read_bytes().decode().split("\r\n")[:-1]]
    for edit, at, odd in edits:
        if edit == "blank":
            rows.insert(at % (len(rows) + 1), [""])
        elif rows:
            row = rows[at % len(rows)]
            if edit == "odd" and row:
                row[at % len(row)] = odd
            elif edit == "odd":  # a one-cell row that lost its cell to "short"
                row.append(odd)
            elif edit == "short":
                del row[-1:]
            else:
                row.append("1")
    text = line_end.join(",".join(row) for row in [header, *rows]) + line_end * final_line_end
    (where / "edited.csv").write_text(text, newline="")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exports, "_CHUNK_BYTES", chunk)
        assert_reads_as_loadtxt(where / "edited.csv")


@pytest.mark.parametrize("chunk", [8, 16, 64])
@pytest.mark.parametrize("line_end", ["\r\n", "\n", "\r"])
def test_read_csv_carries_rows_across_chunks(tmp_path, monkeypatch, chunk, line_end):
    # every line end, a CRLF among them, falls on a chunk's end for one of the sizes
    monkeypatch.setattr(exports, "_CHUNK_BYTES", chunk)
    body = ["0.5,-1", "12345.678901234567,1e-300", "", "7,-0", "-0.0001,3.25"]
    for final in ("", line_end):
        target = tmp_path / "rows.csv"
        target.write_text(line_end.join(["a,b", *body]) + final, newline="")
        assert_reads_as_loadtxt(target)
        assert read_csv(target).rows.shape == (4, 2)


def test_read_csv_strips_unicode_spaces_as_loadtxt_does(tmp_path):
    # the cells leave the kernel, so the file's own encoding decodes them before the strip
    target = tmp_path / "spaces.csv"
    target.write_bytes("a,b\r\n\u00a01.5,2\u2003\r\n".encode())  # a no-break space and an em space
    assert_reads_as_loadtxt(target)
    assert read_csv(target).rows.tolist() == [[1.5, 2.0]]


def _fixed_text(digits: str, k: int, negative: bool) -> str:
    """``digits`` (lead nonzero) scaled to the decimal exponent ``k``, in fixed notation."""
    if k < 0:
        text = "0." + "0" * (-k - 1) + digits
    elif len(digits) <= k + 1:
        text = digits + "0" * (k + 1 - len(digits))
    else:
        text = digits[: k + 1] + "." + digits[k + 1 :]
    return "-" * negative + text


def _scaled_text(v: int, f: int) -> str:
    """The integer ``v`` over 10^f, with f digits after the dot."""
    text = str(v).rjust(f + 1, "0")
    return f"{text[:-f]}.{text[-f:]}" if f else text


def _kernel_cells():
    """Every fixed shape of ``%.17g`` with random digits, powers of two, and cells whose candidate is a double off."""
    rng = np.random.default_rng(11)
    cells = [
        _fixed_text("".join(map(str, [rng.integers(1, 10), *rng.integers(0, 10, sig - 1)])), k, negative)
        for k in range(-4, 17) for sig in range(1, 18) for negative in (False, True) for _ in range(3)
    ]
    # the doubles at and beside every power of two in fixed notation: the gap below one is halved
    cells += [
        text for k in range(-14, 57) for x in (math.nextafter(2.0**k, 0.0), 2.0**k, math.nextafter(2.0**k, math.inf))
        for text in ("%.17g" % x, "%.17g" % -x) if "e" not in text
    ]
    # float(V) / 10^f above and below the double nearest V / 10^f; half of them
    # with V below 2^54, where V itself rounds
    off = {True: [], False: []}
    while min(map(len, off.values())) < 60:
        v = int(rng.integers(2**53 + 1, 2**54 if rng.random() < 0.5 else 10**17))
        f = int(rng.integers(1, 21))
        nearest, candidate = float(_scaled_text(v, f)), float(v) / 10.0**f
        if candidate != nearest:
            off[candidate > nearest].append(_scaled_text(v, f))
    # a tie between two doubles is the per-cell reader's to break
    return [cell for cell in cells if not _is_tie(cell)] + off[True][:60] + off[False][:60]


def _is_tie(text: str) -> bool:
    exact, nearest = Fraction(text), float(text)
    return any(exact == (Fraction(nearest) + Fraction(math.nextafter(nearest, toward))) / 2
               for toward in (-math.inf, math.inf))


def _write_cells(target, cells, width=7):
    cells = cells + ["0"] * (-len(cells) % width)
    rows = [",".join(cells[i : i + width]) for i in range(0, len(cells), width)]
    target.write_text("\r\n".join([",".join(f"c{k}" for k in range(width)), *rows, ""]), newline="")


def test_read_csv_reads_every_fixed_shape_in_the_kernel(tmp_path, monkeypatch):
    target = tmp_path / "cells.csv"
    _write_cells(target, _kernel_cells())
    want = reference_read_csv(target)

    def refuse(cell, encoding):
        raise AssertionError(f"{cell!r} was left to the per-cell reader")

    monkeypatch.setattr(exports, "_number", refuse)
    assert_same_bits(read_csv(target).rows, want.rows)


@pytest.mark.parametrize("width", [1, 7])
def test_writers_write_every_fixed_shape_in_the_kernel(tmp_path, monkeypatch, width):
    cells = np.array([float(text) for text in _kernel_cells()])
    left = []

    def text(v):
        left.append(v)
        return json.dumps(v)

    monkeypatch.setattr(exports, "_JSON", dataclasses.replace(exports._JSON, text=text))
    table = ExportTable([f"c{k}" for k in range(width)], cells.reshape(-1, width))
    for fast, reference, suffix in WRITERS:
        assert_same_bytes(fast, reference, suffix, table, tmp_path)
    # a repr in fixed notation with at most 15 digits is always decided in the kernel
    short = [v for v in left if "e" not in repr(v) and len(repr(abs(v)).replace(".", "").strip("0")) <= 15]
    assert not short, (len(short), len(left), short[:5])


def test_read_csv_matches_loadtxt_on_both_sides_of_two_to_the_53_and_on_ties(tmp_path):
    # 2^53 + 1 and 2^53 + 3 are ties at f = 0, and n + 1/2 for n in [2^52, 2^53)
    # lies halfway between two doubles: ties go to the even one
    halves = [f"{n}.5" for n in [*range(2**52 - 2, 2**52 + 3), *np.random.default_rng(5).integers(2**52, 2**53, 60)]]
    target = tmp_path / "cells.csv"
    _write_cells(target, [_scaled_text(2**53 + d, f) for d in range(-3, 4) for f in range(23)] + halves)
    assert_reads_as_loadtxt(target)


def test_reader_holds_a_chunk_not_the_document(tmp_path):
    table = _full_resolution_table()
    target = tmp_path / "big.csv"
    export_csv(table, target)
    tracemalloc.start()
    try:
        back = read_csv(target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_bits(back.rows, table.rows)
    assert peak < back.rows.nbytes + target.stat().st_size / 4, (peak, back.rows.nbytes, target.stat().st_size)
