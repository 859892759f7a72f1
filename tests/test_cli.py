import importlib
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import forecastability
from forecastability import (
    EstimatorConfig,
    GaussianProcessSpec,
    InformationSetSpec,
    ar1_profile,
    estimate_profile,
    simulate,
)
from forecastability import cli
from forecastability._svg import render_profile_svg
from forecastability.cli import main, parse_horizons, read_probe_csv, read_series_csv

LN2 = math.log(2.0)


@pytest.fixture()
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output + str(result.exception)
    return result


def read_table(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def assert_contract_exit(result, code):
    """Exit with the given code and one ``error:`` line, not a traceback."""
    assert result.exit_code == code, result.output + repr(result.exception)
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, result.stderr
    return errors[0]


@pytest.mark.parametrize("command", ["analytic", "profile", "significance", "decompose"])
def test_lags_below_one_exit_2(runner, tmp_path, command):
    data = tmp_path / "s.csv"
    data.write_text("\n".join(str(float(v % 7)) for v in range(50)) + "\n")
    probe = tmp_path / "probe.csv"
    probe.write_text("t_index,horizon,log_density\n10,1,-1.0\n11,1,-1.0\n")
    args = {
        "analytic": ["--model", "ar1", "--phi", "0.5", "--horizons", "1"],
        "profile": [str(data), "--horizons", "1"],
        "significance": [str(data), "--horizons", "1", "--replicates", "19"],
        "decompose": [str(data), str(probe)],
    }[command]
    result = runner.invoke(main, [command, *args, "--lags", "0"])
    assert "--lags" in assert_contract_exit(result, 2)


@pytest.mark.parametrize("command", ["profile", "significance", "decompose"])
def test_seed_below_zero_exit_2(runner, tmp_path, command):
    data = tmp_path / "s.csv"
    data.write_text("\n".join(str(float(v % 7)) for v in range(50)) + "\n")
    probe = tmp_path / "probe.csv"
    probe.write_text("t_index,horizon,log_density\n10,1,-1.0\n11,1,-1.0\n")
    args = {
        "profile": [str(data), "--horizons", "1"],
        "significance": [str(data), "--horizons", "1", "--replicates", "19"],
        "decompose": [str(data), str(probe)],
    }[command]
    result = runner.invoke(main, [command, *args, "--seed", "-1"])
    assert assert_contract_exit(result, 2) == "error: --seed must be >= 0, got -1"


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_simulate_n_below_two_exit_2(runner, tmp_path, n):
    # a series needs two values, so one is a usage error, not a traceback
    out = tmp_path / "x.csv"
    result = runner.invoke(main, ["simulate", "--model", "ar1", "--phi", "0.5",
                                  "--n", n, "--out", str(out)])
    assert assert_contract_exit(result, 2) == f"error: --n must be >= 2, got {n}"
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "analytic"])
@pytest.mark.parametrize("flags", [["--Phi", "0.8"], ["--s", "12"],
                                   ["--Phi", "0.8", "--s", "12"]])
def test_seasonal_flags_with_ar1_exit_2(runner, tmp_path, command, flags):
    out = tmp_path / "x.csv"
    args = {"simulate": ["--n", "10"], "analytic": ["--horizons", "1"]}[command]
    result = runner.invoke(main, [command, "--model", "ar1", "--phi", "0.5", *flags,
                                  *args, "--out", str(out)])
    message = assert_contract_exit(result, 2)
    assert message == "error: ar1 model takes neither --Phi nor --s"
    assert not out.exists()


# decompose reads its one-column series as a probe file too, which would fail
# on its column count if --k were checked only after the files are read
@pytest.mark.parametrize("command,flags,first", [
    ("profile", ["--lags", "0", "--seed", "-1", "--horizons", "0"], "--lags"),
    ("profile", ["--seed", "-1", "--horizons", "0", "--lags", "0"], "--seed"),
    ("profile", ["--horizons", "0", "--lags", "0", "--seed", "-1"], "horizons"),
    ("profile", ["--k", "0", "--lags", "0", "--horizons", "1"], "--k"),
    ("significance", ["--replicates", "5", "--lags", "0", "--horizons", "1"],
     "--replicates"),
    ("decompose", ["--k", "0"], "--k"),
])
def test_first_invalid_flag_reported_in_command_line_order(runner, tmp_path,
                                                           command, flags, first):
    data = tmp_path / "s.csv"
    data.write_text("\n".join(str(float(v % 7)) for v in range(50)) + "\n")
    inputs = [str(data)] * (2 if command == "decompose" else 1)
    result = runner.invoke(main, [command, *inputs, *flags])
    assert first in assert_contract_exit(result, 2)


@pytest.mark.parametrize("command,flag", [
    ("simulate", "--out"), ("analytic", "--out"), ("analytic", "--plot"),
    ("profile", "--plot"), ("significance", "--out"), ("decompose", "--out"),
])
def test_unwritable_output_exit_2(runner, tmp_path, command, flag):
    series = simulate(GaussianProcessSpec.ar1(0.5), 200, seed=1)
    data = tmp_path / "s.csv"
    data.write_text("\n".join(repr(float(v)) for v in series.values) + "\n")
    probe = tmp_path / "probe.csv"
    probe.write_text("".join(f"{t},1,-1.0\n" for t in range(10, 30)))
    args = {
        "simulate": ["--model", "ar1", "--phi", "0.5", "--n", "10"],
        "analytic": ["--model", "ar1", "--phi", "0.5", "--horizons", "1"],
        "profile": [str(data), "--horizons", "1"],
        "significance": [str(data), "--horizons", "1", "--replicates", "19"],
        "decompose": [str(data), str(probe)],
    }[command]
    target = tmp_path / "missing" / "x.out"
    result = runner.invoke(main, [command, *args, flag, str(target)])
    assert f"cannot write {target}: " in assert_contract_exit(result, 2)


# Each value is beyond what a numpy float64 array length or a Python float can
# hold, so it is rejected before anything is allocated.
@pytest.mark.parametrize("flag,args", [
    ("--n", ["simulate", "--model", "ar1", "--phi", "0.5",
             "--n", "99999999999999999999"]),
    ("--burn-in", ["simulate", "--model", "ar1", "--phi", "0.5", "--n", "10",
                   "--burn-in", "4611686018427387904"]),
    ("--s", ["simulate", "--model", "seasonal", "--phi", "0.5", "--Phi", "0.8",
             "--s", "99999999999999999999", "--n", "10"]),
    ("--s", ["analytic", "--model", "seasonal", "--phi", "0.5", "--Phi", "0.8",
             "--s", "1" + "0" * 309, "--horizons", "1"]),
    ("--horizons", ["analytic", "--model", "seasonal", "--phi", "0.5", "--Phi",
                    "0.8", "--s", "12", "--horizons", "99999999999999999999"]),
    ("--lags", ["analytic", "--model", "seasonal", "--phi", "0.5", "--Phi", "0.8",
                "--s", "12", "--horizons", "1", "--lags", "99999999999999999999"]),
], ids=["simulate-n", "simulate-burn-in", "simulate-s", "analytic-s",
        "analytic-horizons", "analytic-lags"])
def test_unrepresentable_integer_flag_exit_2(runner, tmp_path, flag, args):
    if args[0] == "simulate":
        args = [*args, "--out", str(tmp_path / "x.csv")]
    result = runner.invoke(main, args)
    assert assert_contract_exit(result, 2).startswith(f"error: {flag} must be <= ")
    assert not (tmp_path / "x.csv").exists()


# 10**17 float64 values need 711 PiB, more than any 64-bit address space can
# map, so numpy refuses the array before it takes any memory.
@pytest.mark.parametrize("args", [
    ["simulate", "--model", "ar1", "--phi", "0.5", "--n", "100000000000000000"],
    ["analytic", "--model", "seasonal", "--phi", "0.5", "--Phi", "0.8", "--s", "12",
     "--horizons", "100000000000000000"],
], ids=["simulate", "analytic"])
def test_refused_allocation_exit_2(runner, tmp_path, args):
    if args[0] == "simulate":
        args = [*args, "--out", str(tmp_path / "x.csv")]
    result = runner.invoke(main, args)
    assert "allocate" in assert_contract_exit(result, 2)
    assert not (tmp_path / "x.csv").exists()


def run_python(*args, **kwargs):
    """Run ``python *args`` in a fresh interpreter that imports this package."""
    src = str(Path(forecastability.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


def test_cli_import_leaves_scipy_signal_spatial_and_linalg_unloaded():
    run_python("-c", "import sys, forecastability, forecastability.cli; "
               "loaded = {'scipy.signal', 'scipy.spatial', 'scipy.linalg'} "
               "& set(sys.modules); assert not loaded, loaded", check=True)


@pytest.mark.parametrize("command,rows", [
    (["analytic", "--lags", "13", "--horizons", "1..36"], 36),
    (["simulate", "--n", "20000"], 20000),
], ids=["analytic", "simulate"])
def test_command_loads_no_scipy(tmp_path, command, rows):
    out = tmp_path / "out.csv"
    args = [command[0], "--model", "seasonal", "--phi", "0.5", "--Phi", "0.8", "--s", "12",
            *command[1:], "--out", str(out)]
    run_python("-c", "import sys; from forecastability.cli import main; "
               f"main({args!r}, standalone_mode=False); "
               "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy' "
               "or m.startswith('concurrent.futures')]; "
               "assert not loaded, loaded", check=True)
    assert out.read_text().count("\n") > rows


def test_console_script_target_prints_help(runner):
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    # a pattern, not tomllib, which Python 3.10 lacks
    script = re.search(r'^\[project\.scripts\]\nforecastability = "([\w.]+):(\w+)"$',
                       pyproject.read_text(), re.MULTILINE)
    assert script, "pyproject.toml declares no forecastability console script"
    target = getattr(importlib.import_module(script[1]), script[2])
    result = runner.invoke(target, ["--help"])
    assert result.exit_code == 0, result.output + repr(result.exception)
    assert result.output.startswith("Usage: ")
    assert all(command in result.output for command in ("profile", "significance"))


def test_overlong_horizon_range_exit_2(runner, tmp_path):
    data = tmp_path / "s.csv"
    data.write_text("\n".join(str(float(v % 7)) for v in range(50)) + "\n")
    result = runner.invoke(main, ["profile", str(data),
                                  "--horizons", "1..99999999999999999999"])
    assert "1..99999999999999999999" in assert_contract_exit(result, 2)


@pytest.mark.parametrize("command", ["profile", "decompose"])
def test_file_that_is_not_utf8_exit_2(runner, tmp_path, command):
    data = tmp_path / "s.csv"
    data.write_text("\n".join(str(float(v % 7)) for v in range(50)) + "\n")
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xff\xfe1.0\n2.0\n")
    args = {
        "profile": [str(bad), "--horizons", "1"],
        "decompose": [str(data), str(bad)],
    }[command]
    result = runner.invoke(main, [command, *args])
    assert f"cannot read {bad}: " in assert_contract_exit(result, 2)


class TestParsing:
    def test_horizon_forms(self):
        assert parse_horizons("1..5") == (1, 2, 3, 4, 5)
        assert parse_horizons("1,2,12") == (1, 2, 12)
        assert parse_horizons("1..3,12,24") == (1, 2, 3, 12, 24)

    @pytest.mark.parametrize("bad", ["", "0..3", "5..1", "2,2", "3,1", "a..b", "1.5",
                                     "1..99999999999999999999"])
    def test_horizon_rejects(self, bad):
        from forecastability.cli import ParseError

        with pytest.raises(ParseError):
            parse_horizons(bad)

    def test_series_csv_single_column_with_header(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("value\n1.5\n2.5\n3.5\n")
        ts = read_series_csv(str(f))
        assert ts.values.tolist() == [1.5, 2.5, 3.5]

    def test_series_csv_index_value_pairs(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("0,10.0\n1,11.0\n2,12.0\n")
        ts = read_series_csv(str(f))
        assert ts.values.tolist() == [10.0, 11.0, 12.0]

    def test_series_csv_byte_order_mark(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_bytes(b"\xef\xbb\xbf1.5\n2.5\n3.5\n")
        assert read_series_csv(str(f)).values.tolist() == [1.5, 2.5, 3.5]

    def test_probe_csv_byte_order_mark(self, tmp_path):
        f = tmp_path / "probe.csv"
        f.write_bytes(b"\xef\xbb\xbf5,1,-1.0\n6,1,-2.0\n")
        probe = read_probe_csv(str(f))[1]
        assert probe.eval_indices.tolist() == [5, 6]
        assert probe.log_densities.tolist() == [-1.0, -2.0]

    def test_series_csv_malformed(self, tmp_path):
        from forecastability.cli import ParseError

        f = tmp_path / "s.csv"
        f.write_text("value\n1.0\nnot_a_number\n")
        with pytest.raises(ParseError):
            read_series_csv(str(f))

    @pytest.mark.parametrize("reader, text", [
        (read_series_csv, "value\n1.0\n2.0,3.0\n4.0\nabc\n"),
        (read_probe_csv, "t,h,ld\n5,1,-1.0\n6,1\n7,1,-2.0\nabc\n"),
    ], ids=["series", "probe"])
    def test_first_defect_in_file_order_is_reported(self, tmp_path, reader, text):
        from forecastability.cli import ParseError

        f = tmp_path / "f.csv"
        f.write_text(text)
        bad = re.escape(repr(text.splitlines()[2]))
        with pytest.raises(ParseError, match=f"malformed row 2: {bad}$"):
            reader(str(f))

    def test_probe_csv_first_row_width_before_a_later_defect(self, tmp_path):
        from forecastability.cli import ParseError

        f = tmp_path / "probe.csv"
        f.write_text("t,h,ld\n5,1\n6,1,-1.0\nabc\n")
        with pytest.raises(ParseError, match="expected 3 columns, found 2$"):
            read_probe_csv(str(f))


class TestSimulateCommand:
    def test_deterministic_bytes(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--model", "ar1", "--phi", "0.95", "--n", "4000",
                "--seed", "7"]
        run_ok(runner, args + ["--out", str(a)])
        run_ok(runner, args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 10])
    def test_chunked_rows_are_the_whole_path(self, runner, tmp_path, monkeypatch, n):
        monkeypatch.setattr(cli, "_ROWS_PER_CHUNK", 3)
        out = tmp_path / "sim.csv"
        run_ok(runner, ["simulate", "--model", "ar1", "--phi", "0.5", "--n", str(n),
                        "--seed", "2", "--out", str(out)])
        values = simulate(GaussianProcessSpec.ar1(0.5), n, seed=2).values
        assert out.read_text() == "value\n" + "".join(f"{v!r}\n" for v in values.tolist())

    def test_sample_autocorrelation(self, runner, tmp_path):
        out = tmp_path / "sim.csv"
        run_ok(runner, ["simulate", "--model", "ar1", "--phi", "0.95",
                        "--n", "10000", "--seed", "3", "--out", str(out)])
        y = np.array([float(v) for v in out.read_text().splitlines()[1:]])
        y = y - y.mean()
        assert (y[:-1] @ y[1:]) / (y @ y) == pytest.approx(0.95, abs=0.02)

    def test_nonstationary_rejected(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", "--model", "ar1", "--phi", "1.0",
                                      "--n", "100", "--out", str(tmp_path / "x.csv")])
        assert result.exit_code == 2

    @pytest.mark.parametrize("flag,value", [
        ("--n", "0"), ("--burn-in", "-1"), ("--seed", "-1"),
        ("--phi", "nan"), ("--sigma2", "inf"),
    ])
    def test_out_of_range_flag_exit_2(self, runner, tmp_path, flag, value):
        options = {"--phi": "0.5", "--n": "100", "--burn-in": "10", "--seed": "0",
                   "--sigma2": "1.0", flag: value}
        args = [item for pair in options.items() for item in pair]
        result = runner.invoke(main, ["simulate", "--model", "ar1", *args,
                                      "--out", str(tmp_path / "x.csv")])
        assert_contract_exit(result, 2)

    def test_seasonal_requires_parameters(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", "--model", "seasonal",
                                      "--phi", "0.5", "--n", "100",
                                      "--out", str(tmp_path / "x.csv")])
        assert result.exit_code == 2


class TestAnalyticCommand:
    def test_ar1_values(self, runner, tmp_path):
        out = tmp_path / "prof.csv"
        run_ok(runner, ["analytic", "--model", "ar1", "--phi", "0.3",
                        "--horizons", "1..5", "--out", str(out)])
        rows = read_table(out)
        assert rows[0]["horizon"] == "1"
        assert float(rows[0]["f_nats"]) == pytest.approx(0.047155339735620645, abs=1e-9)

    def test_ar1_same_profile_at_every_lag_window(self, runner):
        base = ["analytic", "--model", "ar1", "--phi", "0.99", "--horizons", "1..48"]
        one = run_ok(runner, base + ["--lags", "1"]).stdout.splitlines()
        wide = run_ok(runner, base + ["--lags", "13"]).stdout.splitlines()
        assert [line.split(",")[1] for line in wide] == [
            line.split(",")[1] for line in one
        ]

    def test_seasonal_period_beyond_int64(self, runner):
        result = run_ok(runner, ["analytic", "--model", "seasonal", "--phi", "0.5",
                                 "--Phi", "0.8", "--s", "99999999999999999999",
                                 "--horizons", "1..3"])
        values = [line.split(",")[1] for line in result.stdout.splitlines()[1:]]
        expected = ar1_profile(0.5, (1, 2, 3)).values_nats
        assert values == [format(v, ".9g") for v in expected]
        assert values[0] == "0.143841036"

    def test_ar1_zero_phi_all_zero(self, runner):
        result = run_ok(runner, ["analytic", "--model", "ar1", "--phi", "0",
                                 "--horizons", "1..4"])
        values = [line.split(",")[1] for line in result.output.splitlines()[1:]]
        assert all(float(v) == 0.0 for v in values)

    def test_seasonal_reference_profile(self, runner, tmp_path):
        out = tmp_path / "seasonal.csv"
        run_ok(runner, ["analytic", "--model", "seasonal", "--phi", "0.5",
                        "--Phi", "0.8", "--s", "12", "--lags", "1",
                        "--horizons", "1..36", "--out", str(out)])
        rows = {int(r["horizon"]): float(r["f_nats"]) for r in read_table(out)}
        assert rows[12] == pytest.approx(0.511021, abs=0.01)
        assert min(rows[h] for h in range(5, 10)) < 0.005

    def test_bits_conversion_exact(self, runner, tmp_path):
        nats_out = tmp_path / "nats.csv"
        bits_out = tmp_path / "bits.csv"
        base = ["analytic", "--model", "ar1", "--phi", "0.6", "--horizons", "1..6"]
        run_ok(runner, base + ["--out", str(nats_out)])
        run_ok(runner, base + ["--units", "bits", "--out", str(bits_out)])
        for n_row, b_row in zip(read_table(nats_out), read_table(bits_out)):
            expected = float(n_row["f_nats"]) / LN2
            assert float(b_row["f_bits"]) == pytest.approx(expected, rel=1e-8)

    def test_invalid_phi_exit_2(self, runner):
        result = runner.invoke(main, ["analytic", "--model", "ar1", "--phi", "1.2",
                                      "--horizons", "1..3"])
        assert result.exit_code == 2

    def test_plot_svg_structure(self, runner, tmp_path):
        svg_path = tmp_path / "plot.svg"
        run_ok(runner, ["analytic", "--model", "seasonal", "--phi", "0.5",
                        "--Phi", "0.8", "--s", "12", "--horizons", "1..36",
                        "--out", str(tmp_path / "t.csv"), "--plot", str(svg_path)])
        root = ET.fromstring(svg_path.read_text())
        assert root.tag.endswith("svg")
        ns = {"svg": "http://www.w3.org/2000/svg"}
        paths = root.findall(".//svg:path", ns)
        assert len(paths) >= 2  # axes plus one profile line
        texts = [t.text for t in root.findall(".//svg:text", ns)]
        assert "horizon" in texts
        assert any(t and t.startswith("forecastability") for t in texts)

    @pytest.mark.parametrize("values", [[0.0, 0.0, 0.0], [-0.2, -0.2, -0.2]])
    def test_flat_non_positive_profile_is_drawn_inside_the_axes(self, values):
        root = ET.fromstring(render_profile_svg([1, 2, 3], "flat", values, "f", "flat"))
        ns = {"svg": "http://www.w3.org/2000/svg"}
        line = root.findall(".//svg:path", ns)[-1].get("d").split()
        assert line[0] == "M" and len(line) == 9
        assert all(28 <= float(y) <= 480 - 48 for y in line[2::3])
        labels = [t.text for t in root.findall(".//svg:text[@text-anchor='end']", ns)]
        assert "0" in labels

    # The ticks step by 0.2 here.  Five float additions of 0.2 to 1.0 stop
    # short of 2.0, so the last tick once went unlabelled; near 2**52 and 2**53
    # the float multiples of 0.2 missed one end or the other.
    @pytest.mark.parametrize("lo", [1, 4503599627370490, 9007199254740990])
    def test_both_ends_of_a_two_horizon_axis_are_labelled(self, lo):
        root = ET.fromstring(render_profile_svg([lo, lo + 1], "two", [0.1, 0.2], "f", "two"))
        ns = {"svg": "http://www.w3.org/2000/svg"}
        labels = root.findall(".//svg:text[@font-size='11'][@text-anchor='middle']", ns)
        assert [t.text for t in labels] == [str(lo), str(lo + 1)]

    # Beyond 2**53 neighbouring horizons round to one float, so the axis
    # cannot place them: one such run used to loop forever, the other to end
    # in a ZeroDivisionError.  A real process, so that a hang hits the timeout.
    @pytest.mark.parametrize("horizons", ["100000000000000000,100000000000000016",
                                          "9007199254740993"])
    def test_plot_beyond_2_to_the_53_exit_2(self, tmp_path, horizons):
        out, svg = tmp_path / "e.csv", tmp_path / "e.svg"
        result = run_python("-m", "forecastability.cli", "analytic", "--model", "ar1",
                            "--phi", "0.5", "--horizons", horizons, "--out", str(out),
                            "--plot", str(svg), capture_output=True, text=True,
                            timeout=60)
        assert result.returncode == 2, result.stderr
        last = horizons.split(",")[-1]
        assert result.stderr == f"error: --plot needs horizons below 2**53, got {last}\n"
        assert not out.exists() and not svg.exists()

    def test_plot_just_below_2_to_the_53(self, tmp_path):
        svg = tmp_path / "e.svg"
        result = run_python("-m", "forecastability.cli", "analytic", "--model", "ar1",
                            "--phi", "0.5", "--horizons", "9007199254740990,9007199254740991",
                            "--out", str(tmp_path / "e.csv"), "--plot", str(svg),
                            capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        ns = {"svg": "http://www.w3.org/2000/svg"}
        labels = [int(t.text) for t in ET.fromstring(svg.read_text()).findall(
            ".//svg:text[@font-size='11'][@text-anchor='middle']", ns)]
        assert labels == [9007199254740990, 9007199254740991]


class TestProfileCommand:
    def test_white_noise_profile(self, runner, tmp_path):
        data = tmp_path / "wn.csv"
        run_ok(runner, ["simulate", "--model", "ar1", "--phi", "0", "--n", "2000",
                        "--seed", "1", "--out", str(data)])
        out = tmp_path / "prof.csv"
        run_ok(runner, ["profile", str(data), "--lags", "1",
                        "--horizons", "1..10", "--out", str(out)])
        rows = read_table(out)
        assert len(rows) == 10
        assert all(abs(float(r["f_nats"])) <= 0.03 for r in rows)
        assert all(r["gap"] == "0" for r in rows)

    def test_round_trip_matches_in_process(self, runner, tmp_path):
        data = tmp_path / "ar.csv"
        run_ok(runner, ["simulate", "--model", "ar1", "--phi", "0.95",
                        "--n", "3000", "--seed", "5", "--out", str(data)])
        out = tmp_path / "prof.csv"
        run_ok(runner, ["profile", str(data), "--lags", "1", "--horizons", "1..3",
                        "--k", "5", "--seed", "0", "--out", str(out)])
        series = simulate(GaussianProcessSpec.ar1(0.95), 3000, seed=5)
        expected = estimate_profile(
            series, InformationSetSpec(1, (1, 2, 3)), EstimatorConfig(k=5, seed=0)
        )
        for row, value in zip(read_table(out), expected.values_nats):
            assert row["f_nats"] == format(value, ".9g")

    def test_json_output_embeds_manifest(self, runner, tmp_path):
        data = tmp_path / "wn.csv"
        run_ok(runner, ["simulate", "--model", "ar1", "--phi", "0", "--n", "500",
                        "--seed", "2", "--out", str(data)])
        out = tmp_path / "prof.json"
        run_ok(runner, ["profile", str(data), "--horizons", "1..3",
                        "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["manifest"]["command"] == "profile"
        assert doc["manifest"]["seed"] == 0
        assert len(doc["rows"]) == 3
        assert {"horizon", "f_nats", "n_effective", "gap"} <= set(doc["rows"][0])

    def test_gap_warning_and_partial_output(self, runner, tmp_path):
        data = tmp_path / "short.csv"
        data.write_text("\n".join(str(float(v)) for v in range(40)) + "\n")
        out = tmp_path / "prof.csv"
        result = runner.invoke(
            main, ["profile", str(data), "--horizons", "1,38", "--out", str(out)]
        )
        assert result.exit_code == 0
        assert "warning: horizon 38" in result.output
        rows = read_table(out)
        assert rows[1]["gap"] == "1" and rows[1]["f_nats"] == ""

    def test_all_gaps_exit_3(self, runner, tmp_path):
        data = tmp_path / "tiny.csv"
        data.write_text("\n".join(str(float(v)) for v in range(10)) + "\n")
        result = runner.invoke(main, ["profile", str(data), "--horizons", "8,9"])
        assert result.exit_code == 3

    def test_constant_series_exit_2(self, runner, tmp_path):
        data = tmp_path / "flat.csv"
        data.write_text("value\n" + "1.0\n" * 50)
        result = runner.invoke(main, ["profile", str(data), "--horizons", "1"])
        assert "standardized" in assert_contract_exit(result, 2)

    def test_parse_error_exit_2(self, runner, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("a,b,c\n1,2,3\n")
        result = runner.invoke(main, ["profile", str(data), "--horizons", "1..3"])
        assert result.exit_code == 2

    def test_units_bits(self, runner, tmp_path):
        data = tmp_path / "wn.csv"
        run_ok(runner, ["simulate", "--model", "ar1", "--phi", "0.9", "--n", "800",
                        "--seed", "4", "--out", str(data)])
        nats = run_ok(runner, ["profile", str(data), "--horizons", "1"]).output
        bits = run_ok(runner, ["profile", str(data), "--horizons", "1",
                               "--units", "bits"]).output
        v_nats = float(nats.splitlines()[1].split(",")[1])
        v_bits = float(bits.splitlines()[1].split(",")[1])
        assert v_bits == pytest.approx(v_nats / LN2, rel=1e-8)


class TestSignificanceCommand:
    def test_replicate_floor_exit_2(self, runner, tmp_path):
        data = tmp_path / "wn.csv"
        run_ok(runner, ["simulate", "--model", "ar1", "--phi", "0", "--n", "300",
                        "--seed", "0", "--out", str(data)])
        result = runner.invoke(main, ["significance", str(data), "--horizons", "1",
                                      "--replicates", "5"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("replicates", [2 ** 63, 10 ** 22])
    def test_replicates_beyond_sys_maxsize_exit_2(self, runner, tmp_path, replicates):
        data = tmp_path / "ar.csv"
        run_ok(runner, ["simulate", "--model", "ar1", "--phi", "0.5", "--n", "300",
                        "--seed", "0", "--out", str(data)])
        result = runner.invoke(main, ["significance", str(data), "--horizons", "1",
                                      "--replicates", str(replicates)])
        message = assert_contract_exit(result, 2)
        assert message == f"error: replicates must be <= {sys.maxsize}, got {replicates}"

    def test_all_gaps_exit_3(self, runner, tmp_path):
        data = tmp_path / "tiny.csv"
        data.write_text("\n".join(str(float(v)) for v in range(10)) + "\n")
        result = runner.invoke(main, ["significance", str(data), "--horizons", "8,9",
                                      "--replicates", "19"])
        message = assert_contract_exit(result, 3)
        assert message == "error: insufficient data at every requested horizon"
        assert "warning: horizon 8" in result.stderr

    def test_white_noise_and_strong_dependence(self, runner, tmp_path):
        wn = tmp_path / "wn.csv"
        run_ok(runner, ["simulate", "--model", "ar1", "--phi", "0", "--n", "1000",
                        "--seed", "50", "--out", str(wn)])
        out = tmp_path / "sig.csv"
        run_ok(runner, ["significance", str(wn), "--horizons", "1",
                        "--replicates", "99", "--seed", "0", "--out", str(out)])
        row = read_table(out)[0]
        assert float(row["p_value"]) > 0.05
        ar = tmp_path / "ar.csv"
        run_ok(runner, ["simulate", "--model", "ar1", "--phi", "0.95", "--n", "1000",
                        "--seed", "60", "--out", str(ar)])
        run_ok(runner, ["significance", str(ar), "--horizons", "1",
                        "--replicates", "99", "--seed", "0", "--out", str(out)])
        row = read_table(out)[0]
        assert float(row["p_value"]) == 0.01
        assert float(row["null_q99"]) < float(row["observed_nats"])


class TestDecomposeCommand:
    @staticmethod
    def _write_fixture(tmp_path, runner):
        data = tmp_path / "ar.csv"
        run_ok(runner, ["simulate", "--model", "ar1", "--phi", "0.95",
                        "--n", "5000", "--seed", "11", "--out", str(data)])
        y = np.array([float(v) for v in data.read_text().splitlines()[1:]])
        idx = np.arange(1, len(y))
        resid = y[idx] - 0.95 * y[idx - 1]
        oracle = -0.5 * np.log(2 * np.pi) - resid ** 2 / 2.0
        mv = 1.0 / (1.0 - 0.95 ** 2)
        marginal = -0.5 * np.log(2 * np.pi * mv) - y[idx] ** 2 / (2 * mv)
        return data, idx, oracle, marginal

    @staticmethod
    def _probe_csv(path, idx, log_dens, horizon=1):
        lines = ["t_index,horizon,log_density"]
        lines += [f"{t},{horizon},{repr(float(v))}" for t, v in zip(idx, log_dens)]
        path.write_text("\n".join(lines) + "\n")

    def test_oracle_probe_ratio(self, runner, tmp_path):
        data, idx, oracle, _ = self._write_fixture(tmp_path, runner)
        probe = tmp_path / "probe.csv"
        self._probe_csv(probe, idx, oracle)
        out = tmp_path / "dec.csv"
        run_ok(runner, ["decompose", str(data), str(probe), "--out", str(out)])
        row = read_table(out)[0]
        assert 0.85 <= float(row["exploitation_ratio"]) <= 1.1
        assert float(row["pinsker_tv_bound"]) > 0.5
        assert row["low_forecastability"] == "0"

    def test_marginal_probe_ratio(self, runner, tmp_path):
        data, idx, _, marginal = self._write_fixture(tmp_path, runner)
        probe = tmp_path / "probe.csv"
        self._probe_csv(probe, idx, marginal)
        out = tmp_path / "dec.csv"
        run_ok(runner, ["decompose", str(data), str(probe), "--out", str(out)])
        row = read_table(out)[0]
        assert abs(float(row["exploitability_nats"])) <= 0.05

    def test_fano_column_with_alphabet(self, runner, tmp_path):
        data, idx, oracle, _ = self._write_fixture(tmp_path, runner)
        probe = tmp_path / "probe.csv"
        self._probe_csv(probe, idx, oracle)
        out = tmp_path / "dec.csv"
        run_ok(runner, ["decompose", str(data), str(probe), "--alphabet", "8",
                        "--out", str(out)])
        row = read_table(out)[0]
        assert "fano_min_error" in row and "fano_vacuous" in row

    def test_out_of_range_index_exit_2(self, runner, tmp_path):
        data, idx, oracle, _ = self._write_fixture(tmp_path, runner)
        probe = tmp_path / "probe.csv"
        self._probe_csv(probe, [9999999], [oracle[0]])
        result = runner.invoke(main, ["decompose", str(data), str(probe)])
        assert result.exit_code == 2

    def test_series_near_the_float_range(self, runner, tmp_path):
        series = simulate(GaussianProcessSpec.ar1(0.9), 300, seed=1)
        data = tmp_path / "huge.csv"
        data.write_text("".join(f"{float(v) * 1e160!r}\n" for v in series.values))
        probe = tmp_path / "probe.csv"
        probe.write_text("".join(f"{t},1,-368.0\n" for t in range(10, 60)))
        out = tmp_path / "dec.csv"
        run_ok(runner, ["decompose", str(data), str(probe), "--out", str(out)])
        row = read_table(out)[0]
        assert math.isfinite(float(row["marginal_entropy_nats"]))
        assert float(row["forecastability_nats"]) > 0.5

    def test_malformed_probe_exit_2(self, runner, tmp_path):
        data, *_ = self._write_fixture(tmp_path, runner)
        probe = tmp_path / "probe.csv"
        probe.write_text("t_index,horizon\n1,1\n")
        result = runner.invoke(main, ["decompose", str(data), str(probe)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("column", ["t_index", "horizon"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e30"])
    def test_non_finite_or_huge_index_exit_2(self, runner, tmp_path, column, value):
        data = tmp_path / "s.csv"
        data.write_text("\n".join(str(float(v % 7)) for v in range(50)) + "\n")
        t, h = (value, "1") if column == "t_index" else ("20", value)
        probe = tmp_path / "probe.csv"
        probe.write_text(f"t_index,horizon,log_density\n10,1,-1.0\n{t},{h},-1.0\n")
        result = runner.invoke(main, ["decompose", str(data), str(probe)])
        assert "int64" in assert_contract_exit(result, 2)

    @staticmethod
    def _short_ar1(tmp_path, runner):
        data = tmp_path / "ar300.csv"
        run_ok(runner, ["simulate", "--model", "ar1", "--phi", "0.95", "--n", "300",
                        "--seed", "11", "--out", str(data)])
        return data

    def test_duplicate_probe_rows_exit_2(self, runner, tmp_path):
        data = self._short_ar1(tmp_path, runner)
        probe = tmp_path / "probe.csv"
        rows = [f"{t},1,-1.5" for t in range(1, 41)]
        probe.write_text("t_index,horizon,log_density\n" + "\n".join(rows * 2) + "\n")
        result = runner.invoke(main, ["decompose", str(data), str(probe), "--lags", "1"])
        assert "duplicate t_index 1 at horizon 1" in assert_contract_exit(result, 2)

    def test_fewer_probe_rows_than_k_exit_2(self, runner, tmp_path):
        data = self._short_ar1(tmp_path, runner)
        probe = tmp_path / "probe.csv"
        probe.write_text("t_index,horizon,log_density\n10,1,-1.5\n11,1,-1.5\n")
        result = runner.invoke(main, ["decompose", str(data), str(probe)])
        message = assert_contract_exit(result, 2)
        assert "horizon 1: 2 probe rows" in message and "k=5" in message

    def test_alphabet_below_two_exit_2_before_estimating(self, runner, tmp_path,
                                                          monkeypatch):
        data = self._short_ar1(tmp_path, runner)
        probe = tmp_path / "probe.csv"
        probe.write_text("".join(f"{t},1,-1.5\n" for t in range(10, 60)))

        def never(*args, **kwargs):
            raise AssertionError("the profile was estimated before the flag check")

        monkeypatch.setattr(cli, "estimate_profile", never)
        result = runner.invoke(main, ["decompose", str(data), str(probe),
                                      "--alphabet", "1"])
        assert assert_contract_exit(result, 2) == "error: --alphabet must be >= 2, got 1"

    @pytest.mark.parametrize("lags", [1, 3])
    @pytest.mark.parametrize("early", [False, True])
    def test_forecast_origin_before_first_lag_window(self, runner, tmp_path, lags, early):
        data = self._short_ar1(tmp_path, runner)
        first = 3 + lags - 1
        start = first - 1 if early else first
        probe = tmp_path / "probe.csv"
        rows = [f"{t},3,-1.5" for t in range(start, first + 40)]
        probe.write_text("t_index,horizon,log_density\n" + "\n".join(rows) + "\n")
        result = runner.invoke(main, ["decompose", str(data), str(probe),
                                      "--lags", str(lags)])
        if early:
            message = assert_contract_exit(result, 2)
            assert f"t_index {start}" in message and f"= {first}" in message
        else:
            assert result.exit_code == 0, result.output

    def test_all_gaps_exit_3(self, runner, tmp_path):
        data = tmp_path / "tiny.csv"
        data.write_text("\n".join(str(float(v)) for v in range(10)) + "\n")
        probe = tmp_path / "probe.csv"
        probe.write_text("t_index,horizon,log_density\n"
                         "8,8,-1.0\n9,8,-1.0\n9,9,-1.0\n8,9,-1.0\n")
        result = runner.invoke(main, ["decompose", str(data), str(probe)])
        message = assert_contract_exit(result, 3)
        assert message == "error: insufficient data at every requested horizon"
        assert "warning: horizon 9" in result.stderr


class TestManifest:
    def test_sidecar_contents(self, runner, tmp_path):
        data = tmp_path / "wn.csv"
        run_ok(runner, ["simulate", "--model", "ar1", "--phi", "0", "--n", "400",
                        "--seed", "9", "--out", str(data)])
        out = tmp_path / "prof.csv"
        run_ok(runner, ["profile", str(data), "--horizons", "1..2",
                        "--seed", "4", "--out", str(out)])
        manifest = json.loads((tmp_path / "prof.csv.manifest.json").read_text())
        assert manifest["command"] == "profile"
        assert manifest["seed"] == 4
        assert manifest["version"]
        assert manifest["config"]["horizons"] == [1, 2]
        import hashlib

        digest = hashlib.sha256(data.read_bytes()).hexdigest()
        assert manifest["input_digests"][str(data)] == digest

    def test_rerun_reproduces_outputs(self, runner, tmp_path):
        data = tmp_path / "wn.csv"
        run_ok(runner, ["simulate", "--model", "ar1", "--phi", "0.5", "--n", "600",
                        "--seed", "2", "--out", str(data)])
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["profile", str(data), "--horizons", "1..4", "--seed", "1"]
        run_ok(runner, args + ["--out", str(out_a)])
        run_ok(runner, args + ["--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()
        m_a = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        m_b = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        m_a.pop("timestamp"), m_b.pop("timestamp")
        m_a["config"].pop("out"), m_b["config"].pop("out")
        assert m_a == m_b

    ARGS = {
        "simulate": ["--model", "ar1", "--phi", "0.5", "--n", "10"],
        "analytic": ["--model", "ar1", "--phi", "0.5", "--horizons", "1"],
        "profile": ["s.csv", "--horizons", "1"],
        "significance": ["s.csv", "--horizons", "1", "--replicates", "19"],
        "decompose": ["s.csv", "probe.csv"],
    }

    @staticmethod
    def _write_inputs(directory):
        series = simulate(GaussianProcessSpec.ar1(0.5), 200, seed=1)
        (directory / "s.csv").write_text(
            "".join(f"{float(v)!r}\n" for v in series.values)
        )
        (directory / "probe.csv").write_text(
            "".join(f"{t},1,-1.0\n" for t in range(10, 30))
        )

    @pytest.mark.parametrize("command", list(ARGS))
    def test_config_records_every_parameter(self, runner, tmp_path, monkeypatch,
                                            command):
        monkeypatch.chdir(tmp_path)
        self._write_inputs(tmp_path)
        run_ok(runner, [command, *self.ARGS[command], "--out", "x.csv"])
        manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
        expected = {p.name for p in main.commands[command].params} - {"seed"}
        if command in ("profile", "significance", "decompose"):
            expected |= {"jitter_scale", "standardize"}
        assert set(manifest["config"]) == expected
        assert manifest["seed"] == (None if command == "analytic" else 0)

    def test_config_order_does_not_follow_the_command_line(self, runner, tmp_path,
                                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        self._write_inputs(tmp_path)
        run_ok(runner, ["profile", "s.csv", "--lags", "2", "--horizons", "1,3",
                        "--k", "4", "--seed", "5", "--units", "bits", "--out", "a.csv"])
        run_ok(runner, ["profile", "--out", "b.csv", "--units", "bits", "--seed", "5",
                        "--k", "4", "--horizons", "1,3", "--lags", "2", "s.csv"])
        texts = []
        for name in ("a.csv", "b.csv"):
            doc = json.loads((tmp_path / f"{name}.manifest.json").read_text())
            doc["timestamp"] = doc["config"]["out"] = None
            texts.append(json.dumps(doc, indent=2))
        assert texts[0] == texts[1]


class TestSeasonalShapeEndToEnd:
    def test_estimated_profile_reproduces_seasonal_shape(self, runner, tmp_path):
        """Estimated profile of a seasonal path shows the non-monotone shape:
        a dip in h=5..9 and peaks re-emerging at the seasonal lags."""
        data = tmp_path / "seasonal.csv"
        run_ok(runner, ["simulate", "--model", "seasonal", "--phi", "0.5",
                        "--Phi", "0.8", "--s", "12", "--n", "20000",
                        "--seed", "8", "--out", str(data)])
        out = tmp_path / "prof.csv"
        svg = tmp_path / "prof.svg"
        run_ok(runner, ["profile", str(data), "--lags", "1", "--horizons", "1..36",
                        "--out", str(out), "--plot", str(svg)])
        rows = {int(r["horizon"]): float(r["f_nats"]) for r in read_table(out)}
        dip = min(rows[h] for h in range(5, 10))
        assert dip < 0.05
        assert rows[12] > 0.35
        assert rows[12] > max(rows[h] for h in range(5, 10))
        assert rows[24] > max(rows[h] for h in range(17, 21))
        assert rows[36] > max(rows[h] for h in range(29, 33))
        assert svg.exists()
        root = ET.fromstring(svg.read_text())
        assert root.tag.endswith("svg")
