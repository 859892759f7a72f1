"""Fuzzed CSV files and flags through the CLI: every run exits 0, 2 or 3,
never with a traceback, whatever the file holds, including bytes that are
not UTF-8, and whatever edge value a flag takes."""

import math
import sys

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forecastability import GaussianProcessSpec, simulate
from forecastability.cli import _MAX_FLOAT_ARRAY, main

SERIES_ROWS = 300

# repr'd floats, including +-1e308 and subnormals
_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-10.0, 10.0).map(repr),
    st.sampled_from(["1e308", "-1e308", "5e-324", "-2.5e-310"]),
)
_NUMBER = st.one_of(
    _FINITE,
    st.integers(-(10 ** 20), 10 ** 20).map(str),
    st.sampled_from(["nan", "-inf", "inf", "1e400", "NaN"]),
)
_CELL = st.one_of(_NUMBER, st.sampled_from(["", " ", "x", "value"]))


@st.composite
def _csv_text(draw, clean_rows, messy_row):
    """Well-formed rows with, in half the files, malformed and ragged rows
    inserted; blank lines, an optional header and an optional BOM."""
    rows = draw(clean_rows)
    extra = st.just("")
    if draw(st.booleans()):
        extra = st.one_of(extra, messy_row, st.lists(_CELL, max_size=4).map(",".join))
    for line in draw(st.lists(extra, max_size=5)):
        rows.insert(draw(st.integers(0, len(rows))), line)
    header = draw(st.sampled_from([[], ["value"], ["t_index,horizon,log_density"]]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + "\n".join(header + rows) + draw(st.sampled_from(["", "\n"]))


@st.composite
def _probe_rows(draw):
    """Distinct (t_index, horizon) pairs with a full lag window in the series."""
    rows = []
    for h in sorted(draw(st.sets(st.integers(1, 4), min_size=1))):
        indices = draw(st.sets(st.integers(h, SERIES_ROWS - 1), min_size=6, max_size=30))
        rows += [f"{t},{h},{draw(st.floats(-50.0, 5.0))!r}" for t in sorted(indices)]
    return rows


@st.composite
def _not_always_utf8(draw, text):
    """The UTF-8 bytes of ``text``; in half the files, with a byte inserted
    that UTF-8 never uses, so the file cannot be decoded."""
    raw = draw(text).encode()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xfe", b"\xc0"])) + raw[at:]
    return raw


_SERIES = _csv_text(
    st.one_of(
        st.lists(_FINITE, max_size=60),
        st.lists(st.tuples(st.integers().map(str), _FINITE).map(",".join), max_size=60),
    ),
    st.one_of(_NUMBER, st.tuples(_NUMBER, _NUMBER).map(",".join)),
)
_PROBE = _csv_text(_probe_rows(), st.tuples(_NUMBER, _NUMBER, _NUMBER).map(",".join))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    series = simulate(GaussianProcessSpec.ar1(0.9), SERIES_ROWS, seed=3)
    (path / "series.csv").write_text("".join(f"{float(v)!r}\n" for v in series.values))
    # 40 rows at each of horizons 1..3, with a full window up to 50 lags
    (path / "probe.csv").write_text("".join(
        f"{t},{h},{-1.0 - t / SERIES_ROWS!r}\n" for h in (1, 2, 3) for t in range(60, 100)
    ))
    return path


def _assert_contract(result):
    assert result.exit_code in (0, 2, 3), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        repr(result.exception)
    )


@given(raw=_not_always_utf8(_SERIES))
@example(raw="\n".join(["1e308", "-1e308", "3e307", "-7e307", "2e-308"] * 8).encode())
@example(raw=b"\xff\xfe1.0\n2.0\n")
def test_fuzzed_series_csv(workdir, raw):
    data = workdir / "fuzzed.csv"
    data.write_bytes(raw)
    _assert_contract(CliRunner().invoke(main, ["profile", str(data), "--horizons", "1..3"]))


@given(text=_PROBE)
def test_fuzzed_probe_csv(workdir, text):
    probe = workdir / "probe.csv"
    probe.write_text(text, encoding="utf-8")
    _assert_contract(
        CliRunner().invoke(main, ["decompose", str(workdir / "series.csv"), str(probe)])
    )


# Edge values of the flags: 0, +-1, each documented bound and its
# neighbours, 2**63, 2**64, 10**22, 10**400 (beyond the float range), nan,
# +-inf, -0.0 and 1e308.  A flag that sizes an allocation or a loop takes
# small values, or values the CLI refuses before it allocates anything: above
# the longest float array (_MAX_FLOAT_ARRAY) or above sys.maxsize.  2**53 is
# never a size: numpy could try to allocate it.
_HUGE = [_MAX_FLOAT_ARRAY + 1, 2 ** 63, 2 ** 64, 10 ** 22, 10 ** 400]


def _edges(common, rare):
    """One of the values, a common one at least half of the time; the rare
    ones are refused or leave no data, so that most runs get further."""
    return st.one_of(st.sampled_from(common), st.sampled_from(common + rare))


def _optional(strategy):
    return st.one_of(st.none(), strategy)


_STATIONARY = [-0.0, 0.0, 5e-324, 0.5, -0.5, math.nextafter(1.0, 0.0),
               math.nextafter(-1.0, 0.0)]
_COEFFICIENT = _edges(_STATIONARY, [math.nan, math.inf, -math.inf, 1.0, -1.0, 1e308,
                                    -1e308, 2.0 ** 63, 1e22]).map(repr)
_SEED = _edges([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1, 2 ** 64,
                10 ** 22], [-1])
# in a 300-row series a horizon h is a gap from k = 300 - h - lags on
_K = _edges([1, 2, 5, 20], [-1, 0, 293, 296, 297, 298, 299, 300, *_HUGE])
_LAGS = _edges([1, 2, 49, 50], [-1, 0, _MAX_FLOAT_ARRAY, *_HUGE])


@st.composite
def _process(draw):
    """``--model``, ``--phi`` and, mostly only when the model is seasonal,
    ``--Phi`` and ``--s``."""
    model = draw(st.sampled_from(["ar1", "seasonal"]))
    flags = {"--model": model, "--phi": draw(_COEFFICIENT)}
    # --s is at most _MAX_FLOAT_ARRAY - 2 in simulate, the largest float in analytic
    for flag, values in (("--Phi", _COEFFICIENT), ("--s", _edges(
            [1, 2, 12, 5000, _MAX_FLOAT_ARRAY - 3, _MAX_FLOAT_ARRAY - 2],
            [-1, 0, _MAX_FLOAT_ARRAY - 1, *_HUGE, int(sys.float_info.max),
             int(sys.float_info.max) + 1]))):
        # given with the seasonal model, and with ar1 (or left out) now and then
        if (model == "seasonal") != (draw(st.integers(0, 7)) == 0):
            flags[flag] = draw(values)
    return flags


@st.composite
def _horizons(draw, longest, plot_bound=True):
    """A ``--horizons`` list of one to three items, each a horizon or a
    range of up to ``longest`` horizons, mostly in ascending order;
    ``plot_bound`` adds the ``--plot`` bound 2**53 and its lower neighbour,
    which are not sizes for a command that allocates nothing by horizon."""
    rare = [-1, 0, *_HUGE, *([2 ** 53 - 1, 2 ** 53] if plot_bound else [])]
    items = []
    for _ in range(draw(st.integers(1, 3))):
        start = draw(_edges([1, 2, 3, 12, 297, 298, 299, 300, 301], rare))
        length = draw(_edges([1, 2, longest], [0]))
        items.append((start, start + length - 1))
    if draw(st.integers(0, 3)):
        items.sort()
        # drop the items that overlap an earlier one
        items = [b for a, b in zip([None, *items], items) if a is None or b[0] > a[1]]
    return ",".join(str(lo) if lo == hi else f"{lo}..{hi}" for lo, hi in items)


def _flag_run(workdir, command, files, flags):
    """Run ``command`` on ``files`` with the flags that are not None; paths
    of ``--out`` and ``--plot`` are names in ``workdir``.  The run keeps the
    exit-code contract, and a failure prints exactly one ``error:`` line."""
    args = [command, *(str(workdir / name) for name in files)]
    for flag, value in flags.items():
        if value is not None:
            args += [flag, str(workdir / value) if flag in ("--out", "--plot") else str(value)]
    result = CliRunner().invoke(main, args)
    _assert_contract(result)
    if result.exit_code:
        errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1, (args, result.stderr)


@settings(max_examples=60)
@given(process=_process(), flags=st.fixed_dictionaries({
    "--sigma2": _optional(_edges([5e-324, 0.5, 1.0, 1e308, 2.0 ** 63, 1e22],
                                 [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0])
                          .map(repr)),
    "--n": _edges([2, 3, 4999, 5000], [-1, 0, 1, *_HUGE]),
    "--seed": _optional(_SEED),
    # the bound is _MAX_FLOAT_ARRAY - n, below the refused values for every n >= 2
    "--burn-in": _optional(_edges([0, 1, 1000, 5000],
                                  [-1, _MAX_FLOAT_ARRAY - 1, _MAX_FLOAT_ARRAY, *_HUGE])),
    "--out": _edges(["sim.csv"], ["missing/sim.csv"]),
}))
def test_fuzzed_simulate_flags(workdir, process, flags):
    _flag_run(workdir, "simulate", [], {**process, **flags})


@settings(max_examples=60)
@given(process=_process(), data=st.data(), flags=st.fixed_dictionaries({
    "--lags": _optional(_LAGS),
    "--units": _optional(st.sampled_from(["nats", "bits"])),
    "--out": _optional(st.sampled_from(["analytic.csv", "analytic.json"])),
    "--plot": _optional(st.just("analytic.svg")),
}))
def test_fuzzed_analytic_flags(workdir, process, data, flags):
    # a seasonal profile holds max(horizons) + lags autocorrelations, so its
    # horizons are small or beyond any array
    flags["--horizons"] = data.draw(_horizons(50, plot_bound=process["--model"] == "ar1"))
    _flag_run(workdir, "analytic", [], {**process, **flags})


@settings(max_examples=40)
@given(flags=st.fixed_dictionaries({
    "--lags": _optional(_LAGS),
    "--horizons": _horizons(50),
    "--k": _optional(_K),
    "--seed": _optional(_SEED),
    "--units": _optional(st.sampled_from(["nats", "bits"])),
    "--out": _optional(st.sampled_from(["profile.csv", "profile.json"])),
    "--plot": _optional(st.just("profile.svg")),
}))
def test_fuzzed_profile_flags(workdir, flags):
    _flag_run(workdir, "profile", ["series.csv"], flags)


@settings(max_examples=30)
@given(flags=st.fixed_dictionaries({
    "--lags": _optional(_LAGS),
    "--horizons": _horizons(3),
    "--k": _optional(_K),
    "--replicates": _edges([19, 20, 40], [-1, 0, 1, 18, sys.maxsize + 1, 2 ** 64, 10 ** 22]),
    "--seed": _optional(_SEED),
    "--out": _optional(st.sampled_from(["significance.csv", "significance.json"])),
}))
@example(flags={"--horizons": "1", "--replicates": 10 ** 22})
def test_fuzzed_significance_flags(workdir, flags):
    _flag_run(workdir, "significance", ["series.csv"], flags)


@settings(max_examples=40)
@given(flags=st.fixed_dictionaries({
    "--lags": _optional(_LAGS),
    "--k": _optional(_K),
    "--alphabet": _optional(_edges([2, 3, *_HUGE], [-1, 0, 1])),
    "--seed": _optional(_SEED),
    "--out": _optional(st.sampled_from(["decompose.csv", "decompose.json"])),
}))
def test_fuzzed_decompose_flags(workdir, flags):
    _flag_run(workdir, "decompose", ["series.csv", "probe.csv"], flags)
