"""Fuzzed CSV files through the CLI: every run exits 0, 2 or 3, never with a
traceback, whatever the file holds, including bytes that are not UTF-8."""

import pytest
from click.testing import CliRunner
from hypothesis import example, given
from hypothesis import strategies as st

from forecastability import GaussianProcessSpec, simulate
from forecastability.cli import main

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
