"""Command-line interface: profile estimation, exact profiles, significance
testing, loss decomposition and simulation, over CSV files.

Conventions shared by every command:

* input CSV: one value column, or (index, value) pairs; a header row is
  auto-detected; row order defines time order; decimal points only.
* output tables: LF line endings, fixed column order, 9-significant-digit
  values; ``--out`` picks CSV or JSON by file extension (``.json`` => JSON,
  anything else CSV); without ``--out`` the CSV goes to stdout.
* every output file is accompanied by a run manifest (``<file>.manifest.json``
  sidecar, or embedded under ``"manifest"`` in JSON output) recording the
  input digests, the seed at the top level, and under ``config`` every
  argument and flag under its parameter name (``--Phi`` => ``Phi``,
  ``--burn-in`` => ``burn_in``) in ``--help`` order; re-running reproduces
  the outputs byte-identically apart from the manifest timestamp.
* all randomness flows from ``--seed``: it seeds the estimator jitter
  directly, and permutation replicate b shuffles with ``seed XOR b``.
* exit codes: 0 success, 2 usage or contract violation, 3 insufficient data
  at every requested horizon; every exit 2 or 3 prints exactly one
  ``error:`` line, whether click or the package finds the problem.

Values are reported in nats by default; ``--units bits`` divides by ln 2.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import sys
from collections.abc import Iterable
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import click
import numpy as np

from . import __version__
from ._svg import render_profile_svg
from .analytic import (
    GaussianProcessSpec,
    ar1_profile,
    gaussian_profile_from_acf,
    seasonal_ar_acf,
    simulate,
)
from .core import (
    ForecastabilityProfile,
    InformationSetSpec,
    TimeSeries,
    _ascending_horizons,
    _integers,
)
from .diagnostics import (
    ProbeEvaluation,
    decompose_loss,
    fano_bound,
    pinsker_bound,
)
from .errors import ForecastabilityError, InsufficientData
from .estimators import _JITTER_SCALE, EstimatorConfig, estimate_profile
from .significance import _MIN_REPLICATES, permutation_test

_LN2 = math.log(2.0)

_EXIT_CONTRACT = 2
_EXIT_NO_DATA = 3

# numpy sizes an array in bytes with an intp: the longest float64 array
_MAX_FLOAT_ARRAY = np.iinfo(np.intp).max // np.dtype(float).itemsize
# rows of a simulated path formatted and written at a time
_ROWS_PER_CHUNK = 65_536

# the estimator settings that are not options, recorded in every manifest
# of an estimating command
_FIXED_ESTIMATOR = {"jitter_scale": _JITTER_SCALE, "standardize": True}


class ParseError(ForecastabilityError):
    """Malformed input file or flag value."""


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record written alongside every output file."""

    command: str
    config: dict
    input_digests: dict
    seed: int | None
    version: str
    timestamp: str

    @classmethod
    def build(cls, command: str, config: dict, inputs: list[str], seed: int | None):
        digests = {
            name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
            for name in inputs
        }
        return cls(
            command=command,
            config=config,
            input_digests=digests,
            seed=seed,
            version=__version__,
            timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        )


def _command_manifest() -> RunManifest:
    """The running command's manifest, read from its click context.

    ``config`` holds every argument and flag under its parameter name, in
    declaration (``--help``) order, except ``--seed``, which goes to the top
    level; a command that takes ``--k`` records the fixed estimator settings
    in its place.  The arguments are the input files.
    """
    ctx = click.get_current_context()
    config = {}
    for param in ctx.command.params:
        if param.name != "seed":
            config[param.name] = ctx.params[param.name]
        elif "k" in ctx.params:
            config.update(_FIXED_ESTIMATOR)
    inputs = [ctx.params[param.name] for param in ctx.command.params
              if isinstance(param, click.Argument)]
    return RunManifest.build(ctx.info_name, config, inputs, ctx.params.get("seed"))


def _die(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


class _ContractGroup(click.Group):
    """The one exit path of the command line: maps usage and package errors,
    raised anywhere in it, to the exit codes with one ``error:`` line."""

    def main(self, *args, **extra):
        try:  # click itself handles only --help, --version and a broken pipe
            return super().main(*args, **{**extra, "standalone_mode": False})
        except click.Abort:  # Ctrl-C, worded as click words it
            click.echo("Aborted!", err=True)
            sys.exit(1)
        except click.UsageError as exc:
            _die(_EXIT_CONTRACT, exc.format_message())
        except InsufficientData as exc:
            _die(_EXIT_NO_DATA, str(exc))
        except ForecastabilityError as exc:
            _die(_EXIT_CONTRACT, str(exc))
        except MemoryError as exc:  # numpy refuses sizes beyond the address space
            _die(_EXIT_CONTRACT, f"cannot allocate memory: {exc}")


# ---------------------------------------------------------------- parsing


def _at_most(flag: str, value: int, maximum: float):
    """A bound that involves a second flag or differs by command, worded as
    click words the range of an option's type."""
    if value > maximum:
        raise click.BadParameter(f"{value} is not in the range x<={maximum}.",
                                 param_hint=f"'{flag}'")


def parse_horizons(text: str) -> tuple[int, ...]:
    """Parse a horizon list such as ``1..36`` or ``1,2,3`` or ``1..5,12,24``."""
    out: list[int] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            raise ParseError(f"empty item in horizon list {text!r}")
        if ".." in item:
            lo_s, _, hi_s = item.partition("..")
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise ParseError(f"bad horizon range {item!r}") from None
            if lo > hi:
                raise ParseError(f"descending horizon range {item!r}")
            try:
                out.extend(range(lo, hi + 1))
            except OverflowError:  # longer than any list can be
                raise ParseError(f"horizon range {item!r} is too long") from None
        else:
            try:
                out.append(int(item))
            except ValueError:
                raise ParseError(f"bad horizon {item!r}") from None
    try:
        return _ascending_horizons(out)
    except ValueError as exc:
        raise ParseError(f"{exc}, got {text!r}") from None


def _read_rows(path: str, widths: tuple[int, ...]) -> list[list[float]]:
    """The data rows of a CSV file, each cell converted to float once.

    Blank lines are skipped and a first line that is not numeric is the
    header.  Every data row must be numeric and as wide as the first one,
    whose width must be one of ``widths``.  Each row is checked as it is
    read, so the first defect in file order is the one reported.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # drops a BOM
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError(f"{path}: no data rows")
    rows, width = [], None
    for i, line in enumerate(lines):
        try:
            row = [float(cell) for cell in line.split(",")]
        except ValueError:
            if i == 0:  # the header
                continue
            row = []  # no cells: malformed at any position
        if len(row) != width:
            if rows or not row:
                raise ParseError(f"{path}: malformed row {len(rows) + 1}: {line.strip()!r}")
            if len(row) not in widths:
                raise ParseError(
                    f"{path}: expected {' or '.join(map(str, widths))} columns, found {len(row)}"
                )
            width = len(row)
        rows.append(row)
    if not rows:
        raise ParseError(f"{path}: only a header row")
    return rows


def read_series_csv(path: str) -> TimeSeries:
    """Load a series from CSV: one value column, or (index, value) pairs."""
    values = np.array([row[-1] for row in _read_rows(path, (1, 2))])
    try:
        return TimeSeries(values=values, name=Path(path).stem)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def read_probe_csv(path: str) -> dict[int, ProbeEvaluation]:
    """Load probe evaluations keyed by horizon from a (t_index, horizon,
    log_density) CSV.  Log densities are in nats, original series units."""
    table = np.array(_read_rows(path, (3,)))
    try:  # both index columns, before a horizon with too few rows can fail
        index = _integers(table[:, :2],
                          "t_index and horizon must be finite integers in the int64 range")
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    probes = {}
    for h in np.unique(index[:, 1]):
        rows = index[:, 1] == h
        try:
            probes[int(h)] = ProbeEvaluation(h, table[rows, 2], index[rows, 0])
        except ValueError as exc:
            raise ParseError(f"{path}: horizon {h}: {exc}") from None
    return probes


# ---------------------------------------------------------------- output


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return format(value, ".9g")
    return str(value)


def _json_value(value):
    if isinstance(value, float):
        if math.isnan(value):
            return None
        return float(format(value, ".9g"))
    return value


def _write_output(path: str, text: str | Iterable[str],
                  manifest: RunManifest | None = None):
    """Write ``text``, a string or an iterable of strings written in turn, to
    ``path`` and, given a manifest, its sidecar ``<path>.manifest.json``."""
    target = Path(path)
    files = [(target, [text] if isinstance(text, str) else text)]
    if manifest is not None:
        sidecar = target.with_name(target.name + ".manifest.json")
        files.append((sidecar, [json.dumps(asdict(manifest), indent=2) + "\n"]))
    for file, chunks in files:
        try:
            with file.open("w") as stream:
                stream.writelines(chunks)
        except OSError as exc:
            raise ParseError(f"cannot write {file}: {exc}") from None


def emit_table(rows: list[dict], manifest: RunManifest, out: str | None):
    """Write a per-horizon table as CSV (stdout or file) or JSON (by extension).

    The columns are the keys of the first row, in order; every row must hold
    each of them.
    """
    columns = list(rows[0])
    if out is not None and out.endswith(".json"):
        doc = {
            "manifest": asdict(manifest),
            "rows": [{c: _json_value(r[c]) for c in columns} for r in rows],
        }
        _write_output(out, json.dumps(doc, indent=2) + "\n")
        return
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(r[c]) for c in columns) for r in rows)
    text = "\n".join(lines) + "\n"
    if out is None:
        click.echo(text, nl=False)
    else:
        _write_output(out, text, manifest)


def _emit_profile(profile: ForecastabilityProfile, units: str, manifest: RunManifest,
                  out: str | None, plot: str | None, label: str, title: str):
    """Write a profile as a table and, given ``plot``, as an SVG; an estimated
    one adds ``n_effective`` and ``gap``, with NaN (an empty cell) at gaps."""
    if plot and profile.horizons[-1] >= 2 ** 53:  # from here on floats skip integers
        raise ParseError(f"--plot needs horizons below 2**53, got {profile.horizons[-1]}")
    value_col = f"f_{units}"
    shown = [v / _LN2 if units == "bits" else v for v in profile.values_nats]
    rows = [{"horizon": h, value_col: v} for h, v in zip(profile.horizons, shown)]
    if profile.estimator_meta is not None:
        for row, n_eff in zip(rows, profile.estimator_meta.n_effective):
            row.update(n_effective=n_eff, gap=math.isnan(row[value_col]))
    emit_table(rows, manifest, out)
    if plot:
        svg = render_profile_svg(
            list(profile.horizons), label, shown, f"forecastability ({units})", title
        )
        _write_output(plot, svg, manifest)


# ---------------------------------------------------------------- commands


@click.group(cls=_ContractGroup, no_args_is_help=False)
@click.version_option(version=__version__)
def main():
    """Horizon-resolved forecastability diagnostics for univariate series."""


def _process_options(command):
    """The Gaussian process flags of ``simulate`` and ``analytic``."""
    for option in reversed((
        click.option("--model", type=click.Choice(["ar1", "seasonal"]), required=True),
        click.option("--phi", type=float, required=True, help="First-lag coefficient."),
        click.option("--Phi", "Phi", type=float, default=None,
                     help="Seasonal-lag coefficient (seasonal model)."),
        click.option("--s", type=int, default=None,
                     help="Seasonal period (seasonal model)."),
    )):
        command = option(command)
    return command


_series_argument = click.argument(
    "input", metavar="INPUT_CSV", type=click.Path(exists=True, dir_okay=False)
)
_lags_option = click.option(
    "--lags", type=click.IntRange(min=1), default=1, show_default=True,
    help="Lag-window order p of the conditioning set.",
)
_horizons_option = click.option(
    "--horizons", required=True, help="e.g. 1..36 or 1,2,12",
    callback=lambda ctx, param, text: parse_horizons(text),
)
_k_option = click.option(
    "--k", type=click.IntRange(min=1), default=EstimatorConfig.k, show_default=True,
    help="Neighbour count of the mutual-information estimator.",
)
_seed_option = click.option(
    "--seed", type=click.IntRange(min=0), default=0, show_default=True,
    help="Seed of every random draw.",
)
_units_option = click.option(
    "--units", type=click.Choice(["nats", "bits"]), default="nats",
    show_default=True, help="Information units for reported values.",
)
_out_option = click.option(
    "--out", type=click.Path(dir_okay=False), default=None,
    help="Output table; .json for JSON, else CSV (default: CSV on stdout).",
)
_plot_option = click.option(
    "--plot", type=click.Path(dir_okay=False), default=None,
    help="SVG plot of the profile.",
)


def _gaussian_spec(model: str, phi: float, Phi: float | None, s: int | None,
                   sigma2: float) -> GaussianProcessSpec:
    if model == "ar1":
        if Phi is not None or s is not None:
            raise ParseError("ar1 model takes neither --Phi nor --s")
        Phi, s = 0.0, 1
    elif Phi is None or s is None:
        raise ParseError("seasonal model requires --Phi and --s")
    return GaussianProcessSpec(phi, Phi, s, sigma2)


@main.command("simulate")
@_process_options
@click.option("--sigma2", type=float, default=1.0, show_default=True,
              help="Innovation variance.")
@click.option("--n", type=click.IntRange(2, _MAX_FLOAT_ARRAY), required=True,
              help="Number of observations to keep.")
@_seed_option
@click.option("--burn-in", type=click.IntRange(min=0), default=1000, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def cmd_simulate(model, phi, Phi, s, sigma2, n, seed, burn_in, out):
    """Simulate a Gaussian AR path and write it as a value-column CSV.

    Values are written with full round-trip precision so that downstream
    estimation from the file matches in-memory estimation exactly.
    """
    # the kept path and its burn-in are drawn as one array
    _at_most("--burn-in", burn_in, _MAX_FLOAT_ARRAY - n)
    spec = _gaussian_spec(model, phi, Phi, s, sigma2)
    # the recursion keeps min(s, n + burn-in) + 1 past values, but a period
    # beyond any array length is refused like --n
    _at_most("--s", spec.s, _MAX_FLOAT_ARRAY - 2)
    values = simulate(spec, n=n, seed=seed, burn_in=burn_in).values
    # the rows are formatted a chunk at a time, so the text held at once is
    # bounded whatever --n is
    rows = ("\n".join(map(repr, values[i:i + _ROWS_PER_CHUNK].tolist())) + "\n"
            for i in range(0, values.size, _ROWS_PER_CHUNK))
    _write_output(out, itertools.chain(["value\n"], rows), _command_manifest())


@main.command("analytic")
@_process_options
@_lags_option
@_horizons_option
@_units_option
@_out_option
@_plot_option
def cmd_analytic(model, phi, Phi, s, lags, horizons, units, out, plot):
    """Exact Gaussian forecastability profile for an AR(1) or seasonal AR."""
    _gaussian_spec(model, phi, Phi, s, 1.0)
    if model == "ar1":  # Markov: F(h; p) = F(h; 1) for every window p
        profile = ar1_profile(phi, horizons)
    else:
        # seasonal_ar_acf raises phi and Phi to float powers of s, and
        # holds max(horizons) + lags floats
        _at_most("--s", s, sys.float_info.max)
        _at_most("--lags", lags, _MAX_FLOAT_ARRAY - 1)
        _at_most("--horizons", horizons[-1], _MAX_FLOAT_ARRAY - lags)
        rho = seasonal_ar_acf(phi, Phi, s, horizons[-1] + lags - 1)
        profile = gaussian_profile_from_acf(rho, lags, horizons)
    _emit_profile(profile, units, _command_manifest(), out, plot, model,
                  title=f"analytic profile ({model})")


def _warn_gaps(requested, with_data):
    """Warn for each requested horizon without data; fail if none has any."""
    present = set(with_data)
    for h in requested:
        if h not in present:
            click.echo(f"warning: horizon {h}: insufficient data, gap reported", err=True)
    if not with_data:
        raise InsufficientData("insufficient data at every requested horizon")


@main.command("profile")
@_series_argument
@_lags_option
@_horizons_option
@_k_option
@_seed_option
@_units_option
@_out_option
@_plot_option
def cmd_profile(input, lags, horizons, k, seed, units, out, plot):
    """Estimate the forecastability profile of a series from CSV."""
    series = read_series_csv(input)
    spec = InformationSetSpec(lag_order=lags, horizons=horizons)
    config = EstimatorConfig(k=k, seed=seed)
    profile = estimate_profile(series, spec, config)
    _warn_gaps(horizons, profile.horizons_with_data())
    _emit_profile(profile, units, _command_manifest(), out, plot,
                  series.name or "profile",
                  title=f"estimated profile: {series.name}")


@main.command("significance")
@_series_argument
@_lags_option
@_horizons_option
@_k_option
@click.option("--replicates", type=click.IntRange(_MIN_REPLICATES, sys.maxsize),
              required=True, help="Permutation count B.")
@_seed_option
@_out_option
def cmd_significance(input, lags, horizons, k, replicates, seed, out):
    """Permutation test of estimated forecastability at each horizon.

    Reports the observed statistic (nats), the add-one p-value, and the
    50/95/99% quantiles of the permutation null.
    """
    series = read_series_csv(input)
    spec = InformationSetSpec(lag_order=lags, horizons=horizons)
    config = EstimatorConfig(k=k, seed=seed)
    results = permutation_test(series, spec, config, replicates=replicates, seed=seed)
    _warn_gaps(horizons, [r.horizon for r in results])
    rows = []
    for r in results:
        q50, q95, q99 = np.quantile(r.null_samples, (0.50, 0.95, 0.99)).tolist()
        rows.append(
            {
                "horizon": r.horizon,
                "observed_nats": r.observed_nats,
                "p_value": r.p_value,
                "null_q50": q50,
                "null_q95": q95,
                "null_q99": q99,
                "replicates": r.replicates,
            }
        )
    emit_table(rows, _command_manifest(), out)


@main.command("decompose")
@click.argument("series", metavar="SERIES_CSV",
                type=click.Path(exists=True, dir_okay=False))
@click.argument("probe", metavar="PROBE_CSV",
                type=click.Path(exists=True, dir_okay=False))
@_lags_option
@_k_option
@click.option("--alphabet", type=click.IntRange(min=2), default=None,
              help="Alphabet size M; adds the misclassification floor column.")
@_seed_option
@_out_option
def cmd_decompose(series, probe, lags, k, alphabet, seed, out):
    """Decompose a probe's realised log loss against the estimated profile.

    The probe CSV columns are (t_index, horizon, log_density): the log
    predictive density, in nats and original series units, that the probe
    assigned to the realised outcome at series row t_index.  All values are
    reported in nats.
    """
    series = read_series_csv(series)
    probes = read_probe_csv(probe)
    horizons = tuple(sorted(probes))
    spec = InformationSetSpec(lag_order=lags, horizons=horizons)
    config = EstimatorConfig(k=k, seed=seed)
    fhat = estimate_profile(series, spec, config)
    live = fhat.horizons_with_data()
    _warn_gaps(horizons, live)
    rows = []
    for h in live:
        dec = decompose_loss(probes[h], series, fhat, config)
        row = {
            "horizon": h,
            "n_eval": probes[h].n_eval,
            **asdict(dec),
            "pinsker_tv_bound": pinsker_bound(
                max(dec.forecastability_nats, 0.0)
            ).pinsker_tv_bound,
        }
        if alphabet is not None:
            fano = fano_bound(
                dec.forecastability_nats, dec.marginal_entropy_nats, alphabet
            )
            row["fano_min_error"] = fano.fano_min_error
            row["fano_vacuous"] = fano.fano_vacuous
        rows.append(row)
    emit_table(rows, _command_manifest(), out)


if __name__ == "__main__":
    main()
