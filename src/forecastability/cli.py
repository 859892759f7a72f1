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
  resolved configuration, input digests and seed; re-running reproduces the
  outputs byte-identically apart from the manifest timestamp.
* all randomness flows from ``--seed``: it seeds the estimator jitter
  directly, and permutation replicate b shuffles with ``seed XOR b``.
* exit codes: 0 success, 2 usage or contract violation, 3 insufficient data
  at every requested horizon.

Values are reported in nats by default; ``--units bits`` divides by ln 2.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
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
)
from .diagnostics import ProbeEvaluation, decompose_loss, fano_bound, pinsker_bound
from .errors import ForecastabilityError, InsufficientData
from .estimators import _JITTER_SCALE, EstimatorConfig, estimate_profile
from .significance import permutation_test

_LN2 = math.log(2.0)

_EXIT_CONTRACT = 2
_EXIT_NO_DATA = 3

_INT64_BOUND = 2.0 ** 63
# numpy sizes an array in bytes with an intp: the longest float64 array
_MAX_FLOAT_ARRAY = np.iinfo(np.intp).max // np.dtype(float).itemsize

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


def _die(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _contract_guard(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except InsufficientData as exc:
            _die(_EXIT_NO_DATA, str(exc))
        except ForecastabilityError as exc:
            _die(_EXIT_CONTRACT, str(exc))

    return wrapper


# ---------------------------------------------------------------- parsing


def _at_least(flag: str, value: int, minimum: int):
    if value < minimum:
        raise ParseError(f"{flag} must be >= {minimum}, got {value}")


def _at_most(flag: str, value: int, maximum: float):
    if value > maximum:
        raise ParseError(f"{flag} must be <= {maximum}, got {value}")


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
            out.extend(range(lo, hi + 1))
        else:
            try:
                out.append(int(item))
            except ValueError:
                raise ParseError(f"bad horizon {item!r}") from None
    try:
        return _ascending_horizons(out)
    except ValueError as exc:
        raise ParseError(f"{exc}, got {text!r}") from None


def _is_numeric_row(cells: list[str]) -> bool:
    try:
        for cell in cells:
            float(cell)
    except ValueError:
        return False
    return True


def _split_rows(path: str) -> list[list[str]]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    rows = [
        [cell.strip() for cell in line.split(",")]
        for line in text.splitlines()
        if line.strip()
    ]
    if not rows:
        raise ParseError(f"{path}: no data rows")
    if not _is_numeric_row(rows[0]):
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}: only a header row")
    return rows


def read_series_csv(path: str) -> TimeSeries:
    """Load a series from CSV: one value column, or (index, value) pairs."""
    rows = _split_rows(path)
    width = len(rows[0])
    if width not in (1, 2):
        raise ParseError(f"{path}: expected 1 or 2 columns, found {width}")
    values = []
    for i, cells in enumerate(rows):
        if len(cells) != width or not _is_numeric_row(cells):
            raise ParseError(f"{path}: malformed row {i + 1}: {','.join(cells)!r}")
        values.append(float(cells[-1]))
    try:
        return TimeSeries(values=np.array(values), name=Path(path).stem)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def read_probe_csv(path: str) -> dict[int, ProbeEvaluation]:
    """Load probe evaluations keyed by horizon from a (t_index, horizon,
    log_density) CSV.  Log densities are in nats, original series units."""
    rows = _split_rows(path)
    grouped: dict[int, dict[int, float]] = {}
    for i, cells in enumerate(rows):
        if len(cells) != 3 or not _is_numeric_row(cells):
            raise ParseError(
                f"{path}: malformed probe row {i + 1}: {','.join(cells)!r} "
                "(expected t_index,horizon,log_density)"
            )
        t_raw, h_raw, ld = float(cells[0]), float(cells[1]), float(cells[2])
        if not all(-_INT64_BOUND <= v < _INT64_BOUND for v in (t_raw, h_raw)):
            raise ParseError(f"{path}: index outside the int64 range in row {i + 1}")
        if t_raw != int(t_raw) or h_raw != int(h_raw):
            raise ParseError(f"{path}: non-integer index in row {i + 1}")
        t, h = int(t_raw), int(h_raw)
        scored = grouped.setdefault(h, {})
        if t in scored:
            raise ParseError(
                f"{path}: duplicate t_index {t} at horizon {h} in row {i + 1}"
            )
        scored[t] = ld
    probes = {}
    for h, scored in sorted(grouped.items()):
        try:
            probes[h] = ProbeEvaluation(
                horizon=h,
                log_densities=np.array(list(scored.values())),
                eval_indices=np.array(list(scored)),
            )
        except ValueError as exc:
            raise ParseError(f"{path}: horizon {h}: {exc}") from None
    return probes


# ---------------------------------------------------------------- output


def _fmt(value) -> str:
    if value is None:
        return ""
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


def _write_output(path: str, text: str, manifest: RunManifest | None = None):
    """Write ``text`` to ``path`` and, given a manifest, its sidecar
    ``<path>.manifest.json``."""
    target = Path(path)
    files = [(target, text)]
    if manifest is not None:
        sidecar = target.with_name(target.name + ".manifest.json")
        files.append((sidecar, json.dumps(asdict(manifest), indent=2) + "\n"))
    for file, content in files:
        try:
            file.write_text(content)
        except OSError as exc:
            raise ParseError(f"cannot write {file}: {exc}") from None


def emit_table(
    columns: list[str],
    rows: list[dict],
    manifest: RunManifest,
    out: str | None,
):
    """Write a per-horizon table as CSV (stdout or file) or JSON (by extension)."""
    if out is not None and out.endswith(".json"):
        doc = {
            "manifest": asdict(manifest),
            "rows": [{c: _json_value(r.get(c)) for c in columns} for r in rows],
        }
        _write_output(out, json.dumps(doc, indent=2) + "\n")
        return
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(r.get(c)) for c in columns) for r in rows)
    text = "\n".join(lines) + "\n"
    if out is None:
        click.echo(text, nl=False)
    else:
        _write_output(out, text, manifest)


def _emit_plot(
    plot: str,
    horizons,
    label: str,
    values: list[float],
    units: str,
    manifest: RunManifest,
    title: str,
):
    svg = render_profile_svg(
        list(horizons), label, values, f"forecastability ({units})", title
    )
    _write_output(plot, svg, manifest)


def _in_units(value: float, units: str) -> float:
    return value / _LN2 if units == "bits" else value


# ---------------------------------------------------------------- commands


@click.group()
@click.version_option(version=__version__)
def main():
    """Horizon-resolved forecastability diagnostics for univariate series."""


_units_option = click.option(
    "--units", type=click.Choice(["nats", "bits"]), default="nats",
    show_default=True, help="Information units for reported values.",
)


def _gaussian_spec(model: str, phi: float, big_phi: float | None, s: int | None,
                   sigma2: float) -> GaussianProcessSpec:
    if model == "ar1":
        return GaussianProcessSpec.ar1(phi, innovation_variance=sigma2)
    if big_phi is None or s is None:
        raise ParseError("seasonal model requires --Phi and --s")
    return GaussianProcessSpec.seasonal_ar(phi, big_phi, s, innovation_variance=sigma2)


@main.command("simulate")
@click.option("--model", type=click.Choice(["ar1", "seasonal"]), required=True)
@click.option("--phi", type=float, required=True, help="First-lag coefficient.")
@click.option("--Phi", "big_phi", type=float, default=None,
              help="Seasonal-lag coefficient (seasonal model).")
@click.option("--s", type=int, default=None, help="Seasonal period (seasonal model).")
@click.option("--sigma2", type=float, default=1.0, show_default=True,
              help="Innovation variance.")
@click.option("--n", type=int, required=True, help="Number of observations to keep.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--burn-in", type=int, default=1000, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_contract_guard
def cmd_simulate(model, phi, big_phi, s, sigma2, n, seed, burn_in, out):
    """Simulate a Gaussian AR path and write it as a value-column CSV.

    Values are written with full round-trip precision so that downstream
    estimation from the file matches in-memory estimation exactly.
    """
    _at_least("--n", n, 1)
    _at_least("--burn-in", burn_in, 0)
    _at_least("--seed", seed, 0)
    # the kept path and its burn-in are drawn as one array
    _at_most("--n", n, _MAX_FLOAT_ARRAY)
    _at_most("--burn-in", burn_in, _MAX_FLOAT_ARRAY - n)
    spec = _gaussian_spec(model, phi, big_phi, s, sigma2)
    if model == "seasonal":  # the filter has s + 2 coefficients
        _at_most("--s", s, _MAX_FLOAT_ARRAY - 2)
    series = simulate(spec, n=n, seed=seed, burn_in=burn_in)
    lines = ["value"]
    lines.extend(repr(float(v)) for v in series.values)
    manifest = RunManifest.build(
        command="simulate",
        config={
            "model": model, "phi": phi, "Phi": big_phi, "s": s, "sigma2": sigma2,
            "n": n, "burn_in": burn_in, "out": out,
        },
        inputs=[],
        seed=seed,
    )
    _write_output(out, "\n".join(lines) + "\n", manifest)


@main.command("analytic")
@click.option("--model", type=click.Choice(["ar1", "seasonal"]), required=True)
@click.option("--phi", type=float, required=True)
@click.option("--Phi", "big_phi", type=float, default=None)
@click.option("--s", type=int, default=None)
@click.option("--lags", type=int, default=1, show_default=True,
              help="Lag-window order p of the conditioning set.")
@click.option("--horizons", required=True, help="e.g. 1..36 or 1,2,12")
@_units_option
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--plot", type=click.Path(dir_okay=False), default=None)
@_contract_guard
def cmd_analytic(model, phi, big_phi, s, lags, horizons, units, out, plot):
    """Exact Gaussian forecastability profile for an AR(1) or seasonal AR."""
    horizons = parse_horizons(horizons)
    _at_least("--lags", lags, 1)
    _gaussian_spec(model, phi, big_phi, s, 1.0)
    if model == "ar1":  # Markov: F(h; p) = F(h; 1) for every window p
        profile = ar1_profile(phi, horizons)
    else:
        # seasonal_ar_acf raises phi and Phi to float powers of s
        _at_most("--s", s, sys.float_info.max)
        rho = seasonal_ar_acf(phi, big_phi, s, horizons[-1] + lags - 1)
        profile = gaussian_profile_from_acf(rho, lags, horizons)
    manifest = RunManifest.build(
        command="analytic",
        config={
            "model": model, "phi": phi, "Phi": big_phi, "s": s, "lags": lags,
            "horizons": list(horizons), "units": units, "out": out, "plot": plot,
        },
        inputs=[],
        seed=None,
    )
    value_col = f"f_{units}"
    shown = [_in_units(v, units) for v in profile.values_nats]
    rows = [
        {"horizon": h, value_col: v} for h, v in zip(profile.horizons, shown)
    ]
    emit_table(["horizon", value_col], rows, manifest, out)
    if plot:
        _emit_plot(plot, profile.horizons, model, shown, units, manifest,
                   title=f"analytic profile ({model})")


def _profile_rows(profile: ForecastabilityProfile, units: str):
    value_col = f"f_{units}"
    rows = []
    shown = []
    for h, v, n_eff in zip(
        profile.horizons, profile.values_nats, profile.estimator_meta.n_effective
    ):
        gap = math.isnan(v)
        value = None if gap else _in_units(v, units)
        shown.append(math.nan if gap else value)
        rows.append(
            {"horizon": h, value_col: value, "n_effective": n_eff, "gap": gap}
        )
    return ["horizon", value_col, "n_effective", "gap"], rows, shown


def _warn_gaps(requested, with_data):
    """Warn for each requested horizon without data; fail if none has any."""
    for h in requested:
        if h not in with_data:
            click.echo(f"warning: horizon {h}: insufficient data, gap reported", err=True)
    if not with_data:
        raise InsufficientData("insufficient data at every requested horizon")


@main.command("profile")
@click.argument("input_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--lags", type=int, default=1, show_default=True)
@click.option("--horizons", required=True)
@click.option("--k", type=int, default=5, show_default=True,
              help="Neighbour count of the mutual-information estimator.")
@click.option("--seed", type=int, default=0, show_default=True)
@_units_option
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--plot", type=click.Path(dir_okay=False), default=None)
@_contract_guard
def cmd_profile(input_csv, lags, horizons, k, seed, units, out, plot):
    """Estimate the forecastability profile of a series from CSV."""
    horizons = parse_horizons(horizons)
    _at_least("--lags", lags, 1)
    series = read_series_csv(input_csv)
    spec = InformationSetSpec(lag_order=lags, horizons=horizons)
    config = EstimatorConfig(k=k, seed=seed)
    profile = estimate_profile(series, spec, config)
    _warn_gaps(horizons, profile.horizons_with_data())
    manifest = RunManifest.build(
        command="profile",
        config={
            "input": input_csv, "lags": lags, "horizons": list(horizons), "k": k,
            **_FIXED_ESTIMATOR, "units": units, "out": out, "plot": plot,
        },
        inputs=[input_csv],
        seed=seed,
    )
    columns, rows, shown = _profile_rows(profile, units)
    emit_table(columns, rows, manifest, out)
    if plot:
        _emit_plot(plot, profile.horizons, series.name or "profile", shown,
                   units, manifest, title=f"estimated profile: {series.name}")


@main.command("significance")
@click.argument("input_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--lags", type=int, default=1, show_default=True)
@click.option("--horizons", required=True)
@click.option("--k", type=int, default=5, show_default=True)
@click.option("--replicates", type=int, required=True, help="Permutation count B.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_contract_guard
def cmd_significance(input_csv, lags, horizons, k, replicates, seed, out):
    """Permutation test of estimated forecastability at each horizon.

    Reports the observed statistic (nats), the add-one p-value, and the
    50/95/99% quantiles of the permutation null.
    """
    horizons = parse_horizons(horizons)
    _at_least("--lags", lags, 1)
    series = read_series_csv(input_csv)
    spec = InformationSetSpec(lag_order=lags, horizons=horizons)
    config = EstimatorConfig(k=k, seed=seed)
    results = permutation_test(series, spec, config, replicates=replicates, seed=seed)
    _warn_gaps(horizons, [r.horizon for r in results])
    manifest = RunManifest.build(
        command="significance",
        config={
            "input": input_csv, "lags": lags, "horizons": list(horizons), "k": k,
            "replicates": replicates, **_FIXED_ESTIMATOR, "out": out,
        },
        inputs=[input_csv],
        seed=seed,
    )
    rows = []
    for r in results:
        null = np.array(r.null_samples)
        rows.append(
            {
                "horizon": r.horizon,
                "observed_nats": r.observed_nats,
                "p_value": r.p_value,
                "null_q50": float(np.quantile(null, 0.50)),
                "null_q95": float(np.quantile(null, 0.95)),
                "null_q99": float(np.quantile(null, 0.99)),
                "replicates": r.replicates,
            }
        )
    emit_table(
        ["horizon", "observed_nats", "p_value", "null_q50", "null_q95",
         "null_q99", "replicates"],
        rows, manifest, out,
    )


@main.command("decompose")
@click.argument("series_csv", type=click.Path(exists=True, dir_okay=False))
@click.argument("probe_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--lags", type=int, default=1, show_default=True)
@click.option("--k", type=int, default=5, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--alphabet", type=int, default=None,
              help="Alphabet size M; adds the misclassification floor column.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_contract_guard
def cmd_decompose(series_csv, probe_csv, lags, k, seed, alphabet, out):
    """Decompose a probe's realised log loss against the estimated profile.

    The probe CSV columns are (t_index, horizon, log_density): the log
    predictive density, in nats and original series units, that the probe
    assigned to the realised outcome at series row t_index.  All values are
    reported in nats.
    """
    _at_least("--lags", lags, 1)
    series = read_series_csv(series_csv)
    probes = read_probe_csv(probe_csv)
    if not probes:
        raise ParseError(f"{probe_csv}: no probe rows")
    horizons = tuple(sorted(probes))
    spec = InformationSetSpec(lag_order=lags, horizons=horizons)
    config = EstimatorConfig(k=k, seed=seed)
    fhat = estimate_profile(series, spec, config)
    live = fhat.horizons_with_data()
    _warn_gaps(horizons, live)
    for h in live:
        first = h + lags - 1
        earliest = int(probes[h].eval_indices.min())
        if earliest < first:
            raise ParseError(
                f"{probe_csv}: horizon {h}: t_index {earliest} is below "
                f"horizon + lags - 1 = {first}, so its forecast origin has no "
                "full lag window"
            )
    manifest = RunManifest.build(
        command="decompose",
        config={
            "series": series_csv, "probe": probe_csv, "lags": lags, "k": k,
            "alphabet": alphabet, **_FIXED_ESTIMATOR, "out": out,
        },
        inputs=[series_csv, probe_csv],
        seed=seed,
    )
    columns = [
        "horizon", "n_eval", "expected_loss_nats", "marginal_entropy_nats",
        "forecastability_nats", "exploitability_nats", "exploitation_ratio",
        "approximation_gap_nats", "low_forecastability", "pinsker_tv_bound",
    ]
    if alphabet is not None:
        columns += ["fano_min_error", "fano_vacuous"]
    rows = []
    for h in live:
        dec = decompose_loss(probes[h], series, fhat, config)
        row = {
            **asdict(dec),
            "n_eval": probes[h].n_eval,
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
    emit_table(columns, rows, manifest, out)


if __name__ == "__main__":
    main()
