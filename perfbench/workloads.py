"""The benchmark's workloads: seeded inputs, the operations of one
iteration, and what their outputs must be.

Every input derives from the workload seed; the program sees only the
generated files (CLI workloads) or the simulated series (library workload).
Sizes are constructor arguments so the tests can run each workload small.
"""

from __future__ import annotations

import hashlib
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0

SEASONAL = {"phi": 0.5, "Phi": 0.8, "s": 12}
AR1_PHI = 0.5
_SEASONAL_ARGS = ["--model", "seasonal", "--phi", "0.5", "--Phi", "0.8", "--s", "12"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


# ------------------------------------------------------------ inputs


def read_values(path: Path) -> np.ndarray:
    """Values of a one-column CSV written by ``simulate`` (header ``value``)."""
    lines = path.read_text().splitlines()
    return np.array([float(v) for v in lines[1:]])


def seasonal_autocovariance(max_lag: int, terms: int = 4000) -> np.ndarray:
    """gamma(0..max_lag) of the unit-innovation seasonal AR, from its MA(inf)
    weights; computed here so the probe does not depend on the package."""
    phi, big_phi, s = SEASONAL["phi"], SEASONAL["Phi"], SEASONAL["s"]
    ar = phi ** np.arange(terms)
    psi = np.zeros(terms)
    for b in range(terms // s + 1):
        psi[s * b:] += big_phi ** b * ar[: terms - s * b]
    return np.array([psi[: terms - h] @ psi[h:] for h in range(max_lag + 1)])


def write_probe(series_csv: Path, probe_csv: Path, seed: int, rows: int, horizons=(1, 12)):
    """Write a probe CSV scoring the exact lag-h Gaussian conditional
    ``y[t] | y[t-h]`` at ``rows`` seeded distinct times per horizon."""
    y = read_values(series_csv)
    gamma = seasonal_autocovariance(max(horizons))
    lines = ["t_index,horizon,log_density"]
    for h in horizons:
        rng = np.random.default_rng([seed, h])
        t = np.sort(rng.choice(np.arange(h, y.size), size=rows, replace=False))
        rho = gamma[h] / gamma[0]
        var = gamma[0] * (1.0 - rho * rho)
        resid = y[t] - rho * y[t - h]
        ld = -0.5 * np.log(2.0 * math.pi * var) - resid * resid / (2.0 * var)
        lines.extend(f"{ti},{h},{li!r}" for ti, li in zip(t.tolist(), ld.tolist()))
    probe_csv.write_text("\n".join(lines) + "\n")


# ------------------------------------------------------------ tables


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return "" if math.isnan(value) else format(value, ".9g")
    return str(value)


def table(columns: list[str], rows: list[dict]) -> bytes:
    """A table in the CLI's CSV form: header, then 9-significant-digit rows."""
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(r[c]) for c in columns) for r in rows)
    return ("\n".join(lines) + "\n").encode()


def read_column(data: bytes, column: str) -> list[float]:
    lines = data.decode().splitlines()
    idx = lines[0].split(",").index(column)
    return [float(line.split(",")[idx]) for line in lines[1:]]


# ------------------------------------------------------------ workloads


class ProfileSeasonal:
    """profile + decompose + analytic on a seasonal AR series, each command
    a cold process."""

    name = "profile-seasonal-20k"
    kind = "cli"

    def __init__(self, n: int = 20_000, horizons: int = 36, probe_rows: int = 4000):
        self.n, self.horizons, self.probe_rows = n, horizons, probe_rows

    def setup_commands(self, work: Path, seed: int) -> list[tuple[str, list[str]]]:
        return [("simulate", ["simulate", *_SEASONAL_ARGS, "--n", str(self.n),
                              "--seed", str(seed), "--out", str(work / "series.csv")])]

    def after_setup(self, work: Path, seed: int):
        write_probe(work / "series.csv", work / "probe.csv", seed, self.probe_rows)

    def commands(self, work: Path) -> list[tuple[str, list[str], tuple]]:
        hz = f"1..{self.horizons}"
        return [
            ("profile", ["profile", str(work / "series.csv"), "--lags", "1",
                         "--horizons", hz, "--plot", str(work / "profile.svg"),
                         "--out", str(work / "profile.csv")],
             ("profile.csv", "profile.svg")),
            ("decompose", ["decompose", str(work / "series.csv"), str(work / "probe.csv"),
                           "--lags", "1", "--alphabet", "8",
                           "--out", str(work / "decompose.csv")],
             ("decompose.csv",)),
            ("analytic", ["analytic", *_SEASONAL_ARGS, "--lags", "13", "--horizons", hz,
                          "--out", str(work / "analytic.csv")],
             ("analytic.csv",)),
        ]

    def expected(self, fc, work: Path, seed: int) -> dict[str, bytes]:
        """The in-process library results in the CLI's table format."""
        series = fc.TimeSeries(read_values(work / "series.csv"), name="series")
        config = fc.EstimatorConfig(k=5, seed=0)
        horizons = tuple(range(1, self.horizons + 1))
        prof = fc.estimate_profile(series, fc.InformationSetSpec(1, horizons), config)
        rows = [
            {"horizon": h, "f_nats": None if math.isnan(v) else v,
             "n_effective": n_eff, "gap": math.isnan(v)}
            for h, v, n_eff in zip(prof.horizons, prof.values_nats,
                                   prof.estimator_meta.n_effective)
        ]
        out = {"profile.csv": table(["horizon", "f_nats", "n_effective", "gap"], rows)}

        probes = _read_probe(work / "probe.csv")
        fhat = fc.estimate_profile(series, fc.InformationSetSpec(1, tuple(probes)), config)
        rows = []
        for h, (t, ld) in probes.items():
            dec = fc.decompose_loss(fc.ProbeEvaluation(h, ld, t), series, fhat, config)
            fano = fc.fano_bound(dec.forecastability_nats, dec.marginal_entropy_nats, 8)
            rows.append({
                "horizon": h, "n_eval": len(t),
                "expected_loss_nats": dec.expected_loss_nats,
                "marginal_entropy_nats": dec.marginal_entropy_nats,
                "forecastability_nats": dec.forecastability_nats,
                "exploitability_nats": dec.exploitability_nats,
                "exploitation_ratio": dec.exploitation_ratio,
                "approximation_gap_nats": dec.approximation_gap_nats,
                "low_forecastability": dec.low_forecastability,
                "pinsker_tv_bound": fc.pinsker_bound(
                    max(dec.forecastability_nats, 0.0)).pinsker_tv_bound,
                "fano_min_error": fano.fano_min_error,
                "fano_vacuous": fano.fano_vacuous,
            })
        out["decompose.csv"] = table(list(rows[0]), rows)

        analytic = self._analytic(fc, 13)
        out["analytic.csv"] = table(
            ["horizon", "f_nats"],
            [{"horizon": h, "f_nats": v} for h, v in zip(analytic.horizons, analytic.values_nats)],
        )
        return out

    def _analytic(self, fc, lags: int):
        horizons = tuple(range(1, self.horizons + 1))
        rho = fc.seasonal_ar_acf(SEASONAL["phi"], SEASONAL["Phi"], SEASONAL["s"],
                                 self.horizons + lags - 1)
        return fc.gaussian_profile_from_acf(rho, lags, horizons)

    def well_formed(self, name: str, data: bytes) -> bool:
        if name != "profile.svg":
            return True
        try:
            return ET.fromstring(data).tag.endswith("svg")
        except ET.ParseError:
            return False

    def abs_err(self, fc, outputs: dict[str, bytes]) -> float:
        """Mean |F_hat(h) - F(h)| over the profile's horizons, in nats."""
        est = read_column(outputs["profile.csv"], "f_nats")
        exact = self._analytic(fc, 1).values_nats
        return float(np.mean(np.abs(np.subtract(est, exact))))


class SignificanceAr1:
    """One cold ``significance`` process on an AR(1) series."""

    name = "significance-ar1-1k"
    kind = "cli"
    horizon_list = (1, 6, 12)

    def __init__(self, n: int = 1000, replicates: int = 199):
        self.n, self.replicates = n, replicates

    def setup_commands(self, work: Path, seed: int) -> list[tuple[str, list[str]]]:
        return [("simulate", ["simulate", "--model", "ar1", "--phi", str(AR1_PHI),
                              "--n", str(self.n), "--seed", str(seed),
                              "--out", str(work / "series.csv")])]

    def after_setup(self, work: Path, seed: int):
        pass

    def commands(self, work: Path) -> list[tuple[str, list[str], tuple]]:
        return [("significance", ["significance", str(work / "series.csv"), "--lags", "1",
                                  "--horizons", ",".join(map(str, self.horizon_list)),
                                  "--replicates", str(self.replicates), "--seed", "0",
                                  "--out", str(work / "significance.csv")],
                 ("significance.csv",))]

    def expected(self, fc, work: Path, seed: int) -> dict[str, bytes]:
        series = fc.TimeSeries(read_values(work / "series.csv"), name="series")
        results = fc.permutation_test(
            series, fc.InformationSetSpec(1, self.horizon_list),
            fc.EstimatorConfig(k=5, seed=0), replicates=self.replicates, seed=0,
        )
        rows = [
            {"horizon": r.horizon, "observed_nats": r.observed_nats, "p_value": r.p_value,
             "null_q50": float(np.quantile(r.null_samples, 0.50)),
             "null_q95": float(np.quantile(r.null_samples, 0.95)),
             "null_q99": float(np.quantile(r.null_samples, 0.99)),
             "replicates": r.replicates}
            for r in results
        ]
        return {"significance.csv": table(list(rows[0]), rows)}

    def well_formed(self, name: str, data: bytes) -> bool:
        return True

    def abs_err(self, fc, outputs: dict[str, bytes]) -> float:
        """Mean |observed - F(h)| against the exact AR(1) profile, in nats."""
        est = read_column(outputs["significance.csv"], "observed_nats")
        exact = fc.ar1_profile(AR1_PHI, self.horizon_list).values_nats
        return float(np.mean(np.abs(np.subtract(est, exact))))


class BudgetSeasonal:
    """One warm ``finite_window_budget`` call (p=1 against p=13 at h=12)."""

    name = "budget-seasonal-20k-p13"
    kind = "library"
    horizon = 12
    p_small, p_large = 1, 13

    def __init__(self, n: int = 20_000):
        self.n = n

    def setup_series(self, analytic, seed: int):
        spec = analytic.GaussianProcessSpec.seasonal_ar(SEASONAL["phi"], SEASONAL["Phi"],
                                                       SEASONAL["s"])
        return analytic.simulate(spec, self.n, seed=seed)

    def call(self, estimators, series) -> str:
        """The timed call; returns the text of ``budget.txt``."""
        budget = estimators.finite_window_budget(
            series, self.p_small, self.p_large, (self.horizon,), estimators.EstimatorConfig()
        )
        return repr(budget.delta_nats[0]) + "\n"

    def expected(self, fc, work: Path, seed: int) -> dict[str, bytes]:
        # recomputing the budget in-process would cost as much as the call;
        # the value is checked by digest, by finiteness and across iterations
        return {}

    def well_formed(self, name: str, data: bytes) -> bool:
        try:
            return math.isfinite(float(data))
        except ValueError:
            return False

    def abs_err(self, fc, outputs: dict[str, bytes]) -> float:
        """|delta_hat - delta| against the exact Gaussian budget, in nats."""
        rho = fc.seasonal_ar_acf(SEASONAL["phi"], SEASONAL["Phi"], SEASONAL["s"],
                                 self.horizon + self.p_large - 1)
        exact = (fc.gaussian_profile_from_acf(rho, self.p_large, (self.horizon,)).values_nats[0]
                 - fc.gaussian_profile_from_acf(rho, self.p_small, (self.horizon,)).values_nats[0])
        return abs(float(outputs["budget.txt"]) - exact)


def _read_probe(path: Path) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    grouped: dict[int, list[tuple[int, float]]] = {}
    for line in path.read_text().splitlines()[1:]:
        t, h, ld = line.split(",")
        grouped.setdefault(int(h), []).append((int(t), float(ld)))
    return {
        h: (np.array([t for t, _ in pairs]), np.array([ld for _, ld in pairs]))
        for h, pairs in sorted(grouped.items())
    }


WORKLOADS = {w.name: w for w in (ProfileSeasonal, SignificanceAr1, BudgetSeasonal)}


def outputs_of(workload) -> list[str]:
    """Files whose bytes are checked: every table, the SVG, the budget value."""
    if workload.kind == "library":
        return ["budget.txt"]
    return [name for _, _, outs in workload.commands(Path(".")) for name in outs]


def read_outputs(workload, work: Path) -> dict[str, bytes]:
    return {name: (work / name).read_bytes()
            for name in outputs_of(workload) if (work / name).exists()}


def check_outputs(workload, outputs: dict[str, bytes], expected: dict[str, bytes],
                  reference: dict[str, bytes] | None, digests: dict | None) -> list[str]:
    """Problems with one iteration's outputs: a missing or malformed file, a
    table that differs from the library result, bytes that differ from
    ``reference`` (an earlier iteration or the untraced run), or a digest
    that differs from the one recorded for the default seed.  Each problem
    starts with the file name."""
    problems = []
    for name in outputs_of(workload):
        if name not in outputs:
            problems.append(f"{name}: missing")
            continue
        data = outputs[name]
        if not workload.well_formed(name, data):
            problems.append(f"{name}: malformed")
        if name in expected and data != expected[name]:
            problems.append(f"{name}: differs from the in-process library result")
        if reference is not None and name in reference and data != reference[name]:
            problems.append(f"{name}: differs from the reference run")
        if digests and name in digests and sha256(data) != digests[name]:
            problems.append(f"{name}: sha256 differs from the recorded digest")
    return problems
