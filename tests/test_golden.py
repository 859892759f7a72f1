"""Output stability across commits: every CLI command on one small seeded input.

Each table, SVG, manifest and captured stdout (manifest timestamps removed)
is compared by sha256 with digests recorded from a known-good build.  Commands run from inside a
temporary directory on relative file names, so the manifests hold no
machine-specific paths.  A digest may change only together with a declared
output change.
"""

import hashlib
import json
import math

from click.testing import CliRunner

from forecastability.cli import main

N, LAGS, PHI = 600, 2, 0.5

COMMANDS = [
    ["simulate", "--model", "seasonal", "--phi", str(PHI), "--Phi", "0.8",
     "--s", "12", "--n", str(N), "--seed", "3", "--out", "series.csv"],
    ["analytic", "--model", "seasonal", "--phi", str(PHI), "--Phi", "0.8",
     "--s", "12", "--lags", str(LAGS), "--horizons", "1..24",
     "--out", "analytic.csv", "--plot", "analytic.svg"],
    ["analytic", "--model", "seasonal", "--phi", str(PHI), "--Phi", "0.8",
     "--s", "12", "--lags", str(LAGS), "--horizons", "1..24"],
    ["analytic", "--model", "seasonal", "--phi", str(PHI), "--Phi", "0.8",
     "--s", "12", "--lags", str(LAGS), "--horizons", "1..24", "--units", "bits",
     "--out", "analytic_bits.csv", "--plot", "analytic_bits.svg"],
    ["profile", "series.csv", "--lags", str(LAGS), "--horizons", "1..24,596",
     "--seed", "1", "--out", "profile.csv", "--plot", "profile.svg"],
    ["profile", "series.csv", "--lags", str(LAGS), "--horizons", "1..24,596",
     "--seed", "1", "--units", "bits", "--out", "profile_bits.csv",
     "--plot", "profile_bits.svg"],
    ["profile", "series.csv", "--lags", str(LAGS), "--horizons", "1..24,596",
     "--seed", "1", "--out", "profile.json"],
    ["significance", "series.csv", "--lags", str(LAGS), "--horizons", "1,6,12",
     "--replicates", "19", "--seed", "2", "--out", "significance.csv"],
    ["significance", "series.csv", "--lags", str(LAGS), "--horizons", "1,6,12",
     "--replicates", "19", "--seed", "2", "--out", "significance.json"],
    ["decompose", "series.csv", "probe.csv", "--lags", str(LAGS),
     "--alphabet", "8", "--seed", "4", "--out", "decompose.csv"],
]

DIGESTS = {
    "analytic.csv": "361275544ce8ded9bed74bb55652afb5d13c1ee679960200e49d3c4c6c70b492",
    "analytic.csv.manifest.json": "e285b4250c1208f54e6e253736e8a7cdcb0a3c69ae97ed7c38dedf4a5d1b570f",
    "analytic.stdout": "361275544ce8ded9bed74bb55652afb5d13c1ee679960200e49d3c4c6c70b492",
    "analytic.svg": "9d471f575c5a1a2f765921cd5efbf95283054e46053cdafe2e55429c3d517f34",
    "analytic.svg.manifest.json": "e285b4250c1208f54e6e253736e8a7cdcb0a3c69ae97ed7c38dedf4a5d1b570f",
    "analytic_bits.csv": "d31ddf54f74b0147910bd63852d4a5f3c88e868f2cdc704f71237e08b4d838aa",
    "analytic_bits.csv.manifest.json": "92b5d4069e2543b608e681a815b6af3fa0db57dfe71c6913add1e9378a6df1a7",
    "analytic_bits.svg": "49c03500c74dc46c84e626fc84b42bdae0492f283c679e0392859919af4d3bab",
    "analytic_bits.svg.manifest.json": "92b5d4069e2543b608e681a815b6af3fa0db57dfe71c6913add1e9378a6df1a7",
    "decompose.csv": "4503d8bf3dada82b968ced35d3fcef4ebaa6dd239119b2b5e0f844d1795105f5",
    "decompose.csv.manifest.json": "4372dc876f0301382b7c2eac37cfdfc798164afe46a1b1bbef96527f11173250",
    "profile.csv": "78cd5a9ba2f22b1e51d9fdae996267458b22111c4fa44cfee8f6f8166fc4f5ec",
    "profile.csv.manifest.json": "d3697d91743503d0d0ba8f6c31942cedaa37e89da833e00c6ba12dd39aa75077",
    "profile.json": "78b9755065517a96520ab2b6370f9ec80a78a9fd05dbf98dc42b50143e392db8",
    "profile.svg": "4bfede9c66f8e082e699344a2aaa014492b2fce3806920895393003de2c6ac50",
    "profile.svg.manifest.json": "d3697d91743503d0d0ba8f6c31942cedaa37e89da833e00c6ba12dd39aa75077",
    "profile_bits.csv": "3993cae7075c96514db88cd5db6738bd38b15437c3e679ad2c59630ce6e78ce6",
    "profile_bits.csv.manifest.json": "c6cac28bfe4b185a12350ea77dd757a09bbc4e6ec88a5e3444ed207f9b591458",
    "profile_bits.svg": "21a0bf36c4f7d13f7af842029b20194745a8c1b2cc24335c1d319b0c2f558fff",
    "profile_bits.svg.manifest.json": "c6cac28bfe4b185a12350ea77dd757a09bbc4e6ec88a5e3444ed207f9b591458",
    "series.csv": "0280f17e4e7d352273ff34b68fd6e2362aa099762663b2bac2b88af321074b6e",
    "series.csv.manifest.json": "529896d5f942c69570224649c54a3a35846615d1ffadf4dd2a2db4f5b0ed0263",
    "significance.csv": "a82c6e92b6ea455e78d7b120673f19a2a6674a1ec8f961f7f07cd136709705af",
    "significance.csv.manifest.json": "5afebf3f8ad29c17935991f15d5bfa4cdb2024737b621bfee19739bbc34c2ab8",
    "significance.json": "9c9e20168653eeff04a47c75790d251c0bd7b5df02519d27719a79fd82bdd20d",
}


def _write_probe(series_csv, probe_csv):
    """Gaussian AR(1)-style log densities at horizons 1 and 12, one row per
    valid forecast origin."""
    y = [float(v) for v in series_csv.read_text().splitlines()[1:]]
    lines = ["t_index,horizon,log_density"]
    for h in (1, 12):
        for t in range(h + LAGS - 1, len(y)):
            resid = y[t] - PHI ** h * y[t - h]
            lines.append(f"{t},{h},{-0.5 * math.log(2 * math.pi) - resid * resid / 2!r}")
    probe_csv.write_text("\n".join(lines) + "\n")


def _digest(path):
    if path.name.endswith(".manifest.json"):
        doc = json.loads(path.read_text())
        doc.pop("timestamp")
        data = json.dumps(doc, indent=2, sort_keys=True).encode()
    elif path.suffix == ".json":
        doc = json.loads(path.read_text())
        doc["manifest"].pop("timestamp")
        data = json.dumps(doc, indent=2, sort_keys=True).encode()
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def test_cli_outputs_match_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    for args in COMMANDS:
        if args[0] == "decompose":
            _write_probe(tmp_path / "series.csv", tmp_path / "probe.csv")
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output + repr(result.exception)
        if "--out" not in args:
            (tmp_path / f"{args[0]}.stdout").write_text(result.stdout)
    produced = {
        p.name: _digest(p) for p in sorted(tmp_path.iterdir()) if p.name != "probe.csv"
    }
    assert produced == DIGESTS
