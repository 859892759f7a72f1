"""Benchmark of the forecastability CLI and library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from ``src/``
(it need not be installed).  With ``--trace 0`` the workload runs as a
closed loop with one client, each operation a cold child process started
only after the previous one exited, for ``--seconds`` after its set-up; the
end-to-end metrics are reported.  With ``--trace 1`` one child runs the
workload in-process with the package's public functions wrapped, and the
per-layer metrics are reported.  Outputs are checked in both modes.

Human-readable lines come first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Every run also writes a
result file, with an environment record, under ``.perfbench/results/``.  The
exit code is 0 only when every operation succeeded and every output was
correct.

``--record-digests`` (default seed only) stores the sha256 of every output
in ``perfbench/digests.json``; later runs at that seed must match them.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
from workloads import (DEFAULT_SEED, DIGESTS, WORKLOADS, check_outputs, load_digests,
                       outputs_of, read_outputs, sha256)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 150.0


@dataclass
class Op:
    """One operation: a CLI invocation or a library call."""

    label: str
    code: int
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    stdout: str = ""
    problems: list[str] = field(default_factory=list)


def run_child(label: str, argv: list[str], logs: Path, busy_s: float = 0.0) -> Op:
    """Run one cold child to completion; it is killed if it runs
    CHILD_TIMEOUT_S beyond the ``busy_s`` it was asked to spend.  CPU time
    and peak RSS come from ``wait4`` on that child alone; ``RUSAGE_CHILDREN``
    would report the largest RSS of every child waited for so far."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out_path, err_path = logs / f"{label}.out", logs / f"{label}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(busy_s + CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    op = Op(label, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0, out_path.read_text())
    if op.code != 0:
        op.problems.append(f"exit code {op.code}")
    if "Traceback" in err_path.read_text():
        op.problems.append("traceback on stderr")
    return op


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "forecastability.cli", *args]


def child_argv(mode: str, workload, seed: int, work: Path, sizes: dict,
               seconds: float = 0.0) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), mode, "--workload", workload.name,
            "--seed", str(seed), "--work", str(work), "--sizes", json.dumps(sizes),
            "--seconds", repr(seconds)]


def writer_of(workload, filename: str) -> str:
    """Label of the operation that writes an output file."""
    if workload.kind == "library":
        return "budget"
    return next(label for label, _, outs in workload.commands(Path(".")) if filename in outs)


def digests_for(workload, seed: int, record: bool) -> dict | None:
    return None if record or seed != DEFAULT_SEED else load_digests().get(workload.name)


# ------------------------------------------------------------ end to end


def set_up_cli(workload, seed: int, work: Path, logs: Path) -> tuple[list[Op], list[float]]:
    """Create the CLI workload's inputs SETUP_RUNS times, timing each."""
    ops, samples, inputs = [], [], None
    for r in range(SETUP_RUNS):
        start = time.perf_counter()
        for label, args in workload.setup_commands(work, seed):
            ops.append(run_child(f"setup{r}-{label}", cli_argv(args), logs))
        workload.after_setup(work, seed)
        samples.append(time.perf_counter() - start)
        current = [p.read_bytes() for p in sorted(work.glob("*.csv"))]
        if inputs is not None and current != inputs:
            ops[-1].problems.append("inputs differ between set-up runs")
        inputs = current
    return ops, samples


def iterate_cli(workload, work: Path, logs: Path, i: int) -> dict:
    for name in outputs_of(workload):
        (work / name).unlink(missing_ok=True)
    ops = [run_child(f"it{i}-{label}", cli_argv(args), logs)
           for label, args, _ in workload.commands(work)]
    return {"wall_s": sum(op.wall_s for op in ops), "cpu_s": sum(op.cpu_s for op in ops),
            "peak_rss_mb": max(op.rss_mb for op in ops), "ops": ops,
            "outputs": read_outputs(workload, work)}


def result_line(op: Op) -> dict | None:
    try:
        return json.loads(op.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        op.problems.append("no result line from the child")
        return None


def run_library(workload, seed: int, seconds: float, work: Path, logs: Path,
                sizes: dict) -> tuple[list[Op], list[float], list[dict]]:
    """SETUP_RUNS children that only import and simulate, then one child
    that sets up once more and makes warm calls, one after another, until
    ``seconds`` have passed.  A call's CPU time is the child's own usage
    around it; its peak RSS is the child's, from ``wait4``."""
    ops, setup_s = [], []
    for r in range(SETUP_RUNS):
        op = run_child(f"setup{r}-budget", child_argv("setup", workload, seed, work, sizes),
                       logs)
        ops.append(op)
        if (report := result_line(op)) is not None:
            setup_s.append(report["setup_s"])
    child = run_child("calls", child_argv("budget", workload, seed, work, sizes, seconds),
                      logs, busy_s=seconds)
    report = result_line(child)
    if report is None:
        calls = [{"wall_s": child.wall_s, "cpu_s": child.cpu_s, "output": ""}]
    else:
        setup_s.append(report["setup_s"])
        calls = report["calls"]
    iterations = []
    for i, call in enumerate(calls):
        op = Op(f"it{i}-budget", child.code, call["wall_s"], call["cpu_s"], child.rss_mb)
        if i == len(calls) - 1:  # a failed child fails its last call
            op.problems += child.problems
        ops.append(op)
        iterations.append({"wall_s": op.wall_s, "cpu_s": op.cpu_s, "peak_rss_mb": op.rss_mb,
                           "ops": [op], "outputs": {"budget.txt": call["output"].encode()}})
    return ops, setup_s, iterations


def run_end_to_end(workload, seed: int, seconds: float, work: Path, sizes: dict,
                   record: bool = False) -> dict:
    """Set up, run iterations until ``seconds`` have passed (the last one
    started before the deadline finishes), then check every output."""
    logs = work / "logs"
    logs.mkdir(parents=True)
    if workload.kind == "library":
        ops, setup_s, iterations = run_library(workload, seed, seconds, work, logs, sizes)
    else:
        ops, setup_s = set_up_cli(workload, seed, work, logs)
        iterations = []
        deadline = time.perf_counter() + seconds
        while not iterations or time.perf_counter() < deadline:
            iterations.append(iterate_cli(workload, work, logs, len(iterations)))
            ops.extend(iterations[-1]["ops"])

    import forecastability as fc

    expected = workload.expected(fc, work, seed)
    digests = digests_for(workload, seed, record)
    first = iterations[0]["outputs"]
    for i, it in enumerate(iterations):
        for problem in check_outputs(workload, it["outputs"], expected, first, digests):
            label = f"it{i}-{writer_of(workload, problem.split(':')[0])}"
            next(op for op in it["ops"] if op.label == label).problems.append(problem)
    return {"ops": ops, "setup_s": setup_s, "iterations": iterations}


def end_to_end_metrics(run: dict) -> dict[str, dict]:
    its = run["iterations"]

    def median(values, unit):
        values = list(values)  # empty only when every set-up child failed
        return {"value": statistics.median(values) if values else math.nan, "unit": unit,
                "samples": len(values)}

    return {
        "wall_s": median((it["wall_s"] for it in its), "s"),
        "setup_s": median(run["setup_s"], "s"),
        "cpu_s": median((it["cpu_s"] for it in its), "s"),
        "peak_rss_mb": median((it["peak_rss_mb"] for it in its), "MB"),
    }


# ------------------------------------------------------------ traced run


def run_traced(workload, seed: int, work: Path, sizes: dict, record: bool = False) -> dict:
    """One traced child; its three in-process runs must write the same bytes,
    and those bytes must pass the same checks as the end-to-end outputs."""
    logs = work / "logs"
    logs.mkdir(parents=True)
    parent = run_child("trace", child_argv("trace", workload, seed, work, sizes), logs)
    try:
        child = json.loads(parent.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        parent.problems.append("no result line from the trace child")
        return {"ops": [parent], "child": None, "outputs": {}}
    ops = [Op(f"{o['run']}-{o['label']}", o["code"]) for o in child["ops"]]
    for op, o in zip(ops, child["ops"]):
        if o["code"] != 0:
            op.problems.append(f"exit code {o['code']}")
        if o["error"]:
            op.problems.append(o["error"].strip().splitlines()[-1])
    parent.problems += [f"not restored after tracing: {name}" for name in child["unrestored"]]
    if parent.problems:
        ops.append(parent)

    import forecastability as fc

    outputs = {run: read_outputs(workload, work / run) for run in child["walls"]}
    expected = workload.expected(fc, work / "untraced", seed)
    digests = digests_for(workload, seed, record)
    for run, files in outputs.items():
        for problem in check_outputs(workload, files, expected, outputs["untraced"], digests):
            label = f"{run}-{writer_of(workload, problem.split(':')[0])}"
            next(op for op in ops if op.label == label).problems.append(problem)
    return {"ops": ops, "child": child, "outputs": outputs}


# The per-layer metrics of the result line: the times of the layers every
# workload calls, and the counts of every named layer.  Times of layers that
# only some workloads call (the SVG, the probe reader, the permutation
# replicates, the 14-d KSG class, ...) are printed and kept in the result
# file, but not put in the line, where they would read 0 on every run of the
# other workloads.
REPORTED_LAYERS = (
    "cli.import_s",
    "analytic.simulate.self_s",
    "core.lag_embed.self_s",
    "estimators.ksg_mutual_information.self_s",
    "estimators.digamma.self_s",
    "estimators.ksg_mutual_information.cpu_per_wall",
    "trace.overhead_ratio",
    "core.lag_embed.bytes",
    "estimators.ksg_mutual_information.points",
    *(f"{layer}.calls" for layer in tracing.LAYERS),
    "trace.errors",
    "abs_err_nats",
)

LAYER_UNITS = {"_s": "s", "_ms": "ms", ".calls": "count", ".errors": "count",
               ".bytes": "bytes", ".points": "count", "_ratio": "ratio",
               ".cpu_per_wall": "ratio", "_nats": "nats"}


def layer_unit(name: str) -> str:
    return next(unit for suffix, unit in LAYER_UNITS.items() if name.endswith(suffix))


# ------------------------------------------------------------ reporting


def environment() -> dict:
    """Machine and software the run measured, read-only."""
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        **{name: importlib.metadata.version(name) for name in ("numpy", "scipy", "click")},
        "git_commit": commit,
    }


def abs_err_of(workload, outputs: dict[str, bytes]) -> float:
    import forecastability as fc

    try:
        return workload.abs_err(fc, outputs)
    except (KeyError, ValueError, IndexError):
        return math.nan


def end_to_end_report(workload, seed: int, seconds: float, work: Path, record: bool) -> dict:
    run = run_end_to_end(workload, seed, seconds, work, {}, record)
    ops = run["ops"]
    failed = sum(1 for op in ops if op.problems)
    metrics = end_to_end_metrics(run)
    abs_err = abs_err_of(workload, run["iterations"][-1]["outputs"])
    how = "cold child processes" if workload.kind == "cli" else "warm calls in one child"
    print(f"workload {workload.name}  seed {seed}  closed loop, one client, {how}")
    for key, m in metrics.items():
        print(f"  {key:<13} {m['value']:12.6f} {m['unit']:<5} median of {m['samples']}")
    print(f"  {'failed_ratio':<13} {failed / len(ops):12.6f} {'':<5} "
          f"{failed} of {len(ops)} operations")
    print(f"  {'abs_err_nats':<13} {abs_err:12.6f} {'nats':<5} fixed by the seed")
    if record and not failed:
        record_digests(workload, run["iterations"][0]["outputs"])
    return {
        "metrics": metrics, "ops": ops, "failed_ratio": failed / len(ops),
        "abs_err_nats": abs_err,
        "setup_samples_s": run["setup_s"],
        "iterations": [
            {"wall_s": it["wall_s"], "cpu_s": it["cpu_s"], "peak_rss_mb": it["peak_rss_mb"],
             "ops": [{"label": op.label, "wall_s": op.wall_s, "cpu_s": op.cpu_s,
                      "rss_mb": op.rss_mb, "code": op.code} for op in it["ops"]]}
            for it in run["iterations"]
        ],
        "digests": {n: sha256(d) for n, d in run["iterations"][0]["outputs"].items()},
    }


def traced_report(workload, seed: int, work: Path, record: bool, spans_path: Path) -> dict:
    traced = run_traced(workload, seed, work, {}, record)
    child = traced["child"]
    layers = {}
    if child is not None:
        layers = dict(child["layers"])
        layers["abs_err_nats"] = abs_err_of(workload, traced["outputs"]["traced"])
        shutil.copyfile(work / "spans.jsonl", spans_path)
    everything = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}
    print(f"workload {workload.name}  seed {seed}  traced in-process run, "
          f"{child['spans'] if child else 0} spans")
    for key, m in everything.items():
        print(f"  {key:<48} {m['value']:16.6f} {m['unit']}")
    return {"metrics": {k: everything[k] for k in REPORTED_LAYERS if k in everything},
            "all_layers": everything, "ops": traced["ops"],
            "run_walls_s": child["walls"] if child else None}


def record_digests(workload, outputs: dict[str, bytes]):
    digests = load_digests()
    digests[workload.name] = {name: sha256(data) for name, data in sorted(outputs.items())}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(outputs)} digests for {workload.name} in {DIGESTS.name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "forecastability" / "cli.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    if args.record_digests and (args.seed != DEFAULT_SEED or args.trace):
        parser.error(f"--record-digests needs --seed {DEFAULT_SEED} --trace 0")
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]()
    stem = f"{workload.name}-s{args.seed}-t{args.trace}-{time.time_ns()}"
    work = ROOT / ".perfbench" / stem
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    work.mkdir()
    try:
        if args.trace:
            report = traced_report(workload, args.seed, work, args.record_digests,
                                   results / f"{stem}.spans.jsonl")
        else:
            report = end_to_end_report(workload, args.seed, args.seconds, work,
                                       args.record_digests)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = report.pop("ops")
    problems = [f"{op.label}: {p}" for op in ops for p in op.problems]
    failed = sum(1 for op in ops if op.problems)
    for problem in problems:
        print(f"FAILED {problem}")
    report.update(workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, attempted=len(ops), failed=failed, problems=problems,
                  environment=environment())
    (results / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in report["metrics"].items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
