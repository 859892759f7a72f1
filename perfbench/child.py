"""Child processes of the benchmark; ``run.py`` starts them with the
package source on ``PYTHONPATH``.

    python3 perfbench/child.py setup --seed N [--sizes JSON]
        The library workload's set-up alone: import and simulate.
    python3 perfbench/child.py budget --seed N --seconds S [--sizes JSON]
        The set-up, then warm ``finite_window_budget`` calls one after
        another until S seconds have passed (at least one call).
    python3 perfbench/child.py trace --workload NAME --seed N --work DIR [--sizes JSON]
        The traced run: import the package once (timed), then run the
        workload in-process untraced, traced and untraced again, each into
        its own directory, and report the per-layer metrics.

Each mode prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

PASSES = ("untraced", "traced", "untraced-2")


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def budget(seed: int, sizes: dict, seconds: float | None) -> dict:
    """Set up, then (unless ``seconds`` is None) time warm calls."""
    t0 = time.perf_counter()
    from forecastability import analytic, estimators

    from workloads import BudgetSeasonal

    workload = BudgetSeasonal(**sizes)
    series = workload.setup_series(analytic, seed)
    setup_s = time.perf_counter() - t0
    calls = []
    start = time.perf_counter()
    while seconds is not None and (not calls or time.perf_counter() - start < seconds):
        cpu0, t1 = _cpu_s(), time.perf_counter()
        output = workload.call(estimators, series)
        calls.append({"wall_s": time.perf_counter() - t1, "cpu_s": _cpu_s() - cpu0,
                      "output": output})
    return {"setup_s": setup_s, "calls": calls}


def _cli_op(cli, args: list[str]) -> tuple[int, str | None]:
    """Run one CLI command in-process; returns (exit code, traceback)."""
    try:
        cli.main.main(args, standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        return code, None
    except Exception:
        return 1, traceback.format_exc()
    return 0, None


def run_pass(workload, modules: dict, work: Path, seed: int, tracer) -> list[dict]:
    """Set up and run one iteration of the workload in-process."""
    work.mkdir(parents=True, exist_ok=True)
    ops = []
    if workload.kind == "library":
        try:
            series = workload.setup_series(modules["analytic"], seed)
            (work / "budget.txt").write_text(workload.call(modules["estimators"], series))
            ops.append({"label": "budget", "code": 0, "error": None})
        except Exception:
            ops.append({"label": "budget", "code": 1, "error": traceback.format_exc()})
        return ops

    def run(label, args):
        if tracer is None:
            code, error = _cli_op(modules["cli"], args)
        else:
            with tracer.span("cli.main"):
                code, error = _cli_op(modules["cli"], args)
        ops.append({"label": label, "code": code, "error": error})

    for label, args in workload.setup_commands(work, seed):
        run(label, args)
    workload.after_setup(work, seed)
    for label, args, _ in workload.commands(work):
        run(label, args)
    return ops


def trace(name: str, seed: int, work: Path, sizes: dict) -> dict:
    t0 = time.perf_counter()
    import forecastability.cli
    import_s = time.perf_counter() - t0

    import tracing
    from workloads import WORKLOADS

    modules = {m: importlib.import_module(f"forecastability.{m}") for m in tracing.MODULES}
    workload = WORKLOADS[name](**sizes)
    before = tracing.bindings(modules)
    tracer = tracing.Tracer(name)
    walls, ops = {}, []
    for label in PASSES:
        traced = label == "traced"
        if traced:
            tracer.install(modules)
        try:
            start = time.perf_counter()
            pass_ops = run_pass(workload, modules, work / label, seed,
                                tracer if traced else None)
            walls[label] = time.perf_counter() - start
        finally:
            if traced:
                tracer.restore()
        ops.extend(dict(op, run=label) for op in pass_ops)
    tracer.write_jsonl(work / "spans.jsonl")
    layers = tracing.layer_metrics(tracer.spans)
    layers["cli.import_s"] = import_s
    untraced = (walls["untraced"] + walls["untraced-2"]) / 2.0
    layers["trace.overhead_ratio"] = walls["traced"] / untraced - 1.0
    return {"layers": layers, "walls": walls, "ops": ops, "spans": len(tracer.spans),
            "unrestored": tracing.changed(before, modules)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "budget", "trace"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--sizes", default="{}",
                        help="JSON keyword arguments of the workload (tests use small sizes)")
    args = parser.parse_args(argv)
    sizes = json.loads(args.sizes)
    if args.mode == "setup":
        result = budget(args.seed, sizes, None)
    elif args.mode == "budget":
        result = budget(args.seed, sizes, args.seconds)
    else:
        result = trace(args.workload, args.seed, args.work, sizes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
