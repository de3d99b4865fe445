"""The repository benchmark: end-to-end and per-layer metrics of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steadiness --workload NAME --seed N --seconds S

Run it from the root of a checkout.  Each measured run is one
``repro.api.run_experiment`` call in a fresh process (``measure.py``) with
BLAS/OpenMP pinned to one thread per process.  Runs alternate between a
short and a long update budget while one more pair fits in ``--seconds``
(at least ``MIN_PAIRS`` pairs).  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics:

* ``steps_per_s`` — ``(U_long - U_short) / (T_long - T_short)`` over the
  median wall times of the two budgets;
* ``setup_s`` — the intercept ``T_short - U_short / steps_per_s``;
* ``peak_rss_mb`` — the median over long runs of the largest resident set
  among the run's processes.

With ``--trace 1`` untraced and traced pairs alternate (``tracing.py``
wraps each layer's public calls); the metrics are the per-layer numbers of
the traced long runs (medians), the traced slope and the tracing overhead
against the untraced slope.

``--steadiness`` runs the benchmark as ``SETS`` sets of ``RUNS`` runs, with
seeds ``N``, ``N + 1``, ... (a new one for every run), and prints, per
end-to-end metric, each set's median and quartiles, the spread
(interquartile range over median) and the set-to-set difference of the
medians next to the bound in ``BENCHMARK.json``.

``README.md`` in this directory defines every metric and records why each
workload was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import ALL_LAYERS, WORKLOADS  # noqa: E402

#: One BLAS/OpenMP thread per process: the workloads keep two processes
#: busy on two cores, and a second BLAS thread per process oversubscribes
#: them (run-to-run spread of several percent instead of ~1%).
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
MIN_PAIRS = 3
MIN_TRACE_PAIRS = 2
MAX_PAIRS = 16
#: Stop starting runs after this long, so one invocation ends within the
#: three minutes a run may take even on a much slower machine.
DEADLINE_S = 130.0
RUN_TIMEOUT_S = 120.0
#: The steadiness self-check: two sets of ten runs, as the acceptance of
#: the benchmark compares them.
SETS = 2
RUNS = 10

#: Per-layer metrics of a traced run, in output order, with their units.
LAYER_METRICS: dict[str, str] = {}
for _layer, _unit in (
    ("worker.compute", "ms"),
    ("codec.encode", "ms"),
    ("transport.send", "ms"),
    ("transport.recv", "ms"),
    ("transport.ok_wait", "ms"),
    ("server.apply", "ms"),
    ("server.pull", "ms"),
    ("policy.on_push", "us"),
):
    LAYER_METRICS[f"{_layer}_{_unit}.p50"] = _unit
    LAYER_METRICS[f"{_layer}_{_unit}.tail"] = _unit
    LAYER_METRICS[f"{_layer}.calls"] = "count"
LAYER_METRICS.update(
    {
        "worker.compute_share": "fraction",
        "codec.push_wire_bytes_per_step": "B",
        "transport.bytes_per_step": "B",
        "transport.retries": "count",
        "server.pulled_bytes_per_step": "B",
        "policy.controller_decisions_per_100_updates": "count",
        "policy.wait_share": "fraction",
        "policy.staleness_p95": "updates",
        "sim.run.calls": "count",
        "sim.loop_self_share": "fraction",
        "sim.virtual_updates_per_s": "1/virtual_s",
        "sim.tta_virtual_s": "virtual_s",
        "runtime.first_step_s": "s",
        "workload.build.calls": "count",
        "workload.build_s": "s",
        "model.final_loss": "nats",
        "trace.steps_per_s": "1/s",
        "trace.overhead_share": "fraction",
    }
)


def child_env(work_dir: Path) -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["TMPDIR"] = str(work_dir)
    return env


def measure(workload: str, seed: int, updates: int, env: dict, trace_dir: Path | None) -> dict:
    """One run in a fresh process; a crash or timeout counts as failed."""
    command = [
        sys.executable,
        str(BENCH_DIR / "measure.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--updates", str(updates),
    ]
    if trace_dir is not None:
        command += ["--trace-dir", str(trace_dir)]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=RUN_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        return {"budget": updates, "failures": [f"run timed out after {RUN_TIMEOUT_S}s"]}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-5:]
        return {"budget": updates, "failures": [f"exit {done.returncode}: {tail}"]}
    return json.loads(lines[-1])


def run_pairs(name: str, seed: int, seconds: float, env: dict, work_dir: Path,
              trace: bool, deadline: float) -> tuple[list, list]:
    """Short/long pairs filling ``seconds``: ``(untraced, traced)`` pairs.

    With ``trace`` every untraced pair is followed by a traced one, so both
    kinds see the same machine conditions.  Another round starts only if
    one more round as long as the slowest so far still ends within
    ``seconds`` (and always until the minimum number of pairs is reached).
    """
    workload = WORKLOADS[name]
    kinds = (False, True) if trace else (False,)
    min_rounds = MIN_TRACE_PAIRS if trace else MIN_PAIRS
    pairs: dict[bool, list] = {False: [], True: []}
    started = time.monotonic()
    slowest = 0.0
    rounds = 0
    while rounds < MAX_PAIRS and time.monotonic() < deadline and (
        rounds < min_rounds or time.monotonic() - started + slowest <= seconds
    ):
        round_started = time.monotonic()
        for traced in kinds:
            pair = []
            for updates in (workload.short, workload.long):
                trace_dir = work_dir / f"trace-{rounds}-{updates}" if traced else None
                record = measure(name, seed, updates, env, trace_dir)
                pair.append(record)
                print(
                    f"  {'traced' if traced else 'run'} updates={updates} "
                    f"wall_s={record.get('wall_s', float('nan')):.4f} "
                    f"rss_mb={record.get('peak_rss_mb', float('nan')):.1f} "
                    f"final_loss={record.get('final_loss', float('nan'))!r} "
                    f"failures={record['failures']}",
                    flush=True,
                )
            pairs[traced].append(tuple(pair))
        rounds += 1
        slowest = max(slowest, time.monotonic() - round_started)
    return pairs[False], pairs[True]


def slope_and_intercept(name: str, pairs) -> tuple[float, float]:
    workload = WORKLOADS[name]
    short = statistics.median(pair[0]["wall_s"] for pair in pairs)
    long = statistics.median(pair[1]["wall_s"] for pair in pairs)
    steps_per_s = (workload.long - workload.short) / (long - short)
    return steps_per_s, short - workload.short / steps_per_s


def consistency_failures(name: str, pairs) -> list[str]:
    """One seed gives one final loss per budget on deterministic workloads."""
    failures = []
    if WORKLOADS[name].deterministic:
        for index in (0, 1):
            losses = {repr(pair[index].get("final_loss")) for pair in pairs}
            if len(losses) != 1:
                failures.append(f"final loss differs across runs of one seed: {sorted(losses)}")
    return failures


def run_benchmark(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work_dir = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    env = child_env(work_dir)
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[name]
    print(
        f"workload={name} seed={seed} seconds={seconds} trace={int(trace)} "
        f"budgets={workload.short}/{workload.long} updates "
        + " ".join(f"{key}={value}" for key, value in PINNED_ENV.items()),
        flush=True,
    )
    try:
        untraced, traced = run_pairs(name, seed, seconds, env, work_dir, trace, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    every = untraced + traced
    attempted = sum(record["budget"] for pair in every for record in pair)
    failed = sum(record["budget"] for pair in every for record in pair if record["failures"])
    failures = [f for pair in every for record in pair for f in record["failures"]]
    if not failures:
        # Traced pairs join the comparison: tracing must not change results.
        failures = consistency_failures(name, every)
    metrics: dict[str, dict] = {}
    if not failures:
        steps_per_s, setup_s = slope_and_intercept(name, untraced)
        if trace:
            layers = [pair[1]["layers"] for pair in traced]
            values = {
                key: statistics.median(layer[key] for layer in layers)
                for key in LAYER_METRICS
                if key in layers[0]
            }
            traced_steps, _ = slope_and_intercept(name, traced)
            values["trace.steps_per_s"] = traced_steps
            values["trace.overhead_share"] = 1.0 - traced_steps / steps_per_s
            failures += layer_call_failures(name, values)
            metrics = {key: {"value": values[key], "unit": unit}
                       for key, unit in LAYER_METRICS.items()}
        else:
            metrics = {
                "steps_per_s": {"value": steps_per_s, "unit": "1/s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {
                    "value": statistics.median(pair[1]["peak_rss_mb"] for pair in untraced),
                    "unit": "MB",
                },
            }
    if failures and not failed:
        failed = attempted  # a check across runs failed: no run's output holds
    for failure in failures:
        print(f"FAILED: {failure}", flush=True)
    for key, metric in metrics.items():
        print(f"  {key:48s} {metric['value']:>16.6g} {metric['unit']}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def layer_call_failures(name: str, values: dict) -> list[str]:
    """Exercised layers must record calls; bypassed layers must record none."""
    exercised = set(WORKLOADS[name].exercised)
    failures = []
    for layer in ALL_LAYERS:
        calls = values.get(f"{layer}.calls", 0)
        if layer == "transport.recv":
            calls += values["transport.ok_wait.calls"]  # the worker-side receives
        if layer in exercised and calls == 0:
            failures.append(f"layer {layer} is exercised but recorded zero calls")
        if layer not in exercised and calls != 0:
            failures.append(f"layer {layer} is bypassed but recorded {calls} calls")
    return failures


def steadiness(args) -> int:
    """Run the benchmark as sets of fresh seeds and compare the sets."""
    bounds = {
        metric["name"]: metric["bound"]
        for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    sets: list[dict[str, list[float]]] = []
    for set_index in range(SETS):
        values: dict[str, list[float]] = {}
        for run in range(RUNS):
            seed = args.seed + set_index * RUNS + run
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                print(done.stdout)
                return 1
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            print(f"set {set_index} seed {seed}: " + ", ".join(
                f"{key}={metric['value']:.4f}" for key, metric in result["metrics"].items()
            ), flush=True)
        sets.append(values)
    print(f"\n{args.workload}: {SETS} sets x {RUNS} runs")
    for key in sets[0]:
        row = []
        medians = []
        for values in sets:
            q1, median, q3 = statistics.quantiles(values[key], n=4)
            medians.append(median)
            row.append(f"median {median:.4f} q1 {q1:.4f} q3 {q3:.4f} spread {(q3 - q1) / median:.2%}")
        change = (medians[1] - medians[0]) / medians[0]
        print(f"  {key:12s} " + " | ".join(row)
              + f" | set-to-set {change:+.2%} (bound {bounds.get(key, float('nan')):.0%})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Repository benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}: run from a full checkout",
              file=sys.stderr)
        return 2
    if args.steadiness:
        return steadiness(args)
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
