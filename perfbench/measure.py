"""One measured ``run_experiment`` call, in a fresh process.

``run.py`` starts this script once per run so that the peak resident set
(``ru_maxrss`` of this process and of every process the run spawned) is
that run's own.  It prints one JSON record as its last line: the wall time
of the call, the updates applied, the result of every output check and,
for traced runs, the per-layer numbers computed from the spans.

    python3 perfbench/measure.py --workload NAME --seed N --updates U \
        [--trace-dir DIR]
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import ALL_LAYERS, TTA_TARGET, WORKLOADS  # noqa: E402

from repro.metrics.throughput import percentile  # noqa: E402


def tail_percentile(count: int) -> float:
    """Highest of p99.9/p99/p90 with at least ten samples beyond it, else p50."""
    for q, beyond in ((99.9, 1000), (99.0, 100), (90.0, 10)):
        if count >= 10 * beyond:
            return q
    return 50.0


def expected_wire_bytes_per_push(parameters: int, compression: str | None) -> int:
    """Exact pushed gradient bytes of one push over a single packed shard.

    Gradients travel as float64: ``none`` ships the dense buffer; ``topk:d``
    ships ``k = max(1, round(d * n))`` int32 indices and float64 values.
    """
    if compression in (None, "none"):
        return parameters * 8
    name, _, density = compression.partition(":")
    if name != "topk":
        raise ValueError(f"no exact wire-byte formula for codec {compression!r}")
    kept = min(parameters, max(1, int(round(float(density) * parameters))))
    return kept * (4 + 8)


def _parameter_count(spec) -> int:
    import numpy as np

    from repro.experiments.workloads import build_workload

    workload = build_workload(spec.workload, spec.resolved_scale(), **spec.workload_kwargs)
    model = workload.model_builder(np.random.default_rng(0))
    return int(sum(parameter.data.size for _, parameter in model.named_parameters()))


def _durations(spans: list, scale: float) -> list[float]:
    return [(span[2] - span[1]) * scale for span in spans]


def layer_metrics(spans_by_pid: dict, driver_pid: int, run_start: float, run_wall: float) -> dict:
    """Per-layer numbers of one traced run, from every process's spans."""
    by_name: dict[str, list] = {name: [] for name in ALL_LAYERS}
    server_pids = set()
    compute_pids = set()
    sim_self = 0.0
    sim_total = 0.0
    for pid, spans in spans_by_pid.items():
        for index, span in enumerate(spans):
            name, start, end, parent = span[:4]
            if end is None:
                continue  # still open when its process exited
            # A store pull inside ParameterServer.handle_pull is the same
            # operation: count the outermost span only.
            if parent >= 0 and spans[parent][0] == name:
                continue
            if name.startswith("transport.") and pid == driver_pid:
                continue  # the measuring process's result-watch connection
            by_name[name].append(span + [pid])
            if name == "server.apply":
                server_pids.add(pid)
            elif name == "worker.compute":
                compute_pids.add(pid)
            elif name == "sim.run":
                children = sum(
                    child[2] - child[1]
                    for child in spans
                    if child[3] == index and child[2] is not None
                )
                sim_total += end - start
                sim_self += end - start - children

    metrics: dict[str, float] = {}

    def timed(prefix: str, spans: list, unit: str, scale: float) -> None:
        values = _durations(spans, scale)
        metrics[f"{prefix}.calls"] = len(values)
        metrics[f"{prefix}_{unit}.p50"] = percentile(values, 50.0) if values else 0.0
        metrics[f"{prefix}_{unit}.tail"] = (
            percentile(values, tail_percentile(len(values))) if values else 0.0
        )

    receives = by_name["transport.recv"]
    timed("worker.compute", by_name["worker.compute"], "ms", 1e3)
    timed("codec.encode", by_name["codec.encode"], "ms", 1e3)
    timed("transport.send", by_name["transport.send"], "ms", 1e3)
    timed("transport.recv", [s for s in receives if s[5] in server_pids], "ms", 1e3)
    timed("transport.ok_wait", [s for s in receives if s[5] not in server_pids], "ms", 1e3)
    timed("server.apply", by_name["server.apply"], "ms", 1e3)
    timed("server.pull", by_name["server.pull"], "ms", 1e3)
    timed("policy.on_push", by_name["policy.on_push"], "us", 1e6)
    metrics["sim.run.calls"] = len(by_name["sim.run"])
    metrics["workload.build.calls"] = len(by_name["workload.build"])
    metrics["workload.build_s"] = (
        percentile(_durations(by_name["workload.build"], 1.0), 50.0)
        if by_name["workload.build"]
        else 0.0
    )
    compute = by_name["worker.compute"]
    metrics["worker.compute_share"] = (
        sum(_durations(compute, 1.0)) / (len(compute_pids) * run_wall) if compute else 0.0
    )
    metrics["runtime.first_step_s"] = (
        min(span[1] for span in compute) - run_start if compute else 0.0
    )
    metrics["sim.loop_self_share"] = sim_self / sim_total if sim_total else 0.0
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--updates", type=int, required=True)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    from repro.api import run_experiment

    workload = WORKLOADS[args.workload]
    spec, backend = workload.spec(args.seed, args.updates)
    traced = None
    if args.trace_dir is not None:
        import tracing

        trace_dir = Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        traced = tracing.install(trace_dir)

    gc.collect()
    start = time.perf_counter()
    result = run_experiment(spec, backend)
    wall = time.perf_counter() - start
    # Before anything below builds objects of its own in this process.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    if traced is not None:
        traced.recorder.flush()
        traced.uninstall()

    failures: list[str] = []
    if result.errors:
        failures.append(f"errors: {result.errors}")
    if result.total_updates != args.updates:
        failures.append(f"total_updates {result.total_updates} != budget {args.updates}")
    expected_wire = result.total_updates * expected_wire_bytes_per_push(
        _parameter_count(spec), spec.compression
    )
    if result.transfers.pushed_wire_bytes != expected_wire:
        failures.append(
            f"pushed_wire_bytes {result.transfers.pushed_wire_bytes} != {expected_wire}"
        )
    if result.events:
        failures.append(f"unexpected events: {result.events[:3]}")
    losses = [float(value) for value in result.losses]
    final_loss = losses[-1] if losses else float("nan")
    if not math.isfinite(final_loss):
        failures.append(f"final loss {final_loss} is not finite")
    elif not workload.deterministic and not final_loss < losses[0]:
        failures.append(f"final loss {final_loss} not below initial loss {losses[0]}")

    stats = result.server_statistics
    updates = max(result.total_updates, 1)
    window = max(result.total_time, 1e-12)
    tta = result.time_to_accuracy(TTA_TARGET) if result.backend == "simulated" else None
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "updates": result.total_updates,
        "budget": args.updates,
        "wall_s": wall,
        "peak_rss_mb": max(own, children) / 1024.0,
        "final_loss": final_loss,
        "failures": failures,
        "layers": {
            "codec.push_wire_bytes_per_step": result.transfers.pushed_wire_bytes / updates,
            "transport.bytes_per_step": (
                stats.get("tcp_bytes_sent", 0) + stats.get("tcp_bytes_received", 0)
            )
            / updates,
            # Any event (retry, reconnect, duplicate push, ...) already
            # failed the run above, so a passing run reports 0.
            "transport.retries": len(result.events),
            "server.pulled_bytes_per_step": result.transfers.pulled_bytes / updates,
            "policy.controller_decisions_per_100_updates": 100.0
            * stats.get("controller_invocations", 0)
            / updates,
            "policy.wait_share": result.total_wait_time
            / (len(result.wait_time_per_worker) * window),
            "policy.staleness_p95": float(result.staleness.p95),
            "model.final_loss": final_loss,
            "sim.virtual_updates_per_s": (
                result.total_updates / window if result.backend == "simulated" else 0.0
            ),
            # Censored at the run's whole virtual time when the target is
            # never reached, so a run that stops reaching it reads worse.
            "sim.tta_virtual_s": (
                (tta if tta is not None else result.total_time)
                if result.backend == "simulated"
                else 0.0
            ),
        },
    }
    if traced is not None:
        spans = tracing.load_spans(trace_dir)
        record["layers"].update(layer_metrics(spans, os.getpid(), start, wall))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
