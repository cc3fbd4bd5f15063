"""One measured pass of one workload, in a fresh interpreter.

Protocol with run.py: the worker builds its inputs, prints ``ready``, and
waits for one line on stdin.  ``go`` runs the pass, checks its outputs and
prints the result as one JSON line; anything else exits, so the parent can
time set-up alone.  With ``--trace RUN_ID`` the pass runs under the tracer
and its spans go to ``.perfbench_out/spans/RUN_ID.jsonl``.

``--cli-command SUMMARY.json -- ARGS`` is the traced form of ``python -m
zsl.cli ARGS``: it installs the tracer, runs the command, and writes the
tracer's summary to SUMMARY.json and its spans to SUMMARY.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402
from speed import REFERENCE_KERNEL_S, Sampler  # noqa: E402


def cli_command(summary_path: str, argv: list[str]) -> int:
    tr = tracer.Tracer(os.path.basename(summary_path))
    tracer.install(tr)
    from zsl import cli

    try:
        code = cli.main(argv)
    finally:
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(tr.summary(), fh)
        tr.dump(summary_path[:-len(".json")] + ".jsonl")
    return code


def merge_summaries(paths: list[str]) -> dict:
    """Sum the tracer summaries of the traced CLI commands of one pass."""
    layers: dict[str, dict] = {}
    counts: dict[str, int] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            part = json.load(fh)
        os.remove(path)
        for name, st in part["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += st[key]
        for key, value in part["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return {"layers": layers, "counts": counts}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", default=None, help="run id of a traced pass")
    parser.add_argument("--record", action="store_true",
                        help="print the digests of every fixed output as JSON")
    parser.add_argument("--cli-command", default=None)
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args()
    if args.cli_command:
        return cli_command(args.cli_command, args.argv)

    # one core for the worker and the commands it starts, so that the speed
    # samples come from the core the work runs on
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sampler = Sampler()
    sampler.start()
    import workloads

    if args.record:
        sampler.stop()
        out = {name: cls().record() for name, cls in workloads.WORKLOADS.items()}
        print(json.dumps(out, indent=1, sort_keys=True))
        return 0

    spans_dir = os.path.join(workloads.OUT_DIR, "spans")
    tr = None
    if args.workload == "cli":
        prefix = os.path.abspath(os.path.join(spans_dir, args.trace)) if args.trace else None
        wl = workloads.Cli(prefix)
    else:
        wl = workloads.WORKLOADS[args.workload]()
    wl.setup(args.seed)
    if args.trace:
        os.makedirs(spans_dir, exist_ok=True)
        if args.workload != "cli":
            tr = tracer.Tracer(args.trace)
            tracer.install(tr)
    sampler.stop()
    print(f"ready {sampler.mean_kernel_s()!r}", flush=True)
    try:
        if sys.stdin.readline().strip() != "go":
            return 0
        sampler.start()
        try:
            start = perf_counter()
            ops = wl.run()
            pass_wall_s = perf_counter() - start
        finally:
            sampler.stop()
        ref_s = [k * REFERENCE_KERNEL_S
                 for k in sampler.in_kernels([(op.start, op.seconds) for op in ops])]
        summary = None
        if tr is not None:
            summary = tr.summary()
            tr.dump(os.path.join(spans_dir, f"{args.trace}.jsonl"))
        elif args.trace:
            summary = merge_summaries([f"{wl.trace_prefix}-{name}.json"
                                       for name, _ in workloads.CLI_COMMANDS
                                       if os.path.exists(f"{wl.trace_prefix}-{name}.json")])
        wl.verify(ops)
    finally:
        wl.teardown()

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result = {
        "pass_wall_s": pass_wall_s,
        "pass_s": sum(ref_s),
        "kernel_ms": sampler.median_kernel_ms(),
        "ops": [[op.kind, op.name, op.seconds, op.error, r] for op, r in zip(ops, ref_s)],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "info": wl.info(),
        "trace": summary,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
