"""zsl benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a zsl checkout; the package is imported from
``src/``.  Every pass runs in a fresh interpreter (worker.py), one after
the other: a closed loop with one caller.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the full result record, also written to ``.perfbench_out/``.

--trace 0  measures passes for S seconds and reports the end-to-end
           metrics (medians over passes).
--trace 1  runs one untraced pass and two traced passes, requires the two
           traced passes to give identical counts, and reports the
           per-layer metrics.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
from time import perf_counter

from speed import REFERENCE_KERNEL_S

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench_out"
WORKLOADS = ("enumerate", "factorize", "certify", "cli")
MIN_SETUPS = 5
RUN_LIMIT_S = 170  # a run must end well inside 180 s

# setup_s and pass_s are seconds at the reference core speed (speed.py)
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}
# recorded with their quartiles, not gated
RECORDED_ONLY = ("setup_wall_s", "pass_wall_s", "kernel_ms")

# per-layer metric -> (unit, source); sources:
#   ("self", span)      mean self seconds of the two traced passes
#   ("calls", span)     span call count
#   ("count", key)      tracer counter
#   ("ratio", key, span) tracer counter over span call count
#   ("op", kind, key, scale)  the untraced pass's operation named key (or key-...)
#   ("import",)         import zsl.cli minus a bare interpreter start
#   ("overhead", key)   traced minus untraced pass, in wall or reference seconds
A, I, L, M = "atoms.", "invariants.", "intlinalg.", "models."
PER_LAYER = {
    A + "enumerate_atoms.calls": ("count", ("calls", A + "enumerate_atoms")),
    A + "enumerate_atoms.self_s": ("s", ("self", A + "enumerate_atoms")),
    A + "enumerate_atoms.atoms_out": ("count", ("count", A + "enumerate_atoms.atoms_out")),
    A + "enumerate_atoms.complete_ratio": ("ratio", ("ratio", A + "enumerate_atoms.complete",
                                                     A + "enumerate_atoms")),
    A + "brute_force_atoms.calls": ("count", ("calls", A + "brute_force_atoms")),
    A + "brute_force_atoms.self_s": ("s", ("self", A + "brute_force_atoms")),
    A + "davenport_upper_bounds.self_s": ("s", ("self", A + "davenport_upper_bounds")),
    A + "elementary_davenport.self_s": ("s", ("self", A + "elementary_davenport")),
    A + "rational_elementary_decomposition.calls":
        ("count", ("calls", A + "rational_elementary_decomposition")),
    A + "rational_elementary_decomposition.self_s":
        ("s", ("self", A + "rational_elementary_decomposition")),
    A + "circuit_length.calls": ("count", ("count", A + "circuit_length.calls")),
    I + "factorizations.calls": ("count", ("calls", I + "factorizations")),
    I + "factorizations.self_s": ("s", ("self", I + "factorizations")),
    I + "factorizations.factorizations_out":
        ("count", ("count", I + "factorizations.factorizations_out")),
    I + "exists_length.calls": ("count", ("calls", I + "exists_length")),
    I + "exists_length.self_s": ("s", ("self", I + "exists_length")),
    I + "exists_length.hit_ratio": ("ratio", ("ratio", I + "exists_length.hits",
                                              I + "exists_length")),
    I + "minimal_covers.calls": ("count", ("calls", I + "minimal_covers")),
    I + "minimal_covers.self_s": ("s", ("self", I + "minimal_covers")),
    I + "minimal_covers.covers_out": ("count", ("count", I + "minimal_covers.covers_out")),
    I + "omega.minimal-cover.self_s": ("s", ("self", I + "omega.minimal-cover")),
    I + "omega.definition-budget.self_s": ("s", ("self", I + "omega.definition-budget")),
    I + "tau.self_s": ("s", ("self", I + "tau")),
    I + "union_of_lengths.self_s": ("s", ("self", I + "union_of_lengths")),
    I + "catenary_element.self_s": ("s", ("self", I + "catenary_element")),
    I + "elements_up_to.self_s": ("s", ("self", I + "elements_up_to")),
    I + "PresentedMonoid.element.calls":
        ("count", ("count", I + "PresentedMonoid.element.calls")),
    I + "PresentedMonoid.divides.calls":
        ("count", ("count", I + "PresentedMonoid.divides.calls")),
    L + "smith_normal_form.calls": ("count", ("calls", L + "smith_normal_form")),
    L + "smith_normal_form.self_s": ("s", ("self", L + "smith_normal_form")),
    L + "det_bareiss.calls": ("count", ("calls", L + "det_bareiss")),
    L + "det_bareiss.self_s": ("s", ("self", L + "det_bareiss")),
    L + "rank_over_q.calls": ("count", ("count", L + "rank_over_q.calls")),
    **{M + f"{fn}.self_s": ("s", ("self", M + fn))
       for fn in ("acm_report", "hnp_report", "acm_class_group", "fp_rank1_invariants",
                  "monext_invariants", "monext_theta_check", "monext_catenary")},
    M + "MonextModel.minimal_atom_covers.calls":
        ("count", ("calls", M + "MonextModel.minimal_atom_covers")),
    M + "MonextModel.minimal_atom_covers.self_s":
        ("s", ("self", M + "MonextModel.minimal_atom_covers")),
    "constructions.fibonacci_witness.self_s": ("s", ("self", "constructions.fibonacci_witness")),
    "ground.self_s": ("s", ("self", "ground")),
    **{f"certify.{n:02d}.s": ("s", ("op", "criterion", f"{n:02d}", 1.0)) for n in range(1, 12)},
    **{f"cli.{name}.ms": ("ms", ("op", "command", name, 1e3))
       for name in ("hypercube", "atoms", "davenport", "delm", "bounds", "lengths",
                    "unions", "catenary", "omega", "tame", "decompose", "fib", "fp",
                    "monext", "acm", "hnp")},
    "cli.import_ms": ("ms", ("import",)),
    "trace.overhead_s": ("s", ("overhead", "pass_wall_s")),
    "trace.overhead_ref_s": ("s", ("overhead", "pass_s")),
}


class ChildFailed(Exception):
    pass


class Runner:
    """Starts worker processes one at a time, within the run's deadline."""

    def __init__(self, workload: str, seed: int, root: str):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.start = perf_counter()
        src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=src)

    def remaining(self) -> float:
        return RUN_LIMIT_S - (perf_counter() - self.start)

    def child(self, go: bool = True, trace: str | None = None) -> dict:
        """One worker: returns its result with ``setup_s``, ``setup_wall_s`` and
        ``wall_s`` added.  The worker's ready line carries its mean speed-probe
        kernel time during set-up, which scales set-up to the reference speed."""
        argv = [sys.executable, WORKER, "--workload", self.workload, "--seed", str(self.seed)]
        if trace:
            argv += ["--trace", trace]
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env, text=True,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], max(self.remaining(), 0))
            line = proc.stdout.readline() if ready else ""
            setup_wall_s = perf_counter() - t0
            words = line.split()
            if len(words) != 2 or words[0] != "ready":
                raise ChildFailed(f"worker set-up failed for {self.workload}")
            setup = {"setup_s": setup_wall_s * REFERENCE_KERNEL_S / float(words[1]),
                     "setup_wall_s": setup_wall_s}
            out, _ = proc.communicate("go\n" if go else "stop\n",
                                      timeout=max(self.remaining(), 1))
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"worker for {self.workload} passed the run deadline") from exc
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        wall_s = perf_counter() - t0
        if not go:
            return {**setup, "wall_s": wall_s}
        if proc.returncode != 0 or not out.strip():
            raise ChildFailed(f"worker for {self.workload} exited {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
        result.update(setup, wall_s=wall_s)
        return result


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0]
        return {"n": 1, "median": v, "q1": v, "q3": v}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def pass_samples(passes: list[dict], setups: list[dict]) -> dict[str, list[float]]:
    out = {key: [s[key] for s in setups] for key in ("setup_s", "setup_wall_s")}
    for key in ("pass_s", "pass_wall_s", "peak_rss_mb", "kernel_ms"):
        out[key] = [p[key] for p in passes]
    return out


def tally(passes: list[dict]) -> tuple[int, int, list[str]]:
    ops = [op for p in passes for op in p["ops"]]
    errors = [f"{op[1]}: {op[3]}" for op in ops if op[3] is not None]
    return len(ops), len(errors), errors


def named_metrics(workload: str, passes: list[dict]) -> dict:
    """The workload's figures under their own names.

    Per-operation latencies are recorded here but not gated: certify's
    median criterion alone is one 0.1-0.2 s sample, far too noisy to gate.
    Like the gated times they are at the reference core speed.
    """
    med = statistics.median

    def latencies_ms(kind):
        return [[op[4] * 1e3 for op in p["ops"] if op[0] == kind] for p in passes]

    if workload == "factorize":
        queries = latencies_ms("query")
        return {
            "query_p50_ms": med(med(q) for q in queries),
            "query_p95_ms": med(statistics.quantiles(q, n=20)[18] for q in queries),
            "query_samples_per_pass": len(queries[0]),
            "monoid_sweep_s": med(sum(op[4] for op in p["ops"] if op[0] == "sweep")
                                  for p in passes),
        }
    name = {"enumerate": "enumerate_s", "certify": "certify_s", "cli": "cli_s"}[workload]
    out = {name: med(p["pass_s"] for p in passes)}
    if workload == "cli":
        out["cli_p50_ms"] = med(med(c) for c in latencies_ms("command"))
    return out


def measured_run(runner: Runner, seconds: float) -> dict:
    passes: list[dict] = []
    setups: list[dict] = []
    t0 = perf_counter()
    while True:
        p = runner.child()
        passes.append(p)
        setups.append(p)
        longest = max(q["wall_s"] for q in passes)
        if perf_counter() - t0 + longest > seconds or runner.remaining() < 2 * longest:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(runner.child(go=False))
    samples = pass_samples(passes, setups)
    attempted, failed, errors = tally(passes)
    metrics = {k: statistics.median(v) for k, v in samples.items() if k not in RECORDED_ONLY}
    metrics["ok_ratio"] = (attempted - failed) / attempted
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "correct": failed == 0,
        "record": {
            "passes": len(passes),
            "samples": {k: quartiles(v) for k, v in samples.items()},
            "fail_ratio": failed / attempted,
            "named": named_metrics(runner.workload, passes),
            "inputs": passes[0]["info"],
        },
    }


def counters(summary: dict) -> dict:
    """Every value of a traced pass that must repeat exactly."""
    out = {f"{name}.calls": st["calls"] for name, st in summary["layers"].items()}
    out.update(summary["counts"])
    return out


def import_ms(runner: Runner, repeats: int = 5) -> float:
    """Median of (import zsl.cli) minus median of (bare interpreter start)."""
    times: dict[str, list[float]] = {"pass": [], "import zsl.cli": []}
    for _ in range(repeats):
        for code in times:
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=runner.env, cwd=runner.root,
                           check=True, timeout=60)
            times[code].append(perf_counter() - t0)
    return (statistics.median(times["import zsl.cli"]) - statistics.median(times["pass"])) * 1e3


def traced_run(runner: Runner) -> dict:
    base = runner.child()
    run_ids = [f"{runner.workload}-seed{runner.seed}-rep{i}" for i in (1, 2)]
    traced = [runner.child(trace=rid) for rid in run_ids]
    summaries = [t["trace"] for t in traced]
    first, second = (counters(s) for s in summaries)
    mismatched = sorted(k for k in set(first) | set(second) if first.get(k) != second.get(k))
    attempted, failed, errors = tally([base, *traced])
    if mismatched:
        errors.append(f"counters differ between two traced passes: {mismatched}")

    def overhead(key):
        return statistics.mean(t[key] for t in traced) - base[key]

    def value(source):
        kind = source[0]
        if kind == "self":
            return statistics.mean(s["layers"].get(source[1], {}).get("self_s", 0.0)
                                   for s in summaries)
        if kind == "calls":
            return first.get(f"{source[1]}.calls", 0)
        if kind == "count":
            return first.get(source[1], 0)
        if kind == "ratio":
            calls = first.get(f"{source[2]}.calls", 0)
            return first.get(source[1], 0) / calls if calls else 0.0
        if kind == "op":
            _, op_kind, key, scale = source
            return sum(op[4] for op in base["ops"]
                       if op[0] == op_kind and op[1].split("-")[0] == key) * scale
        if kind == "import":
            return import_ms(runner) if runner.workload == "cli" else 0.0
        return overhead(source[1])

    metrics = {name: value(source) for name, (_, source) in PER_LAYER.items()}
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "correct": failed == 0 and not mismatched,
        "record": {
            "untraced_pass_wall_s": base["pass_wall_s"],
            "traced_pass_wall_s": [t["pass_wall_s"] for t in traced],
            "trace_overhead_s": overhead("pass_wall_s"),
            "trace_overhead_ref_s": overhead("pass_s"),
            "counters_repeat": not mismatched,
            "spans": [os.path.join(OUT_DIR, "spans", f"{rid}*.jsonl") for rid in run_ids],
        },
    }


def environment(root: str) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              capture_output=True, timeout=30, check=False)
        commit = proc.stdout.strip() or None
    src = os.path.join(root, "src", "zsl")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu_model": cpu,
            "git_commit": commit, "src_zsl_lines": lines}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "zsl", "__init__.py")):
        print("error: run from the root of a zsl checkout (src/zsl not found)", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    runner = Runner(args.workload, args.seed, root)
    try:
        out = traced_run(runner) if args.trace else measured_run(runner, args.seconds)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in out["errors"]:
        print(f"failed: {line}", file=sys.stderr)

    units = {n: u for n, (u, _) in PER_LAYER.items()} if args.trace else END_TO_END_UNITS
    metrics = {name: {"value": out["metrics"][name], "unit": unit} for name, unit in units.items()}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **environment(root), **out["record"],
              "correct": out["correct"], "attempted": out["attempted"],
              "failed": out["failed"], "metrics": metrics}
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
