"""Benchmark for dnls-lab: three workloads through `dnls_lab.cli.run`.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--trace 0|1]

Without --workload every workload runs in turn.  Each workload process
is a fresh, single-threaded Python (BLAS pinned to one thread,
DNLS_LAB_THREADS unset) started from the repository root with
PYTHONPATH=src; one process runs at a time.  --trace 0 repeats the
workload for about run_seconds of BENCHMARK.json and reports the
end-to-end metrics as medians; --trace 1 runs it once untraced, twice
traced and, for the probe workload, once more on a two-worker sample
pool, and reports the per-layer metrics.  Every report.json is checked: exit code 0, byte-
identical across the runs of one invocation, and equal to the golden copy
in perfbench/golden/ when the seed is the default one (or the workload
ignores its seed).  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; metric names and
units come from BENCHMARK.json.  Outputs go to .bench_out/ under the root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
MIN_REPEATS = 2         # byte-identity needs two reports per seed
MAX_REPEATS = 20
CHILD_TIMEOUT_S = 150
POOL_THREADS = 2        # nproc of the reference machine
# golden comparison: numbers must agree to RTOL relative.  A golden number
# below ROUNDOFF in magnitude (mass drift, gauge discrepancies) has no
# stable digits, so it gets a one-sided check instead: at most
# ROUNDOFF_GROWTH times its golden magnitude, or machine epsilon if that is
# larger.  A reordering of float operations passes; a loss of accuracy
# does not.
RTOL = 1e-10
ROUNDOFF = 1e-12
ROUNDOFF_GROWTH = 10


def _spec(name, scenario, **params):
    return {"name": name, "scenario": scenario, "params": params}


# Each workload: its configs (run in order in one process), the work it
# does per run (a deterministic count, for work_per_s), how the traced run
# recounts that work, whether it runs the probes' sample pool and whether
# its reports depend on the seed.
WORKLOADS = {
    # ETD-RK4 on both RHS forms at n = 256 (torus) and 512/1024 (line, with
    # its built-in box doubling): FFT-bound solver time, no norms, no sampling
    "gauged-evolution": {
        "specs": [
            _spec("gauge-equivalence-torus", "gauge-equivalence", kind="torus",
                  n_points=256, dt=5e-4, t_final=0.2),
            _spec("gauge-equivalence-line", "gauge-equivalence", kind="line",
                  n_points=512, domain_scale=4, dt=5e-4, t_final=0.2),
        ],
        # 400 steps per solve; original + gauged solve on the torus and on
        # each of the two line boxes
        "work": (2400, "RK4 steps"),
        "traced_work": lambda m: m["solver.steps"],
        "pooled": False,
        "seed_independent": True,
    },
    # restriction norms and multilinear forms on 32 x 1024 space-time
    # lattices; no solver
    "estimate-probes": {
        "specs": [
            _spec("probe-trilinear", "probe-trilinear", ensemble=24),
            _spec("probe-quintic", "probe-multilinear", quintic=True, ensemble=10),
        ],
        # samples x the four default window sizes
        "work": ((24 + 10) * 4, "probe evaluations"),
        "traced_work": lambda m: m["probes.samples"] * 4,
        "pooled": True,
        "seed_independent": False,
    },
    # the other ten scenarios at their defaults: many small solves, where
    # per-call overhead outweighs FFT size
    "scenario-sweep": {
        "specs": [
            _spec("solve", "solve", dt=1e-3, t_final=0.05, gauged=True,
                  integrator="ifrk4", **{"lambda": 1.0, "k_power": 1}),
            _spec("plane-wave", "plane-wave", dt=1e-4),
            _spec("gauge-roundtrip", "gauge-roundtrip"),
            _spec("scaling", "scaling", dt=1e-3),
            _spec("flowmap", "flowmap", dt=2e-3),
            _spec("verify-resonance", "verify-resonance"),
            _spec("verify-domination", "verify-domination"),
            _spec("probe-strichartz", "probe-strichartz"),
            _spec("probe-smult", "probe-smult"),
            _spec("dyadic-checks", "dyadic-checks"),
        ],
        "work": (10, "scenario runs"),
        "traced_work": lambda m: sum(
            1 for s in layertrace.SWEEP_SCENARIOS if m[f"scenarios.{s}.s"] > 0),
        "pooled": False,
        "seed_independent": False,
    },
}


class HarnessError(Exception):
    """The benchmark itself could not run (as opposed to a wrong output)."""


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def _child_env(threads: int | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("DNLS_LAB_THREADS", None)
    if threads is not None:
        env["DNLS_LAB_THREADS"] = str(threads)
    return env


def spawn(cfg_dir: Path, out_dir: Path, mode: str, threads: int | None = None) -> dict:
    """Run one workload process to completion; returns its result dict."""
    out_dir.mkdir(parents=True)
    result_file = out_dir / "result.json"
    with open(out_dir / "child.log", "w") as log:
        started = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), repr(started),
                 str(cfg_dir), str(out_dir), str(result_file), mode],
                cwd=ROOT, env=_child_env(threads), stdout=log,
                stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as e:
            raise HarnessError(f"{out_dir}: timed out after {e.timeout} s") from e
    if proc.returncode != 0:
        tail = (out_dir / "child.log").read_text().strip().splitlines()[-5:]
        raise HarnessError(f"{out_dir}: exit {proc.returncode}: " + " | ".join(tail))
    return json.loads(result_file.read_text())


def write_configs(workload: str, seed: int, cfg_dir: Path) -> list[dict]:
    cfg_dir.mkdir(parents=True)
    specs = []
    for i, spec in enumerate(WORKLOADS[workload]["specs"]):
        spec = dict(spec, seed=seed)
        (cfg_dir / f"{i:02d}-{spec['name']}.json").write_text(json.dumps(spec))
        specs.append(spec)
    return specs


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _close(value, golden) -> bool:
    if isinstance(value, bool) or isinstance(golden, bool) or not (
            isinstance(value, (int, float)) and isinstance(golden, (int, float))):
        return value == golden
    if math.isnan(value) or math.isnan(golden):
        return math.isnan(value) and math.isnan(golden)
    if value == golden:
        return True
    if abs(golden) < ROUNDOFF:
        return abs(value) <= ROUNDOFF_GROWTH * max(abs(golden), sys.float_info.epsilon)
    return abs(value - golden) <= RTOL * abs(golden)


def _same_tree(a, b) -> bool:
    """Whether report tree `a` matches golden tree `b`."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same_tree(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same_tree(x, y) for x, y in zip(a, b))
    return _close(a, b)


def golden_mismatch(report: dict, golden: dict) -> str | None:
    """Why `report` differs from its golden copy, or None if it matches."""
    if report["params"] != golden["params"]:
        return "params differ"
    outcomes = [(a["name"], a["passed"]) for a in report["assertions"]]
    if outcomes != [(a["name"], a["passed"]) for a in golden["assertions"]]:
        return "assertion outcomes differ"
    for key in ("metrics", "assertions", "probe_reports"):
        if not _same_tree(report[key], golden[key]):
            return (f"{key} differ beyond rtol {RTOL:g} (or, below {ROUNDOFF:g}, "
                    f"grow more than {ROUNDOFF_GROWTH}x)")
    return None


def check_runs(workload: str, seed: int, specs: list[dict], runs: list[tuple]) -> tuple:
    """Check every scenario run of a set of workload processes.

    runs holds (out_dir, result) per process.  Returns (attempted, failed,
    problems).  A run fails on a nonzero exit code, a report.json that is
    not byte-identical to the first process's, or a mismatch with the
    golden copy.
    """
    wl = WORKLOADS[workload]
    use_golden = seed == DEFAULT_SEED or wl["seed_independent"]
    attempted = failed = 0
    problems = []
    for spec in specs:
        name = spec["name"]
        first_bytes = (runs[0][0] / name / "report.json").read_bytes() \
            if runs[0][1]["codes"].get(name) == 0 else None
        golden_err = None
        if first_bytes is not None and use_golden:
            golden_file = HERE / "golden" / workload / f"{name}.json"
            if not golden_file.is_file():
                golden_err = f"no golden copy {golden_file.relative_to(ROOT)}"
            else:
                golden_err = golden_mismatch(json.loads(first_bytes),
                                             json.loads(golden_file.read_text()))
        for out_dir, result in runs:
            attempted += 1
            why = None
            if result["codes"].get(name) != 0:
                why = f"exit code {result['codes'].get(name)}"
            elif (out_dir / name / "report.json").read_bytes() != first_bytes:
                why = "report.json differs from the first run's"
            elif golden_err:
                why = golden_err
            if why:
                failed += 1
                problems.append(f"{out_dir.name}/{name}: {why}")
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def timed_run(workload: str, seed: int, seconds: int, base: Path) -> dict:
    """End-to-end metrics, untraced: medians over repeated fresh processes."""
    wl = WORKLOADS[workload]
    cfg_dir = base / "configs"
    specs = write_configs(workload, seed, cfg_dir)
    runs = []
    started = time.monotonic()
    while len(runs) < MAX_REPEATS:
        elapsed = time.monotonic() - started
        if len(runs) >= MIN_REPEATS and elapsed * (len(runs) + 1) / len(runs) > seconds:
            break
        out_dir = base / f"rep{len(runs)}"
        runs.append((out_dir, spawn(cfg_dir, out_dir, "plain")))
    results = [r for _, r in runs]
    setups = [r["setup_s"] for r in results]
    walls = [r["wall_s"] for r in results]
    work, _ = wl["work"]
    attempted, failed, problems = check_runs(workload, seed, specs, runs)
    return {
        "metrics": {
            "wall_s": statistics.median(walls),
            "work_per_s": statistics.median(work / w for w in walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        },
        "samples": {"wall_s": walls, "setup_s": setups},
        "attempted": attempted, "failed": failed, "problems": problems,
        "versions": {k: results[0][k] for k in ("python", "numpy")},
    }


def traced_run(workload: str, seed: int, base: Path) -> dict:
    """Per-layer metrics: one untraced, two traced and (for the probes) one
    two-worker process, all of which must write identical reports."""
    wl = WORKLOADS[workload]
    cfg_dir = base / "configs"
    specs = write_configs(workload, seed, cfg_dir)
    pooled = wl["pooled"]
    plan = [("untraced", "pool" if pooled else "plain", None),
            ("trace1", "trace", None), ("trace2", "trace", None)]
    if pooled:
        plan.append((f"pool{POOL_THREADS}", "pool", POOL_THREADS))
    runs = [(base / name, spawn(cfg_dir, base / name, mode, threads))
            for name, mode, threads in plan]
    attempted, failed, problems = check_runs(workload, seed, specs, runs)

    spans = [json.loads((runs[i][0] / "spans.json").read_text()) for i in (1, 2)]
    if layertrace.exact_counts(spans[0]) != layertrace.exact_counts(spans[1]):
        problems.append("call or FFT counts differ between the two traced runs")
    m = layertrace.layer_metrics(spans[0])
    work, unit = wl["work"]
    if wl["traced_work"](m) != work:
        problems.append(f"traced run counted {wl['traced_work'](m)} {unit}, "
                        f"expected {work}")
    m["cli.report_bytes"] = sum((runs[0][0] / s["name"] / "report.json").stat().st_size
                                for s in specs)
    m["trace.overhead_ratio"] = runs[1][1]["wall_s"] / runs[0][1]["wall_s"]
    m["probes.pool_speedup"] = m["probes.pool_wait_s"] = 0.0
    if pooled:
        serial, parallel = runs[0][1]["pool"], runs[-1][1]["pool"]
        m["probes.pool_speedup"] = (sum(p["wall_s"] for p in serial)
                                    / sum(p["wall_s"] for p in parallel))
        # busy time the samples lost to sharing the interpreter lock and
        # the cores with the other worker
        m["probes.pool_wait_s"] = (sum(p["busy_s"] for p in parallel)
                                   - sum(p["busy_s"] for p in serial))
    return {
        "metrics": m, "samples": {},
        "attempted": attempted, "failed": failed, "problems": problems,
        "versions": {k: runs[0][1][k] for k in ("python", "numpy")},
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def machine(versions: dict) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    env = _child_env(None)
    return {"cpu": cpu, "nproc": os.cpu_count(), **versions,
            "thread_pins": {k: env[k] for k in ("OPENBLAS_NUM_THREADS",
                                                "OMP_NUM_THREADS",
                                                "MKL_NUM_THREADS")},
            "DNLS_LAB_THREADS": "unset (1)"}


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, bool]:
    base = ROOT / ".bench_out" / workload
    shutil.rmtree(base, ignore_errors=True)
    out = (traced_run(workload, seed, base) if trace
           else timed_run(workload, seed, seconds, base))
    metrics = {}
    for d in benchmark_spec()["per_layer" if trace else "end_to_end"]:
        if d["name"] not in out["metrics"]:
            raise HarnessError(f"metric {d['name']} was not measured")
        metrics[d["name"]] = {"value": out["metrics"][d["name"]], "unit": d["unit"]}
    extra = set(out["metrics"]) - set(metrics)
    if extra:
        raise HarnessError(f"metrics missing from BENCHMARK.json: {sorted(extra)}")

    work, unit = WORKLOADS[workload]["work"]
    print(f"== {workload}  seed={seed}  trace={trace}  work={work} {unit} per run")
    for name, mv in metrics.items():
        line = f"  {name:<44} {mv['value']:>14.6g} {mv['unit']}"
        if name in out["samples"]:
            vals = out["samples"][name]
            line += f"   (median of {len(vals)}, min {min(vals):.4g}, max {max(vals):.4g})"
        print(line)
    print(f"  {'failed_ratio':<44} {out['failed'] / out['attempted']:>14.6g} "
          f"({out['failed']} of {out['attempted']} scenario runs)")
    for p in out["problems"]:
        print(f"  FAILED {p}")
    info = machine(out["versions"])
    print(f"  machine: {json.dumps(info)}")
    correct = out["failed"] == 0 and not out["problems"]
    result = {"correct": correct, "attempted": out["attempted"],
              "failed": out["failed"], "metrics": metrics}
    (base / "summary.json").write_text(json.dumps(
        {**result, "workload": workload, "seed": seed, "trace": trace,
         "machine": info, "samples": out["samples"],
         "problems": out["problems"]}, indent=2))
    return result, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int,
                        help="accepted for callers that pass the run length; "
                             "it must equal run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dnls_lab" / "cli.py").is_file():
        print(f"perfbench: no dnls_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = benchmark_spec()["run_seconds"]
    if args.seconds not in (None, seconds):
        parser.error(f"--seconds must equal run_seconds of BENCHMARK.json ({seconds})")
    ok = True
    for workload in [args.workload] if args.workload else list(WORKLOADS):
        try:
            result, correct = run_workload(workload, args.seed, seconds, args.trace)
        except HarnessError as e:
            print(f"perfbench: {workload}: {e}", file=sys.stderr)
            return 2
        ok = ok and correct
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
