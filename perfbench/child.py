"""One workload process: run generated configs through `dnls_lab.cli.run`.

    python3 perfbench/child.py SPAWN_T CONFIG_DIR OUT_DIR RESULT_FILE MODE

SPAWN_T is the parent's time.monotonic() just before it started this
process.  MODE is one of
    plain  run every config; time set-up and the run,
    trace  as plain, with every layer wrapped by layertrace,
    pool   as plain, also timing the probes' sample pool.
The result (times, exit codes, peak RSS, versions) goes to RESULT_FILE as
JSON; a traced run also writes OUT_DIR/spans.json.
"""

import json
import resource
import sys
import time
from pathlib import Path


def _stamp_first_runner(cli, first):
    def stamped(runner):
        def call(params, rng):
            if not first:
                first.append(time.monotonic())
            return runner(params, rng)
        return call
    for name, (runner, schema) in list(cli.SCENARIOS.items()):
        cli.SCENARIOS[name] = (stamped(runner), schema)


def _time_pool(probes, pool):
    """Record, per probe sample map, its wall time and the summed busy time
    of its samples."""
    original = probes._map_samples

    def timed_map(fn, seeds):
        busy = []

        def timed(seed):
            t = time.perf_counter()
            out = fn(seed)
            busy.append(time.perf_counter() - t)
            return out
        started = time.perf_counter()
        out = original(timed, seeds)
        pool.append({"wall_s": time.perf_counter() - started,
                     "busy_s": sum(busy)})
        return out
    probes._map_samples = timed_map


def main(spawn_t, config_dir, out_dir, result_file, mode):
    import numpy as np
    from dnls_lab import cli, probes

    specs = [json.loads(p.read_text())
             for p in sorted(Path(config_dir).glob("*.json"))]
    tracer = None
    if mode == "trace":
        import layertrace
        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    pool = []
    if mode == "pool":
        _time_pool(probes, pool)
    first = []
    _stamp_first_runner(cli, first)

    codes = {}
    for spec in specs:
        codes[spec["name"]], _ = cli.run(spec, Path(out_dir) / spec["name"])
    done = time.monotonic()

    result = {
        "setup_s": first[0] - spawn_t,
        "wall_s": done - first[0],
        "codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pool": pool,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    if tracer is not None:
        (Path(out_dir) / "spans.json").write_text(json.dumps(tracer.spans))
    Path(result_file).write_text(json.dumps(result))


if __name__ == "__main__":
    main(float(sys.argv[1]), *sys.argv[2:6])
