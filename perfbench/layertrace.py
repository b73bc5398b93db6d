"""Outside-in layer tracing for the dnls_lab benchmark.

Nothing under src/ knows about tracing.  `install` replaces the public
functions of each layer with timing wrappers, in the module that defines
them and in every dnls_lab module that imported them by value, and counts
numpy.fft calls.  Spans live in memory as
[name, tag, start, end, parent, fft_calls, fft_points] and are written
out once, when the workload process ends; `layer_metrics` derives self
times and counters from them in the benchmark's parent process.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

NAME, TAG, START, END, PARENT, FFT_CALLS, FFT_POINTS = range(7)

# bytes a complex128 transform reads and writes per point (computed from
# array sizes, not measured)
FFT_BYTES_PER_POINT = 32

PROBE_KINDS = {"trilinear": "trilinear", "quintic": "quintic",
               "strichartz-L4": "strichartz", "besov-product": "smult"}

SWEEP_SCENARIOS = ("solve", "plane-wave", "gauge-roundtrip", "scaling",
                   "flowmap", "verify-resonance", "verify-domination",
                   "probe-strichartz", "probe-smult", "dyadic-checks")


def _n_of_field(args, kwargs, result):
    return args[0].domain.n_points


def _solve_tag(args, kwargs, result):
    cfg = args[1]
    form = "gauged" if cfg.nonlinearity.gauged else "original"
    return f"{cfg.integrator}_{form}_n{cfg.domain.n_points}"


def _probe_tag(args, kwargs, result):
    return [result.name, result.samples]


def _sample_count(args, kwargs, result):
    return args[1]


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# (module, attribute, span name, tag function); a tag is computed after
# the call from its arguments and result
TARGETS = [
    ("fields", "dealiased_product_coeffs", "fields.dealiased_product", None),
    ("nonlinear", "rhs_gauged", "nonlinear.rhs_gauged", _n_of_field),
    ("nonlinear", "rhs_original", "nonlinear.rhs_original", _n_of_field),
    ("nonlinear", "trilinear_T_slices", "nonlinear.trilinear_T", None),
    ("nonlinear", "quintic_Q_general_slices", "nonlinear.quintic_Q", None),
    ("nonlinear", "power_nonlinearity", "nonlinear.power", None),
    ("solver", "solve", "solver.solve", _solve_tag),
    ("solver", "_etdrk4_step", "solver.step", None),
    ("solver", "_ifrk4_step", "solver.step", None),
    ("spaces", "frak_x_norm", "spaces.frak_x_norm", None),
    ("spaces", "cal_y_norm", "spaces.cal_y_norm", None),
    ("spaces", "xsb_norm", "spaces.xsb_norm", None),
    ("spaces", "ysb_norm", "spaces.ysb_norm", None),
    ("spaces", "besov_norm", "spaces.besov_norm", None),
    ("spaces", "window_trajectory", "spaces.window_trajectory", None),
    ("gauge", "gauge_forward", "gauge.forward", None),
    ("gauge", "gauge_inverse", "gauge.inverse", None),
    ("gauge", "gauge_trajectory", "gauge.trajectory", None),
    ("sampling", "random_mode_sum_values", "sampling.mode_sum", None),
    ("sampling", "random_band_field", "sampling.band_field", None),
    ("multipliers", "sample_points", "multipliers.sample_points", _sample_count),
    ("multipliers", "domination_ratio_arrays", "multipliers.ratio_arrays", None),
    ("multipliers", "resonance_residuals", "multipliers.resonance", None),
    ("multipliers", "resonance_scale", "multipliers.resonance", None),
    ("probes", "trilinear_probe", "probes.probe", _probe_tag),
    ("probes", "multilinear_probe", "probes.probe", _probe_tag),
    ("probes", "strichartz_probe", "probes.probe", _probe_tag),
    ("probes", "sobolev_mult_probe", "probes.probe", _probe_tag),
    ("probes", "domination_scan", "probes.domination", None),
    ("cli", "validate_spec", "cli.validate", None),
    ("cli", "run", "cli.run", None),
    ("io", "write_field", "io.write_field", _file_bytes),
]


class Tracer:
    """Span recorder for one single-threaded workload process."""

    def __init__(self):
        # index 0 is the root: FFTs outside every span land there
        self.spans = [["root", None, 0.0, 0.0, -1, 0, 0]]
        self._stack = [0]

    def wrap(self, fn, name, tag=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, None, 0.0, 0.0, stack[-1], 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if tag is not None:
                rec[TAG] = tag(args, kwargs, result)
            return result
        return traced

    def count_fft(self, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            rec = spans[stack[-1]]
            rec[FFT_CALLS] += 1
            rec[FFT_POINTS] += np.size(a)
            return fn(a, *args, **kwargs)
        return counted


def _rebind(original, replacement):
    """Point every dnls_lab binding of `original` at `replacement`."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "dnls_lab" or name.startswith("dnls_lab.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer function; call after importing dnls_lab.cli."""
    from dnls_lab import cli
    from dnls_lab.fields import SpaceTimeField

    for modname, attr, span, tag in TARGETS:
        original = getattr(sys.modules[f"dnls_lab.{modname}"], attr)
        _rebind(original, tracer.wrap(original, span, tag))

    from_tv = SpaceTimeField.__dict__["from_time_values"].__func__
    SpaceTimeField.from_time_values = classmethod(
        tracer.wrap(from_tv, "fields.spacetime_transform"))
    SpaceTimeField.to_time_values = tracer.wrap(
        SpaceTimeField.to_time_values, "fields.spacetime_transform")

    for scenario, (runner, schema) in list(cli.SCENARIOS.items()):
        cli.SCENARIOS[scenario] = (tracer.wrap(runner, f"scenarios.{scenario}"),
                                   schema)

    # the package calls np.fft.fft / np.fft.ifft through the module attribute
    np.fft.fft = tracer.count_fft(np.fft.fft)
    np.fft.ifft = tracer.count_fft(np.fft.ifft)


# ---------------------------------------------------------------------------
# derived metrics
# ---------------------------------------------------------------------------

PER_CALL_N = (256, 512, 1024)
STEP_TAGS = ("etdrk4_gauged_n256", "etdrk4_original_n256", "ifrk4_gauged_n256")
SPACES = ("frak_x_norm", "cal_y_norm", "xsb_norm", "ysb_norm", "besov_norm",
          "window_trajectory")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: list) -> dict:
    """Per-layer counters and self times from one traced run's spans."""
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child_time = [0.0] * n
    fft_incl = [s[FFT_CALLS] for s in spans]
    for i in range(n - 1, 0, -1):       # children come after their parents
        p = spans[i][PARENT]
        child_time[p] += dur[i]
        fft_incl[p] += fft_incl[i]
    in_solve = [False] * n
    for i in range(1, n):
        in_solve[i] = (spans[i][NAME] == "solver.solve"
                       or in_solve[spans[i][PARENT]])

    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl = defaultdict(float)
    fft_in = defaultdict(int)
    for i in range(1, n):
        name = spans[i][NAME]
        calls[name] += 1
        self_s[name] += dur[i] - child_time[i]
        incl[name] += dur[i]
        fft_in[name] += fft_incl[i]

    m = {}

    def calls_self(name):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]

    calls_self("fields.dealiased_product")
    m["fields.fft.calls"] = sum(s[FFT_CALLS] for s in spans)
    m["fields.fft.points"] = sum(s[FFT_POINTS] for s in spans)
    m["fields.fft.bytes_computed"] = FFT_BYTES_PER_POINT * m["fields.fft.points"]
    calls_self("fields.spacetime_transform")

    for form in ("gauged", "original"):
        name = f"nonlinear.rhs_{form}"
        calls_self(name)
        for npts in PER_CALL_N:
            d = [dur[i] for i in range(1, n)
                 if spans[i][NAME] == name and spans[i][TAG] == npts]
            m[f"{name}.per_call_s.n{npts}"] = _ratio(sum(d), len(d))
        m[f"nonlinear.fft_per_rhs_{form}"] = _ratio(fft_in[name], calls[name])
    for key in ("trilinear_T", "quintic_Q", "power"):
        calls_self(f"nonlinear.{key}")

    m["solver.solve.calls"] = calls["solver.solve"]
    m["solver.steps"] = calls["solver.step"]
    m["solver.rhs_calls"] = sum(
        1 for i in range(1, n)
        if spans[i][NAME].startswith("nonlinear.rhs_") and in_solve[i])
    m["solver.solve.self_s"] = self_s["solver.solve"]
    step_d = defaultdict(list)
    for i in range(1, n):
        if spans[i][NAME] == "solver.step":
            step_d[spans[spans[i][PARENT]][TAG]].append(dur[i])
    for tag in STEP_TAGS:
        m[f"solver.step_s.{tag}"] = _ratio(sum(step_d[tag]), len(step_d[tag]))

    for key in SPACES:
        calls_self(f"spaces.{key}")
    blockwise = ("spaces.frak_x_norm", "spaces.cal_y_norm")
    block_evals = sum(1 for i in range(1, n)
                      if spans[i][NAME] in ("spaces.xsb_norm", "spaces.ysb_norm")
                      and spans[spans[i][PARENT]][NAME] in blockwise)
    m["spaces.block_evals_per_norm"] = _ratio(
        block_evals, sum(calls[b] for b in blockwise))

    for key in ("forward", "inverse", "trajectory"):
        calls_self(f"gauge.{key}")
    for key in ("mode_sum", "band_field"):
        calls_self(f"sampling.{key}")

    m["multipliers.sample_points.points"] = sum(
        s[TAG] or 0 for s in spans if s[NAME] == "multipliers.sample_points")
    m["multipliers.sample_points.self_s"] = self_s["multipliers.sample_points"]
    m["multipliers.ratio_arrays.self_s"] = self_s["multipliers.ratio_arrays"]
    m["multipliers.resonance.self_s"] = self_s["multipliers.resonance"]

    probe_time = defaultdict(float)
    probe_samples = defaultdict(int)
    for i in range(1, n):
        if spans[i][NAME] == "probes.probe" and spans[i][TAG]:
            kind = PROBE_KINDS.get(spans[i][TAG][0], spans[i][TAG][0])
            probe_time[kind] += dur[i]
            probe_samples[kind] += spans[i][TAG][1]
    m["probes.samples"] = sum(probe_samples.values())
    for kind in PROBE_KINDS.values():
        m[f"probes.per_sample_s.{kind}"] = _ratio(probe_time[kind],
                                                  probe_samples[kind])
    m["probes.domination.self_s"] = self_s["probes.domination"]

    m["cli.validate.self_s"] = self_s["cli.validate"]
    # what cli.run does besides validation, the runner and field dumps:
    # serialising and writing report.json, report.csv and plotdata
    m["cli.report_write.self_s"] = self_s["cli.run"]
    m["io.write_field.calls"] = calls["io.write_field"]
    m["io.write_field.bytes"] = sum(
        s[TAG] or 0 for s in spans if s[NAME] == "io.write_field")
    m["io.write_field.self_s"] = self_s["io.write_field"]
    for scenario in SWEEP_SCENARIOS:
        m[f"scenarios.{scenario}.s"] = incl[f"scenarios.{scenario}"]
    return m


def exact_counts(spans: list) -> dict:
    """Every count the trace makes; two runs of one workload must agree."""
    out = defaultdict(int)
    for s in spans:
        out[f"{s[NAME]}.calls"] += 1
        out[f"{s[NAME]}.fft_calls"] += s[FFT_CALLS]
        out[f"{s[NAME]}.fft_points"] += s[FFT_POINTS]
        if isinstance(s[TAG], int):
            out[f"{s[NAME]}.tag_sum"] += s[TAG]
    return dict(out)
