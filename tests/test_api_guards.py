"""Guards on the package's public surface and its one-way design rules.
Every name the benchmark's layer tracer wraps or its workload process reads
must exist, and the golden runs under that tracer must keep their exit
codes and report bytes.  Every public function, class and method must be
named in src and every src function entered by the golden runs, or kept
in KEEP with a reason.  Each one-way rule is a row of RULES: a scan of src
and the keep dict of what it may find, each entry with its reason; PLANTED
lists sources that each scan must flag and others it must not.
tests_support.src_code_lines, the src code-line count that a refactor
must lower, is tested here on a synthetic module."""

import ast
import functools
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from dnls_lab import cli
from dnls_lab.fields import SpaceTimeField
from tests_support import code_lines, src_code_lines

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dnls_lab"
LAYERTRACE = ROOT / "perfbench" / "layertrace.py"
CHILD = ROOT / "perfbench" / "child.py"


def _layertrace():
    """perfbench/layertrace.py, loaded by path (perfbench is no package)."""
    spec = importlib.util.spec_from_file_location("layertrace_under_test", LAYERTRACE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestTracerTargets:
    def test_every_target_resolves(self):
        missing = [f"dnls_lab.{m}.{a}" for m, a, _, _ in _layertrace().TARGETS
                   if not hasattr(importlib.import_module(f"dnls_lab.{m}"), a)]
        assert missing == []

    def test_spacetime_transforms_exist(self):
        assert callable(SpaceTimeField.__dict__["from_time_values"].__func__)
        assert callable(SpaceTimeField.__dict__["to_time_values"])

    def test_sweep_scenarios_are_cli_scenarios(self):
        assert set(_layertrace().SWEEP_SCENARIOS) <= set(cli.SCENARIOS)

    def test_importing_the_cli_loads_every_target_module(self):
        # install() looks each module up in sys.modules after importing
        # dnls_lab.cli alone; a fresh interpreter shows what that loads
        code = ("import json, sys; import dnls_lab.cli; "
                "print(json.dumps(sorted(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=str(ROOT / "src"))).stdout
        loaded = set(json.loads(out))
        assert {f"dnls_lab.{m}" for m, _, _, _ in _layertrace().TARGETS} <= loaded
        # the CLI's start-up loads no executor package (concurrent) and no
        # logging; threading itself comes with numpy
        assert {"concurrent", "logging"} & loaded == set()


@functools.lru_cache(maxsize=64)
def _tree(text: str) -> ast.Module:
    """ast.parse(text), once per source text.  No scan changes a tree it is
    handed, so every scan shares it; a fault case's changed text is a key
    of its own and gets its own tree."""
    return ast.parse(text)


@functools.lru_cache(maxsize=64)
def _code(text: str, module: str) -> types.CodeType:
    """The code object of module.py with source text, compiled once from
    its shared tree (code objects are immutable)."""
    return compile(_tree(text), f"{module}.py", "exec")


def seam_reads(text: str) -> set:
    """module.attribute of every attribute that source text reads from a
    dnls_lab module it imports by name (from dnls_lab import m), matched by
    identifier, so a parameter that shares the module's name counts too."""
    tree = _tree(text)
    modules = {a.asname or a.name: a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "dnls_lab"
               for a in node.names}
    return {f"{modules[node.value.id]}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def _unresolved(reads: set) -> list:
    return sorted(q for q in reads if not hasattr(
        importlib.import_module("dnls_lab." + q.split(".")[0]), q.split(".", 1)[1]))


class TestBenchmarkSeam:
    """perfbench/child.py drives every workload through attributes of the
    package (the pool mode wraps probes._map_samples by name); each must
    resolve, or the benchmark crashes where no tier-1 test runs."""

    def test_every_attribute_the_workload_process_reads_resolves(self):
        reads = seam_reads(CHILD.read_text())
        assert {"probes._map_samples", "cli.SCENARIOS", "cli.run"} <= reads
        assert _unresolved(reads) == []

    def test_a_missing_attribute_fails_the_scan(self):
        text = CHILD.read_text()
        added = text + "\n\nprobes.no_such_helper\n"
        assert (set(_unresolved(seam_reads(added)))
                - set(_unresolved(seam_reads(text)))) == {"probes.no_such_helper"}


# Functions of src that no src code names (the AST scan) or that no golden
# run enters (the reach scan), kept on purpose because a caller outside src
# needs them, as module.qualname; an entry covers the functions nested in it.
# The tracer's targets are kept as well, without an entry here.  What only
# tests call lives in tests/tests_support.py, not here.
KEEP = {
    "nonlinear.power_nonlinearity": "a tracer target and tests_support's bitwise "
                                    "reference of the original right-hand side, until "
                                    "that kernel drops its grid round trip",
    "io.read_field": "the only decoder of the CLI's field dumps",
    "fields.SpaceTimeField.to_time_values": "the inverse space-time transform: "
                                            "perfbench/layertrace.py's install wraps it "
                                            "by name, and the round-trip tests use it",
    "cli.main": "the dnls-lab console entry point; the golden runs call cli.run",
    "errors.BlowUpError.__init__": "runs only when a solve blows up, which no golden "
                                   "run does",
}


def _kept() -> set:
    return set(KEEP) | {f"{m}.{a}" for m, a, _, _ in _layertrace().TARGETS}


def _defs(tree: ast.Module):
    """(name, node) of every top-level function and class and every method
    of a top-level class, the method named Class.method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _public_defs(tree: ast.Module, module: str):
    """(qualified name, node) of every public top-level function and class
    and every public non-dunder method of a top-level class."""
    for name, node in _defs(tree):
        if not node.name.startswith("_"):
            yield f"{module}.{name}", node


def unreached(sources: dict) -> list:
    """Public names (as module.name or module.Class.method) of sources
    {module: text} that no source reads outside their own definition.

    A read is a loaded name or attribute with the same identifier; matching
    by identifier alone can miss an unreached method whose name some other
    object's attribute shares, but never flags a reached one."""
    trees = {m: _tree(text) for m, text in sources.items()}
    reads = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append((module, node.lineno))
    out = []
    for module, tree in trees.items():
        for qual, node in _public_defs(tree, module):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(m != module or line not in own
                       for m, line in reads.get(node.name, [])):
                out.append(qual)
    return out


def _src_sources() -> dict:
    return {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}


class TestUnreachedPublicSymbols:
    def test_every_public_symbol_is_reached_or_kept(self):
        assert [q for q in unreached(_src_sources()) if q not in _kept()] == []

    def test_keep_entries_name_existing_symbols(self):
        assert sorted(set(KEEP) - src_functions(_src_sources())) == []

    @pytest.mark.parametrize("anchor,added,name", [
        ("", "def uncalled_helper(x):\n    return uncalled_helper(x - 1) if x else 0\n",
         "fields.uncalled_helper"),
        ("", "class Unused:\n    pass\n", "fields.Unused"),
        ("class GridFunction:\n", "    def uncalled_method(self):\n        return self\n",
         "fields.GridFunction.uncalled_method"),
    ])
    def test_an_uncalled_addition_fails_the_scan(self, anchor, added, name):
        sources = _src_sources()
        if anchor:
            assert anchor in sources["fields"]
            sources["fields"] = sources["fields"].replace(anchor, anchor + added, 1)
        else:
            sources["fields"] += "\n\n" + added
        assert set(unreached(sources)) - set(unreached(_src_sources())) == {name}


def _function_names(sources: dict) -> dict:
    """{(module, first line, name): module.qualname} of every function that
    sources {module: text} define, methods and nested functions included
    (lambdas and comprehensions are part of the function around them, a
    class body of the module), qualified as co_qualname qualifies them
    from Python 3.11 on."""
    out = {}

    def walk(code, module, prefix):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            function = bool(const.co_flags & inspect.CO_OPTIMIZED)
            qual = prefix + const.co_name
            if function and not const.co_name.startswith("<"):
                out[(module, const.co_firstlineno, const.co_name)] = f"{module}.{qual}"
            walk(const, module, qual + (".<locals>." if function else "."))

    for module, text in sources.items():
        walk(_code(text, module), module, "")
    return out


def src_functions(sources: dict) -> set:
    """module.qualname of every function that sources {module: text} define."""
    return set(_function_names(sources).values())


def entered_functions(cases: dict, out_dir) -> tuple[set, dict]:
    """(module.qualname of every src function that cli.run enters on the
    specs cases {name: spec}, recorded by one sys.setprofile hook, and
    {name: exit code}); each report goes to out_dir/name."""
    codes, exits = set(), {}

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(hook)
    try:
        for name, spec in cases.items():
            exits[name], _ = cli.run(dict(spec, name=name), Path(out_dir) / name)
    finally:
        sys.setprofile(None)
    names, src = _function_names(_src_sources()), SRC.resolve()
    return {names[(Path(c.co_filename).stem, c.co_firstlineno, c.co_name)]
            for c in codes
            if not c.co_name.startswith("<") and Path(c.co_filename).resolve().parent == src}, exits


def unentered(functions: set, entered: set, kept) -> list:
    """The functions (module.qualname) that were not entered and that no
    name in kept covers, itself or as a function it nests."""
    return sorted(f for f in functions - entered
                  if not any(f == k or f.startswith(k + ".<locals>.") for k in kept))


def _fresh_golden_runs(code: str, out: Path, *paths) -> dict:
    """Run code in a fresh interpreter with src, tests and paths importable,
    as `code OUT RESULT`: its golden reports go under out, and the JSON it
    writes to RESULT is returned."""
    path = os.pathsep.join(map(str, [ROOT / "src", ROOT / "tests", *paths]))
    proc = subprocess.run([sys.executable, "-c", code, str(out), str(out / "result.json")],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return json.loads((out / "result.json").read_text())


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory) -> tuple[Path, set, dict]:
    """tests/test_golden.py's cases run untraced in a fresh interpreter, so
    that no cache a test filled hides a call: (the directory of their
    reports, the src functions they enter, {name: exit code})."""
    out = tmp_path_factory.mktemp("reach")
    res = _fresh_golden_runs(
        "import json, sys; import test_api_guards as g, test_golden; "
        "entered, codes = g.entered_functions(test_golden.CASES, sys.argv[1]); "
        "json.dump({'entered': sorted(entered), 'codes': codes}, open(sys.argv[2], 'w'))",
        out)
    return out, set(res["entered"]), res["codes"]


@pytest.fixture(scope="module")
def golden_entered(golden_runs) -> set:
    return golden_runs[1]


class TestReach:
    """Every src function is entered by a golden run or kept on purpose.
    The runs match functions by module and qualified name, so a method that
    shares its name with a live one (which the AST scan counts as read) is
    still seen."""

    def test_every_function_is_entered_or_kept(self, golden_entered):
        assert unentered(src_functions(_src_sources()), golden_entered, _kept()) == []

    def test_keep_entries_are_not_entered(self, golden_entered):
        assert sorted(set(KEEP) & golden_entered) == []

    @pytest.mark.parametrize("anchor,added,name", [
        # an unreached method that shares its name with Trajectory.mass
        ("class SpectralField:\n", "    def mass(self):\n        return self\n",
         "fields.SpectralField.mass"),
        # the deleted SpectralField.l2_norm, whose name GridFunction.l2_norm shares
        ("class SpectralField:\n", "    def l2_norm(self):\n        return self\n",
         "fields.SpectralField.l2_norm"),
        ("", "def uncalled_helper(x):\n    def inner():\n        return x\n"
             "    return inner\n", "fields.uncalled_helper"),
    ], ids=["name-of-a-live-method", "deleted-method-restored", "nested-helper"])
    def test_an_unentered_function_fails_the_scan(self, golden_entered, anchor,
                                                  added, name):
        sources = _src_sources()
        if anchor:
            assert anchor in sources["fields"]
            sources["fields"] = sources["fields"].replace(anchor, anchor + added, 1)
        else:
            sources["fields"] += "\n\n" + added
        new = (set(unentered(src_functions(sources), golden_entered, _kept()))
               - set(unentered(src_functions(_src_sources()), golden_entered, _kept())))
        assert name in new and new <= {name, f"{name}.<locals>.inner"}


# the per-layer metrics that perfbench/run.py adds itself, not layer_metrics
RUN_METRICS = {"cli.report_bytes", "trace.overhead_ratio", "probes.pool_speedup",
               "probes.pool_wait_s"}


class TestTracedRuns:
    """The benchmark's traced mode (perfbench/run.py --trace 1) wraps every
    tracer target, and its tag functions read their targets' arguments by
    position, so a signature change can break the traced runs alone."""

    def test_traced_golden_runs_match_untraced(self, golden_runs, tmp_path):
        untraced, _, codes = golden_runs
        res = _fresh_golden_runs(
            "import json, sys; import layertrace, test_golden; from dnls_lab import cli; "
            "tracer = layertrace.Tracer(); layertrace.install(tracer); "
            "codes = {n: cli.run(dict(s, name=n), f'{sys.argv[1]}/{n}')[0] "
            "for n, s in test_golden.CASES.items()}; "
            "json.dump({'codes': codes, 'metrics': layertrace.layer_metrics("
            "tracer.spans)}, open(sys.argv[2], 'w'))",
            tmp_path, LAYERTRACE.parent)
        assert res["codes"] == codes
        # the traced reports keep every byte of the untraced ones
        assert [n for n in codes if (tmp_path / n / "report.json").read_bytes()
                != (untraced / n / "report.json").read_bytes()] == []
        per_layer = {m["name"] for m in
                     json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        m = res["metrics"]
        assert sorted(per_layer - RUN_METRICS - set(m)) == []
        # the counters, not just their names: every step makes four forcing
        # calls, each of which enters one traced kernel through the nonlinear
        # module's attribute, with the kernel's own transforms inside its span
        assert m["solver.steps"] > 0
        assert m["solver.rhs_calls"] == 4 * m["solver.steps"]
        assert (m["nonlinear.rhs_gauged.calls"] + m["nonlinear.rhs_original.calls"]
                == m["solver.rhs_calls"])
        assert m["nonlinear.fft_per_rhs_gauged"] == 2
        assert m["nonlinear.fft_per_rhs_original"] == 6


# Defaulted parameters that no src call sets, kept on purpose.
OPTION_KEEP = {
    "cli.main.argv": "the console entry point reads sys.argv; tests pass argv",
    "nonlinear.power_nonlinearity.pad_factor": "tests_support's pad-2 bitwise "
                                               "reference for rhs_original",
}


def _functions(body, prefix: str, in_class: bool = False):
    """(qualified name, node, is a method) of every function defined in
    body, nested ones and methods included, named prefix.outer.inner."""
    for node in body:
        if isinstance(node, ast.FunctionDef):
            yield f"{prefix}.{node.name}", node, in_class
            yield from _functions(node.body, f"{prefix}.{node.name}")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}.{node.name}", True)


def _is_dataclass(node) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in node.decorator_list)


def _option_sites(tree, module: str):
    """(qualified name, name its calls use, [(parameter, position or None)])
    of every function in tree, and of every @dataclass class, whose
    parameters are its annotated fields in order, taken by Cls(...)."""
    for qual, node, method in _functions(tree.body, module):
        args = node.args
        positional = args.posonlyargs + args.args
        bound = int(method and not any(getattr(d, "id", None) == "staticmethod"
                                       for d in node.decorator_list))
        first = len(positional) - len(args.defaults)
        params = [(a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
        params += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                   if d is not None]
        name = qual.split(".")[-2] if node.name == "__init__" else node.name
        yield qual, name, params
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields = [f for f in node.body
                      if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
            yield (f"{module}.{node.name}", node.name,
                   [(f.target.id, i) for i, f in enumerate(fields) if f.value is not None])


def _option_uses(sources: dict):
    """(module.function.parameter, [whether each matching call sets it])
    of every defaulted parameter of a function in sources {module: text},
    and (module.Cls.field, [...]) of every defaulted field of a @dataclass
    class there; a call sets a parameter by keyword or by position."""
    calls = {}
    for text in sources.values():
        for node in ast.walk(_tree(text)):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            ident = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            star = (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords))
            calls.setdefault(ident, []).append(
                (star, len(node.args), {k.arg for k in node.keywords}))
    for module, text in sources.items():
        for qual, name, params in _option_sites(_tree(text), module):
            for param, pos in params:
                yield f"{qual}.{param}", [
                    star or param in keywords or (pos is not None and pos < n_pos)
                    for star, n_pos, keywords in calls.get(name, [])]


def unset_options(sources: dict) -> list:
    """module.function.parameter of every defaulted parameter of a function
    in sources {module: text}, and module.Cls.field of every defaulted field
    of a @dataclass class there, that no call in sources passes, by keyword
    or by position.

    Calls match a function by identifier, as `unreached` does: a call
    f(...) or obj.f(...) matches every function named f, and Cls(...)
    matches Cls.__init__ and a dataclass Cls's fields; a method's positions
    start after self or cls.  A call with *args or **kwargs counts as
    passing every parameter.  Not caught: a parameter that a wrapper passes
    on unset (in def g(p=1): f(p), the call sets f's p, and only g's own p
    is listed); an __init__ parameter set only through super().__init__ or
    a subclass's name (neither matches Cls); and a dataclass field set only
    through dataclasses.replace."""
    return [q for q, sets in _option_uses(sources) if not any(sets)]


# Defaulted parameters that every src call sets, kept on purpose.
DEFAULT_KEEP = {}


def always_set_options(sources: dict) -> list:
    """module.function.parameter (or module.Cls.field) of every defaulted
    parameter or field in sources {module: text} that every call in sources
    passes, there being at least one: a default no call relies on.  Calls
    match as in unset_options, so a call the match misses (a class that
    builds itself through cls(...)) can make a relied-on default look set
    by every call."""
    return [q for q, sets in _option_uses(sources) if sets and all(sets)]


# Functions of src that read a key with a default, .get(key, default) or
# .setdefault(key, default), each with its reason.  The option rules
# see defaulted parameters alone; a default read out of a dict is one they
# miss, and a runner's keys have theirs in the CLI schema only.
DICT_DEFAULT_KEEP = {
    "cli.validate_spec": "the top-level spec keys seed, name and params are optional",
    "cli.run": "the optional top-level keys seed and name, and the optional result "
               "keys reports, plotdata and fields",
    "cli.main": "a --config file may leave out the scenario and the name",
    "scenarios._initial_type": "solve's `initial` object: its type defaults by domain "
                               "kind",
    "scenarios._initial_data": "solve's `initial` keys: their defaults depend on the "
                               "type and the domain, which the flat CLI schema cannot say",
}


def _top_level(sources: dict):
    """(module.name, node) of every top-level statement of sources {module:
    text}, named by the function or class it defines (module.<module> for
    other top-level code)."""
    for module, text in sources.items():
        for node in _tree(text).body:
            yield f"{module}.{getattr(node, 'name', '<module>')}", node


def dict_defaults(sources: dict) -> dict:
    """{module.function: [line of each call]} of every .get(key, default) or
    .setdefault(key, default) call in sources {module: text}, under the
    top-level function or class around it (_top_level).  A call matches by
    attribute name and two positional arguments, whatever object it is made
    on."""
    out = {}
    for where, node in _top_level(sources):
        for call in ast.walk(node):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr in ("get", "setdefault")
                    and len(call.args) == 2):
                out.setdefault(where, []).append(call.lineno)
    return out


# Functions outside fields that call np.fft.fft / np.fft.ifft, each with its
# reason.  None does: every transform goes through fields.
FFT_OUTSIDE_FIELDS = {}


def _ident(f) -> str | None:
    """The name a call's function goes by: fft for np.fft.fft and for fft."""
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def sites(sources: dict, outside: str | None, found) -> list:
    """module.function of every function or method in sources {module:
    text}, outside the module `outside` (None: in every module), with a
    node for which found(node) holds."""
    out = []
    for module, text in sources.items():
        if module == outside:
            continue
        for name, node in _defs(_tree(text)):
            if isinstance(node, ast.ClassDef):
                continue  # its methods are scanned on their own
            if any(found(sub) for sub in ast.walk(node)):
                out.append(f"{module}.{name}")
    return sorted(set(out))


def callers(sources: dict, names) -> list:
    """module.function of every call of a function named in names (as
    np.fft.fft, fft, fields.SpaceTimeField, ...) in sources {module: text}
    outside fields."""
    return sites(sources, "fields",
                 lambda node: isinstance(node, ast.Call) and _ident(node.func) in names)


# Functions outside fields that call fields.band, each with its reason.  A
# padded factor is padded_values' fresh buffer; a hand-written pad would
# write a coarse band through band.
BAND_OUTSIDE_FIELDS = {
    "nonlinear.rhs_work": "the right-hand sides pad into preallocated spectra, "
                          "so that the march allocates nothing per call",
}


# Functions outside fields that call fields._plane_wave_coeffs, each with its
# reason.  A travelling lattice mode has one builder; a second one would
# write its coefficient again.
PLANE_WAVE_COEFFS_OUTSIDE_FIELDS = {
    "sampling._travelling_modes": "the one builder of travelling lattice modes, for "
                                  "the mode sums and the probes' single modes",
}


# Functions outside fields that sum |values|^2 by hand,
# np.sum(np.abs(x) ** 2, ...).  None does: fields._square_sums is the one
# such sum (row-blocked, each row with the bits of the whole array's).
SQUARE_SUMS_OUTSIDE_FIELDS = {}


def _is_square_sum(node) -> bool:
    """sum(abs(x) ** 2, ...), by any module's sum and abs, or
    (abs(x) ** 2).sum(...)."""
    if not (isinstance(node, ast.Call) and _ident(node.func) == "sum"):
        return False
    on = [node.func.value] if isinstance(node.func, ast.Attribute) else []
    return any(isinstance(a, ast.BinOp) and isinstance(a.op, ast.Pow)
               and isinstance(a.left, ast.Call) and _ident(a.left.func) == "abs"
               and isinstance(a.right, ast.Constant) and a.right.value == 2
               for a in on + node.args[:1])


def square_sums(sources: dict) -> list:
    return sites(sources, "fields", _is_square_sum)


# Functions outside spaces that write a dyadic-sup norm by hand, the low
# block plus the sup of the others, b[0] + b[1:].max(...).  None does:
# spaces._low_plus_sup is the one such norm.
LOW_PLUS_SUP_OUTSIDE_SPACES = {}


def _last_index(node):
    """The last index of a subscript: 0 for b[0] and for b[..., 0]."""
    return node.slice.elts[-1] if isinstance(node.slice, ast.Tuple) else node.slice


def _is_low_block(node) -> bool:
    """b[0] or b[..., 0]."""
    if not isinstance(node, ast.Subscript):
        return False
    i = _last_index(node)
    return isinstance(i, ast.Constant) and i.value == 0


def _is_high_sup(node) -> bool:
    """b[1:].max(...), np.max(b[1:], ...) or either on b[..., 1:]."""
    if not (isinstance(node, ast.Call) and _ident(node.func) in ("max", "amax")):
        return False
    on = [node.func.value] if isinstance(node.func, ast.Attribute) else []
    for arg in on + node.args[:1]:
        i = _last_index(arg) if isinstance(arg, ast.Subscript) else None
        if (isinstance(i, ast.Slice) and isinstance(i.lower, ast.Constant)
                and i.lower.value == 1 and i.upper is None):
            return True
    return False


def _is_low_plus_sup(node) -> bool:
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and ((_is_low_block(node.left) and _is_high_sup(node.right))
                 or (_is_high_sup(node.left) and _is_low_block(node.right))))


def low_plus_sups(sources: dict) -> list:
    return sites(sources, "spaces", _is_low_plus_sup)


# Functions outside fields that call the SpaceTimeField constructor.  None
# does: the others build fields through from_time_values and slice compact
# ones with SpaceTimeField.members, so the compact row order is fields' alone.
SPACETIME_FIELD_OUTSIDE_FIELDS = {}


# Functions (or <module> for top-level code) in src that read the process
# environment, each with its reason.  None does: every setting is a config
# field or a constant, so a run is fixed by its config and seed.
ENV_READS_KEEP = {}
_ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def env_readers(sources: dict) -> list:
    """module.function (module.<module> for top-level code) of every use of
    os.environ, os.environb, os.getenv or os.getenvb, by attribute or by a
    name imported from os, in sources {module: text}."""
    return sorted({where for where, node in _top_level(sources) for sub in ast.walk(node)
                   if (isinstance(sub, ast.Attribute) and sub.attr in _ENV_NAMES)
                   or (isinstance(sub, ast.Name) and sub.id in _ENV_NAMES)
                   or (isinstance(sub, ast.ImportFrom) and sub.module == "os"
                       and any(a.name in _ENV_NAMES for a in sub.names))})


# Functions in src, fields included, that multiply x * f(...) with f one of
# the package's fresh-array helpers, each with its reason.  None does: numpy
# evaluates such a product into the temporary f returns, with its operands
# swapped once that temporary is 256 KiB or more, and a complex product is
# not bitwise commutative, so the bits would depend on the array's size.
# Write x *= f(...) or name the operands.
FRESH_RIGHT_OPERANDS = {}
FRESH_ARRAY_HELPERS = ("padded_values", "truncated_coeffs", "dealiased_product_coeffs",
                       "scaled_fft", "scaled_ifft", "trilinear_T_slices",
                       "quintic_Q_general_slices")


def fresh_right_operands(sources: dict) -> list:
    return sites(sources, None, lambda node: (
        isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
        and isinstance(node.right, ast.Call)
        and _ident(node.right.func) in FRESH_ARRAY_HELPERS))


# rule: (its scan of sources {module: text}, giving module.function names,
# and the keep dict of the names it may find, each with its reason)
RULES = {
    "unset-option": (unset_options, OPTION_KEEP),
    "always-set-default": (always_set_options, DEFAULT_KEEP),
    "dict-default": (dict_defaults, DICT_DEFAULT_KEEP),
    "fft": (lambda s: callers(s, ("fft", "ifft")), FFT_OUTSIDE_FIELDS),
    "band": (lambda s: callers(s, ("band",)), BAND_OUTSIDE_FIELDS),
    "plane-wave-coeffs": (lambda s: callers(s, ("_plane_wave_coeffs",)),
                          PLANE_WAVE_COEFFS_OUTSIDE_FIELDS),
    "square-sum": (square_sums, SQUARE_SUMS_OUTSIDE_FIELDS),
    "low-plus-sup": (low_plus_sups, LOW_PLUS_SUP_OUTSIDE_SPACES),
    "spacetime-field": (lambda s: callers(s, ("SpaceTimeField",)),
                        SPACETIME_FIELD_OUTSIDE_FIELDS),
    "environment": (env_readers, ENV_READS_KEEP),
    "operand-order": (fresh_right_operands, FRESH_RIGHT_OPERANDS),
}


@functools.cache
def _found(rule: str) -> frozenset:
    """What rule's scan finds in the unchanged src, scanned once."""
    return frozenset(RULES[rule][0](_src_sources()))


GAUGE_PHASE = "def gauge_phase(f: GridFunction) -> np.ndarray:\n"
SINGLE_MODES = ("def _single_modes(r: np.random.Generator, dom: Domain, tk: np.ndarray, "
                "modes,\n                  signs: list[int]) -> list[np.ndarray]:\n")
COROLLARY_RHS = ("def _corollary_rhs(u: SpaceTimeField, s: float, "
                 "signs: list[int]) -> list[float]:\n")
RUN_DYADIC_CHECKS = "def run_dyadic_checks(params, rng):\n"
PRODUCT_LOOP = "        vals = padded_values(domain, c, nf)\n"
F = "def f(x, unused=1):\n    return x\n\n\n"
C = "@dataclass\nclass C:\n    x: int\n    unused: int = 1\n\n\n"

# (rule, module, the line the source is added after or None to append it,
# the added source, the names the rule then finds that it did not before)
PLANTED = [
    ("unset-option", "fields", None, F + "f(1)\n", {"fields.f.unused"}),
    ("unset-option", "fields", None, F + "f(1, 2)\n", set()),
    ("unset-option", "fields", None, F + "f(1, unused=2)\n", set()),
    ("unset-option", "fields", None, F + "f(*(1, 2))\n", set()),
    ("unset-option", "fields", None, "@dataclass(frozen=True)\nclass C:\n    x: int\n"
     "    unused: int = 1\n\n\nC(1)\n", {"fields.C.unused"}),
    ("unset-option", "fields", None, C + "C(1, 2)\n", set()),
    ("unset-option", "fields", None, C + "C(1, unused=2)\n", set()),
    # super().__init__ is not a call of E, so it sets nothing of E.__init__
    ("unset-option", "fields", None, "class E(Exception):\n    def __init__(self, x, "
     "unused=1):\n        super().__init__(x, x)\n\n\nE(1)\n", {"fields.E.__init__.unused"}),
    ("always-set-default", "fields", None, F + "f(1, 2)\nf(1, unused=3)\n", {"fields.f.unused"}),
    ("always-set-default", "fields", None, F + "f(*(1, 2))\n", {"fields.f.unused"}),
    ("always-set-default", "fields", None, F + "f(1, 2)\nf(1)\n", set()),
    ("always-set-default", "fields", None, F, set()),  # no call is unset-option's case
    ("always-set-default", "fields", None, C + "C(1, 2)\n", {"fields.C.unused"}),
    ("always-set-default", "fields", None, C + "C(1, 2)\nC(1)\n", set()),
    ("always-set-default", "fields", None, "class E(Exception):\n    def __init__(self, x, "
     "unused=1):\n        super().__init__(x)\n\n\nE(1, unused=2)\n",
     {"fields.E.__init__.unused"}),
    ("dict-default", "scenarios", RUN_DYADIC_CHECKS, '    n = params.get("ensemble", 100)\n',
     {"scenarios.run_dyadic_checks"}),
    ("dict-default", "scenarios", RUN_DYADIC_CHECKS,
     '    params.setdefault("ensemble", 100)\n', {"scenarios.run_dyadic_checks"}),
    ("dict-default", "scenarios", RUN_DYADIC_CHECKS,
     '    def inner(p):\n        return p.get("s", 0.5)\n', {"scenarios.run_dyadic_checks"}),
    ("dict-default", "scenarios", RUN_DYADIC_CHECKS, '    n = params.get("ensemble")\n', set()),
    ("dict-default", "scenarios", RUN_DYADIC_CHECKS, '    n = params["ensemble"]\n', set()),
    ("dict-default", "scenarios", None, 'ENSEMBLE = {}.get("ensemble", 100)\n',
     {"scenarios.<module>"}),
    ("fft", "gauge", GAUGE_PHASE, "    chat = np.fft.fft(values)\n", {"gauge.gauge_phase"}),
    ("fft", "gauge", GAUGE_PHASE, "    chat = np.fft.ifft(values, axis=-1)\n",
     {"gauge.gauge_phase"}),
    ("band", "gauge", GAUGE_PHASE, "    band(pad, n)[...] = halves\n", {"gauge.gauge_phase"}),
    ("band", "gauge", GAUGE_PHASE, "    fields.band(pad, n)[...] = halves\n",
     {"gauge.gauge_phase"}),
    ("plane-wave-coeffs", "probes", SINGLE_MODES,
     "    out[:, i] = amp * _plane_wave_coeffs(dom)[i]\n", {"probes._single_modes"}),
    ("plane-wave-coeffs", "probes", SINGLE_MODES, "    w = fields._plane_wave_coeffs(dom)\n",
     {"probes._single_modes"}),
    ("plane-wave-coeffs", "probes", SINGLE_MODES,
     "    out = _travelling_modes(dom, tk, [i], [nu], [amp])\n", set()),
    ("plane-wave-coeffs", "probes", SINGLE_MODES, "    w = _plane_wave_coeffs\n", set()),
    ("square-sum", "gauge", GAUGE_PHASE, "    m = np.sum(np.abs(f.values) ** 2, axis=-1)\n",
     {"gauge.gauge_phase"}),
    ("square-sum", "gauge", GAUGE_PHASE, "    m = np.sum(np.abs(f.values) ** 2)\n",
     {"gauge.gauge_phase"}),
    ("square-sum", "gauge", GAUGE_PHASE,
     "    m = np.sum(np.abs(f.values - g) ** 2, axis=1) * f.domain.dx\n",
     {"gauge.gauge_phase"}),
    ("square-sum", "gauge", GAUGE_PHASE, "    m = (np.abs(f.values) ** 2).sum(axis=-1)\n",
     {"gauge.gauge_phase"}),
    ("square-sum", "gauge", GAUGE_PHASE, "    m = _square_sums(f.values)\n", set()),
    ("square-sum", "gauge", GAUGE_PHASE,
     "    m = np.sum(w * np.abs(f.values) ** 2, axis=-1)\n", set()),
    ("square-sum", "gauge", GAUGE_PHASE, "    m = np.abs(f.values) ** 2\n", set()),
    ("square-sum", "gauge", GAUGE_PHASE, "    m = np.sum(np.abs(f.values) ** 4)\n", set()),
    ("square-sum", "fields", None, "def f(v):\n    return np.sum(np.abs(v) ** 2)\n", set()),
    ("low-plus-sup", "probes", COROLLARY_RHS, "    n = b[0] + b[1:].max(initial=0.0)\n",
     {"probes._corollary_rhs"}),
    ("low-plus-sup", "probes", COROLLARY_RHS,
     "    n = b[..., 0] + b[..., 1:].max(axis=-1, initial=0.0)\n", {"probes._corollary_rhs"}),
    ("low-plus-sup", "probes", COROLLARY_RHS, "    n = b[1:].max() + b[0]\n",
     {"probes._corollary_rhs"}),
    ("low-plus-sup", "probes", COROLLARY_RHS, "    n = b[0] + np.max(b[1:])\n",
     {"probes._corollary_rhs"}),
    ("low-plus-sup", "probes", COROLLARY_RHS, "    n = _low_plus_sup(b)\n", set()),
    ("low-plus-sup", "probes", COROLLARY_RHS, "    n = b[0] + b[1:].sum()\n", set()),
    ("low-plus-sup", "probes", COROLLARY_RHS, "    n = b[1] + b[1:].max()\n", set()),
    ("low-plus-sup", "probes", COROLLARY_RHS, "    n = b[0] * b[1:].max()\n", set()),
    ("low-plus-sup", "probes", COROLLARY_RHS, "    n = b[0] + b.max()\n", set()),
    ("low-plus-sup", "spaces", None, "def f(b):\n    return b[0] + b[1:].max()\n", set()),
    ("spacetime-field", "probes", COROLLARY_RHS,
     "    u = SpaceTimeField(u.lattice, u.coeffs[:, :1], u.rows[:1])\n",
     {"probes._corollary_rhs"}),
    ("spacetime-field", "probes", COROLLARY_RHS,
     "    u = fields.SpaceTimeField(u.lattice, u.coeffs)\n", {"probes._corollary_rhs"}),
    ("environment", "gauge", GAUGE_PHASE, '    flag = os.environ.get("X")\n',
     {"gauge.gauge_phase"}),
    ("environment", "gauge", GAUGE_PHASE, '    flag = os.environ["X"]\n', {"gauge.gauge_phase"}),
    ("environment", "gauge", GAUGE_PHASE, '    flag = os.getenv("X", "1")\n',
     {"gauge.gauge_phase"}),
    ("environment", "gauge", GAUGE_PHASE, "    from os import environ\n", {"gauge.gauge_phase"}),
    ("environment", "probes", None, 'THREADS = os.environ.get("X", "1")\n', {"probes.<module>"}),
    ("operand-order", "fields", PRODUCT_LOOP,
     "        prod = prod * padded_values(domain, c, nf)\n",
     {"fields.dealiased_product_coeffs"}),
    ("operand-order", "fields", PRODUCT_LOOP,
     "        prod *= padded_values(domain, c, nf)\n", set()),
    ("operand-order", "fields", PRODUCT_LOOP, "        prod = prod * vals\n", set()),
    ("operand-order", "fields", PRODUCT_LOOP,
     "        np.multiply(prod, padded_values(domain, c, nf), out=prod)\n", set()),
]


class TestRules:
    """Each rule's scan of src finds only what its keep dict lists, and
    still finds every entry there; each planted source makes it find what
    its PLANTED row says, and no more."""

    @pytest.mark.parametrize("rule", RULES)
    def test_every_finding_is_kept(self, rule):
        assert sorted(_found(rule) - set(RULES[rule][1])) == []

    @pytest.mark.parametrize("rule", RULES)
    def test_every_keep_entry_is_found(self, rule):
        assert sorted(set(RULES[rule][1]) - _found(rule)) == []

    @pytest.mark.parametrize("rule,module,anchor,added,flagged", PLANTED, ids=[
        f"{r[0]}-{[q[0] for q in PLANTED[:i]].count(r[0])}" for i, r in enumerate(PLANTED)])
    def test_a_planted_source_gives_its_findings(self, rule, module, anchor, added, flagged):
        sources = _src_sources()
        if anchor is None:
            sources[module] += "\n\n" + added
        else:
            assert anchor in sources[module]
            sources[module] = sources[module].replace(anchor, anchor + added, 1)
        assert set(RULES[rule][0](sources)) - _found(rule) == flagged


SYNTHETIC_MODULE = '''"""A module docstring,
over two lines."""

import numpy as np  # a trailing comment keeps its line


# a comment-only line
def f(x):
    """A docstring."""
    s = """a string that is no docstring,
    over two lines"""
    return (x +
            1)


class C:
    """A class docstring,
    over two lines."""

    y = np.pi
'''


class TestSrcCodeLines:
    def test_a_synthetic_module(self):
        # import, def, the string's two lines, return's two, class, y
        assert code_lines(SYNTHETIC_MODULE) == 8

    def test_a_package_directory_sums_its_modules(self, tmp_path):
        (tmp_path / "a.py").write_text(SYNTHETIC_MODULE)
        (tmp_path / "b.py").write_text("x = 1\n\n\n# done\n")
        (tmp_path / "notes.txt").write_text("x = 1\n")
        assert src_code_lines(tmp_path) == 9

    def test_src_counts_every_module(self):
        assert src_code_lines() == sum(code_lines(t) for t in _src_sources().values())
