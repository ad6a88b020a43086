"""Call probes installed at the module attributes pvpool's callers look up.

A probe replaces one attribute with a wrapper that times each call and
records it as a span.  Spans nest through a shared stack, so a span's
`child_s` is the time spent in probed calls made inside it and its self
time is `seconds - child_s`.  The attribute a caller looks up decides the
layer a call is charged to: `pvpool.sizing.solve_lp` and
`pvpool.operation.solve_qp` are separate probes, so each solve counts
against the module that made it.

A probe is installed only where its attribute exists.  A version of the
package that stops making some call reads zero calls for it rather than
failing to trace.
"""

import functools
import importlib
from time import perf_counter


def _solve_info(args, kwargs, result):
    problem = args[0] if args else kwargs.get("problem")
    return {"nnz": int(problem.a.nnz), "iterations": int(result.iterations),
            "status": result.status}


# (module, attribute, probe name, extra info taken from a finished call)
PROBES = (
    ("pvpool.sizing", "solve_lp", "lp", _solve_info),
    ("pvpool.allocation", "solve_qp", "qp", _solve_info),
    ("pvpool.operation", "solve_qp", "qp", _solve_info),
    ("pvpool.cli", "solve_sizing", "sizing", None),
    ("pvpool.cli", "min_variance_key", "key", None),
    ("pvpool.allocation", "min_variance_key", "key", None),
    ("pvpool.operation", "mpc_step", "mpc", None),
    ("pvpool.operation", "settle", "settle", None),
    ("pvpool.operation", "myopic_settle", "settle", None),
    ("pvpool.cli", "run_year", "run_year", None),
    ("pvpool.operation", "run_year", "run_year", None),
    ("pvpool.cli", "generate_synthetic", "gen", None),
    ("pvpool.io", "generate_synthetic", "gen", None),
    ("pvpool.io.ProjectConfig", "from_file", "load", None),
    ("pvpool.io.ProjectConfig", "load_inputs", "load", None),
    ("pvpool.io.ProjectConfig", "load_realized", "load", None),
    ("pvpool.cli", "write_loads_csv", "write", None),
    ("pvpool.cli", "write_solar_csv", "write", None),
    ("pvpool.cli", "write_realized_csv", "write", None),
    ("pvpool.cli", "write_catalog_json", "write", None),
    ("pvpool.cli", "write_key_csv", "write", None),
    ("pvpool.cli", "write_matrix_csv", "write", None),
    ("pvpool.cli", "dump_json", "write", None),
    ("pvpool.io", "validate_inputs", "validate", None),
    ("pvpool.domain", "validate_inputs", "validate", None),
    ("pvpool.cli", "cli_main", "cli", None),
)

# Probes whose arguments and results the checks read, also in untraced runs:
# the pipeline's artifacts live only inside the CLI commands.
CAPTURE = ("sizing", "key", "run_year")


class Span:
    __slots__ = ("name", "parent", "seconds", "child_s", "info", "args",
                 "result")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.seconds = 0.0
        self.child_s = 0.0
        self.info = None
        self.args = None
        self.result = None

    @property
    def self_s(self):
        return self.seconds - self.child_s


def _resolve(path):
    """Module or class named by a dotted path, or None if it is missing."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


class Recorder:
    """Installs probes, keeps their spans, and puts the originals back."""

    def __init__(self, names=None):
        self.names = names
        self.spans = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        for path, attr, name, info in PROBES:
            if self.names is not None and name not in self.names:
                continue
            owner = _resolve(path)
            if owner is None or attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(
                    self._probe(name, info, original.__func__))
            else:
                wrapped = self._probe(name, info, original)
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _probe(self, name, info, fn):
        stack = self._stack
        spans = self.spans
        keep = name in CAPTURE

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.seconds = perf_counter() - start
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.seconds
                spans.append(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            if keep:
                span.args = args
                span.result = result
            return result

        return probe

    def named(self, name):
        return [s for s in self.spans if s.name == name]
