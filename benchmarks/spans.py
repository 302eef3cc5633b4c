"""Span tracer for the invlowrank package, and the traced command runner.

``Tracer.install()`` wraps every public function of the layer modules and
rebinds the wrapper in every ``invlowrank.*`` module that holds the original
function, because modules import names directly (``from .groups import
elements``) and a call through such a name would otherwise bypass the wrapper.
Each call records a span (name, start, end, parent) in memory; ``summary()``
turns the spans into per-function self seconds (span time minus the time its
child spans cover) and call counts.

Run as a script, it executes one CLI command in-process under the tracer and
writes the spans and the summary as JSON:

    PYTHONPATH=src python benchmarks/spans.py OUT.json -- solve --config c.conf --out d
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import json
import os
import sys
import time

LAYERS = ("config", "datagen", "matio", "groups", "linalg", "solvers", "training", "ntk")

# Called once per matrix entry when a matrix file is written; a span per call
# would cost more than the call and swamp write_matrix's own time.
UNTRACED = {"matio.format_float"}

# Time spent by the tracer's own probes (hashing, file sizes) is recorded as
# a child span of this name, so it is excluded from every layer's self time.
PROBE = "trace.probe"


def _first_arg_digest(args, kwargs, result):
    import numpy as np
    a = np.ascontiguousarray(args[0] if args else next(iter(kwargs.values())), dtype=float)
    return hashlib.blake2b(repr(a.shape).encode() + a.tobytes(), digest_size=16).hexdigest()


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _weight_bytes(args, kwargs, result):
    # computed, not measured: the d1 x d0 float64 weights one matvec streams
    samples = args[0] if args else kwargs["samples"]
    return int(samples.weights.nbytes)


# label -> (probe, how its values are summarized)
PROBES = {
    "linalg.svd": (_first_arg_digest, "distinct_frac"),
    "linalg.pd_inv_sqrt": (_first_arg_digest, "distinct_frac"),
    "linalg.left_null_projector": (_first_arg_digest, "distinct_frac"),
    "matio.read_matrix": (_file_bytes, "bytes"),
    "matio.write_matrix": (_file_bytes, "bytes"),
    "ntk.empirical_ntk": (_weight_bytes, "bytes_computed"),
}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or None, probe value]
        self._stack: list[int] = []
        self.wrapped: dict[str, object] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block."""
        idx = self._open(name)
        self.spans[idx][1] = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None, None])
        self._stack.append(idx)
        return idx

    def _wrap(self, label: str, fn):
        tracer = self
        probe = PROBES.get(label, (None, None))[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(label)
            span = tracer.spans[idx]
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if probe is not None:
                started = time.perf_counter()
                span[4] = probe(args, kwargs, result)
                tracer.spans.append([PROBE, started, time.perf_counter(), span[3], None])
            return result

        return wrapper

    def install(self) -> dict[str, object]:
        """Wrap the layer modules' public functions and rebind every reference.

        Returns label -> wrapper. ``RegressionProblem`` is traced through its
        ``__post_init__``, where construction does its work.
        """
        import invlowrank.cli  # noqa: F401  (imports every layer module)
        from invlowrank import solvers

        package = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("invlowrank") and mod is not None}
        for layer in LAYERS:
            mod = package[f"invlowrank.{layer}"]
            for name, obj in list(vars(mod).items()):
                label = f"{layer}.{name}"
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or label in UNTRACED):
                    continue
                wrapper = self._wrap(label, obj)
                self.wrapped[label] = wrapper
                for holder in package.values():
                    for attr, value in list(vars(holder).items()):
                        if value is obj:
                            setattr(holder, attr, wrapper)
        cls = solvers.RegressionProblem
        label = "solvers.RegressionProblem"
        self.wrapped[label] = self._wrap(label, cls.__post_init__)
        cls.__post_init__ = self.wrapped[label]
        return self.wrapped

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, and probe summaries."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        values: dict[str, list] = {}
        for i, (name, start, end, _, value) in enumerate(self.spans):
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child_time[i]
            if value is not None:
                values.setdefault(name, []).append(value)
        for name, vals in values.items():
            kind = PROBES[name][1]
            if kind == "distinct_frac":
                out[name]["distinct"] = len(set(vals))
            else:
                out[name][kind] = int(sum(vals))
        return out


def main(argv: list[str]) -> int:
    """``spans.py OUT.json -- <cli args>``: run one traced command in-process."""
    if len(argv) < 3 or argv[1] != "--":
        print("usage: spans.py OUT.json -- <invlowrank cli args>", file=sys.stderr)
        return 64
    out_path, cli_args = argv[0], argv[2:]
    started = time.perf_counter()
    import invlowrank.cli as cli
    import_s = time.perf_counter() - started
    tracer = Tracer()
    tracer.install()
    code = 0
    with tracer.span("cli.entry"):
        try:
            cli.entry(cli_args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    with open(out_path, "w") as fh:
        json.dump({"exit_code": code, "import_s": import_s, "summary": tracer.summary(),
                   "wrapped": sorted(tracer.wrapped), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
