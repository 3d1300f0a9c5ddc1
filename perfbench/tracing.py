"""Timing wrappers installed around the package's public functions from outside.

Nothing in ``src/`` knows about tracing.  ``Tracer.install`` replaces each
frozen public name, in its home module and in every ``aspec`` module that
imported it, with a wrapper that records a span (name, start, end, parent
span, op id) and per-name counts.  LAPACK-backed calls are wrapped the same
way on ``numpy.linalg`` and ``scipy.linalg``.  A frozen name that no longer
exists raises ``DetachedError``, so a rename cannot silently zero a metric.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

# layer -> (home module, public functions wrapped)
LAYERS = {
    "linalg": ("aspec.linalg", ("read_matrix", "matrix_to_obj")),
    "psd": ("aspec.psd", ("psd_decompose",)),
    "douglas": ("aspec.douglas", ("douglas_solve", "power_factorize")),
    "seminorm": ("aspec.seminorm", ("a_membership", "a_seminorm", "a_seminorm_oracle", "a_adjoint", "random_member")),
    "invert": ("aspec.invert", ("a_invertible", "neumann_a_inverse", "thvn_certificate")),
    "spectrum": (
        "aspec.spectrum",
        ("a_numerical_range", "a_spectrum", "spectrum_witness", "gelfand_sequence", "boundary_mollifier"),
    ),
    "omega": (
        "aspec.omega",
        ("parse_element", "parse_rational", "a_inverse_classify", "is_well_supported", "diagonal_truncation"),
    ),
    "harness": ("aspec.harness", ("generate_instance",)),
    "cli": ("aspec.cli", ("main",)),
}
# kernel metric name -> (module, function)
KERNEL = {
    "eigh": ("numpy.linalg", "eigh"),
    "eigvalsh": ("numpy.linalg", "eigvalsh"),
    "eig": ("numpy.linalg", "eig"),
    "eigvals": ("numpy.linalg", "eigvals"),
    "svd": ("numpy.linalg", "svd"),
    "norm": ("numpy.linalg", "norm"),
    "inv": ("numpy.linalg", "inv"),
    "pinv": ("numpy.linalg", "pinv"),
    "qr": ("numpy.linalg", "qr"),
    "scipy_eigh": ("scipy.linalg", "eigh"),
}
ALL_LAYERS = (*LAYERS, "kernel")
# layers each workload is stated to exercise; a traced run in which one records no call fails
EXERCISED = {
    "cli-mix": ("cli", "linalg", "psd", "seminorm", "invert", "spectrum", "omega", "kernel"),
    "analysis-64": ("psd", "seminorm", "invert", "spectrum", "kernel"),
    "proptest-small": ("linalg", "psd", "douglas", "seminorm", "invert", "spectrum", "omega", "harness", "kernel"),
}


class DetachedError(RuntimeError):
    """A wrapped public name is gone, or a layer a workload exercises recorded no call."""


class _Stat:
    __slots__ = ("layer", "calls", "total_ns", "self_ns", "errors", "found")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = self.total_ns = self.self_ns = self.errors = self.found = 0


class Tracer:
    """Spans and per-name counters, kept in memory until the run writes them out."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self.op = -1
        self.active = False
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, layer: str, fn):
        stat = self.stats.setdefault(key, _Stat(layer))
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [tracer._next_id, 0]
            tracer._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stat.errors += 1
                raise
            else:
                stat.found += result is not None
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stat.calls += 1
                stat.total_ns += duration
                stat.self_ns += duration - frame[1]
                tracer.spans.append((frame[0], key, parent, tracer.op, start, end))

        return wrapper

    def install(self) -> None:
        """Wrap every frozen name wherever an ``aspec`` module holds it."""
        targets = [(f"{layer}.{name}", layer, mod, name) for layer, (mod, names) in LAYERS.items() for name in names]
        targets += [(f"kernel.{key}", "kernel", mod, name) for key, (mod, name) in KERNEL.items()]
        for key, layer, mod_name, name in targets:
            home = importlib.import_module(mod_name)
            original = getattr(home, name, None)
            if not callable(original):
                raise DetachedError(f"{mod_name}.{name} no longer exists; tracing would detach")
            wrapper = self._wrap(key, layer, original)
            holders = [home] + [m for n, m in list(sys.modules.items()) if (n == "aspec" or n.startswith("aspec.")) and m is not home]
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
                        self._patched.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def layer_calls(self) -> dict[str, int]:
        out = dict.fromkeys(ALL_LAYERS, 0)
        for stat in self.stats.values():
            out[stat.layer] += stat.calls
        return out

    def check_attached(self, workload: str) -> None:
        calls = self.layer_calls()
        idle = [layer for layer in EXERCISED[workload] if calls[layer] == 0]
        if idle:
            raise DetachedError(f"{workload}: layers {', '.join(idle)} recorded no call; tracing detached")

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-op counts and times of every wrapped name, plus per-layer error counts."""
        out: dict[str, tuple[float, str]] = {}
        errors = dict.fromkeys(ALL_LAYERS, 0)
        for key, stat in self.stats.items():
            out[f"{key}.calls"] = (stat.calls / ops, "count")
            # kernel calls have no wrapped children, so their self time is their whole time
            suffix = "ms" if stat.layer == "kernel" else "self_ms"
            out[f"{key}.{suffix}"] = (stat.self_ns / 1e6 / ops, "ms")
            errors[stat.layer] += stat.errors
        for layer, count in errors.items():
            out[f"{layer}.errors"] = (count / ops, "count")
        witness = self.stats["spectrum.spectrum_witness"]
        out["spectrum.spectrum_witness.found_frac"] = (witness.found / witness.calls if witness.calls else 0.0, "ratio")
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON array per span: id, name, parent id (-1 for none), op id, start ns, end ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
