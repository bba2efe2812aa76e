"""Per-layer spans recorded from outside the package.

A layer is one module of ``rieszlab``.  ``Tracer`` replaces every public
function of each layer, at every module binding that holds it (``from x
import f`` copies the function into the importing module), by a wrapper that
records calls, inclusive time and self time, and feeds a few work counters
from the call's arguments and result.  Nothing under ``src/`` changes;
``Tracer.close`` puts every original binding back.

Self time of a span is its duration minus the time covered by the spans it
caused.  The file readers and writers form a layer of their own, ``io``, so
that ``measure.self_s`` is computation and ``cli.io_s`` is file work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass

LAYERS = ("generators", "measure", "kernels", "analysis", "treecode", "construction", "cli")

# functions whose time is file work, whatever module defines them
IO_FUNCTIONS = {
    ("measure", "read_measure"),
    ("measure", "write_measure"),
    ("kernels", "read_vector_field"),
    ("kernels", "write_vector_field"),
    ("cli", "_artifact"),
}


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "rieszlab" or name.startswith("rieszlab."))
    ]


def replace_everywhere(original, replacement) -> list:
    """Rebind every ``rieszlab`` module attribute that is ``original``.

    Returns the (module, attribute) pairs changed, for ``restore``.
    """
    changed = []
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                changed.append((mod, attr))
    return changed


def restore(changed: list, original) -> None:
    for mod, attr in changed:
        setattr(mod, attr, original)


class Capture:
    """Keeps the results of one package function, e.g. the CLI's norm estimates.

    Close a Capture only after any Tracer opened later has been closed.
    """

    def __init__(self, module, name: str):
        self.results: list = []
        original = self._original = getattr(module, name)

        @functools.wraps(original)
        def recorder(*args, **kwargs):
            out = original(*args, **kwargs)
            self.results.append(out)
            return out

        self._changed = replace_everywhere(original, recorder)

    def close(self) -> None:
        restore(self._changed, self._original)


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Wraps the public functions of every layer; see the module docstring."""

    def __init__(self):
        self.stats: dict[tuple[str, str], Stat] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list[float]] = []
        self._restore: list[tuple[list, object]] = []
        for layer in LAYERS:
            mod = importlib.import_module(f"rieszlab.{layer}")
            for name, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if name.startswith("_") and (layer, name) not in IO_FUNCTIONS:
                    continue
                key = ("io" if (layer, name) in IO_FUNCTIONS else layer, name)
                wrapper = self._wrap(key, fn)
                self._restore.append((replace_everywhere(fn, wrapper), fn))
        analysis = sys.modules["rieszlab.analysis"]
        self._dense_cap = inspect.signature(analysis.operator_norm).parameters[
            "dense_cache_cap"
        ].default

    def close(self) -> None:
        for changed, original in self._restore:
            restore(changed, original)
        self._restore.clear()

    def _wrap(self, key, fn):
        stat = self.stats.setdefault(key, Stat())
        count = getattr(self, f"_count_{key[1]}", None)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - children[0]
            if count is not None:
                count(args, kwargs, out)
            return out

        return wrapper

    # -- work counters, read from arguments and results --------------------

    def _add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def _count_ball_masses(self, args, kwargs, out):
        mu = args[0] if args else kwargs["mu"]
        self._add("ball_pairs", out.shape[0] * len(mu))

    def _count_kernel_sum(self, args, kwargs, out):
        points = args[0] if args else kwargs["points"]
        self._add("kernel_pairs", out.shape[0] * len(points))

    def _count_operator_norm(self, args, kwargs, out):
        mu = args[0] if args else kwargs["mu"]
        cap = kwargs.get("dense_cache_cap", self._dense_cap)
        n_pts, d = len(mu), mu.ambient_dim
        self._add("norm_iterations", out.iterations)
        if n_pts * n_pts * d <= cap:
            matrix_bytes = 8.0 * n_pts * n_pts * d
            self.counters["dense_matrix_mb"] = max(
                self.counters.get("dense_matrix_mb", 0.0), matrix_bytes / 1e6
            )
            # one forward and one adjoint pass over the cached matrix per iteration
            self._add("gemv_bytes", 2.0 * out.iterations * matrix_bytes)

    def _count_build_tree(self, args, kwargs, out):
        self._add("nodes", out.n_nodes)

    def _count_besicovitch_cover(self, args, kwargs, out):
        self._add("cover_balls", len(out))

    # -- per-layer metrics -------------------------------------------------

    def _total(self, layer: str, name: str) -> float:
        stat = self.stats.get((layer, name))
        return stat.total_s if stat else 0.0

    def _calls(self, layer: str, name: str) -> int:
        stat = self.stats.get((layer, name))
        return stat.calls if stat else 0

    def _self(self, layer: str) -> float:
        return sum(s.self_s for (lay, _), s in self.stats.items() if lay == layer)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit); 0 for an idle layer."""
        c = self.counters.get
        norm_s = self._total("analysis", "operator_norm")
        iters = c("norm_iterations", 0.0)
        kernel_s = self._total("kernels", "kernel_sum")
        pairs = c("kernel_pairs", 0.0)
        return {
            "generators.gen_s": (self._self("generators"), "s"),
            "measure.ball_masses_s": (self._total("measure", "ball_masses"), "s"),
            "measure.ball_masses_calls": (self._calls("measure", "ball_masses"), "count"),
            "measure.ball_pairs": (c("ball_pairs", 0.0), "count"),
            "measure.support_diameter_s": (self._total("measure", "support_diameter"), "s"),
            "measure.support_diameter_calls": (self._calls("measure", "support_diameter"), "count"),
            "measure.self_s": (self._self("measure"), "s"),
            "kernels.kernel_sum_s": (kernel_s, "s"),
            "kernels.kernel_sum_calls": (self._calls("kernels", "kernel_sum"), "count"),
            "kernels.kernel_pairs": (pairs, "count"),
            "kernels.pairs_per_s": (pairs / kernel_s if kernel_s > 0 else 0.0, "pairs/s"),
            "kernels.self_s": (self._self("kernels"), "s"),
            "analysis.operator_norm_s": (norm_s, "s"),
            "analysis.norm_iterations": (iters, "count"),
            "analysis.s_per_iteration": (norm_s / iters if iters else 0.0, "s"),
            "analysis.dense_matrix_mb": (c("dense_matrix_mb", 0.0), "MB"),
            "analysis.gemv_gb_per_s": (
                c("gemv_bytes", 0.0) / 1e9 / norm_s if norm_s > 0 else 0.0, "GB/s"
            ),
            "analysis.self_s": (self._self("analysis"), "s"),
            "treecode.build_tree_s": (self._total("treecode", "build_tree"), "s"),
            "treecode.treecode_apply_s": (self._total("treecode", "treecode_apply"), "s"),
            "treecode.nodes": (c("nodes", 0.0), "count"),
            "treecode.self_s": (self._self("treecode"), "s"),
            "construction.extract_dense_set_s": (self._total("construction", "extract_dense_set"), "s"),
            "construction.extract_core_set_s": (self._total("construction", "extract_core_set"), "s"),
            "construction.besicovitch_cover_s": (self._total("construction", "besicovitch_cover"), "s"),
            "construction.attach_patches_s": (self._total("construction", "attach_patches"), "s"),
            "construction.build_proxy_measure_s": (self._total("construction", "build_proxy_measure"), "s"),
            "construction.verify_construction_s": (self._total("construction", "verify_construction"), "s"),
            "construction.cover_balls": (c("cover_balls", 0.0), "count"),
            "construction.self_s": (self._self("construction"), "s"),
            "cli.main_s": (self._total("cli", "main"), "s"),
            "cli.io_s": (sum(s.total_s for (lay, _), s in self.stats.items() if lay == "io"), "s"),
            "cli.self_s": (self._self("cli"), "s"),
        }
