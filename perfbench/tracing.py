"""Outside-in per-layer tracing of the afrelay package.

The tracer wraps the public functions of each layer module (the names
in the module's ``__all__``, or without a leading underscore when it
has none) with a timing wrapper and installs the
wrapper at every module attribute that refers to the original.  Calls
are therefore intercepted where callers look the names up:
``afrelay.design`` calls ``svd_ordered`` through its own module
globals, not through ``afrelay.linalg``.  Nothing in the package is
edited; :meth:`Tracer.restore` puts every original object back.

Busy time of a function is the wall time of its calls.  Self time is
busy time minus the time spent in intercepted children, so it holds the
function's own code plus every private helper it calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

LAYERS = ("channel", "linalg", "mse", "design", "validate", "sim", "cli")

FAIL_CAUSES = (
    "convergence",
    "source_power",
    "relay_power",
    "eta_p",
    "wmse_agreement",
    "other",
)

# Per-layer metrics reported by a traced run, each as a value per unit
# of the workload's fixed work.  Names absent from the package (after a
# refactor) report zero rather than failing the run.
_CALLS_BUSY = (
    "channel.sample_scenario",
    "linalg.svd_ordered",
    "linalg.eig_hermitian_ordered",
    "linalg.herm_sqrt",
    "linalg.herm_inv_sqrt",
    "mse.weighted_mse",
    "mse.residual_weighted_mse",
    "mse.tilde_maps",
    "mse.optimal_equalizer",
    "mse.second_order_stats",
)
PER_LAYER: tuple[tuple[str, str], ...] = (
    *((f"{key}.{field}", unit) for key in _CALLS_BUSY
      for field, unit in (("calls", "count"), ("busy_s", "s"))),
    ("design.joint.calls", "count"),
    ("design.joint.busy_s", "s"),
    ("design.relay_only.calls", "count"),
    ("design.relay_only.busy_s", "s"),
    ("design.naive.calls", "count"),
    ("design.naive.busy_s", "s"),
    ("design.spectral_decompose.busy_s", "s"),
    ("design.iterate_allocations.calls", "count"),
    ("design.iterate_allocations.busy_s", "s"),
    ("design.iterate_allocations.iters_mean", "iters"),
    ("design.iterate_allocations.iters_max", "iters"),
    ("design.waterfill.calls", "count"),
    ("design.solve_eta_p.busy_s", "s"),
    ("design.assemble.busy_s", "s"),
    ("design.weight_eigensystem.calls", "count"),
    ("design.weight_eigensystem.calls_per_joint_design", "ratio"),
    ("mse.weighted_mse.calls_per_design", "ratio"),
    *((f"design.fail.{cause}", "count") for cause in FAIL_CAUSES),
    ("validate.brute_force_design.busy_s", "s"),
    ("validate.brute_force_design.objective_calls", "count"),
    ("validate.empirical_weighted_mse.busy_s", "s"),
    ("validate.empirical_mse_matrix.busy_s", "s"),
    ("sim.run_experiment.busy_s", "s"),
    ("sim.run_experiment.self_s", "s"),
    ("cli.cli_main.busy_s", "s"),
    ("cli.cli_main.self_s", "s"),
    ("trace.overhead_frac", "fraction"),
)


def failure_cause(exc: BaseException) -> str:
    """Map an exception raised by ``design`` to one of FAIL_CAUSES.

    Matches the exception class name and the contract messages the
    package raises today, so it needs no import from the package.
    """
    if type(exc).__name__ == "ConvergenceError":
        return "convergence"
    msg = str(exc)
    if "source power" in msg:
        return "source_power"
    if "relay power" in msg:
        return "relay_power"
    if "eta_p" in msg:
        return "eta_p"
    if "weighted MSE" in msg and "disagrees" in msg:
        return "wmse_agreement"
    return "other"


def design_kind(args, kwargs) -> str:
    """'relay_only', 'naive' (error-free knowledge) or 'joint'."""
    opts = args[2] if len(args) > 2 else kwargs.get("opts")
    if opts is not None and getattr(opts, "mode", "joint") == "relay_only":
        return "relay_only"
    know = args[1] if len(args) > 1 else kwargs.get("know")
    stats = (know.stats_sr.row_cov, know.stats_sr.col_cov,
             know.stats_rd.row_cov, know.stats_rd.col_cov)
    if not any(np.any(s) for s in stats):
        return "naive"
    return "joint"


@dataclass
class _Stat:
    calls: int = 0
    busy_ns: int = 0
    child_ns: int = 0


class Tracer:
    """Swap timing wrappers onto the public functions of the layers.

    ``layers`` maps a layer name to its module; ``namespaces`` are the
    modules whose attributes are rewritten (every module of the package,
    including the package itself).  Use as a context manager, or call
    :meth:`install` and :meth:`restore`.
    """

    def __init__(self, layers: dict, namespaces):
        self._layers = layers
        self._namespaces = list(namespaces)
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list[int]] = []
        self.stats: dict[str, _Stat] = {}
        self.kind_stats = {k: _Stat() for k in ("joint", "relay_only", "naive")}
        self.fail_counts = dict.fromkeys(FAIL_CAUSES, 0)
        self.iters: list[int] = []
        self.objective_calls = 0
        self._in_brute_force = 0

    @classmethod
    def for_package(cls, package_name: str = "afrelay") -> "Tracer":
        """Tracer over the layer modules of an imported package.

        Modules are taken from ``sys.modules``: ``import afrelay.design``
        binds the *function* ``design`` re-exported by the package.
        """
        layers = {
            name: sys.modules[f"{package_name}.{name}"]
            for name in LAYERS
            if f"{package_name}.{name}" in sys.modules
        }
        namespaces = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None
            and (key == package_name or key.startswith(package_name + "."))
        ]
        return cls(layers, namespaces)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer, mod in self._layers.items():
            public = getattr(mod, "__all__", None)
            if public is None:
                public = [n for n in vars(mod) if not n.startswith("_")]
            for name in public:
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for ns in self._namespaces:
            for attr, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])
                    self._patched.append((ns, attr, value))

    def restore(self) -> None:
        while self._patched:
            ns, attr, original = self._patched.pop()
            setattr(ns, attr, original)

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, _Stat())
        stack = self._stack
        is_design = key == "design.design"
        is_iterate = key == "design.iterate_allocations"
        is_brute = key == "validate.brute_force_design"
        is_objective = key == "mse.residual_weighted_mse"

        def wrapper(*args, **kwargs):
            if is_objective and self._in_brute_force:
                self.objective_calls += 1
            if is_brute:
                self._in_brute_force += 1
            frame = [0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if is_design:
                    self.fail_counts[failure_cause(exc)] += 1
                raise
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat.calls += 1
                stat.busy_ns += elapsed
                stat.child_ns += frame[0]
                if is_brute:
                    self._in_brute_force -= 1
                if is_design:
                    kind = self.kind_stats[design_kind(args, kwargs)]
                    kind.calls += 1
                    kind.busy_ns += elapsed
            if is_iterate:
                self.iters.append(int(result.n_iters))
            return result

        return functools.wraps(fn)(wrapper)

    def metrics(self, n_units: int, overhead_frac: float) -> dict[str, float]:
        """Every PER_LAYER metric, per unit of fixed work."""
        per = 1.0 / max(n_units, 1)
        out: dict[str, float] = {}

        def stat(key):
            return self.stats.get(key, _Stat())

        for key in _CALLS_BUSY:
            out[f"{key}.calls"] = stat(key).calls * per
            out[f"{key}.busy_s"] = stat(key).busy_ns * 1e-9 * per
        for kind, s in self.kind_stats.items():
            out[f"design.{kind}.calls"] = s.calls * per
            out[f"design.{kind}.busy_s"] = s.busy_ns * 1e-9 * per
        for name in ("spectral_decompose", "iterate_allocations", "solve_eta_p", "assemble"):
            out[f"design.{name}.busy_s"] = stat(f"design.{name}").busy_ns * 1e-9 * per
        out["design.iterate_allocations.calls"] = stat("design.iterate_allocations").calls * per
        out["design.iterate_allocations.iters_mean"] = (
            float(np.mean(self.iters)) if self.iters else 0.0
        )
        out["design.iterate_allocations.iters_max"] = float(max(self.iters, default=0))
        out["design.waterfill.calls"] = (
            stat("design.waterfill_relay").calls + stat("design.waterfill_source").calls
        ) * per
        eig_calls = stat("design.weight_eigensystem").calls
        out["design.weight_eigensystem.calls"] = eig_calls * per
        joint_mode = self.kind_stats["joint"].calls + self.kind_stats["naive"].calls
        out["design.weight_eigensystem.calls_per_joint_design"] = (
            eig_calls / joint_mode if joint_mode else 0.0
        )
        n_designs = stat("design.design").calls
        out["mse.weighted_mse.calls_per_design"] = (
            stat("mse.weighted_mse").calls / n_designs if n_designs else 0.0
        )
        for cause, count in self.fail_counts.items():
            out[f"design.fail.{cause}"] = count * per
        for name in ("brute_force_design", "empirical_weighted_mse", "empirical_mse_matrix"):
            out[f"validate.{name}.busy_s"] = stat(f"validate.{name}").busy_ns * 1e-9 * per
        out["validate.brute_force_design.objective_calls"] = self.objective_calls * per
        for key in ("sim.run_experiment", "cli.cli_main"):
            s = stat(key)
            out[f"{key}.busy_s"] = s.busy_ns * 1e-9 * per
            out[f"{key}.self_s"] = (s.busy_ns - s.child_ns) * 1e-9 * per
        out["trace.overhead_frac"] = overhead_frac
        return {name: out[name] for name, _ in PER_LAYER}
