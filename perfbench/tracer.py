"""Outside-in span tracing of the liouville_lab layers.

The package itself carries no instrumentation.  `install` wraps its
public entry points in every namespace that imported them by value and
patches the batch methods on their classes, so one span is recorded at
each layer boundary the benchmark crosses.  Spans stay in memory as
parallel lists and are summarised (and written out) when the pass ends.

A span's self time is its duration minus the durations of its direct
children.  Calls are strictly nested on one thread, so the children of a
span cover disjoint parts of its interval.
"""

from __future__ import annotations

import csv
import functools
import gzip
import math
import time

import numpy as np

# (module attribute, namespaces holding it by value, layer)
FUNCTIONS = (
    ("flow_batch", ("dynamics", "transport", "verification"), "dynamics"),
    ("integrate", ("dynamics", "cli"), "dynamics"),
    ("sample_ensemble", ("transport", "verification", "cli"), "transport"),
    ("weak_residual_suite", ("transport", "verification"), "transport"),
    ("level_difference_series", ("transport", "verification"), "transport"),
    ("collision_boundary_term", ("transport", "cli"), "transport"),
    ("gradient_l1_error", ("potentials", "cli"), "potentials"),
    ("check_time_continuity", ("verification",), "verification"),
    ("check_measure_preservation", ("verification",), "verification"),
    ("check_group_property", ("verification",), "verification"),
    ("check_energy_invariance", ("verification",), "verification"),
    ("check_weak_ode", ("verification",), "verification"),
    ("flow_axiom_suite", ("verification",), "verification"),
    ("check_mollification_cauchy", ("verification",), "verification"),
    ("check_renormalization_suite", ("verification",), "verification"),
    ("check_uniqueness_monotone", ("verification",), "verification"),
    ("run", ("cli",), "cli"),
)

# (module, class, method, layer)
METHODS = (
    ("potentials", "PairPotential", "gradient_batch", "potentials"),
    ("potentials", "PairPotential", "value_batch", "potentials"),
    ("potentials", "MollifiedPotential", "gradient_batch", "potentials"),
    ("potentials", "MollifiedPotential", "value_batch", "potentials"),
    ("transport", "TestFunction", "support_mask", "transport"),
    ("transport", "EnergyCutoff", "value_batch", "transport"),
)

LAYERS = ("potentials", "dynamics", "transport", "verification", "cli")
POTENTIAL_KINDS = ("free", "harmonic", "repulsive_power", "gaussian_well", "piecewise_radial")
CHECK_FUNCTIONS = (
    "time_continuity",
    "measure_preservation",
    "group_property",
    "energy_invariance",
    "weak_ode",
    "flow_axiom_suite",
    "mollification_cauchy",
    "renormalization_suite",
    "uniqueness_monotone",
)
CLI_EXPERIMENTS = ("simulate", "verify", "scaling")


def _rows(r) -> int:
    shape = np.shape(r)
    return int(math.prod(shape[:-1]))


class Tracer:
    """In-memory span recorder with per-boundary counters."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.tags: list[str] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._saved: list[tuple[object, str, object]] = []

    def add(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def _inside(self, name: str) -> bool:
        return any(self.names[i] == name for i in self.stack)

    def _enclosing_flow(self) -> int | None:
        for i in reversed(self.stack):
            if self.names[i] == "flow_batch":
                return i
        return None

    def wrap(self, fn, name: str, layer: str, tag=None, observe=None):
        """Return fn wrapped in a span.

        tag(args, kwargs) labels the span before the call; observe(args,
        kwargs, result) counts the work after it.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.tags.append(tag(args, kwargs) if tag is not None else "")
            self.ends.append(math.nan)
            self.stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self.stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # -- span labels and counters observed at the boundaries -----------

    @staticmethod
    def _tag_flow(args, kwargs):
        """Force-cost mode of a flow_batch call; analytic, non-free potentials only."""
        potential = args[2] if len(args) > 2 else kwargs["potential"]
        icfg = args[4] if len(args) > 4 else kwargs["icfg"]
        if hasattr(potential, "base") or getattr(potential, "kind", "") == "free":
            return ""
        return "adaptive" if icfg.adaptive else "fixed"

    @staticmethod
    def _tag_run(args, kwargs):
        return args[1] if len(args) > 1 else kwargs["experiment"]

    @staticmethod
    def _tag_kind(args, kwargs):
        return args[0].kind

    def _observe_flow(self, args, kwargs, result):
        flags = result[2]
        self.add("dynamics.flow_calls", 1)
        self.add("dynamics.flow_rows", flags.size)
        self.add("dynamics.flagged_singular", int(np.count_nonzero(flags == 1)))
        self.add("dynamics.flagged_substep_limit", int(np.count_nonzero(flags == 2)))

    def _observe_integrate(self, args, kwargs, result):
        self.add("dynamics.integrate_steps", result.times.size - 1)

    def _observe_sample(self, args, kwargs, result):
        self.add("transport.sample_rows", result.size)
        self.add("transport.nonzero_rows", int(np.count_nonzero(result.values)))

    def _observe_support(self, args, kwargs, result):
        self.add("transport.support_rows", result.size)
        self.add("transport.support_hits", int(np.count_nonzero(result)))
        if self._inside("weak_residual_suite"):
            self.add("transport.estimator_snapshots", 1)

    def _count_force_rows(self, rows: int) -> None:
        flow = self._enclosing_flow()
        if flow is not None:
            self.add("dynamics.force_evals", rows)
            if self.tags[flow]:
                self.add(f"dynamics.force_evals.{self.tags[flow]}", rows)

    def _observe_analytic_gradient(self, args, kwargs, result):
        rows = _rows(args[1] if len(args) > 1 else kwargs["r"])
        self.add("potentials.analytic_gradient_rows", rows)
        self.add(f"potentials.analytic_gradient_rows.{args[0].kind}", rows)
        self._count_force_rows(rows)

    def _observe_analytic_value(self, args, kwargs, result):
        if self._inside("MollifiedPotential.gradient_batch"):
            self.add("potentials.quadrature_points", _rows(args[1] if len(args) > 1 else kwargs["r"]))

    def _observe_mollified_gradient(self, args, kwargs, result):
        rows = _rows(args[1] if len(args) > 1 else kwargs["r"])
        self.add("potentials.mollified_gradient_rows", rows)
        self._count_force_rows(rows)

    # -- patching --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every traced entry point of the imported package modules."""
        modules = {name: getattr(package, name) for name in LAYERS}
        taggers = {
            "flow_batch": self._tag_flow,
            "run": self._tag_run,
            "PairPotential.gradient_batch": self._tag_kind,
        }
        observers = {
            "flow_batch": self._observe_flow,
            "integrate": self._observe_integrate,
            "sample_ensemble": self._observe_sample,
            "PairPotential.gradient_batch": self._observe_analytic_gradient,
            "PairPotential.value_batch": self._observe_analytic_value,
            "MollifiedPotential.gradient_batch": self._observe_mollified_gradient,
            "TestFunction.support_mask": self._observe_support,
        }
        for attr, namespaces, layer in FUNCTIONS:
            original = getattr(modules[layer], attr)
            traced = self.wrap(original, attr, layer, taggers.get(attr), observers.get(attr))
            for ns in namespaces:
                module = modules[ns]
                if getattr(module, attr) is not original:
                    raise RuntimeError(f"{ns}.{attr} is not the {layer} function")
                self._saved.append((module, attr, original))
                setattr(module, attr, traced)
        for mod, cls_name, method, layer in METHODS:
            cls = getattr(modules[mod], cls_name)
            original = cls.__dict__[method]
            name = f"{cls_name}.{method}"
            self._saved.append((cls, method, original))
            setattr(
                cls, method, self.wrap(original, name, layer, taggers.get(name), observers.get(name))
            )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> np.ndarray:
        starts = np.asarray(self.starts)
        dur = np.asarray(self.ends) - starts
        own = dur.copy()
        parents = np.asarray(self.parents, dtype=np.int64)
        nested = parents >= 0
        np.subtract.at(own, parents[nested], dur[nested])
        return own

    def summary(self, wall_s: float) -> dict:
        """Per-layer metrics of one traced pass whose timed region lasted wall_s."""
        names = np.asarray(self.names, dtype=object)
        layers = np.asarray(self.layers, dtype=object)
        tags = np.asarray(self.tags, dtype=object)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        own = self.self_times()
        c = self.counters.get

        def self_of(name):
            return float(own[names == name].sum())

        def incl(mask):
            return float(dur[mask].sum())

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        out = {f"{layer}.self_s": float(own[layers == layer].sum()) for layer in LAYERS}
        analytic = (names == "PairPotential.gradient_batch") | (names == "PairPotential.value_batch")
        out["potentials.analytic_s"] = float(own[analytic].sum())
        out["potentials.analytic_gradient_rows"] = c("potentials.analytic_gradient_rows", 0.0)
        for kind in POTENTIAL_KINDS:
            mask = (names == "PairPotential.gradient_batch") & (tags == kind)
            out[f"potentials.analytic_ns_per_row.{kind}"] = ratio(
                float(own[mask].sum()), c(f"potentials.analytic_gradient_rows.{kind}", 0.0), 1e9
            )
        mollified = (names == "MollifiedPotential.gradient_batch") | (
            names == "MollifiedPotential.value_batch"
        )
        out["potentials.mollified_s"] = float(own[mollified].sum())
        mollified_rows = c("potentials.mollified_gradient_rows", 0.0)
        out["potentials.mollified_gradient_rows"] = mollified_rows
        out["potentials.mollified_us_per_gradient_row"] = ratio(
            incl(names == "MollifiedPotential.gradient_batch"), mollified_rows, 1e6
        )
        out["potentials.quadrature_points_per_gradient_row"] = ratio(
            c("potentials.quadrature_points", 0.0), mollified_rows
        )
        for key in ("flow_calls", "flow_rows", "force_evals", "flagged_singular", "flagged_substep_limit"):
            out[f"dynamics.{key}"] = c(f"dynamics.{key}", 0.0)
        for mode in ("fixed", "adaptive"):
            mask = (names == "flow_batch") & (tags == mode)
            out[f"dynamics.ns_per_force_eval.{mode}"] = ratio(
                incl(mask), c(f"dynamics.force_evals.{mode}", 0.0), 1e9
            )
        out["dynamics.integrate_us_per_step"] = ratio(
            incl(names == "integrate"), c("dynamics.integrate_steps", 0.0), 1e6
        )
        out["transport.sample_rows"] = c("transport.sample_rows", 0.0)
        out["transport.nonzero_value_fraction"] = ratio(
            c("transport.nonzero_rows", 0.0), c("transport.sample_rows", 0.0)
        )
        out["transport.support_hit_fraction"] = ratio(
            c("transport.support_hits", 0.0), c("transport.support_rows", 0.0)
        )
        out["transport.support_mask_s"] = self_of("TestFunction.support_mask")
        out["transport.estimator_s"] = self_of("weak_residual_suite")
        out["transport.estimator_snapshots"] = c("transport.estimator_snapshots", 0.0)
        out["transport.level_series_s"] = self_of("level_difference_series")
        out["transport.cutoff_s"] = self_of("EnergyCutoff.value_batch")
        out["transport.collision_s"] = self_of("collision_boundary_term")
        for check in CHECK_FUNCTIONS:
            name = check if check == "flow_axiom_suite" else f"check_{check}"
            out[f"verification.check_s.{check}"] = incl(names == name)
        for experiment in CLI_EXPERIMENTS:
            out[f"cli.run_s.{experiment}"] = incl((names == "run") & (tags == experiment))
        out["trace.spans"] = float(len(self.names))
        out["trace.unattributed_s"] = wall_s - float(own.sum())
        return out

    def write_spans(self, path) -> None:
        own = self.self_times()
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "layer", "name", "tag", "start", "end", "self_s"])
            for i, name in enumerate(self.names):
                writer.writerow(
                    [i, self.parents[i], self.layers[i], name, self.tags[i],
                     f"{self.starts[i]:.9f}", f"{self.ends[i]:.9f}", f"{own[i]:.9f}"]
                )
