"""In-memory span tracer installed around the library's layer entry points.

A traced run wraps the attribute each caller looks up — a module-level
function such as ``repro.control.scheduler.minimal_power_assignment_vec``
or a class method such as ``LinearProgram.solve`` — so every call
records a span ``[layer, start, end, parent]``.  Nothing under ``src/``
changes; an untraced run never calls :meth:`Tracer.install`.

A target that no longer exists (a later refactor deleted or renamed
it) is skipped with a warning: its layer then reports zero calls
instead of crashing the run.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

#: Hook run after a wrapped call while counting: (tracer, args, kwargs, result).
ResultHook = Callable[["Tracer", tuple, dict, object], None]

_MISSING = object()


class Target(NamedTuple):
    """One wrap point: ``layer`` spans around ``module.attr``."""

    layer: str
    module: str
    attr: str  # "func" or "Class.method"
    on_result: Optional[ResultHook] = None


def _count_fm_vec(tracer: "Tracer", args: tuple, kwargs: dict, result) -> None:
    link_tx = args[0] if args else kwargs["link_tx"]
    tracer.add("phy.power_control.vec.links_in", len(link_tx))
    tracer.add("phy.power_control.vec.links_dropped", len(result[2]))


def _count_fm_scalar(tracer: "Tracer", args: tuple, kwargs: dict, result) -> None:
    links = args[0] if args else kwargs["links"]
    tracer.add("phy.power_control.scalar.links_in", len(links))
    tracer.add("phy.power_control.scalar.links_dropped", len(result.dropped))


def _count_lp(tracer: "Tracer", args: tuple, kwargs: dict, result) -> None:
    lp = args[0]
    tracer.add("solvers.linprog.solve.variables", lp.num_variables)
    tracer.add("solvers.linprog.solve.constraints", lp.num_constraints)


def _count_schedule(tracer: "Tracer", args: tuple, kwargs: dict, result) -> None:
    # Read at return: the controller later appends curtailment drops to
    # the same decision object.
    tracer.add("control.scheduler.transmissions", len(result.transmissions))
    tracer.add("control.scheduler.dropped", len(result.dropped))


def _count_decide(tracer: "Tracer", args: tuple, kwargs: dict, result) -> None:
    tracer.add("control.controller.curtailed", len(result.curtailed))


def _count_check(tracer: "Tracer", args: tuple, kwargs: dict, result) -> None:
    tracer.add("contracts.checks", 1)


def _count_route(tracer: "Tracer", args: tuple, kwargs: dict, result) -> None:
    tracer.add("control.router.routes", len(result.rates))


#: Every layer boundary the benchmark times.  Functions are wrapped in
#: the namespace of the module that *calls* them, because that is where
#: the caller looks the name up.
TARGETS: Tuple[Target, ...] = (
    Target("repro.model.build_network_model", "repro.sim.engine", "build_network_model"),
    Target("core.lyapunov.compute_constants", "repro.sim.engine", "compute_constants"),
    Target("sim.engine.step", "repro.sim.engine", "SlotSimulator.step"),
    Target("state.observe", "repro.state", "NetworkState.observe"),
    Target(
        "network.mobility.positions_at",
        "repro.network.mobility",
        "RandomWaypointMobility.positions_at",
    ),
    Target(
        "phy.propagation.gain_matrix_for_positions",
        "repro.state",
        "gain_matrix_for_positions",
    ),
    Target(
        "control.controller.decide",
        "repro.control.controller",
        "DriftPlusPenaltyController.decide",
        _count_decide,
    ),
    Target(
        "control.scheduler.schedule",
        "repro.control.scheduler",
        "LinkScheduler.schedule",
        _count_schedule,
    ),
    Target(
        "phy.power_control.vec",
        "repro.control.scheduler",
        "minimal_power_assignment_vec",
        _count_fm_vec,
    ),
    Target(
        "phy.power_control.scalar",
        "repro.control.scheduler",
        "minimal_power_assignment",
        _count_fm_scalar,
    ),
    Target("solvers.sequential_fix", "repro.control.scheduler", "sequential_fix"),
    Target("solvers.linprog.solve", "repro.solvers.linprog", "LinearProgram.solve", _count_lp),
    Target("solvers.linprog.highs", "repro.solvers.linprog", "linprog"),
    Target("core.bounds.decide", "repro.core.bounds", "RelaxedLpController.decide"),
    Target("control.admission.allocate", "repro.control.admission", "ResourceAllocator.allocate"),
    Target(
        "control.router.route",
        "repro.control.router",
        "BackpressureRouter.route",
        _count_route,
    ),
    Target(
        "control.energy_manager.manage",
        "repro.control.energy_manager",
        "EnergyManager.manage",
    ),
    Target("state.apply", "repro.state", "NetworkState.apply"),
    Target("sim.metrics.record", "repro.sim.metrics", "MetricsCollector.record"),
)

#: The contract checker's entry points are discovered at install time
#: (``capture`` and every public ``check_*``) so renamed or added
#: per-phase checks stay covered.
CONTRACTS_LAYER = "contracts"
CONTRACTS_MODULE = "repro.contracts.checker"
CONTRACTS_CLASS = "ContractChecker"


def _resolve(module: str, attr: str) -> Tuple[object, str]:
    """The object owning ``attr`` and the final attribute name."""
    owner: object = importlib.import_module(module)
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    if not hasattr(owner, parts[-1]):
        raise AttributeError(f"{module}.{attr}")
    return owner, parts[-1]


class Tracer:
    """Collects spans and counters from wrapped layer entry points."""

    def __init__(self, targets: Sequence[Target] = TARGETS) -> None:
        self.targets = tuple(targets)
        #: ``[layer, start, end, parent index or -1]`` per call.
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.warnings: List[str] = []
        self.missing: List[str] = []
        #: Counters and call counts accumulate only while True.
        self.counting = False
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def _skip(self, layer: str, what: str) -> None:
        self.warnings.append(f"trace target {what}; layer {layer} reports zero calls")
        self.missing.append(layer)

    def _contract_targets(self) -> List[Target]:
        try:
            module, name = _resolve(CONTRACTS_MODULE, CONTRACTS_CLASS)
        except (ImportError, AttributeError):
            self._skip(CONTRACTS_LAYER, f"{CONTRACTS_MODULE}.{CONTRACTS_CLASS} not found")
            return []
        return [
            Target(
                CONTRACTS_LAYER,
                CONTRACTS_MODULE,
                f"{CONTRACTS_CLASS}.{attr}",
                _count_check if attr.startswith("check_") else None,
            )
            for attr, value in sorted(vars(getattr(module, name)).items())
            if callable(value) and (attr == "capture" or attr.startswith("check_"))
        ]

    def _wrap(self, target: Target) -> None:
        try:
            owner, name = _resolve(target.module, target.attr)
        except (ImportError, AttributeError):
            self._skip(target.layer, f"{target.module}.{target.attr} not found")
            return
        raw = vars(owner).get(name, _MISSING)
        if isinstance(raw, (staticmethod, classmethod, property)):
            self._skip(target.layer, f"{target.module}.{target.attr} is not a plain function")
            return
        original = getattr(owner, name)
        spans, stack, layer, hook = self.spans, self._stack, target.layer, target.on_result

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([layer, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if self.counting:
                self.calls[layer] += 1
                if hook is not None:
                    hook(self, args, kwargs, result)
            return result

        setattr(owner, name, wrapper)
        self._undo.append((owner, name, raw))

    def install(self) -> "Tracer":
        """Wrap every target; missing ones become zero-call layers."""
        for target in (*self.targets, *self._contract_targets()):
            self._wrap(target)
        return self

    def uninstall(self) -> None:
        """Restore every wrapped attribute exactly as it was."""
        while self._undo:
            owner, name, raw = self._undo.pop()
            if raw is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, raw)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- counters ------------------------------------------------------------

    def add(self, key: str, amount: float) -> None:
        """Add to a counter (hooks run only while counting)."""
        self.counters[key] += amount

    # -- aggregation ---------------------------------------------------------

    @staticmethod
    def _inside(windows: Sequence[Tuple[float, float]]) -> Callable[[float], bool]:
        """Membership test of a time in a sorted list of disjoint windows."""
        starts = [w[0] for w in windows]

        def inside(t: float) -> bool:
            i = bisect.bisect_right(starts, t) - 1
            return i >= 0 and t < windows[i][1]

        return inside

    def layer_times(
        self, windows: Sequence[Tuple[float, float]]
    ) -> Dict[str, Dict[str, float]]:
        """``{layer: {"busy", "self", "spans"}}`` over spans starting in ``windows``.

        A layer's busy time counts only its outermost spans (a span
        nested inside another span of the same layer is not counted
        twice); self time is a span's duration minus its children's.
        """
        inside = self._inside(windows)
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            parent = span[3]
            if parent >= 0:
                child_time[parent] += span[2] - span[1]
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"busy": 0.0, "self": 0.0, "spans": 0}
        )
        for index, (layer, t0, t1, parent) in enumerate(spans):
            if not inside(t0):
                continue
            entry = out[layer]
            entry["self"] += (t1 - t0) - child_time[index]
            entry["spans"] += 1
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != layer:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                entry["busy"] += t1 - t0
        return out

    def busy_under(
        self, layer: str, child_layer: str, windows: Sequence[Tuple[float, float]]
    ) -> float:
        """Busy time of ``layer`` spans that contain a ``child_layer`` span."""
        inside = self._inside(windows)
        spans = self.spans
        hit = set()
        for span in spans:
            if span[0] != child_layer or not inside(span[1]):
                continue
            ancestor = span[3]
            while ancestor >= 0:
                if spans[ancestor][0] == layer:
                    hit.add(ancestor)
                ancestor = spans[ancestor][3]
        return sum(spans[i][2] - spans[i][1] for i in hit)

    def write(self, path: Path) -> None:
        """Write the spans out (one JSON document) at the end of a run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"fields": ["layer", "start", "end", "parent"], "spans": self.spans}
        path.write_text(json.dumps(payload, separators=(",", ":")))
