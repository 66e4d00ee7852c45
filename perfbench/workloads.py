"""The benchmark's workloads and their closed-loop timing.

Every workload is a closed batch: one process runs ops back to back,
each starting after the previous one has been applied.  An op is one
slot (slot workloads; warm-up slots are checked and counted too, but
not timed) or one sweep cell (``fig2a-paper``).  ``--seconds`` sets how
much work a run does, as a whole number of scenario instances or sweeps
sized so that a run measures about that long on a 2-CPU host.  The work
of a run is then a function of its seed alone: a faster program does
the same work sooner, and two runs of one seed time the same slots.

An untraced run executes every scenario instance (and every batch of
``fig2a-paper`` set-up builds) in its own short-lived process, so one
run averages over several processes.  Every timed op runs between two
runs of a fixed calibration kernel, and reported times are scaled to
the kernel's reference time (see :func:`calibrate` and README.md).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

import numpy as np

from repro.config import paper_scenario
from repro.config.parameters import ScenarioParameters
from repro.experiments import executor as executor_module
from repro.experiments.executor import SweepExecutionError, SweepSpec, run_sweep
from repro.experiments.runner import bounds_from_results
from repro.network.geometry import grid_placement
from repro.sim.engine import SlotSimulator
from repro.types import MobilityKind, Point, SchedulerKind

#: One base station per six users, on a grid over an area grown at the
#: paper's density (side ``2000 * sqrt(U / 20)`` m).  This pins the
#: geometry of ``benchmarks/bench_scale.scale_scenario`` in the
#: benchmark's own files, so editing that script cannot move this
#: benchmark; unlike it, renewables stay on (see README.md).
USERS_PER_BS = 6

#: Slot horizon handed to the scenario; the loops below stop on time,
#: so it only has to exceed any run's slot count.
HORIZON = 100_000

#: Seed of the pinned user placement of the warm slot workloads.
PLACEMENT_SEED = 2014

#: Wall time of :func:`calibrate` on the reference host (2-CPU VM, one
#: BLAS thread, a typical period; 18 ms in the calmest periods seen).
#: An op's time is scaled by this over the mean of the calibrations
#: around it: seconds at reference speed.
CALIBRATION_REFERENCE_S = 0.021

#: The harness entry point an isolated instance runs in.
RUN_PY = Path(__file__).resolve().parent / "run.py"

#: Longest an isolated instance may take before it counts as failed.
INSTANCE_TIMEOUT_S = 170.0

T = TypeVar("T")


def calibrate() -> float:
    """Wall time of a fixed kernel that mixes the slot loop's kinds of work.

    Interpreter-bound dict updates, small dense solves and a large
    gather, all from a fixed seed and independent of the library.  The
    host's speed moves by up to 1.8x within seconds (other tenants on
    the physical cores), and it moves this kernel's time in step with a
    slot's: timed right before and right after each op, it turns the
    op's wall time into seconds at the reference speed.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    table: Dict[int, int] = {}
    for i in range(30_000):
        key = (i * 7919) % 10_007
        table[key] = table.get(key, 0) + i
    a = rng.random((60, 60)) + 60.0 * np.eye(60)
    b = rng.random(60)
    for _ in range(300):
        np.linalg.solve(a, b)
    x = rng.random(200_000)
    index = rng.integers(0, 200_000, 200_000)
    for _ in range(10):
        x[index].sum()
    return time.perf_counter() - start


def _reference(raw: List[float], brackets: List[Tuple[float, float]]) -> List[float]:
    """Reference seconds of ops, each timed between two calibrations.

    ``brackets[i]`` holds the calibrations right before and right after
    op ``i``: their mean is the host's speed while it ran.
    """
    return [
        seconds * 2.0 * CALIBRATION_REFERENCE_S / (before + after)
        for seconds, (before, after) in zip(raw, brackets)
    ]


def _timed_builds(build: Callable[[], T], count: int, out: "Outcome") -> T:
    """Build ``count`` times between calibrations; keep the last build."""
    built = None
    raw: List[float] = []
    brackets: List[Tuple[float, float]] = []
    before = calibrate()
    for _ in range(count):
        built = None  # free the previous build before timing the next
        start = time.perf_counter()
        built = build()
        raw.append(time.perf_counter() - start)
        after = calibrate()
        brackets.append((before, after))
        before = after
    out.raw_setup_s.extend(raw)
    out.setup_s.extend(_reference(raw, brackets))
    return built


def scale_scenario(
    num_users: int, seed: int, placement_seed: Optional[int] = None, **overrides: object
) -> ScenarioParameters:
    """The Section-VI scenario grown at constant density, renewables on.

    With ``placement_seed`` the users sit at a uniform placement drawn
    from that seed alone, and ``seed`` drives everything else.
    """
    side = 2000.0 * math.sqrt(num_users / 20.0)
    stations = tuple(
        Point(p.x, p.y)
        for p in grid_placement(max(2, num_users // USERS_PER_BS), side)
    )
    if placement_seed is not None:
        xy = np.random.default_rng(placement_seed).uniform(0.0, side, size=(num_users, 2))
        overrides["user_positions"] = tuple(Point(float(x), float(y)) for x, y in xy)
    return paper_scenario(
        num_slots=HORIZON,
        seed=seed,
        num_users=num_users,
        area_side_m=side,
        base_station_positions=stations,
        topology_mode="sparse",
        **overrides,
    )


@dataclass
class Outcome:
    """What one pass of a workload, or one isolated part of it, measured."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Build times, in reference seconds and as measured.
    setup_s: List[float] = field(default_factory=list)
    raw_setup_s: List[float] = field(default_factory=list)
    #: Per-slot time of every successful timed op, in reference seconds
    #: and as measured.
    slot_s: List[float] = field(default_factory=list)
    raw_slot_s: List[float] = field(default_factory=list)
    #: Slots completed per reference second of timed wall time.
    slots_per_s: float = 0.0
    #: Slots the timed ops covered (the per-layer normaliser).
    timed_slots: int = 0
    #: ``(start, end)`` of every timed op: spans inside them are the
    #: per-layer sample.
    windows: List[Tuple[float, float]] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    #: Summed reference time of the count window's ops (identical work in
    #: every pass of a run, so passes compare like for like).
    count_window_s: float = 0.0
    digest: Dict[str, float] = field(default_factory=dict)
    sanity: Dict[str, bool] = field(default_factory=dict)
    #: Sweep bookkeeping from ``SweepResult`` (``fig2a-paper`` only).
    sweep: Dict[str, float] = field(default_factory=dict)
    #: Isolated processes the pass ran.
    processes: int = 0

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.failures) < 20:
            self.failures.append(message)

    def merge(self, part: "Outcome", first: bool) -> None:
        """Fold in one part; the first part holds the count window."""
        self.attempted += part.attempted
        self.failed += part.failed
        self.failures.extend(part.failures[: max(0, 20 - len(self.failures))])
        for name in ("setup_s", "raw_setup_s", "slot_s", "raw_slot_s", "windows"):
            getattr(self, name).extend(getattr(part, name))
        self.processes += part.processes
        for name, ok in part.sanity.items():
            self.sanity[name] = self.sanity.get(name, True) and ok
        if first:
            self.counts = part.counts
            self.digest = part.digest
            self.count_window_s = part.count_window_s


def _state_finite(sim: SlotSimulator) -> bool:
    arrays = sim.state.arrays
    return bool(
        np.isfinite(arrays.q).all()
        and np.isfinite(arrays.g).all()
        and np.isfinite(arrays.z_values_array()).all()
        and np.isfinite(arrays.battery_level).all()
    )


def _step(sim: SlotSimulator, slot: int, out: Outcome):
    """One checked slot: ``(decision or None if it failed, seconds, window)``."""
    out.attempted += 1
    violations = sim.contracts.violation_count
    start = time.perf_counter()
    try:
        decision = sim.step(slot)
    except Exception as exc:  # a failed op is counted, the run goes on
        end = time.perf_counter()
        out.fail(f"slot {slot}: {type(exc).__name__}: {exc}")
        traceback.print_exc()
        return None, end - start, (start, end)
    end = time.perf_counter()
    if sim.contracts.violation_count != violations:
        out.fail(f"slot {slot}: contract violation")
        decision = None
    elif not _state_finite(sim):
        out.fail(f"slot {slot}: non-finite Q, G/H, z or battery after apply")
        decision = None
    return decision, end - start, (start, end)


def _count(counts: Dict[str, int], decision) -> None:
    curtailed = len(decision.curtailed)
    counts["transmissions"] = counts.get("transmissions", 0) + len(
        decision.schedule.transmissions
    )
    counts["fm_dropped"] = counts.get("fm_dropped", 0) + (
        len(decision.schedule.dropped) - curtailed
    )
    counts["curtailed"] = counts.get("curtailed", 0) + curtailed
    counts["routes"] = counts.get("routes", 0) + len(decision.routing.rates)


def _slot_digest(sim: SlotSimulator, counts: Dict[str, int]) -> Dict[str, float]:
    return {
        "average_cost": sim.metrics.average_cost(),
        "delivered_pkts": sim.metrics.totals()["delivered_pkts"],
        "transmissions": counts.get("transmissions", 0),
        "fm_dropped": counts.get("fm_dropped", 0),
    }


def instance_seed(seed: int, instance: int) -> int:
    """Seed of a run's ``instance``-th scenario (the run seed for the first)."""
    if instance == 0:
        return seed
    return int(np.random.SeedSequence([seed, instance]).generate_state(1)[0])


# -- isolated parts ------------------------------------------------------------


def workload_spec(workload) -> Dict[str, object]:
    """JSON form of a workload, rebuilt in a child by :func:`run_part`."""
    fields = {f.name: getattr(workload, f.name) for f in dataclasses.fields(workload)}
    if "scheduler" in fields:
        fields["scheduler"] = fields["scheduler"].name
    return {"class": type(workload).__name__, "fields": fields}


def run_part(spec: Dict[str, object]) -> Outcome:
    """Run one isolated part in this process (the child side)."""
    workload_json = spec["workload"]
    fields = dict(workload_json["fields"])
    if workload_json["class"] == "SlotWorkload":
        fields["scheduler"] = SchedulerKind[fields["scheduler"]]
        return SlotWorkload(**fields).run_instance(spec["seed"], spec["instance"])
    fields["v_values"] = tuple(fields["v_values"])
    return SweepWorkload(**fields).run_setup(spec["seed"])


def run_isolated(spec: Dict[str, object], ops: int) -> Outcome:
    """Run one part in a fresh process (``run.py --part``) and collect it.

    A child that crashes, times out or prints no result fails its
    ``ops`` ops (at least one).
    """
    command = [sys.executable, str(RUN_PY), "--part", json.dumps(spec)]
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=INSTANCE_TIMEOUT_S
        )
        lines = [line for line in done.stdout.splitlines() if line.startswith("part ")]
        problem = None if done.returncode == 0 and lines else f"exit code {done.returncode}"
    except subprocess.TimeoutExpired:
        problem = f"no result within {INSTANCE_TIMEOUT_S:g} s"
    if problem is not None:
        out = Outcome(attempted=max(1, ops), processes=1)
        out.fail(f"isolated {spec['part']} {spec.get('instance', '')}: {problem}", ops=max(1, ops))
        return out
    out = Outcome(**json.loads(lines[-1][len("part "):]))
    out.windows = [tuple(window) for window in out.windows]
    out.processes = 1
    return out


@dataclass(frozen=True)
class SlotWorkload:
    """A closed loop of slots at one user count.

    A run times a sequence of scenario instances: the first uses the
    run seed, the next ones seeds derived from it.  Each instance is
    built, warmed up for ``warmup_slots`` untimed slots, then timed for
    ``timed_slots`` slots.  One scenario's slot cost drifts with its
    queue trajectory, so pooling several instances is what keeps a
    run's median steady across seeds.  The first instance's timed slots
    are the count window: its work counts and digest are deterministic.
    """

    name: str
    users: int
    scheduler: SchedulerKind
    #: Untimed slots per instance, so the queues have loaded.
    warmup_slots: int
    #: Timed slots per instance.
    timed_slots: int
    #: Builds of the first instance; ``setup_s`` is the median build.
    setup_builds: int
    #: Wall time of one isolated instance (process start included) on a
    #: 2-CPU host: a run does ``round(seconds / instance_seconds)``
    #: instances, at least one.
    instance_seconds: float
    contracts: Optional[str] = None
    mobile: bool = False
    #: Users at the pinned placement (seed-independent) or at a placement
    #: drawn from each instance seed.
    pinned_placement: bool = True

    def params(self, seed: int) -> ScenarioParameters:
        overrides = {"mobility": MobilityKind.RANDOM_WAYPOINT} if self.mobile else {}
        placement = PLACEMENT_SEED if self.pinned_placement else None
        return scale_scenario(self.users, seed, placement, **overrides)

    def build(self, params: ScenarioParameters) -> SlotSimulator:
        return SlotSimulator.integral(
            params, scheduler_kind=self.scheduler, contracts=self.contracts
        )

    def run_instance(self, seed: int, instance: int, tracer=None) -> Outcome:
        """Build, warm up and time one scenario instance in this process.

        Every timed slot (and build) sits between two runs of the
        calibration kernel, outside its window.
        """
        out = Outcome()
        params = self.params(instance_seed(seed, instance))
        builds = self.setup_builds if instance == 0 else 1
        sim = _timed_builds(lambda: self.build(params), builds, out)
        for slot in range(self.warmup_slots):
            _step(sim, slot, out)
        if tracer is not None:
            tracer.counting = instance == 0
        counts: Dict[str, int] = {}
        raw: List[float] = []
        brackets: List[Tuple[float, float]] = []
        before = calibrate()
        for slot in range(self.warmup_slots, self.warmup_slots + self.timed_slots):
            decision, elapsed, window = _step(sim, slot, out)
            after = calibrate()
            out.windows.append(window)
            if decision is not None:
                raw.append(elapsed)
                brackets.append((before, after))
                _count(counts, decision)
            before = after
        if tracer is not None:
            tracer.counting = False
        out.raw_slot_s = raw
        out.slot_s = _reference(raw, brackets)
        out.count_window_s = sum(out.slot_s)
        out.counts = counts
        out.digest = _slot_digest(sim, counts)
        return out

    def run(self, seed: int, seconds: float, tracer=None) -> Outcome:
        """One pass: the instances ``seconds`` asks for, back to back.

        Untraced, each instance runs in its own process; traced, all of
        them run here, inside the tracer.
        """
        out = Outcome()
        ops = self.warmup_slots + self.timed_slots
        for instance in range(max(1, round(seconds / self.instance_seconds))):
            if tracer is None:
                spec = {
                    "workload": workload_spec(self),
                    "part": "instance",
                    "seed": seed,
                    "instance": instance,
                }
                part = run_isolated(spec, ops)
            else:
                part = self.run_instance(seed, instance, tracer)
            out.merge(part, first=instance == 0)
        out.timed_slots = len(out.windows)
        out.slots_per_s = len(out.slot_s) / max(sum(out.slot_s), 1e-12)
        out.sanity["transmissions>0"] = out.counts.get("transmissions", 0) > 0
        return out


def available_cpus() -> int:
    """CPUs this process may run on (the pool size of ``fig2a-paper``)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


class CellWall(float):
    """A sweep cell's measured wall time, carrying its calibration scale."""

    scale: float


@contextlib.contextmanager
def calibrated_cells() -> Iterator[None]:
    """Bracket every sweep cell with the calibration kernel, where it runs.

    For the duration, the executor's cell entry point is replaced by one
    that runs the kernel right before and right after the original.  Pool
    workers fork from this process and inherit it, so the calibrations
    run in the worker, on the CPU and at the moment of the cell.  The
    cell's own timer and result are untouched: its wall time comes back
    as a :class:`CellWall` equal to the measured seconds.  The kernel
    runs outside that timer but inside the sweep's wall time (about 2%).
    """
    original = executor_module._execute_job

    @functools.wraps(original)
    def cell(job, fault=None):
        before = calibrate()
        key, result, wall = original(job, fault)
        carried = CellWall(wall)
        carried.scale = _reference([1.0], [(before, calibrate())])[0]
        return key, result, carried

    executor_module._execute_job = cell
    try:
        yield
    finally:
        executor_module._execute_job = original


@dataclass(frozen=True)
class SweepWorkload:
    """The Fig. 2(a) V-sweep: SF integral cells plus relaxed-LP cells."""

    name: str
    v_values: Tuple[float, ...]
    num_slots: int
    #: Isolated processes that time set-up, and builds in each.
    setup_processes: int
    setup_builds: int
    #: Wall time of one sweep on a 2-CPU host: a run does
    #: ``round(seconds / sweep_seconds)`` sweeps, at least one.
    sweep_seconds: float

    def base(self, seed: int) -> ScenarioParameters:
        return paper_scenario(num_slots=self.num_slots, seed=seed)

    def run_setup(self, seed: int) -> Outcome:
        """Time building one integral and one relaxed simulator, repeatedly."""
        out = Outcome()
        base = self.base(seed)
        _timed_builds(
            lambda: (SlotSimulator.integral(base), SlotSimulator.relaxed(base)),
            self.setup_builds,
            out,
        )
        return out

    def run(self, seed: int, seconds: float, tracer=None) -> Outcome:
        """Sweeps back to back on the process pool; serially when traced.

        Untraced, set-up is timed first in ``setup_processes`` isolated
        processes.  A traced sweep runs its cells in this process so the
        spans of every cell land in one tracer (the untraced pass of the
        same run keeps the pool and set-up figures).  Each cell is scaled
        by the calibrations around it (:func:`calibrated_cells`), and the
        sweep's wall time by the cells' busy-time-weighted scale.
        """
        out = Outcome()
        if tracer is None:
            spec = {"workload": workload_spec(self), "part": "setup", "seed": seed}
            for _ in range(self.setup_processes):
                out.merge(run_isolated(spec, ops=1), first=False)
        spec = SweepSpec.bounds(self.base(seed), self.v_values)
        cells = len(spec.jobs())
        workers = 1 if tracer is not None else min(cells, available_cpus())
        backend = "serial" if tracer is not None else "process-pool"
        sweeps = 0
        wall_total = 0.0
        if tracer is not None:
            tracer.counting = True
        for _ in range(max(1, round(seconds / self.sweep_seconds))):
            out.attempted += cells
            before = calibrate()
            sweep_start = time.perf_counter()
            try:
                with calibrated_cells():
                    sweep = run_sweep(spec, max_workers=workers, backend=backend)
            except SweepExecutionError as exc:
                out.fail(f"sweep: {exc}", ops=cells)
                break
            sweep_end = time.perf_counter()
            # Cells from a worker that did not inherit the hook fall back
            # to this process's calibrations around the whole sweep.
            fallback = _reference([1.0], [(before, calibrate())])[0]
            walls = list(sweep.wall_s.values())
            busy = sum(walls)
            reference_busy = sum(w * getattr(w, "scale", fallback) for w in walls)
            scale = reference_busy / busy if busy > 0 else fallback
            out.windows.append((sweep_start, sweep_end))
            wall_total += (sweep_end - sweep_start) * scale
            sweeps += 1
            if tracer is not None:
                tracer.counting = False
            self._check_sweep(sweep, out, first=sweeps == 1)
            if sweeps == 1:
                out.count_window_s = reference_busy
            # Every cell's time counts: all cell walls over all cell slots.
            out.raw_slot_s.append(busy / (cells * self.num_slots))
            out.slot_s.append(reference_busy / (cells * self.num_slots))
            out.sweep = {
                "sweep_s": wall_total / sweeps,
                "workers": workers,
                "cell_busy_s": busy,
                "pool_idle_s": max(0.0, workers * sweep.elapsed_s - busy),
                "retries": sweep.total_retries,
                "cells": cells,
                "calibrated_cells": sum(hasattr(w, "scale") for w in walls),
            }
        out.timed_slots = sweeps * cells * self.num_slots
        out.slots_per_s = out.timed_slots / max(wall_total, 1e-12)
        return out

    def _check_sweep(self, sweep, out: Outcome, first: bool) -> None:
        ordered = True
        counts: Dict[str, int] = {"cells": len(sweep.results)}
        digest: Dict[str, float] = {}
        for v in sweep.spec.v_values:
            integral = sweep.result("integral", v)
            relaxed = sweep.result("relaxed", v)
            report = bounds_from_results(integral, relaxed, v)
            upper, lower = report.upper, report.relaxed_penalty
            if not (math.isfinite(upper) and math.isfinite(lower)):
                out.fail(f"V={v:g}: non-finite bound", ops=2)
                continue
            if upper < lower:
                ordered = False
                out.fail(f"V={v:g}: upper {upper!r} < empirical_lower {lower!r}", ops=2)
            digest[f"upper@V={v:.0f}"] = upper
            digest[f"empirical_lower@V={v:.0f}"] = lower
            # The relaxed LP schedules fractional rates, not transmissions.
            series = integral.metrics.series
            counts["transmissions"] = counts.get("transmissions", 0) + int(
                series("scheduled_links").sum()
            )
            counts["curtailed"] = counts.get("curtailed", 0) + int(
                series("curtailed_links").sum()
            )
        out.sanity["upper>=empirical_lower"] = out.sanity.get(
            "upper>=empirical_lower", True
        ) and ordered
        if first:
            out.counts = counts
            out.digest = digest


#: Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    wl.name: wl
    for wl in (
        SweepWorkload(
            name="fig2a-paper",
            v_values=tuple(k * 1e5 for k in range(1, 11)),
            num_slots=100,
            setup_processes=2,
            setup_builds=10,
            sweep_seconds=25.0,
        ),
        SlotWorkload(
            name="sf-u100",
            users=100,
            scheduler=SchedulerKind.SEQUENTIAL_FIX,
            warmup_slots=5,
            timed_slots=12,
            setup_builds=15,
            instance_seconds=5.8,
        ),
        SlotWorkload(
            name="greedy-u1k",
            users=1_000,
            scheduler=SchedulerKind.GREEDY,
            warmup_slots=8,
            timed_slots=10,
            setup_builds=3,
            instance_seconds=7.5,
            contracts="strict",
        ),
        SlotWorkload(
            name="mobile-u1k",
            users=1_000,
            scheduler=SchedulerKind.GREEDY,
            warmup_slots=8,
            timed_slots=20,
            setup_builds=3,
            instance_seconds=8.0,
            mobile=True,
        ),
        SlotWorkload(
            name="cold-u30k",
            users=30_000,
            scheduler=SchedulerKind.GREEDY,
            warmup_slots=0,
            timed_slots=4,
            setup_builds=1,
            instance_seconds=8.0,
            pinned_placement=False,
        ),
    )
}
