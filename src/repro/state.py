"""Mutable per-run network state: all queues, batteries, and processes.

``NetworkState`` owns every stateful object of one simulation run —
data queues, link virtual queues, batteries with their shifted energy
queues, grid connections and renewable processes — and provides the
read accessors the controller needs plus the apply/advance methods the
simulator calls at the end of each slot.

The default state is *array-backed*: every hot per-slot quantity lives
in an :class:`~repro.core.arraystate.ArrayState` (``Q`` as an
``(N, S)`` array, ``G`` as ``(L,)``, battery levels as ``(N,)``) and
the per-slot updates run as vectorized kernels.  The dict-shaped read
accessors (``h_backlogs``, ``z_values``, ``battery_levels``) return
thin mapping adapters over the arrays, so external callers — the
relaxed-LP controller, drift diagnostics, contract checker — are
untouched.  :class:`ReferenceNetworkState` keeps the historical
dict-of-objects path for equivalence testing and benchmarking; both
paths consume identical RNG streams and produce bit-identical results.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.control.decisions import SlotDecision, SlotObservation
from repro.core.arraystate import ArrayState, LinkArrayMapping, NodeArrayMapping
from repro.core.lyapunov import LyapunovConstants
from repro.energy.battery import Battery, BatteryAction
from repro.energy.grid import GridConnection
from repro.energy.renewable import (
    DiurnalSolarProcess,
    MarkovWindProcess,
    RenewableProcess,
    UniformRenewableProcess,
    ZeroRenewableProcess,
)
from repro.model import NetworkModel
from repro.network.mobility import (
    MobilityModel,
    RandomWaypointMobility,
    StaticMobility,
)
from repro.phy.propagation import ComputedPairGains
from repro.queueing.backlog import (
    BacklogSnapshot,
    make_snapshot,
    make_snapshot_from_arrays,
)
from repro.queueing.data_queue import DataQueueBank
from repro.queueing.energy_queue import ShiftedEnergyQueue
from repro.queueing.virtual_queue import VirtualQueueBank
from repro.types import Link, MobilityKind, NodeId, RenewableKind, SessionId


def _build_renewable(
    kind: RenewableKind,
    max_power_w: float,
    slot_seconds: float,
    rng: np.random.Generator,
) -> RenewableProcess:
    """Instantiate the configured renewable process for one node."""
    if kind is RenewableKind.ZERO or max_power_w <= 0:
        return ZeroRenewableProcess()
    if kind is RenewableKind.UNIFORM:
        return UniformRenewableProcess(max_power_w, slot_seconds, rng)
    if kind is RenewableKind.SOLAR:
        return DiurnalSolarProcess(max_power_w, slot_seconds, rng)
    if kind is RenewableKind.WIND:
        return MarkovWindProcess(max_power_w, slot_seconds, rng)
    raise ValueError(f"unknown renewable kind {kind!r}")


class NetworkState:
    """All mutable state of one simulation run (array-backed)."""

    #: Subclasses set this to False to keep the dict-of-objects path.
    uses_arrays: bool = True

    def __init__(
        self,
        model: NetworkModel,
        constants: LyapunovConstants,
        rng: np.random.Generator,
    ) -> None:
        """Spawn component RNG streams and build all stateful objects.

        Cold path: runs once per simulation run.
        """
        self.model = model
        self.constants = constants
        params = model.params

        # One independent child generator per stochastic component
        # (bands, then per-node renewable and grid), in a fixed order.
        # Components that happen to draw nothing (e.g. the zero
        # renewable process of the no-renewable baselines) still own a
        # stream, so disabling one component never shifts the sample
        # path of any other — architecture comparisons stay paired.
        children = rng.spawn(1 + 2 * model.num_nodes)
        band_rng = children[0]
        renewable_rngs = children[1 : 1 + model.num_nodes]
        grid_rngs = children[1 + model.num_nodes :]
        model.spectrum.reseed(band_rng)

        # Dynamic spectrum availability (extension): spawned only when
        # enabled so static scenarios keep their sample paths.
        self.availability = None
        if params.spectrum.dynamic_availability:
            from repro.network.spectrum import MarkovBandAvailability

            self.availability = MarkovBandAvailability(
                users=model.user_ids,
                random_bands=range(1, model.spectrum.num_bands),
                rng=rng.spawn(1)[0],
                on_prob=params.spectrum.availability_on_prob,
                persistence=params.spectrum.availability_persistence,
            )

        # Mobility (extension): spawned only when enabled so static
        # scenarios keep their historical sample paths.
        initial_positions = model.topology.positions
        if params.mobility is MobilityKind.RANDOM_WAYPOINT:
            self.mobility: MobilityModel = RandomWaypointMobility(
                initial=initial_positions,
                mobile=list(model.user_ids),
                area_side_m=params.area_side_m,
                speed_range_mps=params.user_speed_range_mps,
                slot_seconds=params.slot_seconds,
                rng=rng.spawn(1)[0],
            )
        else:
            self.mobility = StaticMobility(initial_positions)

        self.arrays: Optional[ArrayState] = (
            ArrayState(model, constants) if type(self).uses_arrays else None
        )
        self.data_queues = self._build_data_queues()
        self.virtual_queues = self._build_virtual_queues()

        self.batteries: Dict[NodeId, Battery] = {}
        self.energy_queues: Dict[NodeId, ShiftedEnergyQueue] = {}
        self.grids: Dict[NodeId, GridConnection] = {}
        self.renewables: Dict[NodeId, RenewableProcess] = {}
        for node in model.nodes:
            energy = node.energy
            self.batteries[node.node_id] = Battery(
                capacity_j=energy.battery_capacity_j,
                charge_cap_j=energy.charge_cap_j,
                discharge_cap_j=energy.discharge_cap_j,
                charge_efficiency=energy.charge_efficiency,
                discharge_efficiency=energy.discharge_efficiency,
            )
            self.energy_queues[node.node_id] = ShiftedEnergyQueue(
                node=node.node_id,
                control_v=params.control_v,
                gamma_max=constants.gamma_max,
                discharge_cap_j=energy.discharge_cap_j,
            )
            self.grids[node.node_id] = GridConnection(
                draw_cap_j=energy.grid_cap_j,
                connect_prob=energy.grid_connect_prob,
                rng=grid_rngs[node.node_id],
            )
            if params.renewables_enabled:
                kind = (
                    params.bs_renewable_kind
                    if node.is_base_station
                    else params.user_renewable_kind
                )
            else:
                kind = RenewableKind.ZERO
            self.renewables[node.node_id] = _build_renewable(
                kind,
                energy.renewable_max_w,
                params.slot_seconds,
                renewable_rngs[node.node_id],
            )
        if self.arrays is not None:
            # Battery and shifted queue share one level slot per node
            # (the engine path always mirrors the battery level into
            # the queue), so the vectorized apply updates both at once.
            for node_id in range(model.num_nodes):
                self.batteries[node_id].bind_storage(
                    self.arrays.battery_level, node_id
                )
                self.energy_queues[node_id].bind_storage(
                    self.arrays.battery_level, node_id
                )
        self.reset_caches()

    # ------------------------------------------------------------------
    # Construction hooks
    # ------------------------------------------------------------------

    def _build_data_queues(self) -> DataQueueBank:
        """Build the data-queue bank (cold path, once per run)."""
        if self.arrays is None:
            from repro.queueing.reference import ReferenceDataQueueBank

            return ReferenceDataQueueBank(
                nodes=range(self.model.num_nodes),
                session_destinations=self.model.session_destinations(),
                semantics=self.model.params.queue_semantics,
            )
        return DataQueueBank(
            nodes=range(self.model.num_nodes),
            session_destinations=self.model.session_destinations(),
            semantics=self.model.params.queue_semantics,
            storage=self.arrays,
        )

    def _build_virtual_queues(self) -> VirtualQueueBank:
        """Build the virtual-queue bank (cold path, once per run)."""
        if self.arrays is None:
            from repro.queueing.reference import ReferenceVirtualQueueBank

            return ReferenceVirtualQueueBank(
                links=self.model.topology.candidate_links,
                beta=self.constants.beta,
            )
        return VirtualQueueBank(
            links=self.model.topology.candidate_links,
            beta=self.constants.beta,
            storage=self.arrays,
        )

    # ------------------------------------------------------------------
    # Observation sampling
    # ------------------------------------------------------------------

    def reset_caches(self) -> None:
        """Invalidate every derived per-slot cache.

        Call after rebinding ``mobility``, ``grids`` or ``renewables``
        on a live state (e.g. scripted-outage experiments) so a stale
        gain view or sampling plan can never leak across reconfigured
        runs.  Idempotent and cheap.
        """
        self._gains_cache_slot = -1
        self._gains_cache: Optional[ComputedPairGains] = None
        self._plan_token: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None
        self._renewable_draws: List[Tuple[NodeId, RenewableProcess]] = []
        self._grid_draws: List[Tuple[NodeId, GridConnection]] = []
        self._grid_static = np.zeros(0, dtype=bool)
        self._grid_caps = np.zeros(0)

    def _current_gains(self, slot: int) -> ComputedPairGains:
        """The slot's pair-gain view.

        The topology's view while users are static; under mobility a
        view over the slot's fresh positions array, so a view held from
        an earlier slot never changes.
        """
        if isinstance(self.mobility, StaticMobility):
            return self.model.topology.gains_lookup()
        if slot != self._gains_cache_slot:
            params = self.model.params
            self._gains_cache = ComputedPairGains(
                self.mobility.positions_at(slot),
                params.propagation_constant,
                params.path_loss_exponent,
            )
            self._gains_cache_slot = slot
        return self._gains_cache

    def _refresh_sampling_plan(self) -> None:
        """Re-classify renewable/grid components for batched sampling.

        Cold path: rebuilt only when the component bindings change
        (detected by object identity, so experiments that swap in e.g.
        a ``ScriptedGridConnection`` are picked up automatically).
        Components that never draw — zero renewables, grids pinned
        connected or disconnected — are precomputed as constants;
        everything else keeps its own per-slot ``sample`` call in node
        order, exactly as the per-dict path did.
        """
        token = (
            tuple(map(id, self.renewables.values())),
            tuple(map(id, self.grids.values())),
        )
        if token == self._plan_token:
            return
        renewable_draws: List[Tuple[NodeId, RenewableProcess]] = []
        for node, process in self.renewables.items():
            if type(process) is not ZeroRenewableProcess:
                renewable_draws.append((node, process))
        grid_static = np.zeros(self.model.num_nodes, dtype=bool)
        grid_draws: List[Tuple[NodeId, GridConnection]] = []
        for node, grid in self.grids.items():
            if type(grid) is GridConnection and grid.always_connected:
                grid_static[node] = True
            elif type(grid) is GridConnection and grid.connect_prob <= 0.0:
                grid_static[node] = False
            else:
                grid_draws.append((node, grid))
        self._renewable_draws = renewable_draws
        self._grid_draws = grid_draws
        self._grid_static = grid_static
        self._grid_caps = np.fromiter(
            (grid.draw_cap_j for grid in self.grids.values()),
            dtype=float,
            count=self.model.num_nodes,
        )
        self._plan_token = token

    def observe(self, slot: int) -> SlotObservation:
        """Sample the slot's random state (bands, renewables, grid).

        Sampling is idempotent per slot only for mobility (positions
        are cached); band/renewable/grid draws advance their streams,
        so the engine observes each slot exactly once.  The array path
        batches the draws into dense per-node arrays, skipping
        components that provably consume no randomness — the surviving
        ``sample`` calls hit the same per-component streams in the same
        order as the dict path, so sample paths stay byte-identical.
        """
        band_access = None
        if self.availability is not None:
            self.availability.advance_to(slot)
            band_access = self.availability.mask(
                self.model.spectrum.access_sets()
            )
        if self.arrays is None:
            return SlotObservation(
                slot=slot,
                bands=self.model.spectrum.sample(slot),
                renewable_j={
                    node: process.sample(slot)
                    for node, process in self.renewables.items()  # noqa: R006 - reference object path
                },
                grid_connected={
                    node: grid.sample_connected(slot)
                    for node, grid in self.grids.items()  # noqa: R006 - reference object path
                },
                gains=self._current_gains(slot),
                band_access=band_access,
            )
        self._refresh_sampling_plan()
        bands = self.model.spectrum.sample(slot)
        renewable = np.zeros(self.model.num_nodes)
        for node, process in self._renewable_draws:
            renewable[node] = process.sample(slot)
        connected = self._grid_static.copy()
        for node, grid in self._grid_draws:
            connected[node] = grid.sample_connected(slot)
        return SlotObservation(
            slot=slot,
            bands=bands,
            renewable_j=NodeArrayMapping(renewable),
            grid_connected=NodeArrayMapping(connected),
            gains=self._current_gains(slot),
            band_access=band_access,
        )

    # ------------------------------------------------------------------
    # Read accessors for the controller
    # ------------------------------------------------------------------

    def backlog(self, node: NodeId, session: SessionId) -> float:
        """``Q_i^s(t)``."""
        return self.data_queues.backlog(node, session)

    def h_backlogs(self) -> Mapping[Link, float]:
        """``H_ij(t)`` for every candidate link (frozen at read time)."""
        if self.arrays is None:
            return {
                link: self.virtual_queues.h(link)
                for link in self.model.topology.candidate_links  # noqa: R040 - reference dict path (arrays is None); the array path returns a LinkArrayMapping view below
            }
        return LinkArrayMapping(
            self.virtual_queues.h_array(), self.arrays.links, self.arrays.link_pos
        )

    def grid_caps_array(self) -> np.ndarray:
        """``(N,)`` grid draw caps, rebuilt when grid bindings change.

        Values are the same floats the per-node
        ``grids[node].draw_cap_j`` reads return; the batched controller
        uses this to assemble S4 inputs without a per-node loop.
        """
        self._refresh_sampling_plan()
        return self._grid_caps

    def z_values(self) -> Mapping[NodeId, float]:
        """``z_i(t)`` for every node (frozen at read time)."""
        if self.arrays is None:
            return {
                node: queue.z
                for node, queue in self.energy_queues.items()  # noqa: R006 - reference object path
            }
        return NodeArrayMapping(self.arrays.z_values_array())

    def battery_levels(self) -> Mapping[NodeId, float]:
        """``x_i(t)`` for every node (frozen at read time)."""
        if self.arrays is None:
            return {
                node: battery.level_j
                for node, battery in self.batteries.items()  # noqa: R006 - reference object path
            }
        return NodeArrayMapping(self.arrays.battery_level.copy())

    # ------------------------------------------------------------------
    # Slot advance
    # ------------------------------------------------------------------

    def apply(
        self,
        decision: SlotDecision,
        slot: int,
        enforce_complementarity: bool = True,
    ) -> BacklogSnapshot:
        """Apply one slot's decision to every queue and battery.

        Args:
            decision: the controller's output for this slot.
            slot: slot index (stamped on the snapshot).
            enforce_complementarity: when False — used by the relaxed
                LP bound, which drops constraint (9) — simultaneous
                charge and discharge are netted before hitting the
                battery, leaving the level trajectory identical.

        Returns:
            The post-update backlog snapshot for the metrics collector.
        """
        # Data queues (Eq. 15).
        rates: Mapping[Tuple[NodeId, NodeId, SessionId], float] = (
            decision.routing.rates
        )
        self.data_queues.step(rates, decision.admission.as_queue_arrivals())

        # Virtual queues (Eqs. 28/30): arrivals are routed packets,
        # service is the realised scheduled capacity.
        self.virtual_queues.step(
            arrivals_pkts=decision.routing.link_totals(),
            service_pkts=decision.schedule.link_service_pkts,
        )

        # Batteries and shifted energy queues (Eqs. 4 and 31).  The
        # allocation's discharge is *delivered* energy; the battery
        # drains 1/eta_d of it.
        if self.arrays is None:
            for node, allocation in decision.energy.allocations.items():  # noqa: R006 - reference object path
                battery = self.batteries[node]
                charge = allocation.charge_j
                drain = allocation.discharge_j / battery.discharge_efficiency
                if not enforce_complementarity:
                    net = charge - drain
                    charge = max(net, 0.0)
                    drain = max(-net, 0.0)
                action = BatteryAction(charge_j=charge, discharge_j=drain)
                level = battery.apply(action)
                self.energy_queues[node].observe_level(level)
            return make_snapshot(
                slot=slot,
                data_backlogs=self.data_queues.snapshot(),
                battery_levels=self.battery_levels(),
                virtual_backlogs=self.virtual_queues.snapshot(),
                bs_ids=self.model.bs_ids,
            )

        arrays = self.arrays
        charge_j, drain_j = self._build_battery_buffers(
            decision, enforce_complementarity
        )
        arrays.apply_battery_actions(charge_j, drain_j)

        return make_snapshot_from_arrays(slot=slot, arrays=arrays)

    def _build_battery_buffers(
        self, decision: SlotDecision, enforce_complementarity: bool
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Scatter the S4 allocations into ``(charge, drain)`` vectors.

        The battery half of the buffer-build/apply split the sharded
        loop relies on (see the queue banks' ``build_buffers``): the
        allocation dict is walked once in its global insertion order;
        the elementwise Eq. 4 update can then run per node-row subset.
        """
        arrays = self.arrays
        charge_j = np.zeros(arrays.num_nodes)
        drain_j = np.zeros(arrays.num_nodes)
        for node, allocation in decision.energy.allocations.items():  # noqa: R006 - decision-sized mapping feeding the vectorized kernel
            charge_j[node] = allocation.charge_j
            drain_j[node] = (
                allocation.discharge_j / self.batteries[node].discharge_efficiency
            )
        if not enforce_complementarity:
            net = charge_j - drain_j
            charge_j = np.maximum(net, 0.0)
            drain_j = np.maximum(-net, 0.0)
        return charge_j, drain_j


class ReferenceNetworkState(NetworkState):
    """The historical dict-of-objects state (no arrays).

    Identical RNG stream consumption and identical observable behaviour
    to :class:`NetworkState`; kept as the bit-exact baseline for the
    object-vs-array equivalence suite and the slot-loop benchmark.
    """

    uses_arrays = False
