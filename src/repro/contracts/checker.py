"""Per-slot validation of the paper's invariants (Eqs. 9-31).

:class:`ContractChecker` is deliberately an *independent* re-derivation
of the laws the simulator implements: the data-queue law (Eq. 15), the
virtual-queue laws (Eqs. 28, 30), the shifted-energy-queue law
(Eq. 31) and the battery dynamics (Eqs. 4, 9-13) are recomputed here
from the slot's decision and the pre-apply state, then compared to
what the simulator actually produced.  A refactor that changes either
side surfaces as a :class:`ContractViolation` instead of a silently
wrong cost curve.

The checker is wired into four layers:

* the engine validates the full state transition after ``apply``;
* the controller validates the final (post-curtailment) decision and
  the demand-coverage balance (Eq. 2);
* each subproblem module (S1-S4) validates its own raw output —
  scheduling feasibility (Eqs. 20-22, 24), admission (Eq. 19),
  routing flow rules (Eqs. 16-17), energy allocation (Eqs. 3, 9-14).

At strictness ``off`` every entry point returns after a single
attribute test, so the hot loop pays no measurable overhead.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    MutableMapping,
    Optional,
    Tuple,
    Union,
)

from repro.constants import FEASIBILITY_EPS
from repro.core.arraystate import LinkArrayMapping, NodeArrayMapping
from repro.contracts.violations import ContractViolation
from repro.phy.sinr import sinr_of_transmission
from repro.types import Link, NodeId, QueueSemantics, SessionId, Transmission

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.control.decisions import (
        AdmissionDecision,
        EnergyManagementDecision,
        RoutingDecision,
        ScheduleDecision,
        SlotDecision,
        SlotObservation,
    )
    from repro.control.energy_manager import NodeEnergyInputs
    from repro.model import NetworkModel
    from repro.state import NetworkState

logger = logging.getLogger("repro.contracts")

#: Absolute tolerance for energy comparisons (joules).
ENERGY_ATOL = 1e-6
#: Absolute tolerance for queue-backlog comparisons (packets).
QUEUE_ATOL = 1e-6
#: Relative slack granted to SINR feasibility checks.
SINR_RTOL = 1e-7


def _close(a: float, b: float, abs_tol: float) -> bool:
    """Tolerant equality with a relative component for large values.

    The relative tolerance is sized for the loosest solver in the
    pipeline (SLSQP meets its equality constraints to ~1e-8 relative);
    genuine contract violations are orders of magnitude larger.
    """
    return math.isclose(a, b, rel_tol=1e-6, abs_tol=abs_tol)


class Strictness(enum.Enum):
    """How the checker reacts to a violated contract."""

    OFF = "off"
    WARN = "warn"
    STRICT = "strict"


def coerce_strictness(
    value: Union["Strictness", str, None],
) -> "Strictness":
    """Accept a :class:`Strictness`, its string value, or ``None``."""
    if value is None:
        return Strictness.OFF
    if isinstance(value, Strictness):
        return value
    return Strictness(value)


@dataclass(frozen=True)
class PreApplySnapshot:
    """State captured immediately before ``NetworkState.apply``.

    The array-backed state captures mapping adapters over *copies* of
    its arrays (see docs/contracts.md); the reference object path
    captures plain dicts.  Both satisfy the mapping protocols below.
    """

    data_backlogs: MutableMapping[Tuple[NodeId, SessionId], float]
    g_backlogs: Mapping[Link, float]
    battery_levels: Mapping[NodeId, float]


class ContractChecker:
    """Validates the paper's per-slot invariants at a strictness level.

    Args:
        strictness: ``off`` disables all checks, ``warn`` logs the
            first occurrence of each violated contract, ``strict``
            raises :class:`ContractViolation` immediately.
    """

    def __init__(
        self, strictness: Union[Strictness, str, None] = Strictness.STRICT
    ) -> None:
        self.strictness = coerce_strictness(strictness)
        #: Total violations observed (warn mode keeps counting even
        #: after the once-per-contract log line).
        self.violation_count = 0
        #: The violations observed in warn mode, in order.
        self.violations: List[ContractViolation] = []
        self._warned_equations: set = set()

    @property
    def enabled(self) -> bool:
        """False at strictness ``off`` — every check short-circuits."""
        return self.strictness is not Strictness.OFF

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def _report(self, violation: ContractViolation) -> None:
        self.violation_count += 1
        if self.strictness is Strictness.STRICT:
            raise violation
        self.violations.append(violation)
        if violation.equation not in self._warned_equations:
            self._warned_equations.add(violation.equation)
            logger.warning("contract violated: %s", violation)

    def _violate(
        self,
        equation: str,
        detail: str,
        slot: Optional[int] = None,
        node: Optional[NodeId] = None,
        link: Optional[Link] = None,
    ) -> None:
        self._report(
            ContractViolation(equation, detail, slot=slot, node=node, link=link)
        )

    # ------------------------------------------------------------------
    # S1: scheduling feasibility (Eqs. 20-22, 24)
    # ------------------------------------------------------------------

    def check_schedule(
        self,
        model: "NetworkModel",
        observation: "SlotObservation",
        schedule: "ScheduleDecision",
        slot: Optional[int] = None,
    ) -> None:
        """Radio feasibility (Eqs. 20-22) and SINR (Eq. 24) of S1."""
        if not self.enabled:
            return
        self._check_radio_feasibility(model, schedule.transmissions, slot)
        self._check_sinr_feasibility(model, observation, schedule, slot)

    def _check_radio_feasibility(
        self,
        model: "NetworkModel",
        transmissions: Iterable[Transmission],
        slot: Optional[int],
    ) -> None:
        usage: Dict[NodeId, int] = {}
        band_usage: Dict[Tuple[NodeId, int], int] = {}
        for t in transmissions:
            if t.tx == t.rx:
                self._violate(
                    "Eq. 22",
                    f"self-loop transmission on band {t.band}",
                    slot=slot,
                    node=t.tx,
                )
            for node in (t.tx, t.rx):
                usage[node] = usage.get(node, 0) + 1
                band_usage[(node, t.band)] = band_usage.get((node, t.band), 0) + 1
        for node, count in usage.items():
            radios = model.nodes[node].radio.num_radios
            if count > radios:
                self._violate(
                    "Eq. 22",
                    f"node participates in {count} transmissions "
                    f"but has {radios} radio(s)",
                    slot=slot,
                    node=node,
                )
        for (node, band), count in band_usage.items():
            if count > 1:
                self._violate(
                    "Eqs. 20-21",
                    f"node active {count} times on band {band} "
                    "(one activity per node per band)",
                    slot=slot,
                    node=node,
                )

    def _check_sinr_feasibility(
        self,
        model: "NetworkModel",
        observation: "SlotObservation",
        schedule: "ScheduleDecision",
        slot: Optional[int],
    ) -> None:
        gains = observation.gains
        threshold = model.params.sinr_threshold
        for t in schedule.transmissions:
            cap = model.max_power_w[t.tx]
            if t.power_w < -FEASIBILITY_EPS or t.power_w > cap * (1 + SINR_RTOL):
                self._violate(
                    "Eq. 24",
                    f"transmit power {t.power_w} W outside [0, {cap}] W",
                    slot=slot,
                    node=t.tx,
                    link=t.link,
                )
                continue
            noise = model.noise_power_w(observation.bands.bandwidth(t.band))
            value = sinr_of_transmission(
                gains, t, schedule.transmissions, noise
            )
            if value < threshold * (1 - SINR_RTOL):
                self._violate(
                    "Eq. 24",
                    f"scheduled link decodes at SINR {value:.6g} "
                    f"< threshold {threshold:.6g} on band {t.band}",
                    slot=slot,
                    link=t.link,
                )

    # ------------------------------------------------------------------
    # S2: admission (Eq. 19)
    # ------------------------------------------------------------------

    def check_admission(
        self,
        model: "NetworkModel",
        admission: "AdmissionDecision",
        slot: Optional[int] = None,
    ) -> None:
        """Single-source admission within ``[0, K_max]`` (Eq. 19)."""
        if not self.enabled:
            return
        bs_set = set(model.bs_ids)
        k_max = {s.session_id: s.k_max for s in model.sessions}  # noqa: R040 - S-sized dict (S stays O(10)); contracts are a diagnostic layer, off by default
        for session, source in admission.sources.items():
            if source not in bs_set:
                self._violate(
                    "Eq. 19",
                    f"session {session} sourced at non-base-station",
                    slot=slot,
                    node=source,
                )
            admitted = float(admission.admitted.get(session, 0.0))
            cap = float(k_max.get(session, 0.0))
            if admitted < -QUEUE_ATOL or admitted > cap + QUEUE_ATOL:
                self._violate(
                    "Eq. 19",
                    f"session {session} admits {admitted} pkts "
                    f"outside [0, {cap}]",
                    slot=slot,
                    node=source,
                )
            split = admission.split.get(session)
            if split is not None:
                total = sum(k for _, k in split)
                if not _close(total, admitted, QUEUE_ATOL):
                    self._violate(
                        "Eq. 19",
                        f"session {session} split admission sums to "
                        f"{total} != admitted {admitted}",
                        slot=slot,
                    )

    # ------------------------------------------------------------------
    # S3: routing flow rules (Eqs. 16-17)
    # ------------------------------------------------------------------

    def check_routing(
        self,
        model: "NetworkModel",
        routing: "RoutingDecision",
        admission: "AdmissionDecision",
        slot: Optional[int] = None,
    ) -> None:
        """Non-negative rates and the flow rules (Eqs. 16-17)."""
        if not self.enabled:
            return
        destinations = model.session_destinations()
        for (tx, rx, session), rate in routing.rates.items():
            if rate < -QUEUE_ATOL or not math.isfinite(rate):
                self._violate(
                    "Eq. 25",
                    f"routing rate {rate} pkts for session {session} "
                    "is negative or non-finite",
                    slot=slot,
                    link=(tx, rx),
                )
            if tx == destinations.get(session):
                self._violate(
                    "Eq. 17",
                    f"destination of session {session} re-emits packets",
                    slot=slot,
                    link=(tx, rx),
                )
            if rx == admission.sources.get(session):
                self._violate(
                    "Eq. 16",
                    f"source of session {session} receives packets",
                    slot=slot,
                    link=(tx, rx),
                )

    # ------------------------------------------------------------------
    # S4: energy allocation (Eqs. 3, 9-14)
    # ------------------------------------------------------------------

    def check_energy(
        self,
        inputs: Iterable["NodeEnergyInputs"],
        decision: "EnergyManagementDecision",
        slot: Optional[int] = None,
    ) -> None:
        """Per-node source balances and caps of the S4 output."""
        if not self.enabled:
            return
        bs_draw = 0.0
        for node_inputs in inputs:
            node = node_inputs.node
            alloc = decision.allocations.get(node)
            if alloc is None:
                self._violate(
                    "Eq. 2",
                    "S4 returned no allocation for the node",
                    slot=slot,
                    node=node,
                )
                continue
            for name, value in (
                ("renewable_serve_j", alloc.renewable_serve_j),
                ("renewable_charge_j", alloc.renewable_charge_j),
                ("grid_serve_j", alloc.grid_serve_j),
                ("grid_charge_j", alloc.grid_charge_j),
                ("discharge_j", alloc.discharge_j),
                ("spill_j", alloc.spill_j),
            ):
                if value < -ENERGY_ATOL:
                    self._violate(
                        "Eq. 14",
                        f"negative energy flow {name}={value} J",
                        slot=slot,
                        node=node,
                    )
            # Eq. 3 (with the documented spill extension): the harvest
            # splits exactly into serve + charge + spill.
            used = (
                alloc.renewable_serve_j
                + alloc.renewable_charge_j
                + alloc.spill_j
            )
            if not _close(used, node_inputs.renewable_j, ENERGY_ATOL):
                self._violate(
                    "Eq. 3",
                    f"renewable split {used} J != harvest "
                    f"{node_inputs.renewable_j} J",
                    slot=slot,
                    node=node,
                )
            # Eq. 14: grid draw within the (connectivity-gated) cap.
            if alloc.grid_draw_j > node_inputs.usable_grid_j + ENERGY_ATOL:
                self._violate(
                    "Eq. 14",
                    f"grid draw {alloc.grid_draw_j} J exceeds usable cap "
                    f"{node_inputs.usable_grid_j} J",
                    slot=slot,
                    node=node,
                )
            # Eqs. 11-12: charge/discharge within the effective caps.
            if alloc.charge_j > node_inputs.charge_cap_j + ENERGY_ATOL:
                self._violate(
                    "Eq. 11",
                    f"charge {alloc.charge_j} J exceeds effective cap "
                    f"{node_inputs.charge_cap_j} J",
                    slot=slot,
                    node=node,
                )
            if alloc.discharge_j > node_inputs.discharge_cap_j + ENERGY_ATOL:
                self._violate(
                    "Eq. 12",
                    f"discharge {alloc.discharge_j} J exceeds effective "
                    f"cap {node_inputs.discharge_cap_j} J",
                    slot=slot,
                    node=node,
                )
            # Eq. 9: charge-xor-discharge complementarity.
            if (
                alloc.charge_j > ENERGY_ATOL
                and alloc.discharge_j > ENERGY_ATOL
            ):
                self._violate(
                    "Eq. 9",
                    f"simultaneous charge ({alloc.charge_j} J) and "
                    f"discharge ({alloc.discharge_j} J)",
                    slot=slot,
                    node=node,
                )
            # Eq. 2: demand exactly covered by the three sources.
            if not _close(
                alloc.demand_served_j, node_inputs.demand_j, ENERGY_ATOL
            ):
                self._violate(
                    "Eq. 2",
                    f"served {alloc.demand_served_j} J != demand "
                    f"{node_inputs.demand_j} J",
                    slot=slot,
                    node=node,
                )
            if node_inputs.is_base_station:
                bs_draw += alloc.grid_draw_j
        if not _close(bs_draw, decision.bs_grid_draw_j, ENERGY_ATOL):
            self._violate(
                "Eq. 5",
                f"P(t) = {decision.bs_grid_draw_j} J != sum of "
                f"base-station draws {bs_draw} J",
                slot=slot,
            )

    # ------------------------------------------------------------------
    # Controller: demand coverage after curtailment (Eq. 2)
    # ------------------------------------------------------------------

    def check_demand_coverage(
        self,
        demands_j: Mapping[NodeId, float],
        deficit_j: Mapping[NodeId, float],
        decision: "EnergyManagementDecision",
        slot: Optional[int] = None,
    ) -> None:
        """Every node's slot demand is served, less the recorded deficit.

        The controller's curtailment pass (documented extension of
        Eq. 2) may shed base demand that no supply can cover; the shed
        amount must be accounted in ``deficit_j``, never silently lost.
        """
        if not self.enabled:
            return
        for node, demand in demands_j.items():
            alloc = decision.allocations.get(node)
            if alloc is None:
                self._violate(
                    "Eq. 2", "node missing from S4 output", slot=slot, node=node
                )
                continue
            expected = max(0.0, demand - deficit_j.get(node, 0.0))
            if not _close(alloc.demand_served_j, expected, ENERGY_ATOL):
                self._violate(
                    "Eq. 2",
                    f"served {alloc.demand_served_j} J != demand "
                    f"{demand} J minus deficit "
                    f"{deficit_j.get(node, 0.0)} J",
                    slot=slot,
                    node=node,
                )

    # ------------------------------------------------------------------
    # Engine: the full state transition
    # ------------------------------------------------------------------

    def capture(self, state: "NetworkState") -> Optional[PreApplySnapshot]:
        """Snapshot the queue/battery state before ``apply``."""
        if not self.enabled:
            return None
        arrays = getattr(state, "arrays", None)
        if arrays is not None:
            return PreApplySnapshot(
                data_backlogs=arrays.q_mapping(copy=True),
                g_backlogs=LinkArrayMapping(
                    arrays.g.copy(), arrays.links, arrays.link_pos
                ),
                battery_levels=NodeArrayMapping(arrays.battery_level.copy()),
            )
        return PreApplySnapshot(
            data_backlogs=state.data_queues.snapshot(),
            g_backlogs=state.virtual_queues.snapshot(),
            battery_levels=state.battery_levels(),
        )

    def check_transition(
        self,
        model: "NetworkModel",
        state: "NetworkState",
        decision: "SlotDecision",
        pre: Optional[PreApplySnapshot],
        slot: int,
        enforce_complementarity: bool = True,
    ) -> None:
        """Validate the post-``apply`` state against the queue laws."""
        if not self.enabled or pre is None:
            return
        self._check_data_queue_law(state, decision, pre, slot)
        self._check_virtual_queue_law(state, decision, pre, slot)
        self._check_battery_transition(
            model, state, decision, pre, slot, enforce_complementarity
        )

    def _effective_rates(
        self,
        state: "NetworkState",
        pre: PreApplySnapshot,
        rates: Mapping[Tuple[NodeId, NodeId, SessionId], float],
    ) -> Dict[Tuple[NodeId, NodeId, SessionId], float]:
        """Independent re-derivation of the configured queue semantics.

        ``PAPER`` passes scheduled rates through (the null-packet
        idealisation of Eq. 15); ``PACKET_ACCURATE`` rescales each
        transmitter's outgoing rates so they never exceed its pre-slot
        backlog.
        """
        if state.data_queues.semantics is QueueSemantics.PAPER:
            return dict(rates)
        outgoing: Dict[Tuple[NodeId, SessionId], float] = {}
        for (tx, _rx, session), rate in rates.items():
            key = (tx, session)
            outgoing[key] = outgoing.get(key, 0.0) + rate
        effective: Dict[Tuple[NodeId, NodeId, SessionId], float] = {}
        for (tx, rx, session), rate in rates.items():
            total = outgoing[(tx, session)]
            if total <= 0:
                effective[(tx, rx, session)] = 0.0
                continue
            available = pre.data_backlogs.get((tx, session), 0.0)
            effective[(tx, rx, session)] = rate * min(1.0, available / total)
        return effective

    def _check_data_queue_law(
        self,
        state: "NetworkState",
        decision: "SlotDecision",
        pre: PreApplySnapshot,
        slot: int,
    ) -> None:
        """Eq. 15: ``Q(t+1) = max(Q(t) - service, 0) + arrivals``."""
        transfer = self._effective_rates(state, pre, decision.routing.rates)
        service: Dict[Tuple[NodeId, SessionId], float] = {}
        arrivals: Dict[Tuple[NodeId, SessionId], float] = {}
        for (tx, rx, session), rate in transfer.items():
            service[(tx, session)] = service.get((tx, session), 0.0) + rate
            arrivals[(rx, session)] = arrivals.get((rx, session), 0.0) + rate
        for session, pairs in decision.admission.as_queue_arrivals().items():
            for source, admitted in pairs:
                key = (source, session)
                arrivals[key] = arrivals.get(key, 0.0) + admitted

        post = state.data_queues.snapshot()
        for key, backlog in post.items():
            if backlog < -QUEUE_ATOL:
                self._violate(
                    "Eq. 15",
                    f"negative backlog {backlog} pkts for session {key[1]}",
                    slot=slot,
                    node=key[0],
                )
            expected = max(
                pre.data_backlogs.get(key, 0.0) - service.get(key, 0.0), 0.0
            ) + arrivals.get(key, 0.0)
            if not _close(backlog, expected, QUEUE_ATOL):
                self._violate(
                    "Eq. 15",
                    f"Q[{key[0]}][{key[1]}] = {backlog} pkts, expected "
                    f"{expected} pkts from the queueing law",
                    slot=slot,
                    node=key[0],
                )

    def _check_virtual_queue_law(
        self,
        state: "NetworkState",
        decision: "SlotDecision",
        pre: PreApplySnapshot,
        slot: int,
    ) -> None:
        """Eqs. 28/30: the ``G`` update and ``H = beta * G``."""
        arrivals = decision.routing.link_totals()
        service = decision.schedule.link_service_pkts
        beta = state.virtual_queues.beta
        post = state.virtual_queues.snapshot()
        for link, backlog in post.items():
            if backlog < -QUEUE_ATOL:
                self._violate(
                    "Eq. 28",
                    f"negative virtual backlog {backlog} pkts",
                    slot=slot,
                    link=link,
                )
            expected = max(
                pre.g_backlogs.get(link, 0.0) - service.get(link, 0.0), 0.0
            ) + arrivals.get(link, 0.0)
            if not _close(backlog, expected, QUEUE_ATOL):
                self._violate(
                    "Eq. 28",
                    f"G = {backlog} pkts, expected {expected} pkts "
                    "from the virtual-queue law",
                    slot=slot,
                    link=link,
                )
            h = state.virtual_queues.h(link)
            if not _close(h, beta * backlog, QUEUE_ATOL):
                self._violate(
                    "Eq. 30",
                    f"H = {h} != beta * G = {beta * backlog}",
                    slot=slot,
                    link=link,
                )

    def _check_battery_transition(
        self,
        model: "NetworkModel",
        state: "NetworkState",
        decision: "SlotDecision",
        pre: PreApplySnapshot,
        slot: int,
        enforce_complementarity: bool,
    ) -> None:
        """Eqs. 4, 9-12, 31: batteries and shifted energy queues."""
        for node, battery in state.batteries.items():
            level = battery.level_j
            # Eq. 10: the level stays within [0, x_max].
            if level < -ENERGY_ATOL or level > battery.capacity_j + ENERGY_ATOL:
                self._violate(
                    "Eq. 10",
                    f"battery level {level} J outside "
                    f"[0, {battery.capacity_j}] J",
                    slot=slot,
                    node=node,
                )
            alloc = decision.energy.allocations.get(node)
            if alloc is None:
                continue
            charge = alloc.charge_j
            drained = alloc.discharge_j / battery.discharge_efficiency
            if not enforce_complementarity:
                # The relaxed LP bound drops Eq. 9; the simulator nets
                # the two flows before they reach the battery.
                net = charge - drained
                charge, drained = max(net, 0.0), max(-net, 0.0)
            elif charge > ENERGY_ATOL and drained > ENERGY_ATOL:
                self._violate(
                    "Eq. 9",
                    f"simultaneous charge ({charge} J) and battery "
                    f"drain ({drained} J)",
                    slot=slot,
                    node=node,
                )
            level_before = pre.battery_levels.get(node, 0.0)
            # Eq. 11/12 against the *pre-apply* level the caps were
            # computed from.
            headroom = (
                battery.capacity_j - level_before
            ) / battery.charge_efficiency
            if charge > min(battery.charge_cap_j, headroom) + ENERGY_ATOL:
                self._violate(
                    "Eq. 11",
                    f"charge {charge} J exceeds min(c_max, headroom) = "
                    f"{min(battery.charge_cap_j, headroom)} J",
                    slot=slot,
                    node=node,
                )
            if drained > min(battery.discharge_cap_j, level_before) + ENERGY_ATOL:
                self._violate(
                    "Eq. 12",
                    f"drain {drained} J exceeds min(d_max, level) = "
                    f"{min(battery.discharge_cap_j, level_before)} J",
                    slot=slot,
                    node=node,
                )
            # Eq. 4 (with efficiencies): the level advanced by exactly
            # the applied action, up to the clamp absorbing round-off.
            expected = level_before + battery.charge_efficiency * charge - drained
            expected = min(max(expected, 0.0), battery.capacity_j)
            if not _close(level, expected, ENERGY_ATOL):
                self._violate(
                    "Eq. 4",
                    f"battery level {level} J, expected {expected} J "
                    "from the energy-queue law",
                    slot=slot,
                    node=node,
                )
            # Eq. 31: the shifted queue mirrors the battery exactly.
            queue = state.energy_queues[node]
            if not _close(queue.level_j, level, ENERGY_ATOL) or not _close(
                queue.z, level - queue.shift_j, ENERGY_ATOL
            ):
                self._violate(
                    "Eq. 31",
                    f"shifted queue z = {queue.z} J diverged from "
                    f"x - shift = {level - queue.shift_j} J",
                    slot=slot,
                    node=node,
                )
