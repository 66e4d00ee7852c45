"""Decision and observation dataclasses exchanged by the control plane.

One slot of the online algorithm (Section IV-C) is: observe the random
state (:class:`SlotObservation` — the realised ``W_m(t)``, ``R_i(t)``
and ``omega_i(t)``), solve S1-S4, and emit a :class:`SlotDecision` that
the simulator applies to the queues and batteries.  The fields mirror
the paper's decision variables: ``a_ij^m`` / ``p_ij^m`` (Eqs. 20-24),
``k_s`` admission splits (Eq. 19), ``l_ij^s`` routing rates (Eq. 25),
and the per-node energy allocation of Eqs. 2-3 and 9-14.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.network.spectrum import BandState
from repro.types import Link, LinkBand, NodeId, SessionId, Transmission

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.model import NetworkModel
    from repro.phy.propagation import ComputedPairGains


@dataclass(frozen=True)
class SlotObservation:
    """The realised random state at the start of a slot.

    Attributes:
        slot: slot index ``t``.
        bands: realised bandwidths ``W_m(t)``.
        renewable_j: harvested energy ``R_i(t)`` per node (J).
        grid_connected: realised ``omega_i(t)`` per node.
        gains: the slot's pair-gain view — the topology's view while
            users are static, a view over the slot's positions under
            mobility.
        band_access: per-node accessible bands this slot when dynamic
            availability is enabled; None means the static ``M_i``
            sets apply.
    """

    slot: int
    bands: BandState
    renewable_j: Mapping[NodeId, float]
    grid_connected: Mapping[NodeId, bool]
    gains: ComputedPairGains
    band_access: Optional[Mapping[NodeId, frozenset]] = None

    def common_bands(
        self, model: "NetworkModel", tx: NodeId, rx: NodeId
    ) -> frozenset:
        """``M_i(t) ∩ M_j(t)``: usable bands on link ``(tx, rx)`` now."""
        if self.band_access is not None:
            return self.band_access[tx] & self.band_access[rx]
        return model.spectrum.common_bands(tx, rx)


@dataclass
class ScheduleDecision:
    """S1 output: activated link-bands, powers, and service rates.

    Attributes:
        transmissions: scheduled transmissions with assigned powers.
        link_service_pkts: realised per-link service
            ``(1/delta) sum_m c_ij^m a_ij^m delta_t`` (packets).
        dropped: link-bands selected by the scheduler but dropped by
            power control (no feasible SINR) or energy curtailment.
    """

    transmissions: List[Transmission] = field(default_factory=list)
    link_service_pkts: Dict[Link, float] = field(default_factory=dict)
    dropped: List[LinkBand] = field(default_factory=list)

    def service_pkts(self, link: Link) -> float:
        """Service offered to ``link`` this slot (packets)."""
        return self.link_service_pkts.get(link, 0.0)


@dataclass(frozen=True)
class AdmissionDecision:
    """S2 output: per-session source base station and admitted packets.

    The integral algorithm admits at a single source (constraint 19);
    the relaxed LP bound may split admission across base stations, so
    ``split`` optionally carries per-source fractional amounts.
    """

    sources: Mapping[SessionId, NodeId]
    admitted: Mapping[SessionId, float]
    split: Mapping[SessionId, Tuple[Tuple[NodeId, float], ...]] = field(
        default_factory=dict
    )

    def as_queue_arrivals(
        self,
    ) -> Dict[SessionId, List[Tuple[NodeId, float]]]:
        """Per-session ``(source, packets)`` arrival lists."""
        arrivals: Dict[SessionId, List[Tuple[NodeId, float]]] = {}
        for s in self.sources:
            if s in self.split:
                arrivals[s] = [(b, float(k)) for b, k in self.split[s]]
            else:
                arrivals[s] = [(self.sources[s], float(self.admitted[s]))]
        return arrivals

    def total_admitted(self) -> float:
        """Network-wide admitted packets ``sum_s k_s`` this slot."""
        return float(sum(self.admitted.values()))


@dataclass(frozen=True)
class RoutingDecision:
    """S3 output: per-link per-session packet rates ``l_ij^s(t)``."""

    rates: Mapping[Tuple[NodeId, NodeId, SessionId], float]

    def link_totals(self) -> Dict[Link, float]:
        """``sum_s l_ij^s`` per link — the virtual-queue arrivals."""
        totals: Dict[Link, float] = {}
        for (tx, rx, _), rate in self.rates.items():
            totals[(tx, rx)] = totals.get((tx, rx), 0.0) + rate
        return totals


@dataclass(frozen=True)
class NodeEnergyAllocation:
    """S4 output for one node (all joules).

    Attributes:
        renewable_serve_j: ``r_i`` — renewable energy serving demand.
        renewable_charge_j: ``c^r_i`` — renewable energy charging.
        grid_serve_j: ``g_i`` — grid energy serving demand.
        grid_charge_j: ``c^g_i`` — grid energy charging.
        discharge_j: ``d_i`` — battery discharge serving demand.
        spill_j: harvested renewable energy left unused (our curtailment
            extension of Eq. (3); see DESIGN.md).
    """

    renewable_serve_j: float = 0.0
    renewable_charge_j: float = 0.0
    grid_serve_j: float = 0.0
    grid_charge_j: float = 0.0
    discharge_j: float = 0.0
    spill_j: float = 0.0

    @property
    def charge_j(self) -> float:
        """Total charging ``c_i = c^r_i + c^g_i``."""
        return self.renewable_charge_j + self.grid_charge_j

    @property
    def grid_draw_j(self) -> float:
        """Total grid draw ``g_i + c^g_i`` (constraint 14)."""
        return self.grid_serve_j + self.grid_charge_j

    @property
    def demand_served_j(self) -> float:
        """Energy delivered to the node's demand this slot."""
        return self.renewable_serve_j + self.grid_serve_j + self.discharge_j


@dataclass(frozen=True)
class EnergyManagementDecision:
    """S4 output: all node allocations plus the provider-level totals.

    Attributes:
        allocations: per-node energy splits.
        bs_grid_draw_j: ``P(t)`` — total base-station grid draw (J).
        cost: the slot's generation cost ``f(P(t))``.
    """

    allocations: Mapping[NodeId, NodeEnergyAllocation]
    bs_grid_draw_j: float
    cost: float


@dataclass
class SlotDecision:
    """Everything the controller decided for one slot."""

    schedule: ScheduleDecision
    admission: AdmissionDecision
    routing: RoutingDecision
    energy: EnergyManagementDecision
    #: Link-bands removed by the energy-feasibility curtailment pass.
    curtailed: List[LinkBand] = field(default_factory=list)
