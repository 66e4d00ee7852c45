"""The assembled network model: everything static about a scenario.

``NetworkModel`` bundles the validated parameters, node population,
topology, spectrum model, sessions, and cost function, plus the derived
Lyapunov constants (``beta``, ``gamma_max``, ``B``) that the controller
and the bound computations share.  Build one with
:func:`build_network_model`; the simulator, controller, and experiment
drivers all consume it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.config import ScenarioParameters, validate_parameters
from repro.energy.cost import QuadraticCost, TimeOfUseCost
from repro.network.node import Node, build_nodes
from repro.network.session import Session, build_sessions
from repro.network.spectrum import SpectrumModel, build_spectrum_model
from repro.network.topology import Topology, build_topology
from repro.types import NodeId


@dataclass
class NetworkModel:
    """Static model of one scenario (no per-slot state).

    Attributes:
        params: the validated scenario parameters.
        nodes: node population ordered by id.
        topology: candidate links, positions and the pair-gain view.
        spectrum: bands, access sets, bandwidth process.
        sessions: downlink sessions.
        cost: the provider's generation-cost function ``f``.
        max_power_w: per-node transmit power caps (for power control).
    """

    params: ScenarioParameters
    nodes: Tuple[Node, ...]
    topology: Topology
    spectrum: SpectrumModel
    sessions: Tuple[Session, ...]
    cost: QuadraticCost
    max_power_w: Dict[NodeId, float] = field(repr=False)
    #: Optional time-of-use schedule wrapping ``cost``.
    cost_schedule: Optional[TimeOfUseCost] = None

    def cost_at(self, slot: int) -> QuadraticCost:
        """The generation cost function in force during ``slot``."""
        if self.cost_schedule is None:
            return self.cost
        return self.cost_schedule.at_slot(slot)

    def max_marginal_cost(self) -> float:
        """``gamma_max``: the worst marginal cost over slots and draws."""
        cap = self.total_grid_cap_j()
        if self.cost_schedule is None:
            return self.cost.max_derivative(cap)
        return self.cost_schedule.max_derivative(cap)

    @property
    def num_nodes(self) -> int:
        """Total node count ``N``."""
        return len(self.nodes)

    @property
    def bs_ids(self) -> Tuple[NodeId, ...]:
        """Base-station ids."""
        return tuple(self.params.base_station_ids())

    @property
    def user_ids(self) -> Tuple[NodeId, ...]:
        """Mobile-user ids."""
        return tuple(self.params.user_ids())

    def total_grid_cap_j(self) -> float:
        """Aggregate base-station grid draw cap (bounds ``P(t)``)."""
        return sum(self.nodes[b].energy.grid_cap_j for b in self.bs_ids)

    def noise_power_w(self, bandwidth_hz: float) -> float:
        """Thermal-noise power ``eta * W`` for a band realisation."""
        return self.params.noise_density_w_per_hz * bandwidth_hz

    def session_destinations(self) -> Dict[int, NodeId]:
        """Session id -> destination node id."""
        return {s.session_id: s.destination for s in self.sessions}  # noqa: R040 - S-sized dict (S stays O(10)); the engine builds it once at construction and caches it


def build_network_model(
    params: ScenarioParameters, rng: np.random.Generator
) -> NetworkModel:
    """Validate ``params`` and assemble the full static model.

    The passed ``rng`` drives node placement, spectrum access draws and
    session destinations; stream separation for the per-slot processes
    is handled by the simulator's RNG manager.
    """
    validate_parameters(params)
    nodes = build_nodes(params, rng)
    topology = build_topology(params, nodes)
    spectrum = build_spectrum_model(params, rng)
    sessions = build_sessions(params, rng, nodes=nodes)
    cost = QuadraticCost.from_unit_coefficients(
        params.cost_a, params.cost_b, params.cost_c, params.cost_energy_unit_j
    )
    schedule = None
    if params.tou_multipliers is not None:
        schedule = TimeOfUseCost(cost, params.tou_multipliers)
    max_power = {n.node_id: n.radio.max_tx_power_w for n in nodes}
    return NetworkModel(
        params=params,
        nodes=tuple(nodes),
        topology=topology,
        spectrum=spectrum,
        sessions=tuple(sessions),
        cost=cost,
        max_power_w=max_power,
        cost_schedule=schedule,
    )
