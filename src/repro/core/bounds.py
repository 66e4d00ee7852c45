"""Optimality bounds on ``psi*_P1`` (Theorems 4 and 5).

* **Upper bound** — the time-averaged energy cost ``psi_P3`` achieved
  by the decomposition controller itself (Theorem 4).
* **Lower bound** — ``psi*_P3bar - B/V`` (Theorem 5), where ``P3bar``
  relaxes P3: binary activations become ``[0, 1]``, the single-source
  constraint (19) and the charge-xor-discharge constraint (9) are
  dropped, and each slot's drift-plus-penalty is minimised *exactly*
  as one joint linear program.

The LP linearises the two non-linear pieces conservatively so the
bound stays valid:

* the convex cost ``f(P)`` enters through its epigraph supported by
  tangent lines (an under-approximation of a convex function);
* transmit powers are lower-bounded by their zero-interference minima
  ``Gamma eta W / g_ij`` (under-approximating energy demand).

Both substitutions can only *decrease* the LP optimum, preserving
``LP <= psi-hat*_P3bar`` and hence the final lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.control.decisions import (
    AdmissionDecision,
    EnergyManagementDecision,
    NodeEnergyAllocation,
    RoutingDecision,
    ScheduleDecision,
    SlotDecision,
    SlotObservation,
)
from repro.core.lyapunov import LyapunovConstants
from repro.model import NetworkModel
from repro.phy.capacity import max_link_capacity_bps
from repro.solvers.linprog import LinearProgram, LPSolution, Sense
from repro.types import NodeId, SessionId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (see state.py)
    from repro.state import NetworkState


@dataclass(frozen=True)
class BoundReport:
    """Paired bounds on ``psi*_P1`` for one configuration.

    Attributes:
        control_v: the Lyapunov weight the bounds were computed for.
        upper: achieved time-averaged cost of the controller (Thm. 4).
        lower: ``psi*_P3bar - B/V`` (Thm. 5).
        relaxed_penalty: the time-averaged relaxed penalty
            ``avg[f(P) - lambda sum_s k_s]`` before subtracting B/V.
        drift_b: the Eq. (34) constant used.
    """

    control_v: float
    upper: float
    lower: float
    relaxed_penalty: float
    drift_b: float

    @property
    def gap(self) -> float:
        """Absolute bound gap (upper - lower)."""
        return self.upper - self.lower


def lower_bound_cost(
    relaxed_penalty_avg: float, drift_b: float, control_v: float
) -> float:
    """Theorem 5: ``psi*_P1 >= psi*_P3bar - B/V``."""
    if control_v <= 0:
        raise ValueError(f"V must be positive for the bound, got {control_v}")
    return relaxed_penalty_avg - drift_b / control_v


class RelaxedLpController:
    """Per-slot exact solver of the relaxed problem ``P3bar``.

    Presents the same ``decide(observation, state)`` interface as the
    integral controller so the simulation engine can run either; the
    engine must apply its decisions with
    ``enforce_complementarity=False`` (constraint (9) is relaxed).
    """

    def __init__(
        self,
        model: NetworkModel,
        constants: LyapunovConstants,
        num_cost_segments: int = 24,
    ) -> None:
        if num_cost_segments < 1:
            raise ValueError(
                f"need at least one tangent segment, got {num_cost_segments}"
            )
        self._model = model
        self._constants = constants
        self._segments = num_cost_segments
        #: f(P(t)) - lambda*sum(k) of the most recent slot, for bounds.
        self.last_penalty: float = 0.0
        #: Per-node demand slack of the most recent slot (J), mirroring
        #: the integral controller's deficit accounting.
        self.last_deficit_j: Dict[NodeId, float] = {}

    # -- LP construction helpers ---------------------------------------

    def _service_pkts(self, band: int, observation: SlotObservation) -> float:
        params = self._model.params
        bps = max_link_capacity_bps(
            observation.bands.bandwidth(band), params.sinr_threshold
        )
        return bps * params.slot_seconds / params.sessions.packet_size_bits

    def _min_power_w(
        self, tx: NodeId, gain: float, band: int, observation: SlotObservation
    ) -> float | None:
        """Zero-interference minimal power at ``gain``; None above the cap."""
        params = self._model.params
        noise = self._model.noise_power_w(observation.bands.bandwidth(band))
        power = params.sinr_threshold * noise / gain
        if power > self._model.max_power_w[tx]:
            return None
        return power

    def _build_lp(
        self, observation: SlotObservation, state: NetworkState
    ) -> Tuple[LinearProgram, Dict]:
        model = self._model
        params = model.params
        constants = self._constants
        lp = LinearProgram()
        dt = params.slot_seconds
        threshold = params.admission_lambda * params.control_v
        destinations = model.session_destinations()
        h = state.h_backlogs()

        # Activation variables with their Psi-hat_1 coefficients, plus
        # bookkeeping for the capacity and energy couplings.
        link_bands: Dict[Tuple[NodeId, NodeId], List[Tuple[int, float, float]]] = {}
        # The slot's (L,) candidate-link gains, read once.
        link_gains = observation.gains.pairs(*model.topology.link_arrays()).tolist()
        for (tx, rx), gain in zip(model.topology.candidate_links, link_gains):  # noqa: R040 - offline Theorem-5 LP assembly; runs once per scenario, never inside the slot loop
            entries = []
            for band in observation.common_bands(model, tx, rx):
                power = self._min_power_w(tx, gain, band, observation)
                if power is None:
                    continue
                service = self._service_pkts(band, observation)
                key = ("a", tx, rx, band)
                lp.add_variable(
                    key,
                    objective=-constants.beta * h.get((tx, rx), 0.0) * service,
                    lower=0.0,
                    upper=1.0,
                )
                entries.append((band, service, power))
            if entries:
                link_bands[(tx, rx)] = entries

        # Radio constraint (22), relaxed; the budget is the node's
        # radio count (1 in the paper — a tighter rhs would invalidate
        # the lower bound for multi-radio scenarios).
        per_node: Dict[NodeId, Dict] = {n: {} for n in range(model.num_nodes)}  # noqa: R040 - offline Theorem-5 LP assembly; runs once per scenario, never inside the slot loop
        for (tx, rx), entries in link_bands.items():
            for band, _, _ in entries:
                per_node[tx][("a", tx, rx, band)] = 1.0
                per_node[rx][("a", tx, rx, band)] = 1.0
        for node, coeffs in per_node.items():
            if coeffs:
                lp.add_constraint(
                    coeffs,
                    Sense.LE,
                    float(model.nodes[node].radio.num_radios),
                    name=f"radio[{node}]",
                )

        # Routing variables and the link-capacity constraint (25).
        for (tx, rx), entries in link_bands.items():
            cap_coeffs: Dict = {}
            for band, service, _ in entries:
                cap_coeffs[("a", tx, rx, band)] = -service
            any_l = False
            for session in model.sessions:  # noqa: R040 - offline Theorem-5 LP assembly; runs once per scenario, never inside the slot loop
                sid = session.session_id
                if tx == destinations[sid]:
                    continue  # (17)
                q_tx = state.backlog(tx, sid)
                q_rx = (
                    0.0
                    if rx == destinations[sid]
                    else state.backlog(rx, sid)
                )
                coeff = -q_tx + q_rx + constants.beta * h.get((tx, rx), 0.0)
                key = ("l", tx, rx, sid)
                lp.add_variable(key, objective=coeff, lower=0.0)
                cap_coeffs[key] = 1.0
                any_l = True
            if any_l:
                lp.add_constraint(cap_coeffs, Sense.LE, 0.0, name=f"cap[{tx},{rx}]")

        # Demand-satisfaction equality (18) per session.  Constraint
        # (16) — no incoming traffic at the source — is dropped: the
        # relaxed source assignment is fractional, so there is no
        # single node to apply it to.  Dropping a constraint enlarges
        # the feasible set and can only lower the LP optimum, which
        # keeps the final lower bound valid.
        for session in model.sessions:  # noqa: R040 - offline Theorem-5 LP assembly; runs once per scenario, never inside the slot loop
            sid = session.session_id
            dest = session.destination
            coeffs = {
                ("l", i, dest, sid): 1.0
                for i in model.topology.in_neighbors.get(dest, ())
                if lp.has_variable(("l", i, dest, sid))
            }
            if coeffs:
                lp.add_constraint(
                    coeffs, Sense.EQ, float(session.demand(observation.slot)),
                    name=f"demand[{sid}]",
                )

        # Relaxed admission: per-BS k_{s,b} with total cap K_max; the
        # Psi-hat_2 coefficient is (Q_b^s - lambda V).
        for session in model.sessions:  # noqa: R040 - offline Theorem-5 LP assembly; runs once per scenario, never inside the slot loop
            sid = session.session_id
            total = {}
            for bs in model.bs_ids:
                key = ("k", sid, bs)
                lp.add_variable(
                    key,
                    objective=state.backlog(bs, sid) - threshold,
                    lower=0.0,
                    upper=float(session.k_max),
                )
                total[key] = 1.0
            lp.add_constraint(total, Sense.LE, float(session.k_max), name=f"kmax[{sid}]")

        # Energy variables and balances.
        bs_set = set(model.bs_ids)
        z = state.z_values()
        p_coeffs: Dict = {}
        for node_obj in model.nodes:  # noqa: R040 - offline Theorem-5 LP assembly; runs once per scenario, never inside the slot loop
            node = node_obj.node_id
            battery = state.batteries[node]
            connected = observation.grid_connected[node]
            grid_cap = state.grids[node].draw_cap_j if connected else 0.0
            renewable = observation.renewable_j[node]

            lp.add_variable(("r", node), lower=0.0, upper=renewable)
            eta_c = battery.charge_efficiency
            eta_d = battery.discharge_efficiency
            lp.add_variable(
                ("cr", node),
                objective=z[node] * eta_c,
                lower=0.0,
                upper=renewable,
            )
            lp.add_variable(("g", node), lower=0.0, upper=grid_cap)
            lp.add_variable(
                ("cg", node),
                objective=z[node] * eta_c,
                lower=0.0,
                upper=grid_cap,
            )
            # The variable is *delivered* discharge; the battery level
            # drops by 1/eta_d of it.
            lp.add_variable(
                ("d", node),
                objective=-z[node] / eta_d,
                lower=0.0,
                upper=battery.max_deliverable_j(),
            )
            lp.add_variable(("slack", node), lower=0.0)

            lp.add_constraint(
                {("r", node): 1.0, ("cr", node): 1.0},
                Sense.LE,
                renewable,
                name=f"renewable[{node}]",
            )
            lp.add_constraint(
                {("cr", node): 1.0, ("cg", node): 1.0},
                Sense.LE,
                battery.max_charge_j(),
                name=f"charge_cap[{node}]",
            )
            lp.add_constraint(
                {("g", node): 1.0, ("cg", node): 1.0},
                Sense.LE,
                grid_cap,
                name=f"grid_cap[{node}]",
            )

            if params.exact_battery_drift:
                # Epigraph of the exact quadratic battery-drift term
                # (net^2 / 2, net = c - d), supported by tangents — an
                # under-approximation, so the lower bound stays valid
                # while matching the integral controller's objective.
                lp.add_variable(("w", node), objective=1.0, lower=0.0)
                net_lo = -battery.max_discharge_j()
                net_hi = eta_c * battery.max_charge_j()
                span = max(net_hi - net_lo, 1.0)
                for k in range(9):
                    point = net_lo + span * k / 8
                    # w >= point * net - point^2 / 2, with the level
                    # delta net = eta_c (cr + cg) - d / eta_d.
                    lp.add_constraint(
                        {
                            ("w", node): 1.0,
                            ("cr", node): -point * eta_c,
                            ("cg", node): -point * eta_c,
                            ("d", node): point / eta_d,
                        },
                        Sense.GE,
                        -0.5 * point * point,
                        name=f"qdrift[{node},{k}]",
                    )

            # Demand balance: g + r + d + slack - (tx/rx energy) = fixed.
            balance: Dict = {
                ("g", node): 1.0,
                ("r", node): 1.0,
                ("d", node): 1.0,
                ("slack", node): 1.0,
            }
            for (tx, rx), entries in link_bands.items():
                for band, _, power in entries:
                    if tx == node:
                        key = ("a", tx, rx, band)
                        balance[key] = balance.get(key, 0.0) - power * dt
                    elif rx == node:
                        key = ("a", tx, rx, band)
                        balance[key] = (
                            balance.get(key, 0.0)
                            - node_obj.radio.recv_power_w * dt
                        )
            lp.add_constraint(
                balance,
                Sense.EQ,
                node_obj.radio.fixed_energy_j(dt),
                name=f"balance[{node}]",
            )

            if node in bs_set:
                p_coeffs[("g", node)] = 1.0
                p_coeffs[("cg", node)] = 1.0

        # Total draw P and the epigraph of V * f(P).
        p_cap = model.total_grid_cap_j()
        lp.add_variable(("P",), lower=0.0, upper=p_cap)
        row = dict(p_coeffs)
        row[("P",)] = -1.0
        lp.add_constraint(row, Sense.EQ, 0.0, name="total_draw")

        lp.add_variable(("phi",), objective=params.control_v, lower=0.0)
        for k in range(self._segments + 1):
            point = p_cap * k / self._segments
            slot_cost = model.cost_at(observation.slot)
            slope = slot_cost.derivative(point)
            intercept = slot_cost.value(point) - slope * point
            lp.add_constraint(
                {("phi",): 1.0, ("P",): -slope},
                Sense.GE,
                intercept,
                name=f"tangent[{k}]",
            )

        return lp, {"link_bands": link_bands}

    # -- decision extraction --------------------------------------------

    def _extract(
        self,
        solution: LPSolution,
        observation: SlotObservation,
        state: NetworkState,
        link_bands: Dict,
    ) -> SlotDecision:
        model = self._model
        schedule = ScheduleDecision()
        for (tx, rx), entries in link_bands.items():
            service_total = 0.0
            for band, service, _power in entries:
                alpha = solution.values[("a", tx, rx, band)]
                if alpha > 1e-9:
                    service_total += service * alpha
            if service_total > 0:
                schedule.link_service_pkts[(tx, rx)] = service_total

        rates: Dict[Tuple[NodeId, NodeId, SessionId], float] = {}
        for key, value in solution.values.items():
            if key[0] == "l" and value > 1e-9:
                _, tx, rx, sid = key
                rates[(tx, rx, sid)] = value
        routing = RoutingDecision(rates=rates)

        sources: Dict[SessionId, NodeId] = {}
        admitted: Dict[SessionId, float] = {}
        split: Dict[SessionId, Tuple[Tuple[NodeId, float], ...]] = {}
        for session in model.sessions:  # noqa: R040 - offline Theorem-5 LP assembly; runs once per scenario, never inside the slot loop
            sid = session.session_id
            pairs = tuple(
                (bs, solution.values[("k", sid, bs)])
                for bs in model.bs_ids
                if solution.values[("k", sid, bs)] > 1e-9
            )
            split[sid] = pairs
            admitted[sid] = sum(k for _, k in pairs)
            sources[sid] = (
                max(pairs, key=lambda p: p[1])[0] if pairs else model.bs_ids[0]
            )
        admission = AdmissionDecision(
            sources=sources, admitted=admitted, split=split
        )

        allocations: Dict[NodeId, NodeEnergyAllocation] = {}
        for node_obj in model.nodes:  # noqa: R040 - offline Theorem-5 LP assembly; runs once per scenario, never inside the slot loop
            node = node_obj.node_id
            renewable = observation.renewable_j[node]
            r = solution.values[("r", node)]
            cr = solution.values[("cr", node)]
            allocations[node] = NodeEnergyAllocation(
                renewable_serve_j=r,
                renewable_charge_j=cr,
                grid_serve_j=solution.values[("g", node)],
                grid_charge_j=solution.values[("cg", node)],
                discharge_j=solution.values[("d", node)],
                spill_j=max(0.0, renewable - r - cr),
            )
        bs_set = set(model.bs_ids)
        total_draw = sum(
            a.grid_draw_j for n, a in allocations.items() if n in bs_set
        )
        energy = EnergyManagementDecision(
            allocations=allocations,
            bs_grid_draw_j=total_draw,
            cost=model.cost_at(observation.slot).value(total_draw),
        )
        return SlotDecision(
            schedule=schedule,
            admission=admission,
            routing=routing,
            energy=energy,
        )

    def decide(
        self, observation: SlotObservation, state: NetworkState
    ) -> SlotDecision:
        """Solve the slot's relaxed LP exactly and extract the decision."""
        lp, extras = self._build_lp(observation, state)
        solution = lp.solve()
        decision = self._extract(
            solution, observation, state, extras["link_bands"]
        )
        lam = self._model.params.admission_lambda
        self.last_penalty = (
            decision.energy.cost - lam * decision.admission.total_admitted()
        )
        self.last_deficit_j = {
            key[1]: value
            for key, value in solution.values.items()
            if key[0] == "slack" and value > 1e-9
        }
        return decision
