"""S1 — link scheduling (Section IV-C-1).

Minimises ``Psi-hat_1 = -(beta/delta) sum_ij H_ij sum_m c_ij^m a_ij^m dt``
subject to the single-radio constraint (22): each node participates in
at most one transmission per slot, as transmitter or receiver, on one
band.  Three algorithms are provided:

* ``SEQUENTIAL_FIX`` — the paper's LP-rounding heuristic (via the
  generic :func:`repro.solvers.sequential_fix`);
* ``MAX_WEIGHT_MATCHING`` — exact: under constraint (22) alone, S1 is a
  maximum-weight matching over nodes with per-edge best-band weights;
* ``GREEDY`` — sort link-bands by weight, take what fits.

The base weight of a link-band is ``beta * H_ij * service_pkts`` (the
Psi-hat_1 contribution).  When the controller passes per-node energy
prices (energy-aware backpressure, the default), the weight additionally
subtracts the marginal energy cost of the activation —
``price_tx * P_min * dt + price_rx * P_recv * dt`` — restoring the
drift coupling the paper's stage-wise decomposition drops; candidates
whose energy cost exceeds their backlog value are not scheduled at all.

After activation, per-band Foschini–Miljanic power control assigns the
minimal transmit powers meeting ``SINR >= Gamma`` (constraint 24);
links with no feasible power are dropped, realising the "otherwise"
branch of Eq. (1).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

import networkx as nx
import numpy as np

from repro.axes import AnyArray, LinkBandMat, LinkIds, LinkToNode, LinkVec, NodeVec
from repro.contracts import ContractChecker
from repro.control.decisions import ScheduleDecision, SlotObservation
from repro.core.arraystate import LinkArrayMapping
from repro.core.lyapunov import LyapunovConstants
from repro.model import NetworkModel
from repro.phy.capacity import max_link_capacity_bps
from repro.phy.interference import big_m_coefficient, max_power_array
from repro.phy.power_control import minimal_power_assignment_vec
from repro.exceptions import SolverError
from repro.solvers.linprog import LinearProgram, Sense
from repro.solvers.sequential_fix import sequential_fix
from repro.types import Link, LinkBand, NodeId, SchedulerKind, Transmission

#: Ignore links whose virtual backlog is below this (the paper's SF
#: pre-step fixes ``a_ij^m = 0`` whenever ``H_ij = 0``).
_H_EPS = 1e-12


class _SchedulerStatic(NamedTuple):
    """Frozen per-topology tables for the vectorized S1 pipeline.

    Attributes:
        link_tx: ``(L,)`` transmitter index per candidate link.
        link_rx: ``(L,)`` receiver index per candidate link.
        band_member: ``(L, M)`` bool form of the static common-band
            sets ``M_i ∩ M_j``.
        max_power_tx: ``(L,)`` transmitter power cap per link (W).
        recv_power_rx: ``(L,)`` receiver listening power per link (W).
        radios: ``(N,)`` radio budget per node (constraint 22).
    """

    link_tx: LinkToNode
    link_rx: LinkToNode
    band_member: LinkBandMat
    max_power_tx: LinkVec
    recv_power_rx: LinkVec
    radios: NodeVec


class _RadioBudget:
    """Stateful conflict callback for multi-radio sequential fix.

    The SF loop invokes the callback exactly once per variable fixed
    to 1; this tracks per-node radio usage and per-(node, band)
    exclusivity, returning the variables that just became infeasible.
    """

    def __init__(self, keys: List[LinkBand], radios: NodeVec) -> None:
        self._keys = keys
        self._radios = radios
        self._usage: Dict[NodeId, int] = {}
        self._band_used: set = set()

    def __call__(self, key: LinkBand) -> List[LinkBand]:
        tx, rx, band = key
        for node in (tx, rx):
            self._usage[node] = self._usage.get(node, 0) + 1
            self._band_used.add((node, band))

        exhausted = {
            node
            for node in (tx, rx)
            if self._usage[node] >= self._radios[node]
        }
        blocked: List[LinkBand] = []
        for other in self._keys:
            if other == key:
                continue
            otx, orx, oband = other
            if otx in exhausted or orx in exhausted:
                blocked.append(other)
            elif oband == band and (
                (otx, band) in self._band_used or (orx, band) in self._band_used
            ):
                # Constraints (20)/(21): one activity per node per band.
                blocked.append(other)
        return blocked


class LinkScheduler:
    """The S1 subproblem solver."""

    def __init__(
        self,
        model: NetworkModel,
        constants: LyapunovConstants,
        kind: SchedulerKind = SchedulerKind.SEQUENTIAL_FIX,
        checker: Optional[ContractChecker] = None,
    ) -> None:
        self._model = model
        self._constants = constants
        self._kind = kind
        self._checker = checker
        self._static_cache: Optional[Tuple[Tuple[Link, ...], _SchedulerStatic]] = None

    @property
    def kind(self) -> SchedulerKind:
        """The configured scheduling algorithm."""
        return self._kind

    def attach_contracts(self, checker: ContractChecker) -> None:
        """Validate every activation set against Eqs. 20-22 and 24."""
        self._checker = checker

    # ------------------------------------------------------------------
    # Candidate construction
    # ------------------------------------------------------------------

    def _service_pkts(self, band: int, observation: SlotObservation) -> float:
        """Packets/slot a successful transmission on ``band`` carries."""
        params = self._model.params
        bps = max_link_capacity_bps(
            observation.bands.bandwidth(band), params.sinr_threshold
        )
        return bps * params.slot_seconds / params.sessions.packet_size_bits

    def _access_mask(self, access: Mapping[NodeId, Iterable[int]]) -> np.ndarray:
        """``(N, M)`` bool form of per-node band sets.

        One row write per node: built once per run from the static sets,
        and once per slot from ``observation.band_access`` when dynamic
        availability is on.
        """
        mask = np.zeros(
            (self._model.num_nodes, self._model.spectrum.num_bands), dtype=bool
        )
        for node, bands in access.items():
            for band in bands:
                mask[node, band] = True
        return mask

    def _scheduler_static(self, links: Tuple[Link, ...]) -> _SchedulerStatic:
        """Per-topology index tables for the vectorized candidate pass.

        Cold path: built once per candidate-link tuple (keyed by
        identity) — radios, power caps, and the static band sets never
        change mid-run.  All tables are per-node arrays fancy-indexed by
        the frozen link endpoints, so construction is O(N + L) numpy
        work with no per-link Python loop.
        """
        cached = self._static_cache
        if cached is not None and cached[0] is links:
            return cached[1]
        topology = self._model.topology
        if topology.candidate_links is links:
            link_tx, link_rx = topology.link_arrays()
        else:
            count = len(links)
            link_tx = np.fromiter(
                (tx for tx, _ in links), dtype=np.intp, count=count
            )
            link_rx = np.fromiter(
                (rx for _, rx in links), dtype=np.intp, count=count
            )
        access = self._access_mask(self._model.spectrum.access_sets())
        num_nodes = self._model.num_nodes
        max_power = max_power_array(self._model.max_power_w, num_nodes)
        recv_power = np.fromiter(
            (node.radio.recv_power_w for node in self._model.nodes),
            dtype=float,
            count=num_nodes,
        )
        static = _SchedulerStatic(
            link_tx=link_tx,
            link_rx=link_rx,
            band_member=access[link_tx] & access[link_rx],
            max_power_tx=max_power[link_tx],
            recv_power_rx=recv_power[link_rx],
            radios=np.fromiter(
                (node.radio.num_radios for node in self._model.nodes),
                dtype=np.intp,
                count=num_nodes,
            ),
        )
        self._static_cache = (links, static)
        return static

    def _h_array(
        self, h_backlogs: Mapping[Link, float], links: Tuple[Link, ...]
    ) -> LinkVec:
        """``H_ij(t)`` as an ``(L,)`` array over ``links``.

        An array view over the same link index is used as is; any other
        mapping (the reference state's dict) is read once, in link
        order, with absent links at zero.
        """
        if isinstance(h_backlogs, LinkArrayMapping) and h_backlogs.links is links:
            return h_backlogs.values_array
        return np.fromiter(
            (h_backlogs.get(link, 0.0) for link in links),  # noqa: R040 - reference dict state only; the array state passes its (L,) view above
            dtype=float,
            count=len(links),
        )

    def _candidate_grid(
        self,
        observation: SlotObservation,
        h_arr: LinkVec,
        energy_prices: Optional[Mapping[NodeId, float]],
        links: Tuple[Link, ...],
        within: Optional[np.ndarray] = None,
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Net candidate weights as ``(active links, bands)`` arrays.

        Returns ``(active, keep, weight)`` — the active link positions,
        the survivor mask, and the weight matrix — or ``None`` when no
        link clears the backlog floor.  The elementwise float64 chain is
        ``beta * H * service``, less the priced transmit and listening
        energy when ``energy_prices`` is given.

        ``within`` restricts the scan to a subset of frozen link
        positions (the sharded loop passes each shard's owned links);
        every weight is an elementwise function of its own row, so the
        restricted grid is the exact row-slice of the full one.
        """
        beta = self._constants.beta
        params = self._model.params
        dt = params.slot_seconds
        static = self._scheduler_static(links)
        if within is None:
            active = np.flatnonzero(h_arr > _H_EPS)
        else:
            active = within[h_arr[within] > _H_EPS]
        if active.size == 0:
            return None

        num_bands = static.band_member.shape[1]
        service = np.fromiter(
            (self._service_pkts(band, observation) for band in range(num_bands)),
            dtype=float,
            count=num_bands,
        )
        tx_idx = static.link_tx[active]
        rx_idx = static.link_rx[active]
        if observation.band_access is not None:
            access = self._access_mask(observation.band_access)
            member = access[tx_idx] & access[rx_idx]
        else:
            member = static.band_member[active]

        keep = member & (service[None, :] > 0.0)
        weight = (beta * h_arr[active])[:, None] * service[None, :]
        if energy_prices is not None:
            noise = np.fromiter(
                (
                    self._model.noise_power_w(observation.bands.bandwidth(band))
                    for band in range(num_bands)
                ),
                dtype=float,
                count=num_bands,
            )
            g_link = observation.gains.pairs(tx_idx, rx_idx)
            power = (params.sinr_threshold * noise)[None, :] / g_link[:, None]
            keep &= power <= static.max_power_tx[active][:, None]
            if isinstance(energy_prices, np.ndarray):
                price = energy_prices
            else:
                price = np.fromiter(
                    (
                        energy_prices.get(node, 0.0)
                        for node in range(self._model.num_nodes)  # noqa: R040 - reference dict-price path; the array path passes the (N,) price vector directly
                    ),
                    dtype=float,
                    count=self._model.num_nodes,
                )
            weight = weight - (price[tx_idx][:, None] * power) * dt
            weight = weight - ((price[rx_idx] * static.recv_power_rx[active]) * dt)[
                :, None
            ]
        keep &= weight > 0.0
        return active, keep, weight

    def _candidate_positions(
        self,
        observation: SlotObservation,
        h_arr: LinkVec,
        energy_prices: Optional[Mapping[NodeId, float]],
        links: Tuple[Link, ...],
        within: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Survivor candidates as ``(link positions, bands, weights)``.

        The survivors come straight off the ``keep`` mask with no Python
        loop, in candidate-link order and then ascending band.
        ``within`` restricts the scan to a subset of link positions (see
        :meth:`_candidate_grid`).
        """
        grid = self._candidate_grid(
            observation, h_arr, energy_prices, links, within=within
        )
        if grid is None:
            empty_pos = np.zeros(0, dtype=np.intp)
            return empty_pos, np.zeros(0, dtype=np.intp), np.zeros(0)
        active, keep, weight = grid
        rows, bands = np.nonzero(keep)
        return active[rows], bands, weight[rows, bands]

    def candidate_slice(
        self,
        observation: SlotObservation,
        h_backlogs: Mapping[Link, float],
        energy_prices: Optional[Mapping[NodeId, float]] = None,
        within: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Public shard entry: survivor candidates over a link subset.

        The sharded controller computes each shard's candidates with
        ``within=shard.owned_link_pos`` and merges the slices through
        :meth:`schedule_from_candidates`; on the full index
        (``within=None``) this is exactly the monolithic candidate scan.
        """
        links = self._model.topology.candidate_links
        return self._candidate_positions(
            observation,
            self._h_array(h_backlogs, links),
            energy_prices,
            links,
            within=within,
        )

    # ------------------------------------------------------------------
    # Activation algorithms
    # ------------------------------------------------------------------

    def _conflicting(
        self, key: LinkBand, others: Iterable[LinkBand]
    ) -> List[LinkBand]:
        """Link-bands excluded once ``key`` is active (single radio).

        The budget-aware generalisation lives in :class:`_RadioBudget`;
        this is the fast path when every involved node has one radio.
        """
        tx, rx, _ = key
        busy = {tx, rx}
        return [
            other
            for other in others
            if other != key and (other[0] in busy or other[1] in busy)
        ]

    def _make_conflicts(self, keys: List[LinkBand], radios: NodeVec):
        """The conflict callback for the SF loop, radio-budget aware."""
        involved = [node for key in keys for node in key[:2]]
        if np.all(radios[involved] == 1):
            return lambda key: self._conflicting(key, keys)
        return _RadioBudget(keys, radios)

    def _radio_constraints(
        self, lp: LinearProgram, keys: List[LinkBand], radios: NodeVec
    ) -> None:
        """Constraints (20)-(22) generalised to radio budgets.

        Per node: total activity <= num_radios; per (node, band):
        activity <= 1 (constraints (20)/(21), which the budget row only
        implies in the single-radio case).
        """
        per_node: Dict[NodeId, List[LinkBand]] = {}
        per_node_band: Dict[Tuple[NodeId, int], List[LinkBand]] = {}
        for tx, rx, band in keys:
            key = (tx, rx, band)
            for node in (tx, rx):
                per_node.setdefault(node, []).append(key)
                per_node_band.setdefault((node, band), []).append(key)
        for node, involved in per_node.items():
            lp.add_constraint(
                {key: 1.0 for key in involved},
                Sense.LE,
                float(radios[node]),
                name=f"radios[{node}]",
            )
        for (node, band), involved in per_node_band.items():
            if radios[node] > 1 and len(involved) > 1:
                lp.add_constraint(
                    {key: 1.0 for key in involved},
                    Sense.LE,
                    1.0,
                    name=f"band_excl[{node},{band}]",
                )

    def _select_sequential_fix(
        self, weights: Dict[LinkBand, float], radios: NodeVec
    ) -> List[LinkBand]:
        keys = sorted(weights)

        def build_lp(fixed: Mapping[LinkBand, float]) -> LinearProgram:
            lp = LinearProgram()
            for key in keys:
                # Minimisation form of Psi-hat_1: negative weights.
                lp.add_variable(key, objective=-weights[key], lower=0.0, upper=1.0)
            for key, value in fixed.items():
                lp.fix_variable(key, float(value))
            self._radio_constraints(lp, keys, radios)
            return lp

        fixed = sequential_fix(
            binary_keys=keys,
            build_lp=build_lp,
            conflicts=self._make_conflicts(keys, radios),
        )
        return [key for key, value in fixed.items() if value == 1]

    def _select_sequential_fix_sinr(
        self,
        weights: Dict[LinkBand, float],
        observation: SlotObservation,
        radios: NodeVec,
    ) -> List[LinkBand]:
        """SF with the big-M SINR constraints (24) in the relaxation.

        Adds a power variable per candidate link-band (linearising the
        ``P * a`` product with ``P <= P_max * a``) and the constraint

            g_ij P_ijm + M_ijm (1 - a_ijm)
                >= Gamma (eta W_m + sum_{(k,v) != (i,j)} g_kj P_kvm),

        so the LP already prices co-band interference when choosing
        which variable to fix — fewer selections die in power control.
        """
        keys = sorted(weights)
        ends = np.array(keys, dtype=np.intp).reshape(-1, 3)  # tx, rx, band
        gains = observation.gains
        params = self._model.params
        max_power = self._model.max_power_w
        #: Positions into ``keys`` per band, bands in first-seen order.
        by_band: Dict[int, List[int]] = {}
        for row, key in enumerate(keys):
            by_band.setdefault(key[2], []).append(row)
        # Per band, one gain block ``[k][l] = g(tx_k, rx_l)`` over its
        # members and the big-M constants: both depend on the slot
        # only, not on the variables ``sequential_fix`` has fixed.
        blocks: Dict[int, List[List[float]]] = {}
        big_m: Dict[LinkBand, float] = {}
        noise_of: Dict[int, float] = {}
        for band, rows in by_band.items():
            noise_of[band] = self._model.noise_power_w(
                observation.bands.bandwidth(band)
            )
            blocks[band] = gains.submatrix(ends[rows, 0], ends[rows, 1]).tolist()
            for row in rows:
                key = keys[row]
                big_m[key] = big_m_coefficient(
                    gains,
                    key[0],
                    key[1],
                    noise_of[band],
                    params.sinr_threshold,
                    max_power,
                )

        def build_lp(fixed: Mapping[LinkBand, float]) -> LinearProgram:
            lp = LinearProgram()
            for key in keys:
                lp.add_variable(key, objective=-weights[key], lower=0.0, upper=1.0)
            for key in keys:
                tx = key[0]
                lp.add_variable(("P", key), lower=0.0, upper=max_power[tx])
            for key, value in fixed.items():
                lp.fix_variable(key, float(value))
                if value == 0:
                    lp.fix_variable(("P", key), 0.0)

            self._radio_constraints(lp, keys, radios)

            for band, rows in by_band.items():
                noise = noise_of[band]
                block = blocks[band]
                for i, row in enumerate(rows):
                    key = keys[row]
                    tx, rx, _ = key
                    # Linearise P * a: power flows only when scheduled.
                    lp.add_constraint(
                        {
                            ("P", key): 1.0,
                            key: -max_power[tx],
                        },
                        Sense.LE,
                        0.0,
                        name=f"pow_link[{key}]",
                    )
                    # g_ij P + M (1 - a) - Gamma sum g_kj P_other
                    #   >= Gamma eta W.
                    coeffs: Dict = {
                        ("P", key): block[i][i],
                        key: -big_m[key],
                    }
                    for j, other_row in enumerate(rows):
                        other = keys[other_row]
                        # Links sharing a node with (tx, rx) are already
                        # excluded by the single-radio conflicts in the
                        # binary solution; pricing their (fractional)
                        # self-interference here would exceed the big-M
                        # envelope, which only covers k != i, j.
                        if other == key or other[0] in (tx, rx):
                            continue
                        coeffs[("P", other)] = (
                            -params.sinr_threshold * block[j][i]
                        )
                    lp.add_constraint(
                        coeffs,
                        Sense.GE,
                        params.sinr_threshold * noise - big_m[key],
                        name=f"sinr[{key}]",
                    )
            return lp

        fixed = sequential_fix(
            binary_keys=keys,
            build_lp=build_lp,
            conflicts=self._make_conflicts(keys, radios),
            check_feasibility=True,
        )
        return [key for key, value in fixed.items() if value == 1]

    def _select_matching(
        self, weights: Dict[LinkBand, float], radios: NodeVec
    ) -> List[LinkBand]:
        """Exact S1 optimum via maximum-weight matching.

        Constraint (22) makes every node a unit-capacity resource, so
        the activation problem is a matching on the undirected node
        graph; each undirected edge takes its best direction and band,
        the first-inserted on equal weights.  Only exact for
        single-radio nodes — with budgets the problem is a
        degree-constrained subgraph, which this solver does not handle.
        """
        if np.any(radios[[node for key in weights for node in key[:2]]] > 1):
            raise SolverError(
                "MAX_WEIGHT_MATCHING is exact only for single-radio nodes; "
                "use SEQUENTIAL_FIX or GREEDY with num_radios > 1"
            )
        best: Dict[Tuple[NodeId, NodeId], Tuple[float, LinkBand]] = {}
        for (tx, rx, band), weight in weights.items():
            edge = (min(tx, rx), max(tx, rx))
            if edge not in best or weight > best[edge][0]:
                best[edge] = (weight, (tx, rx, band))

        graph = nx.Graph()
        for (u, v), (weight, _) in best.items():
            graph.add_edge(u, v, weight=weight)
        matching = nx.max_weight_matching(graph, maxcardinality=False)
        return [best[(min(u, v), max(u, v))][1] for u, v in matching]

    def _select_greedy_arrays(
        self,
        link_pos: LinkIds,
        bands: AnyArray,
        weights: AnyArray,
        links: Tuple[Link, ...],
    ) -> Tuple[List[int], List[int]]:
        """GREEDY: take link-bands by descending weight while they fit.

        ``np.lexsort`` over ``(-weight, tx, rx, band)`` orders the
        candidates by weight with ties broken on the ``(tx, rx, band)``
        key (keys are unique); the conflict scan then does the
        usage/band-exclusivity bookkeeping over plain Python ints.

        Returns the chosen candidates as parallel ``(link position,
        band)`` lists, in selection (descending-weight) order.
        """
        static = self._scheduler_static(links)
        tx_arr = static.link_tx[link_pos]
        rx_arr = static.link_rx[link_pos]
        order = np.lexsort((bands, rx_arr, tx_arr, -weights))
        tx_l = tx_arr[order].tolist()
        rx_l = rx_arr[order].tolist()
        band_l = bands[order].tolist()
        pos_l = link_pos[order].tolist()

        radios = static.radios.tolist()
        usage = [0] * self._model.num_nodes
        band_used: set = set()
        chosen_pos: List[int] = []
        chosen_band: List[int] = []
        for i in range(len(pos_l)):
            tx = tx_l[i]
            rx = rx_l[i]
            if usage[tx] >= radios[tx] or usage[rx] >= radios[rx]:
                continue
            band = band_l[i]
            if (tx, band) in band_used or (rx, band) in band_used:
                continue  # constraints (20)/(21)
            chosen_pos.append(pos_l[i])
            chosen_band.append(band)
            usage[tx] += 1
            usage[rx] += 1
            band_used.add((tx, band))
            band_used.add((rx, band))
        return chosen_pos, chosen_band

    def _select(
        self,
        link_pos: LinkIds,
        bands: AnyArray,
        weights: AnyArray,
        observation: SlotObservation,
        links: Tuple[Link, ...],
    ) -> Tuple[List[int], List[int]]:
        """Run the configured selector over the candidate arrays.

        GREEDY works on the arrays directly.  The LP-rounding and
        matching selectors take a ``{(tx, rx, band): weight}`` dict in
        candidate-link order, then ascending band (the matching keeps
        the first-inserted of equal-weight link-bands).  The dict keys
        are Python ints, because ``sequential_fix`` tie-breaks on
        ``repr(key)`` and numpy scalars repr differently.

        Returns the chosen ``(link position, band)`` lists in selection
        order.
        """
        if self._kind is SchedulerKind.GREEDY:
            return self._select_greedy_arrays(link_pos, bands, weights, links)
        static = self._scheduler_static(links)
        order = np.lexsort((bands, link_pos))
        pos_sorted = link_pos[order]
        keys = list(
            zip(
                static.link_tx[pos_sorted].tolist(),
                static.link_rx[pos_sorted].tolist(),
                bands[order].tolist(),
            )
        )
        by_key = dict(zip(keys, weights[order].tolist()))
        if self._kind is SchedulerKind.SEQUENTIAL_FIX:
            selected = self._select_sequential_fix(by_key, static.radios)
        elif self._kind is SchedulerKind.SEQUENTIAL_FIX_SINR:
            selected = self._select_sequential_fix_sinr(
                by_key, observation, static.radios
            )
        else:
            selected = self._select_matching(by_key, static.radios)
        pos_of = dict(zip(keys, pos_sorted.tolist()))
        return [pos_of[key] for key in selected], [key[2] for key in selected]

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def schedule(
        self,
        observation: SlotObservation,
        h_backlogs: Mapping[Link, float],
        forbidden_links: Optional[Iterable[Link]] = None,
        energy_prices: Optional[Mapping[NodeId, float]] = None,
    ) -> ScheduleDecision:
        """Solve S1 for one slot.

        Every ``SchedulerKind`` runs the same pipeline: candidate
        arrays over the frozen link index, the configured selector, then
        per-band batched Foschini–Miljanic power control.

        Args:
            observation: the slot's realised random state.
            h_backlogs: current ``H_ij(t)`` per candidate link.
            forbidden_links: links excluded up front (used by the
                curtailment re-run and the one-hop baselines).
            energy_prices: optional per-node marginal energy prices for
                energy-aware weights; None recovers the paper's S1.

        Returns:
            The activation set with minimal feasible powers and the
            per-link realised service in packets.
        """
        links = self._model.topology.candidate_links
        h_arr = self._h_array(h_backlogs, links)
        link_pos, bands, weights = self._candidate_positions(
            observation, h_arr, energy_prices, links
        )
        return self._decide(
            link_pos, bands, weights, observation, h_arr, forbidden_links, links
        )

    def schedule_from_candidates(
        self,
        link_pos: AnyArray,
        bands: AnyArray,
        weights: AnyArray,
        observation: SlotObservation,
        h_backlogs: Mapping[Link, float],
        forbidden_links: Optional[Iterable[Link]],
        links: Tuple[Link, ...],
    ) -> ScheduleDecision:
        """The selection + power-control tail of :meth:`schedule`.

        Accepts precomputed candidate ``(link position, band, weight)``
        triples in **any** order: every selector first puts them in a
        canonical order (GREEDY lexsorts the unique ``(weight, tx, rx,
        band)`` keys, the others sort by ``(link, band)``), so any
        concatenation of per-shard candidate slices produces the same
        decision as the monolithic scan.  The sharded controller calls
        this directly as its S1 merge point (interference coordination
        is global — the per-band power solve couples all co-band links).
        """
        return self._decide(
            link_pos,
            bands,
            weights,
            observation,
            self._h_array(h_backlogs, links),
            forbidden_links,
            links,
        )

    def _decide(
        self,
        link_pos: AnyArray,
        bands: AnyArray,
        weights: AnyArray,
        observation: SlotObservation,
        h_arr: LinkVec,
        forbidden_links: Optional[Iterable[Link]],
        links: Tuple[Link, ...],
    ) -> ScheduleDecision:
        """Forbidden-link filter, selection, power control, contracts."""
        if forbidden_links:
            banned = set(forbidden_links)
            if banned:
                allowed = np.fromiter(
                    (links[pos] not in banned for pos in link_pos),
                    dtype=bool,
                    count=link_pos.shape[0],
                )
                link_pos = link_pos[allowed]
                bands = bands[allowed]
                weights = weights[allowed]
        if link_pos.size == 0:
            return ScheduleDecision()
        chosen_pos, chosen_band = self._select(
            link_pos, bands, weights, observation, links
        )
        decision = self._power_control_vectorized(
            chosen_pos, chosen_band, observation, h_arr, links
        )
        if self._checker is not None and self._checker.enabled:
            self._checker.check_schedule(
                self._model, observation, decision, observation.slot
            )
        return decision

    def _power_control_vectorized(
        self,
        chosen_pos: List[int],
        chosen_band: List[int],
        observation: SlotObservation,
        h_arr: LinkVec,
        links: Tuple[Link, ...],
    ) -> ScheduleDecision:
        """Per-band minimal powers for the chosen link-bands (Eq. 24).

        Per band, in ascending band order, one
        :func:`minimal_power_assignment_vec` call over the band's links
        in selection order; priorities come straight off the ``H``
        array, so the lowest-backlog link is dropped first on ties.
        """
        decision = ScheduleDecision()
        static = self._scheduler_static(links)
        by_band: Dict[int, List[int]] = {}
        for pos, band in zip(chosen_pos, chosen_band):
            by_band.setdefault(band, []).append(pos)

        gains = observation.gains
        for band, positions in sorted(by_band.items()):
            noise = self._model.noise_power_w(observation.bands.bandwidth(band))
            idx = np.asarray(positions, dtype=np.intp)
            kept, powers, dropped = minimal_power_assignment_vec(
                static.link_tx[idx],
                static.link_rx[idx],
                gains,
                noise,
                self._model.params.sinr_threshold,
                static.max_power_tx[idx],
                h_arr[idx],
            )
            service = self._service_pkts(band, observation)
            for j, power in zip(kept.tolist(), powers.tolist()):
                link = links[positions[j]]
                decision.transmissions.append(
                    Transmission(tx=link[0], rx=link[1], band=band, power_w=power)
                )
                decision.link_service_pkts[link] = (
                    decision.link_service_pkts.get(link, 0.0) + service
                )
            for j in dropped:
                link = links[positions[j]]
                decision.dropped.append((link[0], link[1], band))
        return decision
