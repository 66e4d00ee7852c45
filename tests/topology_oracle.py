"""Brute-force topology oracle: the all-pairs candidate-link builder.

The library builds topologies with the uniform-grid builder only
(``repro.network.topology``).  This module keeps the O(N^2) reference
it replaced: it materialises the full ``(N, N)`` distance and gain
matrices, scans every ordered pair for zero-interference feasibility
at max power, and sorts each transmitter's receivers by distance.
Tests compare the grid builder's link set, link order and per-link
gains, and the pair-gain view's ``pairs`` / ``submatrix`` / ``column``
blocks, against it bit for bit.
"""

from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.config.parameters import ScenarioParameters
from repro.network.node import Node
from repro.phy.propagation import gain_matrix
from repro.types import Link, NodeId, NodeKind


class DenseTopology(NamedTuple):
    """What the all-pairs builder produces."""

    candidate_links: Tuple[Link, ...]
    out_neighbors: Dict[NodeId, Tuple[NodeId, ...]]
    in_neighbors: Dict[NodeId, Tuple[NodeId, ...]]
    link_tx: np.ndarray
    link_rx: np.ndarray
    link_gains: np.ndarray
    distances: np.ndarray
    gains: np.ndarray


def dense_distances(positions: np.ndarray) -> np.ndarray:
    """``(N, N)`` Euclidean distances, all pairs."""
    diffs = positions[:, None, :] - positions[None, :, :]
    return np.sqrt((diffs**2).sum(axis=2))


def _max_range_feasible(
    params: ScenarioParameters, gains: np.ndarray, tx: NodeId, rx: NodeId
) -> bool:
    """Zero-interference feasibility of link (tx, rx) at max power.

    Uses the smallest possible bandwidth (the cellular band) for the
    noise term, which is the most permissive case: if the link fails
    here it fails on every band in every slot.
    """
    p_max = params.node_params(tx).max_tx_power_w
    noise = params.noise_density_w_per_hz * params.spectrum.cellular_bandwidth_hz
    return gains[tx, rx] * p_max >= params.sinr_threshold * noise


def build_topology_dense(
    params: ScenarioParameters, nodes: Sequence[Node]
) -> DenseTopology:
    """The all-pairs reference builder."""
    num_nodes = len(nodes)
    positions = np.array([[n.position.x, n.position.y] for n in nodes])
    distances = dense_distances(positions)
    gains = gain_matrix(
        distances, params.propagation_constant, params.path_loss_exponent
    )

    links: List[Link] = []
    out_neighbors: Dict[NodeId, List[NodeId]] = {n: [] for n in range(num_nodes)}
    in_neighbors: Dict[NodeId, List[NodeId]] = {n: [] for n in range(num_nodes)}
    for tx in range(num_nodes):
        feasible = [
            rx
            for rx in range(num_nodes)
            if rx != tx and _max_range_feasible(params, gains, tx, rx)
        ]
        feasible.sort(key=lambda rx: distances[tx, rx])
        # Base stations keep links to every feasible receiver; the
        # neighbour cap only prunes user-originated links.
        is_user = params.node_kind(tx) is NodeKind.MOBILE_USER
        if params.neighbor_limit is not None and is_user:
            feasible = feasible[: params.neighbor_limit]
        for rx in feasible:
            links.append((tx, rx))
            out_neighbors[tx].append(rx)
            in_neighbors[rx].append(tx)

    count = len(links)
    link_tx = np.fromiter((tx for tx, _ in links), dtype=np.intp, count=count)
    link_rx = np.fromiter((rx for _, rx in links), dtype=np.intp, count=count)
    return DenseTopology(
        candidate_links=tuple(links),
        out_neighbors={n: tuple(v) for n, v in out_neighbors.items()},
        in_neighbors={n: tuple(v) for n, v in in_neighbors.items()},
        link_tx=link_tx,
        link_rx=link_rx,
        link_gains=gains[link_tx, link_rx],
        distances=distances,
        gains=gains,
    )
