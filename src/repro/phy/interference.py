"""Physical-model feasibility helpers and the big-M constant of Eq. (24).

These are the ingredients of the paper's linearised SINR constraint:

    g_ij P_ij^m a_ij^m + M_ij^m (1 - a_ij^m)
        >= Gamma (eta_j W_m + sum_{k!=i} g_kj P_kv^m a_kv^m),

with ``M_ij^m = Gamma (eta_j W_m + sum_{k!=i} g_kj P_max^k)`` chosen so
the constraint is vacuous when the link is not scheduled.

The sparse-mask helpers at the bottom bound *which* transmitters can
meaningfully interfere at all: inverting the path-loss law against a
relative noise floor gives an interference radius, and bucketing nodes
through :class:`~repro.network.geometry.UniformGridIndex` turns the
all-pairs interference graph into a scipy.sparse mask over nodes (and,
lifted through the frozen link index, over links).  The masks are
structural pruning aids for scale-out (sharding, ROADMAP item 2) and
analysis — the bit-exact control path never drops an interferer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Union

import numpy as np

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

from repro.network.geometry import UniformGridIndex
from repro.phy.propagation import MIN_DISTANCE_M, ComputedPairGains
from repro.types import NodeId
from repro.units import Linear, Meters, Watts


def _seq_sum(values: np.ndarray) -> float:
    """Strict left-to-right sum, matching Python's builtin ``sum``.

    Local copy of :func:`repro.core.arraystate.seq_sum` — ``phy`` is a
    leaf package imported during ``core``'s own initialisation, so it
    cannot import from ``core`` without a cycle.
    """
    flat = np.ravel(values)
    if flat.size == 0:
        return 0.0
    return float(np.add.accumulate(flat)[-1])


def zero_interference_feasible(
    gain: Linear,
    max_power_w: Watts,
    noise_power_w: Watts,
    sinr_threshold: Linear,
) -> bool:
    """True if a link clears ``Gamma`` at max power with no interference.

    This is the necessary condition for a link ever being schedulable;
    the topology builder uses it for candidate-link pruning.
    """
    if noise_power_w <= 0:
        raise ValueError(f"noise power must be positive, got {noise_power_w}")
    return gain * max_power_w >= sinr_threshold * noise_power_w


def max_power_array(
    max_power_w: Union[Dict[NodeId, Watts], np.ndarray], num_nodes: int
) -> np.ndarray:
    """``(N,)`` per-node power caps from a dict or a ready array.

    Cold path: callers cache the result per model — the caps never
    change mid-run.
    """
    if isinstance(max_power_w, np.ndarray):
        return max_power_w
    return np.fromiter(
        (max_power_w[k] for k in range(num_nodes)), dtype=float, count=num_nodes
    )


def big_m_coefficient(
    gains: ComputedPairGains,
    tx: NodeId,
    rx: NodeId,
    noise_power_w: Watts,
    sinr_threshold: Linear,
    max_power_w: Union[Dict[NodeId, Watts], np.ndarray],
) -> Watts:
    """The constant ``M_ij^m`` of Eq. (24).

    Set to the worst-case right-hand side — every other node
    transmitting at its maximum power — so that a de-scheduled link
    (``a_ij^m = 0``) imposes no restriction.  The interference sum runs
    as one vectorized pass over the gain column; :func:`seq_sum` keeps
    the accumulation order of the historical per-node loop, so the
    constant is bit-identical.
    """
    column = gains.column(rx)
    num_nodes = column.shape[0]
    power = max_power_array(max_power_w, num_nodes)
    contributions = column * power
    mask = np.ones(num_nodes, dtype=bool)
    mask[tx] = False
    mask[rx] = False
    worst_interference = _seq_sum(contributions[mask])
    return sinr_threshold * (noise_power_w + worst_interference)


def interference_range_m(
    max_power_w: Watts,
    noise_power_w: Watts,
    propagation_constant: float,
    path_loss_exponent: float,
    relative_floor: float = 1e-2,
) -> Meters:
    """Distance beyond which a max-power transmitter is negligible.

    Inverts the clamped path-loss law against ``relative_floor`` times
    the thermal-noise power: past ``d* = (C P_max / (floor * eta W))
    ^(1/gamma)`` a transmitter's worst-case received interference is
    below that fraction of the noise floor.  With ``relative_floor = 1``
    this is exactly the communication (candidate-link) radius; the
    default 1e-2 keeps interferers contributing >= 1% of noise.
    """
    if noise_power_w <= 0:
        raise ValueError(f"noise power must be positive, got {noise_power_w}")
    if relative_floor <= 0:
        raise ValueError(f"relative_floor must be positive, got {relative_floor}")
    target = relative_floor * noise_power_w
    peak_gain = propagation_constant * MIN_DISTANCE_M**-path_loss_exponent
    if peak_gain * max_power_w < target:
        return 0.0
    radius = (propagation_constant * max_power_w / target) ** (
        1.0 / path_loss_exponent
    )
    return max(radius, MIN_DISTANCE_M)


def potential_interferer_matrix(
    positions: np.ndarray,
    radius_m: Meters,
    grid: Union[UniformGridIndex, None] = None,
) -> "csr_matrix":
    """Sparse ``(N, N)`` bool mask: ``[i, j]`` iff ``d(i, j) <= radius``.

    Row ``i`` marks the receivers node ``i`` can meaningfully disturb
    (and, symmetrically, the transmitters that can disturb node ``i``).
    Built per grid bucket, so construction is O(N * density * r^2)
    rather than all-pairs; the diagonal is excluded.
    """
    from scipy import sparse

    pos = np.asarray(positions, dtype=float)
    num_nodes = pos.shape[0]
    if grid is None:
        grid = UniformGridIndex(pos, cell_size_m=max(radius_m, MIN_DISTANCE_M))
    rows = []
    cols = []
    for row, col, members in grid.nonempty_cells():
        candidates = grid.block_members(row, col, reach=1)
        diffs = pos[members][:, None, :] - pos[candidates][None, :, :]
        dist = np.sqrt((diffs**2).sum(axis=2))
        near = (dist <= radius_m) & (candidates[None, :] != members[:, None])
        pair_rows, pair_cols = np.nonzero(near)
        rows.append(members[pair_rows])
        cols.append(candidates[pair_cols])
    row_idx = np.concatenate(rows) if rows else np.zeros(0, dtype=np.intp)
    col_idx = np.concatenate(cols) if cols else np.zeros(0, dtype=np.intp)
    return sparse.csr_matrix(
        (np.ones(row_idx.shape[0], dtype=bool), (row_idx, col_idx)),
        shape=(num_nodes, num_nodes),
    )


def link_interference_mask(
    node_mask: "csr_matrix",
    link_tx: np.ndarray,
    link_rx: np.ndarray,
) -> "csr_matrix":
    """Lift a node interference mask to the frozen link index.

    Returns a sparse ``(L, L)`` bool mask where ``[l, k]`` is True when
    link ``k``'s transmitter can disturb link ``l``'s receiver (the
    co-band coupling structure of Eq. 24).  Intended for moderate L or
    sharded sub-problems — at city-scale L the per-shard submasks are
    the usable form.
    """
    sub = node_mask[np.asarray(link_tx)][:, np.asarray(link_rx)]
    return sub.T.tocsr()
