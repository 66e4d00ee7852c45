"""Minimal-power assignment for a co-band link set (Foschini–Miljanic).

The paper's S1 schedules links and leaves the transmit powers
``P_ij^m`` to the physical-model constraint (24).  Given the set of
links scheduled on one band, the classical minimum solution that makes
every SINR exactly ``Gamma`` solves the linear system

    (I - Gamma * F) p = Gamma * u,

where ``F[l, k] = g(tx_k, rx_l) / g(tx_l, rx_l)`` for ``k != l`` and
``u[l] = eta * W / g(tx_l, rx_l)``.  The system has a positive solution
iff the spectral radius of ``Gamma * F`` is below one; links whose
required power exceeds their cap (or that make the set infeasible) are
dropped in increasing priority order, reproducing Eq. (1)'s
"otherwise -> capacity 0" branch.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.axes import LinkToNode, LinkVec
from repro.phy.propagation import ComputedPairGains
from repro.units import Linear, Watts

#: Relative SINR error above which a solve gets one refinement step;
#: well below the contract checker's ``SINR_RTOL``.
_REFINE_RTOL = 1e-9


def minimal_power_assignment_vec(
    link_tx: LinkToNode,
    link_rx: LinkToNode,
    gains: ComputedPairGains,
    noise_power_w: Watts,
    sinr_threshold: Linear,
    caps: LinkVec,
    priorities: LinkVec,
) -> Tuple[np.ndarray, LinkVec, List[int]]:
    """Minimal feasible powers for one co-band link set, dropping as needed.

    The direct and cross gains come from one ``submatrix`` block
    (``cross[l, k] = g(tx_k, rx_l)``), and each drop
    iteration re-solves on an ``np.ix_`` submatrix of the same values.
    While some link needs more than its cap, the worst offender is
    dropped: the first index of the lexicographic maximum of ``(over,
    -priority)``, where ``over`` is power over cap.  When the set is
    jointly infeasible (spectral radius >= 1, every ``over`` infinite)
    the first index of minimal priority goes instead.

    Args:
        link_tx / link_rx: ``(n,)`` endpoint indices of the co-band set.
        gains: the slot's pair-gain view.
        caps: ``(n,)`` per-link transmit power caps (W).
        priorities: ``(n,)`` keep-priorities (higher survives longer).

    Returns:
        ``(kept, powers, dropped)``: positions into the input arrays of
        surviving links (input order), their minimal powers, and the
        dropped positions in drop order.
    """
    n = int(link_tx.shape[0])
    block = gains.submatrix(link_tx, link_rx)  # [k, l] = g(tx_k, rx_l)
    direct = block.diagonal().copy()
    cross = block.T.copy()
    np.fill_diagonal(cross, 0.0)
    # Hoisted out of the drop loop: the coupling ratios and noise terms
    # are row-local, so the surviving submatrix is a pure fancy-index
    # of the full-set values — the same float64 chain
    # ``(Gamma * cross[l, k]) / direct[l]`` either way.
    full_coupling = sinr_threshold * cross / direct[:, None]
    full_noise = sinr_threshold * noise_power_w / direct
    sel = np.arange(n)
    dropped: List[int] = []
    eye = np.eye(n)
    infeasible = np.full(n, np.inf)
    while sel.size:
        coupling = full_coupling[sel[:, None], sel[None, :]]
        noise_term = full_noise[sel]
        system = eye[: sel.size, : sel.size] - coupling
        try:
            powers = np.linalg.solve(system, noise_term)
            if np.any(powers <= 0) or not np.all(np.isfinite(powers)):
                powers = infeasible[: sel.size]
        except np.linalg.LinAlgError:
            powers = infeasible[: sel.size]
        over = powers / caps[sel]
        if np.all(over <= 1.0 + 1e-12):
            # Link l's SINR misses Gamma by residual[l] / powers[l].
            # Pivoting can cancel a tiny power against a large one (a
            # near-zero-distance link next to a weak one), so the set
            # about to be accepted gets one step of iterative refinement
            # when that miss is not negligible, and is then re-checked.
            residual = noise_term - system @ powers
            if not np.any(np.abs(residual) > _REFINE_RTOL * powers):
                return sel, powers, dropped
            powers = powers + np.linalg.solve(system, residual)
            over = powers / caps[sel]
            if np.all((over > 0.0) & (over <= 1.0 + 1e-12)):
                return sel, powers, dropped
        peak = over.max()
        ties = np.flatnonzero(over == peak)
        if ties.size == 1:
            worst = int(ties[0])
        else:
            worst = int(ties[np.argmin(priorities[sel[ties]])])
        if np.isinf(over[worst]):
            worst = int(np.argmin(priorities[sel]))
        dropped.append(int(sel[worst]))
        sel = np.delete(sel, worst)
    return sel, np.zeros(0), dropped

