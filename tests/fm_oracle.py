"""Scalar Foschini–Miljanic oracle for the batched power control.

A direct transcription of the minimal-power assignment (Eq. 24): read
every gain pair through scalar ``gains[tx, rx]`` indexing, solve
``(I - Gamma F) p = Gamma u`` on the surviving set, and drop the worst
cap violator — ties toward the lowest priority, joint infeasibility by
priority alone — until the rest fit.  The set it accepts gets one step
of iterative refinement when the solve lost accuracy.
:func:`checked_min_powers` runs
:func:`repro.phy.minimal_power_assignment_vec` and asserts that it
matches this oracle bit for bit.  Hand-written gain matrices reach the
batched routine through :class:`MatrixGains`.
"""

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.phy import minimal_power_assignment_vec
from repro.types import Link

#: ``(powers per surviving link in input order, dropped links in drop order)``.
Assignment = Tuple[Dict[Link, float], List[Link]]


class MatrixGains:
    """Test double: the pair-gain interface over a hand-written matrix.

    Lets cases that need gains no placement produces (exact ties,
    zero cross gains) drive the routines that take a pair-gain view.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        self._matrix = np.asarray(matrix, dtype=float)

    def __getitem__(self, key) -> float:
        return float(self._matrix[key])

    def pairs(self, tx: np.ndarray, rx: np.ndarray) -> np.ndarray:
        return self._matrix[tx, rx]

    def submatrix(self, tx: np.ndarray, rx: np.ndarray) -> np.ndarray:
        return self._matrix[np.asarray(tx)[:, None], np.asarray(rx)[None, :]]

    def column(self, rx: int) -> np.ndarray:
        return self._matrix[:, rx]


def _system(links, gains, noise_power_w, sinr_threshold):
    """``(I - Gamma F, Gamma u)`` for ``links``, one gain read per pair."""
    n = len(links)
    direct = np.array([gains[tx, rx] for tx, rx in links])
    cross = np.zeros((n, n))
    for l, (_, rx_l) in enumerate(links):
        for k, (tx_k, _) in enumerate(links):
            if k != l:
                cross[l, k] = gains[tx_k, rx_l]
    system = np.eye(n) - sinr_threshold * cross / direct[:, None]
    return system, sinr_threshold * noise_power_w / direct


def _solve(system, noise_term) -> np.ndarray:
    """Exact minimal powers; +inf everywhere if jointly infeasible."""
    try:
        powers = np.linalg.solve(system, noise_term)
    except np.linalg.LinAlgError:
        return np.full(len(noise_term), np.inf)
    if np.any(powers <= 0) or not np.all(np.isfinite(powers)):
        return np.full(len(noise_term), np.inf)
    return powers


def scalar_min_powers(
    links: Sequence[Link],
    gains,
    noise_power_w: float,
    sinr_threshold: float,
    max_power_w: Dict[int, float],
    priority: Optional[Dict[Link, float]] = None,
) -> Assignment:
    """The oracle: minimal feasible powers, dropping links as needed."""
    active = list(links)
    priorities = priority or {}
    dropped: List[Link] = []
    while active:
        system, noise_term = _system(active, gains, noise_power_w, sinr_threshold)
        powers = _solve(system, noise_term)
        caps = np.array([max_power_w[tx] for tx, _ in active])
        over = powers / caps
        if np.all(over <= 1.0 + 1e-12):
            residual = noise_term - system @ powers
            if not np.any(np.abs(residual) > 1e-9 * powers):
                return {link: float(p) for link, p in zip(active, powers)}, dropped
            powers = powers + np.linalg.solve(system, residual)  # one refinement step
            over = powers / caps
            if np.all((over > 0.0) & (over <= 1.0 + 1e-12)):
                return {link: float(p) for link, p in zip(active, powers)}, dropped
        worst = max(
            range(len(active)),
            key=lambda l: (over[l], -priorities.get(active[l], 0.0)),
        )
        if np.isinf(over[worst]):
            worst = min(range(len(active)), key=lambda l: priorities.get(active[l], 0.0))
        dropped.append(active.pop(worst))
    return {}, dropped


def vec_min_powers(
    links: Sequence[Link],
    gains,
    noise_power_w: float,
    sinr_threshold: float,
    max_power_w: Dict[int, float],
    priority: Optional[Dict[Link, float]] = None,
) -> Assignment:
    """:func:`minimal_power_assignment_vec` on link tuples, oracle-shaped."""
    links = list(links)
    priorities = priority or {}
    kept, powers, dropped = minimal_power_assignment_vec(
        np.array([tx for tx, _ in links], dtype=np.intp),
        np.array([rx for _, rx in links], dtype=np.intp),
        MatrixGains(gains) if isinstance(gains, np.ndarray) else gains,
        noise_power_w,
        sinr_threshold,
        np.array([max_power_w[tx] for tx, _ in links], dtype=float),
        np.array([priorities.get(link, 0.0) for link in links], dtype=float),
    )
    return (
        {links[i]: p for i, p in zip(kept.tolist(), powers.tolist())},
        [links[i] for i in dropped],
    )


def checked_min_powers(*args, **kwargs) -> Assignment:
    """The batched assignment, asserted bit-identical to the oracle."""
    got = vec_min_powers(*args, **kwargs)
    expected = scalar_min_powers(*args, **kwargs)
    assert list(got[0].items()) == list(expected[0].items())
    assert got[1] == expected[1]
    return got
