"""Power propagation gain model: ``g_ij = C * d(i, j)^-gamma``.

This is the widely used distance-based path-loss model the paper adopts
(Section II-B).  Distances below ``MIN_DISTANCE_M`` are clamped so the
far-field model is never evaluated in its singular near-field region.
"""

from __future__ import annotations

import numpy as np

from repro.units import Linear, Meters

#: Distances are clamped to this floor (metres) before applying the
#: far-field path-loss law; ``d^-gamma`` diverges as d -> 0.
MIN_DISTANCE_M: float = 1.0


def propagation_gain(distance_m: Meters, constant: float, exponent: float) -> Linear:
    """Gain between two nodes separated by ``distance_m`` metres.

    Args:
        distance_m: Euclidean distance (m); clamped to ``MIN_DISTANCE_M``.
        constant: the antenna/wavelength constant ``C``.
        exponent: path-loss exponent ``gamma``.

    Returns:
        The dimensionless power gain ``C * d^-gamma``.
    """
    if constant <= 0:
        raise ValueError(f"propagation constant must be positive, got {constant}")
    if exponent <= 0:
        raise ValueError(f"path-loss exponent must be positive, got {exponent}")
    clamped = max(distance_m, MIN_DISTANCE_M)
    return constant * clamped**-exponent


def gain_matrix(
    distances_m: np.ndarray, constant: float, exponent: float
) -> np.ndarray:
    """Vectorised :func:`propagation_gain` over a distance matrix.

    The diagonal (self-distance 0) is clamped like every other entry;
    callers never use self-gains, but keeping them finite avoids NaN
    propagation in vectorised interference sums.
    """
    if constant <= 0:
        raise ValueError(f"propagation constant must be positive, got {constant}")
    if exponent <= 0:
        raise ValueError(f"path-loss exponent must be positive, got {exponent}")
    clamped = np.maximum(np.asarray(distances_m, dtype=float), MIN_DISTANCE_M)
    return constant * clamped**-exponent


class ComputedPairGains:
    """Pair gains ``g(tx, rx)`` computed on demand from node positions.

    The only form gains take: the topology holds one over the static
    placement, and under mobility each slot gets one over that slot's
    positions.  No ``(N, N)`` matrix is ever materialised; every query
    applies the same elementwise float64 chain — ``d = sqrt(dx^2 +
    dy^2)`` then :func:`gain_matrix` — so scalar reads, ``pairs``,
    ``submatrix`` and ``column`` all return bitwise-equal values for
    the same pair.

    The view keeps a reference to ``positions``, not a copy; callers
    hand it arrays that are never written afterwards (the topology's
    read-only positions, or a fresh per-slot mobility array).
    """

    __slots__ = ("_pos", "_constant", "_exponent")

    def __init__(
        self, positions: np.ndarray, constant: float, exponent: float
    ) -> None:
        self._pos = np.asarray(positions, dtype=float)
        self._constant = constant
        self._exponent = exponent

    @property
    def num_nodes(self) -> int:
        """Node count ``N``."""
        return self._pos.shape[0]

    def __getitem__(self, key) -> float:
        tx, rx = key
        return float(self.pairs(np.asarray([tx]), np.asarray([rx]))[0])

    def pairs(self, tx: np.ndarray, rx: np.ndarray) -> np.ndarray:
        """``(k,)`` gains of the paired endpoints ``(tx[i], rx[i])``."""
        diffs = self._pos[tx] - self._pos[rx]
        dist = np.sqrt((diffs**2).sum(axis=-1))
        return gain_matrix(dist, self._constant, self._exponent)

    def submatrix(self, tx: np.ndarray, rx: np.ndarray) -> np.ndarray:
        """``(len(tx), len(rx))`` block with ``[k, l] = g(tx[k], rx[l])``."""
        diffs = (
            self._pos[np.asarray(tx)][:, None, :]
            - self._pos[np.asarray(rx)][None, :, :]
        )
        dist = np.sqrt((diffs**2).sum(axis=2))
        return gain_matrix(dist, self._constant, self._exponent)

    def column(self, rx: int) -> np.ndarray:
        """``(N,)`` gains into receiver ``rx`` (``g[:, rx]``)."""
        diffs = self._pos - self._pos[rx]
        dist = np.sqrt((diffs**2).sum(axis=1))
        return gain_matrix(dist, self._constant, self._exponent)
