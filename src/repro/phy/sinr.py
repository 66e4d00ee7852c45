"""SINR computation under the physical interference model.

``SINR_ij^m(t) = g_ij P_ij^m / (eta_j W_m(t) + sum_k g_kj P_kv^m)``
where the sum runs over all *other* transmitters active on band ``m``
in the same slot (Section II-B of the paper).
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.types import NodeId, Transmission
from repro.units import Db, Linear, Watts, linear_to_db


def total_interference(
    gains: np.ndarray,
    receiver: NodeId,
    interferers: Iterable[Tuple[NodeId, Watts]],
) -> Watts:
    """Aggregate interference power at ``receiver``.

    Args:
        gains: pair gains indexable as ``gains[tx, rx]`` (the slot's
            :class:`~repro.phy.propagation.ComputedPairGains` view).
        receiver: the receiving node.
        interferers: ``(tx_node, tx_power_w)`` pairs of concurrent
            transmissions on the same band, excluding the intended one.

    Returns:
        Total received interference power (W).
    """
    return float(
        sum(gains[tx, receiver] * power for tx, power in interferers)
    )


def sinr(
    gains: np.ndarray,
    tx: NodeId,
    rx: NodeId,
    tx_power_w: Watts,
    noise_power_w: Watts,
    interference_w: Watts = 0.0,
) -> Linear:
    """SINR of one link given noise and aggregate interference.

    Args:
        gains: pair gains indexable as ``gains[tx, rx]``.
        tx: transmitter id.
        rx: receiver id.
        tx_power_w: transmit power (W).
        noise_power_w: ``eta_j * W_m(t)`` thermal-noise power (W).
        interference_w: aggregate interference power (W).

    Returns:
        The (dimensionless) signal-to-interference-plus-noise ratio.
    """
    if noise_power_w <= 0:
        raise ValueError(f"noise power must be positive, got {noise_power_w}")
    if tx_power_w < 0:
        raise ValueError(f"transmit power must be non-negative, got {tx_power_w}")
    return gains[tx, rx] * tx_power_w / (noise_power_w + interference_w)


def sinr_of_transmission(
    gains: np.ndarray,
    target: Transmission,
    concurrent: Iterable[Transmission],
    noise_power_w: Watts,
) -> Linear:
    """SINR of ``target`` among ``concurrent`` same-band transmissions.

    Transmissions in ``concurrent`` on other bands or equal to
    ``target`` are ignored, so callers may pass the full schedule.
    """
    interferers = [
        (t.tx, t.power_w)
        for t in concurrent
        if t.band == target.band and t.link != target.link
    ]
    return sinr(
        gains,
        target.tx,
        target.rx,
        target.power_w,
        noise_power_w,
        total_interference(gains, target.rx, interferers),
    )


def sinr_db(
    gains: np.ndarray,
    tx: NodeId,
    rx: NodeId,
    tx_power_w: Watts,
    noise_power_w: Watts,
    interference_w: Watts = 0.0,
) -> Db:
    """:func:`sinr` on the logarithmic dB scale.

    The library computes SINR in linear terms throughout (the paper's
    threshold ``Gamma = 1`` is 0 dB); this helper is the sanctioned
    crossing for reporting and for configs stated in dB.  Mixing the
    two scales any other way is flagged by analysis rule R011.
    """
    ratio: Linear = sinr(gains, tx, rx, tx_power_w, noise_power_w, interference_w)
    return linear_to_db(ratio)
