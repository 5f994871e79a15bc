"""Switch substrate: packets, queues and the two switch architectures.

This subpackage implements the hardware model of Section 1.3 of the
paper: the :class:`~repro.switch.cioq.CIOQSwitch` (Figure 1) and the
:class:`~repro.switch.crossbar.CrossbarSwitch` (Figure 2), which is the
CIOQ switch plus one crosspoint queue per port pair, together with the
bounded non-FIFO queues both are built from.  Every fabric move, in
either model, is one :class:`~repro.switch.cioq.Transfer`, and the
switch is the one place that moves packets between queues.
"""

from .config import SwitchConfig
from .packet import Packet, total_value
from .queue import BoundedQueue, QueueOverflowError
from .cioq import CIOQSwitch, ScheduleError, Transfer, greedy_head_transmissions
from .crossbar import CrossbarSwitch
from .diagram import render, render_cioq, render_crossbar

__all__ = [
    "SwitchConfig",
    "Packet",
    "total_value",
    "BoundedQueue",
    "QueueOverflowError",
    "CIOQSwitch",
    "ScheduleError",
    "Transfer",
    "greedy_head_transmissions",
    "CrossbarSwitch",
    "render",
    "render_cioq",
    "render_crossbar",
]
