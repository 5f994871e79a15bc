"""Simulation result accounting.

A :class:`SimulationResult` records everything the experiments need from
one policy run: the benefit (total transmitted value — the objective of
Section 1.3), loss breakdowns (rejections and the three preemption
sites), conservation data, per-port statistics, and optionally the full
schedule log used by the proof-machinery replay in
:mod:`repro.theory.shadow`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..switch.config import SwitchConfig


@dataclass
class TransferEvent:
    """One fabric transfer: packet pid moved i -> j in cycle (slot, s).

    For crossbar runs ``stage`` distinguishes the input subphase ("in",
    VOQ -> crosspoint) from the output subphase ("out", crosspoint ->
    output queue); CIOQ transfers use stage "cioq".
    """

    slot: int
    cycle: int
    src: int
    dst: int
    pid: int
    value: float
    stage: str = "cioq"
    preempted_pid: Optional[int] = None


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    policy_name: str
    config: SwitchConfig
    n_arrival_slots: int
    horizon: int

    # Benefit (the maximization objective).
    benefit: float = 0.0
    n_sent: int = 0

    # Arrival accounting.
    n_arrived: int = 0
    value_arrived: float = 0.0
    n_accepted: int = 0
    value_accepted: float = 0.0
    n_rejected: int = 0
    value_rejected: float = 0.0

    # Preemption accounting by site.
    n_preempted_voq: int = 0
    value_preempted_voq: float = 0.0
    n_preempted_cross: int = 0
    value_preempted_cross: float = 0.0
    n_preempted_out: int = 0
    value_preempted_out: float = 0.0

    # Packets still buffered when the run ended (horizon exhausted).
    n_residual: int = 0
    value_residual: float = 0.0

    # Per-output-port transmissions.
    sent_per_output: Dict[int, int] = field(default_factory=dict)
    value_per_output: Dict[int, float] = field(default_factory=dict)

    # Optional logs (populated when record=True).
    sent_pids: List[int] = field(default_factory=list)
    schedule_log: List[TransferEvent] = field(default_factory=list)
    transmit_log: List[Tuple[int, int, int]] = field(default_factory=list)
    # transmit_log entries: (slot, output_port, pid)

    @property
    def n_preempted(self) -> int:
        return self.n_preempted_voq + self.n_preempted_cross + self.n_preempted_out

    @property
    def value_preempted(self) -> float:
        return (
            self.value_preempted_voq
            + self.value_preempted_cross
            + self.value_preempted_out
        )

    @property
    def throughput(self) -> float:
        """Fraction of arrived packets that were transmitted."""
        return self.n_sent / self.n_arrived if self.n_arrived else 0.0

    @property
    def value_throughput(self) -> float:
        """Fraction of arrived value that was transmitted."""
        return self.benefit / self.value_arrived if self.value_arrived else 0.0

    def check_conservation(self) -> None:
        """Assert flow conservation of the accounting.

        arrived == accepted + rejected, and
        accepted == sent + preempted + residual: counts exactly, values
        to within ``1e-9`` of the run's size (``value_arrived``, at
        least 1), since float totals of large values round.
        """
        assert self.n_arrived == self.n_accepted + self.n_rejected, (
            f"arrival conservation violated: {self.n_arrived} != "
            f"{self.n_accepted} + {self.n_rejected}"
        )
        assert self.n_accepted == self.n_sent + self.n_preempted + self.n_residual, (
            f"buffer conservation violated: {self.n_accepted} != "
            f"{self.n_sent} + {self.n_preempted} + {self.n_residual}"
        )
        tol = 1e-9 * max(1.0, self.value_arrived)
        assert abs(
            self.value_arrived - self.value_accepted - self.value_rejected
        ) < tol, (
            f"arrival value conservation violated: {self.value_arrived!r} "
            f"!= {self.value_accepted!r} + {self.value_rejected!r}"
        )
        assert abs(
            self.value_accepted
            - self.benefit
            - self.value_preempted
            - self.value_residual
        ) < tol, (
            f"buffer value conservation violated: {self.value_accepted!r} "
            f"!= {self.benefit!r} + {self.value_preempted!r} + "
            f"{self.value_residual!r}"
        )

    def delays(self, trace) -> Dict[int, int]:
        """Per-packet delay (transmit slot - arrival slot) in slots.

        Requires a run with ``record=True`` (the transmit log) and the
        trace the run consumed.  Delay 0 means same-slot cut-through
        (arrival, transfer and transmission within one slot).
        """
        if not self.transmit_log and self.n_sent:
            raise ValueError("delays() needs a run recorded with record=True")
        arrival_of = {p.pid: p.arrival for p in trace.packets}
        return {
            pid: slot - arrival_of[pid]
            for slot, _j, pid in self.transmit_log
        }

    def delay_stats(self, trace) -> Dict[str, float]:
        """Mean / median / p99 / max delivery delay in slots."""
        delays = sorted(self.delays(trace).values())
        if not delays:
            return {"n": 0, "mean": 0.0, "p50": 0.0, "p99": 0.0, "max": 0.0}

        def pct(q: float) -> float:
            idx = min(len(delays) - 1, int(q * (len(delays) - 1) + 0.5))
            return float(delays[idx])

        return {
            "n": len(delays),
            "mean": sum(delays) / len(delays),
            "p50": pct(0.50),
            "p99": pct(0.99),
            "max": float(delays[-1]),
        }

    def as_payload(self) -> Dict[str, object]:
        """Plain JSON-serializable record of this run's accounting.

        The schema the sweep/scenario substrate ships across process
        boundaries and caches on disk (see
        :func:`repro.parallel.run_sweep_point`); scenario ``metrics``
        select among these fields.
        """
        return {
            "policy": self.policy_name,
            "benefit": self.benefit,
            "n_sent": self.n_sent,
            "n_arrived": self.n_arrived,
            "n_accepted": self.n_accepted,
            "n_rejected": self.n_rejected,
            "n_preempted": self.n_preempted,
            "n_residual": self.n_residual,
            "value_arrived": self.value_arrived,
        }

    def summary(self) -> Dict[str, object]:
        return {
            "policy": self.policy_name,
            "benefit": round(self.benefit, 6),
            "sent": self.n_sent,
            "arrived": self.n_arrived,
            "rejected": self.n_rejected,
            "preempted": self.n_preempted,
            "residual": self.n_residual,
            "throughput": round(self.throughput, 4),
            "value_throughput": round(self.value_throughput, 4),
            "horizon": self.horizon,
        }
