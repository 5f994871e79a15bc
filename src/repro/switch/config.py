"""Switch configuration shared by the simulator and the offline optimum.

The paper studies N x N switches but remarks (Section 4) that all results
generalize to N x M; the simulator therefore supports asymmetric port
counts via ``n_in`` / ``n_out``.

Capacities follow Section 1.3: each input queue (VOQ) ``Q_ij`` has
capacity ``B(Q_ij)``, each output queue ``Q_j`` capacity ``B(Q_j)``, and —
in the buffered crossbar model — each crosspoint queue ``C_ij`` capacity
``B(C_ij)``.  We use uniform capacities per queue class, which is the
standard hardware assumption.

The *speedup* ``s`` is the number of scheduling cycles per time slot
(written ``ŝ`` in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SwitchConfig:
    """Dimensions, capacities and speedup of a switch instance.

    Parameters
    ----------
    n_in:
        Number of input ports N (paper: ``i = 1..N``).
    n_out:
        Number of output ports (paper: ``j = 1..N``; may differ from
        ``n_in`` per the paper's N x M remark).
    speedup:
        Scheduling cycles per time slot (``ŝ >= 1``).
    b_in:
        Capacity of every input queue ``Q_ij``.
    b_out:
        Capacity of every output queue ``Q_j``.
    b_cross:
        Capacity of every crosspoint queue ``C_ij`` (buffered crossbar
        model only; ignored by the CIOQ model).
    """

    n_in: int
    n_out: int
    speedup: int = 1
    b_in: int = 8
    b_out: int = 8
    b_cross: int = 1

    def __post_init__(self) -> None:
        if self.n_in < 1 or self.n_out < 1:
            raise ValueError("switch must have at least one input and output port")
        if self.speedup < 1:
            raise ValueError(f"speedup must be >= 1, got {self.speedup}")
        for name in ("b_in", "b_out", "b_cross"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    @classmethod
    def square(
        cls,
        n: int,
        speedup: int = 1,
        b_in: int = 8,
        b_out: int = 8,
        b_cross: int = 1,
    ) -> "SwitchConfig":
        """Convenience constructor for the paper's N x N switch."""
        return cls(
            n_in=n,
            n_out=n,
            speedup=speedup,
            b_in=b_in,
            b_out=b_out,
            b_cross=b_cross,
        )

    def cycles(self, n_slots: int) -> int:
        """Total number of scheduling cycles over ``n_slots`` time slots."""
        return n_slots * self.speedup
