"""ASCII renderings of the paper's architecture figures.

Figure 1 of the paper depicts an N=3 CIOQ switch: every input port holds
N VOQs feeding a bufferless switching fabric that connects to one queue
per output port.  Figure 2 depicts the buffered crossbar variant with an
additional queue at every crosspoint of the fabric.

These renderers draw the same topologies from live simulator state, so a
diagram doubles as a queue-occupancy snapshot: each queue is drawn as a
row of cells, ``#`` for an occupied slot and ``.`` for a free one.
"""

from __future__ import annotations

from typing import List

from .cioq import CIOQSwitch
from .crossbar import CrossbarSwitch
from .queue import BoundedQueue


def _queue_cells(q: BoundedQueue, width: int = None) -> str:
    """Render a queue as ``[##..]`` with one cell per capacity slot."""
    cap = q.capacity if width is None else width
    used = min(len(q), cap)
    return "[" + "#" * used + "." * (cap - used) + "]"


def render_cioq(switch: CIOQSwitch, title: str = "CIOQ switch") -> str:
    """Render a CIOQ switch in the style of the paper's Figure 1.

    Layout (per input port i)::

        in i  -> Q_i1 [..]  \\
                 Q_i2 [..]   >--- fabric ---> Q_j [..] -> out j
                 Q_i3 [..]  /
    """
    n_in, n_out = switch.n_in, switch.n_out
    lines: List[str] = [f"{title}  (N_in={n_in}, N_out={n_out}, "
                        f"speedup={switch.config.speedup})", ""]
    lines.append("input ports                    switching fabric    output ports")
    lines.append("-" * 66)
    fabric_rows = max(n_in * (n_out + 1), n_out * 2)
    block: List[str] = []
    for i in range(n_in):
        for j in range(n_out):
            q = switch.voq[i][j]
            label = f"in {i}  Q[{i}][{j}] " if j == 0 else f"      Q[{i}][{j}] "
            block.append(f"{label}{_queue_cells(q)}")
        block.append("")
    # Right-hand column: output queues, vertically spread.
    right: List[str] = []
    for j in range(n_out):
        q = switch.out[j]
        right.append(f"Q[{j}] {_queue_cells(q)}  -> out {j}")
        right.append("")
    height = max(len(block), len(right), fabric_rows)
    block += [""] * (height - len(block))
    right += [""] * (height - len(right))
    mid = height // 2
    for r in range(height):
        left = block[r].ljust(30)
        if r == mid:
            fabric = ">>== fabric ==>>".center(18)
        elif block[r] and right[r]:
            fabric = "----".center(18)
        else:
            fabric = " " * 18
        lines.append(f"{left}{fabric}{right[r]}".rstrip())
    return "\n".join(lines).rstrip() + "\n"


def render_crossbar(switch: CrossbarSwitch, title: str = "Buffered crossbar switch") -> str:
    """Render a buffered crossbar switch in the style of Figure 2.

    The fabric is drawn as an ``n_in x n_out`` grid of crosspoint queues;
    VOQs feed grid rows, output queues drain grid columns.
    """
    n_in, n_out = switch.n_in, switch.n_out
    lines: List[str] = [f"{title}  (N_in={n_in}, N_out={n_out}, "
                        f"speedup={switch.config.speedup}, "
                        f"B(C)={switch.config.b_cross})", ""]
    cell_w = max(switch.config.b_cross + 2, 6) + 2

    header = " " * 24 + "".join(f"col {j}".center(cell_w) for j in range(n_out))
    lines.append(header)
    lines.append(" " * 24 + "-" * (cell_w * n_out))
    for i in range(n_in):
        voq_cells = " ".join(_queue_cells(switch.voq[i][j]) for j in range(n_out))
        lines.append(f"in {i}: VOQs {voq_cells}")
        row = f"   row {i} ".ljust(24)
        row += "".join(
            _queue_cells(switch.cross[i][j]).center(cell_w) for j in range(n_out)
        )
        lines.append(row)
    lines.append(" " * 24 + "-" * (cell_w * n_out))
    outs = " " * 24 + "".join(
        _queue_cells(switch.out[j]).center(cell_w) for j in range(n_out)
    )
    lines.append(outs)
    lines.append(" " * 24 + "".join(f"out {j}".center(cell_w) for j in range(n_out)))
    return "\n".join(lines).rstrip() + "\n"


def render(switch: CIOQSwitch) -> str:
    """Dispatch to the appropriate renderer for the switch type (a
    crossbar is also a CIOQSwitch, so it is tested first)."""
    if isinstance(switch, CrossbarSwitch):
        return render_crossbar(switch)
    if isinstance(switch, CIOQSwitch):
        return render_cioq(switch)
    raise TypeError(f"cannot render {type(switch).__name__}")
