"""The benchmark's fixed pure-Python reference loop.

Every host timing the benchmark reports is divided by timings of this
loop taken close to it.  The module imports nothing but ``time``, so a
fresh interpreter can time the loop around ``import repro`` without
importing any module ``repro`` would.
"""

import time


def reference_loop(n: int = 10_000) -> float:
    """Fixed interpreter work of the kinds the simulator does: dict
    updates, float arithmetic, attribute access, calls, list churn."""

    class Cell:
        __slots__ = ("count", "total")

        def __init__(self) -> None:
            self.count = 0
            self.total = 0.0

    def bump(cell: Cell, x: float) -> None:
        cell.count += 1
        cell.total += x

    cells = {}
    window: list = []
    acc = 0.0
    for i in range(n):
        key = i % 97
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = Cell()
        x = (i * 0.5) / (key + 1)
        bump(cell, x)
        acc += x - int(x)
        window.append(key)
        if len(window) > 32:
            window.sort()
            del window[:16]
    return acc + sum(c.total for c in cells.values())


def time_reference() -> float:
    """Seconds of one reference-loop run."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start
