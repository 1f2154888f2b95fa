"""The simulator's epoch loop (:mod:`repro.fastpath.epoch`).

There is one implementation of the hot loop, in pure python; its
correctness contract is the frozen golden fixtures under
``tests/golden/``.
"""

from __future__ import annotations


def resolve_kernel_backend() -> str:
    """Name of the epoch-loop implementation, ``"python"``.

    ``simbench/run.py`` records it with every benchmark run.
    """
    return "python"


__all__ = ["resolve_kernel_backend"]
