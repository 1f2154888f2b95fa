"""Page-table walker.

The paper's walker (Table 1) supports up to 64 concurrent walk threads over
4-level page tables.  We model walk latency as one LLC-latency memory
reference per level touched, and track walker-thread occupancy so that
bursts of TLB misses queue when all threads are busy — the behaviour that
makes L1-TLB flushes (PageMove's reallocation step) briefly expensive.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigError
from repro.vm.address import LEVELS
from repro.vm.page_table import PageTable, PageTableEntry


@dataclass
class WalkResult:
    """Outcome of one page-table walk."""

    vpn: int
    entry: Optional[PageTableEntry]   #: None on a page-table miss (fault)
    issued_at: int
    completed_at: int
    levels: int

    @property
    def latency(self) -> int:
        return self.completed_at - self.issued_at

    @property
    def faulted(self) -> bool:
        return self.entry is None or not self.entry.valid


class PageTableWalker:
    """Multi-threaded walker shared by all SMs.

    Parameters
    ----------
    max_threads:
        Concurrent walks supported (64 in Table 1).
    level_latency:
        Cycles per radix level touched; defaults to the paper's 120-cycle
        LLC latency since walk references mostly hit the LLC.
    """

    def __init__(self, max_threads: int = 64, level_latency: int = 120) -> None:
        if max_threads <= 0:
            raise ConfigError("walker needs at least one thread")
        if level_latency <= 0:
            raise ConfigError("level latency must be positive")
        self.max_threads = max_threads
        self.level_latency = level_latency
        #: Completion times of in-flight walks, a min-heap.
        self._busy_until: List[int] = []
        self.walks = 0
        self.faults = 0
        self.total_latency = 0

    def _admit(self, now: int) -> int:
        """Find the cycle a new walk can start, retiring finished walks."""
        busy = self._busy_until
        while busy and busy[0] <= now:
            heapq.heappop(busy)
        if len(busy) < self.max_threads:
            return now
        # All threads busy: wait for the earliest to finish, retiring
        # every walk done by then.
        start = heapq.heappop(busy)
        while busy and busy[0] <= start:
            heapq.heappop(busy)
        return start

    def walk(self, table: PageTable, vpn: int, now: int) -> WalkResult:
        """Perform one walk; returns timing plus the entry (or None)."""
        start = self._admit(now)
        levels = table.levels_touched(vpn)
        entry = table.translate(vpn)
        if entry is None:
            # A translation miss still walks the populated prefix levels.
            self.faults += 1
        else:
            levels = LEVELS
        completed = start + levels * self.level_latency
        heapq.heappush(self._busy_until, completed)
        self.walks += 1
        self.total_latency += completed - now
        return WalkResult(
            vpn=vpn,
            entry=entry,
            issued_at=now,
            completed_at=completed,
            levels=levels,
        )

    @property
    def in_flight(self) -> int:
        return len(self._busy_until)

    @property
    def mean_latency(self) -> float:
        if self.walks == 0:
            return 0.0
        return self.total_latency / self.walks
