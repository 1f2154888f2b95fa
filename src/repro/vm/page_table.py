"""4-level page table.

One table per application (the paper isolates address spaces via per-app
CR3 roots).  The table maps 36-bit VPNs to physical page numbers (RPNs in
the paper's terminology) plus the memory channel group holding the page —
the attribute PageMove's fault handling inspects (Section 4.4).

Leaves live in one flat ``vpn -> entry`` dict.  The radix structure the
page-table walker charges for (one memory reference per level, minus
MMU-cache hits) is kept as three sets of populated interior-table
prefixes: a level-1 table exists for ``vpn >> 27``, a level-2 table for
``vpn >> 18`` and a leaf table for ``vpn >> 9`` once any page under it
was mapped.  The sets only grow, as the tree's interior nodes did, since
:meth:`PageTable.unmap` frees leaves but never interior tables; so
:meth:`PageTable.levels_touched` counts exactly the levels a walk of the
radix tree would touch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.errors import AddressError, TranslationError
from repro.vm.address import LEVEL_BITS, LEVELS, PAGE_SHIFT, VA_BITS

#: One past the largest VPN of the 48-bit virtual address space.
_VPN_LIMIT = 1 << (VA_BITS - PAGE_SHIFT)
_L1_SHIFT = 3 * LEVEL_BITS
_L2_SHIFT = 2 * LEVEL_BITS


@dataclass
class PageTableEntry:
    """Leaf entry: the translation plus PageMove bookkeeping.

    Attributes
    ----------
    rpn:
        Real (physical) page number.
    channel:
        Memory channel group currently holding the physical page.
    valid:
        Cleared when PageMove invalidates the entry during reallocation.
    dirty, referenced:
        Standard status bits (used by tests and the migration planner).
    """

    rpn: int
    channel: int
    valid: bool = True
    dirty: bool = False
    referenced: bool = False


def _out_of_range(vpn: int) -> AddressError:
    return AddressError(
        f"virtual address {vpn << PAGE_SHIFT:#x} outside {VA_BITS}-bit space"
    )


class PageTable:
    """A 4-level page table for one application address space."""

    def __init__(self, app_id: int, cr3: Optional[int] = None) -> None:
        self.app_id = app_id
        #: Emulates the CR3 root-pointer register value for identification.
        self.cr3 = cr3 if cr3 is not None else (0x1000 + app_id)
        self._leaves: Dict[int, PageTableEntry] = {}
        #: Prefixes of the populated level-1, level-2 and leaf tables.
        self._l1: Set[int] = set()
        self._l2: Set[int] = set()
        self._l3: Set[int] = set()

    def __len__(self) -> int:
        return len(self._leaves)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def map(self, vpn: int, rpn: int, channel: int) -> PageTableEntry:
        """Install (or replace) the translation for ``vpn``."""
        if not 0 <= vpn < _VPN_LIMIT:
            raise _out_of_range(vpn)
        self._l1.add(vpn >> _L1_SHIFT)
        self._l2.add(vpn >> _L2_SHIFT)
        self._l3.add(vpn >> LEVEL_BITS)
        entry = self._leaves[vpn] = PageTableEntry(rpn=rpn, channel=channel)
        return entry

    def unmap(self, vpn: int) -> PageTableEntry:
        """Remove the translation for ``vpn``; return the removed entry."""
        if not 0 <= vpn < _VPN_LIMIT:
            raise _out_of_range(vpn)
        entry = self._leaves.pop(vpn, None)
        if entry is None:
            raise TranslationError(f"vpn {vpn:#x} is not mapped (app {self.app_id})")
        return entry

    def invalidate(self, vpn: int) -> PageTableEntry:
        """Clear the valid bit (PageMove's PTW-driven invalidation)."""
        entry = self.lookup(vpn)
        if entry is None:
            raise TranslationError(f"vpn {vpn:#x} is not mapped (app {self.app_id})")
        entry.valid = False
        return entry

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, vpn: int) -> Optional[PageTableEntry]:
        """Return the entry for ``vpn`` or None; does not touch status bits."""
        if not 0 <= vpn < _VPN_LIMIT:
            raise _out_of_range(vpn)
        return self._leaves.get(vpn)

    def translate(self, vpn: int) -> Optional[PageTableEntry]:
        """Lookup that also sets the referenced bit on a valid hit."""
        entry = self.lookup(vpn)
        if entry is not None and entry.valid:
            entry.referenced = True
            return entry
        return None

    def levels_touched(self, vpn: int) -> int:
        """How many radix levels a walk for ``vpn`` traverses before
        either finding the leaf or hitting a hole (for PTW latency)."""
        if not 0 <= vpn < _VPN_LIMIT:
            raise _out_of_range(vpn)
        if vpn >> _L1_SHIFT not in self._l1:
            return 1
        if vpn >> _L2_SHIFT not in self._l2:
            return 2
        if vpn >> LEVEL_BITS not in self._l3:
            return 3
        return LEVELS

    # ------------------------------------------------------------------
    # Iteration (used by the migration planner)
    # ------------------------------------------------------------------
    def entries(self) -> Iterator[Tuple[int, PageTableEntry]]:
        """Yield (vpn, entry) pairs in ascending VPN order."""
        leaves = self._leaves
        for vpn in sorted(leaves):
            yield vpn, leaves[vpn]

    def pages_in_channel(self, channel: int) -> Iterator[Tuple[int, PageTableEntry]]:
        """Yield the (vpn, entry) pairs whose physical page lives in
        ``channel`` — the pages PageMove must migrate when that channel is
        reallocated away."""
        for vpn, entry in self.entries():
            if entry.channel == channel and entry.valid:
                yield vpn, entry

    def channel_page_counts(self) -> Dict[int, int]:
        """Count of valid resident pages per channel group (the driver's
        balance bookkeeping from Section 4.4)."""
        counts: Dict[int, int] = {}
        for _, entry in self.entries():
            if entry.valid:
                counts[entry.channel] = counts.get(entry.channel, 0) + 1
        return counts
