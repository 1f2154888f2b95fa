"""Memory channel and bank-group models with cross-bank timing.

A channel (one HBM die port) owns 4 bank groups of 4 banks, a command bus,
and an external data bus routed over its own TSV bundle.  The channel
enforces the constraints a single bank cannot see: tRRDl/tRRDs between
activates, the tFAW rolling window, tCCDl/tCCDs between column commands,
write-to-read turnaround, and data-bus occupancy.

PageMove's key structural property is visible here: READ/WRITE bursts
occupy the channel's external data bus, but MIGRATION transfers leave it
free — they move data over the bank group's internal bus to an *idle* TSV
bundle selected by the crossbar (Section 4.2), so normal traffic and
migration traffic only contend inside a bank group.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.errors import ProtocolError
from repro.hbm.bank import Bank
from repro.hbm.commands import Command, CommandKind
from repro.hbm.config import HBMConfig


class BankGroup:
    """A bank group: several banks sharing one internal data bus."""

    def __init__(self, config: HBMConfig, index: int) -> None:
        self.config = config
        self.index = index
        self.banks: List[Bank] = [
            Bank(config.timing, config.rows_per_bank)
            for _ in range(config.banks_per_group)
        ]
        #: Cycle until which the internal data bus is busy.
        self.bus_busy_until = 0
        #: Last cycle a column command issued in this group (for tCCDl).
        self.last_column_issue = -(10**9)

    def bank(self, index: int) -> Bank:
        if not 0 <= index < len(self.banks):
            raise ProtocolError(f"bank index {index} out of range")
        return self.banks[index]

    def bus_free_at(self) -> int:
        return self.bus_busy_until

    def occupy_bus(self, start: int, end: int) -> None:
        if start < self.bus_busy_until:
            raise ProtocolError(
                f"bank group {self.index} bus conflict: busy until "
                f"{self.bus_busy_until}, requested start {start}"
            )
        self.bus_busy_until = end


class Channel:
    """One HBM memory channel with full command-level timing.

    All times are memory-clock cycles.  The channel does not own a clock;
    callers pass the current cycle and use :meth:`earliest_issue` to find
    legal issue slots, which keeps the model usable both from the
    discrete-event engine and from closed-form schedulers.
    """

    def __init__(self, config: HBMConfig, index: int) -> None:
        config.validate()
        self.config = config
        self.index = index
        self.groups: List[BankGroup] = [
            BankGroup(config, g) for g in range(config.bank_groups_per_channel)
        ]
        t = config.timing
        self._timing = t
        #: Recent ACTIVATE issue times for the tFAW window.
        self._recent_activates: Deque[int] = deque(maxlen=4)
        #: Cycle until which the external (TSV) data bus is busy.
        self.data_bus_busy_until = 0
        #: Cycle until which the command bus is busy (MIGRATION takes 2).
        self.command_bus_busy_until = 0
        self._last_column_issue = -(10**9)
        self._last_column_group = -1
        self._last_write_data_end = -(10**9)
        self._last_write_group = -1
        # Statistics
        self.reads = 0
        self.writes = 0
        self.migrations = 0
        self.activates = 0
        self.precharges = 0
        self.idle_since: int = 0  #: set by idle-channel detection logic

    # ------------------------------------------------------------------
    # Scheduling queries
    # ------------------------------------------------------------------
    def earliest_issue(self, cmd: Command, now: int) -> int:
        """Earliest cycle >= ``now`` at which ``cmd`` could legally issue."""
        group = self.groups[cmd.bank_group]
        banks = group.banks
        index = cmd.bank
        if not 0 <= index < len(banks):
            raise ProtocolError(f"bank index {index} out of range")
        bank = banks[index]
        earliest = self.command_bus_busy_until
        if earliest < now:
            earliest = now
        kind = cmd.kind

        if kind is CommandKind.ACTIVATE:
            bound = bank.earliest_activate()
            if bound > earliest:
                earliest = bound
            if self._recent_activates:
                # Per-bank ACT-to-ACT (tRC) is folded into the bank's
                # activate bound; this is channel-wide ACT-to-ACT spacing.
                t = self._timing
                bound = self._recent_activates[-1] + (
                    t.tRRDl if cmd.bank_group == self._last_activate_group
                    else t.tRRDs)
                if bound > earliest:
                    earliest = bound
                if len(self._recent_activates) == 4:
                    bound = self._recent_activates[0] + t.tFAW
                    if bound > earliest:
                        earliest = bound
        elif kind is CommandKind.PRECHARGE:
            bound = bank.earliest_precharge()
            if bound > earliest:
                earliest = bound
        else:  # READ, WRITE, MIGRATION
            t = self._timing
            bound = bank.earliest_column()
            if bound > earliest:
                earliest = bound
            if self._last_column_issue >= 0:
                bound = self._last_column_issue + (
                    t.tCCDl if cmd.bank_group == self._last_column_group
                    else t.tCCDs)
                if bound > earliest:
                    earliest = bound
            if kind is CommandKind.MIGRATION:
                # Needs the bank group's internal bus only.
                bound = group.bus_busy_until
                if bound > earliest:
                    earliest = bound
            else:
                if kind is CommandKind.READ:
                    if self._last_write_data_end >= 0:
                        bound = self._last_write_data_end + (
                            t.tWTRl if cmd.bank_group == self._last_write_group
                            else t.tWTRs)
                        if bound > earliest:
                            earliest = bound
                    lead = t.tCL
                else:
                    lead = t.tWL
                # The burst begins `lead` cycles after issue; the external
                # data bus must be free by then.
                bound = self.data_bus_busy_until - lead
                if bound > earliest:
                    earliest = bound
        return earliest

    # ------------------------------------------------------------------
    # Command issue
    # ------------------------------------------------------------------
    def issue(self, cmd: Command, now: int) -> int:
        """Issue ``cmd`` at cycle ``now``; return its completion cycle.

        ``now`` must be at least :meth:`earliest_issue`; otherwise a
        :class:`ProtocolError` is raised.  Completion means: row stable
        (ACTIVATE, at now+tRCD), bank precharged (PRECHARGE, at now+tRP),
        or data burst finished (column commands).
        """
        legal = self.earliest_issue(cmd, now)
        if now < legal:
            raise ProtocolError(
                f"{cmd} issued at {now}, earliest legal cycle is {legal}"
            )
        group = self.groups[cmd.bank_group]
        bank = group.banks[cmd.bank]  # index checked by earliest_issue
        t = self._timing
        kind = cmd.kind
        self.command_bus_busy_until = now + cmd.command_bus_cycles

        if kind is CommandKind.ACTIVATE:
            bank.do_activate(now, cmd.row)
            self._recent_activates.append(now)
            self._last_activate_group = cmd.bank_group
            self.activates += 1
            return now + t.tRCD

        if kind is CommandKind.PRECHARGE:
            bank.do_precharge(now)
            self.precharges += 1
            return now + t.tRP

        if kind is CommandKind.READ:
            done = bank.do_read(now, cmd.column)
        elif kind is CommandKind.WRITE:
            done = bank.do_write(now, cmd.column)
        else:
            done = bank.do_migration_read(now, cmd.column)
        # Every column command spaces the group's next one by tCCDl.
        self._last_column_issue = now
        self._last_column_group = cmd.bank_group
        for b in group.banks:
            b.note_column_issued(now, t.tCCDl)

        if kind is CommandKind.MIGRATION:
            group.occupy_bus(max(now, group.bus_busy_until), done)
            self.migrations += 1
            return done
        self.data_bus_busy_until = done
        if kind is CommandKind.READ:
            group.occupy_bus(max(now + t.tCL, group.bus_busy_until), done)
            self.reads += 1
            return done
        group.occupy_bus(max(now + t.tWL, group.bus_busy_until), done)
        self._last_write_data_end = done
        self._last_write_group = cmd.bank_group
        self.writes += 1
        return done

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    _last_activate_group: int = -1

    def open_row(self, bank_group: int, bank: int) -> Optional[int]:
        return self.groups[bank_group].bank(bank).open_row

    def is_idle_at(self, now: int, window: int = 100) -> bool:
        """Idle-channel detection (Section 4.2): the channel is considered
        idle when its data bus has been quiet for ``window`` cycles."""
        return now - self.data_bus_busy_until >= window

    def stats(self) -> dict:
        """Return a snapshot of per-channel command counts."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "migrations": self.migrations,
            "activates": self.activates,
            "precharges": self.precharges,
        }
