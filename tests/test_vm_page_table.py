"""Unit tests for the 4-level page table (repro.vm.page_table)."""

import pytest

from repro.errors import AddressError, TranslationError
from repro.vm import PageTable


@pytest.fixture
def table():
    return PageTable(app_id=0)


class TestMapping:
    def test_map_and_lookup(self, table):
        table.map(vpn=10, rpn=99, channel=3)
        entry = table.lookup(10)
        assert entry.rpn == 99
        assert entry.channel == 3
        assert entry.valid

    def test_lookup_unmapped_returns_none(self, table):
        assert table.lookup(123) is None

    def test_remap_replaces_entry(self, table):
        table.map(5, 1, channel=0)
        table.map(5, 2, channel=1)
        assert table.lookup(5).rpn == 2
        assert len(table) == 1

    def test_len_counts_mappings(self, table):
        for vpn in range(100):
            table.map(vpn, vpn + 1000, channel=vpn % 8)
        assert len(table) == 100

    def test_unmap(self, table):
        table.map(7, 70, channel=2)
        removed = table.unmap(7)
        assert removed.rpn == 70
        assert table.lookup(7) is None
        assert len(table) == 0

    def test_unmap_missing_raises(self, table):
        with pytest.raises(TranslationError):
            table.unmap(7)

    def test_distant_vpns_do_not_collide(self, table):
        # VPNs differing only in the top radix level.
        a = 0
        b = 1 << 27
        table.map(a, 1, channel=0)
        table.map(b, 2, channel=1)
        assert table.lookup(a).rpn == 1
        assert table.lookup(b).rpn == 2


class TestTranslateAndInvalidate:
    def test_translate_sets_referenced(self, table):
        table.map(3, 30, channel=0)
        entry = table.translate(3)
        assert entry.referenced

    def test_translate_invalid_entry_returns_none(self, table):
        table.map(3, 30, channel=0)
        table.invalidate(3)
        assert table.translate(3) is None
        # But the raw entry is still there.
        assert table.lookup(3) is not None

    def test_invalidate_missing_raises(self, table):
        with pytest.raises(TranslationError):
            table.invalidate(99)


class TestIterationHelpers:
    def test_entries_sorted_by_vpn(self, table):
        for vpn in (500, 2, 77, 1 << 20):
            table.map(vpn, vpn, channel=0)
        vpns = [vpn for vpn, _ in table.entries()]
        assert vpns == sorted(vpns)
        assert len(vpns) == 4

    def test_pages_in_channel(self, table):
        table.map(1, 10, channel=0)
        table.map(2, 20, channel=1)
        table.map(3, 30, channel=0)
        table.invalidate(3)
        found = list(table.pages_in_channel(0))
        assert [vpn for vpn, _ in found] == [1]

    def test_channel_page_counts(self, table):
        for vpn in range(10):
            table.map(vpn, vpn, channel=vpn % 2)
        assert table.channel_page_counts() == {0: 5, 1: 5}


class TestWalkDepth:
    def test_mapped_vpn_touches_all_levels(self, table):
        table.map(42, 420, channel=0)
        assert table.levels_touched(42) == 4

    def test_empty_table_touches_one_level(self, table):
        assert table.levels_touched(42) == 1

    def test_partial_population(self, table):
        table.map(0, 1, channel=0)
        # A vpn sharing the first radix index but diverging at level 2.
        diverging = 1 << 18
        assert 1 < table.levels_touched(diverging) <= 4

    def test_unmap_keeps_interior_tables(self, table):
        # unmap frees the leaf only, so a walk still reaches the leaf level.
        table.map(42, 420, channel=0)
        table.unmap(42)
        assert table.levels_touched(42) == 4
        assert table.levels_touched(1 << 9) == 3
        assert table.levels_touched(1 << 18) == 2
        assert table.levels_touched(1 << 27) == 1

    def test_cr3_distinct_per_app(self):
        assert PageTable(0).cr3 != PageTable(1).cr3


class TestAddressRange:
    @pytest.mark.parametrize("vpn", [-1, 1 << 36])
    @pytest.mark.parametrize("call", [
        lambda t, v: t.map(v, 1, channel=0),
        lambda t, v: t.unmap(v),
        lambda t, v: t.invalidate(v),
        lambda t, v: t.lookup(v),
        lambda t, v: t.translate(v),
        lambda t, v: t.levels_touched(v),
    ], ids=["map", "unmap", "invalidate", "lookup", "translate",
            "levels_touched"])
    def test_vpn_outside_the_address_space_rejected(self, table, call, vpn):
        with pytest.raises(AddressError, match="outside 48-bit space"):
            call(table, vpn)

    def test_highest_vpn_accepted(self, table):
        top = (1 << 36) - 1
        table.map(top, 1, channel=0)
        assert table.lookup(top).rpn == 1
        assert table.levels_touched(top) == 4
