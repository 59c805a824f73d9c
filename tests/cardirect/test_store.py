"""Tests for the relation store (caching + invalidation)."""

from repro.cardirect.model import AnnotatedRegion, Configuration
from repro.cardirect.store import RelationStore
from repro.core.tiles import Tile
from repro.geometry.region import Region


def rect_region(x0, y0, x1, y1) -> Region:
    return Region.from_coordinates([[(x0, y0), (x0, y1), (x1, y1), (x1, y0)]])


def make_store() -> RelationStore:
    configuration = Configuration.from_regions(
        [
            AnnotatedRegion("box", rect_region(0, 0, 10, 10)),
            AnnotatedRegion("south", rect_region(2, -8, 8, -2)),
            AnnotatedRegion("east", rect_region(12, 2, 18, 8)),
        ]
    )
    return RelationStore(configuration)


class TestRelations:
    def test_relation(self):
        store = make_store()
        assert str(store.relation("south", "box")) == "S"
        assert str(store.relation("east", "box")) == "E"

    def test_relation_is_directional(self):
        store = make_store()
        # The box is wider than south's mbb, so it spreads over the
        # whole northern row of south's grid.
        assert str(store.relation("box", "south")) == "NW:N:NE"

    def test_percentages(self):
        store = make_store()
        assert store.percentages("south", "box").percentage(Tile.S) == 100

    def test_all_relations_count(self):
        store = make_store()
        assert len(list(store.all_relations())) == 3 * 2

    def test_all_relations_include_self(self):
        store = make_store()
        entries = list(store.all_relations(include_self=True))
        assert len(entries) == 9
        self_entries = [r for p, q, r in entries if p == q]
        assert all(str(r) == "B" for r in self_entries)


class TestCaching:
    def test_cached_instances_are_reused(self):
        store = make_store()
        first = store.relation("south", "box")
        assert store.relation("south", "box") is first

    def test_update_region_invalidates(self):
        store = make_store()
        assert str(store.relation("south", "box")) == "S"
        moved = AnnotatedRegion("south", rect_region(2, 12, 8, 18))
        store.update_region(moved)
        assert str(store.relation("south", "box")) == "N"

    def test_update_region_keeps_unrelated_entries(self):
        store = make_store()
        east_before = store.relation("east", "box")
        store.update_region(AnnotatedRegion("south", rect_region(2, 12, 8, 18)))
        assert store.relation("east", "box") is east_before

    def test_invalidate_all(self):
        store = make_store()
        first = store.relation("south", "box")
        calls = store.engine_stats.calls["relation"]
        store.invalidate()
        # Relations are interned, so identity cannot show a recompute;
        # the engine's call count does.
        assert store.relation("south", "box") == first
        assert store.engine_stats.calls["relation"] == calls + 1

    def test_invalidate_affects_reference_side_too(self):
        store = make_store()
        assert str(store.relation("east", "box")) == "E"
        # Move the *reference*: east's relation to it must change.
        store.update_region(AnnotatedRegion("box", rect_region(20, 0, 30, 10)))
        assert str(store.relation("east", "box")) == "W"
