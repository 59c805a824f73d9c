"""Tests for repro.core.relation — D* and its powerset."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import RelationError
from repro.core.relation import (
    ALL_BASIC_RELATIONS,
    CardinalDirection,
    DisjunctiveCD,
    tile_union,
)
from repro.core.tiles import Tile


class TestConstruction:
    def test_from_tiles(self):
        relation = CardinalDirection(Tile.S, Tile.SW)
        assert relation.tiles == {Tile.S, Tile.SW}

    def test_from_names(self):
        assert CardinalDirection("NE", "E") == CardinalDirection(Tile.NE, Tile.E)

    def test_from_iterable(self):
        assert CardinalDirection([Tile.N, Tile.B]) == CardinalDirection("B", "N")

    def test_empty_rejected(self):
        with pytest.raises(RelationError):
            CardinalDirection()

    def test_unknown_name_rejected(self):
        with pytest.raises(RelationError):
            CardinalDirection("NNE")

    def test_single_tile_flag(self):
        assert CardinalDirection("S").is_single_tile
        assert not CardinalDirection("S", "SW").is_single_tile


class TestParseAndFormat:
    def test_parse_single(self):
        assert CardinalDirection.parse("S") == CardinalDirection(Tile.S)

    def test_parse_multi(self):
        relation = CardinalDirection.parse("NE:E")
        assert relation.tiles == {Tile.NE, Tile.E}

    def test_str_uses_canonical_order(self):
        """The paper: always B:S:W, never W:B:S."""
        assert str(CardinalDirection("W", "B", "S")) == "B:S:W"
        assert str(CardinalDirection.parse("SE:B:NW")) == "B:NW:SE"

    def test_parse_rejects_duplicates(self):
        with pytest.raises(RelationError):
            CardinalDirection.parse("S:S")

    def test_parse_rejects_empty(self):
        with pytest.raises(RelationError):
            CardinalDirection.parse("")

    def test_parse_roundtrip_all_511(self):
        for relation in ALL_BASIC_RELATIONS:
            assert CardinalDirection.parse(str(relation)) == relation


class TestMaskInterning:
    def test_every_mask_round_trips_through_text(self):
        for mask in range(1, 512):
            relation = CardinalDirection.from_mask(mask)
            assert relation.mask == mask
            assert CardinalDirection.parse(str(relation)).mask == mask

    def test_repeated_mask_returns_the_identical_object(self):
        assert CardinalDirection.from_mask(0b101) is CardinalDirection.from_mask(0b101)

    def test_interned_relations_are_the_basic_relations(self):
        interned = {CardinalDirection.from_mask(mask) for mask in range(1, 512)}
        assert interned == set(ALL_BASIC_RELATIONS)

    def test_mask_bits_follow_tile_values(self):
        relation = CardinalDirection.from_mask((1 << int(Tile.B)) | (1 << int(Tile.SW)))
        assert relation == CardinalDirection("B", "SW")

    @pytest.mark.parametrize("mask", [0, 512, -1])
    def test_out_of_range_mask_rejected(self, mask):
        with pytest.raises(RelationError):
            CardinalDirection.from_mask(mask)

    def test_text_is_memoised(self):
        relation = CardinalDirection("SW", "B")
        assert str(relation) is str(relation) == "B:SW"


class TestAlgebra:
    def test_tile_union_method(self):
        """Definition 2's example: S:SW + S:E:SE + W = S:SW:W:E:SE."""
        r1 = CardinalDirection.parse("S:SW")
        r2 = CardinalDirection.parse("S:E:SE")
        r3 = CardinalDirection.parse("W")
        assert str(r1.tile_union(r2)) == "S:SW:E:SE"
        assert str(r1.tile_union(r2, r3)) == "S:SW:W:E:SE"

    def test_tile_union_function(self):
        assert tile_union(
            [CardinalDirection.parse("N"), CardinalDirection.parse("B")]
        ) == CardinalDirection.parse("B:N")

    def test_tile_union_empty_rejected(self):
        with pytest.raises(RelationError):
            tile_union([])

    def test_spans(self):
        relation = CardinalDirection.parse("B:S:SW:W")
        assert relation.spans_columns == {-1, 0}
        assert relation.spans_rows == {-1, 0}

    def test_includes(self):
        relation = CardinalDirection.parse("NE:E")
        assert relation.includes("NE") and relation.includes(Tile.E)
        assert not relation.includes("B")

    def test_universe_size(self):
        """|D*| = 2^9 - 1 = 511 (Section 2)."""
        assert len(ALL_BASIC_RELATIONS) == 511
        assert len(set(ALL_BASIC_RELATIONS)) == 511

    def test_ordering_is_total(self):
        ordered = sorted(ALL_BASIC_RELATIONS)
        assert len(ordered) == 511
        assert ordered[0] < ordered[-1]


class TestDisjunctive:
    def test_parse_braces(self):
        disjunctive = DisjunctiveCD.parse("{N, W}")
        assert len(disjunctive) == 2
        assert disjunctive.contains(CardinalDirection.parse("N"))

    def test_parse_bare_relation(self):
        disjunctive = DisjunctiveCD.parse("B:S")
        assert disjunctive.is_basic

    def test_parse_empty_braces(self):
        assert DisjunctiveCD.parse("{}").is_empty

    def test_universal(self):
        assert len(DisjunctiveCD.universal()) == 511

    def test_union_intersection(self):
        a = DisjunctiveCD.parse("{N, W}")
        b = DisjunctiveCD.parse("{W, S}")
        assert len(a.union(b)) == 3
        assert a.intersection(b) == DisjunctiveCD.parse("{W}")

    def test_membership_operator(self):
        assert CardinalDirection.parse("N") in DisjunctiveCD.parse("{N, W}")

    def test_str_sorted(self):
        assert str(DisjunctiveCD.parse("{W, N}")) in ("{W, N}", "{N, W}")

    def test_rejects_non_relations(self):
        with pytest.raises(RelationError):
            DisjunctiveCD(["N"])  # strings are not relations

    def test_powerset_claim(self):
        """2^{D*} has 2^511 elements — spot-check the arithmetic only."""
        assert 2 ** len(ALL_BASIC_RELATIONS) == 2**511


@given(st.sets(st.sampled_from(list(Tile)), min_size=1))
def test_str_parse_roundtrip(tiles):
    relation = CardinalDirection(*tiles)
    assert CardinalDirection.parse(str(relation)) == relation


@given(
    st.sets(st.sampled_from(list(Tile)), min_size=1),
    st.sets(st.sampled_from(list(Tile)), min_size=1),
)
def test_tile_union_commutative(tiles_a, tiles_b):
    a, b = CardinalDirection(*tiles_a), CardinalDirection(*tiles_b)
    assert a.tile_union(b) == b.tile_union(a)
