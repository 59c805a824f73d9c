"""Tests for the CARDIRECT XML format (E13)."""

from fractions import Fraction

import pytest

from repro.errors import XMLFormatError
from repro.cardirect.model import AnnotatedRegion, Configuration
from repro.cardirect.xmlio import (
    configuration_from_xml,
    configuration_to_xml,
    format_coordinate,
    load_configuration,
    parse_coordinate,
    save_configuration,
)
from repro.geometry.region import Region


def rect_region(x0, y0, x1, y1) -> Region:
    return Region.from_coordinates([[(x0, y0), (x0, y1), (x1, y1), (x1, y0)]])


def make_configuration() -> Configuration:
    return Configuration.from_regions(
        [
            AnnotatedRegion("box", rect_region(0, 0, 10, 10), name="Box", color="red"),
            AnnotatedRegion(
                "south",
                rect_region(Fraction(1, 2), -8, Fraction(19, 2), -2),
                name="South",
                color="blue",
            ),
        ],
        image_name="demo",
        image_file="demo.png",
    )


class TestCoordinates:
    @pytest.mark.parametrize(
        "value", [0, 7, -13, Fraction(1, 3), Fraction(-7, 2), 2.5, -0.125]
    )
    def test_roundtrip(self, value):
        assert parse_coordinate(format_coordinate(value)) == value

    def test_integral_fraction_compacts(self):
        assert format_coordinate(Fraction(4, 2)) == "2"

    def test_parse_int(self):
        assert parse_coordinate("42") == 42 and isinstance(parse_coordinate("42"), int)

    def test_parse_fraction(self):
        assert parse_coordinate("1/3") == Fraction(1, 3)

    def test_parse_float(self):
        assert parse_coordinate("2.5") == 2.5

    def test_parse_scientific(self):
        assert parse_coordinate("1e3") == 1000.0

    def test_parse_garbage(self):
        with pytest.raises(XMLFormatError):
            parse_coordinate("one third")

    def test_parse_zero_denominator(self):
        with pytest.raises(XMLFormatError):
            parse_coordinate("1/0")


class TestExport:
    def test_document_structure(self):
        text = configuration_to_xml(make_configuration())
        assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>')
        assert "<!DOCTYPE Image [" in text
        assert '<Image name="demo" file="demo.png">' in text
        assert text.count("<Region") == 2
        assert text.count("<Relation") == 2  # both ordered pairs

    def test_relations_optional(self):
        text = configuration_to_xml(make_configuration(), include_relations=False)
        assert "<Relation" not in text

    def test_relation_types_are_canonical(self):
        text = configuration_to_xml(make_configuration())
        assert 'type="S"' in text and 'type="NW:N:NE"' in text

    @pytest.mark.parametrize("percentages", [False, True])
    def test_relations_are_written_as_element_tree_writes_them(self, percentages):
        """Relation lines are formatted directly; they must match the
        element tree's own serialisation, awkward ids included."""
        import xml.etree.ElementTree as ET

        from repro.cardirect.store import RelationStore
        from repro.cardirect.xmlio import CARDIRECT_DTD, format_percentages

        configuration = make_configuration()
        configuration.add(AnnotatedRegion("x\u00e9.1-b", rect_region(20, 0, 30, 10)))
        configuration.add(AnnotatedRegion("tail\n", rect_region(-9, 3, -4, 6)))
        text = configuration_to_xml(
            configuration, include_percentages=percentages
        )
        image = ET.fromstring(
            configuration_to_xml(configuration, include_relations=False)
        )
        store = RelationStore(configuration)
        for primary, reference, relation in store.all_relations():
            element = ET.SubElement(
                image, "Relation", type=str(relation), primary=primary, reference=reference
            )
            if percentages:
                element.set(
                    "percentages",
                    format_percentages(store.percentages(primary, reference)),
                )
        ET.indent(image)
        body = ET.tostring(image, encoding="unicode")
        assert text == f'<?xml version="1.0" encoding="UTF-8"?>\n{CARDIRECT_DTD}\n{body}\n'


class TestImport:
    def test_roundtrip_geometry_exact(self):
        configuration = make_configuration()
        text = configuration_to_xml(configuration)
        reloaded, relations = configuration_from_xml(text)
        assert len(reloaded) == 2
        for original in configuration:
            clone = reloaded.get(original.id)
            assert clone.region == original.region
            assert clone.name == original.name
            assert clone.color == original.color
        assert str(relations[("south", "box")]) == "S"
        assert str(relations[("box", "south")]) == "NW:N:NE"

    def test_roundtrip_twice_is_identity(self):
        text = configuration_to_xml(make_configuration())
        reloaded, _ = configuration_from_xml(text)
        assert configuration_to_xml(reloaded) == text

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "demo.xml"
        save_configuration(make_configuration(), path)
        reloaded, relations = load_configuration(path)
        assert len(reloaded) == 2 and len(relations) == 2

    def test_multi_polygon_region_roundtrip(self, tmp_path):
        from repro.workloads.generators import region_with_hole

        configuration = Configuration.from_regions(
            [AnnotatedRegion("ring", region_with_hole((0, 0, 10, 10), (4, 4, 6, 6)))]
        )
        path = tmp_path / "ring.xml"
        save_configuration(configuration, path)
        reloaded, _ = load_configuration(path)
        assert reloaded.get("ring").region == configuration.get("ring").region


class TestDTDValidation:
    def test_not_xml(self):
        with pytest.raises(XMLFormatError):
            configuration_from_xml("this is not xml")

    def test_wrong_root(self):
        with pytest.raises(XMLFormatError):
            configuration_from_xml("<Map></Map>")

    def test_empty_image_rejected(self):
        """DTD: Image requires Region+."""
        with pytest.raises(XMLFormatError):
            configuration_from_xml("<Image></Image>")

    def test_region_without_id_rejected(self):
        with pytest.raises(XMLFormatError):
            configuration_from_xml(
                "<Image><Region><Polygon id='p'>"
                "<Edge x='0' y='0'/><Edge x='0' y='1'/><Edge x='1' y='0'/>"
                "</Polygon></Region></Image>"
            )

    def test_too_few_edges_rejected(self):
        """DTD: Polygon requires Edge, Edge, Edge, Edge*."""
        with pytest.raises(XMLFormatError):
            configuration_from_xml(
                "<Image><Region id='r'><Polygon id='p'>"
                "<Edge x='0' y='0'/><Edge x='1' y='1'/>"
                "</Polygon></Region></Image>"
            )

    def test_edge_without_coordinates_rejected(self):
        with pytest.raises(XMLFormatError):
            configuration_from_xml(
                "<Image><Region id='r'><Polygon id='p'>"
                "<Edge x='0' y='0'/><Edge x='0'/><Edge x='1' y='0'/>"
                "</Polygon></Region></Image>"
            )

    def test_degenerate_polygon_rejected(self):
        with pytest.raises(XMLFormatError):
            configuration_from_xml(
                "<Image><Region id='r'><Polygon id='p'>"
                "<Edge x='0' y='0'/><Edge x='1' y='1'/><Edge x='2' y='2'/>"
                "</Polygon></Region></Image>"
            )

    def test_region_without_polygons_rejected(self):
        with pytest.raises(XMLFormatError):
            configuration_from_xml("<Image><Region id='r'></Region></Image>")

    def test_dangling_relation_idref_rejected(self):
        with pytest.raises(XMLFormatError):
            configuration_from_xml(
                "<Image><Region id='r'><Polygon id='p'>"
                "<Edge x='0' y='0'/><Edge x='0' y='1'/><Edge x='1' y='0'/>"
                "</Polygon></Region>"
                "<Relation type='N' primary='r' reference='ghost'/></Image>"
            )

    def test_bad_relation_type_rejected(self):
        with pytest.raises(XMLFormatError):
            configuration_from_xml(
                "<Image><Region id='r'><Polygon id='p'>"
                "<Edge x='0' y='0'/><Edge x='0' y='1'/><Edge x='1' y='0'/>"
                "</Polygon></Region>"
                "<Relation type='NORTHISH' primary='r' reference='r'/></Image>"
            )

    def test_unexpected_element_rejected(self):
        with pytest.raises(XMLFormatError):
            configuration_from_xml(
                "<Image><Sticker/><Region id='r'><Polygon id='p'>"
                "<Edge x='0' y='0'/><Edge x='0' y='1'/><Edge x='1' y='0'/>"
                "</Polygon></Region></Image>"
            )

    def test_duplicate_region_ids_rejected(self):
        body = (
            "<Region id='r'><Polygon id='p'>"
            "<Edge x='0' y='0'/><Edge x='0' y='1'/><Edge x='1' y='0'/>"
            "</Polygon></Region>"
        )
        with pytest.raises(XMLFormatError):
            configuration_from_xml(f"<Image>{body}{body}</Image>")
