"""XML persistence in the paper's exact CARDIRECT format.

The DTD (Section 4)::

    <!ELEMENT Image (Region+, Relation*)>
    <!ATTLIST Image name CDATA #IMPLIED file CDATA #IMPLIED>
    <!ELEMENT Region (Polygon*)>
    <!ATTLIST Region id ID #REQUIRED name CDATA #IMPLIED color CDATA #IMPLIED>
    <!ELEMENT Polygon (Edge, Edge, Edge, Edge*)>
    <!ATTLIST Polygon id CDATA #REQUIRED>
    <!ELEMENT Edge EMPTY>
    <!ATTLIST Edge x CDATA #REQUIRED y CDATA #REQUIRED>
    <!ELEMENT Relation EMPTY>
    <!ATTLIST Relation type CDATA #REQUIRED
              primary IDREF #REQUIRED reference IDREF #REQUIRED>

Each ``Edge`` element carries one vertex of the clockwise ring (an edge
is defined by consecutive vertices, ring closed implicitly).  ``Relation``
elements store the computed cardinal directions so a saved configuration
can be queried without recomputation; on import they are validated
against the DTD's referential rules but recomputed on demand by the
relation store, so stale values can never corrupt query answers.

Coordinates round-trip exactly: integers as integers, rationals as
``p/q``, floats via ``repr``.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.geometry.repair import RepairReport

from repro.errors import GeometryError, XMLFormatError
from repro.cardirect.model import AnnotatedRegion, Configuration
from repro.cardirect.store import RelationStore
from repro.core.relation import CardinalDirection
from repro.errors import RelationError
from repro.geometry.point import Coordinate
from repro.geometry.polygon import Polygon
from repro.geometry.region import Region

#: ElementTree's attribute escapes, in its order.  Relation attributes
#: never hold ``\r``, the one character Python versions escape
#: differently (a region id may end in ``\n``: the id pattern's ``$``
#: admits one trailing newline).
_ATTRIBUTE_ESCAPES = (
    ("&", "&amp;"),
    ("<", "&lt;"),
    (">", "&gt;"),
    ('"', "&quot;"),
    ("\n", "&#10;"),
    ("\t", "&#09;"),
)


def _escape_attribute(text: str) -> str:
    """``text`` escaped as ElementTree escapes an attribute value."""
    for character, entity in _ATTRIBUTE_ESCAPES:
        text = text.replace(character, entity)
    return text


#: The DTD, emitted verbatim into saved documents.  It is the paper's DTD
#: plus one backward-compatible optional attribute: ``Relation
#: percentages`` stores the cardinal direction matrix with percentages
#: (nine values in the paper's matrix layout), since CARDIRECT computes
#: relations "with and without percentages".
CARDIRECT_DTD = """<!DOCTYPE Image [
<!ELEMENT Image (Region+, Relation*)>
<!ATTLIST Image name CDATA #IMPLIED file CDATA #IMPLIED>
<!ELEMENT Region (Polygon*)>
<!ATTLIST Region id ID #REQUIRED name CDATA #IMPLIED color CDATA #IMPLIED>
<!ELEMENT Polygon (Edge, Edge, Edge, Edge*)>
<!ATTLIST Polygon id CDATA #REQUIRED>
<!ELEMENT Edge EMPTY>
<!ATTLIST Edge x CDATA #REQUIRED y CDATA #REQUIRED>
<!ELEMENT Relation EMPTY>
<!ATTLIST Relation type CDATA #REQUIRED primary IDREF #REQUIRED reference IDREF #REQUIRED percentages CDATA #IMPLIED>
]>"""


def format_coordinate(value: Coordinate) -> str:
    """Serialise a coordinate losslessly."""
    if isinstance(value, bool):  # pragma: no cover - nonsensical input
        raise XMLFormatError("boolean is not a coordinate")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return repr(value)
    raise XMLFormatError(f"cannot serialise coordinate {value!r}")


def parse_coordinate(text: str, *, context: Optional[str] = None) -> Coordinate:
    """Inverse of :func:`format_coordinate`.

    Raises :class:`XMLFormatError` — never a raw ``ValueError`` — on any
    malformed value, including non-finite floats (``1e999`` overflows to
    infinity, ``nan`` parses); ``context`` (e.g. the element/attribute
    the value came from) is appended to the message so a failing
    document pinpoints its own defect.
    """
    where = f" (in {context})" if context else ""
    text = text.strip()
    try:
        if "/" in text:
            return Fraction(text)
        if any(ch in text for ch in ".eE") and not text.lstrip("+-").isdigit():
            value = float(text)
            if not math.isfinite(value):
                raise XMLFormatError(
                    f"non-finite coordinate {text!r}{where}"
                )
            return value
        return int(text)
    except (ValueError, ZeroDivisionError) as error:
        raise XMLFormatError(
            f"bad coordinate {text!r}{where}: {error}"
        ) from error


def format_percentages(matrix) -> str:
    """Serialise a percentage matrix: nine values, paper's matrix layout."""
    from repro.core.matrix import MATRIX_LAYOUT

    cells = []
    for row in MATRIX_LAYOUT:
        for tile in row:
            value = matrix.percentage(tile)
            if isinstance(value, float):
                cells.append(repr(value))
            else:
                cells.append(format_coordinate(Fraction(value)))
    return " ".join(cells)


def parse_percentages(text: str):
    """Inverse of :func:`format_percentages`."""
    from repro.core.matrix import MATRIX_LAYOUT, PercentageMatrix

    parts = text.split()
    if len(parts) != 9:
        raise XMLFormatError(
            f"percentages attribute needs 9 values, got {len(parts)}"
        )
    values = [parse_coordinate(part) for part in parts]
    cells = {}
    index = 0
    for row in MATRIX_LAYOUT:
        for tile in row:
            cells[tile] = values[index]
            index += 1
    try:
        return PercentageMatrix(cells)
    except RelationError as error:
        raise XMLFormatError(f"bad percentages attribute: {error}") from error


def configuration_to_xml(
    configuration: Configuration,
    *,
    store: Optional[RelationStore] = None,
    include_relations: bool = True,
    include_percentages: bool = False,
) -> str:
    """Serialise a configuration (and its relations) to a CARDIRECT document.

    With ``include_relations`` (the default) all pairwise relations are
    computed — through ``store`` if given, so an existing cache is
    reused — and written as ``Relation`` elements, matching the paper's
    "the direction relations among the different regions are all stored
    in the XML description".
    """
    image = ET.Element("Image")
    if configuration.image_name:
        image.set("name", configuration.image_name)
    if configuration.image_file:
        image.set("file", configuration.image_file)
    for annotated in configuration:
        region_element = ET.SubElement(image, "Region", id=annotated.id)
        if annotated.name:
            region_element.set("name", annotated.name)
        if annotated.color:
            region_element.set("color", annotated.color)
        for index, polygon in enumerate(annotated.region.polygons):
            polygon_element = ET.SubElement(
                region_element, "Polygon", id=f"{annotated.id}-{index}"
            )
            for vertex in polygon.vertices:
                ET.SubElement(
                    polygon_element,
                    "Edge",
                    x=format_coordinate(vertex.x),
                    y=format_coordinate(vertex.y),
                )
    ET.indent(image)
    body = ET.tostring(image, encoding="unicode")
    if include_relations and len(configuration) > 1:
        # The n(n-1) Relation elements are most of the document, so they
        # are formatted here rather than serialised element by element:
        # the text is exactly what ElementTree writes for them after
        # ET.indent, and each relation's text is interned.
        store = store or RelationStore(configuration)
        quoted = {
            region_id: _escape_attribute(region_id)
            for region_id in configuration.region_ids
        }
        lines = []
        for primary_id, reference_id, relation in store.all_relations():
            percentages = ""
            if include_percentages:
                matrix = store.percentages(primary_id, reference_id)
                percentages = f' percentages="{format_percentages(matrix)}"'
            lines.append(
                f'  <Relation type="{relation}" primary="{quoted[primary_id]}" '
                f'reference="{quoted[reference_id]}"{percentages} />\n'
            )
        body = body[: -len("</Image>")] + "".join(lines) + "</Image>"
    return f'<?xml version="1.0" encoding="UTF-8"?>\n{CARDIRECT_DTD}\n{body}\n'


#: Ingestion modes of :func:`configuration_from_xml` — ``strict`` is the
#: historical reject-on-defect behaviour; ``repair`` and ``lenient``
#: route rings through :func:`repro.geometry.repair.repair_region`.
INGESTION_MODES = ("strict", "repair", "lenient")


def configuration_from_xml(
    text: str,
    *,
    mode: str = "strict",
    repairs: Optional[Dict[str, "RepairReport"]] = None,
) -> Tuple[Configuration, Dict[Tuple[str, str], CardinalDirection]]:
    """Parse a CARDIRECT document.

    Returns the configuration and the stored ``Relation`` entries (which
    callers may use as a warm cache, or ignore — the store recomputes on
    demand).  Raises :class:`XMLFormatError` on any DTD violation:
    missing required attributes, fewer than three edges in a polygon,
    duplicate region ids, or relations referencing unknown regions.

    ``mode`` selects how degenerate geometry is handled: ``"strict"``
    (default) rejects it; ``"repair"`` / ``"lenient"`` run the repair
    pipeline per region, recording each region's
    :class:`~repro.geometry.repair.RepairReport` into the ``repairs``
    dict (keyed by region id) when one is supplied.  Geometry that
    cannot be repaired still raises :class:`XMLFormatError`.
    """
    if mode not in INGESTION_MODES:
        raise ValueError(
            f"mode must be one of {INGESTION_MODES}, got {mode!r}"
        )
    try:
        root = ET.fromstring(text)
    except ET.ParseError as error:
        raise XMLFormatError(f"not well-formed XML: {error}") from error
    if root.tag != "Image":
        raise XMLFormatError(f"root element must be Image, got {root.tag!r}")

    configuration = Configuration(
        image_name=root.get("name", ""), image_file=root.get("file", "")
    )
    for element in root:
        if element.tag == "Region":
            region = _parse_region(element, mode=mode, repairs=repairs)
            if region.id in configuration:
                raise XMLFormatError(f"duplicate Region id {region.id!r}")
            configuration.add(region)
        elif element.tag != "Relation":
            raise XMLFormatError(f"unexpected element {element.tag!r} under Image")
    if len(configuration) == 0:
        raise XMLFormatError("Image must contain at least one Region")

    relations: Dict[Tuple[str, str], CardinalDirection] = {}
    for element in root.iter("Relation"):
        relations[_parse_relation_key(element, configuration)] = (
            _parse_relation_type(element)
        )
    return configuration, relations


def stored_percentages_from_xml(text: str) -> Dict[Tuple[str, str], object]:
    """Extract the stored percentage matrices of a document.

    Returns ``{(primary, reference): PercentageMatrix}`` for every
    ``Relation`` element carrying the optional ``percentages`` attribute
    (written by ``configuration_to_xml(..., include_percentages=True)``).
    """
    configuration, _ = configuration_from_xml(text)
    root = ET.fromstring(text)
    matrices: Dict[Tuple[str, str], object] = {}
    for element in root.iter("Relation"):
        raw = element.get("percentages")
        if raw is None:
            continue
        key = _parse_relation_key(element, configuration)
        matrices[key] = parse_percentages(raw)
    return matrices


def _require(element: ET.Element, attribute: str) -> str:
    value = element.get(attribute)
    if value is None:
        raise XMLFormatError(
            f"<{element.tag}> is missing required attribute {attribute!r}"
        )
    return value


def _parse_region(
    element: ET.Element,
    *,
    mode: str = "strict",
    repairs: Optional[Dict[str, "RepairReport"]] = None,
) -> AnnotatedRegion:
    region_id = _require(element, "id")
    rings: List[List[Tuple[object, object]]] = []
    for child in element:
        if child.tag != "Polygon":
            raise XMLFormatError(
                f"unexpected element {child.tag!r} under Region {region_id!r}"
            )
        polygon_id = _require(child, "id")
        vertices = []
        for edge_index, edge in enumerate(child):
            if edge.tag != "Edge":
                raise XMLFormatError(
                    f"unexpected element {edge.tag!r} under "
                    f"Polygon {polygon_id!r}"
                )
            context = (
                f"<Edge> #{edge_index} of Polygon {polygon_id!r} "
                f"in Region {region_id!r}"
            )
            vertices.append(
                (
                    parse_coordinate(
                        _require(edge, "x"),
                        context=f"attribute 'x' of {context}",
                    ),
                    parse_coordinate(
                        _require(edge, "y"),
                        context=f"attribute 'y' of {context}",
                    ),
                )
            )
        if len(vertices) < 3 and mode == "strict":
            raise XMLFormatError(
                f"Polygon {polygon_id!r} in Region {region_id!r} has "
                f"{len(vertices)} edges; the DTD requires at least three"
            )
        rings.append(vertices)
    if not rings:
        raise XMLFormatError(
            f"Region {region_id!r} has no polygons; regions must be non-empty"
        )

    if mode == "strict":
        polygons: List[Polygon] = []
        for vertices in rings:
            try:
                polygons.append(Polygon.from_coordinates(vertices))
            except GeometryError as error:
                raise XMLFormatError(
                    f"invalid polygon in Region {region_id!r}: {error}"
                ) from error
        region = Region(polygons)
    else:
        from repro.geometry.repair import repair_region

        try:
            region, report = repair_region(
                rings, mode=mode, region_id=region_id
            )
        except GeometryError as error:
            raise XMLFormatError(
                f"unrepairable geometry in Region {region_id!r}: "
                f"{error.with_context(region_id=region_id)}"
            ) from error
        if repairs is not None and report.changed:
            repairs[region_id] = report
    return AnnotatedRegion(
        id=region_id,
        region=region,
        name=element.get("name", ""),
        color=element.get("color", ""),
    )


def _parse_relation_key(
    element: ET.Element, configuration: Configuration
) -> Tuple[str, str]:
    primary = _require(element, "primary")
    reference = _require(element, "reference")
    for region_id in (primary, reference):
        if region_id not in configuration:
            raise XMLFormatError(
                f"Relation references unknown region id {region_id!r}"
            )
    return primary, reference


def _parse_relation_type(element: ET.Element) -> CardinalDirection:
    try:
        return CardinalDirection.parse(_require(element, "type"))
    except RelationError as error:
        raise XMLFormatError(f"bad Relation type: {error}") from error


def save_configuration(
    configuration: Configuration,
    path: Union[str, Path],
    *,
    store: Optional[RelationStore] = None,
    include_relations: bool = True,
    include_percentages: bool = False,
) -> None:
    """Write a configuration to ``path`` in CARDIRECT XML."""
    Path(path).write_text(
        configuration_to_xml(
            configuration,
            store=store,
            include_relations=include_relations,
            include_percentages=include_percentages,
        ),
        encoding="utf-8",
    )


def load_configuration(
    path: Union[str, Path],
    *,
    mode: str = "strict",
    repairs: Optional[Dict[str, "RepairReport"]] = None,
) -> Tuple[Configuration, Dict[Tuple[str, str], CardinalDirection]]:
    """Read a configuration from a CARDIRECT XML file.

    ``mode`` / ``repairs`` as in :func:`configuration_from_xml`.
    """
    return configuration_from_xml(
        Path(path).read_text(encoding="utf-8"), mode=mode, repairs=repairs
    )
