"""Seeded input generator shared by every workload.

One seed fixes the whole input: ``n`` 12-edge star regions on a jittered
grid (spacing 3, radii 0.4-2.0, so near neighbours' mbbs overlap and
distant pairs sit in one exterior tile of each other and prune), colours
cycling red/blue/green/black, a fixed share of *defective* regions and a
fixed share of *border* regions.

* A defective region's ring has one ingestion defect.  For the XML path
  the kinds mirror ``repro.workloads.generators.degenerate_ring``
  (reversed, duplicated vertices, collinear vertices, bowtie), written
  as raw ``Edge`` lists; for the in-memory path every defective region
  is a constructible bowtie over its mbb, as
  ``repro.resilience.faults.corrupt_region`` builds it.
* A border region has one vertical edge lying exactly on, or one ulp
  either side of, its right neighbour's mbb ``min_x`` grid line - the
  case where neighbouring annotations share a border after a coordinate
  transform.

Counts are ``round(share * n)`` (at least one each), not per-region coin
flips, so every seed of a workload has the same input properties and
only the geometry moves.  The generator owns its geometry code, so a
change to the program's own generators cannot change the benchmark
inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple
from xml.sax.saxutils import quoteattr

Ring = List[Tuple[float, float]]

COLORS = ("red", "blue", "green", "black")
GRID = 3.0
EDGES = 12
DEFECTIVE_SHARE = 0.02
BORDER_SHARE = 0.02
XML_DEFECTS = ("reversed", "duplicated", "collinear", "bowtie")
BORDER_VARIANTS = ("on", "above", "below")  # exactly on, +1 ulp, -1 ulp


@dataclass
class Inputs:
    """A generated configuration, before the program sees it."""

    seed: int
    ids: List[str]
    colors: List[str]
    rings: List[Ring]  # the valid ring of each region (before defects)
    defective: Dict[int, str] = field(default_factory=dict)  # index -> kind
    border: Dict[int, Tuple[int, str]] = field(default_factory=dict)  # index -> (neighbour, variant)

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def plain(self) -> List[int]:
        """Regions that are neither defective, border, nor a border's neighbour."""
        special = set(self.defective) | set(self.border)
        special |= {neighbour for neighbour, _ in self.border.values()}
        return [index for index in range(self.n) if index not in special]

    def shares(self) -> Dict[str, float]:
        return {
            "defective_share": len(self.defective) / self.n,
            "border_share": len(self.border) / self.n,
        }


def star_ring(rng: random.Random, center: Tuple[float, float]) -> Ring:
    """A simple clockwise (y-up) star ring: strictly decreasing angles."""
    cx, cy = center
    width = 2.0 * math.pi / EDGES
    ring = []
    for i in range(EDGES):
        theta = -(i * width + rng.uniform(0.1, 0.9) * width)
        radius = rng.uniform(0.4, 2.0)
        ring.append((cx + radius * math.cos(theta), cy + radius * math.sin(theta)))
    return ring


def grid_center(index: int, n: int) -> Tuple[float, float]:
    side = max(1, math.ceil(math.sqrt(n)))
    return (index % side) * GRID, (index // side) * GRID


def _count(share: float, n: int) -> int:
    return max(1, round(share * n))


def generate(n: int, seed: int) -> Inputs:
    """The seeded configuration of ``n`` regions (deterministic per seed)."""
    rng = random.Random(seed)
    side = max(1, math.ceil(math.sqrt(n)))
    rings = []
    for index in range(n):
        cx, cy = grid_center(index, n)
        center = (cx + rng.uniform(-0.5, 0.5), cy + rng.uniform(-0.5, 0.5))
        rings.append(star_ring(rng, center))
    inputs = Inputs(
        seed=seed,
        ids=[f"g{index}" for index in range(n)],
        colors=[COLORS[index % len(COLORS)] for index in range(n)],
        rings=rings,
    )
    # Border regions: cells with a right neighbour in the same grid row;
    # neither side of a border pair is defective or in another pair.
    eligible = [
        index
        for index in range(n - 1)
        if index % side != side - 1
    ]
    rng.shuffle(eligible)
    taken: set = set()
    wanted = _count(BORDER_SHARE, n)
    for index in eligible:
        if len(inputs.border) == wanted:
            break
        neighbour = index + 1
        if index in taken or neighbour in taken:
            continue
        variant = BORDER_VARIANTS[len(inputs.border) % len(BORDER_VARIANTS)]
        ring = _border_ring(rings[index], rings[neighbour], variant)
        if ring is None:
            continue
        rings[index] = ring
        inputs.border[index] = (neighbour, variant)
        taken.update((index - 1, index, neighbour, neighbour + 1))
    rest = [index for index in range(n) if index not in taken]
    rng.shuffle(rest)
    for k, index in enumerate(rest[: _count(DEFECTIVE_SHARE, n)]):
        inputs.defective[index] = XML_DEFECTS[k % len(XML_DEFECTS)]
    return inputs


def _simple(ring: Ring) -> bool:
    """Whether no two non-adjacent edges of the ring touch."""
    count = len(ring)
    edges = [(ring[i], ring[(i + 1) % count]) for i in range(count)]

    def orient(a, b, c):
        value = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return (value > 0) - (value < 0)

    def on_segment(a, b, c):
        return min(a[0], b[0]) <= c[0] <= max(a[0], b[0]) and min(
            a[1], b[1]
        ) <= c[1] <= max(a[1], b[1])

    for i in range(count):
        for j in range(i + 1, count):
            if j == i + 1 or (i == 0 and j == count - 1):
                continue
            (p1, p2), (q1, q2) = edges[i], edges[j]
            o1, o2 = orient(p1, p2, q1), orient(p1, p2, q2)
            o3, o4 = orient(q1, q2, p1), orient(q1, q2, p2)
            if o1 != o2 and o3 != o4:
                return False
            if o1 == 0 and on_segment(p1, p2, q1):
                return False
            if o2 == 0 and on_segment(p1, p2, q2):
                return False
            if o3 == 0 and on_segment(q1, q2, p1):
                return False
            if o4 == 0 and on_segment(q1, q2, p2):
                return False
    return True


def _border_ring(ring: Ring, neighbour: Ring, variant: str):
    """``ring`` moved so a vertical edge lies on ``neighbour``'s min-x line.

    The rightmost vertex becomes a short vertical edge at exactly
    ``line`` (the neighbour's mbb ``min_x``, or one ulp either side);
    every other vertex shifts by the same amount, staying left of it.
    """
    line = min(x for x, _ in neighbour)
    if variant == "above":
        line = math.nextafter(line, math.inf)
    elif variant == "below":
        line = math.nextafter(line, -math.inf)
    k = max(range(len(ring)), key=lambda i: ring[i][0])
    x_k, y_k = ring[k]
    shift = line - x_k
    before, after = ring[k - 1][1], ring[(k + 1) % len(ring)][1]
    half = min(0.05, 0.3 * abs(before - y_k), 0.3 * abs(y_k - after))
    if half <= 1e-6:
        return None
    moved = [(x + shift, y) for x, y in ring]
    moved[k : k + 1] = [(line, y_k + half), (line, y_k - half)]
    if any(x > line for x, _ in moved) or not _simple(moved):
        return None
    return moved


def defect_ring(ring: Ring, kind: str) -> Ring:
    """``ring`` with one ingestion defect (``degenerate_ring``'s kinds)."""
    if kind == "reversed":
        return list(reversed(ring))
    if kind == "duplicated":
        doubled: Ring = []
        for i, vertex in enumerate(ring):
            doubled.append(vertex)
            if i % 2 == 0:
                doubled.append(vertex)
        doubled.append(ring[0])  # explicit closing vertex
        return doubled
    if kind == "collinear":
        padded: Ring = []
        count = len(ring)
        for i in range(count):
            x0, y0 = ring[i]
            x1, y1 = ring[(i + 1) % count]
            padded.append((x0, y0))
            padded.append(((x0 + x1) / 2.0, (y0 + y1) / 2.0))
        return padded
    if kind == "bowtie":
        return bowtie_ring(ring)
    raise ValueError(f"unknown defect kind {kind!r}")


def bowtie_ring(ring: Ring) -> Ring:
    """A self-intersecting ring over ``ring``'s mbb with non-zero area.

    The same ring ``corrupt_region`` substitutes: ``(min, min) ->
    (min + 2w, max) -> (min, max) -> (max, min)``.
    """
    min_x = min(x for x, _ in ring)
    max_x = max(x for x, _ in ring)
    min_y = min(y for _, y in ring)
    max_y = max(y for _, y in ring)
    width = max_x - min_x
    return [(min_x, min_y), (min_x + 2 * width, max_y), (min_x, max_y), (max_x, min_y)]


def xml_rings(inputs: Inputs) -> List[Ring]:
    """Each region's ring as written to CARDIRECT XML (defects applied)."""
    return [
        defect_ring(ring, inputs.defective[index])
        if index in inputs.defective
        else ring
        for index, ring in enumerate(inputs.rings)
    ]


def to_xml(inputs: Inputs) -> str:
    """The configuration as a CARDIRECT document without ``Relation`` elements."""
    parts = ['<?xml version="1.0" encoding="UTF-8"?>', '<Image name="perfbench">']
    for index, ring in enumerate(xml_rings(inputs)):
        region_id = inputs.ids[index]
        parts.append(
            f"<Region id={quoteattr(region_id)} name={quoteattr(region_id)} "
            f"color={quoteattr(inputs.colors[index])}>"
            f"<Polygon id={quoteattr(region_id + '-0')}>"
        )
        parts.extend(f'<Edge x="{x!r}" y="{y!r}"/>' for x, y in ring)
        parts.append("</Polygon></Region>")
    parts.append("</Image>")
    return "\n".join(parts) + "\n"


def configuration(inputs: Inputs):
    """The configuration in memory; defective regions are constructible bowties."""
    from repro.cardirect.model import AnnotatedRegion, Configuration
    from repro.geometry.polygon import Polygon
    from repro.geometry.region import Region

    regions = []
    for index, ring in enumerate(inputs.rings):
        if index in inputs.defective:
            polygon = Polygon.from_coordinates(bowtie_ring(ring), ensure_clockwise=True)
        else:
            polygon = Polygon.from_coordinates(ring)
        regions.append(
            AnnotatedRegion(
                id=inputs.ids[index],
                name=inputs.ids[index],
                color=inputs.colors[index],
                region=Region([polygon]),
            )
        )
    return Configuration.from_regions(regions)


def edit_plan(inputs: Inputs, seed: int):
    """An endless seeded sequence of ``(index, ring)`` edits on plain regions.

    Half move the region's current ring by a small offset, half reshape
    it with a fresh star at its grid cell.
    """
    rng = random.Random(seed)
    current = {index: list(inputs.rings[index]) for index in inputs.plain}
    candidates: Sequence[int] = sorted(current)
    while True:
        index = rng.choice(candidates)
        if rng.random() < 0.5:
            dx, dy = rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)
            ring = [(x + dx, y + dy) for x, y in current[index]]
        else:
            cx, cy = grid_center(index, inputs.n)
            ring = star_ring(
                rng, (cx + rng.uniform(-0.5, 0.5), cy + rng.uniform(-0.5, 0.5))
            )
        current[index] = ring
        yield index, ring
