"""The relation store's plane-filled matrix: differential and lifecycle.

A full ``refresh_matrix`` with the ``sweep`` engine fills the matrix
from one in-process plane sweep instead of the per-row path.  Two
obligations:

* *differential* — over several seeds, including edges on or one ulp
  either side of a neighbour's mbb line, rings repaired by lenient
  XML ingestion and a region of overlapping polygons, the plane-filled
  matrix equals the row path's and the engine's per-pair answers;
  regions the plane cannot answer exactly (``Fraction`` coordinates,
  ints beyond ``2**24``) stay out of the sweep and still get the row
  path's answers;
* *lifecycle* — no ``/dev/shm`` segment outlives a refresh, whether it
  succeeds, raises, hits its deadline or is interrupted, and a refresh
  cut short keeps its finished rows for the next one to build on.

CI replays this module under several ``REPRO_CHAOS_SEED`` values.
"""

import math
import os
import random
from fractions import Fraction

import pytest

from repro.cardirect.model import AnnotatedRegion, Configuration
from repro.cardirect.store import RelationStore
from repro.cardirect.xmlio import configuration_from_xml
from repro.core.sweep import SweepEngine
from repro.errors import DeadlineExceeded, InjectedFault
from repro.geometry.region import Region
from repro.resilience.deadline import Deadline, deadline_scope
from repro.resilience.faults import FaultSpec, injecting
from repro.workloads.generators import random_star_polygon
from tests.core.test_plane import _shm_segments

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

SEEDS = [CHAOS_SEED, CHAOS_SEED + 11, CHAOS_SEED + 20040314]


class RowSweepEngine(SweepEngine):
    """The sweep engine without the plane: the store's row path."""

    supports_plane = False


@pytest.fixture
def no_leaked_segments():
    before = _shm_segments()
    yield
    leaked = _shm_segments() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


@pytest.fixture
def swept_rows(monkeypatch):
    """The region ids each plane sweep took as rows, and its healthy ids."""
    calls = []
    original = SweepEngine.sweep_plane

    def spy(self, plane, start, stop, **kwargs):
        rows = kwargs["row_index"][start:stop]
        calls.append(
            (
                {plane.ids[row] for row in rows},
                {plane.ids[row] for row in plane.exact_regions()},
            )
        )
        return original(self, plane, start, stop, **kwargs)

    monkeypatch.setattr(SweepEngine, "sweep_plane", spy)
    return calls


def rect(x0, y0, x1, y1) -> Region:
    return Region.from_coordinates([[(x0, y0), (x0, y1), (x1, y1), (x1, y0)]])


def border_configuration(seed: int, count: int = 30) -> Configuration:
    """Random stars plus boxes whose right edge sits on, or one ulp
    either side of, a neighbour's mbb ``min_x`` line."""
    rng = random.Random(seed)
    regions = []
    for index in range(count):
        polygon = random_star_polygon(
            rng,
            rng.randint(4, 9),
            center=(rng.uniform(0, 40), rng.uniform(0, 40)),
            min_radius=0.5,
            max_radius=rng.uniform(1.0, 9.0),
        )
        regions.append(AnnotatedRegion(f"s{index}", Region([polygon])))
    for index in range(6):
        neighbour = regions[rng.randrange(count)].region.bounding_box()
        line = float(neighbour.min_x)
        line = (line, math.nextafter(line, math.inf), math.nextafter(line, -math.inf))[index % 3]
        low, high = float(neighbour.min_y), float(neighbour.max_y)
        left = line - rng.uniform(0.5, 4.0)
        box = rect(left, low - 1.0, line, (low + high) / 2)
        regions.append(AnnotatedRegion(f"edge{index}", box))
    # A reference box strictly inside a primary: B without any edge in it.
    regions.append(AnnotatedRegion("cover", rect(-5, -5, 50, 50)))
    return Configuration.from_regions(regions)


LENIENT_DOCUMENT = (
    '<Image name="t">'
    '<Region id="reversed"><Polygon id="r-0">'
    '<Edge x="0" y="0"/><Edge x="4" y="0"/><Edge x="4" y="4"/><Edge x="0" y="4"/>'
    "</Polygon></Region>"
    '<Region id="bowtie"><Polygon id="b-0">'
    '<Edge x="10" y="14"/><Edge x="12" y="10"/><Edge x="12" y="12"/><Edge x="10" y="10"/>'
    "</Polygon></Region>"
    '<Region id="doubled"><Polygon id="d-0">'
    '<Edge x="3" y="8"/><Edge x="3" y="8"/><Edge x="3" y="11"/><Edge x="7.5" y="11"/>'
    '<Edge x="7.5" y="8"/>'
    "</Polygon></Region>"
    '<Region id="plain"><Polygon id="p-0">'
    '<Edge x="-3" y="-3"/><Edge x="-3" y="20"/><Edge x="20" y="20"/><Edge x="20" y="-3"/>'
    "</Polygon></Region>"
    "</Image>"
)


def matrix(store: RelationStore):
    return {(p, q): r for p, q, r in store.all_relations()}


def assert_matches_row_path_and_pairs(configuration: Configuration) -> None:
    plane = matrix(RelationStore(configuration, engine="sweep"))
    rows = matrix(RelationStore(configuration, engine=RowSweepEngine()))
    assert plane == rows
    engine = SweepEngine()
    for (primary, reference), relation in plane.items():
        expected = engine.relation(
            configuration.get(primary).region,
            configuration.get(reference).region.bounding_box(),
        )
        assert relation == expected, (primary, reference)


class TestDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_plane_matrix_equals_row_path_and_per_pair(self, seed, swept_rows):
        configuration = border_configuration(seed)
        assert_matches_row_path_and_pairs(configuration)
        rows, healthy = swept_rows[0]
        assert rows == healthy == set(configuration.region_ids)

    def test_lenient_repaired_rings(self):
        repairs = {}
        configuration, _ = configuration_from_xml(
            LENIENT_DOCUMENT, mode="lenient", repairs=repairs
        )
        assert {"reversed", "bowtie", "doubled"} <= set(repairs)
        assert_matches_row_path_and_pairs(configuration)

    def test_fraction_coordinates_take_the_row_path(self, swept_rows):
        configuration = border_configuration(CHAOS_SEED, count=8)
        configuration.add(
            AnnotatedRegion("third", rect(Fraction(1, 3), 0, Fraction(22, 3), 5))
        )
        configuration.add(AnnotatedRegion("huge", rect(0, 0, 2**60 + 1, 7)))
        assert_matches_row_path_and_pairs(configuration)
        rows, healthy = swept_rows[0]
        assert not {"third", "huge"} & (rows | healthy)

    def test_overlapping_polygons_are_swept(self, swept_rows):
        twin = Region.from_coordinates(
            [
                [(0, 0), (0, 4), (4, 4), (4, 0)],
                [(2, 2), (2, 6), (6, 6), (6, 2)],
            ]
        )
        configuration = Configuration.from_regions(
            [
                AnnotatedRegion("twin", twin),
                # Centred where the squares overlap, and clear of every
                # edge: only the per-polygon centre test finds B.
                AnnotatedRegion("dot", rect(2.9, 2.9, 3.1, 3.1)),
                AnnotatedRegion("far", rect(20, 20, 21, 21)),
            ]
        )
        assert_matches_row_path_and_pairs(configuration)
        rows, healthy = swept_rows[0]
        assert "twin" in rows and "twin" in healthy
        store = RelationStore(configuration, engine="sweep")
        assert store.relation("twin", "dot").includes("B")


class TestLifecycle:
    def test_clean_refresh_leaves_no_segment(self, no_leaked_segments):
        store = RelationStore(border_configuration(CHAOS_SEED), engine="sweep")
        store.refresh_matrix()

    def test_exception_in_sweep_leaves_no_segment(self, no_leaked_segments):
        configuration = border_configuration(CHAOS_SEED)
        store = RelationStore(configuration, engine="sweep")
        with injecting(FaultSpec(site="batch.row", kind="raise"), seed=CHAOS_SEED):
            with pytest.raises(InjectedFault):
                store.refresh_matrix()
        assert matrix(store) == matrix(RelationStore(configuration, engine="sweep"))

    def test_keyboard_interrupt_leaves_no_segment(
        self, no_leaked_segments, monkeypatch
    ):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(SweepEngine, "sweep_plane", interrupted)
        store = RelationStore(border_configuration(CHAOS_SEED), engine="sweep")
        with pytest.raises(KeyboardInterrupt):
            store.refresh_matrix()

    def test_deadline_keeps_finished_rows(self, no_leaked_segments):
        configuration = border_configuration(CHAOS_SEED)
        n = len(configuration)
        ticks = iter(range(10**6))
        # Every expiry check advances the clock a tick: the budget runs
        # out a few rows into the sweep.
        deadline = Deadline(5.5, clock=lambda: float(next(ticks)))
        store = RelationStore(configuration, engine="sweep")
        with deadline_scope(deadline):
            with pytest.raises(DeadlineExceeded):
                store.refresh_matrix()
        done = store.engine_stats.calls["relation"]
        assert 0 < done < n * (n - 1)
        assert matrix(store) == matrix(RelationStore(configuration, engine="sweep"))
        assert store.engine_stats.calls["relation"] == n * (n - 1)
