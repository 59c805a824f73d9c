"""The shared-memory geometry plane: layout, lifecycle, and parity.

Three obligations, in order of blast radius:

* the flattened segment must round-trip a configuration exactly —
  edge endpoints, boxes, health flags and metadata all byte-equal
  between :meth:`GeometryPlane.build` and :meth:`GeometryPlane.attach`;
* the owning parent must never leak a ``/dev/shm`` segment, whatever
  kills the sweep — crashed workers, expired deadlines, a Ctrl-C in the
  supervisor loop, or a chaos fault at the ``plane.attach`` site;
* ``workers=N`` over the plane must be *indistinguishable* from the
  serial sweep: identical outcome objects (relations, percentages,
  paths, errors) and identical repair reports, with or without fault
  injection — also for regions with a coordinate that is not
  float64-exact, whose pairs the parent answers through the row path.

CI replays this module under several ``REPRO_CHAOS_SEED`` values, like
the rest of the chaos suite.
"""

import concurrent.futures
import json
import math
import os
import random
from fractions import Fraction

import pytest

from repro.cardirect.model import AnnotatedRegion, Configuration
from repro.core.batch import DEADLINE, OK, _ChunkSizer, batch_relations
from repro.core.plane import GeometryPlane
from repro.core.sweep import BROADCAST_PATH, FAST_PATH, PRUNE_PATH, SweepEngine
from repro.core.tiles import Tile
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.region import Region
from repro.resilience.deadline import Deadline
from repro.resilience.faults import ENV_FAULTS, ENV_SEED, FaultSpec, injecting
from repro.resilience.retry import RetryPolicy
from repro.workloads.generators import random_star_polygon

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

#: No backoff sleeps — chaos tests stay fast.
TWO_ATTEMPTS = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)


def square(size: float = 1.0) -> Region:
    return Region.from_polygon(
        Polygon(
            (
                Point(0, 0),
                Point(0, size),
                Point(size, size),
                Point(size, 0),
            )
        )
    )


def grid_configuration(count: int) -> Configuration:
    regions = []
    for index in range(count):
        dx, dy = (index % 3) * 4.0, (index // 3) * 4.0
        regions.append(
            AnnotatedRegion(f"r{index}", square().translated(dx, dy))
        )
    return Configuration.from_regions(regions)


def star_configuration(count: int, *, edges: int = 10) -> Configuration:
    """Seeded star regions on a jittered grid (mirrors the benchmark
    workload): neighbours overlap, distant pairs prune."""
    rng = random.Random(20040314)
    side = max(1, math.ceil(math.sqrt(count)))
    regions = []
    for index in range(count):
        center = (
            (index % side) * 3.0 + rng.uniform(-0.5, 0.5),
            (index // side) * 3.0 + rng.uniform(-0.5, 0.5),
        )
        polygon = random_star_polygon(
            rng, edges, center=center, min_radius=0.4, max_radius=2.0
        )
        regions.append(
            AnnotatedRegion(f"g{index}", Region.from_polygon(polygon))
        )
    return Configuration.from_regions(regions)


def rect(x0, y0, x1, y1) -> Region:
    return Region.from_coordinates([[(x0, y0), (x0, y1), (x1, y1), (x1, y0)]])


def twin_configuration() -> Configuration:
    """Two overlapping squares in one region, a dot where they overlap
    (clear of every edge: only the per-polygon centre test finds B),
    and a far box."""
    twin = Region.from_coordinates(
        [
            [(0, 0), (0, 4), (4, 4), (4, 0)],
            [(2, 2), (2, 6), (6, 6), (6, 2)],
        ]
    )
    return Configuration.from_regions(
        [
            AnnotatedRegion("twin", twin),
            AnnotatedRegion("dot", rect(2.9, 2.9, 3.1, 3.1)),
            AnnotatedRegion("far", rect(20, 20, 21, 21)),
        ]
    )


def inexact_configuration() -> Configuration:
    """Stars plus boxes whose exact coordinates clear a neighbour's mbb
    line only before float64 rounding: ``third`` lies strictly NE of
    ``left`` by ``1/3 - float(1/3)``, ``huge`` strictly SW of ``edge``
    by one unit at ``2**60``.  Exact box arithmetic prunes those pairs,
    float64 box arithmetic cannot."""
    configuration = star_configuration(10)
    for region_id, region in (
        ("left", rect(-2.0, 0.0, 1 / 3, 5.0)),
        ("third", rect(Fraction(1, 3), 10, 1, 12)),
        ("huge", rect(0, 0, 2**60, 7)),
        ("edge", rect(2**60 + 1, 10, 2**60 + 5, 17)),
    ):
        configuration.add(AnnotatedRegion(region_id, region))
    return configuration


def _shm_segments():
    """Names of the live POSIX shared-memory segments (Linux)."""
    try:
        return {
            name
            for name in os.listdir("/dev/shm")
            if name.startswith("psm_")
        }
    except FileNotFoundError:  # pragma: no cover - non-Linux fallback
        return set()


@pytest.fixture
def no_leaked_segments():
    """Assert the test leaves no new ``/dev/shm`` segment behind."""
    before = _shm_segments()
    yield
    leaked = _shm_segments() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


def plane_inputs(configuration):
    """The (all_ids, healthy, boxes) triple a validated batch produces."""
    all_ids = [annotated.id for annotated in configuration]
    healthy = {
        annotated.id: annotated.region for annotated in configuration
    }
    boxes = {
        region_id: region.bounding_box()
        for region_id, region in healthy.items()
    }
    return all_ids, healthy, boxes


class TestSegmentLayout:
    def test_build_round_trips_geometry_exactly(self, no_leaked_segments):
        configuration = star_configuration(9)
        all_ids, healthy, boxes = plane_inputs(configuration)
        plane = GeometryPlane.build(
            all_ids, healthy=healthy, boxes=boxes, broken={}
        )
        try:
            assert plane.ids == tuple(all_ids)
            assert plane.size == 9
            assert plane.owner
            for row, region_id in enumerate(all_ids):
                start, stop = plane.edge_slice(row)
                vertices = healthy[region_id].polygons[0].vertices
                assert stop - start == len(vertices)
                for offset, vertex in enumerate(vertices):
                    # Exact float64 round-trip, not approximate.
                    assert plane.x1[start + offset] == float(vertex.x)
                    assert plane.y1[start + offset] == float(vertex.y)
                box = boxes[region_id]
                assert tuple(plane.boxes[row]) == (
                    float(box.min_x),
                    float(box.max_x),
                    float(box.min_y),
                    float(box.max_y),
                )
            dx, dy = plane.deltas()
            assert (dx == plane.x2 - plane.x1).all()
            assert (dy == plane.y2 - plane.y1).all()
            assert list(plane.exact_regions()) == list(range(9))
        finally:
            plane.destroy()

    def test_attach_sees_identical_arrays_and_meta(
        self, no_leaked_segments
    ):
        configuration = star_configuration(5)
        all_ids, healthy, boxes = plane_inputs(configuration)
        plane = GeometryPlane.build(
            all_ids,
            healthy=healthy,
            boxes=boxes,
            broken={"ghost": "unusable"},
            repaired=("g1",),
        )
        try:
            attached = GeometryPlane.attach(plane.name)
            try:
                assert not attached.owner
                assert attached.ids == plane.ids
                assert attached.broken == {"ghost": "unusable"}
                assert attached.repaired == ("g1",)
                assert (attached.offsets == plane.offsets).all()
                assert bytes(attached.boxes.data) == bytes(
                    plane.boxes.data
                )
                for section in ("x1", "y1", "x2", "y2"):
                    assert (
                        getattr(attached, section)
                        == getattr(plane, section)
                    ).all()
            finally:
                attached.close()
        finally:
            plane.destroy()

    def test_broken_rows_have_no_edges_and_nan_boxes(
        self, no_leaked_segments
    ):
        configuration = grid_configuration(3)
        all_ids, healthy, boxes = plane_inputs(configuration)
        del healthy["r1"], boxes["r1"]
        plane = GeometryPlane.build(
            all_ids,
            healthy=healthy,
            boxes=boxes,
            broken={"r1": "self-intersecting"},
        )
        try:
            start, stop = plane.edge_slice(1)
            assert start == stop  # zero edges for the broken row
            assert plane.health[1] == 0
            assert all(value != value for value in plane.boxes[1])  # NaN
            assert list(plane.exact_regions()) == [0, 2]
        finally:
            plane.destroy()

    def test_destroy_is_idempotent_and_frees_the_segment(self):
        configuration = grid_configuration(2)
        all_ids, healthy, boxes = plane_inputs(configuration)
        plane = GeometryPlane.build(
            all_ids, healthy=healthy, boxes=boxes, broken={}
        )
        name = plane.name
        plane.destroy()
        assert name not in _shm_segments()
        plane.destroy()  # second call must not raise
        with pytest.raises(FileNotFoundError):
            GeometryPlane.attach(name)


class TestSegmentCleanup:
    """The lifecycle contract: no orphaned segment, whatever happens."""

    def test_clean_run_leaves_no_segment(self, no_leaked_segments):
        report = batch_relations(
            grid_configuration(6), engine="sweep", workers=2
        )
        assert not report.error_outcomes()

    def test_killed_worker_leaves_no_segment(self, no_leaked_segments):
        with injecting(
            FaultSpec(
                site="batch.worker",
                kind="kill",
                only={"chunk": 0, "attempt": 0},
            ),
            seed=CHAOS_SEED,
        ):
            report = batch_relations(
                grid_configuration(8),
                engine="sweep",
                workers=2,
                retry_policy=TWO_ATTEMPTS,
            )
        assert report.worker_failures >= 1
        assert not report.error_outcomes()

    def test_deadline_expiry_leaves_no_segment(self, no_leaked_segments):
        with injecting(
            FaultSpec(site="batch.worker", kind="delay", seconds=0.5),
            seed=CHAOS_SEED,
        ):
            report = batch_relations(
                grid_configuration(12),
                engine="sweep",
                workers=2,
                deadline=0.2,
                retry_policy=TWO_ATTEMPTS,
            )
        assert report.deadline_hit

    def test_keyboard_interrupt_leaves_no_segment(
        self, no_leaked_segments, monkeypatch
    ):
        import concurrent.futures

        def interrupted_wait(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(
            concurrent.futures, "wait", interrupted_wait
        )
        with pytest.raises(KeyboardInterrupt):
            batch_relations(
                grid_configuration(8), engine="sweep", workers=2
            )


class TestAttachFaults:
    """Chaos at the ``plane.attach`` site (the pool initializer)."""

    @pytest.mark.parametrize("kind", ["raise", "kill"])
    def test_first_generation_attach_failure_recovers(
        self, kind, no_leaked_segments
    ):
        configuration = grid_configuration(6)
        expected = batch_relations(configuration, engine="sweep").outcomes
        with injecting(
            # Only generation 0: the rebuilt pool must attach cleanly.
            FaultSpec(
                site="plane.attach", kind=kind, only={"generation": 0}
            ),
            seed=CHAOS_SEED,
        ):
            report = batch_relations(
                configuration,
                engine="sweep",
                workers=2,
                retry_policy=TWO_ATTEMPTS,
            )
        assert report.outcomes == expected
        assert report.worker_failures >= 1

    def test_persistent_attach_failure_falls_back_inline(
        self, no_leaked_segments
    ):
        configuration = grid_configuration(4)
        expected = batch_relations(configuration, engine="sweep").outcomes
        with injecting(
            FaultSpec(site="plane.attach", kind="raise"),
            seed=CHAOS_SEED,
        ):
            report = batch_relations(
                configuration,
                engine="sweep",
                workers=2,
                retry_policy=TWO_ATTEMPTS,
            )
        assert report.outcomes == expected
        assert report.inline_chunks >= 1


class TestSerialParity:
    """workers=N must be indistinguishable from the serial sweep."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_outcomes_and_repairs_identical_to_serial(
        self, workers, no_leaked_segments
    ):
        configuration = star_configuration(100)
        serial = batch_relations(
            configuration, engine="sweep", percentages=True
        )
        parallel = batch_relations(
            configuration,
            engine="sweep",
            percentages=True,
            workers=workers,
        )
        # Full-object equality: ids, statuses, relations, percentage
        # matrices, ladder paths and error strings all compare.
        assert parallel.outcomes == serial.outcomes
        assert parallel.repairs == serial.repairs
        assert parallel.broken == serial.broken

    @pytest.mark.parametrize("kind", ["kill", "raise"])
    def test_parity_survives_env_injected_faults(
        self, kind, monkeypatch, no_leaked_segments
    ):
        configuration = star_configuration(40)
        serial = batch_relations(
            configuration, engine="sweep", percentages=True
        )
        monkeypatch.setenv(
            ENV_FAULTS,
            json.dumps(
                [
                    {
                        "site": "batch.worker",
                        "kind": kind,
                        "only": {"chunk": 0, "attempt": 0},
                    }
                ]
            ),
        )
        monkeypatch.setenv(ENV_SEED, str(CHAOS_SEED))
        report = batch_relations(
            configuration,
            engine="sweep",
            percentages=True,
            workers=2,
            retry_policy=TWO_ATTEMPTS,
        )
        assert report.outcomes == serial.outcomes
        assert report.repairs == serial.repairs
        assert report.worker_failures >= 1


    def test_overlapping_polygons_keep_b_under_workers(self, no_leaked_segments):
        # Regression: the plane's centre test once took even-odd parity
        # over all of twin's edges at once, which misses B where the
        # squares overlap; it now takes parity per polygon.
        configuration = twin_configuration()
        serial, parallel = (
            batch_relations(
                configuration,
                engine="sweep",
                validate=False,
                repair=False,
                workers=workers,
            )
            for workers in (None, 2)
        )
        assert str(serial.outcomes[0]) == "twin B:S:SW:W:NW:N:NE:E:SE dot"
        assert parallel.outcomes == serial.outcomes

    def test_inexact_coordinates_match_serial(self, no_leaked_segments):
        configuration = inexact_configuration()
        serial, parallel = (
            batch_relations(
                configuration,
                engine="sweep",
                percentages=True,
                workers=workers,
            )
            for workers in (None, 2)
        )
        paths = {
            (outcome.primary_id, outcome.reference_id): outcome.path
            for outcome in serial.outcomes
        }
        assert paths["third", "left"] == paths["huge", "edge"] == "prune"
        assert parallel.outcomes == serial.outcomes


class TestPlaneFlags:
    def test_build_flags_rows_and_columns_the_kernel_cannot_answer(
        self, no_leaked_segments
    ):
        configuration = twin_configuration()
        for annotated in inexact_configuration():
            if annotated.id in ("third", "huge", "edge", "left"):
                configuration.add(annotated)
        all_ids, healthy, boxes = plane_inputs(configuration)
        plane = GeometryPlane.build(
            all_ids, healthy=healthy, boxes=boxes, broken={}
        )
        try:
            flags = dict(zip(all_ids, plane.health.tolist()))
            # Only a coordinate that is not float64-exact keeps a region
            # off the plane; the overlapping twin is swept like any other.
            assert flags == {
                "twin": 1,
                "dot": 1,
                "far": 1,
                "left": 1,
                "third": 0,
                "huge": 0,
                "edge": 0,
            }
            assert [all_ids[row] for row in plane.exact_regions()] == [
                "twin",
                "dot",
                "far",
                "left",
            ]
            # One polygon-start flag per edge: twin's two squares, then
            # one square each for dot, far and left.
            assert plane.starts.tolist() == [1, 0, 0, 0] * 5
            engine = SweepEngine()
            done, masks, paths, _areas = engine.sweep_plane(
                plane, 0, plane.size, percentages=True
            )
            assert done == plane.size
            # Every pair with two exact regions is swept, and agrees
            # with the per-pair kernel — B included, which only the
            # per-polygon centre test finds for twin against dot.
            exact_ids = {"twin", "dot", "far", "left"}
            for row, primary_id in enumerate(all_ids):
                for column, reference_id in enumerate(all_ids):
                    swept = bool(masks[row, column])
                    assert swept == (
                        row != column
                        and {primary_id, reference_id} <= exact_ids
                    )
                    if swept:
                        expected = engine.relation(
                            healthy[primary_id], boxes[reference_id]
                        )
                        assert int(masks[row, column]) == expected.mask
            twin_dot = int(masks[all_ids.index("twin"), all_ids.index("dot")])
            assert twin_dot & (1 << int(Tile.B))
        finally:
            plane.destroy()


class TestSerialPlane:
    """A serial ``engine="sweep"`` call runs the plane kernel in-process."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The id lists of every plane built during the test."""
        built = []
        original_build = GeometryPlane.build.__func__

        def build(cls, *args, **kwargs):
            built.append(list(args[0]))
            return original_build(cls, *args, **kwargs)

        monkeypatch.setattr(GeometryPlane, "build", classmethod(build))
        return built

    def test_clean_run_builds_one_plane(self, builds, no_leaked_segments):
        configuration = star_configuration(12)
        report = batch_relations(configuration, engine="sweep")
        assert len(builds) == 1
        assert {outcome.status for outcome in report.outcomes} == {OK}
        assert {outcome.path for outcome in report.outcomes} <= {
            PRUNE_PATH,
            BROADCAST_PATH,
        }
        assert report.engine_stats.path_counts[FAST_PATH] == 0
        assert report.relations() == batch_relations(
            configuration, engine="exact"
        ).relations()

    def test_no_rows_builds_no_plane(self, builds, no_leaked_segments):
        report = batch_relations(
            star_configuration(4), engine="sweep", primaries=[]
        )
        assert report.outcomes == []
        assert builds == []

    def test_raising_row_is_answered_pair_by_pair(self, no_leaked_segments):
        configuration = star_configuration(12)
        clean = batch_relations(configuration, engine="sweep")
        with injecting(
            FaultSpec(site="batch.row", kind="raise", only={"primary": "g3"}),
            seed=CHAOS_SEED,
        ):
            faulted = batch_relations(configuration, engine="sweep")
        assert [
            (o.primary_id, o.reference_id, o.status, o.relation)
            for o in faulted.outcomes
        ] == [
            (o.primary_id, o.reference_id, o.status, o.relation)
            for o in clean.outcomes
        ]
        # g3's row took the per-pair kernel; every other row the plane.
        for outcome in faulted.outcomes:
            if outcome.primary_id == "g3":
                assert outcome.path in (PRUNE_PATH, FAST_PATH)
            else:
                assert outcome.path in (PRUNE_PATH, BROADCAST_PATH)
        assert faulted.engine_stats.path_counts[FAST_PATH] > 0

    def test_keyboard_interrupt_leaves_no_segment(
        self, monkeypatch, no_leaked_segments
    ):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(SweepEngine, "sweep_plane", interrupted)
        with pytest.raises(KeyboardInterrupt):
            batch_relations(grid_configuration(6), engine="sweep")

    def test_deadline_keeps_finished_rows(self, no_leaked_segments):
        configuration = star_configuration(12)
        n = len(configuration)
        clean = batch_relations(configuration, engine="sweep")
        ticks = iter(range(10**6))
        # Every expiry check advances the clock a tick: the budget runs
        # out a few rows into the sweep.
        deadline = Deadline(5.5, clock=lambda: float(next(ticks)))
        report = batch_relations(
            configuration, engine="sweep", deadline=deadline
        )
        assert report.deadline_hit
        statuses = [outcome.status for outcome in report.outcomes]
        finished = statuses.index(DEADLINE)
        assert finished % (n - 1) == 0  # whole rows, never a partial one
        assert 0 < finished < n * (n - 1)
        assert set(statuses[finished:]) == {DEADLINE}
        assert report.outcomes[:finished] == clean.outcomes[:finished]


class TestPoolSizing:
    @pytest.mark.parametrize("engine", ["sweep", "exact"])
    def test_pool_is_capped_at_the_rows(
        self, engine, monkeypatch, no_leaked_segments
    ):
        sizes = []
        builds = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        original_build = GeometryPlane.build.__func__

        def build(cls, *args, **kwargs):
            builds.append(args[0])
            return original_build(cls, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        monkeypatch.setattr(GeometryPlane, "build", classmethod(build))
        configuration = grid_configuration(3)
        report = batch_relations(configuration, engine=engine, workers=8)
        assert sizes == [3]
        # Only a plane engine flattens the configuration.
        assert len(builds) == (1 if engine == "sweep" else 0)
        assert report.outcomes == batch_relations(
            configuration, engine=engine
        ).outcomes


class TestChunkSizer:
    def test_initial_size_splits_the_lead_window(self):
        # 8 rows over 2 workers: lead chunks of 4 — exactly two chunks.
        assert _ChunkSizer(8, 2).next_size(8) == 4
        # 1000 rows over 4 workers: ceil(1000 / 16) = 63.
        assert _ChunkSizer(1000, 4).next_size(1000) == 63

    def test_never_exceeds_per_worker_ceiling(self):
        sizer = _ChunkSizer(100, 4)
        sizer.observe(25, 0.0001)  # absurdly fast chunk
        assert sizer.next_size(100) <= 25  # ceil(100 / 4)

    def test_adapts_toward_target_chunk_seconds(self):
        sizer = _ChunkSizer(10_000, 2)
        size = sizer.next_size(10_000)
        sizer.observe(size, size / 10_000.0)  # 10k rows/sec observed
        grown = sizer.next_size(10_000)
        assert grown > size
        assert grown <= 5_000  # still capped at total / workers

    def test_clamps_to_remaining_rows(self):
        sizer = _ChunkSizer(100, 2)
        assert sizer.next_size(3) == 3
        assert sizer.next_size(1) == 1
