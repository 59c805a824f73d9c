"""The three workloads, each an untraced run and a traced run.

Every function here takes generated inputs, drives the program through
its public API only, and returns a :class:`Outcome`.  The untraced run
measures the end-to-end metrics; the traced run alternates untraced and
traced iterations, wraps a span around each public call, and derives
the per-layer metrics from the spans, from ``EngineStats`` /
``BatchReport`` fields and, in traced iterations only, from the
``repro.obs`` metrics registry.
"""

from __future__ import annotations

import contextlib
import gc
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench import gen, oracle
from perfbench.spans import Recorder, durations, per_iteration

WORKERS = 2  # pool workers for ``batch``: the 2-core box this was sized on
SETUP_REPEATS = 5  # in-process state builds per run
IMPORT_REPEATS = 9  # fresh-interpreter imports per run
#: :func:`reference_work`'s median in the fastest phase seen on a shared
#: 2-vCPU 2.1 GHz Xeon VM; timing metrics are scaled to that speed.
REFERENCE_S = 0.020
SAMPLE_EVERY_S = 0.5
MIN_ITERATIONS = 3  # run at least this many, whatever the budget
TEMPLATES = {
    "thematic_dir": "color(a) = red and color(b) = blue and a {N, NW:N, N:NE, NW:N:NE} b",
    "anchored_dir": "a = {anchor} and a {N, NE, N:NE} b",
    "anchored_chain": (
        "a = {anchor} and a {N, NW:N, N:NE} b and b {N, NW:N, N:NE} c "
        "and color(c) = green"
    ),
    "pct": "color(a) = red and a {B:N, N:NE, B:N:NE} b and pct(a, b, N) >= 50",
}
IMPORTS = {
    "persist": "repro.cardirect.xmlio, repro.cardirect.store",
    "batch": "repro.cardirect.model, repro.core.batch",
    "session": "repro.cardirect.xmlio, repro.cardirect.store, repro.cardirect.parser, "
    "repro.cardirect.query",
}


@dataclass
class Outcome:
    """What one run measured; units live in ``BENCHMARK.json``."""

    metrics: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    info: List[str] = field(default_factory=list)
    spans: Optional[Recorder] = None

    def put(self, name: str, value: float, samples: int = 1) -> None:
        self.metrics[name] = float(value)
        self.samples[name] = samples


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: Sequence[float]) -> float:
    """Nearest-rank 90th percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, -(-9 * len(ordered) // 10) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def import_seconds(src: str, modules: str, reference: List[float]) -> float:
    """Median time to import ``modules`` in a fresh interpreter.

    A :func:`_reference_sample` goes to ``reference`` before each import.
    """
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        f"import {modules}; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(IMPORT_REPEATS):
        reference.append(_reference_sample())
        done = subprocess.run(
            [sys.executable, "-c", code, src],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return median(times)


def timed(call: Callable[[], object]) -> Tuple[float, object]:
    start = time.perf_counter()
    value = call()
    return time.perf_counter() - start, value


def reference_work() -> int:
    """A fixed benchmark-owned load - Python objects, strings, small numpy ops.

    It runs no program code, so its time moves only with the machine.
    """
    rng = random.Random(0)
    items = [(rng.random(), rng.random()) for _ in range(20000)]
    table: Dict[int, float] = {}
    for i, (x, y) in enumerate(items):
        table[i % 997] = table.get(i % 997, 0.0) + x * y
    text = ",".join(f"{x:.6f}" for x, _ in items[:10000])
    points = np.asarray(items)
    total = 0.0
    for k in range(600):
        part = points[k : k + 64]
        total += float(np.minimum(part[:, 0], part[:, 1]).sum())
    return len(table) + len(text) + int(total)


def _reference_sample() -> float:
    """The faster of two :func:`reference_work` timings, with the collector off.

    The first sample after an iteration can read several times slow:
    the iteration's pool workers are still exiting, or a collection of
    the iteration's garbage lands inside it.  That is the benchmark's
    own work, not the machine's speed.
    """
    gc.disable()
    try:
        return min(timed(reference_work)[0] for _ in range(2))
    finally:
        gc.enable()


class Clock:
    """Closed-loop budget: run iterations until ``seconds`` have passed.

    At least :data:`MIN_ITERATIONS` run, so every run has a median.
    Every :data:`SAMPLE_EVERY_S` it also times :func:`reference_work`,
    so the run knows how fast the machine was while it measured.
    """

    def __init__(self, seconds: float) -> None:
        self.deadline = time.perf_counter() + seconds
        self.count = 0
        self.reference: List[float] = []
        self._next_sample = time.perf_counter()

    def more(self) -> bool:
        overdue = time.perf_counter() - self._next_sample
        if overdue >= 0:
            # Up to three samples when iterations are longer than the
            # interval, so long-iteration workloads get as many samples.
            for _ in range(min(3, 1 + int(overdue / SAMPLE_EVERY_S))):
                self.reference.append(_reference_sample())
            self._next_sample = time.perf_counter() + SAMPLE_EVERY_S
        self.count += 1
        return self.count <= MIN_ITERATIONS or time.perf_counter() < self.deadline

    @property
    def slowdown(self) -> float:
        """The reference loop's median time over :data:`REFERENCE_S`."""
        return median(self.reference) / REFERENCE_S


def _put_timings(
    outcome: Outcome,
    clock: Clock,
    setup_s: float,
    setup_reference: Sequence[float],
    pairs_per_s: float,
    op_ms: float,
    samples: Tuple[int, int, int],
) -> None:
    """The timing metrics in reference-machine terms, raw values in ``info``.

    Set-up is scaled by the reference samples taken beside it, the
    timed loop by the ones the clock took while it ran.
    """
    slowdown = clock.slowdown
    setup_slowdown = median(setup_reference) / REFERENCE_S
    outcome.put("setup_s", setup_s / setup_slowdown, samples[0])
    outcome.put("pairs_per_s", pairs_per_s * slowdown, samples[1])
    outcome.put("op_p50_ms", op_ms / slowdown, samples[2])
    outcome.info.append(
        f"machine: slowdown={slowdown:.4f} setup_slowdown={setup_slowdown:.4f} (reference loop median "
        f"{median(clock.reference) * 1e3:.3f} ms over {len(clock.reference)} samples, "
        f"{REFERENCE_S * 1e3:.1f} ms nominal); as timed: setup_s={setup_s:.6g} "
        f"pairs_per_s={pairs_per_s:.6g} op_p50_ms={op_ms:.6g}"
    )


def _shares(outcome: Outcome, inputs: gen.Inputs, pruned: int, broadcast: int) -> None:
    shares = inputs.shares()
    total = pruned + broadcast
    outcome.info.append(
        f"inputs: n={inputs.n} defective_share={shares['defective_share']:.4f} "
        f"border_share={shares['border_share']:.4f} "
        f"pairs_pruned={pruned} pairs_broadcast={broadcast} "
        f"broadcast_share={broadcast / total if total else 0.0:.4f}"
    )


def _agreement(outcome: Outcome, tally: oracle.Tally) -> None:
    outcome.put("agree_share", tally.agree_share, tally.verified)
    outcome.info.append(
        f"oracle: verified={tally.verified} wrong={tally.wrong} "
        f"wrong_share={tally.wrong / max(1, tally.verified):.6f}"
        + "".join(f"\n  wrong: {example}" for example in tally.examples)
    )


def _engine_delta(before, after) -> Dict[str, float]:
    return {
        "relation_calls": after.calls.get("relation", 0) - before["calls"].get("relation", 0),
        "percentages_calls": after.calls.get("percentages", 0)
        - before["calls"].get("percentages", 0),
        "relation_s": after.seconds.get("relation", 0.0) - before["seconds"].get("relation", 0.0),
        "percentages_s": after.seconds.get("percentages", 0.0)
        - before["seconds"].get("percentages", 0.0),
        "edge_cache_hits": after.edge_cache_hits - before["edge_cache_hits"],
        "cache_assists": after.cache_assists - before["cache_assists"],
        "prune": after.path_counts.get("prune", 0) - before["path_counts"].get("prune", 0),
        "broadcast": after.path_counts.get("broadcast", 0)
        - before["path_counts"].get("broadcast", 0),
    }


def _engine_snapshot(stats) -> Dict[str, object]:
    return {
        "calls": dict(stats.calls),
        "seconds": dict(stats.seconds),
        "path_counts": dict(stats.path_counts),
        "edge_cache_hits": stats.edge_cache_hits,
        "cache_assists": stats.cache_assists,
    }


def _counter_total(registry, name: str, **labels: str) -> float:
    family = registry.snapshot().get(name)
    if not family:
        return 0.0
    return sum(
        float(series["value"])
        for series in family["series"]
        if all(series["labels"].get(key) == value for key, value in labels.items())
    )


def _put_inputs(outcome: Outcome, inputs: gen.Inputs) -> None:
    shares = inputs.shares()
    outcome.put("input.defective_share", shares["defective_share"])
    outcome.put("input.border_share", shares["border_share"])


def _put_sweep_paths(outcome: Outcome, pruned: int, broadcast: int) -> None:
    outcome.put("sweep.pairs_pruned", pruned)
    outcome.put("sweep.pairs_broadcast", broadcast)
    total = pruned + broadcast
    outcome.put("sweep.prune_ratio", pruned / total if total else 0.0)


def _put_engine(outcome: Outcome, delta: Dict[str, float], per: int = 1) -> None:
    for key in ("relation_calls", "percentages_calls", "relation_s", "percentages_s",
                "edge_cache_hits", "cache_assists"):
        outcome.put(f"engine.{key}", delta.get(key, 0.0) / max(1, per), per)


# --------------------------------------------------------------------------
# persist: configuration_from_xml -> RelationStore -> configuration_to_xml
# --------------------------------------------------------------------------


def persist(inputs: gen.Inputs, seconds: float, src: str, trace: bool) -> Outcome:
    from repro.cardirect.store import RelationStore
    from repro.cardirect.xmlio import configuration_from_xml, configuration_to_xml
    from repro.errors import ReproError
    from repro import obs

    outcome = Outcome()
    text = gen.to_xml(inputs)
    n = inputs.n
    setup_reference: List[float] = []
    setup = import_seconds(src, IMPORTS["persist"], setup_reference)

    def load():
        configuration, _stored = configuration_from_xml(text, mode="lenient")
        return configuration, RelationStore(configuration, engine="sweep")

    loads: List[float] = []
    saves: List[float] = []
    traced_walls: List[float] = []
    recorder = Recorder(enabled=trace)
    repaired: Dict[str, object] = {}
    engine_deltas: List[Dict[str, float]] = []
    hit_ratios: List[float] = []
    state = None
    clock = Clock(seconds)
    while clock.more():
        traced = trace and clock.count % 2 == 0
        try:
            if not traced:
                load_s, (configuration, store) = timed(load)
                save_s, document = timed(lambda: configuration_to_xml(configuration, store=store))
                loads.append(load_s)
                saves.append(save_s)
            else:
                registry = obs.install_metrics()
                try:
                    with recorder.iteration():
                        start = time.perf_counter()
                        repaired = {}
                        with recorder.span("xmlio.parse_s"):
                            configuration, _stored = configuration_from_xml(
                                text, mode="lenient", repairs=repaired
                            )
                        with recorder.span("store.init"):
                            store = RelationStore(configuration, engine="sweep")
                        before = _engine_snapshot(store.engine_stats)
                        with recorder.span("store.refresh_full_s"):
                            store.refresh_matrix()
                        with recorder.span("xmlio.write_s"):
                            document = configuration_to_xml(configuration, store=store)
                        traced_walls.append(time.perf_counter() - start)
                finally:
                    obs.uninstall_metrics()
                engine_deltas.append(_engine_delta(before, store.engine_stats))
                hits = _counter_total(registry, "repro_store_requests_total", result="hit")
                misses = _counter_total(registry, "repro_store_requests_total", result="miss")
                hit_ratios.append(hits / (hits + misses) if hits + misses else 0.0)
            state = (configuration, store, document)
            outcome.attempted += 2
        except ReproError as error:
            outcome.attempted += 2
            outcome.failed += 1
            outcome.info.append(f"failed: {type(error).__name__}: {error}")
    outcome.put("peak_rss_mb", peak_rss_mb())
    _put_timings(
        outcome, clock, setup, setup_reference, n * (n - 1) / median(saves), median(loads) * 1e3,
        (IMPORT_REPEATS, len(saves), len(loads)),
    )
    outcome.put("ok_share", 1.0 - outcome.failed / outcome.attempted, outcome.attempted)
    oracle.require(state is not None, "persist: no iteration completed")
    configuration, store, document = state

    # Structural: the saved document round-trips every stored relation.
    _reloaded, stored = configuration_from_xml(document, mode="lenient")
    oracle.check_pair_count(len(stored), n, "persist saved relations")
    matrix = oracle.matrix_of(store)
    difference = oracle.first_difference(matrix, stored)
    oracle.require(difference is None, f"persist: XML round trip differs: {difference}")
    tally = oracle.Tally()
    regions = {a.id: a.region for a in configuration}
    rows = [inputs.ids[i] for i in oracle.verified_rows(inputs)]
    oracle.check_relations(tally, lambda p, q: stored[(p, q)], regions, configuration.region_ids, rows)
    _agreement(outcome, tally)
    stats = store.engine_stats
    _shares(outcome, inputs, stats.path_counts.get("prune", 0), stats.path_counts.get("broadcast", 0))

    if trace:
        spans = recorder.spans
        _put_inputs(outcome, inputs)
        outcome.spans = recorder
        for name in ("xmlio.parse_s", "xmlio.write_s", "store.refresh_full_s"):
            values = per_iteration(spans, name)
            outcome.put(name, median(values), len(values))
        outcome.put("xmlio.bytes_in", len(text.encode("utf-8")))
        outcome.put("xmlio.bytes_out", len(document.encode("utf-8")))
        outcome.put("xmlio.relations_written", len(stored))
        outcome.put("repair.regions_repaired", len(repaired))
        outcome.put("repair.regions_broken", 0)
        last = engine_deltas[-1]
        _put_engine(outcome, last)
        _put_sweep_paths(outcome, int(last["prune"]), int(last["broadcast"]))
        outcome.put("store.hit_ratio", median(hit_ratios), len(hit_ratios))
        plain = [load + save for load, save in zip(loads, saves)]
        outcome.put("trace.overhead", median(traced_walls) / median(plain), len(traced_walls))
    return outcome


# --------------------------------------------------------------------------
# batch: batch_relations(engine="sweep", workers=2), qualitative then pct
# --------------------------------------------------------------------------


def batch(inputs: gen.Inputs, seconds: float, src: str, trace: bool) -> Outcome:
    from repro.core.batch import batch_relations
    from repro.core.engine import create_engine
    from repro.core.plane import GeometryPlane
    from repro import obs

    outcome = Outcome()
    n = inputs.n
    builds = []
    setup_reference: List[float] = []
    for _ in range(SETUP_REPEATS):
        setup_reference.append(_reference_sample())
        build_s, configuration = timed(lambda: gen.configuration(inputs))
        builds.append(build_s)
    setup = import_seconds(src, IMPORTS["batch"], setup_reference) + median(builds)

    def call(percentages: bool):
        return batch_relations(
            configuration,
            engine="sweep",
            workers=WORKERS,
            validate=True,
            repair=True,
            percentages=percentages,
        )

    qualitative: List[float] = []
    with_pct: List[float] = []
    traced_walls: List[float] = []
    recorder = Recorder(enabled=trace)
    plane_bytes = 0
    reports = None
    pairs = pairs_failed = 0
    clock = Clock(seconds)
    while clock.more():
        traced = trace and clock.count % 2 == 0
        if not traced:
            qual_s, qual = timed(lambda: call(False))
            pct_s, pct = timed(lambda: call(True))
            qualitative.append(qual_s)
            with_pct.append(pct_s)
        else:
            obs.install_metrics()
            try:
                with recorder.iteration():
                    ids = configuration.region_ids
                    healthy = {a.id: a.region for a in configuration}
                    with recorder.span("validate.s"):
                        invalid = oracle.invalid_ids(healthy)
                    with recorder.span("repair.s"):
                        broken = oracle.repair_in_place(healthy, invalid)
                    boxes = {key: region.bounding_box() for key, region in healthy.items()}
                    with recorder.span("plane.build_s"):
                        plane = GeometryPlane.build(
                            ids, healthy=healthy, boxes=boxes, broken=broken,
                            repaired=[key for key in invalid if key in healthy],
                        )
                    try:
                        plane_bytes = sum(
                            a.nbytes for a in (plane.offsets, plane.boxes, plane.health,
                                               plane.x1, plane.y1, plane.x2, plane.y2)
                        )
                        engine = create_engine("sweep")
                        with recorder.span("sweep.kernel_s"):
                            engine.sweep_plane(plane, 0, plane.size)
                        with recorder.span("sweep.kernel_pct_s"):
                            engine.sweep_plane(plane, 0, plane.size, percentages=True)
                    finally:
                        plane.destroy()
                    start = time.perf_counter()
                    with recorder.span("batch.wall_s"):
                        qual = call(False)
                    with recorder.span("batch.pct_wall_s"):
                        pct = call(True)
                    traced_walls.append(time.perf_counter() - start)
            finally:
                obs.uninstall_metrics()
        reports = (qual, pct)
        outcome.attempted += 2
        for report in (qual, pct):
            pairs += len(report.outcomes)
            pairs_failed += sum(1 for item in report.outcomes if not item.ok)
    outcome.put("peak_rss_mb", peak_rss_mb())
    _put_timings(
        outcome, clock, setup, setup_reference, n * (n - 1) / median(qualitative),
        median(with_pct) * 1e3,
        (SETUP_REPEATS, len(qualitative), len(with_pct)),
    )
    outcome.put("ok_share", 1.0 - pairs_failed / pairs, pairs)

    qual, pct = reports
    outcome.info.append(
        f"batch: calls={outcome.attempted} pairs={pairs} pairs_failed={pairs_failed} "
        f"regions_repaired={len(qual.repairs)} regions_broken={sorted(qual.broken)}"
    )
    oracle.check_pair_count(len(qual.outcomes), n, "batch qualitative outcomes")
    oracle.check_pair_count(len(pct.outcomes), n, "batch percentage outcomes")
    for item in pct.outcomes:
        if item.ok:
            oracle.check_percentage_matrix(
                item.percentages, item.relation, f"pct({item.primary_id}, {item.reference_id})"
            )
    healthy, _broken = oracle.healthy_regions(configuration)
    ids = [region_id for region_id in configuration.region_ids if region_id in healthy]
    rows = [inputs.ids[i] for i in oracle.verified_rows(inputs) if inputs.ids[i] in healthy]
    relations = {(o.primary_id, o.reference_id): o.relation for o in qual.outcomes if o.ok}
    matrices = {(o.primary_id, o.reference_id): o.percentages for o in pct.outcomes if o.ok}
    tally = oracle.Tally()
    oracle.check_relations(tally, lambda p, q: relations.get((p, q)), healthy, ids, rows)
    oracle.check_percentage_rows(tally, lambda p, q: matrices.get((p, q)), healthy, ids, rows)
    _agreement(outcome, tally)
    paths = qual.engine_stats.path_counts
    _shares(outcome, inputs, paths.get("prune", 0), paths.get("broadcast", 0))

    if trace:
        spans = recorder.spans
        _put_inputs(outcome, inputs)
        outcome.spans = recorder
        for name in ("validate.s", "repair.s", "plane.build_s", "sweep.kernel_s",
                     "sweep.kernel_pct_s", "batch.wall_s", "batch.pct_wall_s"):
            values = per_iteration(spans, name)
            outcome.put(name, median(values), len(values))
        outcome.put("plane.bytes", plane_bytes)
        outcome.put("repair.regions_repaired", len(qual.repairs))
        outcome.put("repair.regions_broken", len(qual.broken))
        wall = outcome.metrics["batch.wall_s"]
        kernel = outcome.metrics["sweep.kernel_s"] / WORKERS
        build = outcome.metrics["plane.build_s"]
        outcome.put("batch.outside_kernel_s", wall - build - kernel)
        outcome.put("batch.kernel_share", kernel / wall)
        outcome.put("batch.worker_failures", qual.worker_failures + pct.worker_failures)
        outcome.put("batch.chunk_retries", qual.chunk_retries + pct.chunk_retries)
        outcome.put("batch.inline_chunks", qual.inline_chunks + pct.inline_chunks)
        stats = qual.engine_stats
        pct_stats = pct.engine_stats
        outcome.put("engine.relation_calls", stats.calls.get("relation", 0))
        outcome.put("engine.percentages_calls", pct_stats.calls.get("percentages", 0))
        outcome.put("engine.relation_s", stats.seconds.get("relation", 0.0))
        outcome.put("engine.percentages_s", pct_stats.seconds.get("percentages", 0.0))
        outcome.put("engine.edge_cache_hits", stats.edge_cache_hits)
        outcome.put("engine.cache_assists", stats.cache_assists)
        _put_sweep_paths(outcome, paths.get("prune", 0), paths.get("broadcast", 0))
        plain = [a + b for a, b in zip(qualitative, with_pct)]
        outcome.put("trace.overhead", median(traced_walls) / median(plain), len(traced_walls))
    return outcome


# --------------------------------------------------------------------------
# session: queries beside edits on one warm RelationStore
# --------------------------------------------------------------------------


def session(inputs: gen.Inputs, seconds: float, src: str, trace: bool) -> Outcome:
    from repro.cardirect.model import AnnotatedRegion
    from repro.cardirect.parser import parse_query
    from repro.cardirect.store import RelationStore
    from repro.cardirect.xmlio import configuration_from_xml
    from repro.errors import ReproError
    from repro.geometry.region import Region
    from repro import obs

    outcome = Outcome()
    n = inputs.n
    text = gen.to_xml(inputs)
    recorder = Recorder(enabled=trace)

    builds: List[float] = []
    refreshes: List[float] = []
    indexes: List[float] = []
    setup_reference: List[float] = []
    for _ in range(SETUP_REPEATS):
        store = None
        gc.collect()
        setup_reference.append(_reference_sample())
        load_s, (configuration, _stored) = timed(
            lambda: configuration_from_xml(text, mode="lenient")
        )
        store = RelationStore(configuration, engine="sweep")
        refresh_s, _ = timed(store.refresh_matrix)
        index_s, _ = timed(lambda: store.index)
        builds.append(load_s + refresh_s + index_s)
        refreshes.append(refresh_s)
        indexes.append(index_s)
    setup = import_seconds(src, IMPORTS["session"], setup_reference) + median(builds)
    setup_paths = dict(store.engine_stats.path_counts)

    rng = random.Random(inputs.seed + 1)
    plan = gen.edit_plan(inputs, inputs.seed + 2)
    query_s: List[float] = []
    edit_s: List[float] = []
    per_template: Dict[str, List[float]] = {name: [] for name in TEMPLATES}
    rounds: List[float] = []
    traced_ops: List[float] = []
    checks = 0
    recomputed: List[int] = []
    registry_totals: Dict[str, float] = {}
    traced_queries = 0
    # Engine work of the traced queries and edits only - not of the
    # use_index=False scans beside them, nor of the oracle afterwards.
    engine_totals: Dict[str, float] = {}

    def add_engine(before: Dict[str, object]) -> None:
        for key, value in _engine_delta(before, store.engine_stats).items():
            engine_totals[key] = engine_totals.get(key, 0.0) + value
    clock = Clock(seconds)
    while clock.more():
        traced = trace and clock.count % 2 == 0
        verify = clock.count % 4 == 1
        order = list(TEMPLATES)
        rng.shuffle(order)
        round_queries = 0.0
        round_ops = 0.0
        registry = obs.install_metrics() if traced else None
        try:
            with recorder.iteration() if traced else contextlib.nullcontext():
                for name in order:
                    query_text = TEMPLATES[name].replace("{anchor}", inputs.ids[rng.randrange(n)])
                    outcome.attempted += 1
                    try:
                        if traced:
                            start = time.perf_counter()
                            with recorder.span("query.request"):
                                with recorder.span("parser.parse_ms"):
                                    query = parse_query(query_text)
                                before = _engine_snapshot(store.engine_stats)
                                with recorder.span(f"query.ms.{name}"):
                                    rows = query.evaluate(store)
                            round_ops += time.perf_counter() - start
                            add_engine(before)
                            traced_queries += 1
                            # The scan is a check, not workload traffic:
                            # keep it out of the registry's counters.
                            obs.uninstall_metrics()
                            try:
                                with recorder.span(f"query.scan_ms.{name}"):
                                    scanned = query.evaluate(store, use_index=False)
                            finally:
                                obs.install_metrics(registry)
                            oracle.same_rows(rows, scanned, query_text)
                        else:
                            elapsed, rows = timed(
                                lambda: parse_query(query_text).evaluate(store)
                            )
                            query_s.append(elapsed)
                            per_template[name].append(elapsed)
                            round_queries += elapsed
                            if verify:
                                checks += 1
                                scanned = parse_query(query_text).evaluate(store, use_index=False)
                                oracle.same_rows(rows, scanned, query_text)
                    except ReproError as error:
                        outcome.failed += 1
                        outcome.info.append(f"failed query {query_text!r}: {error}")
                    index, ring = next(plan)
                    old = configuration.get(inputs.ids[index])
                    edited = AnnotatedRegion(
                        id=old.id, name=old.name, color=old.color,
                        region=Region.from_coordinates([ring]),
                    )
                    outcome.attempted += 1
                    try:
                        if traced:
                            before = _engine_snapshot(store.engine_stats)
                            start = time.perf_counter()
                            with recorder.span("edit.request"):
                                with recorder.span("store.update_s"):
                                    store.update_region(edited)
                                with recorder.span("store.refresh_dirty_s"):
                                    store.refresh_matrix()
                            round_ops += time.perf_counter() - start
                            add_engine(before)
                            recomputed.append(
                                store.engine_stats.calls.get("relation", 0) - before["calls"].get("relation", 0)
                            )
                        else:
                            def edit():
                                store.update_region(edited)
                                store.refresh_matrix()

                            elapsed, _ = timed(edit)
                            edit_s.append(elapsed)
                    except ReproError as error:
                        outcome.failed += 1
                        outcome.info.append(f"failed edit of {old.id}: {error}")
        finally:
            if traced:
                obs.uninstall_metrics()
        if traced:
            traced_ops.append(round_ops)
            for metric in ("repro_query_index_candidates_total", "repro_query_index_rejected_total",
                           "repro_query_index_definite_total", "repro_query_clause_checks_total"):
                registry_totals[metric] = registry_totals.get(metric, 0.0) + _counter_total(registry, metric)
            for result in ("hit", "miss"):
                key = f"store.{result}"
                registry_totals[key] = registry_totals.get(key, 0.0) + _counter_total(
                    registry, "repro_store_requests_total", result=result
                )
        else:
            rounds.append(round_queries)
    outcome.put("peak_rss_mb", peak_rss_mb())
    _put_timings(
        outcome, clock, setup, setup_reference, 2 * (n - 1) / median(edit_s), median(rounds) * 1e3,
        (SETUP_REPEATS, len(edit_s), len(rounds)),
    )
    outcome.put("ok_share", 1.0 - outcome.failed / outcome.attempted, outcome.attempted)
    outcome.info.append(
        f"session: rounds={len(rounds)} queries={len(query_s)} edits={len(edit_s)} "
        f"index_checks={checks} query_p50_ms={median(query_s) * 1e3:.3f} "
        f"query_p90_ms={p90(query_s) * 1e3:.3f} edit_p50_ms={median(edit_s) * 1e3:.3f} "
        f"edit_p90_ms={p90(edit_s) * 1e3:.3f} "
        + " ".join(f"{name}_p50_ms={median(values) * 1e3:.3f}" for name, values in per_template.items())
    )

    # Structural: the maintained matrix equals a fresh full refresh.
    maintained = oracle.matrix_of(store)
    oracle.check_pair_count(len(maintained), n, "session matrix")
    fresh = RelationStore(configuration, engine="sweep")
    difference = oracle.first_difference(maintained, oracle.matrix_of(fresh))
    oracle.require(difference is None, f"session: maintained matrix differs from a full refresh: {difference}")
    tally = oracle.Tally()
    regions = {a.id: a.region for a in configuration}
    rows = [inputs.ids[i] for i in oracle.verified_rows(inputs)]
    oracle.check_relations(tally, store.relation, regions, configuration.region_ids, rows)
    _agreement(outcome, tally)
    _shares(outcome, inputs, setup_paths.get("prune", 0), setup_paths.get("broadcast", 0))

    if trace:
        spans = recorder.spans
        _put_inputs(outcome, inputs)
        outcome.spans = recorder
        outcome.put("index.build_s", median(indexes), len(indexes))
        for name in ("store.update_s", "store.refresh_dirty_s"):
            values = durations(spans, name)
            outcome.put(name, median(values), len(values))
        parse = durations(spans, "parser.parse_ms")
        outcome.put("parser.parse_ms", median(parse) * 1e3, len(parse))
        for name in TEMPLATES:
            for prefix in ("query.ms", "query.scan_ms"):
                values = durations(spans, f"{prefix}.{name}")
                outcome.put(f"{prefix}.{name}", median(values) * 1e3, len(values))
        per_query = max(1, traced_queries)
        outcome.put("index.candidates", registry_totals.get("repro_query_index_candidates_total", 0) / per_query, per_query)
        outcome.put("index.rejected", registry_totals.get("repro_query_index_rejected_total", 0) / per_query, per_query)
        outcome.put("index.definite", registry_totals.get("repro_query_index_definite_total", 0) / per_query, per_query)
        outcome.put("query.clause_checks", registry_totals.get("repro_query_clause_checks_total", 0) / per_query, per_query)
        hits, misses = registry_totals.get("store.hit", 0.0), registry_totals.get("store.miss", 0.0)
        outcome.put("store.hit_ratio", hits / (hits + misses) if hits + misses else 0.0)
        outcome.put("store.pairs_recomputed_per_edit", median(recomputed), len(recomputed))
        _put_engine(outcome, engine_totals, len(recomputed) + traced_queries)
        _put_sweep_paths(outcome, setup_paths.get("prune", 0), setup_paths.get("broadcast", 0))
        outcome.put("store.refresh_full_s", median(refreshes), len(refreshes))
        outcome.put("session.query_p50_ms", median(query_s) * 1e3, len(query_s))
        outcome.put("session.query_p90_ms", p90(query_s) * 1e3, len(query_s))
        outcome.put("session.edit_p50_ms", median(edit_s) * 1e3, len(edit_s))
        outcome.put("session.edit_p90_ms", p90(edit_s) * 1e3, len(edit_s))
        plain = [q + e for q, e in zip(_chunks(query_s, 4), _chunks(edit_s, 4))]
        outcome.put("trace.overhead", median(traced_ops) / median(plain), len(traced_ops))
    return outcome


def _chunks(values: List[float], size: int) -> List[float]:
    return [sum(values[i : i + size]) for i in range(0, len(values) - size + 1, size)]


WORKLOADS = {"persist": persist, "batch": batch, "session": session}
