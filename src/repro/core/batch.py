"""Fault-isolated batch relation computation.

``RelationStore.all_relations`` historically computed every ordered pair
and let the first exception kill the whole sweep — a single malformed
polygon silenced an entire configuration.  This module computes the full
pairwise matrix with **per-pair fault isolation**:

* regions are (optionally) validated up front; invalid ones are routed
  through the repair pipeline (:mod:`repro.geometry.repair`) and used in
  repaired form, with the :class:`~repro.geometry.repair.RepairReport`
  recorded;
* regions that cannot be repaired (e.g. polygons with overlapping
  interiors, which have no canonical fix) poison only their own pairs —
  every pair of healthy regions is still answered;
* a pair whose computation raises at runtime despite validation is
  retried once after repairing both operands, then reported as an error
  outcome carrying the exception context (region ids, polygon/vertex
  indices via :class:`~repro.errors.GeometryError`).

The result is a :class:`BatchReport` of :class:`PairOutcome` entries —
``ok`` / ``repaired`` / ``error`` — never an exception for bad geometry.

Engines that speak the **plane protocol** (``supports_plane``, e.g.
:class:`~repro.core.sweep.SweepEngine`) sweep through one kernel,
:meth:`~repro.core.sweep.SweepEngine.sweep_plane`: the parent flattens
the validated configuration once into a
:class:`~repro.core.plane.GeometryPlane` and a serial call sweeps it
in-process, row by row — a row whose kernel raises is replayed pair by
pair, so fault isolation is preserved.  Compact tile-mask/area blocks
are assembled into outcomes in the parent; pairs the plane does not
answer exactly fall back to the row path.  Every other engine runs the
row path: one engine call per pair.

``workers=N`` fans index-range chunks of primary rows, sized
adaptively from observed chunk latency, out over one *persistent,
supervised* process pool.  Each worker recreates the engine from
:meth:`~repro.core.engine.Engine.worker_spec` and installs the sweep's
inputs once, in the pool initializer: plane engines' workers attach
the plane by name and run the same ``sweep_plane`` over their chunk,
every other engine's workers receive the row-path inputs and return
finished outcomes.  Outcomes keep primary-major order and per-worker
:class:`~repro.core.engine.EngineStats` snapshots are merged into the
report's stats, so serial and ``workers=N`` agree outcome for outcome.

When the observability subsystem (:mod:`repro.obs`) has sinks
installed, the sweep is traced end to end: a ``batch.relations`` root
span, one ``batch.chunk`` span per chunk (serial sweeps are one
chunk), and — under ``workers=N`` — per-worker spans recorded inside
each worker process, serialised back with the outcomes and grafted
into the parent's trace, with worker metrics merged into the installed
registry.
"""

from __future__ import annotations

import os
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import obs

from repro.cardirect.model import Configuration
from repro.core.engine import (
    Engine,
    EngineLike,
    EngineStats,
    create_engine,
    resolve_engine,
)
from repro.core.guarded import DEFAULT_EPSILON
from repro.core.matrix import PercentageMatrix
from repro.core.relation import CardinalDirection
from repro.core.tiles import Tile
from repro.core.validate import ERROR, validate_region
from repro.errors import DeadlineExceeded, GeometryError, InjectedFault, ReproError
from repro.geometry.bbox import BoundingBox
from repro.geometry.region import Region
from repro.geometry.repair import REPAIR, RepairReport, repair_region
from repro.resilience.deadline import (
    Deadline,
    count_deadline_exceeded,
    current_deadline,
    deadline_scope,
)
from repro.resilience.faults import fault_point, maybe_corrupt
from repro.resilience.retry import RetryPolicy, count_retry

#: Outcome statuses.
OK = "ok"
REPAIRED = "repaired"
FAILED = "error"
DEADLINE = "deadline"

#: One plain retry (no backoff) — exactly the historical behaviour of the
#: retry-after-repair path, now expressed as a policy callers can replace.
DEFAULT_BATCH_RETRY_POLICY = RetryPolicy(
    max_attempts=2, base_delay=0.0, jitter=0.0
)

#: Extra seconds the parallel supervisor waits past an expired deadline so
#: workers flushing their own deadline-labelled outcomes can still return
#: them instead of being counted as lost.
_DEADLINE_GRACE = 0.25


class PairOutcome(NamedTuple):
    """The result (or failure) of one ordered pair.

    A named tuple rather than a frozen dataclass: a plane-parallel
    sweep constructs one per pair in the parent's assembly loop, and
    tuple construction is several times cheaper than frozen-dataclass
    field assignment — at a million pairs that difference is seconds.
    Still immutable, still compared field by field.
    """

    primary_id: str
    reference_id: str
    status: str  # OK, REPAIRED, FAILED or DEADLINE
    relation: Optional[CardinalDirection] = None
    percentages: Optional[PercentageMatrix] = None
    error: Optional[str] = None
    path: Optional[str] = None  # "fast" / "exact" under engine="guarded"

    @property
    def ok(self) -> bool:
        return self.status in (OK, REPAIRED)

    def __str__(self) -> str:
        if self.ok:
            note = " (repaired)" if self.status == REPAIRED else ""
            return (
                f"{self.primary_id} {self.relation} {self.reference_id}{note}"
            )
        return f"{self.primary_id} ?? {self.reference_id}: {self.error}"


@dataclass
class BatchReport:
    """Every pair's outcome, plus the region-level repair bookkeeping.

    ``engine`` names the compute backend that served the sweep and
    ``engine_stats`` carries its uniform telemetry (call counts,
    wall-clock totals, ladder path counts) for exactly this batch.
    Under ``workers=N`` the stats are the merged totals of every
    worker's sweep.

    The supervision fields account for how the parallel executor earned
    the outcomes: ``worker_failures`` counts chunk dispatches lost to
    crashed / hung / broken workers, ``chunk_retries`` re-dispatches of
    lost chunks, and ``inline_chunks`` chunks that exhausted their
    retries and ran serially in the parent as the last resort.  A crash
    thus surfaces *only* here (and in telemetry) — never as missing or
    failed pairs.  ``deadline_hit`` is set when a wall-clock deadline
    expired mid-sweep, in which case the unreached pairs carry the
    ``DEADLINE`` status (see :meth:`deadline_outcomes`).
    """

    outcomes: List[PairOutcome]
    repairs: Dict[str, RepairReport]
    broken: Dict[str, str]
    engine: Optional[str] = None
    engine_stats: Optional[EngineStats] = field(default=None, repr=False)
    worker_failures: int = 0
    chunk_retries: int = 0
    inline_chunks: int = 0
    deadline_hit: bool = False

    def ok_outcomes(self) -> List[PairOutcome]:
        return [outcome for outcome in self.outcomes if outcome.ok]

    def error_outcomes(self) -> List[PairOutcome]:
        return [
            outcome for outcome in self.outcomes if outcome.status == FAILED
        ]

    def deadline_outcomes(self) -> List[PairOutcome]:
        """Pairs abandoned because the wall-clock deadline expired."""
        return [
            outcome for outcome in self.outcomes if outcome.status == DEADLINE
        ]

    def relations(self) -> Dict[Tuple[str, str], CardinalDirection]:
        """The answered pairs as a ``{(primary, reference): R}`` mapping."""
        return {
            (outcome.primary_id, outcome.reference_id): outcome.relation
            for outcome in self.outcomes
            if outcome.ok
        }

    def summary(self) -> str:
        ok = len(self.ok_outcomes())
        failed = len(self.error_outcomes())
        parts = [f"{ok} pair(s) answered, {failed} failed"]
        abandoned = len(self.deadline_outcomes())
        if abandoned:
            parts.append(f"{abandoned} pair(s) past deadline")
        if self.repairs:
            parts.append(f"{len(self.repairs)} region(s) repaired")
        if self.broken:
            parts.append(
                f"{len(self.broken)} region(s) unusable: "
                + ", ".join(sorted(self.broken))
            )
        if self.worker_failures:
            parts.append(
                f"{self.worker_failures} worker failure(s) recovered "
                f"({self.chunk_retries} chunk retr"
                f"{'y' if self.chunk_retries == 1 else 'ies'}, "
                f"{self.inline_chunks} inline)"
            )
        return "; ".join(parts)


def _error_issues(region: Region, region_id: str) -> List[str]:
    return [
        str(issue)
        for issue in validate_region(region, region_id=region_id)
        if issue.severity == ERROR
    ]


def _compute_pair(
    primary: Region,
    box: BoundingBox,
    *,
    engine: Engine,
    percentages: bool,
) -> Tuple[CardinalDirection, Optional[PercentageMatrix], Optional[str]]:
    """One pair through the selected compute engine."""
    relation, path = engine.relation_with_path(primary, box)
    matrix: Optional[PercentageMatrix] = None
    if percentages:
        matrix, matrix_path = engine.percentages_with_path(primary, box)
        if matrix_path is not None and matrix_path != path:
            path = f"{path}/{matrix_path}"
    return relation, matrix, path


def _resolve_batch_engine(engine: EngineLike, epsilon: float) -> Engine:
    """An :class:`Engine` for one sweep.

    Accepts an instance as-is; a name creates a fresh instance so the
    report's stats cover exactly this batch.  ``epsilon`` is forwarded
    to the guarded ladder (the only built-in engine that takes one).
    """
    if isinstance(engine, Engine):
        return engine
    if engine == "guarded":
        return create_engine("guarded", epsilon=epsilon)
    try:
        return resolve_engine(engine)
    except ValueError as error:
        raise ValueError(f"compute engine selection failed: {error}") from None


def _try_repair_into(
    region_id: str,
    region: Region,
    repairs: Dict[str, RepairReport],
    broken: Dict[str, str],
) -> Optional[Region]:
    """Repair a region; record the report or why it stayed broken."""
    try:
        repaired, report = repair_region(
            region, mode=REPAIR, region_id=region_id
        )
    except GeometryError as error:
        broken[region_id] = str(error.with_context(region_id=region_id))
        return None
    residual = _error_issues(repaired, region_id)
    if residual:
        broken[region_id] = "unrepairable: " + "; ".join(residual)
        return None
    repairs[region_id] = report
    return repaired


def _deadline_outcome(
    primary_id: str, reference_id: str, detail: str = ""
) -> PairOutcome:
    """A pair abandoned because the wall-clock budget ran out."""
    return PairOutcome(
        primary_id,
        reference_id,
        DEADLINE,
        error=detail or "wall-clock deadline expired before this pair",
    )


def _pair_outcome(
    primary_id: str,
    reference_id: str,
    healthy: Dict[str, Region],
    boxes: Dict[str, BoundingBox],
    repairs: Dict[str, RepairReport],
    broken: Dict[str, str],
    *,
    backend: Engine,
    percentages: bool,
    repair: bool,
    policy: RetryPolicy = DEFAULT_BATCH_RETRY_POLICY,
) -> PairOutcome:
    """One healthy pair through the engine, with policy-bounded retries.

    Transient failures (injected faults) are retried by plain
    recomputation; other :class:`ReproError`\\ s take the
    retry-after-repair path when ``repair`` allows and the policy grants
    more than one attempt.  A deadline expiry is terminal and yields a
    ``DEADLINE`` outcome, never a retry.
    """
    primary = healthy[primary_id]
    box = boxes[reference_id]
    repaired_pair = primary_id in repairs or reference_id in repairs
    try:
        fault_point(
            "batch.pair",
            primary=primary_id,
            reference=reference_id,
            attempt=0,
        )
        relation, matrix, path = _compute_pair(
            primary, box, engine=backend, percentages=percentages
        )
    except DeadlineExceeded as error:
        return _deadline_outcome(primary_id, reference_id, str(error))
    except InjectedFault as error:
        retried = _retry_transient(
            primary_id,
            reference_id,
            primary,
            box,
            backend=backend,
            percentages=percentages,
            policy=policy,
            repaired_pair=repaired_pair,
        )
        if retried is not None:
            return retried
        return PairOutcome(
            primary_id,
            reference_id,
            FAILED,
            error=f"{type(error).__name__}: {error}",
        )
    except ReproError as error:
        if isinstance(error, GeometryError):
            error.with_context(region_id=primary_id)
        if repair and not repaired_pair and policy.max_attempts > 1:
            count_retry("batch.repair")
            retried = _retry_after_repair(
                primary_id,
                reference_id,
                healthy,
                boxes,
                repairs,
                broken,
                engine=backend,
                percentages=percentages,
            )
            if retried is not None:
                return retried
        return PairOutcome(
            primary_id,
            reference_id,
            FAILED,
            error=f"{type(error).__name__}: {error}",
        )
    return PairOutcome(
        primary_id,
        reference_id,
        REPAIRED if repaired_pair else OK,
        relation=relation,
        percentages=matrix,
        path=path,
    )


def _retry_transient(
    primary_id: str,
    reference_id: str,
    primary: Region,
    box: BoundingBox,
    *,
    backend: Engine,
    percentages: bool,
    policy: RetryPolicy,
    repaired_pair: bool,
) -> Optional[PairOutcome]:
    """Plain recomputation retries for a transiently-failing pair.

    Used after an :class:`InjectedFault`: the geometry is fine, so
    repair would be wasted work — just try again, up to the policy's
    attempt budget, backing off between attempts (capped by the current
    deadline).  Returns ``None`` when every attempt failed — the caller
    then records the original error.
    """
    deadline = current_deadline()
    for retry in range(policy.max_attempts - 1):
        pause = policy.delay(retry, key=f"{primary_id}:{reference_id}")
        if deadline is not None:
            if deadline.expired():
                return _deadline_outcome(primary_id, reference_id)
            pause = min(pause, deadline.remaining())
        count_retry("batch.pair")
        if pause > 0.0:
            time.sleep(pause)
        try:
            fault_point(
                "batch.pair",
                primary=primary_id,
                reference=reference_id,
                attempt=retry + 1,
            )
            relation, matrix, path = _compute_pair(
                primary, box, engine=backend, percentages=percentages
            )
        except DeadlineExceeded as error:
            return _deadline_outcome(primary_id, reference_id, str(error))
        except InjectedFault:
            continue
        except ReproError:
            return None
        return PairOutcome(
            primary_id,
            reference_id,
            REPAIRED if repaired_pair else OK,
            relation=relation,
            percentages=matrix,
            path=path,
        )
    return None


def _sweep_rows(
    primary_ids: Sequence[str],
    all_ids: Sequence[str],
    *,
    include_self: bool,
    healthy: Dict[str, Region],
    boxes: Dict[str, BoundingBox],
    repairs: Dict[str, RepairReport],
    broken: Dict[str, str],
    backend: Engine,
    percentages: bool,
    repair: bool,
    policy: RetryPolicy = DEFAULT_BATCH_RETRY_POLICY,
) -> List[PairOutcome]:
    """The row path: the primary-major sweep over ``primary_ids`` ×
    ``all_ids``, pair by pair.

    Each pair gets its own fault isolation and retry-after-repair (see
    :func:`_pair_outcome`).  Mutates ``healthy`` / ``boxes`` /
    ``repairs`` as retries repair regions, so later pairs reuse the
    repaired geometry.

    The current deadline (contextvar) is checked once per row and once
    per pair: when it expires, every unreached pair is emitted as a
    ``DEADLINE`` outcome, so the output always covers the full
    ``primary_ids`` × ``all_ids`` matrix — partial work is labelled,
    never silently dropped.
    """
    outcomes: List[PairOutcome] = []
    deadline = current_deadline()
    for position, primary_id in enumerate(primary_ids):
        if deadline is not None and deadline.expired():
            count_deadline_exceeded("batch.sweep")
            for late_primary in primary_ids[position:]:
                outcomes.extend(
                    _deadline_outcome(late_primary, reference_id)
                    for reference_id in all_ids
                    if include_self or reference_id != late_primary
                )
            break
        for reference_id in all_ids:
            if not include_self and reference_id == primary_id:
                continue
            unusable = [
                region_id
                for region_id in (primary_id, reference_id)
                if region_id in broken
            ]
            if unusable:
                outcomes.append(
                    PairOutcome(
                        primary_id,
                        reference_id,
                        FAILED,
                        error="; ".join(
                            f"region {region_id!r} unusable: {broken[region_id]}"
                            for region_id in unusable
                        ),
                    )
                )
            elif deadline is not None and deadline.expired():
                outcomes.append(_deadline_outcome(primary_id, reference_id))
            else:
                outcomes.append(
                    _pair_outcome(
                        primary_id,
                        reference_id,
                        healthy,
                        boxes,
                        repairs,
                        broken,
                        backend=backend,
                        percentages=percentages,
                        repair=repair,
                        policy=policy,
                    )
                )
    return outcomes


# ---------------------------------------------------------------------------
# The supervised worker pool
# ---------------------------------------------------------------------------

#: Floor on the adaptive chunk size — below this the dispatch overhead
#: (IPC round-trip, task bookkeeping) dominates the row work.
_MIN_CHUNK_ROWS = 4

#: How many chunks per worker the initial carve aims for, so the sizer
#: gets latency observations early without serialising the sweep.
_CHUNK_LEAD = 4

#: Target wall-clock per chunk once a throughput estimate exists: long
#: enough to amortise dispatch overhead, short enough that a lost chunk
#: re-dispatches cheaply and deadline checks stay responsive.
_TARGET_CHUNK_SECONDS = 0.25


class _ChunkSizer:
    """Adaptive chunk sizing from observed chunk latency.

    Starts from a static carve (about :data:`_CHUNK_LEAD` chunks per
    worker, floored at :data:`_MIN_CHUNK_ROWS` rows, never wider than an
    even ``total / workers`` split so small workloads still fan out) and
    converges on whatever row count currently takes about
    :data:`_TARGET_CHUNK_SECONDS` per chunk, smoothing the observed
    rows-per-second with an even EWMA so one outlier chunk cannot whip
    the size around.
    """

    def __init__(self, total_rows: int, workers: int) -> None:
        self._ceiling = max(1, -(-total_rows // workers))
        lead = max(_MIN_CHUNK_ROWS, -(-total_rows // (workers * _CHUNK_LEAD)))
        self._size = max(1, min(lead, self._ceiling))
        self._rate: Optional[float] = None

    def next_size(self, remaining: int) -> int:
        """Rows to carve into the next chunk."""
        return max(1, min(self._size, remaining))

    def observe(self, rows: int, seconds: float) -> None:
        """Fold one completed chunk's latency into the size estimate."""
        if rows <= 0 or seconds <= 0.0:
            return
        rate = rows / seconds
        self._rate = rate if self._rate is None else 0.5 * self._rate + 0.5 * rate
        target = int(self._rate * _TARGET_CHUNK_SECONDS)
        self._size = max(_MIN_CHUNK_ROWS, min(target, self._ceiling))


class _Chunk:
    """One index-range dispatch unit of a pooled sweep."""

    __slots__ = ("index", "start", "stop", "attempt", "dispatched_at")

    def __init__(
        self, index: int, start: int, stop: int, attempt: int = 0
    ) -> None:
        self.index = index
        self.start = start
        self.stop = stop
        self.attempt = attempt
        self.dispatched_at = 0.0

    @property
    def rows(self) -> int:
        return self.stop - self.start


#: Worker-process state installed by :func:`_pool_worker_init` and reused
#: by every chunk the worker serves — the point of the persistent pool
#: is install once, sweep many: the engine spec, the attached plane (plane
#: engines only) and the sweep's constant inputs, shipped once per worker
#: in ``initargs`` instead of once per chunk.
_WORKER_ENGINE_SPEC: Optional[tuple] = None
_WORKER_PLANE: Optional[Any] = None
_WORKER_INPUTS: Optional[dict] = None


def _pool_worker_init(
    engine_spec: tuple,
    generation: int,
    plane_name: Optional[str],
    inputs: dict,
) -> None:
    """Pool initializer: install this worker's sweep inputs once.

    A plane engine's worker attaches the shared plane by ``plane_name``
    and its ``inputs`` carry the (row, column) restriction; any other
    engine's worker gets the parent's row-path inputs — healthy regions,
    boxes, repair and broken maps, the repair flag, the retry policy and
    the row and reference id lists.

    ``generation`` is the supervisor's pool rebuild counter, threaded
    into the ``plane.attach`` fault-injection context so chaos tests can
    target (or spare) specific rebuilds.  An attach failure kills the
    worker during initialisation, which breaks the pool; the supervisor
    answers with a rebuild under the retry policy.
    """
    global _WORKER_ENGINE_SPEC, _WORKER_PLANE, _WORKER_INPUTS
    _WORKER_ENGINE_SPEC = engine_spec
    _WORKER_INPUTS = inputs
    if plane_name is not None:
        from repro.core.plane import GeometryPlane

        _WORKER_PLANE = GeometryPlane.attach(plane_name, generation=generation)


def _pool_chunk(task: dict) -> tuple:
    """One ``[start, stop)`` chunk of primary rows, in a pool worker.

    The task dict carries nothing but indices and flags — the sweep's
    inputs were installed by :func:`_pool_worker_init`.  A plane
    worker runs ``sweep_plane`` and returns ``(rows_done, masks, paths,
    areas)`` blocks the parent assembles; a row-path worker runs
    :func:`_sweep_rows` over shallow copies of the parent's maps (so a
    retry-after-repair cannot leak into another chunk) and returns
    ``(outcomes, new_repairs)``.  A fresh engine per chunk keeps the
    stats snapshot scoped to exactly this dispatch (re-dispatched
    chunks must not double-count).  Returns ``(block, cpu_seconds,
    stats, spans, metrics, profile, events)``: the block, the chunk's
    CPU cost (feeding the adaptive sizer), and — when the parent had a
    tracer / metrics registry / sampling profiler / event log installed
    — the worker's serialised telemetry, which the parent grafts into
    its own sinks so ``workers=N`` loses none of it to the process
    boundary (observers excepted; see
    :meth:`~repro.core.engine.Engine.worker_spec`).
    """
    spec, plane, inputs = _WORKER_ENGINE_SPEC, _WORKER_PLANE, _WORKER_INPUTS
    if spec is None or inputs is None:  # pragma: no cover - init contract
        raise RuntimeError("chunk dispatched to an uninitialised worker")
    chunk_index = task["chunk_index"]
    attempt = task["attempt"]
    start, stop = task["start"], task["stop"]
    fault_point("batch.worker", chunk=chunk_index, attempt=attempt)
    engine_name, engine_options = spec
    backend = create_engine(engine_name, **engine_options)
    rows = stop - start
    worker_label = f"worker-{chunk_index}"
    tracer = obs.Tracer(worker=worker_label) if task.get("trace") else None
    registry = obs.MetricsRegistry() if task.get("collect_metrics") else None
    profiler = obs.SamplingProfiler() if task.get("profile") else None
    events_spec = task.get("events")
    events_log = (
        obs.EventLog(
            slow_op_budgets=events_spec.get("budgets"),
            default_slow_op_budget=events_spec.get("default"),
            worker=worker_label,
        )
        if events_spec
        else None
    )
    started = time.perf_counter()
    cpu_started = time.process_time()
    with ExitStack() as scope:
        if tracer is not None:
            scope.enter_context(obs.tracing(tracer))
        if registry is not None:
            scope.enter_context(obs.collecting(registry))
        if events_log is not None:
            scope.enter_context(obs.emitting(events_log))
        if profiler is not None:
            scope.enter_context(profiler)
        scope.enter_context(
            obs.span(
                "batch.worker",
                chunk=chunk_index,
                attempt=attempt,
                pid=os.getpid(),
                primaries=rows,
            )
        )
        scope.enter_context(
            obs.span("batch.chunk", chunk=chunk_index, primaries=rows)
        )
        scope.enter_context(deadline_scope(task.get("deadline_seconds")))
        block: tuple
        if plane is not None:
            block = getattr(backend, "sweep_plane")(
                plane,
                start,
                stop,
                include_self=inputs["include_self"],
                percentages=inputs["percentages"],
                attempt=attempt,
                row_index=inputs["row_index"],
                column_index=inputs["column_index"],
            )
            if block[0] < rows:
                count_deadline_exceeded("batch.sweep")
        else:
            repairs = dict(inputs["repairs"])
            outcomes = _sweep_rows(
                inputs["primary_ids"][start:stop],
                inputs["reference_ids"],
                include_self=inputs["include_self"],
                healthy=dict(inputs["healthy"]),
                boxes=dict(inputs["boxes"]),
                repairs=repairs,
                broken=dict(inputs["broken"]),
                backend=backend,
                percentages=inputs["percentages"],
                repair=inputs["repair"],
                policy=inputs["policy"],
            )
            new_repairs = {
                region_id: report
                for region_id, report in repairs.items()
                if region_id not in inputs["repairs"]
            }
            block = (outcomes, new_repairs)
    elapsed = time.perf_counter() - started
    # CPU seconds, not wall: under N-way contention the wall latency of
    # a chunk inflates with the worker count, and sizing chunks from it
    # would shrink them (and blow up per-chunk overhead) exactly when
    # the machine is busiest.  The worker's own CPU time measures the
    # real per-row cost regardless of who else is running.
    cpu_seconds = time.process_time() - cpu_started
    return (
        block,
        cpu_seconds if cpu_seconds > 0.0 else elapsed,
        backend.stats.as_dict(),
        tracer.to_payload() if tracer is not None else None,
        registry.snapshot() if registry is not None else None,
        profiler.to_payload() if profiler is not None else None,
        events_log.to_payload() if events_log is not None else None,
    )


@dataclass
class _Sweep:
    """One sweep's inputs, shared by the parent's serial, assembly and
    last-resort paths.

    ``primary_ids`` / ``reference_ids`` are the swept rows and columns
    in the caller's order; ``row_index`` / ``column_index`` are their
    positions in ``all_ids`` (the plane's row order), ``None`` for the
    full matrix.
    """

    all_ids: List[str]
    primary_ids: List[str]
    reference_ids: List[str]
    row_index: Optional[Tuple[int, ...]]
    column_index: Optional[Tuple[int, ...]]
    include_self: bool
    healthy: Dict[str, Region]
    boxes: Dict[str, BoundingBox]
    repairs: Dict[str, RepairReport]
    broken: Dict[str, str]
    backend: Engine
    percentages: bool
    repair: bool
    policy: RetryPolicy

    def row_path(
        self,
        primary_ids: Sequence[str],
        reference_ids: Sequence[str],
        *,
        include_self: Optional[bool] = None,
    ) -> List[PairOutcome]:
        """:func:`_sweep_rows` over this sweep's geometry and engine."""
        return _sweep_rows(
            primary_ids,
            reference_ids,
            include_self=self.include_self if include_self is None else include_self,
            healthy=self.healthy,
            boxes=self.boxes,
            repairs=self.repairs,
            broken=self.broken,
            backend=self.backend,
            percentages=self.percentages,
            repair=self.repair,
            policy=self.policy,
        )

    def inline(
        self, plane: Optional[Any], start: int, stop: int, *, attempt: int
    ) -> List[PairOutcome]:
        """Rows ``[start, stop)`` swept in this process.

        Without a plane this is the row path.  With one, each row runs
        ``sweep_plane`` and is assembled by :func:`_assemble_plane_rows`
        — the serial sweep, and the pool's last resort for chunks it
        could not answer.  A row whose kernel raises is answered pair
        by pair through the row path while every other row still comes
        from the plane; once the deadline expires, the row path labels
        every remaining pair ``DEADLINE``.
        """
        if plane is None:
            return self.row_path(self.primary_ids[start:stop], self.reference_ids)
        sweep_plane = getattr(self.backend, "sweep_plane")
        outcomes: List[PairOutcome] = []
        for position in range(start, stop):
            try:
                block = sweep_plane(
                    plane,
                    position,
                    position + 1,
                    include_self=self.include_self,
                    percentages=self.percentages,
                    attempt=attempt,
                    row_index=self.row_index,
                    column_index=self.column_index,
                )
            except ReproError:
                outcomes.extend(
                    self.row_path([self.primary_ids[position]], self.reference_ids)
                )
                continue
            if not block[0]:  # the deadline expired before this row
                outcomes.extend(
                    self.row_path(self.primary_ids[position:stop], self.reference_ids)
                )
                break
            outcomes.extend(_assemble_plane_rows(self, block, start=position))
        return outcomes


def _assemble_plane_rows(
    sweep: _Sweep, block: tuple, *, start: int
) -> List[PairOutcome]:
    """A ``sweep_plane`` block → :class:`PairOutcome` rows.

    ``block`` is ``(rows_done, masks, paths, areas)`` for the chunk
    positions ``[start, start + rows_done)``.  Reproduces the row
    path's outcome shape: broken pairs carry the primary-then-reference
    unusable message, pruned pairs the exact ``{tile: 100}`` matrix,
    broadcast pairs a
    :meth:`~repro.core.matrix.PercentageMatrix.from_areas` over the
    per-tile float areas in :data:`~repro.core.sweep.AREA_TILE_ORDER`.

    Pairs the kernel left at mask 0 (a row or column with a coordinate
    that is not float64-exact; see :mod:`repro.core.plane`) are
    answered through the row path, one call per row.  Restricted sweeps
    map chunk positions through ``sweep.row_index`` and list columns in
    ``sweep.column_index`` order, so outcomes follow the caller's
    restriction pair for pair.
    """
    from repro.core.sweep import (
        AREA_TILE_ORDER,
        BROADCAST_PATH,
        PLANE_PATH_PRUNE,
        PRUNE_PATH,
        prune_matrix,
    )

    rows_done, masks, paths, areas = block
    # The hottest loop of a sweep — a million iterations at a thousand
    # regions, so the body is tuned: numpy rows become plain lists once
    # (scalar ndarray indexing is ~10x a list index), the self column is
    # an integer compare (chunk positions resolve to global rows once
    # per row), the broken/repaired lookups collapse to constants when
    # those maps are empty (the common case), and outcomes are built
    # positionally.
    broken, repairs = sweep.broken, sweep.repairs
    row_lookup = sweep.row_index
    outcomes: List[PairOutcome] = []
    append = outcomes.append
    ids = sweep.all_ids
    columns_iter = (
        range(len(ids)) if sweep.column_index is None else sweep.column_index
    )
    path_names = (None, PRUNE_PATH, BROADCAST_PATH)
    relation_of = CardinalDirection.from_mask
    any_broken = bool(broken)
    any_repairs = bool(repairs)
    repaired_columns = (
        [region_id in repairs for region_id in ids] if any_repairs else None
    )
    gaps: List[Tuple[int, str]] = []
    for row_offset in range(rows_done):
        position = start + row_offset
        row_index = position if row_lookup is None else row_lookup[position]
        primary_id = ids[row_index]
        primary_broken = any_broken and primary_id in broken
        primary_repaired = any_repairs and primary_id in repairs
        mask_row = masks[row_offset].tolist()
        path_row = paths[row_offset].tolist()
        self_column = -1 if sweep.include_self else row_index
        for column in columns_iter:
            if column == self_column:
                continue
            reference_id = ids[column]
            if primary_broken or (any_broken and reference_id in broken):
                unusable = [
                    region_id
                    for region_id in (primary_id, reference_id)
                    if region_id in broken
                ]
                append(
                    PairOutcome(
                        primary_id,
                        reference_id,
                        FAILED,
                        None,
                        None,
                        "; ".join(
                            f"region {region_id!r} unusable: "
                            f"{broken[region_id]}"
                            for region_id in unusable
                        ),
                        None,
                    )
                )
                continue
            mask = mask_row[column]
            if mask == 0:
                # Placeholder, replaced by the row path's answer below.
                gaps.append((len(outcomes), reference_id))
                append(PairOutcome(primary_id, reference_id, FAILED))
                continue
            path_code = path_row[column]
            matrix: Optional[PercentageMatrix] = None
            if sweep.percentages:
                if path_code == PLANE_PATH_PRUNE:
                    matrix = prune_matrix(Tile(mask.bit_length() - 1))
                elif areas is not None:
                    matrix = PercentageMatrix.from_areas(
                        {
                            tile: float(value)
                            for tile, value in zip(
                                AREA_TILE_ORDER, areas[row_offset, column]
                            )
                        }
                    )
            append(
                PairOutcome(
                    primary_id,
                    reference_id,
                    REPAIRED
                    if primary_repaired
                    or (repaired_columns is not None and repaired_columns[column])
                    else OK,
                    relation_of(mask),
                    matrix,
                    None,
                    path_names[path_code],
                )
            )
        if gaps:
            # ``gaps`` already excludes the self column unless it is wanted.
            answers = sweep.row_path(
                [primary_id],
                [reference_id for _, reference_id in gaps],
                include_self=True,
            )
            for (at, _), answer in zip(gaps, answers):
                outcomes[at] = answer
            gaps.clear()
    return outcomes


def _run_sweep(
    sweep: _Sweep, *, workers: Optional[int], chunk_timeout: Optional[float]
) -> Tuple[List[PairOutcome], Dict[str, int]]:
    """Sweep every row, over the supervised pool or in this process.

    ``workers > 1`` with more than one row fans out over the pool;
    anything else runs :meth:`_Sweep.inline` as one ``batch.chunk``.
    For a plane engine (``supports_plane``) either way sweeps one
    :class:`~repro.core.plane.GeometryPlane`, built here — never when
    there are no rows — and **unconditionally** destroyed on the way
    out (success, crashed or hung pool, deadline expiry and
    ``KeyboardInterrupt`` alike), so no ``/dev/shm`` segment can outlive
    the sweep.  A restricted sweep still flattens every region: plane
    positions are global, and a reference needs geometry whether or
    not it is a primary.
    """
    rows = len(sweep.primary_ids)
    supervision = {"worker_failures": 0, "chunk_retries": 0, "inline_chunks": 0}

    def run(plane: Optional[Any]) -> Tuple[List[PairOutcome], Dict[str, int]]:
        if workers is not None and workers > 1 and rows > 1:
            return _supervise_pool(
                plane, sweep, workers=workers, chunk_timeout=chunk_timeout
            )
        with obs.span("batch.chunk", chunk=0, primaries=rows):
            return sweep.inline(plane, 0, rows, attempt=0), supervision

    if not rows or not getattr(sweep.backend, "supports_plane", False):
        return run(None)
    from repro.core.plane import GeometryPlane

    plane = GeometryPlane.build(
        sweep.all_ids,
        healthy=sweep.healthy,
        boxes=sweep.boxes,
        broken=sweep.broken,
        repaired=tuple(sweep.repairs),
    )
    try:
        return run(plane)
    finally:
        plane.destroy()


def _supervise_pool(
    plane: Optional[Any],
    sweep: _Sweep,
    *,
    workers: int,
    chunk_timeout: Optional[float],
) -> Tuple[List[PairOutcome], Dict[str, int]]:
    """The persistent supervised pool, over ``plane`` or the row path.

    One :class:`~concurrent.futures.ProcessPoolExecutor` of at most
    ``min(workers, rows)`` processes lives across the whole sweep;
    workers attach ``plane`` by name in their initializer, or — when
    ``plane`` is ``None`` — receive the row-path inputs there.  The
    supervisor keeps up to that many index-range chunks in flight,
    carving chunk sizes adaptively from observed chunk latency.  Loss
    handling:

    * a future that *raises* (an injected fault, a worker bug) loses
      only its own chunk — the pool survives;
    * a ``BrokenProcessPool`` (worker killed) loses every in-flight
      chunk and the pool is rebuilt with a bumped ``generation``;
    * a ``chunk_timeout`` expiry means a hung worker, which can only be
      abandoned: every in-flight chunk is lost and the pool is rebuilt.

    Lost chunks re-enter the dispatch queue with an incremented attempt
    (``policy.max_attempts`` bounding, backoff between attempts); chunks
    that exhaust retries — plus anything stranded by a deadline expiry —
    run inline through :meth:`_Sweep.inline`, the serial sweep, which
    labels past-deadline pairs ``DEADLINE``.  Plane workers return
    partial blocks when their deadline slice expires; the unswept
    remainder is requeued as a fresh chunk so the matrix is always
    complete.  The final outcome list is reassembled in ascending row
    order, so primary-major order is preserved exactly no matter which
    attempt (or the inline fallback) answered which rows.
    """
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    tracer = obs.current_tracer()
    registry = obs.current_metrics()
    profiler = obs.current_profiler()
    events_log = obs.current_events()
    backend, policy, repairs = sweep.backend, sweep.policy, sweep.repairs
    engine_spec = backend.worker_spec()
    deadline = current_deadline()
    inputs: Dict[str, Any] = {
        "include_self": sweep.include_self,
        "percentages": sweep.percentages,
    }
    if plane is None:
        inputs.update(
            healthy=sweep.healthy,
            boxes=sweep.boxes,
            repairs=dict(repairs),
            broken=sweep.broken,
            repair=sweep.repair,
            policy=policy,
            primary_ids=sweep.primary_ids,
            reference_ids=sweep.reference_ids,
        )
    else:
        inputs.update(row_index=sweep.row_index, column_index=sweep.column_index)
    total_rows = len(sweep.primary_ids)
    workers = min(workers, total_rows)
    sizer = _ChunkSizer(total_rows, workers)
    stats = {"worker_failures": 0, "chunk_retries": 0, "inline_chunks": 0}
    completed: List[Tuple[int, List[PairOutcome]]] = []
    retry_queue: List[_Chunk] = []
    exhausted: List[_Chunk] = []
    in_flight: Dict[Any, _Chunk] = {}
    next_start = 0
    next_index = 0
    generation = 0
    pool: Optional[Any] = None

    def _task(chunk: _Chunk) -> dict:
        return {
            "chunk_index": chunk.index,
            "attempt": chunk.attempt,
            "start": chunk.start,
            "stop": chunk.stop,
            "deadline_seconds": (
                deadline.remaining() if deadline is not None else None
            ),
            "trace": tracer is not None,
            "collect_metrics": registry is not None,
            "profile": profiler is not None,
            "events": (
                events_log.budget_spec() if events_log is not None else None
            ),
        }

    def _lose(chunk: _Chunk, reason: str) -> None:
        stats["worker_failures"] += 1
        if registry is not None:
            registry.counter(
                "repro_worker_restart_total",
                "Parallel batch chunk dispatches lost to worker failures.",
            ).inc(reason=reason)
        obs.emit("batch.worker_lost", "warning", count=1, reason=reason)
        if chunk.attempt + 1 < policy.max_attempts:
            chunk.attempt += 1
            stats["chunk_retries"] += 1
            count_retry("batch.chunk")
            retry_queue.append(chunk)
        else:
            exhausted.append(chunk)

    def _absorb(chunk: _Chunk, result: tuple) -> None:
        nonlocal next_index
        (
            block,
            cpu_seconds,
            stats_snapshot,
            span_payload,
            metrics_snapshot,
            profile_payload,
            events_payload,
        ) = result
        backend.stats.merge(stats_snapshot)
        span_id_map: Dict[str, str] = {}
        if span_payload and tracer is not None:
            tracer.ingest(
                span_payload, worker=f"worker-{chunk.index}", id_map=span_id_map
            )
        if metrics_snapshot and registry is not None:
            registry.merge(metrics_snapshot)
        if profile_payload and profiler is not None:
            profiler.merge(profile_payload)
        if events_payload and events_log is not None:
            events_log.ingest(
                events_payload,
                worker=f"worker-{chunk.index}",
                span_map=span_id_map or None,
            )
        if plane is None:
            chunk_outcomes, new_repairs = block
            repairs.update(new_repairs)
            sizer.observe(chunk.rows, cpu_seconds)
            completed.append((chunk.start, chunk_outcomes))
            return
        rows_done = block[0]
        if rows_done > 0:
            sizer.observe(rows_done, cpu_seconds)
            completed.append(
                (chunk.start, _assemble_plane_rows(sweep, block, start=chunk.start))
            )
        if rows_done < chunk.rows:
            # The worker's deadline slice expired mid-chunk; requeue the
            # unswept remainder — under a live parent deadline it is
            # re-dispatched, under an expired one the inline fallback
            # below labels it DEADLINE.
            retry_queue.append(
                _Chunk(next_index, chunk.start + rows_done, chunk.stop)
            )
            next_index += 1

    def _shutdown_pool(*, abandon: bool) -> None:
        nonlocal pool
        if pool is not None:
            pool.shutdown(wait=not abandon, cancel_futures=True)
            pool = None

    try:
        while True:
            if deadline is not None and deadline.expired():
                break
            while len(in_flight) < workers and (
                retry_queue or next_start < total_rows
            ):
                if retry_queue:
                    chunk = retry_queue.pop(0)
                    if chunk.attempt:
                        pause = policy.delay(
                            chunk.attempt - 1, key="batch.chunk"
                        )
                        if deadline is not None:
                            pause = min(
                                pause, max(deadline.remaining(), 0.0)
                            )
                        if pause > 0.0:
                            time.sleep(pause)
                else:
                    size = sizer.next_size(total_rows - next_start)
                    chunk = _Chunk(
                        next_index, next_start, next_start + size
                    )
                    next_index += 1
                    next_start += size
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=workers,
                        initializer=_pool_worker_init,
                        initargs=(
                            engine_spec,
                            generation,
                            None if plane is None else plane.name,
                            inputs,
                        ),
                    )
                chunk.dispatched_at = time.monotonic()
                try:
                    future = pool.submit(_pool_chunk, _task(chunk))
                except BrokenProcessPool:
                    _lose(chunk, "broken_pool")
                    generation += 1
                    _shutdown_pool(abandon=False)
                    continue
                in_flight[future] = chunk
            if not in_flight:
                break
            budget: Optional[float] = None
            if chunk_timeout is not None:
                now = time.monotonic()
                budget = max(
                    0.0,
                    min(
                        chunk_timeout - (now - flying.dispatched_at)
                        for flying in in_flight.values()
                    ),
                )
            if deadline is not None:
                grace = deadline.remaining() + _DEADLINE_GRACE
                budget = grace if budget is None else min(budget, grace)
            done, _ = wait(
                set(in_flight), timeout=budget, return_when=FIRST_COMPLETED
            )
            if not done:
                if deadline is not None and deadline.expired():
                    # Workers flush their own partial blocks on expiry;
                    # whatever stayed unreturned past the grace window is
                    # labelled by the inline fallback below.
                    break
                # chunk_timeout elapsed: at least one worker is hung.  A
                # hung worker cannot be cancelled, only abandoned — and
                # every in-flight dispatch shares its abandoned pool.
                for flying_chunk in list(in_flight.values()):
                    _lose(flying_chunk, "timeout")
                in_flight.clear()
                generation += 1
                _shutdown_pool(abandon=True)
                continue
            pool_broken = False
            for future in done:
                finished = in_flight.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool:
                    _lose(finished, "broken_pool")
                    pool_broken = True
                except DeadlineExceeded:
                    # The worker saw the deadline before the supervisor
                    # did.  Not a worker failure: re-dispatching would
                    # burn retry budget on a budget that is already
                    # gone, so the chunk goes straight to the exhausted
                    # pile and the inline fallback labels its pairs
                    # DEADLINE.
                    count_deadline_exceeded("batch.pool")
                    exhausted.append(finished)
                except Exception as error:  # repro: noqa[RA006] -- _lose counts it
                    # The worker raised (e.g. an injected fault): the
                    # chunk is lost but the pool survives — no rebuild.
                    # _lose increments repro_worker_restart_total.
                    _lose(finished, type(error).__name__)
                else:
                    _absorb(finished, result)
            if pool_broken:
                # A killed worker breaks the whole executor; every other
                # in-flight dispatch goes down with it.
                for flying_chunk in list(in_flight.values()):
                    _lose(flying_chunk, "broken_pool")
                in_flight.clear()
                generation += 1
                _shutdown_pool(abandon=False)
    finally:
        _shutdown_pool(abandon=bool(in_flight))

    # Whatever the pool never answered: chunks that exhausted their
    # retries, anything stranded in flight / queued by deadline expiry,
    # plus the rows never carved at all.
    leftovers = exhausted + retry_queue + list(in_flight.values())
    if next_start < total_rows:
        leftovers.append(_Chunk(next_index, next_start, total_rows))
        next_index += 1
    if leftovers:
        leftovers.sort(key=lambda record: record.start)
        stats["inline_chunks"] = len(leftovers)
        for record in leftovers:
            with obs.span(
                "batch.chunk",
                chunk=record.index,
                primaries=record.rows,
                inline=True,
            ):
                completed.append(
                    (
                        record.start,
                        sweep.inline(
                            plane,
                            record.start,
                            record.stop,
                            attempt=policy.max_attempts,
                        ),
                    )
                )
    completed.sort(key=lambda item: item[0])
    outcomes: List[PairOutcome] = []
    for _, chunk_outcomes in completed:
        outcomes.extend(chunk_outcomes)
    return outcomes, stats


def batch_relations(
    configuration: Configuration,
    *,
    include_self: bool = False,
    percentages: bool = False,
    engine: Optional[EngineLike] = None,
    repair: bool = True,
    validate: bool = True,
    epsilon: float = DEFAULT_EPSILON,
    workers: Optional[int] = None,
    deadline: Optional[Union[Deadline, float]] = None,
    retry_policy: Optional[RetryPolicy] = None,
    chunk_timeout: Optional[float] = None,
    primaries: Optional[Sequence[str]] = None,
    references: Optional[Sequence[str]] = None,
) -> BatchReport:
    """Compute every ordered pair with per-pair fault isolation.

    ``primaries`` / ``references`` restrict the sweep to the given id
    subsets (each defaults to every region): only pairs in ``primaries
    × references`` are computed, in the given order.  This is how an
    index-supplied candidate list (e.g. from
    :meth:`~repro.core.index.SpatialIndex.direction_candidates`)
    reaches the parallel executor — the plane still flattens the whole
    configuration once, but chunks address positions in the restricted
    row list, so non-candidate rows and columns are never swept.

    ``engine`` selects the compute backend by registered name —
    ``"exact"`` (reference, the default), ``"fast"`` (float64 numpy),
    ``"guarded"`` (the exactness-fallback ladder), ``"clipping"``,
    ``"sweep"`` (the plane sweep: prune + broadcast rows), or any third-party
    :func:`~repro.core.engine.register_engine` registration — or as an
    :class:`~repro.core.engine.Engine` instance.  The engine's
    :class:`~repro.core.engine.EngineStats` for the sweep are threaded
    into the returned report.

    With ``repair`` (default) invalid regions are repaired before use
    and failing pairs are retried on repaired geometry; with
    ``validate`` (default) the O(n²) geometric invariants are checked up
    front so silently-wrong answers from degenerate input (e.g. bowties,
    which raise nothing) are caught, not just crashes.

    ``workers=N`` (N > 1) chunks the primary rows across a process
    pool of at most ``min(N, rows)`` workers, the same supervised pool
    for every engine: each worker recreates the engine from
    :meth:`~repro.core.engine.Engine.worker_spec` and sweeps its chunk;
    outcomes keep primary-major order and per-worker stats are merged
    into ``report.engine_stats``.  Validation and up-front repair still
    run once, in the parent, before the fan-out.  The fan-out is
    *supervised*: chunks lost to crashed, hung (``chunk_timeout``
    seconds) or broken workers are re-dispatched under the retry
    policy, then run inline in the parent as the last resort — a dead
    worker costs latency and a ``report.worker_failures`` entry, never
    pairs.

    ``deadline`` (seconds, or a :class:`~repro.resilience.Deadline`)
    bounds the sweep's wall-clock: pairs not reached in time come back
    as ``DEADLINE`` outcomes (``report.deadline_hit`` set) instead of
    the call blocking indefinitely.  A deadline installed with
    :func:`~repro.resilience.deadline_scope` is honoured the same way.
    ``retry_policy`` bounds every retry loop (pair-level repair retries
    and chunk re-dispatch alike); the default preserves the historical
    single-retry behaviour.
    """
    if workers is not None:
        if isinstance(workers, bool) or not isinstance(workers, int):
            raise ValueError(
                f"workers must be a positive integer, got {workers!r} "
                f"of type {type(workers).__name__}"
            )
        if workers < 1:
            raise ValueError(
                f"workers must be a positive integer, got {workers}"
            )
    if chunk_timeout is not None and not chunk_timeout > 0:
        raise ValueError(
            f"chunk_timeout must be a positive number of seconds, "
            f"got {chunk_timeout!r}"
        )
    policy = retry_policy if retry_policy is not None else DEFAULT_BATCH_RETRY_POLICY
    backend = _resolve_batch_engine(
        "exact" if engine is None else engine, epsilon
    )
    healthy: Dict[str, Region] = {}
    repairs: Dict[str, RepairReport] = {}
    broken: Dict[str, str] = {}

    for annotated in configuration:
        region = maybe_corrupt(
            "batch.region", annotated.region, region_id=annotated.id
        )
        if validate:
            issues = _error_issues(region, annotated.id)
            if issues:
                if repair:
                    repaired = _try_repair_into(
                        annotated.id, region, repairs, broken
                    )
                    if repaired is not None:
                        healthy[annotated.id] = repaired
                else:
                    broken[annotated.id] = "; ".join(issues)
                continue
        healthy[annotated.id] = region

    boxes: Dict[str, BoundingBox] = {
        region_id: region.bounding_box()
        for region_id, region in healthy.items()
    }

    all_ids = list(configuration.region_ids)
    known_ids = set(all_ids)
    for label, subset in (("primaries", primaries), ("references", references)):
        if subset is None:
            continue
        unknown = [region_id for region_id in subset if region_id not in known_ids]
        if unknown:
            raise ValueError(
                f"{label} contains ids not in the configuration: "
                f"{unknown[:5]!r}"
            )
    position_of = {region_id: index for index, region_id in enumerate(all_ids)}
    sweep = _Sweep(
        all_ids=all_ids,
        primary_ids=all_ids if primaries is None else list(primaries),
        reference_ids=all_ids if references is None else list(references),
        row_index=None
        if primaries is None
        else tuple(position_of[region_id] for region_id in primaries),
        column_index=None
        if references is None
        else tuple(position_of[region_id] for region_id in references),
        include_self=include_self,
        healthy=healthy,
        boxes=boxes,
        repairs=repairs,
        broken=broken,
        backend=backend,
        percentages=percentages,
        repair=repair,
        policy=policy,
    )
    with deadline_scope(deadline):
        with obs.span(
            "batch.relations",
            engine=backend.name,
            regions=len(all_ids),
            primaries=len(sweep.primary_ids),
            references=len(sweep.reference_ids),
            workers=workers or 1,
            percentages=percentages,
        ) as batch_span:
            outcomes, supervision = _run_sweep(
                sweep, workers=workers, chunk_timeout=chunk_timeout
            )
            failed = sum(1 for outcome in outcomes if not outcome.ok)
            deadline_hit = any(
                outcome.status == DEADLINE for outcome in outcomes
            )
            batch_span.set(
                pairs=len(outcomes),
                failed=failed,
                deadline_hit=deadline_hit,
                worker_failures=supervision["worker_failures"],
            )
    registry = obs.current_metrics()
    if registry is not None:
        counter = registry.counter(
            "repro_batch_pairs_total",
            "Pair outcomes produced by batch sweeps.",
        )
        for status in (OK, REPAIRED, FAILED, DEADLINE):
            count = sum(1 for outcome in outcomes if outcome.status == status)
            if count:
                counter.inc(count, status=status)
    return BatchReport(
        outcomes,
        repairs,
        broken,
        engine=backend.name,
        engine_stats=backend.stats,
        worker_failures=supervision["worker_failures"],
        chunk_retries=supervision["chunk_retries"],
        inline_chunks=supervision["inline_chunks"],
        deadline_hit=deadline_hit,
    )


def _retry_after_repair(
    primary_id: str,
    reference_id: str,
    healthy: Dict[str, Region],
    boxes: Dict[str, BoundingBox],
    repairs: Dict[str, RepairReport],
    broken: Dict[str, str],
    *,
    engine: Engine,
    percentages: bool,
) -> Optional[PairOutcome]:
    """Repair both operands and recompute a failed pair once.

    Mutates the shared ``healthy`` / ``boxes`` / ``repairs`` maps so
    later pairs reuse the repaired geometry.  Returns ``None`` when the
    repair fails or the recomputation still raises — the caller then
    records the *original* error.
    """
    for region_id in (primary_id, reference_id):
        if region_id in repairs:
            continue
        repaired = _try_repair_into(
            region_id, healthy[region_id], repairs, broken
        )
        if repaired is None:
            broken.pop(region_id, None)  # keep the pair error authoritative
            return None
        healthy[region_id] = repaired
        boxes[region_id] = repaired.bounding_box()
    try:
        relation, matrix, path = _compute_pair(
            healthy[primary_id],
            boxes[reference_id],
            engine=engine,
            percentages=percentages,
        )
    except ReproError:
        return None
    return PairOutcome(
        primary_id,
        reference_id,
        REPAIRED,
        relation=relation,
        percentages=matrix,
        path=path,
    )

