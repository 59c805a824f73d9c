"""The shared-memory geometry plane: one flattened configuration, N processes.

The parent flattens a validated/repaired configuration **once** into
columnar float64/int64 arrays backed by a single
:class:`multiprocessing.shared_memory.SharedMemory` segment.  Every
batch sweep of a plane engine runs over it: a serial
``batch_relations`` sweeps it in-process, the supervised worker pool of
``batch_relations(workers=N)`` attaches by name at pool-initializer
time (so a chunk dispatch is a pair of row indices, never pickled
geometry), and ``RelationStore.refresh_matrix`` sweeps it in-process
too.  Creating a segment registers it with multiprocessing's resource
tracker, so the first plane built in a process starts that tracker.

Segment layout (one segment, 16-byte-aligned sections)::

    [u64 little-endian meta length][meta JSON]
    [offsets  int64   (n+1)]   per-region edge ranges (unswept regions empty)
    [boxes    float64 (n, 4)]  mbb per region: min_x, max_x, min_y, max_y
    [health   uint8   (n)]     1 = swept as a row and a column, 0 = unswept
    [x1 y1 x2 y2  float64 (E)] edge endpoints, concatenated in id order
    [starts   uint8   (E)]     1 on the first edge of each polygon

The meta JSON carries the id table, the broken-region reasons and the
repaired-id list, so a worker needs nothing but the segment name to
reconstruct sweep context.  Edge endpoints are stored as ``(x1, y1,
x2, y2)`` — *not* ``(dx, dy)`` — so the exact float64 vertex values of
:func:`repro.core.fast._edge_arrays` survive the round trip; the deltas
are derived on attach with the same ``x2 - x1`` subtraction the
per-pair kernel performs.  ``starts`` splits a region's edges into its
polygons, so the kernel's centre-of-``mbb`` test can take even-odd
parity per polygon, as Compute-CDR tests "whether the centre of
mbb(b) lies inside a polygon of a".

Exactness: :meth:`GeometryPlane.build` is the one place that decides
which regions the float64 kernel answers exactly like the per-pair row
path, and it decides one thing only — whether every coordinate is
float64-exact (a ``float``, or an ``int`` within ``±2**24``).  Such a
region is both a row and a column.  A region with a ``Fraction`` or a
larger ``int`` is neither: the plane would round it and compare and
multiply in float, where the row path uses the native values.  A
broken region (no usable geometry) is neither too.  Every pair the
sweep leaves at mask 0 is answered by the caller's row path instead.

Lifecycle contract: the creating parent *must* call :meth:`destroy`
(``close`` + ``unlink``) when the sweep ends — success, crash, deadline
expiry or ``KeyboardInterrupt`` alike — or the segment outlives the
process in ``/dev/shm``.  Workers only ever :meth:`attach` /
:meth:`close`; they deliberately skip the resource-tracker registration
(see :func:`_attach_untracked`) so a worker death cannot prematurely
unlink a segment the parent still owns (bpo-39959).
"""

from __future__ import annotations

import json
import struct
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.bbox import BoundingBox
from repro.geometry.point import Coordinate
from repro.geometry.region import Region
from repro.obs.events import emit as emit_event
from repro.resilience.faults import fault_point

__all__ = ["GeometryPlane"]

#: Largest ``int`` coordinate magnitude the plane sweep takes: products
#: and sums in the centre-in-region test stay below float64's 53-bit
#: mantissa, so float arithmetic matches the row path's exact ints.
_PLANE_INT_BOUND = 1 << 24

#: Section alignment inside the segment.
_ALIGN = 16

#: The meta-length header: one little-endian uint64.
_HEADER = struct.Struct("<Q")


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def _plane_exact(value: Coordinate) -> bool:
    """Whether the plane's float64 kernel handles a coordinate exactly."""
    if type(value) is float:
        return True
    return type(value) is int and abs(value) <= _PLANE_INT_BOUND


def _float64_exact(region: Region) -> bool:
    """Whether the plane sweeps the region (see the module docstring)."""
    return all(
        _plane_exact(vertex.x) and _plane_exact(vertex.y)
        for polygon in region.polygons
        for vertex in polygon.vertices
    )


def _region_edges(region: Region) -> Tuple[list, list, list, list, list]:
    """Edge endpoints as float lists — the loop of ``_edge_arrays``,
    keeping ``(x2, y2)`` instead of folding them into deltas — plus the
    per-edge polygon-start flags."""
    x1_list: list = []
    y1_list: list = []
    x2_list: list = []
    y2_list: list = []
    starts: list = []
    for polygon in region.polygons:
        vertices = polygon.vertices
        count = len(vertices)
        starts.extend([1] + [0] * (count - 1))
        for i in range(count):
            a, b = vertices[i], vertices[(i + 1) % count]
            x1_list.append(float(a.x))
            y1_list.append(float(a.y))
            x2_list.append(float(b.x))
            y2_list.append(float(b.y))
    return x1_list, y1_list, x2_list, y2_list, starts


class GeometryPlane:
    """A flattened configuration in one shared-memory segment.

    Build once in the parent (:meth:`build`), attach by name in workers
    (:meth:`attach`), address regions by row index everywhere.  The
    numpy attributes are zero-copy views over the segment.
    """

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        *,
        ids: Tuple[str, ...],
        broken: Dict[str, str],
        repaired: Tuple[str, ...],
        offsets: np.ndarray,
        boxes: np.ndarray,
        health: np.ndarray,
        x1: np.ndarray,
        y1: np.ndarray,
        x2: np.ndarray,
        y2: np.ndarray,
        starts: np.ndarray,
        owner: bool,
    ) -> None:
        self._segment = segment
        self.ids = ids
        self.broken = broken
        self.repaired = repaired
        self.offsets = offsets
        self.boxes = boxes
        self.health = health
        self.x1 = x1
        self.y1 = y1
        self.x2 = x2
        self.y2 = y2
        self.starts = starts
        self.owner = owner
        self._name = segment.name
        self._deltas: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._exact_regions: Optional[np.ndarray] = None
        self._closed = False
        self._unlinked = False

    # -- construction ------------------------------------------------

    @classmethod
    def build(
        cls,
        all_ids: Sequence[str],
        *,
        healthy: Mapping[str, Region],
        boxes: Mapping[str, BoundingBox],
        broken: Mapping[str, str],
        repaired: Sequence[str] = (),
    ) -> "GeometryPlane":
        """Flatten one configuration into a fresh shared segment.

        ``all_ids`` fixes the row order (it must cover every key of
        ``healthy`` and ``broken``).  A healthy region whose every
        coordinate is float64-exact gets ``health == 1`` and is swept as
        a row and as a column (see the module docstring); broken
        regions, and regions with an inexact coordinate, get zero edges,
        a NaN box and ``health == 0`` so the kernel skips them without
        any per-id lookups.  The caller owns the returned plane and must
        :meth:`destroy` it.
        """
        n = len(all_ids)
        offsets = np.zeros(n + 1, dtype=np.int64)
        box_rows = np.full((n, 4), np.nan, dtype=np.float64)
        health = np.zeros(n, dtype=np.uint8)
        x1_all: list = []
        y1_all: list = []
        x2_all: list = []
        y2_all: list = []
        starts_all: list = []
        for index, region_id in enumerate(all_ids):
            region = healthy.get(region_id)
            if region is None or not _float64_exact(region):
                offsets[index + 1] = offsets[index]
                continue
            x1_list, y1_list, x2_list, y2_list, starts = _region_edges(region)
            x1_all.extend(x1_list)
            y1_all.extend(y1_list)
            x2_all.extend(x2_list)
            y2_all.extend(y2_list)
            starts_all.extend(starts)
            offsets[index + 1] = offsets[index] + len(x1_list)
            box = boxes[region_id]
            box_rows[index] = (
                float(box.min_x),
                float(box.max_x),
                float(box.min_y),
                float(box.max_y),
            )
            health[index] = 1
        edge_count = int(offsets[-1])
        meta = json.dumps(
            {
                "version": 2,
                "n": n,
                "edges": edge_count,
                "ids": list(all_ids),
                "broken": dict(broken),
                "repaired": list(repaired),
            }
        ).encode("utf-8")

        sections = _section_layout(len(meta), n, edge_count)
        segment = shared_memory.SharedMemory(create=True, size=sections["total"])
        try:
            segment.buf[: _HEADER.size] = _HEADER.pack(len(meta))
            segment.buf[_HEADER.size : _HEADER.size + len(meta)] = meta
            views = _section_views(segment, sections, n, edge_count)
            views["offsets"][:] = offsets
            views["boxes"][:] = box_rows
            views["health"][:] = health
            views["x1"][:] = np.asarray(x1_all, dtype=np.float64)
            views["y1"][:] = np.asarray(y1_all, dtype=np.float64)
            views["x2"][:] = np.asarray(x2_all, dtype=np.float64)
            views["y2"][:] = np.asarray(y2_all, dtype=np.float64)
            views["starts"][:] = np.asarray(starts_all, dtype=np.uint8)
            emit_event(
                "plane.build",
                "info",
                name=segment.name,
                regions=n,
                edges=edge_count,
                bytes=sections["total"],
            )
            return cls(
                segment,
                ids=tuple(all_ids),
                broken=dict(broken),
                repaired=tuple(repaired),
                offsets=views["offsets"],
                boxes=views["boxes"],
                health=views["health"],
                x1=views["x1"],
                y1=views["y1"],
                x2=views["x2"],
                y2=views["y2"],
                starts=views["starts"],
                owner=True,
            )
        except BaseException:
            # A failure between shm creation and the constructor taking
            # ownership would leak a named /dev/shm segment for the life
            # of the machine.  unlink() frees the backing memory and is
            # never blocked by views; close() is best effort (a view
            # created above can pin the mapping until this frame dies).
            segment.unlink()
            try:
                segment.close()
            except BufferError:
                pass
            raise

    @classmethod
    def attach(cls, name: str, *, generation: int = 0) -> "GeometryPlane":
        """Attach to an existing plane by segment name (worker side).

        ``generation`` is the supervisor's pool rebuild counter — it
        reaches the ``plane.attach`` fault site so chaos tests can kill
        the first pool's initializers and assert the rebuilt generation
        recovers.  The attached plane is *not* the owner: closing it
        never unlinks the segment, and the worker's ``resource_tracker``
        registration is dropped so a dying worker cannot trigger an
        early unlink of a segment the parent still owns.
        """
        fault_point("plane.attach", name=name, generation=generation)
        segment = _attach_untracked(name)
        (meta_length,) = _HEADER.unpack_from(segment.buf, 0)
        meta = json.loads(bytes(segment.buf[_HEADER.size : _HEADER.size + meta_length]))
        n = int(meta["n"])
        edge_count = int(meta["edges"])
        sections = _section_layout(meta_length, n, edge_count)
        views = _section_views(segment, sections, n, edge_count)
        emit_event(
            "plane.attach",
            "debug",
            name=name,
            generation=generation,
            regions=n,
        )
        return cls(
            segment,
            ids=tuple(meta["ids"]),
            broken=dict(meta["broken"]),
            repaired=tuple(meta["repaired"]),
            offsets=views["offsets"],
            boxes=views["boxes"],
            health=views["health"],
            x1=views["x1"],
            y1=views["y1"],
            x2=views["x2"],
            y2=views["y2"],
            starts=views["starts"],
            owner=False,
        )

    # -- derived views ------------------------------------------------

    @property
    def name(self) -> str:
        """The segment name workers attach by."""
        return self._name

    @property
    def size(self) -> int:
        """Region (row) count, broken rows included."""
        return len(self.ids)

    @property
    def edge_count(self) -> int:
        return int(self.offsets[-1])

    def deltas(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(dx, dy)`` — derived lazily with the serial kernel's exact
        ``x2 - x1`` subtraction, cached per attachment."""
        if self._deltas is None:
            self._deltas = (self.x2 - self.x1, self.y2 - self.y1)
        return self._deltas

    def exact_regions(self) -> np.ndarray:
        """Indices of the regions the kernel sweeps, each both as a
        primary row and as a reference column."""
        if self._exact_regions is None:
            self._exact_regions = np.nonzero(self.health)[0]
        return self._exact_regions

    def edge_slice(self, row: int) -> Tuple[int, int]:
        """The ``[start, stop)`` edge-array range of one region row."""
        return int(self.offsets[row]), int(self.offsets[row + 1])

    # -- lifecycle ----------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (best effort).

        numpy views exported from the buffer can pin the mapping
        (``BufferError``); that only delays the munmap until the views
        are garbage collected — :meth:`unlink` is what frees the
        backing segment, and is never blocked by a lingering view.
        """
        if self._closed:
            return
        self._release_views()
        try:
            self._segment.close()
        except BufferError:  # pragma: no cover - exported views still alive
            return
        self._closed = True

    def unlink(self) -> None:
        """Free the backing segment (owner side; idempotent).

        Works whether or not :meth:`close` succeeded — ``shm_unlink``
        needs only the name, never the mapping.
        """
        if self._unlinked:
            return
        try:
            self._segment.unlink()
        except FileNotFoundError:
            pass
        self._unlinked = True

    def destroy(self) -> None:
        """``close`` + ``unlink`` — the owner's guaranteed teardown."""
        already_unlinked = self._unlinked
        self.close()
        self.unlink()
        if not already_unlinked:
            emit_event("plane.destroy", "debug", name=self._name)

    def _release_views(self) -> None:
        empty_f = np.empty(0, dtype=np.float64)
        self.offsets = np.empty(0, dtype=np.int64)
        self.boxes = np.empty((0, 4), dtype=np.float64)
        self.health = np.empty(0, dtype=np.uint8)
        self.x1 = self.y1 = self.x2 = self.y2 = empty_f
        self.starts = np.empty(0, dtype=np.uint8)
        self._deltas = None
        self._exact_regions = None


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment without a resource_tracker registration.

    ``SharedMemory(create=False)`` registers the segment with the
    process's resource tracker (bpo-39959), which is wrong for a
    non-owner: pool workers all share the parent's forked tracker, so N
    workers registering and unregistering one name leaves N-1 noisy
    unbalanced messages — and a dying worker could unlink a segment the
    parent still owns.  Python 3.13 grew ``track=False`` for exactly
    this; earlier versions get the same effect by suppressing the
    registration call for the duration of the constructor (single
    thread: pool initializers and chunk dispatch never race in one
    worker process).
    """
    try:
        return shared_memory.SharedMemory(name=name, create=False, track=False)  # type: ignore[call-arg]
    except TypeError:  # pre-3.13: no track= parameter
        pass
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
    try:
        return shared_memory.SharedMemory(name=name, create=False)
    finally:
        resource_tracker.register = original


def _section_layout(meta_length: int, n: int, edge_count: int) -> Dict[str, int]:
    """Byte offsets of every section for a given meta/row/edge count."""
    layout: Dict[str, int] = {}
    cursor = _aligned(_HEADER.size + meta_length)
    layout["offsets"] = cursor
    cursor = _aligned(cursor + (n + 1) * 8)
    layout["boxes"] = cursor
    cursor = _aligned(cursor + n * 4 * 8)
    layout["health"] = cursor
    cursor = _aligned(cursor + n)
    for section in ("x1", "y1", "x2", "y2"):
        layout[section] = cursor
        cursor = _aligned(cursor + edge_count * 8)
    layout["starts"] = cursor
    cursor = _aligned(cursor + edge_count)
    layout["total"] = max(cursor, 1)  # zero-region planes still need a byte
    return layout


def _section_views(
    segment: shared_memory.SharedMemory,
    sections: Dict[str, int],
    n: int,
    edge_count: int,
) -> Dict[str, np.ndarray]:
    buffer = segment.buf
    views = {
        "offsets": np.ndarray((n + 1,), dtype=np.int64, buffer=buffer, offset=sections["offsets"]),
        "boxes": np.ndarray((n, 4), dtype=np.float64, buffer=buffer, offset=sections["boxes"]),
        "health": np.ndarray((n,), dtype=np.uint8, buffer=buffer, offset=sections["health"]),
    }
    for section in ("x1", "y1", "x2", "y2"):
        views[section] = np.ndarray(
            (edge_count,), dtype=np.float64, buffer=buffer, offset=sections[section]
        )
    views["starts"] = np.ndarray(
        (edge_count,), dtype=np.uint8, buffer=buffer, offset=sections["starts"]
    )
    return views
