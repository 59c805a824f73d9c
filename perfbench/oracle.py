"""Correctness oracle: answers checked against the ``exact`` engine.

The verified set is every row of each border region and of its
neighbour, plus seeded random rows.  Each verified answer is recomputed
by ``engine="exact"`` on the geometry the program held, outside the
timed region; disagreements are counted, not fatal, and feed
``agree_share``.  The structural checks below are fatal: they raise
:class:`CheckFailed` and the run reports ``correct: false``.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from perfbench.gen import Inputs

#: Percentage points two matrices may differ by and still agree.
PCT_TOLERANCE = 1e-6
#: Seeded random rows verified beside the border rows.
EXTRA_ROWS = 10


class CheckFailed(AssertionError):
    """A structural check failed; the run's outputs are not trusted."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def verified_rows(inputs: Inputs) -> List[int]:
    """Border rows, their neighbours' rows, and :data:`EXTRA_ROWS` rows seeded by the input seed."""
    rows = set()
    for index, (neighbour, _variant) in inputs.border.items():
        rows.update((index, neighbour))
    others = [index for index in range(inputs.n) if index not in rows]
    rows.update(random.Random(inputs.seed).sample(others, min(EXTRA_ROWS, len(others))))
    return sorted(rows)


class Tally:
    """Verified and wrong answer counts, with a few examples."""

    def __init__(self) -> None:
        self.verified = 0
        self.wrong = 0
        self.examples: List[str] = []

    def record(self, ok: bool, example: str) -> None:
        self.verified += 1
        if not ok:
            self.wrong += 1
            if len(self.examples) < 5:
                self.examples.append(example)

    @property
    def agree_share(self) -> float:
        return 1.0 - self.wrong / self.verified if self.verified else 1.0


def check_relations(
    tally: Tally,
    answer: Callable[[str, str], object],
    regions: Mapping[str, object],
    ids: Sequence[str],
    rows: Iterable[str],
) -> None:
    """Count ``answer(p, q)`` against ``exact`` for every ``q`` of each row ``p``.

    A pair ``answer`` returns ``None`` for - one the program did not
    answer, already counted as failed - is skipped.
    """
    from repro.core.engine import create_engine

    exact = create_engine("exact")
    boxes = {region_id: regions[region_id].bounding_box() for region_id in ids}
    for primary_id in rows:
        primary = regions[primary_id]
        for reference_id in ids:
            if reference_id == primary_id:
                continue
            got = answer(primary_id, reference_id)
            if got is None:
                continue
            want = exact.relation(primary, boxes[reference_id])
            tally.record(
                got == want, f"{primary_id} {got} {reference_id} (exact: {want})"
            )


def check_percentage_rows(
    tally: Tally,
    answer: Callable[[str, str], object],
    regions: Mapping[str, object],
    ids: Sequence[str],
    rows: Iterable[str],
) -> None:
    """Count percentage matrices against ``exact`` within :data:`PCT_TOLERANCE`.

    Unanswered pairs (``None``) are skipped, as in :func:`check_relations`.
    """
    from repro.core.engine import create_engine

    exact = create_engine("exact")
    boxes = {region_id: regions[region_id].bounding_box() for region_id in ids}
    for primary_id in rows:
        primary = regions[primary_id]
        for reference_id in ids:
            if reference_id == primary_id:
                continue
            got = answer(primary_id, reference_id)
            if got is None:
                continue
            want = exact.percentages(primary, boxes[reference_id])
            tally.record(
                got.is_close_to(want, PCT_TOLERANCE),
                f"pct({primary_id}, {reference_id}) {got!r} (exact: {want!r})",
            )


def check_percentage_matrix(matrix, relation, where: str) -> None:
    """A percentage matrix sums to 100 and its non-zero tiles are ``relation``.

    "Non-zero" allows float residue: Compute-CDR% over float64
    coordinates - the exact engine's included - leaves shares of order
    1e-14 points in tiles the region does not enter, so a tile above
    :data:`PCT_TOLERANCE` must be in ``relation``, and every tile of
    ``relation`` must hold a positive share.
    """
    from repro.core.tiles import Tile

    total = sum(float(matrix[tile]) for tile in Tile)
    require(abs(total - 100.0) <= 100.0 * PCT_TOLERANCE, f"{where}: percentages sum to {total!r}")
    above = {tile for tile in Tile if matrix[tile] > PCT_TOLERANCE}
    positive = {tile for tile in Tile if matrix[tile] > 0}
    require(
        above <= relation.tiles <= positive,
        f"{where}: shares {matrix!r} do not match relation {relation}",
    )


def check_pair_count(count: int, n: int, where: str) -> None:
    require(count == n * (n - 1), f"{where}: {count} pairs, expected n(n-1) = {n * (n - 1)}")


def invalid_ids(regions: Mapping[str, object]) -> List[str]:
    """Regions ``validate_region`` reports an error for."""
    from repro.core.validate import ERROR, validate_region

    return [
        region_id
        for region_id, region in regions.items()
        if any(issue.severity == ERROR for issue in validate_region(region, region_id=region_id))
    ]


def repair_in_place(regions: Dict[str, object], invalid: Iterable[str]) -> Dict[str, str]:
    """Repair each invalid region as a repairing batch does; return the broken ones.

    A region still invalid after ``repair_region`` is broken and leaves
    ``regions``, like one ``repair_region`` rejects outright.
    """
    from repro.errors import GeometryError
    from repro.geometry.repair import repair_region

    broken: Dict[str, str] = {}
    for region_id in invalid:
        try:
            repaired, _report = repair_region(regions[region_id], mode="repair", region_id=region_id)
        except GeometryError as error:
            broken[region_id] = str(error)
        else:
            residual = invalid_ids({region_id: repaired})
            if not residual:
                regions[region_id] = repaired
                continue
            broken[region_id] = "still invalid after repair"
        del regions[region_id]
    return broken


def healthy_regions(configuration) -> Tuple[Dict[str, object], Dict[str, str]]:
    """The geometry a validating, repairing batch sweeps: ``(healthy, broken)``."""
    healthy = {annotated.id: annotated.region for annotated in configuration}
    broken = repair_in_place(healthy, invalid_ids(healthy))
    return healthy, broken


def same_rows(indexed: List[Tuple[str, ...]], scanned: List[Tuple[str, ...]], query: str) -> None:
    require(
        sorted(indexed) == sorted(scanned),
        f"indexed and scanned rows differ for {query!r}: "
        f"{len(indexed)} vs {len(scanned)} rows",
    )


def matrix_of(store) -> Dict[Tuple[str, str], object]:
    return {(p, q): r for p, q, r in store.all_relations()}


def first_difference(
    left: Mapping[Tuple[str, str], object], right: Mapping[Tuple[str, str], object]
) -> Optional[str]:
    if left.keys() != right.keys():
        return f"{len(left)} vs {len(right)} pairs"
    for key, value in left.items():
        if right[key] != value:
            return f"{key}: {value} vs {right[key]}"
    return None
