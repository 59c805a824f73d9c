"""The repository benchmark: three workloads, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload persist --seed 1 --seconds 25 --trace 0

It generates its inputs from ``--seed`` (:mod:`perfbench.gen`), drives
the program from ``src/`` through public API only, runs a closed loop
with one client for ``--seconds``, checks the outputs
(:mod:`perfbench.oracle`) and prints, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer
metrics, prints the layer table and writes the spans as JSONL under
``perfbench/out/``.  ``python3 perfbench/steady.py`` repeats runs over
seeds and reports each metric's median, quartiles and spread against
its bound.

Workloads (one seeded generator: 12-edge stars on a jittered grid,
colours cycling red/blue/green/black, 2 % defective rings, 2 % border
regions whose edge lies on or one ulp off a neighbour's mbb line):

=========  =====================================================  ====================================
workload   one iteration                                          why
=========  =====================================================  ====================================
persist    200 regions as CARDIRECT XML: configuration_from_xml   The paper's save path: cardirect.xmlio
           (lenient) -> RelationStore(engine="sweep") ->          and the store's serial per-row
           configuration_to_xml(store=...) writing every          refresh; no plane, pool or query, so
           ordered pair                                           a plane-pool or query change leaves
                                                                  it unchanged.
batch      200 in-memory regions (defective ones constructible    The fault-isolated bulk path:
           bowties): batch_relations(engine="sweep",              validate/repair, plane, sweep kernel
           workers=2, validate=True, repair=True), cold,          (Compute-CDR and Compute-CDR%) and
           qualitative then percentages=True                      batch supervision and assembly; no
                                                                  XML, store or query.
session    a warm 300-region RelationStore(engine="sweep") (full  Reads beside writes on one store and
           matrix and index built in set-up); a round is the      index: a change that speeds queries
           four query templates in seeded order, each followed    but slows row/column maintenance
           by one edit (update_region + refresh_matrix)           shows in pairs_per_s, the reverse in
                                                                  op_p50_ms.  No XML or plane work.
=========  =====================================================  ====================================

Query templates (equal shares, seeded anchor ``gK``): ``thematic_dir``
``color(a) = red and color(b) = blue and a {N, NW:N, N:NE, NW:N:NE} b``;
``anchored_dir`` ``a = gK and a {N, NE, N:NE} b`` (selective, index);
``anchored_chain`` ``a = gK and a {N, NW:N, N:NE} b and b {N, NW:N,
N:NE} c and color(c) = green``; ``pct`` ``color(a) = red and a {B:N,
N:NE, B:N:NE} b and pct(a, b, N) >= 50`` (Compute-CDR% through
``store.percentages``).  An edit moves a plain region by a small seeded
offset or reshapes it with a fresh star.

End-to-end metrics - every workload reports each one, so each has one
meaning per workload.  The three timing metrics are scaled to one
machine speed: every half second the run also times a fixed
benchmark-owned loop (``workloads.reference_work``, no program code)
and divides its times by that loop's median over ``REFERENCE_S``;
``setup_s`` is scaled the same way by reference samples taken beside
each import and state build.  The shared 2-vCPU box this was built on
changes speed by up to 2x within minutes, for every process alike; the
scaling cancels that, not any change to the program.  The ``machine:``
line prints the factors and the timings as taken.

================  ==========  =================================  ==============================  ==============================
metric            unit        persist                            batch                           session
================  ==========  =================================  ==============================  ==============================
setup_s           s, lower    fresh-interpreter import (median   import (median of 9) + build    import (median of 9) + opening
                              of 9)                              of the in-memory                the document: parse, full
                                                                 configuration (median of 5)     matrix, index (median of 5)
pairs_per_s       pairs/s,    n(n-1) / median save               n(n-1) / median qualitative     2(n-1) / median edit (pairs
                  higher      (configuration_to_xml incl. the    call                            recomputed by row + column
                              store's full refresh)                                              maintenance)
op_p50_ms         ms, lower   median load (configuration_from_   median percentages call         median round of the four
                              xml + RelationStore)                                               queries (parse + evaluate)
peak_rss_mb       MB, lower   peak RSS of this fresh process after the timed loop, before the checks
ok_share          fraction,   operations (persist, session) or pair outcomes (batch) that ended OK or REPAIRED, over those
                  higher      attempted: 1 - failed_share, so it is never 0
agree_share       fraction,   verified answers equal to the exact oracle's: 1 - wrong_share, so it is never 0
                  higher
================  ==========  =================================  ==============================  ==============================

Per-layer metrics (``--trace 1``), the layer they time and the
end-to-end metric each should move:

==========================  =================================================  =======================  ================
layer (module)              per-layer metrics                                  should move              on workload
==========================  =================================================  =======================  ================
cardirect.xmlio             xmlio.parse_s, xmlio.write_s (matrix already       pairs_per_s, op_p50_ms   persist
                            complete), xmlio.bytes_in, xmlio.bytes_out,
                            xmlio.relations_written
core.validate,              validate.s, repair.s, repair.regions_repaired,     pairs_per_s, op_p50_ms,  batch, persist
geometry.repair             repair.regions_broken                              ok_share
core.plane                  plane.build_s, plane.bytes                         pairs_per_s              batch
core.sweep                  sweep.kernel_s, sweep.kernel_pct_s (serial         pairs_per_s, op_p50_ms,  batch, persist
                            sweep_plane over every row), sweep.pairs_pruned,   agree_share
                            sweep.pairs_broadcast, sweep.prune_ratio
core.batch                  batch.wall_s, batch.pct_wall_s,                    pairs_per_s, op_p50_ms   batch
                            batch.outside_kernel_s (wall - plane build -
                            kernel/workers), batch.kernel_share,
                            batch.worker_failures, batch.chunk_retries,
                            batch.inline_chunks
core.engine                 engine.relation_calls, engine.percentages_calls,   pairs_per_s, op_p50_ms   persist, session
                            engine.relation_s, engine.percentages_s,
                            engine.edge_cache_hits, engine.cache_assists
cardirect.store             store.refresh_full_s, store.update_s,              pairs_per_s; setup_s     persist; session
                            store.refresh_dirty_s,
                            store.pairs_recomputed_per_edit, store.hit_ratio
core.index                  index.build_s, index.candidates, index.rejected,   op_p50_ms, setup_s       session
                            index.definite
cardirect.parser            parser.parse_ms                                    op_p50_ms                session
cardirect.query             query.ms.<template>, query.scan_ms.<template>      op_p50_ms                session
                            (same query, use_index=False),
                            query.clause_checks, session.query_p50_ms,
                            session.query_p90_ms, session.edit_p50_ms,
                            session.edit_p90_ms
inputs                      input.defective_share, input.border_share          none: the measured       all
                                                                               input properties
tracing itself              trace.overhead (traced / untraced wall of the      none: they guard the     all
                            same operations), layers.unattributed_share        instrument
==========================  =================================================  =======================  ================

A layer a workload never calls reads 0.  Traced iterations alternate
with untraced ones in the same run; only traced iterations install the
``repro.obs`` metrics registry, to read the ``repro_query_index_*``,
clause-check and store hit/miss counters.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
from multiprocessing import resource_tracker
import sys
import traceback
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SIZES = {"persist": 200, "batch": 200, "session": 300}
#: Share of the iterations' wall time the layer spans must cover on the
#: workloads whose layers are sequential public calls.
UNATTRIBUTED_LIMIT = {"persist": 0.10, "session": 0.10}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    from perfbench import gen, oracle, spans
    from perfbench.workloads import WORKLOADS

    inputs = gen.generate(SIZES[args.workload], args.seed)
    trace = bool(args.trace)
    correct = True
    try:
        outcome = WORKLOADS[args.workload](inputs, args.seconds, str(src), trace)
    except Exception as error:  # a failed check or a program crash: not trusted
        kind = "check failed" if isinstance(error, oracle.CheckFailed) else "run failed"
        traceback.print_exc()
        print(f"{kind}: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        _stop_children()
    declared = {kind: _declared(kind) for kind in ("end_to_end", "per_layer")}
    unknown = set(outcome.metrics) - set(declared["end_to_end"]) - set(declared["per_layer"])
    missing = set(declared["end_to_end"]) - set(outcome.metrics)
    if unknown or missing:
        print(
            f"perfbench: metrics not in BENCHMARK.json: {sorted(unknown)}; "
            f"end-to-end metrics not measured: {sorted(missing)}",
            file=sys.stderr,
        )
        return 2
    for line in outcome.info:
        print(line)
    if trace:
        recorder = outcome.spans
        table = spans.layer_table(recorder.spans)
        share = spans.unattributed_share(recorder.spans)
        outcome.put("layers.unattributed_share", share)
        print(spans.render(table))
        limit = UNATTRIBUTED_LIMIT.get(args.workload)
        if limit is not None and share > limit:
            correct = False
            print(f"layer accounting: unattributed share {share:.1%} exceeds {limit:.0%}")
        if args.workload == "batch":
            print(f"batch.kernel_share {outcome.metrics['batch.kernel_share']:.3f}")
        print(f"trace.overhead {outcome.metrics['trace.overhead']:.3f}")
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"{args.workload}-seed{args.seed}-spans.jsonl"
        recorder.export_jsonl(str(path))
        print(f"spans: {path.relative_to(ROOT)} ({len(recorder.spans)} spans)")
        units = declared["per_layer"]
    else:
        units = declared["end_to_end"]
    metrics = {}
    for name, unit in units.items():
        # A layer this workload never calls reads 0.
        value = outcome.metrics.get(name, 0.0)
        print(f"metric {name} = {value:.6g} {unit} (n={outcome.samples.get(name, 0)})")
        if not math.isfinite(value):
            correct = False
        metrics[name] = {"value": value, "unit": unit}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def _stop_children() -> None:
    """Stop every process the workload left and wait for each to end.

    Pool workers are joined (and terminated if one hangs).  The first
    ``SharedMemory`` segment a ``batch`` run creates starts
    multiprocessing's resource tracker, a separate process that would
    otherwise outlive this one; it is stopped and reaped here.
    """
    for child in multiprocessing.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.terminate()
            child.join()
    resource_tracker._resource_tracker._stop()  # a no-op when it never started


def _declared(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the metrics ``BENCHMARK.json`` lists under ``kind``.

    ``BENCHMARK.json`` is the one place metric units and directions live.
    """
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


if __name__ == "__main__":
    sys.exit(main())
