"""perfcode benchmark: one workload per run, one JSON result line at the end.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-96 --seed 1 --seconds 35 --trace 0

The run repeats whole passes for about ``--seconds``: it starts another pass
while at least half of one still fits.  Before each
pass it empties every perfcode module cache and sets the workload's inputs
up afresh, a few times over (``setup_s`` is the median of all set-ups), so
each pass starts as a fresh process would and runs on objects no cache has
seen.  With ``--trace 0`` the last line of standard output carries
the end-to-end metrics; with ``--trace 1`` perfcode's public functions are
wrapped (see tracer.py) and it carries the per-layer metrics instead.  Both
runs also write everything they measured under ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
MIN_TAIL_BEYOND = 10

# (name, unit, stats field, tracer key); see layer_metrics for the kinds.
LAYER_METRICS = (
    ("group.from_table_ms", "ms", "busy", "group.from_table"),
    ("group.load_group_ms", "ms", "busy", "group.load_group"),
    ("group.closure_calls", "count", "counts", "group.closure"),
    ("group.subgroup_as_group_calls", "count", "counts", "group.subgroup_as_group"),
    ("subgroups.all_subgroups_ms", "ms", "busy", "subgroups.all_subgroups"),
    ("subgroups.lattice_closures", "count", "counts", "subgroups.lattice_closures"),
    ("subgroups.lattice_yield", "ratio", "yield", None),
    ("subgroups.minimal_conjugate_ms", "ms", "busy", "subgroups.minimal_conjugate"),
    ("subgroups.coset_decomposition_ms", "ms", "busy", "subgroups.coset_decomposition"),
    ("subgroups.normalizer_ms", "ms", "busy", "subgroups.normalizer"),
    ("subgroups.sylow_2_subgroup_ms", "ms", "busy", "subgroups.sylow_2_subgroup"),
    ("subgroups.cache_hits", "count", "cache", "hits"),
    ("subgroups.cache_misses", "count", "cache", "misses"),
    ("subgroups.cache_entries", "count", "cache", "currsize"),
    ("codes.transversal_ms", "ms", "busy", "codes.transversal"),
    ("codes.transversal_calls", "count", "calls", "codes.transversal"),
    ("codes.transversal_found", "count", "counts", "codes.transversal_found"),
    ("codes.transversal_max_ms", "ms", "max_time", "codes.transversal"),
    ("codes.coset_lookups", "count", "counts", "codes.coset_lookups"),
    ("codes.decide_ms", "ms", "busy", "codes.decide"),
    ("codes.square_coset_ms", "ms", "busy", "codes.square_coset"),
    ("codes.double_coset_ms", "ms", "busy", "codes.double_coset"),
    ("codes.omega_ms", "ms", "busy", "codes.omega"),
    ("codes.sylow_reduction_ms", "ms", "busy", "codes.sylow_reduction"),
    ("codes.graph_check_ms", "ms", "busy", "codes.graph_check"),
    ("extraspecial.classify_ms", "ms", "busy", "extraspecial.classify"),
    ("extraspecial.classify_sylow_ms", "ms", "busy", "extraspecial.classify_sylow"),
    ("extraspecial.is_extraspecial_calls", "count", "counts", "extraspecial.is_extraspecial"),
    ("corpus.cross_check_self_ms", "ms", "self_time", "corpus.cross_check"),
    ("corpus.report_emit_ms", "ms", "busy", "corpus.report_emit"),
    ("corpus.make_entry_ms", "ms", "busy", "corpus.make_entry"),
    ("cli.main_self_ms", "ms", "self_time", "cli.main"),
    ("construct.build_ms", "ms", "busy", "construct.build"),
)


def import_perfcode():
    """Import perfcode from this checkout's ``src``, and nothing else."""
    src = ROOT / "src"
    if not (src / "perfcode" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no perfcode sources under {src}")
    sys.path.insert(0, str(src))
    import perfcode

    if Path(perfcode.__file__).resolve().parent != (src / "perfcode").resolve():
        raise SystemExit(f"perfbench: imported perfcode from {perfcode.__file__}, not {src}")


def nearest_rank(values: list[float], percentile: int) -> float:
    """The nearest-rank percentile; it must leave MIN_TAIL_BEYOND samples above."""
    ordered = sorted(values)
    rank = math.ceil(percentile / 100 * len(ordered))
    if len(ordered) - rank < MIN_TAIL_BEYOND:
        raise RuntimeError(
            f"p{percentile} of {len(ordered)} samples has fewer than {MIN_TAIL_BEYOND} beyond it"
        )
    return ordered[rank - 1]


def layer_metrics(setup_stats, pass_stats, cache_stats) -> dict[str, float]:
    """Per-layer figures for one pass, including one set-up of its inputs.

    Sums are averaged over the set-ups and over the passes separately and
    then added; maxima are taken over both; cache figures are the median
    over passes of the counters read just before each pass's caches are
    emptied.
    """
    def mean(stats, field, key):
        return statistics.fmean(getattr(s, field)[key] for s in stats)

    def per_pass(field, key):
        return mean(setup_stats, field, key) + mean(pass_stats, field, key)

    out = {}
    for name, unit, field, key in LAYER_METRICS:
        if field == "yield":
            closures = per_pass("counts", "subgroups.lattice_closures")
            found = per_pass("counts", "subgroups.lattice_subgroups")
            value = found / closures if closures else 0.0
        elif field == "cache":
            value = statistics.median(c[key] for c in cache_stats)
        elif field == "max_time":
            value = 1000.0 * max(s.max_time[key] for s in setup_stats + pass_stats)
        else:
            value = per_pass(field, key)
            if unit == "ms":
                value *= 1000.0
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_perfcode()
    from tracer import Tracer, find_caches
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    caches = find_caches()
    subgroup_caches = [c for name, c in caches.items() if name.startswith("perfcode.subgroups.")]
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workdir = WORK / workload.name

    def clear_caches():
        for cached in caches.values():
            cached.cache_clear()

    setup_s, setup_stats = [], []
    passes, pass_stats, cache_stats = [], [], []
    loop_start, last_pass_s = perf_counter(), 0.0
    # Start another pass while at least half of one still fits in --seconds,
    # so a run ends within half a pass of it.
    while len(passes) < workload.min_passes or (
        perf_counter() - loop_start + last_pass_s / 2 < args.seconds
    ):
        pass_start = perf_counter()
        # Every pass gets inputs of its own, built after the caches are
        # emptied; repeated set-ups spread the setup_s samples over the run.
        for _ in range(workload.setup_reps):
            clear_caches()
            start = perf_counter()
            inputs = workload.setup(args.seed, workdir)
            setup_s.append(perf_counter() - start)
            if tracer:
                setup_stats.append(tracer.take())
        passes.append(workload.run_pass(inputs))
        last_pass_s = perf_counter() - pass_start
        if tracer:
            pass_stats.append(tracer.take())
            infos = [c.cache_info() for c in subgroup_caches]
            cache_stats.append({
                field: sum(getattr(i, field) for i in infos)
                for field in ("hits", "misses", "currsize")
            })

    op_ms = [ms for p in passes for ms in p.op_ms]
    errors = [e for p in passes for e in p.errors]
    attempted = len(op_ms)
    failed = sum(p.failed for p in passes)
    end_to_end = {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "ops_per_s": {"value": attempted / sum(p.wall_s for p in passes), "unit": "1/s"},
        "op_ms_p50": {"value": statistics.median(op_ms), "unit": "ms"},
        "op_ms_tail": {"value": nearest_rank(op_ms, workload.tail_percentile), "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }
    per_layer = layer_metrics(setup_stats, pass_stats, cache_stats) if tracer else {}
    result = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": per_layer if tracer else end_to_end,
    }

    WORK.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": len(passes),
        "pass_ops_per_s": [len(p.op_ms) / p.wall_s for p in passes],
        "tail_percentile": workload.tail_percentile,
        "setup_s": setup_s,
        "errors": errors[:100],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "result": result,
    }
    (WORK / f"result-{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer:
        trace = {
            "fields": ["id", "parent", "key", "start_s", "end_s"],
            "spans": tracer.spans,
            "spans_dropped": tracer.spans_dropped,
        }
        (WORK / f"trace-{stem}.json").write_text(json.dumps(trace), encoding="utf-8")
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
