"""Table 1 — dataset information, plus the full evaluation grid.

Regenerates the paper's dataset table straight from the **dataset
registry** (the generators' recorded metadata) and benchmarks
synthetic-field generation throughput (our substitution for reading
the archives from disk).

The paper's comparison tables sweep every codec over every dataset;
this bench drives exactly that grid — ``list_datasets() x
list_codecs()`` — through the shard planner and the execution engine,
so the table the other benches refine is produced by the same
registry/planner/executor machinery production sweeps use (no
hand-instantiated datasets, no hand-picked codec imports).
"""

import numpy as np

from repro.bound import Bound
from repro.codecs import codec_specs, get_codec, list_codecs
from repro.data import dataset_entries, get_dataset_spec, list_datasets
from repro.pipeline.engine import CodecEngine
from repro.pipeline.plan import plan_shards

from .conftest import save_json

#: small-but-representative grid workload (per dataset, one variable)
GRID_T, GRID_H, GRID_W = 12, 16, 16
REL_BOUND = 2e-2


def test_table1_dataset_information(benchmark):
    rows = []
    for key in list_datasets():
        info = dataset_entries()[key].cls.info
        rows.append({
            "application": info.name,
            "domain": info.domain,
            "dimensions": "x".join(str(d) for d in info.paper_shape),
            "total_size_gb_paper": info.paper_size_gb,
            "total_size_gb_computed": round(info.computed_size_gb(), 1),
        })

    print("\nTable 1: Datasets Information")
    print(f"{'Application':>12} | {'Domain':>11} | {'Dimensions':>20} | "
          f"{'Size (paper)':>12} | {'Size (shape)':>12}")
    for r in rows:
        print(f"{r['application']:>12} | {r['domain']:>11} | "
              f"{r['dimensions']:>20} | {r['total_size_gb_paper']:>10.1f}GB"
              f" | {r['total_size_gb_computed']:>10.1f}GB")
    # the method inventory (from the codec registry) alongside the
    # dataset inventory: one comparison grid, no hand-picked imports
    methods = []
    for name in list_codecs():
        codec = get_codec(name)
        methods.append({"codec": name, "label": codec.label,
                        "bound_kind": codec.capabilities.bound_kind,
                        "learned": codec.capabilities.learned,
                        "class": codec_specs()[name].cls.__name__})
    print(f"\nComparison grid: {len(rows)} datasets x "
          f"{len(methods)} registered codecs")
    save_json("table1_datasets", {"datasets": rows, "codecs": methods})

    # published sizes agree with the published shapes
    for r in rows:
        assert abs(r["total_size_gb_paper"] - r["total_size_gb_computed"]) \
            <= 0.02 * r["total_size_gb_paper"]

    # the paper's comparison set is fully covered by the registry
    labels = {m["label"] for m in methods}
    assert {"SZ3-like", "ZFP-like", "TTHRESH-like", "MGARD-like", "DPCM",
            "FAZ-like", "CDC-eps", "CDC-X", "GCD", "VAE-SR",
            "Ours"} <= labels

    # benchmark: generation throughput of one E3SM-like variable
    spec = get_dataset_spec("e3sm", t=8, h=32, w=32, seed=0)
    result = benchmark(lambda: spec.build().frames(0))
    assert result.shape == (8, 32, 32)


def test_dataset_codec_grid_through_planner():
    """Every (dataset, codec) cell compresses through plan + engine."""
    grid = {}
    engine_cache = {}
    for ds_name in list_datasets():
        spec = get_dataset_spec(ds_name, t=GRID_T, h=GRID_H, w=GRID_W,
                                seed=0)
        for codec_name in list_codecs():
            codec = engine_cache.setdefault(codec_name,
                                            get_codec(codec_name))
            # learned codecs need >= one diffusion window per shard
            shards = 2 if GRID_T // 2 >= codec.min_frames else 1
            plan = plan_shards(spec, variables=[0], shards=shards)
            engine = CodecEngine(codec, executor="serial")
            if codec.capabilities.bound_kind == "l2":
                # untrained learned codecs have no corrector: unbounded
                batch = engine.compress_plan(plan,
                                             keep_reconstruction=False)
            else:
                batch = engine.compress_plan(plan,
                                             bound=Bound.nrmse(REL_BOUND),
                                             keep_reconstruction=False)
                assert batch.worst_nrmse() <= REL_BOUND * (1 + 1e-9), \
                    (ds_name, codec_name)
            acc = batch.accounting()
            grid[f"{ds_name}/{codec_name}"] = {
                "shards": len(plan),
                "ratio": round(float(acc.ratio), 3),
                "worst_nrmse": round(float(batch.worst_nrmse()), 6),
                "payload_bytes": int(acc.compressed_bytes),
            }

    assert len(grid) == len(list_datasets()) * len(list_codecs())

    print(f"\n{'cell':22s} {'shards':>6s} {'ratio':>8s} {'nrmse':>10s}")
    for cell, r in grid.items():
        print(f"{cell:22s} {r['shards']:6d} {r['ratio']:8.2f} "
              f"{r['worst_nrmse']:10.6f}")
    save_json("table1_grid", {
        "workload": f"{GRID_T}x{GRID_H}x{GRID_W}", "rel_bound": REL_BOUND,
        "grid": grid})
