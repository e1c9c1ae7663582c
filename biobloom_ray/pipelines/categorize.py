"""biobloomcategorizer analogue: stream a Dataset through a broadcast
filter bank, appending label / score columns; optional partitioned write
and reference-shaped summary table (SURVEY.md §3.2).
"""

from __future__ import annotations

from biobloom_ray.io import read_parquet as _rp
import ray
import ray.data

from biobloom_ray.config import CategorizeConfig
from biobloom_ray.sketches.bloom import BloomFilter
from biobloom_ray.stages.categorize import (
    CategorizerActor,
    PairedCategorizerActor,
    broadcast_bank,
    summary_table,
)


def categorize(
    ds: "ray.data.Dataset",
    bank: "list[BloomFilter] | ray.ObjectRef",
    cfg: CategorizeConfig | None = None,
    text_col: str = "text",
    text_col2: str | None = None,
    subtract: BloomFilter | None = None,
    normalize: bool = True,
) -> "ray.data.Dataset":
    """Lazy labeled dataset: input columns + label/hit_mask/score[/scores].

    The bank is ``ray.put`` once (one plasma copy per node); the actor
    pool (`concurrency` from cfg) deserializes nothing per batch (T1).
    """
    cfg = cfg or CategorizeConfig()
    bank_ref = bank if isinstance(bank, ray.ObjectRef) else broadcast_bank(bank)
    sub_ref = ray.put(subtract) if subtract is not None else None
    if cfg.use_actors:
        # explicit actor pool (T1): pays one process + import per actor —
        # worth it only for very expensive per-actor state
        cls = PairedCategorizerActor if text_col2 else CategorizerActor
        kwargs = dict(bank_ref=bank_ref, cfg=cfg, text_col=text_col,
                      subtract_ref=sub_ref, normalize=normalize)
        if text_col2:
            kwargs["text_col2"] = text_col2
        return ds.map_batches(
            cls,
            fn_constructor_kwargs=kwargs,
            batch_format="pyarrow",
            batch_size=cfg.batch_size,
            concurrency=cfg.concurrency or (2, 8),
            num_cpus=1,
        )
    # default: stateless tasks on the prestarted worker pool; categorizer
    # state is rebuilt once per worker from the broadcast ref and cached
    # (see stages/categorize._WORKER_CACHE)
    from biobloom_ray.stages.categorize import make_categorizer_fn

    fn = make_categorizer_fn(bank_ref, cfg, text_col=text_col,
                             text_col2=text_col2, subtract_ref=sub_ref,
                             normalize=normalize)
    return ds.map_batches(fn, batch_format="pyarrow",
                          batch_size=cfg.batch_size, num_cpus=1)


def categorize_with_summary(
    ds: "ray.data.Dataset",
    bank: "list[BloomFilter]",
    cfg: CategorizeConfig | None = None,
    out_dir: str | None = None,
    **kw,
):
    """Categorize + the two reference sinks: per-category partitioned
    parquet (S5 — one directory per label instead of F+2 mutexed file
    handles) and the summary table (S8).  Returns (labeled_ds_or_None,
    summary_df)."""
    labeled = categorize(ds, bank, cfg, **kw)
    fids = [bf.filter_id for bf in bank]
    if out_dir is not None:
        # stream to the partitioned sink, then compute the summary from a
        # column-pruned read-back — never materialize the full stream.
        # min_rows_per_file coalesces output so a label partition isn't a
        # thousand tiny files (write throughput + downstream read cost)
        labeled.write_parquet(out_dir, partition_cols=["label"],
                              min_rows_per_file=200_000)
        stats_ds = _rp(out_dir, columns=["label", "hit_mask"])
        summary = summary_table(stats_ds, fids)
        return None, summary
    summary = summary_table(labeled, fids)
    return labeled, summary
