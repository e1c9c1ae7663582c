"""biobloommaker analogue: build mergeable Bloom filters from a Dataset.

Pipeline shape (SURVEY.md §3.1):
    read → [pre-pass: Σ(len−k+1) per filter_id]        (A1, driver fold)
         → map_batches(PartialBloomBuilder)            (partial per block)
         → fold_partials by filter_id                  (streamed, no shuffle)
         → artifacts + info sidecars

The input is any Ray Dataset with a text column; ``label_col`` selects
which filter each row feeds (one filter per distinct label, built in a
single pass — the multi-`-f` maker).  ``label_col=None`` builds one
filter named ``filter_id``.
"""

from __future__ import annotations

import pyarrow as pa
import ray
import ray.data

from biobloom_ray.config import BuildConfig
from biobloom_ray.sketches.fold import fold_partials, fold_table
from biobloom_ray.stages.build import (
    PARTIAL_SKETCHES,
    PartialBloomBuilder,
    compute_sizes,
    expected_entries_batch,
)


def expected_entries(ds: "ray.data.Dataset", text_col: str, k: int,
                     label_col: str | None = None,
                     normalize: bool = True) -> dict[str, int]:
    """Pre-pass (A1, ``BloomFilterGenerator.h:108-141``): total shingle
    frames per filter id, counted on the same normalized-UTF-8-byte
    representation the builder hashes.  Column-pruned read + per-block
    partial sums, folded on the driver (one row per (block, label)).  A
    null label raises ``ValueError``."""
    cols = [text_col] + ([label_col] if label_col else [])
    partials = (ds.select_columns(cols)
                .map_batches(lambda b: expected_entries_batch(
                    b, text_col, k, label_col, normalize=normalize),
                             batch_format="pyarrow"))
    return {fid: r["frames"] for fid, r in fold_partials(
        partials, {}, key="filter_id", sums=("frames",)).items()}


def build_filters(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    label_col: str | None = None,
    cfg: BuildConfig | None = None,
    filter_id: str = "__all__",
    normalize: bool = True,
    with_hll: bool = True,
) -> dict[str, dict]:
    """Build one Bloom filter per label (or a single one).

    Returns ``{filter_id: {"filter": BloomFilter, "hll": HLL | None,
    "expected_entries": int}}``, sorted by filter_id.  The final filters
    are small (sized to the reference corpora, not the stream) so they
    come back to the driver for broadcast; at 100 TB the *input* streams
    through blocks and only blobs move.  ``label_col=None`` always
    returns the one filter, empty for an empty reference; a null label
    raises ``ValueError``.
    """
    cfg = cfg or BuildConfig()
    if label_col is None:
        n = cfg.expected_entries or expected_entries(
            ds, text_col, cfg.kmer_size, normalize=normalize).get("__all__", 0)
        expected = {filter_id: n}
    else:
        expected = expected_entries(ds, text_col, cfg.kmer_size, label_col,
                                    normalize=normalize)
    sizes = compute_sizes(expected, cfg)

    cols = [text_col] + ([label_col] if label_col else [])
    builder = PartialBloomBuilder(
        sizes=sizes, cfg=cfg, text_col=text_col,
        label_col=label_col, normalize=normalize, with_hll=with_hll)
    if label_col is None:
        # single filter: rename the builder's group key afterwards
        builder.sizes = {"__all__": sizes[filter_id]}
    parts = ds.select_columns(cols).map_batches(
        builder, batch_format="pyarrow", batch_size=cfg.batch_size)
    # One batch's partials: a row per label, each the filter's m/8 bytes
    # and the HLL's registers.  Under a smaller block target (the read's
    # block size, from ``read_parquet``) Ray would slice them into more
    # blocks; the context is the caller's too, so restore it.
    ctx = parts.context
    prev = ctx.target_max_block_size
    need = sum(m // 8 + (1 << builder.hll_p) * with_hll
               for m, _ in builder.sizes.values())
    if prev is not None and prev < need:
        ctx.target_max_block_size = need
    try:
        merged = fold_partials(parts, PARTIAL_SKETCHES, key="filter_id")
    finally:
        ctx.target_max_block_size = prev
    if label_col is None and not merged:  # an empty reference: no frames
        merged = fold_table(builder(pa.table({text_col: pa.array(
            [], pa.string())})), PARTIAL_SKETCHES, key="filter_id")
    out: dict[str, dict] = {}
    for key, row in merged.items():
        bf, hll = row["blob"], row["hll"]
        fid = filter_id if key == "__all__" else key
        bf.filter_id = fid
        # redundancy warning (A3): ratio of redundant to unique shingles
        # minus the expected redundancy FPR — high values suggest the
        # input itself is highly repetitive (BioBloomMaker.cpp:527-540)
        if bf.n_distinct > 0:
            from biobloom_ray.sketches.bloom import calc_redundancy_fpr

            red_fpr = calc_redundancy_fpr(bf.m, bf.n_distinct, bf.hash_num)
            ratio = bf.n_redundant / bf.n_distinct - red_fpr
            if ratio > 0.25:
                import warnings

                warnings.warn(
                    f"filter {fid!r}: redundant/unique shingle ratio "
                    f"{ratio:.2f} exceeds 0.25 — input is highly repetitive "
                    "(reference warning, BioBloomMaker.cpp:527-540)")
        out[fid] = {
            "filter": bf,
            "hll": hll,
            "expected_entries": int(expected.get(key,
                                                 expected.get(fid, 0)) or 0),
        }
    return out
