"""Bloom build stage — the biobloommaker insert pass re-expressed as a
mergeable UDAF over Ray Data blocks (SURVEY.md §3.1 "Ray rebuild").

Reference lifecycle (``BioBloomMaker/BloomFilterGenerator.cpp:28-73``):
pre-pass counts expected entries (Σ len−k+1 per record,
``BloomFilterGenerator.h:108-141``), sizes the filter
(``BioBloomMaker.cpp:427-435``), then OpenMP threads ``insertAndCheck``
into ONE shared bit array with atomic counters
(``BloomFilterGenerator.h:143-188``).

Ray design: the shared mutable array becomes *partial filters per block*
(bitwise-OR is associative + commutative, so any merge order is
bit-exact), folded per filter_id by
:func:`~biobloom_ray.sketches.fold.fold_partials` — its payload is one
serialized filter per (block, label), never the shingles themselves.
Multi-filter builds (one filter per label value, e.g. per lang) run in
the SAME single pass over the input.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from biobloom_ray.config import BuildConfig
from biobloom_ray.hashing import shingle_hashes
from biobloom_ray.sketches.bloom import BloomFilter, calc_optimal_hash_num, calc_optimal_size
from biobloom_ray.sketches.fold import fold_table, to_table
from biobloom_ray.sketches.hll import HLL
from biobloom_ray.textnorm import normalize_batch

#: the partial-row sketch columns of :class:`PartialBloomBuilder`
PARTIAL_SKETCHES = {"blob": BloomFilter, "hll": HLL}


def _labels(batch: pa.Table, label_col: str) -> np.ndarray:
    """The label column as numpy; a null label names no filter, so it
    raises instead of being dropped."""
    col = batch[label_col]
    if col.null_count:
        raise ValueError(f"{label_col} has null values; every row must "
                         f"name the filter it feeds")
    return col.to_pandas().to_numpy()


def expected_entries_batch(batch: pa.Table, text_col: str, k: int,
                           label_col: str | None,
                           normalize: bool = True) -> pa.Table:
    """Pre-pass partial (A1): frames per row = max(len−k+1, 0), summed per
    label inside the batch so the driver fold only sees one row per
    (block, label).

    ``len`` is measured on the SAME representation the builder hashes —
    UTF-8 **bytes** of the (optionally normalized) text — so the filter
    sizing tracks actual insertions on non-ASCII or whitespace-heavy
    corpora and the realized FPR stays at the design point.  The
    normalized length comes from a raw-byte numpy kernel
    (:func:`~biobloom_ray.textnorm.normalized_byte_len`), so the
    pre-pass never materializes normalized strings."""
    import pyarrow.compute as pc

    from biobloom_ray.textnorm import normalized_byte_len

    texts = batch[text_col]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    if normalize:
        lens = normalized_byte_len(texts)
    else:
        lens = pc.binary_length(texts.cast(pa.large_binary())) \
            .to_numpy(zero_copy_only=False)
    frames = np.maximum(np.nan_to_num(lens.astype(np.float64)) - k + 1, 0).astype(np.int64)
    if label_col is None:
        return pa.table({"filter_id": ["__all__"], "frames": [int(frames.sum())]})
    labels = _labels(batch, label_col)
    import pandas as pd

    agg = pd.DataFrame({"filter_id": labels, "frames": frames}).groupby(
        "filter_id", as_index=False)["frames"].sum()
    return pa.Table.from_pandas(agg, preserve_index=False)


class PartialBloomBuilder:
    """map_batches callable emitting one serialized partial filter per
    (block, filter_id).  Stateless w.r.t. other blocks — safe for task
    parallelism; sizes come from the pre-computed ``sizes`` dict so every
    partial is merge-compatible (same m, h, k, seed —
    ``BloomFilterGenerator.h:83-99``).

    The batch's rows are stable-sorted by label before they are hashed,
    so each label's frames are one slice of ``h1``/``h2``, in the order
    the unsorted batch gives them; a label missing from ``sizes`` gets no
    partial."""

    def __init__(self, sizes: dict, cfg: BuildConfig, text_col: str,
                 label_col: str | None, normalize: bool = True,
                 with_hll: bool = True, hll_p: int = 14):
        self.sizes = sizes  # filter_id -> (m, hash_num)
        self.cfg = cfg
        self.text_col = text_col
        self.label_col = label_col
        self.normalize = normalize
        self.with_hll = with_hll
        self.hll_p = hll_p

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        texts = batch[self.text_col]
        if self.label_col is not None:
            labels = _labels(batch, self.label_col)
            order = np.argsort(labels, kind="stable")
            texts, labels = texts.take(order), labels[order]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        if self.normalize:
            texts = normalize_batch(texts)
        h1, h2, nf = shingle_hashes(texts, cfg.kmer_size, cfg.seed)
        if self.label_col is None:
            groups = {"__all__": slice(None)}
        else:
            # each label's rows are one run of the sorted batch; its
            # frames run from the first row's offset to the next run's
            fids, row_lo = np.unique(labels, return_index=True)
            frame_off = np.concatenate(([0], np.cumsum(nf)))
            bounds = frame_off[np.append(row_lo, len(labels))]
            groups = {str(fid): slice(lo, hi) for fid, lo, hi
                      in zip(fids, bounds[:-1], bounds[1:])}
        out_ids, out_blobs, out_hll = [], [], []
        for fid, sel in groups.items():
            if fid not in self.sizes:
                continue
            m, h = self.sizes[fid]
            bf = BloomFilter(m=m, hash_num=h, kmer_size=cfg.kmer_size,
                             seed=cfg.seed, filter_id=fid)
            gh1, gh2 = h1[sel], h2[sel]
            bf.insert(gh1, gh2)
            out_ids.append(fid)
            out_blobs.append(bf.serialize())
            if self.with_hll:
                hll = HLL(p=self.hll_p)
                hll.update(gh1)
                out_hll.append(hll.serialize())
            else:
                out_hll.append(b"")
        return pa.table({
            "filter_id": pa.array(out_ids, type=pa.large_string()),
            "blob": pa.array(out_blobs, type=pa.large_binary()),
            "hll": pa.array(out_hll, type=pa.large_binary()),
        })


def merge_partials_group(group) -> "pd.DataFrame":
    """OR the partial filters of one filter_id and union their HLLs —
    the per-table fold of ``fold_partials`` over a pandas group; returns
    one ``filter_id, blob, hll`` row."""
    t = pa.Table.from_pandas(group[["filter_id", *PARTIAL_SKETCHES]],
                             preserve_index=False)
    return to_table(fold_table(t, PARTIAL_SKETCHES, key="filter_id"),
                    t.schema, PARTIAL_SKETCHES, key="filter_id").to_pandas()


def compute_sizes(expected: dict[str, int], cfg: BuildConfig) -> dict[str, tuple[int, int]]:
    h = cfg.hash_num or calc_optimal_hash_num(cfg.desired_fpr)
    return {fid: (calc_optimal_size(max(n, 1), cfg.desired_fpr, h), h)
            for fid, n in expected.items()}
