"""Deduplication stages (graft additions for training-data pipelines).

Every variant is expressed Ray-Data-first:

- exact        — content-hash per batch → native ``groupby(hash).min(id)``
                 winners → hash semi-join back to the rows (the shuffle
                 key is the 32-hex md5, never the text)
- minhash-LSH  — shingle → minhash signature checkpoint (object store
                 below a row gate, partitioned parquet above; 1 KB/doc
                 ≈ 1-3 % of corpus bytes) → NARROW banded rows
                 (band_key, id; 16 B/row, no signature payload) →
                 three-tier bucketing (driver lexsort below
                 ``band_driver_limit`` rows; native per-bucket count
                 aggregate above; candidate pairs as a Dataset
                 end-to-end past ``broadcast_limit``) → signature
                 verify (broadcast fetch below the limit, two hash
                 joins above)
- simhash      — 64-bit fingerprints → band blocking → Hamming verify,
                 same narrow-row + native-aggregate shape
- embedding    — see :mod:`biobloom_ray.stages.ann`

Scale notes (round-2 redesign, VERDICT.md "Next round" #1):

* Band rows carry ONLY (band_key, doc_id[, fp]) — the round-1 design
  replicated the full 128-perm signature into all 16 band rows
  (16 KB/doc of shuffle payload); now signatures move at most twice,
  via hash joins keyed on the candidate ids.
* The bucket-size aggregate makes the dominant case (bucket of exactly
  2 docs) fully native: ``groupby(band_key).agg(Count, Min(id),
  Max(id))`` yields the pair directly with zero per-group Python, and
  ONLY buckets with ≥2 docs ever leave the cluster — driver traffic is
  proportional to the op's OUTPUT (near-dup pairs), not the corpus.
  Buckets with ≥3 docs are a sparse tail (duplicate *clusters*); their
  keys are broadcast and only those rows re-scanned for pair emission
  (bounded per bucket by ``max_bucket`` — degenerate keys, e.g.
  all-empty docs, truncate deterministically on sorted ids).
* At extreme scale (≥10¹¹ docs) run the banding per band-range so the
  per-bucket aggregate materializes 1/num_bands at a time; the
  signature checkpoint is what you would persist to parquet.

The reference's only dedup is the Bloom ``insertAndCheck`` first-wins
shingle dedup (``BloomFilterGenerator.h:171``, SURVEY.md §2.7 D1); the
exact variant here is its hash-partitioned exact counterpart.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ray.data.aggregate import Count, Max, Min

from biobloom_ray.hashing import shingle_hashes
from biobloom_ray.sketches.minhash import lsh_band_keys, minhash_signatures
from biobloom_ray.sketches.simhash import (
    hamming_distance,
    simhash_band_keys,
    simhash_fingerprints,
)
from biobloom_ray.textnorm import content_md5_batch

from biobloom_ray.io import cheap_count as _cheap_count
from biobloom_ray.io import hash_join as _join

DEFAULT_JOIN_PARTITIONS = None

#: default gates for the LSH tiers (module-level so tests/bench can
#: force the cluster paths); see minhash_neardup_pairs_ds docstring
BAND_DRIVER_MAX_ROWS = 4_000_000
BROADCAST_LIMIT = 50_000


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def add_content_hash(batch: pa.Table, text_col: str = "text") -> pa.Table:
    return batch.append_column(
        "fp_md5", pa.array(content_md5_batch(batch[text_col]),
                           type=pa.large_string()))


#: input-row gate for the driver combine tier of exact_dedup: below it
#: the per-block (hash, min-id) partials combine on the driver and the
#: winner-id set broadcasts back as a filter.  Partials are 32-hex
#: Python strings in pandas (~100 B each incl. object overhead), so the
#: gate stays at 1M rows ≈ 100-200 MB driver peak
EXACT_DEDUP_DRIVER_MAX_ROWS = 1_000_000


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
                num_partitions: int = DEFAULT_JOIN_PARTITIONS):
    """First-wins exact dedup, tiered by scale.

    Below ``EXACT_DEDUP_DRIVER_MAX_ROWS`` input rows: per-block
    (content-hash, min-id) partials combine on the driver, and the
    sorted winner-id set broadcasts back as a map-side filter — no
    shuffle.  Above: hash-partition on content hash, native ``Min(id)``
    winner per group, then a hash semi-join brings back the winner
    rows.  No per-group Python, no text in the groupby shuffle on
    either tier."""
    n_rows = _cheap_count(ds)

    if n_rows is not None and n_rows <= EXACT_DEDUP_DRIVER_MAX_ROWS:
        def hash_min_partial(b: pa.Table) -> pa.Table:
            h = add_content_hash(b, text_col)
            df = pd.DataFrame({
                "fp_md5": h["fp_md5"].to_pandas(),
                id_col: h[id_col].to_numpy(zero_copy_only=False)})
            agg = df.groupby("fp_md5", as_index=False)[id_col].min()
            return pa.Table.from_pandas(agg, preserve_index=False)

        parts = (ds.map_batches(hash_min_partial, batch_format="pyarrow")
                 .to_pandas())
        winners = np.sort(parts.groupby("fp_md5")[id_col].min().to_numpy())
        return ds.map_batches(_isin_filter(id_col, winners),
                              batch_format="pyarrow")

    hashed = ds.map_batches(lambda b: add_content_hash(b, text_col),
                            batch_format="pyarrow")
    winners = (hashed.select_columns(["fp_md5", id_col])
               .groupby("fp_md5")
               .aggregate(Min(id_col, alias_name=id_col))
               .select_columns([id_col]))
    return _join(ds, winners, on=(id_col,), num_partitions=num_partitions)


# ---------------------------------------------------------------------------
# MinHash + LSH near-dup
# ---------------------------------------------------------------------------

class MinHashSigStage:
    """map_batches callable: (doc_id, sig) — the signature as a
    ``num_perm × 8``-byte little-endian binary blob (join-friendly; Arrow
    acero joins reject list payloads)."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id",
                 shingle_k: int = 5, num_perm: int = 128,
                 seed: int = 0x31337):
        self.text_col = text_col
        self.id_col = id_col
        self.shingle_k = shingle_k
        self.num_perm = num_perm
        self.seed = seed

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        h1, _, nf = shingle_hashes(texts, self.shingle_k)
        # dedup shingles per row BEFORE the num_perm permutation loop:
        # min over a multiset equals min over its set, so the signature
        # is bit-identical, and web text repeats shingles heavily — one
        # (row, hash) lexsort here saves its cost ~num_perm times over
        nrow = len(nf)
        row_of = np.repeat(np.arange(nrow, dtype=np.int64), nf)
        order = np.lexsort((h1, row_of))
        hs, ro = h1[order], row_of[order]
        if len(hs):
            first = np.r_[True, (hs[1:] != hs[:-1]) | (ro[1:] != ro[:-1])]
            h1u = hs[first]
            nfu = np.zeros(nrow, dtype=np.int64)
            np.add.at(nfu, ro[first], 1)
        else:
            h1u, nfu = hs, np.zeros(nrow, dtype=np.int64)
        sig = minhash_signatures(h1u, nfu, self.num_perm, self.seed)
        nf = nfu
        blobs = sig.astype("<u8").tobytes()
        w = self.num_perm * 8
        # int64 offsets + large_binary: int32 offsets would silently wrap
        # past 2^31 total signature bytes (~2M rows/block at 128 perms)
        offs = np.arange(len(nf) + 1, dtype=np.int64) * w
        sig_arr = pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), len(nf),
            [None, pa.py_buffer(offs.tobytes()), pa.py_buffer(blobs)])
        return pa.table({self.id_col: batch[self.id_col], "sig": sig_arr})


def _sig_matrix(col, num_perm: int) -> np.ndarray:
    """Binary signature column → (n, num_perm) uint64 matrix (zero-copy
    when the blobs are contiguous; honors ``Array.offset`` so sliced
    arrays read THEIR rows, not the buffer head)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    w = num_perm * 8
    off_dtype = np.int64 if pa.types.is_large_binary(col.type) else np.int32
    bufs = col.buffers()
    offs = np.frombuffer(bufs[1], dtype=off_dtype,
                         count=col.offset + n + 1)[col.offset:]
    start = int(offs[0])
    if offs[-1] - start == n * w and len(bufs[2]) >= start + n * w:
        return np.frombuffer(bufs[2], dtype="<u8", offset=start,
                             count=n * num_perm).reshape(n, num_perm)
    return np.stack([np.frombuffer(v.as_py(), dtype="<u8") for v in col]) \
        if n else np.empty((0, num_perm), dtype=np.uint64)


def _band_rows(batch: pa.Table, id_col: str, num_perm: int,
               num_bands: int) -> pa.Table:
    """(band_key, id) narrow rows from the signature table.

    Zero-shingle docs (shorter than the shingle width) carry the
    all-sentinel signature; banding them would funnel every such doc
    into ONE degenerate bucket per band (quadratic junk pairs of empty
    pages), so they are dropped here — a contentless doc has no
    near-duplicates by definition."""
    from biobloom_ray.sketches.minhash import _EMPTY_SENTINEL

    sig = _sig_matrix(batch["sig"], num_perm)
    ids = batch[id_col].to_numpy(zero_copy_only=False)
    nonempty = sig[:, 0] != _EMPTY_SENTINEL
    if not nonempty.all():
        sig = sig[nonempty]
        ids = ids[nonempty]
    keys = lsh_band_keys(sig, num_bands)
    return pa.table({
        "band_key": pa.array(keys.reshape(-1).view(np.int64)),
        id_col: pa.array(np.repeat(ids, num_bands)),
    })


def _empty_pairs(value_col: str, dtype: str = "float64") -> pd.DataFrame:
    return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                         "id_b": pd.Series(dtype="int64"),
                         value_col: pd.Series(dtype=dtype)})


def _isin_filter(col_name: str, sorted_vals: np.ndarray, keep: bool = True):
    """map_batches callable: keep (``keep=True``) or drop the rows whose
    ``col_name`` is in the broadcast sorted array (binary-search
    membership, no Python loop)."""
    import ray

    vals_ref = ray.put(sorted_vals)

    def pick(b: pa.Table) -> pa.Table:
        vals = ray.get(vals_ref)
        k = b[col_name].to_numpy(zero_copy_only=False)
        hit = np.zeros(len(k), dtype=bool)
        if len(vals):
            idx = np.searchsorted(vals, k)
            idx[idx == len(vals)] = 0
            hit = vals[idx] == k
        return b.filter(pa.array(hit == keep))

    return pick


def _collect_numpy(ds, cols: list[str]) -> dict[str, np.ndarray]:
    """Stream a (small) dataset's columns to driver numpy arrays."""
    parts: dict[str, list] = {c: [] for c in cols}
    for blk in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        for c in cols:
            parts[c].append(blk[c].to_numpy(zero_copy_only=False))
    return {c: (np.concatenate(v) if v else np.empty(0, dtype=np.int64))
            for c, v in parts.items()}


# ---------------------------------------------------------------------------
# CSR hash-set kernels (shared by the Jaccard verify paths — no per-row
# Python, VERDICT r2 "Next round" #5)
# ---------------------------------------------------------------------------

def _hashset_csr(col) -> tuple[np.ndarray, np.ndarray]:
    """Binary column of sorted-unique ``<u8`` blobs → (values, offsets in
    ELEMENTS) read straight off the Arrow offsets/data buffers (honors
    ``Array.offset``; every blob is a whole number of u8 words so the
    element offsets divide exactly)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    bufs = col.buffers()
    off_dtype = np.int64 if pa.types.is_large_binary(col.type) else np.int32
    if n == 0 or bufs[2] is None:
        return np.empty(0, dtype=np.uint64), np.zeros(n + 1, dtype=np.int64)
    offs_b = np.frombuffer(bufs[1], dtype=off_dtype,
                           count=col.offset + n + 1)[col.offset:] \
        .astype(np.int64)
    vals = np.frombuffer(bufs[2], dtype="<u8", offset=int(offs_b[0]),
                         count=int((offs_b[-1] - offs_b[0]) // 8))
    return vals, (offs_b - offs_b[0]) // 8


def _segment_gather(vals: np.ndarray, offs: np.ndarray,
                    idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate CSR segments ``idx`` in order → (gathered, lengths)."""
    lens = offs[idx + 1] - offs[idx]
    total = int(lens.sum())
    dst = np.zeros(len(idx) + 1, dtype=np.int64)
    np.cumsum(lens, out=dst[1:])
    take = np.repeat(offs[idx] - dst[:-1], lens) + np.arange(total)
    return vals[take], lens


def _pair_intersections(va: np.ndarray, la: np.ndarray, vb: np.ndarray,
                        lb: np.ndarray) -> np.ndarray:
    """Per-pair intersection sizes for concatenated sorted-unique sets.

    ``va`` holds pair 0's A-set, then pair 1's, … (lengths ``la``); same
    for ``vb``.  One lexsort over (pair, value) counts values present in
    both sets of a pair — each value occurs at most once per set."""
    n = len(la)
    allv = np.concatenate([va, vb])
    allp = np.concatenate([np.repeat(np.arange(n, dtype=np.int64), la),
                           np.repeat(np.arange(n, dtype=np.int64), lb)])
    if not len(allv):
        return np.zeros(n, dtype=np.int64)
    order = np.lexsort((allv, allp))
    v = allv[order]
    p = allp[order]
    dup = (v[1:] == v[:-1]) & (p[1:] == p[:-1])
    inter = np.zeros(n, dtype=np.int64)
    np.add.at(inter, p[1:][dup], 1)
    return inter


def _jaccard_from_sets(va, la, vb, lb) -> np.ndarray:
    """Exact Jaccard per pair; both-empty pairs score 1.0 (identical
    contentless docs)."""
    inter = _pair_intersections(va, la, vb, lb)
    union = la + lb - inter
    with np.errstate(invalid="ignore", divide="ignore"):
        jac = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
    return jac


def _containment_from_sets(va, la, vb, lb) -> np.ndarray:
    """Exact CONTAINMENT per pair — |A∩B| / min(|A|,|B|), the
    asymmetric near-dup score that catches a small doc quoted inside
    a large one where Jaccard stays low.  Both-empty pairs score
    1.0 (identical contentless docs)."""
    inter = _pair_intersections(va, la, vb, lb)
    mn = np.minimum(la, lb)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(mn > 0, inter / np.maximum(mn, 1), 1.0)


def _dup_buckets(band, id_col: str):
    """groupby(band_key) → materialized ≥2-doc buckets with native
    Count/Min/Max.  ONE groupby shuffle of 16 B rows does all the
    bucketing work; only buckets with ≥2 docs survive (the op's output
    scale — near-dup candidates — not the corpus scale)."""
    agg = (band.groupby("band_key")
           .aggregate(Count(alias_name="c"),
                      Min(id_col, alias_name="id_a"),
                      Max(id_col, alias_name="id_b")))
    return agg.map_batches(
        lambda b: b.filter(pc.greater_equal(b["c"], 2)),
        batch_format="pyarrow").materialize()


def _candidate_pairs_np(dup_ds, band, id_col: str, max_bucket: int):
    """Driver fast path (below ``broadcast_limit`` dup buckets): distinct
    candidate (id_a, id_b) pairs as numpy arrays.  c==2 buckets (the
    bulk) are pairs directly from the native Min/Max aggregate; c≥3
    bucket keys (sparse dup-cluster tail) trigger one extra narrow scan
    filtered to those keys, deterministically capped per bucket."""
    dup = _collect_numpy(dup_ds, ["band_key", "c", "id_a", "id_b"])

    two = dup["c"] == 2
    pa_ids = [dup["id_a"][two]]
    pb_ids = [dup["id_b"][two]]

    big_keys = np.sort(dup["band_key"][~two])
    if len(big_keys):
        rows = _collect_numpy(
            band.map_batches(_isin_filter("band_key", big_keys),
                             batch_format="pyarrow"),
            ["band_key", id_col])
        order = np.lexsort((rows[id_col], rows["band_key"]))
        ks = rows["band_key"][order]
        ids = rows[id_col][order]
        starts = np.nonzero(np.r_[True, ks[1:] != ks[:-1]])[0]
        ends = np.r_[starts[1:], len(ks)]
        for s, e in zip(starts, ends):
            seg = ids[s:min(e, s + max_bucket)]
            ii, jj = np.triu_indices(len(seg), k=1)
            pa_ids.append(seg[ii])
            pb_ids.append(seg[jj])

    id_a = np.concatenate(pa_ids)
    id_b = np.concatenate(pb_ids)
    if len(id_a):
        both = np.unique(np.stack([id_a, id_b], axis=1), axis=0)
        id_a, id_b = both[:, 0], both[:, 1]
    return id_a, id_b


def _candidate_pairs_band_driver(band, id_col: str, max_bucket: int):
    """Small-corpus fast path: the WHOLE narrow band table (16 B/row,
    gated by ``band_driver_limit`` rows ≈ 64 MB) streams to the driver
    and one lexsort finds every bucket — no Ray shuffle at all.  At
    bench scale this replaces a ~3 s groupby exchange with ~0.1 s of
    numpy; above the gate the aggregate paths below take over."""
    rows = _collect_numpy(band, ["band_key", id_col])
    ks_raw = rows["band_key"]
    ids_raw = rows[id_col]
    order = np.lexsort((ids_raw, ks_raw))
    ks = ks_raw[order]
    ids = ids_raw[order]
    n = len(ks)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    starts = np.nonzero(np.r_[True, ks[1:] != ks[:-1]])[0]
    ends = np.r_[starts[1:], n]
    sizes = ends - starts
    # c==2 buckets vectorized (the bulk); bigger buckets via capped triu
    two = sizes == 2
    pa_ids = [ids[starts[two]]]
    pb_ids = [ids[starts[two] + 1]]
    for s, e in zip(starts[sizes > 2], ends[sizes > 2]):
        seg = ids[s:min(e, s + max_bucket)]
        ii, jj = np.triu_indices(len(seg), k=1)
        pa_ids.append(seg[ii])
        pb_ids.append(seg[jj])
    id_a = np.concatenate(pa_ids)
    id_b = np.concatenate(pb_ids)
    if len(id_a):
        both = np.unique(np.stack([id_a, id_b], axis=1), axis=0)
        id_a, id_b = both[:, 0], both[:, 1]
    return id_a, id_b


def _candidate_pairs_cluster(dup_ds, band, id_col: str, max_bucket: int,
                             num_partitions: int):
    """Cluster path (above ``broadcast_limit``): distinct candidate
    pairs as a Dataset end-to-end — the driver never sees a pair
    (VERDICT r2 "Next round" #4).  c==2 buckets project to pairs
    natively; c≥3 bucket rows are selected by a hash semi-join on the
    bucket key and pair-expanded inside ``map_groups``; a final native
    (id_a, id_b) groupby dedups pairs found in several bands."""

    def two_pairs(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["c"], 2))
        return pa.table({"id_a": t["id_a"], "id_b": t["id_b"]})

    pairs = dup_ds.map_batches(two_pairs, batch_format="pyarrow")

    big_keys = (dup_ds.map_batches(
        lambda b: b.filter(pc.greater(b["c"], 2)), batch_format="pyarrow")
        .select_columns(["band_key"]))
    if big_keys.count():  # cheap: parent is materialized
        rows = _join(band, big_keys, on=("band_key",),
                     num_partitions=num_partitions)

        def expand(g: pa.Table) -> pa.Table:
            ids = np.sort(g[id_col].to_numpy(zero_copy_only=False),
                          kind="stable")[:max_bucket]
            ii, jj = np.triu_indices(len(ids), k=1)
            return pa.table({"id_a": pa.array(ids[ii]),
                             "id_b": pa.array(ids[jj])})

        pairs = pairs.union(
            rows.groupby("band_key").map_groups(expand,
                                                batch_format="pyarrow"))
    return (pairs.groupby(["id_a", "id_b"])
            .aggregate(Count(alias_name="_n"))
            .select_columns(["id_a", "id_b"]))


def _attach_sigs(cand, sig_ds, id_col: str, num_partitions: int):
    """cand (id_a, id_b) ⋈ sig_ds on both ids → (id_a, id_b, sig_a, sig_b)."""
    j = _join(cand, sig_ds, on=("id_a",), right_on=(id_col,),
              num_partitions=num_partitions)
    return _join(j, sig_ds, on=("id_b",), right_on=(id_col,),
                 num_partitions=num_partitions,
                 left_suffix="_a", right_suffix="_b")


#: above this many signature rows the checkpoint goes to parquet instead
#: of pinning ~1 KB/doc in the object store for the pipeline's lifetime
#: (VERDICT r2 "Next round" #6); ~5 GB at 128 perms
SIG_CHECKPOINT_MAX_ROWS = 5_000_000


def _sig_checkpoint(ds, stage, checkpoint: str, checkpoint_dir):
    """Materialize the signature table — in the object store below the
    row gate, as partitioned parquet (write-then-read-back) above it.

    ``checkpoint``: "auto" (count the input when cheaply possible and
    gate on SIG_CHECKPOINT_MAX_ROWS), "memory", or "parquet"."""
    sig_ds = ds.map_batches(stage, batch_format="pyarrow")
    n = _cheap_count(ds)
    if checkpoint == "auto":
        checkpoint = "parquet" if (n is not None
                                   and n > SIG_CHECKPOINT_MAX_ROWS) \
            else "memory"
    if checkpoint == "memory":
        return sig_ds.materialize(), n
    import tempfile

    import ray.data as rd

    d = checkpoint_dir or tempfile.mkdtemp(prefix="minhash_sigs_",
                                           dir="/tmp")
    sig_ds.write_parquet(d)
    return rd.read_parquet(d), n


def minhash_neardup_pairs_ds(ds, text_col: str = "text",
                             id_col: str = "doc_id", threshold: float = 0.7,
                             shingle_k: int = 5, num_perm: int = 128,
                             num_bands: int = 16, max_bucket: int = 2000,
                             num_partitions: int = DEFAULT_JOIN_PARTITIONS,
                             broadcast_limit: int | None = None,
                             checkpoint: str = "auto",
                             checkpoint_dir: str | None = None,
                             band_driver_limit: int | None = None):
    """Near-duplicate pairs with estimated Jaccard ≥ threshold, as a
    Dataset (id_a, id_b, est_jaccard).

    shingle → minhash signature checkpoint (object store below
    ``SIG_CHECKPOINT_MAX_ROWS``, parquet above) → narrow band rows →
    bucketing → distinct candidate pairs → signature verify.

    Bucketing is three-tier by scale: below ``band_driver_limit`` band
    rows (≈64 MB of 16 B rows) the whole narrow band table streams to
    the driver and ONE lexsort finds every bucket (no shuffle at all);
    above that, ONE native groupby aggregate does the bucketing, and
    candidate handling is adaptive like a broadcast-vs-shuffle join
    choice: up to ``broadcast_limit`` dup buckets / candidate pairs
    (the op's OUTPUT scale) the pairs ride through the driver and the
    candidate ids are broadcast so one narrow scan fetches just those
    signatures; beyond the limit candidates stay a Dataset end-to-end
    (c==2 native projection + map_groups pair expansion + native pair
    dedup) and the signatures attach via two hash joins, so nothing
    driver-bound grows with the corpus.
    """
    stage = MinHashSigStage(text_col, id_col, shingle_k, num_perm)
    sig_ds, n_in = _sig_checkpoint(ds, stage, checkpoint, checkpoint_dir)
    return minhash_pairs_from_sigs(
        sig_ds, n_in, id_col=id_col, threshold=threshold,
        num_perm=num_perm, num_bands=num_bands, max_bucket=max_bucket,
        num_partitions=num_partitions, broadcast_limit=broadcast_limit,
        band_driver_limit=band_driver_limit)


def minhash_pairs_from_sigs(sig_ds, n_in, id_col: str = "doc_id",
                            threshold: float = 0.7, num_perm: int = 128,
                            num_bands: int = 16, max_bucket: int = 2000,
                            num_partitions=DEFAULT_JOIN_PARTITIONS,
                            broadcast_limit: int | None = None,
                            band_driver_limit: int | None = None):
    """The post-signature half of :func:`minhash_neardup_pairs_ds`:
    band → bucket → candidate pairs → signature verify, starting from a
    MATERIALIZED signature Dataset (id, sig blob).  Exposed so callers
    that already hold the signature table — e.g. the resumable curation
    runner, which also checkpoints it per partition — don't pay the
    shingle+permute scan twice."""
    if broadcast_limit is None:
        broadcast_limit = BROADCAST_LIMIT
    if band_driver_limit is None:
        band_driver_limit = BAND_DRIVER_MAX_ROWS
    band = sig_ds.map_batches(
        lambda b: _band_rows(b, id_col, num_perm, num_bands),
        batch_format="pyarrow")

    import ray.data as rd

    if (n_in is not None and broadcast_limit > 0
            and n_in * num_bands <= band_driver_limit):
        # small corpus: the whole 16 B/row band table fits a bounded
        # driver buffer — skip the groupby exchange entirely
        id_a, id_b = _candidate_pairs_band_driver(band, id_col, max_bucket)
        n_dup = 0
    else:
        dup_ds = _dup_buckets(band, id_col)
        n_dup = dup_ds.count()  # cheap: materialized
        if n_dup <= broadcast_limit:
            id_a, id_b = _candidate_pairs_np(dup_ds, band, id_col,
                                             max_bucket)
        else:
            id_a = None

    if id_a is not None:
        if len(id_a) == 0:
            return rd.from_arrow(pa.table({
                "id_a": pa.array([], type=pa.int64()),
                "id_b": pa.array([], type=pa.int64()),
                "est_jaccard": pa.array([], type=pa.float64())}))
        if len(id_a) <= broadcast_limit:
            need = np.unique(np.concatenate([id_a, id_b]))
            got = _collect_numpy_sigs(
                sig_ds.map_batches(_isin_filter(id_col, need),
                                   batch_format="pyarrow"), id_col,
                num_perm)
            pos = {int(d): i for i, d in enumerate(got["ids"])}
            A = got["sigs"][[pos[int(x)] for x in id_a]]
            B = got["sigs"][[pos[int(x)] for x in id_b]]
            est = (A == B).mean(axis=1)
            keep = est >= threshold
            return rd.from_arrow(pa.table({
                "id_a": pa.array(id_a[keep]),
                "id_b": pa.array(id_b[keep]),
                "est_jaccard": pa.array(est[keep], type=pa.float64())}))
        cand = rd.from_arrow(pa.table({"id_a": pa.array(id_a),
                                       "id_b": pa.array(id_b)}))
    else:
        cand = _candidate_pairs_cluster(dup_ds, band, id_col, max_bucket,
                                        num_partitions)

    joined = _attach_sigs(cand, sig_ds, id_col, num_partitions)

    def verify(b: pa.Table) -> pa.Table:
        A = _sig_matrix(b["sig_a"], num_perm)
        B = _sig_matrix(b["sig_b"], num_perm)
        est = (A == B).mean(axis=1) if len(A) else np.empty(0)
        t = pa.table({"id_a": b["id_a"], "id_b": b["id_b"],
                      "est_jaccard": pa.array(est, type=pa.float64())})
        return t.filter(pc.greater_equal(t["est_jaccard"], threshold))

    return joined.map_batches(verify, batch_format="pyarrow")


def _collect_numpy_sigs(ds, id_col: str, num_perm: int):
    """Stream a (small, pre-filtered) signature dataset to the driver as
    id + matrix arrays."""
    ids, mats = [], []
    for blk in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        ids.append(blk[id_col].to_numpy(zero_copy_only=False))
        mats.append(np.array(_sig_matrix(blk["sig"], num_perm)))
    return {"ids": (np.concatenate(ids) if ids
                    else np.empty(0, dtype=np.int64)),
            "sigs": (np.concatenate(mats) if mats
                     else np.empty((0, num_perm), dtype=np.uint64))}


def minhash_neardup_pairs(ds, text_col: str = "text", id_col: str = "doc_id",
                          threshold: float = 0.7, shingle_k: int = 5,
                          num_perm: int = 128, num_bands: int = 16):
    """pandas convenience wrapper over :func:`minhash_neardup_pairs_ds`
    (result is small: the near-dup pair list)."""
    out = minhash_neardup_pairs_ds(
        ds, text_col, id_col, threshold, shingle_k, num_perm,
        num_bands).to_pandas()
    if out.empty:
        return _empty_pairs("est_jaccard")
    return (out.sort_values(["id_a", "id_b"], kind="stable")
            .reset_index(drop=True))


def minhash_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
                  threshold: float = 0.7, **kw):
    """Drop near-duplicates: greedy keep-lowest-id. Each doc appearing as
    ``id_b`` of a pair whose ``id_a`` is smaller is removed.  (Exact
    connected components would need iterated label propagation; greedy
    min-neighbor removal is the standard one-pass approximation and is
    deterministic.)  The drop set is broadcast once (size = #dup docs)."""
    pairs = minhash_neardup_pairs(ds, text_col, id_col, threshold, **kw)
    drop = np.unique(pairs["id_b"].to_numpy()) if len(pairs) else \
        np.empty(0, dtype=np.int64)
    import ray
    drop_ref = ray.put(drop)

    def filter_batch(b: pa.Table) -> pa.Table:
        d = ray.get(drop_ref)
        if not len(d):
            return b
        ids = b[id_col].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(d, ids)
        idx[idx == len(d)] = 0
        return b.filter(pa.array(d[idx] != ids))

    return ds.map_batches(filter_batch, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# SimHash near-dup
# ---------------------------------------------------------------------------

class SimHashStage:
    """(band_key, id, fp) narrow rows — fp is 8 B, cheap enough to ride
    along, so Hamming verification needs no join at all."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id",
                 shingle_k: int = 5, num_bands: int = 4):
        self.text_col = text_col
        self.id_col = id_col
        self.shingle_k = shingle_k
        self.num_bands = num_bands

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch[self.text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        h1, _, nf = shingle_hashes(texts, self.shingle_k)
        fp = simhash_fingerprints(h1, nf)
        keys = simhash_band_keys(fp, self.num_bands)
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        return pa.table({
            "band_key": pa.array(keys.reshape(-1).view(np.int64)),
            self.id_col: pa.array(np.repeat(ids, self.num_bands)),
            "fp": pa.array(np.repeat(fp.view(np.int64), self.num_bands)),
        })


def _simhash_pairs_from_rows(rows: dict, id_col: str, max_hamming: int,
                             max_bucket: int):
    """Bucket + Hamming-verify pre-collected (band_key, id, fp) rows:
    one lexsort finds every bucket; c==2 segments verify vectorized,
    larger ones via capped triu."""
    order = np.lexsort((rows[id_col], rows["band_key"]))
    ks = rows["band_key"][order]
    ids = rows[id_col][order]
    fp = rows["fp"][order].view(np.uint64)
    n = len(ks)
    pa_ids, pb_ids, dists = [], [], []
    if n:
        starts = np.nonzero(np.r_[True, ks[1:] != ks[:-1]])[0]
        ends = np.r_[starts[1:], n]
        sizes = ends - starts
        two = starts[sizes == 2]
        d2 = hamming_distance(fp[two], fp[two + 1])
        keep2 = d2 <= max_hamming
        pa_ids.append(ids[two][keep2])
        pb_ids.append(ids[two + 1][keep2])
        dists.append(d2[keep2])
        for s, e in zip(starts[sizes > 2], ends[sizes > 2]):
            e = min(e, s + max_bucket)
            ii, jj = np.triu_indices(e - s, k=1)
            d = hamming_distance(fp[s:e][ii], fp[s:e][jj])
            keep = d <= max_hamming
            pa_ids.append(ids[s:e][ii[keep]])
            pb_ids.append(ids[s:e][jj[keep]])
            dists.append(d[keep])
    return pa_ids, pb_ids, dists


def simhash_neardup_pairs(ds, text_col: str = "text", id_col: str = "doc_id",
                          max_hamming: int = 3, shingle_k: int = 5,
                          num_bands: int = 4, max_bucket: int = 2000,
                          band_driver_limit: int | None = None):
    """Pairs within Hamming distance ≤ max_hamming of 64-bit SimHash.
    Blocking: identical band in any of ``num_bands`` bands (covers all
    pairs with < num_bands differing bits by pigeonhole).

    Same tiers as minhash: below ``band_driver_limit`` band rows the
    whole narrow (band_key, id, fp) table streams to the driver and one
    lexsort buckets it (no shuffle); above that, ONE narrow
    groupby-aggregate shuffle — c==2 buckets yield (min_id, max_id,
    min_fp, max_fp) natively ({Min(fp), Max(fp)} IS the fp pair for a
    2-row group, and Hamming is symmetric so the id↔fp association is
    irrelevant), only ≥2-doc buckets (output scale) leave the cluster,
    and the sparse c≥3 tail triggers one extra filtered scan, capped
    per bucket.
    """
    if band_driver_limit is None:
        band_driver_limit = BAND_DRIVER_MAX_ROWS
    stage = SimHashStage(text_col, id_col, shingle_k, num_bands)
    band = ds.map_batches(stage, batch_format="pyarrow")

    n_in = _cheap_count(ds)
    if n_in is not None and n_in * num_bands <= band_driver_limit:
        rows = _collect_numpy(band, ["band_key", id_col, "fp"])
        pa_ids, pb_ids, dists = _simhash_pairs_from_rows(
            rows, id_col, max_hamming, max_bucket)
        return _finish_simhash_pairs(pa_ids, pb_ids, dists)

    agg = (band.groupby("band_key")
           .aggregate(Count(alias_name="c"),
                      Min(id_col, alias_name="id_a"),
                      Max(id_col, alias_name="id_b"),
                      Min("fp", alias_name="fp_a"),
                      Max("fp", alias_name="fp_b")))
    dup = _collect_numpy(
        agg.map_batches(lambda b: b.filter(pc.greater_equal(b["c"], 2)),
                        batch_format="pyarrow"),
        ["band_key", "c", "id_a", "id_b", "fp_a", "fp_b"])

    two = dup["c"] == 2
    d2 = hamming_distance(dup["fp_a"][two].view(np.uint64),
                          dup["fp_b"][two].view(np.uint64))
    keep2 = d2 <= max_hamming
    pa_ids = [dup["id_a"][two][keep2]]
    pb_ids = [dup["id_b"][two][keep2]]
    dists = [d2[keep2]]

    big_keys = np.sort(dup["band_key"][~two])
    if len(big_keys):
        rows = _collect_numpy(
            band.map_batches(_isin_filter("band_key", big_keys),
                             batch_format="pyarrow"),
            ["band_key", id_col, "fp"])
        a2, b2, d2_ = _simhash_pairs_from_rows(rows, id_col, max_hamming,
                                               max_bucket)
        pa_ids += a2
        pb_ids += b2
        dists += d2_

    return _finish_simhash_pairs(pa_ids, pb_ids, dists)


def _finish_simhash_pairs(pa_ids, pb_ids, dists) -> pd.DataFrame:
    id_a = np.concatenate(pa_ids) if pa_ids else np.empty(0, np.int64)
    id_b = np.concatenate(pb_ids) if pb_ids else np.empty(0, np.int64)
    ham = np.concatenate(dists) if dists else np.empty(0, np.int64)
    if len(id_a) == 0:
        return _empty_pairs("hamming", "int64")
    both, first = np.unique(np.stack([id_a, id_b], axis=1), axis=0,
                            return_index=True)
    return pd.DataFrame({"id_a": both[:, 0], "id_b": both[:, 1],
                         "hamming": ham[first]})


# ---------------------------------------------------------------------------
# exact n-gram Jaccard verification
# ---------------------------------------------------------------------------

def ngram_jaccard_pairs(ds, text_col: str = "text", id_col: str = "doc_id",
                        threshold: float = 0.5, shingle_k: int = 5,
                        num_perm: int = 128, num_bands: int = 16,
                        candidate_threshold: float = 0.3,
                        num_partitions: int = DEFAULT_JOIN_PARTITIONS,
                        broadcast_limit: int = 50_000):
    return _ngram_metric_pairs(
        ds, "jaccard", "jaccard", text_col, id_col, threshold, shingle_k,
        num_perm, num_bands, candidate_threshold, num_partitions,
        broadcast_limit)


def ngram_containment_pairs(ds, text_col: str = "text",
                            id_col: str = "doc_id",
                            threshold: float = 0.8, shingle_k: int = 5,
                            num_perm: int = 128, num_bands: int = 16,
                            candidate_threshold: float = 0.3,
                            num_partitions: int = DEFAULT_JOIN_PARTITIONS,
                            broadcast_limit: int = 50_000):
    """Asymmetric near-dup: pairs whose exact shingle CONTAINMENT
    |A∩B|/min(|A|,|B|) ≥ threshold — quote/subset detection the
    symmetric Jaccard misses.  Same distributed shape as
    ngram_jaccard_pairs (LSH candidates → CSR hash-set verify), same
    documented recall assumption: candidates come from the MinHash
    banding, so a high-containment pair with Jaccard far below
    ``candidate_threshold`` (a tiny doc inside a huge one) relies on
    band collision; the exact-SQL twin verifies no such pair exists
    in the fixtures."""
    return _ngram_metric_pairs(
        ds, "containment", "containment", text_col, id_col, threshold,
        shingle_k, num_perm, num_bands, candidate_threshold,
        num_partitions, broadcast_limit)


def _ngram_metric_pairs(ds, metric, score_col, text_col="text",
                        id_col="doc_id", threshold=0.5, shingle_k=5,
                        num_perm=128, num_bands=16,
                        candidate_threshold=0.3,
                        num_partitions=DEFAULT_JOIN_PARTITIONS,
                        broadcast_limit=50_000):
    """MinHash-LSH candidates verified with EXACT n-gram Jaccard —
    fully distributed (round-2 redesign, VERDICT.md "Next round" #4).

    Adaptive like the minhash verify: up to ``broadcast_limit``
    candidate pairs (the op's OUTPUT scale) the candidate ids are
    broadcast, one scan computes the needed docs' shingle-hash sets,
    and the pair loop runs once on the driver over that bounded table;
    beyond the limit everything stays in the cluster — a hash semi-join
    selects the candidate docs, their hash sets join onto the pair
    list, and exact Jaccard runs per batch of pairs."""
    score_of = (_containment_from_sets if metric == "containment"
                else _jaccard_from_sets)
    cand = minhash_neardup_pairs_ds(
        ds, text_col, id_col, threshold=candidate_threshold,
        shingle_k=shingle_k, num_perm=num_perm, num_bands=num_bands,
        num_partitions=num_partitions).materialize()

    n_cand = cand.count()
    if n_cand == 0:
        return _empty_pairs(score_col)

    def hash_sets(b: pa.Table) -> pa.Table:
        """Per-doc sorted-unique shingle-hash sets as <u8 blobs — one
        (row, hash) lexsort dedups every row at once; no per-row
        Python."""
        texts = b[text_col]
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        h1, _, nf = shingle_hashes(texts, shingle_k)
        nrow = len(nf)
        row_of = np.repeat(np.arange(nrow, dtype=np.int64), nf)
        order = np.lexsort((h1, row_of))
        hs_sorted = h1[order]
        ro = row_of[order]
        if len(hs_sorted):
            first = np.r_[True, (hs_sorted[1:] != hs_sorted[:-1])
                          | (ro[1:] != ro[:-1])]
        else:
            first = np.empty(0, dtype=bool)
        uvals = hs_sorted[first].astype("<u8")
        ucnt = np.zeros(nrow, dtype=np.int64)
        np.add.at(ucnt, ro[first], 1)
        boffs = np.zeros(nrow + 1, dtype=np.int64)
        np.cumsum(ucnt * 8, out=boffs[1:])
        sig_arr = pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), nrow,
            [None, pa.py_buffer(boffs.tobytes()),
             pa.py_buffer(uvals.tobytes())])
        return pa.table({id_col: b[id_col], "sig": sig_arr})

    if n_cand <= broadcast_limit:
        cp = cand.select_columns(["id_a", "id_b"]).to_pandas()
        id_a = cp["id_a"].to_numpy()
        id_b = cp["id_b"].to_numpy()
        need_ids = np.unique(np.concatenate([id_a, id_b]))
        picked = (ds.select_columns([id_col, text_col])
                  .map_batches(_isin_filter(id_col, need_ids),
                               batch_format="pyarrow")
                  .map_batches(hash_sets, batch_format="pyarrow"))
        ids_parts, vals_parts, len_parts = [], [], []
        for blk in picked.iter_batches(batch_size=None,
                                       batch_format="pyarrow"):
            ids_parts.append(blk[id_col].to_numpy(zero_copy_only=False))
            v, o = _hashset_csr(blk["sig"])
            vals_parts.append(np.array(v))
            len_parts.append(np.diff(o))
        ids_all = np.concatenate(ids_parts)
        lens_all = np.concatenate(len_parts)
        vals_all = np.concatenate(vals_parts) if vals_parts \
            else np.empty(0, dtype=np.uint64)
        # one CSR over all fetched docs, sorted by id for O(log n) lookup
        order = np.argsort(ids_all, kind="stable")
        seg_of = np.zeros(len(ids_all) + 1, dtype=np.int64)
        np.cumsum(lens_all, out=seg_of[1:])
        # re-pack values in id order
        vals_sorted, lens_sorted = _segment_gather(vals_all, seg_of, order)
        offs_sorted = np.zeros(len(order) + 1, dtype=np.int64)
        np.cumsum(lens_sorted, out=offs_sorted[1:])
        ids_sorted = ids_all[order]
        idx_a = np.searchsorted(ids_sorted, id_a)
        idx_b = np.searchsorted(ids_sorted, id_b)
        va, la = _segment_gather(vals_sorted, offs_sorted, idx_a)
        vb, lb = _segment_gather(vals_sorted, offs_sorted, idx_b)
        jac = score_of(va, la, vb, lb)
        keep = jac >= threshold
        out = pd.DataFrame({"id_a": id_a[keep], "id_b": id_b[keep],
                            score_col: jac[keep]})
        if out.empty:
            return _empty_pairs(score_col)
        return (out.sort_values(["id_a", "id_b"], kind="stable")
                .reset_index(drop=True))

    need = (cand.select_columns(["id_a"]).rename_columns({"id_a": id_col})
            .union(cand.select_columns(["id_b"])
                   .rename_columns({"id_b": id_col}))
            .groupby(id_col).aggregate(Count(alias_name="_n"))
            .select_columns([id_col]))
    docs_needed = _join(ds.select_columns([id_col, text_col]), need,
                        on=(id_col,), num_partitions=num_partitions)
    hset_ds = docs_needed.map_batches(hash_sets, batch_format="pyarrow")
    joined = _attach_sigs(cand.select_columns(["id_a", "id_b"]), hset_ds,
                          id_col, num_partitions)

    def verify(b: pa.Table) -> pa.Table:
        # offsets-buffer CSR reads + one batched sorted-intersection —
        # no per-row Python (VERDICT r2 "Next round" #5)
        va, oa = _hashset_csr(b["sig_a"])
        vb, ob = _hashset_csr(b["sig_b"])
        jac = score_of(va, np.diff(oa), vb, np.diff(ob))
        t = pa.table({"id_a": b["id_a"], "id_b": b["id_b"],
                      score_col: pa.array(jac)})
        return t.filter(pc.greater_equal(t[score_col], threshold))

    out = joined.map_batches(verify, batch_format="pyarrow").to_pandas()
    if out.empty:
        return _empty_pairs(score_col)
    return (out.sort_values(["id_a", "id_b"], kind="stable")
            .reset_index(drop=True))
