"""Deduplication stages (graft additions for training-data pipelines).

Every variant is expressed Ray-Data-first:

- exact        — content-hash per batch → first-wins winners: per-block
                 (hash, min-id) partials combine on the driver below
                 ``EXACT_DEDUP_DRIVER_MAX_ROWS``, a native
                 ``groupby(hash).min(id)`` + hash semi-join above (the
                 shuffle key is the 32-hex md5, never the text)
- minhash-LSH  — shingle → minhash signature checkpoint (object store
                 below ``SIG_CHECKPOINT_MAX_ROWS``, a temporary parquet
                 directory above; 1 KB/doc ≈ 1-3 % of corpus bytes) →
                 LSH pairs in two tiers: up to ``BAND_DRIVER_MAX_ROWS``
                 band rows the signature matrix comes to the driver and
                 :func:`_band_pairs_np` bands, buckets and verifies it in
                 numpy; above, NARROW band rows (band_key, id; 16 B/row)
                 feed one native per-bucket aggregate, the candidate
                 pairs stay a Dataset (:func:`_candidate_pairs_cluster`)
                 and the pair verifier scores them
- simhash      — 64-bit fingerprints → band blocking → Hamming verify;
                 the same two tiers, with the 8-byte fp riding in the
                 band rows, so no verifier is needed
- n-gram       — MinHash candidates → exact shingle-set Jaccard or
                 containment through the pair verifier
- embedding    — random-hyperplane LSH buckets → exact in-bucket cosine
                 verify, in :mod:`biobloom_ray.stages.ann`

Two kernels are shared by every LSH path:

* :func:`_bucket_pairs` turns sorted band keys into the pairs of each
  bucket — c==2 buckets vectorized, bigger ones via ``triu`` over
  their ``MAX_BUCKET`` smallest ids (a degenerate key, e.g. boilerplate
  shared by thousands of docs, truncates deterministically);
* :func:`_verify_pairs` attaches side a's and side b's ``<u8``-word
  blobs to candidate pairs and keeps the pairs whose per-metric score
  passes — on the driver up to ``BROADCAST_LIMIT`` pairs (one filtered
  scan per side fetches just the needed blobs), through two hash joins
  above, so nothing driver-bound grows with the corpus.  It serves the
  MinHash est-Jaccard verify, both n-gram metrics and the curation
  runner's cross-partition join.

Band rows carry ONLY (band_key, doc_id[, fp]) — signatures move at most
twice, via hash joins keyed on the candidate ids.  The dominant case,
a bucket of exactly 2 docs, is a pair straight from the native
``Count/Min(id)/Max(id)`` aggregate, and only buckets with ≥2 docs
leave it: driver traffic is proportional to the op's OUTPUT (near-dup
pairs), not the corpus.  Buckets with ≥3 docs are a sparse tail whose
rows a semi-join selects for pair expansion.

The reference's only dedup is the Bloom ``insertAndCheck`` first-wins
shingle dedup (``BloomFilterGenerator.h:171``, SURVEY.md §2.7 D1); the
exact variant here is its hash-partitioned exact counterpart.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ray.data.aggregate import Count, Max, Min

from biobloom_ray.hashing import U64, shingle_hashes
from biobloom_ray.sketches.minhash import lsh_band_keys, minhash_signatures
from biobloom_ray.sketches.simhash import (
    hamming_distance,
    simhash_band_keys,
    simhash_fingerprints,
)
from biobloom_ray.textnorm import content_md5_batch

from biobloom_ray.io import cheap_count as _cheap_count
from biobloom_ray.io import hash_join as _join

#: band-row gate of the LSH tiers: up to this many band rows (docs ×
#: bands) a near-dup op buckets on the driver; above, in the cluster.
#: Module-level, like every gate here, so tests and the bench can force
#: the cluster tiers
BAND_DRIVER_MAX_ROWS = 4_000_000

#: candidate-pair gate of :func:`_verify_pairs`: up to this many pairs
#: they come to the driver and one filtered scan per side fetches their
#: blobs; above, two hash joins attach the blobs in the cluster
BROADCAST_LIMIT = 50_000

#: pairs of one LSH bucket come from at most its this-many smallest ids
MAX_BUCKET = 2000


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


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id"):
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
    return _join(ds, winners, on=(id_col,))


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
        # is bit-identical, and web text repeats shingles heavily.  One
        # single-key sort does it: the row sits in the top b bits of the
        # key and the hash's high 64-b bits below it.  An element goes
        # only when its key AND full hash equal its predecessor's (a true
        # duplicate); one left behind by a key tie is harmless
        nrow = len(nf)
        if len(h1):
            b = U64(max((nrow - 1).bit_length(), 1))
            top = U64(64) - b
            key = (np.repeat(np.arange(nrow, dtype=U64), nf) << top) \
                | (h1 >> b)
            order = np.argsort(key)
            ks, hs = key[order], h1[order]
            first = np.r_[True, (ks[1:] != ks[:-1]) | (hs[1:] != hs[:-1])]
            h1 = hs[first]
            nf = np.bincount((ks[first] >> top).astype(np.int64),
                             minlength=nrow)
        sig = minhash_signatures(h1, nf, self.num_perm, self.seed)
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
    if n == 0:
        return np.empty((0, num_perm), dtype=np.uint64)
    w = num_perm * 8
    off_dtype = np.int64 if pa.types.is_large_binary(col.type) else np.int32
    bufs = col.buffers()
    offs = np.frombuffer(bufs[1], dtype=off_dtype,
                         count=col.offset + n + 1)[col.offset:]
    start = int(offs[0])
    if offs[-1] - start == n * w and len(bufs[2]) >= start + n * w:
        return np.frombuffer(bufs[2], dtype="<u8", offset=start,
                             count=n * num_perm).reshape(n, num_perm)
    return np.stack([np.frombuffer(v.as_py(), dtype="<u8") for v in col])


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


def _pairs_table(id_a, id_b, score, score_col: str) -> pa.Table:
    return pa.table({"id_a": pa.array(id_a, type=pa.int64()),
                     "id_b": pa.array(id_b, type=pa.int64()),
                     score_col: pa.array(score, type=pa.float64())})


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


def _collect(ds) -> pa.Table | None:
    """A (small) Dataset as one driver table; None when it has no
    rows."""
    import ray

    blocks = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(blocks) if blocks else None


def _collect_numpy(ds, cols: list[str]) -> dict[str, np.ndarray]:
    """A (small) Dataset's columns as driver numpy arrays."""
    t = _collect(ds)
    return {c: (t[c].to_numpy() if t is not None
                else np.empty(0, dtype=np.int64)) for c in cols}


# ---------------------------------------------------------------------------
# CSR hash-set kernels (shared by the Jaccard verify paths — no per-row
# Python, VERDICT r2 "Next round" #5)
# ---------------------------------------------------------------------------

def _hashset_csr(col) -> tuple[np.ndarray, np.ndarray]:
    """Binary column of ``<u8``-word blobs (sorted-unique shingle sets or
    MinHash signatures) → (values, offsets in ELEMENTS) read straight
    off the Arrow offsets/data buffers (honors ``Array.offset``; every
    blob is a whole number of u8 words so the element offsets divide
    exactly)."""
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


def _est_jaccard_from_sigs(va, la, vb, lb) -> np.ndarray:
    """MinHash est-Jaccard per pair of equal-width signature blobs in
    the CSR layout of the set scorers: the fraction of agreeing
    components."""
    n = len(la)
    if not n:
        return np.empty(0, dtype=np.float64)
    return (va.reshape(n, -1) == vb.reshape(n, -1)).mean(axis=1)


# ---------------------------------------------------------------------------
# the two shared LSH kernels: bucket → pairs, and the pair verifier
# ---------------------------------------------------------------------------

def _bucket_pairs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(i, j)``, ``i < j``, of every two positions of
    ``keys`` in the same bucket.  ``keys`` are band keys sorted so that
    equal keys are adjacent, in the order the pair sides should take
    (callers sort ids ascending within a key).  c==2 buckets pair
    vectorized; bigger ones via ``triu`` over their first
    ``MAX_BUCKET`` positions."""
    n = len(keys)
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    sizes = np.diff(np.r_[starts, n])
    two = starts[sizes == 2]
    ia, ib = [two], [two + 1]
    for s, c in zip(starts[sizes > 2], sizes[sizes > 2]):
        ii, jj = np.triu_indices(min(c, MAX_BUCKET), k=1)
        ia.append(s + ii)
        ib.append(s + jj)
    return np.concatenate(ia), np.concatenate(ib)


def _distinct_pairs(pairs):
    """Native (id_a, id_b) groupby: one row per pair found in several
    bands."""
    return (pairs.groupby(["id_a", "id_b"])
            .aggregate(Count(alias_name="_n"))
            .select_columns(["id_a", "id_b"]))


def _verify_pairs(cand, side_a, side_b, score, threshold: float,
                  score_col: str, id_col: str = "doc_id", blob=None):
    """The pair verifier: attach side a's and side b's ``sig`` blobs
    (whole ``<u8`` words: MinHash signatures or sorted-unique shingle
    sets) to the candidate pairs ``cand`` (a Dataset of distinct
    ``id_a, id_b``) and keep the pairs whose
    ``score(va, la, vb, lb)`` ≥ ``threshold``, as a Dataset of
    ``id_a, id_b, score_col``.

    ``side_a`` and ``side_b`` hold the rows the ids index (pass the same
    Dataset twice for pairs within one table).  ``blob``, when given,
    maps a side's picked rows to ``id_col, sig`` — so shingle sets are
    built only for docs in a pair; it needs ``side_a is side_b``.

    Up to ``BROADCAST_LIMIT`` pairs the pairs come to the driver, one
    filtered scan per side fetches the needed blobs and the score runs
    over 8,192-pair chunks; above, two hash joins attach the blobs (a
    ``blob`` side is first semi-joined to the ids in a pair) and the
    score runs per batch in the cluster."""
    import ray.data as rd

    cand = cand.materialize()
    n = cand.count()
    if n == 0:
        return rd.from_arrow(_pairs_table([], [], [], score_col))
    if n <= BROADCAST_LIMIT:
        got = _collect_numpy(cand, ["id_a", "id_b"])
        id_a, id_b = got["id_a"], got["id_b"]

        def fetch(side, ids):
            """CSR of the wanted blobs, and each id's row in it."""
            picked = side.map_batches(_isin_filter(id_col, np.unique(ids)),
                                      batch_format="pyarrow")
            if blob is not None:
                picked = picked.map_batches(blob, batch_format="pyarrow")
            t = _collect(picked)
            have = t[id_col].to_numpy()
            order = np.argsort(have, kind="stable")
            rows = order[np.searchsorted(have[order], ids)]
            return _hashset_csr(t["sig"]), rows

        if side_b is side_a:
            (vals, offs), rows = fetch(side_a, np.r_[id_a, id_b])
            csr_a = csr_b = (vals, offs)
            ra, rb = rows[:n], rows[n:]
        else:
            csr_a, ra = fetch(side_a, id_a)
            csr_b, rb = fetch(side_b, id_b)
        est = np.concatenate([
            score(*_segment_gather(*csr_a, ra[s:s + (1 << 13)]),
                  *_segment_gather(*csr_b, rb[s:s + (1 << 13)]))
            for s in range(0, n, 1 << 13)])
        keep = est >= threshold
        return rd.from_arrow(_pairs_table(id_a[keep], id_b[keep],
                                          est[keep], score_col))

    if blob is not None:
        need = (cand.select_columns(["id_a"]).rename_columns({"id_a": id_col})
                .union(cand.select_columns(["id_b"])
                       .rename_columns({"id_b": id_col}))
                .groupby(id_col).aggregate(Count(alias_name="_n"))
                .select_columns([id_col]))
        side_a = side_b = _join(side_a, need, on=(id_col,)).map_batches(
            blob, batch_format="pyarrow")
    j = _join(cand, side_a, on=("id_a",), right_on=(id_col,))
    j = _join(j, side_b, on=("id_b",), right_on=(id_col,),
              left_suffix="_a", right_suffix="_b")

    def verify(b: pa.Table) -> pa.Table:
        va, oa = _hashset_csr(b["sig_a"])
        vb, ob = _hashset_csr(b["sig_b"])
        t = _pairs_table(b["id_a"], b["id_b"],
                         score(va, np.diff(oa), vb, np.diff(ob)), score_col)
        return t.filter(pc.greater_equal(t[score_col], threshold))

    return j.map_batches(verify, batch_format="pyarrow")


def _sig_agreement(sa: np.ndarray, ia: np.ndarray, sb: np.ndarray,
                   ib: np.ndarray) -> np.ndarray:
    """MinHash est-Jaccard of each pair (row ``ia[j]`` of ``sa``, row
    ``ib[j]`` of ``sb``): the fraction of agreeing components, in pair
    chunks so a long pair list does not set the driver's peak."""
    est = np.empty(len(ia), dtype=np.float64)
    for s in range(0, len(ia), 1 << 13):
        e = s + (1 << 13)
        est[s:e] = (sa[ia[s:e]] == sb[ib[s:e]]).mean(axis=1)
    return est


def _band_pairs_np(ids: np.ndarray, sigs: np.ndarray, num_bands: int,
                   threshold: float):
    """Driver band → bucket → verify over a signature matrix: the
    ``(id_a, id_b, est_jaccard)`` pairs with est ≥ ``threshold``, sorted
    by (id_a, id_b).  One stable sort of the band keys finds every
    bucket (no Ray shuffle) and :func:`_bucket_pairs` pairs them.
    Zero-shingle rows (all-sentinel signature) never band — see
    :func:`_band_rows`."""
    from biobloom_ray.sketches.minhash import _EMPTY_SENTINEL

    ne = sigs[:, 0] != _EMPTY_SENTINEL
    order = np.argsort(ids[ne], kind="stable")
    ids, sigs = ids[ne][order], sigs[ne][order]
    n = len(ids)
    if n == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64))
    # rows are in id order, so a row index stands for its id below
    ks = lsh_band_keys(sigs, num_bands).reshape(-1).view(np.int64)
    order = np.argsort(ks, kind="stable")
    rows = np.repeat(np.arange(n, dtype=np.int64), num_bands)[order]
    i, j = _bucket_pairs(ks[order])
    pk = np.unique(rows[i] * n + rows[j])
    ra, rb = pk // n, pk % n
    est = _sig_agreement(sigs, ra, sigs, rb)
    keep = est >= threshold
    return ids[ra[keep]], ids[rb[keep]], est[keep]


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


def _candidate_pairs_cluster(dup_ds, band, id_col: str):
    """Cluster tier's distinct candidate pairs as a Dataset end-to-end —
    the driver never sees a pair (VERDICT r2 "Next round" #4).  c==2
    buckets project to pairs natively; c≥3 bucket rows are selected by
    a hash semi-join on the bucket key and pair-expanded by
    :func:`_bucket_pairs` inside ``map_groups``; pairs found in several
    bands are deduplicated natively."""

    def two_pairs(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["c"], 2))
        return pa.table({"id_a": t["id_a"], "id_b": t["id_b"]})

    pairs = dup_ds.map_batches(two_pairs, batch_format="pyarrow")

    big_keys = (dup_ds.map_batches(
        lambda b: b.filter(pc.greater(b["c"], 2)), batch_format="pyarrow")
        .select_columns(["band_key"]))
    if big_keys.count():  # cheap: parent is materialized
        rows = _join(band, big_keys, on=("band_key",))

        def expand(g: pa.Table) -> pa.Table:
            ids = np.sort(g[id_col].to_numpy(zero_copy_only=False),
                          kind="stable")
            i, j = _bucket_pairs(g["band_key"].to_numpy())
            return pa.table({"id_a": pa.array(ids[i]),
                             "id_b": pa.array(ids[j])})

        pairs = pairs.union(
            rows.groupby("band_key").map_groups(expand,
                                                batch_format="pyarrow"))
    return _distinct_pairs(pairs)


#: above this many signature rows the checkpoint goes to parquet instead
#: of pinning ~1 KB/doc in the object store for the pipeline's lifetime
#: (VERDICT r2 "Next round" #6); ~5 GB at 128 perms
SIG_CHECKPOINT_MAX_ROWS = 5_000_000


@contextlib.contextmanager
def _sig_checkpoint(ds, stage):
    """Yield the materialized signature table and the input's cheap row
    count — in the object store up to ``SIG_CHECKPOINT_MAX_ROWS`` rows,
    above as parquet written to a fresh temporary directory and read
    back.  The directory is removed on exit, so a caller consumes the
    signatures inside the ``with`` block."""
    import shutil
    import tempfile

    import ray.data as rd

    sig_ds = ds.map_batches(stage, batch_format="pyarrow")
    n = _cheap_count(ds)
    if n is None or n <= SIG_CHECKPOINT_MAX_ROWS:
        yield sig_ds.materialize(), n
        return
    d = tempfile.mkdtemp(prefix="minhash_sigs_")
    try:
        sig_ds.write_parquet(d)
        yield rd.read_parquet(d), n
    finally:
        shutil.rmtree(d, ignore_errors=True)


def minhash_neardup_pairs_ds(ds, text_col: str = "text",
                             id_col: str = "doc_id", threshold: float = 0.7,
                             shingle_k: int = 5, num_perm: int = 128,
                             num_bands: int = 16):
    """Near-duplicate pairs with estimated Jaccard ≥ threshold, as a
    materialized Dataset (id_a, id_b, est_jaccard).

    shingle → minhash signature checkpoint (:func:`_sig_checkpoint`) →
    :func:`minhash_pairs_from_sigs`."""
    stage = MinHashSigStage(text_col, id_col, shingle_k, num_perm)
    with _sig_checkpoint(ds, stage) as (sig_ds, n_in):
        return minhash_pairs_from_sigs(
            sig_ds, n_in, id_col=id_col, threshold=threshold,
            num_perm=num_perm, num_bands=num_bands).materialize()


def minhash_pairs_from_sigs(sig_ds, n_in, id_col: str = "doc_id",
                            threshold: float = 0.7, num_perm: int = 128,
                            num_bands: int = 16):
    """The post-signature half of :func:`minhash_neardup_pairs_ds`:
    band → bucket → candidate pairs → signature verify, starting from a
    MATERIALIZED signature Dataset (id, sig blob).  Exposed so callers
    that already hold the signature table — e.g. the resumable curation
    runner, which also checkpoints it per partition — don't pay the
    shingle+permute scan twice.

    Two tiers.  Up to ``BAND_DRIVER_MAX_ROWS`` band rows (``n_in`` known
    and ``n_in · num_bands`` within the gate) the signature table comes
    to the driver (1 KB/doc at 128 perms, ≤ 256 MB at the default gate)
    and :func:`_band_pairs_np` bands, buckets and verifies it in numpy —
    no shuffle.  Above, ONE native groupby aggregate buckets the narrow
    band rows, the candidates stay a Dataset
    (:func:`_candidate_pairs_cluster`) and :func:`_verify_pairs` scores
    them."""
    import ray.data as rd

    if n_in is not None and n_in * num_bands <= BAND_DRIVER_MAX_ROWS:
        t = _collect(sig_ds)
        if t is None:
            return rd.from_arrow(_pairs_table([], [], [], "est_jaccard"))
        return rd.from_arrow(_pairs_table(
            *_band_pairs_np(t[id_col].to_numpy(),
                            _sig_matrix(t["sig"], num_perm), num_bands,
                            threshold), "est_jaccard"))

    band = sig_ds.map_batches(
        lambda b: _band_rows(b, id_col, num_perm, num_bands),
        batch_format="pyarrow")
    cand = _candidate_pairs_cluster(_dup_buckets(band, id_col), band,
                                    id_col)
    return _verify_pairs(cand, sig_ds, sig_ds, _est_jaccard_from_sigs,
                         threshold, "est_jaccard", id_col)


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
    return ds.map_batches(_isin_filter(id_col, drop, keep=False),
                          batch_format="pyarrow")


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


def _simhash_pairs_from_rows(rows: dict, id_col: str, max_hamming: int):
    """Bucket + Hamming-verify pre-collected (band_key, id, fp) rows:
    one lexsort, then :func:`_bucket_pairs`."""
    order = np.lexsort((rows[id_col], rows["band_key"]))
    i, j = _bucket_pairs(rows["band_key"][order])
    i, j = order[i], order[j]
    fp = rows["fp"].view(np.uint64)
    d = hamming_distance(fp[i], fp[j])
    keep = d <= max_hamming
    return rows[id_col][i][keep], rows[id_col][j][keep], d[keep]


def simhash_neardup_pairs(ds, text_col: str = "text", id_col: str = "doc_id",
                          max_hamming: int = 3, shingle_k: int = 5,
                          num_bands: int = 4):
    """Pairs within Hamming distance ≤ max_hamming of 64-bit SimHash.
    Blocking: identical band in any of ``num_bands`` bands (covers all
    pairs with < num_bands differing bits by pigeonhole).

    Same tiers as minhash: up to ``BAND_DRIVER_MAX_ROWS`` band rows the
    whole narrow (band_key, id, fp) table streams to the driver and one
    lexsort buckets it (no shuffle); above that, ONE narrow
    groupby-aggregate shuffle — c==2 buckets yield (min_id, max_id,
    min_fp, max_fp) natively ({Min(fp), Max(fp)} IS the fp pair for a
    2-row group, and Hamming is symmetric so the id↔fp association is
    irrelevant), only ≥2-doc buckets (output scale) leave the cluster,
    and the sparse c≥3 tail triggers one extra filtered scan.
    """
    stage = SimHashStage(text_col, id_col, shingle_k, num_bands)
    band = ds.map_batches(stage, batch_format="pyarrow")
    cols = ["band_key", id_col, "fp"]

    n_in = _cheap_count(ds)
    if n_in is not None and n_in * num_bands <= BAND_DRIVER_MAX_ROWS:
        return _finish_simhash_pairs([_simhash_pairs_from_rows(
            _collect_numpy(band, cols), id_col, max_hamming)])

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
    parts = [(dup["id_a"][two][keep2], dup["id_b"][two][keep2], d2[keep2])]

    big_keys = np.sort(dup["band_key"][~two])
    if len(big_keys):
        rows = _collect_numpy(
            band.map_batches(_isin_filter("band_key", big_keys),
                             batch_format="pyarrow"), cols)
        parts.append(_simhash_pairs_from_rows(rows, id_col, max_hamming))
    return _finish_simhash_pairs(parts)


def _finish_simhash_pairs(parts) -> pd.DataFrame:
    id_a, id_b, ham = (np.concatenate(p) for p in zip(*parts))
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
                        candidate_threshold: float = 0.3):
    return _ngram_metric_pairs(
        ds, "jaccard", text_col, id_col, threshold, shingle_k, num_perm,
        num_bands, candidate_threshold)


def ngram_containment_pairs(ds, text_col: str = "text",
                            id_col: str = "doc_id",
                            threshold: float = 0.8, shingle_k: int = 5,
                            num_perm: int = 128, num_bands: int = 16,
                            candidate_threshold: float = 0.3):
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
        ds, "containment", text_col, id_col, threshold, shingle_k,
        num_perm, num_bands, candidate_threshold)


def _hash_set_stage(text_col: str, id_col: str, shingle_k: int):
    """map_batches callable: per-doc sorted-unique shingle-hash sets as
    ``<u8`` blobs (``id_col, sig``) — one (row, hash) lexsort dedups
    every row at once; no per-row Python."""

    def hash_sets(b: pa.Table) -> pa.Table:
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

    return hash_sets


def _ngram_metric_pairs(ds, metric, text_col="text", id_col="doc_id",
                        threshold=0.5, shingle_k=5, num_perm=128,
                        num_bands=16, candidate_threshold=0.3):
    """MinHash-LSH candidates (est-Jaccard ≥ ``candidate_threshold``)
    verified with the EXACT n-gram ``metric`` ("jaccard" or
    "containment") of their shingle-hash sets by :func:`_verify_pairs`
    — fully distributed above its gate (round-2 redesign, VERDICT.md
    "Next round" #4)."""
    score = (_containment_from_sets if metric == "containment"
             else _jaccard_from_sets)
    cand = minhash_neardup_pairs_ds(
        ds, text_col, id_col, threshold=candidate_threshold,
        shingle_k=shingle_k, num_perm=num_perm, num_bands=num_bands)
    docs = ds.select_columns([id_col, text_col])
    out = _verify_pairs(cand.select_columns(["id_a", "id_b"]), docs, docs,
                        score, threshold, metric, id_col,
                        blob=_hash_set_stage(text_col, id_col, shingle_k)
                        ).to_pandas()
    if out.empty:
        return _empty_pairs(metric)
    return (out.sort_values(["id_a", "id_b"], kind="stable")
            .reset_index(drop=True))
