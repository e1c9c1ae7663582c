"""Runtime Bloom join filter (bloom semi-join pushdown).

The classic big-big join optimization every distributed SQL engine
ships (Spark/Presto "runtime filter", Snowflake "join pruning"): build
a Bloom filter over the SMALL side's join keys, broadcast it, and drop
non-matching probe-side rows BEFORE they enter the shuffle — exactness
is preserved because false positives merely ride into the hash join
and drop there, while true matches can never be filtered (no false
negatives).  Reuses the engine's own mergeable ``BloomFilter`` (the
reference's BioBloomMaker/Categorizer pair applied to itself:
``BloomFilterGenerator.h:166-183`` insert semantics, broadcast probe
like ``BioBloomClassifier.cpp`` filter banks).

Scale notes: the build is per-block partial filters (same m/seed)
OR-folded — word-exact under any partitioning, the same fold as
``stages/build.PartialBloomBuilder``'s partials — and the merged
filter broadcasts ONCE via ``ray.put``; the probe is a map-only
vectorized ``contains`` per batch.  For fpr 1% the filter costs ~1.2
bytes/key, so a 10^8-key small side broadcasts ~120 MB — far below
shuffling a 10^10-row probe side that is 90% non-matching."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from biobloom_ray.hashing import splitmix64
from biobloom_ray.sketches.bloom import BloomFilter, calc_optimal_size
from biobloom_ray.sketches.fold import fold_partials

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def int_key_hashes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(h1, h2) double-hash pair for int64/uint64 join keys: two
    independent splitmix64 streams; h2 forced odd so the ``h1 + i*h2``
    probe walk cycles the whole filter."""
    k = keys.astype(np.uint64, copy=False)
    h1 = splitmix64(k)
    h2 = splitmix64(k ^ _GOLDEN) | np.uint64(1)
    return h1, h2


def build_key_bloom(ds, col: str, expected: int, fpr: float = 0.01,
                    hash_num: int = 3) -> BloomFilter:
    """Distributed Bloom build over a Dataset's int key column:
    per-block partial filters with identical (m, seed) OR-merge
    word-exactly in any order, through ``fold_partials``."""
    m = calc_optimal_size(max(expected, 1), fpr, hash_num)

    def partial(b: pa.Table) -> pa.Table:
        bf = BloomFilter(m=m, hash_num=hash_num, kmer_size=1)
        keys = b[col].to_numpy(zero_copy_only=False)
        if len(keys):
            bf.insert(*int_key_hashes(keys))
        return pa.table({"blob": pa.array([bf.serialize()],
                                          type=pa.large_binary())})

    folded = fold_partials(ds.map_batches(partial, batch_format="pyarrow"),
                           {"blob": BloomFilter})
    return (folded[None]["blob"] if folded
            else BloomFilter(m=m, hash_num=hash_num, kmer_size=1))


def bloom_semi_filter(ds, col: str, bloom: BloomFilter):
    """Map-only probe-side pruning: keep rows whose key MIGHT be in the
    small side (no false negatives; FPs drop in the real join)."""
    import ray

    ref = ray.put((bloom.words, bloom.m, bloom.hash_num))

    def prune(b: pa.Table) -> pa.Table:
        words, m, h = ray.get(ref)
        bf = BloomFilter(m=m, hash_num=h, kmer_size=1, words=words)
        keys = b[col].to_numpy(zero_copy_only=False)
        if not len(keys):
            return b
        return b.filter(pa.array(bf.contains(*int_key_hashes(keys))))

    return ds.map_batches(prune, batch_format="pyarrow")
