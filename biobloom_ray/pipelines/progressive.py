"""Progressive recruitment build — the BioBloomMaker -r / BioBloomRecruit
mode (T4, ``BloomFilterGenerator.cpp:85-1165``).

Reference semantics: seed a filter from reference sequences, then stream
reads; any read whose score against the CURRENT filter passes the
threshold is itself inserted (recruited), growing the filter until
``m_totalEntries >= m_expectedEntries`` (stop gate at
``BloomFilterGenerator.cpp:176,276-281``); ``-e`` reruns the stream for
extra passes.  A static *bait* filter can be OR-ed into the accept test
(``:300-522``); a subtract filter suppresses scoring of blacklisted
shingles.

This process is inherently order-dependent and self-feeding (a read
recruited early changes the fate of later reads) — it cannot be a pure
mergeable UDAF (SURVEY.md §7.4).  Two Ray designs are provided:

- ``progressive_build(..., strict_order=True)``: the reference's exact
  sequential semantics — the driver iterates ``ds.iter_batches`` (a
  streaming pull, input never materialized) and feeds ONE builder
  state; scoring and insertion are still vectorized per batch.  Within
  a batch, recruitment is bulk-synchronous (all reads scored against
  the filter snapshot at batch start, accepted ones inserted together).
  Divergence from strict per-read order is therefore bounded by one
  batch; shrink ``batch_size`` to shrink it.
- ``strict_order=False``: N-round bulk-synchronous approximation — each
  round scores the WHOLE stream against the round-(r−1) filter snapshot
  in parallel (map_batches partial filters + merge) and unions all
  accepted shingles.  Deterministic, fully distributed, and converges
  to a superset of the sequential result; documented divergence.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from biobloom_ray.config import BuildConfig
from biobloom_ray.hashing import shingle_hashes
from biobloom_ray.scoring import eval_batch
from biobloom_ray.sketches.bloom import BloomFilter, calc_optimal_hash_num, calc_optimal_size
from biobloom_ray.sketches.fold import fold_partials
from biobloom_ray.textnorm import normalize_batch

#: scoring methods whose accept threshold does not depend on the
#: (growing) filter's realized FPR — acceptance is monotone across
#: progressive rounds for exactly these
_MONOTONE_METHODS = frozenset({"simple", "harmonic", "length"})

def _seed_filter(seed_texts, cfg: BuildConfig, expected_entries: int,
                 filter_id: str) -> BloomFilter:
    h = cfg.hash_num or calc_optimal_hash_num(cfg.desired_fpr)
    m = calc_optimal_size(max(expected_entries, 1), cfg.desired_fpr, h)
    bf = BloomFilter(m=m, hash_num=h, kmer_size=cfg.kmer_size, seed=cfg.seed,
                     filter_id=filter_id)
    h1, h2, _ = shingle_hashes(seed_texts, cfg.kmer_size, cfg.seed)
    bf.insert(h1, h2)
    return bf


def _check_probe_compat(bf: BloomFilter, other: BloomFilter | None,
                        role: str) -> None:
    """A bait/subtract filter is probed with hashes derived from
    ``bf``'s (kmer_size, seed) — a mismatch silently degrades its hits
    to FPR noise (the reference's checkFilters guard,
    ``BioBloomClassifier.cpp``)."""
    if other is None:
        return
    if other.kmer_size != bf.kmer_size or other.seed != bf.seed:
        raise ValueError(
            f"{role} filter (k={other.kmer_size}, seed={other.seed:#x}) is "
            f"incompatible with the build filter (k={bf.kmer_size}, "
            f"seed={bf.seed:#x})")


def _texts(batch: pa.Table, text_col: str, normalize: bool) -> pa.Array:
    texts = batch[text_col]
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    return normalize_batch(texts) if normalize else texts


def _score_and_recruit(bf: BloomFilter, texts: pa.Array,
                       threshold: float, method: str,
                       bait: BloomFilter | None,
                       subtract: BloomFilter | None,
                       into: BloomFilter | None) -> np.ndarray:
    """Score a batch against ``bf`` (+ optional bait OR); insert the
    accepted reads' shingles into ``into`` (none when None).  Returns
    the accept mask."""
    h1, h2, nf = shingle_hashes(texts, bf.kmer_size, bf.seed)
    fh = bf.contains(h1, h2)
    sub = subtract.contains(h1, h2) if subtract is not None else None
    acc = eval_batch(fh, nf, bf.kmer_size, method=method,
                     threshold=threshold, bf_fpr=bf.fpr_realized(),
                     subtract_hits=sub)
    if bait is not None:
        bh = bait.contains(h1, h2)
        acc |= eval_batch(bh, nf, bf.kmer_size, method=method,
                          threshold=threshold, bf_fpr=bait.fpr_realized(),
                          subtract_hits=sub)
    if into is not None and acc.any():
        sel = acc[np.repeat(np.arange(len(nf)), nf)]
        into.insert(h1[sel], h2[sel])
    return acc


def progressive_build(
    ds: "ray.data.Dataset",
    seed_texts: list[str],
    cfg: BuildConfig | None = None,
    threshold: float = 0.15,
    method: str = "simple",
    expected_entries: int | None = None,
    max_entries: int | None = None,
    passes: int = 1,
    text_col: str = "text",
    filter_id: str = "recruited",
    bait: BloomFilter | None = None,
    subtract: BloomFilter | None = None,
    strict_order: bool = True,
    normalize: bool = True,
    batch_size: int = 1024,
) -> tuple[BloomFilter, int]:
    """Returns (filter, n_recruited_reads)."""
    cfg = cfg or BuildConfig()
    if expected_entries is None:
        expected_entries = max_entries or 1_000_000
    bf = _seed_filter(seed_texts, cfg, expected_entries, filter_id)
    _check_probe_compat(bf, bait, "bait")
    _check_probe_compat(bf, subtract, "subtract")
    recruited = 0

    if strict_order:
        stopped = False
        for _ in range(passes):
            for batch in ds.iter_batches(batch_size=batch_size,
                                         batch_format="pyarrow"):
                acc = _score_and_recruit(
                    bf, _texts(batch, text_col, normalize), threshold,
                    method, bait, subtract, into=bf)
                # count BEFORE the gate check so the final batch's
                # recruits (already inserted) are never dropped from the
                # returned tally
                recruited += int(acc.sum())
                if max_entries is not None and bf.n_distinct >= max_entries:
                    stopped = True
                    break
            if stopped:
                break
        return bf, recruited

    # bulk-synchronous rounds: score everything against the snapshot,
    # union accepted shingles via partial filters + merge
    bait_ref = ray.put(bait)
    sub_ref = ray.put(subtract)
    for _ in range(passes):
        snap_ref = ray.put(bf)

        def round_partial(batch: pa.Table) -> pa.Table:
            snap: BloomFilter = ray.get(snap_ref)
            part = BloomFilter(m=snap.m, hash_num=snap.hash_num,
                               kmer_size=snap.kmer_size, seed=snap.seed,
                               filter_id=snap.filter_id)
            acc = _score_and_recruit(
                snap, _texts(batch, text_col, normalize), threshold, method,
                ray.get(bait_ref), ray.get(sub_ref), into=part)
            return pa.table({"blob": pa.array([part.serialize()],
                                              type=pa.large_binary()),
                             "n_acc": pa.array([int(acc.sum())])})

        parts = ds.map_batches(round_partial, batch_format="pyarrow",
                               batch_size=batch_size)
        before = bf.popcount()
        round_acc = 0
        for r in fold_partials(parts, {"blob": BloomFilter},
                               sums=("n_acc",)).values():
            bf.merge(r["blob"])
            round_acc = r["n_acc"]
        # For FIXED-threshold methods (simple/harmonic/length) acceptance
        # is MONOTONE across rounds (the filter only grows, so hit counts
        # only grow against a fixed bar): every read accepted in round
        # r−1 is accepted again in round r, so the latest round's accept
        # count IS the cumulative recruit tally — summing rounds would
        # re-count every earlier recruit once per round.  FPR-dependent
        # gates (binomial: the min-count threshold RISES with the merged
        # filter's realized FPR) are not monotone — a read accepted early
        # can fail later — so those get a final counting pass below
        # (ADVICE r2).
        recruited = round_acc
        # Partial-filter merges over-count n_distinct (each per-batch
        # partial counts against its own empty bit array); re-derive the
        # distinct-entry estimate from the merged popcount (Swamidass &
        # Baldi 2007: n ≈ −(m/h)·ln(1 − X/m)) so the stop gate and the
        # filter's FPR metadata track reality.
        pop = bf.popcount()
        import math as _math

        bf.n_distinct = int(round(
            -(bf.m / bf.hash_num) * _math.log(max(1.0 - pop / bf.m, 1e-12))))
        if pop == before:             # converged: no new shingles
            break
        if max_entries is not None and bf.n_distinct >= max_entries:
            break
    if method not in _MONOTONE_METHODS:
        # FPR-dependent gate: the last round's accept count is not a
        # valid cumulative tally (see comment above) — run one counting
        # pass against the FINAL filter so the reported recruits are the
        # reads the returned filter actually accepts.
        final_ref = ray.put(bf)

        def count_final(batch: pa.Table) -> pa.Table:
            acc = _score_and_recruit(
                ray.get(final_ref), _texts(batch, text_col, normalize),
                threshold, method, ray.get(bait_ref), ray.get(sub_ref),
                into=None)
            return pa.table({"n_acc": pa.array([int(acc.sum())])})

        recruited = sum(
            r["n_acc"] for r in ds.map_batches(
                count_final, batch_format="pyarrow",
                batch_size=batch_size).take_all())
    return bf, recruited
