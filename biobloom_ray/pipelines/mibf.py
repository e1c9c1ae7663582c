"""miBF build (3-pass) and classify — biobloommimaker /
biobloommicategorizer analogues (T5/T6; ``MIBFGen.hpp:132-415``,
``MIBFClassifier.hpp:201-617``).

Build passes, each a Ray Data sweep whose partials merge order-free:

1. **bit vector**: per-block partial bit arrays OR-merge (exactly the
   plain-Bloom UDAF); rank array built once on the merged vector.
2. **ID assignment**: per block, every (frame, id) probes its slots and
   bids ``ownership_key(slot, id)``; the minimum bid per slot wins.
   min is associative+commutative → any merge order yields the same
   filter (deterministic stand-in for the reference's sequential RNG
   fair assignment — documented in sketches/mibf.py).  Bids shuffle
   once, sharded by slot, and reduce to per-slot winners in the
   cluster (ties broken by id) — bit-identical under any block
   layout, batch size or task retry order.
3. **saturation**: (frame, id) pairs that lost every slot mark their
   slots saturated (``MIBFGen.hpp:252-258``) — per-block sparse slot
   sets, OR-merged.

Classification (``MIBFClassifier.hpp``): per read, count frames
supporting each ID (a frame supports an ID when any of the h probes
reports it); best ID matches when its frame count clears the binomial
minimum count at that ID's frame probability (memoized per frame
length, ``:773-795``); best-vs-secondary gap ≤ ``multi_thresh`` →
multiMatch (the ``-m`` knob, ``Doc/MultiIndex.md:156``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from biobloom_ray.hashing import shingle_hashes
from biobloom_ray.io import cluster_cpus
from biobloom_ray.scoring import _binom_sf_table, calc_min_count
from biobloom_ray.sketches.bloom import BloomFilter
from biobloom_ray.sketches.fold import fold_partials
from biobloom_ray.sketches.mibf import (
    ID_MASK,
    MAX_IDS,
    SATURATED,
    MIBloomFilter,
    ownership_key,
)
from biobloom_ray.textnorm import normalize_batch

NO_MATCH = "noMatch"
MULTI_MATCH = "multiMatch"
U64_ROW = np.uint64(0x9E3779B97F4A7C15)  # row-mixing multiplier


# adaptive-path gates (module-level so tests can force the cluster
# paths on small inputs): below these sizes the per-block partials
# reduce on the driver with the same order-free comparators
DRIVER_REDUCE_MAX_SLOTS = 2 ** 22
#: below this many input DOCS the whole build collects the (normalized
#: text, label) pairs once and runs every pass locally — the 3-pass
#: distributed build costs ~1 s of Dataset orchestration per pass, which
#: dominates tiny reference corpora; the local build is bit-identical
#: (HLL registers are order-free maxes, ownership is a global min, and
#: saturation is a set union)
DRIVER_BUILD_MAX_ROWS = 10_000


def _texts(batch: pa.Table, text_col: str, normalize: bool) -> pa.Array:
    t = batch[text_col]
    if isinstance(t, pa.ChunkedArray):
        t = t.combine_chunks()
    return normalize_batch(t) if normalize else t


def _build_mibf_local(texts: pa.Array, labels: np.ndarray, kmer_size: int,
                      hash_num: int, occupancy: float, seed: int,
                      spaced_seeds: list[str]) -> MIBloomFilter:
    """Driver-tier build from collected (normalized text, label) pairs —
    bit-identical to the distributed 3-pass build (same HLL sizing, same
    global-min fair ownership, same saturation set), parity-pinned by
    tests."""
    import math

    from biobloom_ray.sketches.hll import HLL

    names = sorted(set(labels.tolist()))
    if len(names) > MAX_IDS:
        raise ValueError(f"miBF supports at most {MAX_IDS} labels")
    nmap = {n: i + 1 for i, n in enumerate(names)}

    hll = HLL(p=14)
    if spaced_seeds:
        from biobloom_ray.hashing import spaced_seed_hashes

        h, _ = spaced_seed_hashes(texts, spaced_seeds, seed)
        hll.update(h.reshape(-1))
    else:
        h1, _, _ = shingle_hashes(texts, kmer_size, seed)
        hll.update(h1)
    n_distinct = max(int(hll.estimate()), 64)
    n_positions = n_distinct if spaced_seeds else n_distinct * hash_num
    m = int(n_positions / math.log(1.0 / (1.0 - occupancy)))
    m += 64 - m % 64

    proto = MIBloomFilter(m=m, hash_num=hash_num, kmer_size=kmer_size,
                          seed=seed, id_names=names,
                          spaced_seeds=spaced_seeds)
    pos, nf, _ = proto.frame_hashes(texts)
    proto.set_bits(pos)
    proto.build_rank()

    row_ids = np.array([nmap[l] for l in labels], dtype=np.uint16)
    frame_ids = np.repeat(row_ids, nf)
    slots = proto.rank(pos)
    flat_slots = slots.reshape(-1)
    flat_ids = np.repeat(frame_ids, hash_num)
    keys = ownership_key(flat_slots, flat_ids)
    order = np.lexsort((flat_ids, keys, flat_slots))
    s_sorted = flat_slots[order]
    first = np.empty(len(order), dtype=bool)
    if len(order):
        first[0] = True
        first[1:] = s_sorted[1:] != s_sorted[:-1]
    win = order[first]
    best_id = np.zeros(proto.n_slots, dtype=np.uint16)
    best_id[flat_slots[win]] = flat_ids[win]
    proto.ids = best_id

    owners = proto.ids[slots] & ID_MASK
    lost = (owners != frame_ids[:, None]).all(axis=1)
    proto.ids[np.unique(slots[lost].reshape(-1))] |= SATURATED
    return proto


def build_mibf(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    label_col: str = "filter_id",
    kmer_size: int = 8,
    hash_num: int = 3,
    occupancy: float = 0.5,
    seed: int | None = None,
    normalize: bool = True,
    batch_size: int = 2048,
    spaced_seeds: list[str] | None = None,
    n_rows: int | None = None,
) -> MIBloomFilter:
    """``spaced_seeds``: '1'/'0' strings of equal length — when given,
    probes hash only the care positions of each seed (the reference's
    stHashIterator mode, the recommended miBF configuration per
    Doc/MultiIndex.md §4); kmer_size/hash_num derive from the seeds.

    Tiered: below ``DRIVER_BUILD_MAX_ROWS`` docs (``n_rows`` hint, or
    ``cheap_count`` for pure reads / in-memory inputs) the corpus
    collects once and the build runs locally; above it the distributed
    3-pass build (folded OR, slot-sharded min, dedup saturation) runs."""
    from biobloom_ray.hashing import DEFAULT_SEED
    from biobloom_ray.io import cheap_count

    seed = DEFAULT_SEED if seed is None else seed
    spaced_seeds = list(spaced_seeds or [])
    if spaced_seeds:
        kmer_size = len(spaced_seeds[0])
        hash_num = len(spaced_seeds)

    if n_rows is None:
        n_rows = cheap_count(ds)
    if n_rows is not None and n_rows <= DRIVER_BUILD_MAX_ROWS:
        t_parts, l_parts = [], []
        for b in ds.iter_batches(batch_size=batch_size,
                                 batch_format="pyarrow"):
            t_parts.append(_texts(b, text_col, normalize))
            l_parts.append(b[label_col].to_pandas().to_numpy())
        texts = pa.chunked_array(t_parts).combine_chunks() if t_parts \
            else pa.array([], type=pa.large_string())
        labels = (np.concatenate(l_parts) if l_parts
                  else np.empty(0, dtype=object))
        return _build_mibf_local(texts, labels, kmer_size, hash_num,
                                 occupancy, seed, spaced_seeds)

    # pass 0 (FUSED, round 3): ONE scan emits both per-block partials —
    # the distinct labels (id table, ≤ 32767, Doc/MultiIndex.md:165) and
    # the HLL sizing sketch — instead of two Dataset executions; each
    # pass over the input costs ~1 s fixed at sf0.1, so fusing halves
    # the pre-pass cost.  A block emits one row per label it holds and
    # its HLL on the first of them, so the folded keys are the label
    # names and the union of the folded HLLs is the corpus HLL
    import math

    from biobloom_ray.sketches.hll import HLL

    def pass0(b: pa.Table) -> pa.Table:
        hll = HLL(p=14)
        texts = _texts(b, text_col, normalize)
        if spaced_seeds:
            from biobloom_ray.hashing import spaced_seed_hashes

            h, _ = spaced_seed_hashes(texts, spaced_seeds, seed)
            hll.update(h.reshape(-1))
        else:
            h1, _, _ = shingle_hashes(texts, kmer_size, seed)
            hll.update(h1)
        labels = pc.unique(b[label_col]).cast(pa.large_string())
        blobs = [b""] * len(labels)
        if blobs:
            blobs[0] = hll.serialize()
        return pa.table({"label": labels,
                         "blob": pa.array(blobs, type=pa.large_binary())})

    folded = fold_partials(ds.map_batches(pass0, batch_format="pyarrow",
                                          batch_size=batch_size),
                           {"blob": HLL}, key="label")
    names = list(folded)
    if len(names) > MAX_IDS:
        raise ValueError(f"miBF supports at most {MAX_IDS} labels")
    name_to_id = {n: i + 1 for i, n in enumerate(names)}

    # size for the target occupancy from the DISTINCT shingle count:
    # popcount/m = occupancy ⇒ m = n·h / ln(1/(1−occ))
    hacc = HLL(p=14)
    for r in folded.values():
        if r["blob"] is not None:
            hacc.merge(r["blob"])
    n_distinct = max(int(hacc.estimate()), 64)
    # distinct spaced hashes ARE the set positions; k-mer mode sets
    # hash_num positions per distinct shingle
    n_positions = n_distinct if spaced_seeds else n_distinct * hash_num
    m = int(n_positions / math.log(1.0 / (1.0 - occupancy)))
    m += 64 - m % 64

    proto = MIBloomFilter(m=m, hash_num=hash_num, kmer_size=kmer_size,
                          seed=seed, id_names=names,
                          spaced_seeds=spaced_seeds)

    # ---- pass 1: bit vector (order-free OR fold of partials) ---------------
    # Dense per-block bitmaps, each a plain Bloom blob, fold through
    # fold_partials.
    def pass1(b: pa.Table) -> pa.Table:
        part = MIBloomFilter(m=m, hash_num=hash_num, kmer_size=kmer_size,
                             seed=seed, spaced_seeds=spaced_seeds)
        texts = _texts(b, text_col, normalize)
        pos, _, _ = part.frame_hashes(texts)
        part.set_bits(pos)
        bf = BloomFilter(m=m, hash_num=hash_num, kmer_size=kmer_size,
                         seed=seed, words=part.words)
        return pa.table({"blob": pa.array([bf.serialize()],
                                          type=pa.large_binary())})

    p1 = ds.map_batches(pass1, batch_format="pyarrow",
                        batch_size=batch_size)
    for r in fold_partials(p1, {"blob": BloomFilter}).values():
        np.bitwise_or(proto.words, r["blob"].words, out=proto.words)
    proto.build_rank()
    n_slots = proto.n_slots

    # ---- pass 2: deterministic fair ownership (sharded min-reduce) --------
    # Per-block local-min bids shuffle once, sharded by slot range; each
    # shard reduces to ONE winner per slot (lexsort by (slot, key, id) —
    # fully order-free, ties broken by id, so rebuilds are bit-identical
    # under any partitioning).  The driver receives only final winners,
    # never a stream of competing bids (no last-write-wins hazard).
    snap_ref = ray.put(proto)
    name_map_ref = ray.put(name_to_id)
    n_shards = max(4, cluster_cpus())

    def pass2(b: pa.Table) -> pa.Table:
        snap: MIBloomFilter = ray.get(snap_ref)
        nmap = ray.get(name_map_ref)
        texts = _texts(b, text_col, normalize)
        pos, nf, _ = snap.frame_hashes(texts)
        labels = b[label_col].to_pandas().to_numpy()
        row_ids = np.array([nmap[l] for l in labels], dtype=np.uint16)
        frame_ids = np.repeat(row_ids, nf)
        slots = snap.rank(pos)                             # (n, h)
        flat_slots = slots.reshape(-1)
        flat_ids = np.repeat(frame_ids, hash_num)
        keys = ownership_key(flat_slots, flat_ids)
        # local min per slot
        order = np.lexsort((flat_ids, keys, flat_slots))
        s_sorted = flat_slots[order]
        first = np.empty(len(order), dtype=bool)
        if len(order):
            first[0] = True
            first[1:] = s_sorted[1:] != s_sorted[:-1]
        win = order[first]
        wslots = flat_slots[win]
        return pa.table({
            "shard": pa.array((wslots % n_shards).astype(np.int64)),
            "slot": pa.array(wslots),
            "key": pa.array(keys[win].astype(np.int64)),
            "id": pa.array(flat_ids[win].astype(np.int32)),
        })

    def shard_min(g: pa.Table) -> pa.Table:
        slot = g["slot"].to_numpy(zero_copy_only=False)
        key = g["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        idv = g["id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((idv, key, slot))
        s_sorted = slot[order]
        first = np.empty(len(order), dtype=bool)
        if len(order):
            first[0] = True
            first[1:] = s_sorted[1:] != s_sorted[:-1]
        win = order[first]
        return pa.table({"slot": pa.array(slot[win]),
                         "id": pa.array(idv[win])})

    bids = ds.map_batches(pass2, batch_format="pyarrow",
                          batch_size=batch_size)
    best_id = np.zeros(n_slots, dtype=np.uint16)
    if n_slots <= DRIVER_REDUCE_MAX_SLOTS:
        # small filter: per-block local-min bids stream to the driver and
        # reduce with the SAME order-free comparator (lexsort by
        # (slot, key, id), first per slot) — identical winners to the
        # sharded path, without a shuffle
        blks = list(bids.iter_batches(batch_size=None,
                                      batch_format="pyarrow"))
        if blks:
            cat = pa.concat_tables(blks)
            merged_tbl = shard_min(cat)
            best_id[merged_tbl["slot"].to_numpy(zero_copy_only=False)] = \
                merged_tbl["id"].to_numpy(zero_copy_only=False) \
                .astype(np.uint16)
    else:
        winners = bids.groupby("shard").map_groups(shard_min,
                                                   batch_format="pyarrow")
        for blk in winners.iter_batches(batch_size=None,
                                        batch_format="pyarrow"):
            # slots are globally unique here (one winner per slot per shard)
            best_id[blk["slot"].to_numpy(zero_copy_only=False)] = \
                blk["id"].to_numpy(zero_copy_only=False).astype(np.uint16)
    proto.ids = best_id

    # ---- pass 3: saturation (cluster-deduped sparse slot sets) ------------
    snap2_ref = ray.put(proto)

    def pass3(b: pa.Table) -> pa.Table:
        snap: MIBloomFilter = ray.get(snap2_ref)
        nmap = ray.get(name_map_ref)
        texts = _texts(b, text_col, normalize)
        pos, nf, _ = snap.frame_hashes(texts)
        labels = b[label_col].to_pandas().to_numpy()
        row_ids = np.array([nmap[l] for l in labels], dtype=np.uint16)
        frame_ids = np.repeat(row_ids, nf)
        slots = snap.rank(pos)
        owners = snap.ids[slots] & ID_MASK
        lost = (owners != frame_ids[:, None]).all(axis=1)   # frame lost all
        sat_slots = np.unique(slots[lost].reshape(-1))
        return pa.table({"slot": pa.array(sat_slots)})

    p3 = ds.map_batches(pass3, batch_format="pyarrow",
                        batch_size=batch_size)
    sat = np.zeros(n_slots, dtype=bool)
    if n_slots <= DRIVER_REDUCE_MAX_SLOTS:
        # small filter: per-block sparse sets OR on the driver directly
        for blk in p3.iter_batches(batch_size=None, batch_format="pyarrow"):
            sat[blk["slot"].to_numpy(zero_copy_only=False)] = True
    else:
        from ray.data.aggregate import Count as _Count

        sat_slots = p3.groupby("slot").aggregate(_Count(alias_name="_c"))
        for blk in sat_slots.iter_batches(batch_size=None,
                                          batch_format="pyarrow"):
            sat[blk["slot"].to_numpy(zero_copy_only=False)] = True
    proto.ids[sat] |= SATURATED
    return proto


class MIBFClassifierActor:
    """Actor/task callable: label each row against a broadcast miBF."""

    def __init__(self, mibf_ref, min_fpr: float = 0.01,
                 multi_thresh: int = 0, text_col: str = "text",
                 normalize: bool = True, text_col2: str | None = None,
                 bonferroni: bool = False, allowed_miss: int = 0):
        mibf = ray.get(mibf_ref) if isinstance(mibf_ref, ray.ObjectRef) else mibf_ref
        # worker-private copies (see categorize.py plasma note)
        mibf.words = np.array(mibf.words, copy=True)
        mibf.ids = np.array(mibf.ids, copy=True)
        mibf.rank_acc = np.array(mibf.rank_acc, copy=True)
        self.mibf = mibf
        self.min_fpr = min_fpr
        self.multi_thresh = multi_thresh
        self.text_col = text_col
        self.text_col2 = text_col2
        self.normalize = normalize
        # allowedMiss relaxation is spaced-seed-only (MIBFClassifier.hpp:79-82:
        # forced to 0 when getSeedValues().size() == 0)
        if allowed_miss > 0 and not getattr(mibf, "spaced_seeds", None):
            raise ValueError("allowed_miss > 0 requires a spaced-seed miBF "
                             "(MIBFClassifier.hpp:79-82)")
        self.allowed_miss = int(allowed_miss)
        # Bonferroni-style per-ID correction (getMinCount,
        # MIBFClassifier.hpp:930-939: criticalScore = score/(numIDs−1))
        n_ids = max(len(mibf.id_names), 1)
        self.eff_fpr = min_fpr / n_ids if bonferroni else min_fpr
        self.frame_probs = mibf.frame_probs(allowed_miss=self.allowed_miss)

    def _support(self, texts: pa.Array, mate_salt: int = 0):
        """Per-row distinct-shingle support: returns ``(n, p_row, p_id,
        n_trials)`` — sparse (row, id) support observations plus trials
        per row.  ``mate_salt`` decorrelates the shingle-dedup keys of
        the two mates of a pair so the same boilerplate shingle seen in
        BOTH mates counts as two independent observations (the reference
        evaluates each mate's frames separately before summing,
        ``MIBFClassifier.hpp:409-617``)."""
        mibf = self.mibf
        pos, nf, h1 = mibf.frame_hashes(texts)
        n = len(nf)
        # a frame only reports IDs when it is a member (all h probes set —
        # the reference's query(itr) membership precondition — or, under
        # the spaced-seed allowedMiss relaxation, at least h − miss set);
        # this is what keeps the per-frame false-support rate at the
        # frame_probs() value for the same allowed_miss
        present = mibf.contains(pos)
        if self.allowed_miss > 0:
            member = (present.sum(axis=1)
                      >= mibf.hash_num - self.allowed_miss)
        else:
            member = present.all(axis=1)
        ids_mat = np.zeros(pos.shape, dtype=np.uint16)
        sel = member[:, None] & present
        if sel.any():
            slots = mibf.rank(pos[sel])
            ids_mat[sel] = mibf.ids[slots] & ID_MASK
        row_of = np.repeat(np.arange(n, dtype=np.int64), nf)

        # Support counting is per DISTINCT shingle, not per frame: web text
        # repeats shingles heavily (boilerplate), and a single
        # false-positive shingle repeated r times would otherwise count as
        # r independent Bernoulli trials and blow past the binomial gate.
        # (Deviation from the reference's per-frame counts, documented —
        # trials below are distinct shingles per row to match.)
        frame_idx = np.repeat(np.arange(len(h1), dtype=np.int64),
                              mibf.hash_num)
        flat_ids = ids_mat.reshape(-1).astype(np.int64)
        keep = flat_ids != 0
        fi = frame_idx[keep]
        fid = flat_ids[keep]
        from biobloom_ray.hashing import splitmix64

        import pandas as pd

        salt = np.uint64(mate_salt)
        with np.errstate(over="ignore"):
            trip_key = (splitmix64(h1[fi] + U64_ROW * row_of[fi].astype(np.uint64)
                                   + salt)
                        ^ splitmix64(fid.astype(np.uint64)))
        # first occurrence per distinct key via the hashtable kernel
        # (pd.duplicated, O(N)) — ~2x faster than np.unique's argsort on
        # the ~nf*h-sized 64-bit key arrays; downstream only consumes the
        # SET of first-occurrence indices, so the semantics are identical
        first_idx = ~pd.Series(trip_key).duplicated().to_numpy()
        p_row = row_of[fi[first_idx]]
        p_id = fid[first_idx]

        # trials per row = distinct shingles in the row
        with np.errstate(over="ignore"):
            row_shingle = splitmix64(h1 + U64_ROW * row_of.astype(np.uint64)
                                     + salt)
        n_trials = np.zeros(n, dtype=np.int64)
        uniq_rs = ~pd.Series(row_shingle).duplicated().to_numpy()
        np.add.at(n_trials, row_of[uniq_rs], 1)
        return n, p_row, p_id, n_trials

    def _decide(self, batch: pa.Table, n: int, p_row: np.ndarray,
                p_id: np.ndarray, n_trials: np.ndarray) -> pa.Table:
        mibf = self.mibf
        best_id = np.zeros(n, dtype=np.int64)
        best_cnt = np.zeros(n, dtype=np.int64)
        second_cnt = np.zeros(n, dtype=np.int64)
        if len(p_row):
            rid = np.unique(p_row * (MAX_IDS + 1) + p_id, return_counts=True)
            rkey, counts = rid
            rows = rkey // (MAX_IDS + 1)
            idv = rkey % (MAX_IDS + 1)
            # top-2 per row (O2: best vs secondary gap)
            order = np.lexsort((-counts, rows))
            rows_o = rows[order]
            first_mask = np.empty(len(order), dtype=bool)
            first_mask[0] = True
            first_mask[1:] = rows_o[1:] != rows_o[:-1]
            firsts = np.nonzero(first_mask)[0]
            best_id[rows_o[firsts]] = idv[order][firsts]
            best_cnt[rows_o[firsts]] = counts[order][firsts]
            seconds = firsts + 1
            valid2 = (seconds < len(order))
            s_ok = seconds[valid2]
            same_row = rows_o[s_ok] == rows_o[firsts[valid2]]
            s_ok = s_ok[same_row]
            second_cnt[rows_o[s_ok]] = counts[order][s_ok]

        # binomial acceptance at the best ID's frame probability.  The
        # reference memoizes minCount per (frameCount, id)
        # (MIBFClassifier.hpp:773-795 m_minCount); here the batch is
        # grouped by unique (F, best_id) so each binomial table is
        # evaluated ONCE per distinct (trials, prob) combination and the
        # compare/label assignment is pure numpy — no per-row Python.
        labels = np.full(n, NO_MATCH, dtype=object)
        scores = np.zeros(n, dtype=np.float64)
        names = np.array([""] + list(mibf.id_names), dtype=object)
        active = np.nonzero((n_trials > 0) & (best_id != 0))[0]
        if len(active):
            F_a = n_trials[active]
            id_a = best_id[active]
            key = F_a * (MAX_IDS + 1) + id_a
            uniq, inv = np.unique(key, return_inverse=True)
            need_u = np.empty(len(uniq), dtype=np.int64)
            order = np.argsort(inv, kind="stable")
            bounds = np.searchsorted(inv[order], np.arange(len(uniq) + 1))
            cnt_act = best_cnt[active]
            sf_row = np.ones(len(active), dtype=np.float64)
            for u in range(len(uniq)):
                F = int(uniq[u] // (MAX_IDS + 1))
                idv = int(uniq[u] % (MAX_IDS + 1))
                p = round(float(self.frame_probs[idv]), 12)
                need_u[u] = calc_min_count(F, p, self.eff_fpr)
                members = order[bounds[u]:bounds[u + 1]]
                x = cnt_act[members] - 1  # sf at count−1 (SeqEval.h:209)
                tbl = _binom_sf_table(F, p)
                sf_row[members] = np.where(
                    x >= F, 0.0, tbl[np.clip(x, 0, F)])
            need_row = need_u[inv]
            acc = cnt_act >= need_row
            acc_idx = active[acc]
            if len(acc_idx):
                multi = ((best_cnt[acc_idx] - second_cnt[acc_idx]
                          <= self.multi_thresh)
                         & (second_cnt[acc_idx] > 0))
                lab = names[best_id[acc_idx]]
                lab[multi] = MULTI_MATCH
                labels[acc_idx] = lab
                with np.errstate(divide="ignore"):
                    sc = -10.0 * np.log10(sf_row[acc])
                scores[acc_idx] = sc

        out = batch.append_column("label",
                                  pa.array(labels, type=pa.large_string()))
        out = out.append_column("best_count",
                                pa.array(best_cnt))
        out = out.append_column("second_count", pa.array(second_cnt))
        out = out.append_column("mibf_score", pa.array(scores))
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.text_col2 is not None:
            return self._call_paired(batch)
        texts = _texts(batch, self.text_col, self.normalize)
        n, p_row, p_id, n_trials = self._support(texts)
        return self._decide(batch, n, p_row, p_id, n_trials)

    def _call_paired(self, batch: pa.Table) -> pa.Table:
        """Paired-mate classification (``MIBFClassifier.hpp:409-617``,
        ``query(itr, itr2, minCount)`` at ``:790-794``): both mates'
        per-ID supports and trial counts SUM before the binomial gate,
        so weak-but-consistent evidence split across a pair still
        clears the acceptance threshold."""
        t1 = _texts(batch, self.text_col, self.normalize)
        t2 = _texts(batch, self.text_col2, self.normalize)
        n, r1, i1, f1 = self._support(t1, mate_salt=0)
        _, r2, i2, f2 = self._support(t2, mate_salt=0x9D5C)
        return self._decide(batch, n,
                            np.concatenate([r1, r2]),
                            np.concatenate([i1, i2]),
                            f1 + f2)


def classify_mibf(ds, mibf: MIBloomFilter, min_fpr: float = 0.01,
                  multi_thresh: int = 0, text_col: str = "text",
                  batch_size: int = 1024, text_col2: str | None = None,
                  bonferroni: bool = False, allowed_miss: int = 0):
    """``text_col2``: when given, rows are mate pairs and supports are
    combined across both mates (the ``-e`` paired path of
    biobloommicategorizer).  ``bonferroni``: apply the reference's per-ID
    multiple-testing correction (score/(numIDs−1),
    ``MIBFClassifier.hpp:930-939``).  ``allowed_miss``: spaced-seed probe
    relaxation (``MIBFClassifier.hpp:79-89``)."""
    ref = ray.put(mibf)
    _cache: dict = {}

    def fn(batch: pa.Table) -> pa.Table:
        actor = _cache.get("a")
        if actor is None:
            actor = MIBFClassifierActor(ref, min_fpr, multi_thresh, text_col,
                                        text_col2=text_col2,
                                        bonferroni=bonferroni,
                                        allowed_miss=allowed_miss)
            _cache["a"] = actor
        return actor(batch)

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size)
