"""Resumable partitioned runs (BASELINE requirement: a killed job
resumes from per-partition lineage/sketch checkpoints without
recomputing finished partitions — SURVEY.md §4).

Unit of resume = one input parquet fragment (the natural shard of a
Common-Crawl-style layout).  Each partition writes its output under
``<out>/part=<i>/`` atomically and then its ``_lineage.json``
manifest; a partition whose manifest says ``complete`` is skipped on
re-run.  Because every UDF is deterministic (fixed hash seeds), a resume
produces byte-identical rows to an uninterrupted run.

The partition is the checkpoint boundary, not the execution boundary.
The categorize runner loops over partitions on the driver, one
streaming Ray Data pipeline each; at 10^12 pages you'd raise the
partition granularity to directory-level shards.

Two runners:

- ``run_partitioned_categorize`` — categorize each fragment, publish.
- ``run_partitioned_curation`` — alpha gate, first-wins exact dedup,
  cross-partition exact and (optionally) MinHash near-dup dedup.  A run
  is ONE Ray Data execution: a read of every pending fragment and one
  fused map (gate, fingerprint, signature) stream narrow ``doc_id,
  fp_md5[, sig]`` rows, tagged with their partition, to the driver in
  fragment order.  Per partition the driver decides in numpy against
  the cross-partition state, issues the partition's write as one
  ``ray.remote`` task (filter, ``fp_md5``, tmp dir + rename), writes
  its state-checkpoint deltas and moves on to the next partition while
  the write runs; manifests follow in partition order as the writes
  end.  The state (published fingerprints as 16-byte keys, the
  candidates' signatures and LSH band index) lives in driver memory
  for the whole call — loaded once from the finished partitions'
  ``state/`` checkpoints, grown by each partition, local to the call
  so runs on different ``out_dir`` stay independent.  Past its row
  gates a probe joins against the checkpoint files instead: the seen
  probe as a ``left_anti`` join, the near-dup probe as one new × prior
  band-key join whose distinct pairs go to the one pair verifier of
  ``stages.dedup``.
"""

from __future__ import annotations

import collections
import glob
import os
import re
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from biobloom_ray.config import CategorizeConfig
from biobloom_ray.io import hash_join
from biobloom_ray.io import read_parquet as _rp
from biobloom_ray.pipelines.categorize import categorize
from biobloom_ray.stages.dedup import _collect, _isin_filter, add_content_hash
from biobloom_ray.state.lineage import (
    PartitionManifest,
    completed_partitions,
    partition_dir,
    read_manifest,
    write_manifest,
)


def input_fragments(input_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(input_dir, "*.parquet")))


def run_partitioned_categorize(
    input_dir: str,
    out_dir: str,
    bank,
    cfg: CategorizeConfig | None = None,
    text_col: str = "text",
    max_partitions: int | None = None,
    fail_after: int | None = None,
) -> dict:
    """Categorize every input fragment, checkpointing per partition.

    ``max_partitions`` / ``fail_after`` exist for the kill/resume tests:
    processing stops (as if the job died) after that many NEW partitions.
    Returns ``{"completed": [...], "skipped": [...], "rows": int}``.
    """
    cfg = cfg or CategorizeConfig()
    frags = input_fragments(input_dir)
    done = completed_partitions(out_dir)
    completed, skipped = [], []
    total_rows = 0
    fresh = 0
    for i, frag in enumerate(frags):
        if max_partitions is not None and i >= max_partitions:
            break
        if i in done:
            skipped.append(i)
            continue
        if fail_after is not None and fresh >= fail_after:
            break
        t0 = time.perf_counter()
        ds = _rp(frag)
        labeled = categorize(ds, bank, cfg, text_col=text_col)
        pdir = partition_dir(out_dir, i)
        # crash-atomic partition output: stream into part=<i>.tmp/, then
        # a single directory rename publishes it.  A kill mid-write
        # leaves only the tmp dir (removed on retry), so a re-run can
        # never mix new files with a crashed attempt's partials, and a
        # published partition is always complete even before its
        # manifest lands.
        tmpdir = pdir + ".tmp"
        if os.path.isdir(tmpdir):
            import shutil
            shutil.rmtree(tmpdir)
        if os.path.isdir(pdir):
            # data published but manifest missing (killed between rename
            # and manifest write): the data is complete — reuse it
            pass
        else:
            os.makedirs(tmpdir, exist_ok=True)
            labeled.write_parquet(tmpdir)
            os.rename(tmpdir, pdir)
        n_rows = _rp(pdir).count()
        write_manifest(out_dir, PartitionManifest(
            partition=i,
            inputs=[frag],
            row_count=int(n_rows),
            metrics={"wall_s": round(time.perf_counter() - t0, 3)},
            complete=True,
        ))
        completed.append(i)
        total_rows += int(n_rows)
        fresh += 1
    return {"completed": completed, "skipped": skipped, "rows": total_rows}


#: published-fingerprint count above which the cross-partition exact-
#: dedup probe leaves the driver's in-memory key set (16 B/key, 32 MB
#: at this gate) for a left_anti hash join against the accumulated
#: checkpoint parquet (narrow 32-hex rows)
SEEN_BROADCAST_MAX_KEYS = 2_000_000

#: accumulated prior-partition signature rows above which the
#: cross-partition NEAR-dup probe leaves the driver's in-memory band
#: index (signature matrix + sorted band keys, ~1.2 KB/doc at 128 perms
#: — ~60 MB at this gate) for a band-key hash join against the
#: signature checkpoint parquet and the pair verifier
NEARDUP_STATE_BROADCAST_MAX_ROWS = 50_000

_STATE_FILE = re.compile(r"(seen|sigs)_(\d+)\.parquet")

#: ASCII hex digit → nibble
_HEX = np.zeros(256, dtype=np.uint8)
_HEX[np.frombuffer(b"0123456789abcdef", dtype=np.uint8)] = np.arange(16)


def _state_index(path: str) -> int:
    """Partition index of a state checkpoint path (a file, or a file
    inside a checkpoint directory)."""
    return int(_STATE_FILE.findall(path)[-1][1])


def _state_files(state_dir: str, kind: str, keep) -> list[str]:
    """The ``kind`` (``seen`` / ``sigs``) checkpoint files whose
    partition index satisfies ``keep``, in partition order; a checkpoint
    written as a directory (signatures that stayed in the cluster)
    contributes its part files."""
    files = []
    for f in sorted(glob.glob(os.path.join(state_dir, f"{kind}_*.parquet")),
                    key=_state_index):
        if keep(_state_index(f)):
            files += (sorted(glob.glob(os.path.join(f, "*.parquet")))
                      if os.path.isdir(f) else [f])
    return files


def _fp_keys(fp) -> np.ndarray:
    """32-hex md5 fingerprints → fixed-width 16-byte keys (``S16``: they
    sort and ``searchsorted`` without object dtype).  The empty
    fingerprint of a null text maps to 16 zero bytes."""
    if isinstance(fp, pa.ChunkedArray):
        fp = fp.combine_chunks()
    fp = fp.cast(pa.large_string())
    n = len(fp)
    out = np.zeros((n, 16), dtype=np.uint8)
    _, offs_buf, data_buf = fp.buffers()
    if n and data_buf is not None:
        offs = np.frombuffer(offs_buf, dtype=np.int64,
                             count=fp.offset + n + 1)[fp.offset:]
        full = np.diff(offs) == 32
        nib = _HEX[np.frombuffer(data_buf, dtype=np.uint8)[
            offs[:-1][full, None] + np.arange(32)]]
        out[full] = (nib[:, 0::2] << 4) | nib[:, 1::2]
    return out.view("S16").ravel()


def _gate_fp_sig(min_alpha_pct: int, sig_stage, part_of: dict[str, int]):
    """map_batches callable of the runner's one read: the exact integer
    alpha gate (keep iff 100·n_alpha ≥ min_alpha_pct·n_chars), the
    content fingerprint and, for near-dup runs, the MinHash signature of
    every gated row — narrow ``doc_id, fp_md5[, sig], part`` rows, no
    text.  ``part`` is the row's partition: ``part_of`` maps the
    basename of the read's ``path`` column to it."""

    def narrow(b: pa.Table) -> pa.Table:
        s = b["text"].to_pandas()
        n_chars = s.str.len().fillna(0).astype("int64").to_numpy()
        n_alpha = (s.str.count(r"[A-Za-z]").fillna(0)
                   .astype("int64").to_numpy())
        keep = 100 * n_alpha >= min_alpha_pct * n_chars
        sub = add_content_hash(b.filter(pa.array(keep)))
        cols = {"doc_id": sub["doc_id"].cast(pa.int64()),
                "fp_md5": sub["fp_md5"]}
        if sig_stage is not None:
            cols["sig"] = sig_stage(sub)["sig"]
        path = sub["path"].combine_chunks().dictionary_encode()
        cols["part"] = pa.array(np.array(
            [part_of[os.path.basename(f)]
             for f in path.dictionary.to_pylist()],
            dtype=np.int32)[path.indices.to_numpy()])
        return pa.table(cols)

    return narrow


def _partition_blocks(narrow, pending: list[int]):
    """Yield ``(i, blocks)`` for each partition of ``pending``, in order,
    from the ordered narrow stream: ``blocks`` are the ``(ref, table)``
    pieces of partition ``i``'s rows (``ref`` is None for a piece cut
    from a block that spans two partitions).  A partition is complete
    once a later partition's first row arrives or the stream ends, so a
    partition without narrow rows yields no blocks."""
    at, blocks = 0, []
    for bundle in narrow.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if not meta.num_rows:
                continue
            t = ray.get(ref)
            part = t["part"].to_numpy()
            cut = np.flatnonzero(np.diff(part)) + 1
            for lo, hi in zip(np.r_[0, cut], np.r_[cut, len(part)]):
                j = int(part[lo])
                while at < len(pending) and pending[at] < j:
                    yield pending[at], blocks
                    at, blocks = at + 1, []
                if at == len(pending) or pending[at] != j:
                    raise RuntimeError(
                        f"narrow rows of partition {j} arrived out of order")
                blocks.append((ref if hi - lo == len(part) else None,
                               t.slice(lo, hi - lo)))
    for i in pending[at:]:
        yield i, blocks
        blocks = []


@ray.remote
def _write_partition(frag: str, keep: np.ndarray, pdir: str) -> None:
    """Publish one partition: the fragment's rows whose doc_id is in the
    sorted ``keep``, with ``fp_md5``, written to ``part=<i>.tmp/`` and
    renamed to ``part=<i>``.  Rows are picked by doc_id alone, so a
    doc_id that repeats within the fragment raises ``ValueError``."""
    t = pq.read_table(frag)
    ids, n = np.unique(t["doc_id"].to_numpy(), return_counts=True)
    if (n > 1).any():
        raise ValueError(f"doc_id {ids[n > 1][0]} repeats in fragment "
                         f"{frag}; curation needs doc_ids unique within "
                         "a fragment")
    t = add_content_hash(_isin_filter("doc_id", keep)(t))
    os.makedirs(pdir + ".tmp")
    if t.num_rows:
        pq.write_table(t, os.path.join(pdir + ".tmp", "part-0.parquet"))
    os.rename(pdir + ".tmp", pdir)


def _seen_join_hits(ids: np.ndarray, fp, files: list[str]) -> np.ndarray:
    """Join tier of the seen probe: which candidates' fingerprints an
    earlier partition published, by a left_anti hash join of the
    narrow ``doc_id, fp_md5`` rows against the seen checkpoints."""
    if not len(ids) or not files:
        return np.zeros(len(ids), dtype=bool)
    left = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "fp_md5": fp.cast(pa.string())}))
    right = _rp(files).map_batches(
        lambda b: pa.table({"fp": b["fp"].cast(pa.string())}),
        batch_format="pyarrow")
    fresh = _collect(hash_join(left, right, on=("fp_md5",),
                               right_on=("fp",), join_type="left_anti")
                     .materialize())
    kept = (fresh["doc_id"].to_numpy() if fresh is not None
            else np.empty(0, dtype=np.int64))
    return ~np.isin(ids, kept)


def _cross_neardup_join(sig_ds, prior_files: list[str], threshold: float,
                        num_perm: int, num_bands: int) -> np.ndarray:
    """Join tier of the cross-partition near-dup probe: doc_ids of this
    partition's candidates (``sig_ds``: doc_id, sig) with an est-Jaccard
    ≥ ``threshold`` neighbor among the earlier partitions' candidates —
    new × prior band rows hash-join on the band key, the distinct
    (doc_id, prior_id) pairs go to ``stages.dedup._verify_pairs``."""
    from biobloom_ray.stages.dedup import (_band_rows, _distinct_pairs,
                                           _est_jaccard_from_sigs,
                                           _verify_pairs)

    prior_ds = _rp(prior_files)

    def bands(side: str):
        return lambda b: _band_rows(b, "doc_id", num_perm, num_bands) \
            .rename_columns(["band_key", side])

    cand = _distinct_pairs(hash_join(
        sig_ds.map_batches(bands("id_a"), batch_format="pyarrow"),
        prior_ds.map_batches(bands("id_b"), batch_format="pyarrow"),
        on=("band_key",)).select_columns(["id_a", "id_b"]))
    pairs = _collect(_verify_pairs(cand, sig_ds, prior_ds,
                                   _est_jaccard_from_sigs, threshold,
                                   "est_jaccard"))
    if pairs is None:
        return np.empty(0, dtype=np.int64)
    return np.unique(pairs["id_a"].to_numpy()).astype(np.int64)


class _CurationState:
    """Cross-partition dedup state of one ``run_partitioned_curation``
    call, held on the driver: the published fingerprints as sorted
    16-byte keys, and the candidates' signature matrix with its sorted
    LSH band keys and band → row index.  Every entry carries the
    partition that added it, and partition ``i`` probes only entries of
    earlier partitions — the rule the ``state/seen_<i>`` and
    ``state/sigs_<i>`` checkpoints encode.

    ``load`` reads the finished partitions' checkpoints once; each new
    partition then appends its delta.  A kind whose rows before ``i``
    pass its gate leaves memory for good (the counts only grow), and
    from then on its probe joins against the checkpoint files."""

    def __init__(self, state_dir: str, num_perm: int, num_bands: int):
        self.state_dir = state_dir
        self.num_perm = num_perm
        self.num_bands = num_bands
        self.in_memory = {"seen": True, "sigs": True}
        self.seen = np.empty(0, dtype="S16")
        self.seen_part = np.empty(0, dtype=np.int64)
        self.sigs = np.empty((0, num_perm), dtype=np.uint64)
        self.sig_part = np.empty(0, dtype=np.int64)
        self.sig_rows: dict[int, int] = {}  # checkpoint rows per partition
        self.band_keys = np.empty(0, dtype=np.int64)
        self.band_row = np.empty(0, dtype=np.int64)

    def load(self, done: set[int], neardup: bool) -> None:
        """Read the checkpoints of the partitions ``done``, each once."""
        from biobloom_ray.stages.dedup import _sig_matrix

        gates = {"seen": SEEN_BROADCAST_MAX_KEYS,
                 "sigs": NEARDUP_STATE_BROADCAST_MAX_ROWS}
        for kind in ("seen", "sigs") if neardup else ("seen",):
            files = _state_files(self.state_dir, kind, done.__contains__)
            if not files:
                continue
            ds = _rp(files, include_paths=True)
            if ds.count() > gates[kind]:
                self.drop(kind)
                continue
            t = _collect(ds.materialize())
            if t is None:
                continue
            paths = t["path"].combine_chunks().dictionary_encode()
            part = np.array([_state_index(p) for p in
                             paths.dictionary.to_pylist()],
                            dtype=np.int64)[paths.indices.to_numpy()]
            if kind == "seen":
                self.add_seen(_fp_keys(t["fp"]), part)
            else:
                self.add_sigs(_sig_matrix(t["sig"], self.num_perm), part)

    def drop(self, kind: str) -> None:
        self.in_memory[kind] = False
        if kind == "seen":
            self.seen = self.seen_part = None
        else:
            self.sigs = self.sig_part = None
            self.band_keys = self.band_row = None

    def rows(self, kind: str, i: int) -> int:
        """Checkpoint rows of partitions before ``i``."""
        if kind == "seen":
            return int(np.count_nonzero(self.seen_part < i))
        return sum(n for p, n in self.sig_rows.items() if p < i)

    def add_seen(self, keys: np.ndarray, part: np.ndarray) -> None:
        if not self.in_memory["seen"]:
            return
        order = np.argsort(keys, kind="stable")
        pos = np.searchsorted(self.seen, keys[order], side="right")
        self.seen = np.insert(self.seen, pos, keys[order])
        self.seen_part = np.insert(self.seen_part, pos, part[order])

    def add_sigs(self, sigs: np.ndarray, part: np.ndarray) -> None:
        """Append signature rows; zero-shingle rows only count (they
        never band — see ``stages.dedup._band_rows``)."""
        from biobloom_ray.sketches.minhash import (_EMPTY_SENTINEL,
                                                   lsh_band_keys)

        if not self.in_memory["sigs"]:
            return
        for p, n in zip(*np.unique(part, return_counts=True)):
            self.sig_rows[int(p)] = self.sig_rows.get(int(p), 0) + int(n)
        ne = sigs[:, 0] != _EMPTY_SENTINEL
        sigs, part = sigs[ne], part[ne]
        base = len(self.sigs)
        self.sigs = np.concatenate([self.sigs, sigs])
        self.sig_part = np.concatenate([self.sig_part, part])
        keys = lsh_band_keys(sigs, self.num_bands).reshape(-1) \
            .view(np.int64)
        order = np.argsort(keys, kind="stable")
        rows = np.repeat(np.arange(base, base + len(sigs)),
                         self.num_bands)[order]
        pos = np.searchsorted(self.band_keys, keys[order], side="right")
        self.band_keys = np.insert(self.band_keys, pos, keys[order])
        self.band_row = np.insert(self.band_row, pos, rows)

    def seen_hits(self, i: int, ids: np.ndarray, fp,
                  keys: np.ndarray) -> np.ndarray:
        """Which candidates' fingerprints an earlier partition
        published."""
        if self.in_memory["seen"] \
                and self.rows("seen", i) > SEEN_BROADCAST_MAX_KEYS:
            self.drop("seen")
        if not self.in_memory["seen"]:
            return _seen_join_hits(ids, fp, _state_files(
                self.state_dir, "seen", lambda j: j < i))
        sk = self.seen
        if len(sk) and self.seen_part.max() >= i:
            # a later partition finished in an earlier call
            sk = sk[self.seen_part < i]
        if not len(sk):
            return np.zeros(len(keys), dtype=bool)
        idx = np.searchsorted(sk, keys)
        idx[idx == len(sk)] = 0
        return sk[idx] == keys

    def neardup_drops(self, i: int, ids: np.ndarray, sigs, sig_src,
                      threshold: float) -> np.ndarray:
        """Sorted doc_ids of candidates with an est-Jaccard ≥
        ``threshold`` neighbor among earlier partitions' candidates.
        ``sig_src`` holds the candidates' ``doc_id, sig`` rows: a driver
        table with ``sigs`` its matrix, or a Dataset (``sigs`` None)
        when the signatures stayed in the cluster."""
        from biobloom_ray.sketches.minhash import (_EMPTY_SENTINEL,
                                                   lsh_band_keys)
        from biobloom_ray.stages.dedup import _sig_agreement

        if self.in_memory["sigs"] and (
                sigs is None
                or self.rows("sigs", i) > NEARDUP_STATE_BROADCAST_MAX_ROWS):
            self.drop("sigs")
        if not self.in_memory["sigs"]:
            files = _state_files(self.state_dir, "sigs", lambda j: j < i)
            if not files or not len(ids):
                return np.empty(0, dtype=np.int64)
            if isinstance(sig_src, pa.Table):
                sig_src = ray.data.from_arrow(sig_src)
            return _cross_neardup_join(sig_src, files, threshold,
                                       self.num_perm, self.num_bands)
        ne = sigs[:, 0] != _EMPTY_SENTINEL
        sigs, ids = sigs[ne], ids[ne]
        kb = self.band_keys
        if not len(ids) or not len(kb):
            return np.empty(0, dtype=np.int64)
        ks = lsh_band_keys(sigs, self.num_bands).reshape(-1).view(np.int64)
        row_of = np.repeat(np.arange(len(ids)), self.num_bands)
        lo = np.searchsorted(kb, ks, side="left")
        cnt = np.searchsorted(kb, ks, side="right") - lo
        m = cnt > 0
        lo_m, cnt_m = lo[m], cnt[m]
        offs = (np.arange(int(cnt_m.sum()))
                - np.repeat(np.cumsum(cnt_m) - cnt_m, cnt_m))
        pi = self.band_row[np.repeat(lo_m, cnt_m) + offs]
        ni = np.repeat(row_of[m], cnt_m)
        early = self.sig_part[pi] < i
        # dedup (prior row, new row) so each pair verifies once
        pk = np.unique(pi[early] * len(ids) + ni[early])
        pi, ni = pk // len(ids), pk % len(ids)
        est = _sig_agreement(self.sigs, pi, sigs, ni)
        return np.unique(ids[ni[est >= threshold]])


def run_partitioned_curation(
    input_dir: str,
    out_dir: str,
    min_alpha_pct: int = 50,
    max_partitions: int | None = None,
    fail_after: int | None = None,
    neardup: bool = False,
    neardup_threshold: float = 0.6,
    shingle_k: int = 5,
    num_perm: int = 128,
    num_bands: int = 16,
) -> dict:
    """Resumable CURATION run: per input fragment, quality-gate (keep
    iff 100·n_alpha ≥ min_alpha_pct·n_chars — the exact integer gate),
    exact-dedup within the partition (first-wins by doc_id), then drop
    docs whose content hash was already published by an EARLIER
    partition.  The cross-partition dedup state checkpoints per
    partition to ``state/seen_<i>.parquet`` (BASELINE: "every partition
    emits lineage + sketch-state checkpoints"), so a killed run resumes
    without recomputing finished partitions AND without re-admitting
    their duplicates.  Deterministic end-to-end, so a resumed run is
    byte-identical to an uninterrupted one.

    ``neardup=True`` adds a MinHash NEAR-dup stage (VERDICT r4 #4):
    each partition's CANDIDATE set (gated + within-partition
    exact-deduped — including docs later dropped by cross-partition
    checks, so the drop rule is non-recursive) checkpoints its
    signature table to ``state/sigs_<i>.parquet`` alongside the seen
    keys; a doc is dropped when it has an est-Jaccard ≥
    ``neardup_threshold`` neighbor either earlier in its own
    partition (smaller doc_id — the ``minhash_dedup`` greedy) or in
    ANY earlier partition's candidate set.  With doc_id-ordered
    fragments this equals the plain greedy min-neighbor rule over the
    gated corpus — the property the ``curation_neardup_summary`` SQL
    oracle checks.

    A run is one Ray Data execution and four steps per partition:

    1. **map** — one read of every pending fragment and one fused map
       (gate, fingerprint, signature) stream narrow ``doc_id, fp_md5[,
       sig]`` rows, tagged with their partition, to the driver in
       fragment order.  Partition ``i`` is complete when a later
       partition's first row arrives or the stream ends.  Where
       ``minhash_pairs_from_sigs`` would not band on the driver
       (``n·bands > BAND_DRIVER_MAX_ROWS``) its signature blocks stay in
       the cluster as a Dataset;
    2. **decide** — driver numpy against the in-memory state
       (:class:`_CurationState`): first-wins winners, the seen probe,
       within-partition pairs (``_band_pairs_np``) and cross-partition
       near-dups give the sorted keep set of doc_ids;
    3. **write** — one ``ray.remote`` task reads the fragment, keeps
       those doc_ids, adds ``fp_md5``, writes to ``part=<i>.tmp/`` and
       renames.  Rows are picked by doc_id alone, so a doc_id that
       repeats within a fragment fails the run with ``ValueError``;
    4. **state** — the seen and signature deltas are written (tmp +
       rename) and appended to the in-memory state.

    decide(i + 1) needs only the state after decide(i), so the driver
    moves on while write(i) runs; between partitions it publishes, in
    partition order, the manifest of each partition whose write has
    ended, and at the end it waits for the rest.  A failed run waits
    for every write it issued and removes the output and checkpoints
    of its partitions without a manifest before it raises.

    The state lives for the call: loaded once from the finished
    partitions' checkpoints, then grown by each partition.  Above
    ``SEEN_BROADCAST_MAX_KEYS`` published keys / above
    ``NEARDUP_STATE_BROADCAST_MAX_ROWS`` prior signature rows (or
    when the signatures stay in the cluster) a probe instead runs
    against the checkpoint files: a ``left_anti`` hash join of the
    narrow rows, or a new × prior band-key hash join whose distinct
    pairs ``stages.dedup._verify_pairs`` scores (on the driver up to
    its ``BROADCAST_LIMIT`` pairs, by two more joins above).

    The manifest records the seconds the driver spent on each step of
    the partition, or blocked waiting for it (``map_s``, ``decide_s``,
    ``write_s``, ``state_s``), and ``wall_s`` = their sum.  Steps of
    different partitions overlap in the cluster, so ``write_s`` is
    usually 0 and ``wall_s`` summed over partitions is at most the
    run's wall."""
    from biobloom_ray.stages import dedup as D

    frags = input_fragments(input_dir)
    done = completed_partitions(out_dir)
    state_dir = os.path.join(out_dir, "state")
    os.makedirs(state_dir, exist_ok=True)
    pending, skipped = [], []
    for i in range(len(frags) if max_partitions is None
                   else min(len(frags), max_partitions)):
        if i in done:
            skipped.append(i)
        elif fail_after is not None and len(pending) >= fail_after:
            break
        else:
            pending.append(i)
    completed, total_rows = [], 0
    if not pending:
        return {"completed": completed, "skipped": skipped, "rows": 0}
    state = _CurationState(state_dir, num_perm, num_bands)
    state.load(done, neardup)
    narrow = _rp([frags[i] for i in pending], include_paths=True) \
        .map_batches(_gate_fp_sig(
            min_alpha_pct,
            D.MinHashSigStage("text", "doc_id", shingle_k, num_perm)
            if neardup else None,
            {os.path.basename(frags[i]): i for i in pending}),
            batch_format="pyarrow")
    # decided partitions whose manifests are not written yet:
    # (i, write ref or None, manifest, step seconds)
    writes = collections.deque()

    def publish(block: bool) -> None:
        nonlocal total_rows
        while writes:
            i, ref, manifest, secs = writes[0]
            if ref is not None:
                if not block and not ray.wait([ref], timeout=0)[0]:
                    return
                t = time.perf_counter()
                try:
                    ray.get(ref)
                except ray.exceptions.RayTaskError as e:
                    raise e.cause from e
                secs["write_s"] += time.perf_counter() - t
            # whole ms per step, so the steps sum to wall_s exactly
            ms = {k: int(v * 1000) for k, v in secs.items()}
            manifest.metrics.update({k: v / 1000 for k, v in ms.items()},
                                    wall_s=sum(ms.values()) / 1000)
            write_manifest(out_dir, manifest)
            writes.popleft()
            completed.append(i)
            total_rows += manifest.row_count

    ctx = narrow.context
    opts = ctx.execution_options
    prev = ctx.raise_original_map_exception, opts.preserve_order
    ctx.raise_original_map_exception = opts.preserve_order = True
    parts = _partition_blocks(narrow, pending)
    try:
        t0 = time.perf_counter()
        for i, blocks in parts:
            # 1. map: partition i's narrow rows, from the stream
            frag = frags[i]
            n_in = pq.read_metadata(frag).num_rows
            gate_kept = sum(t.num_rows for _, t in blocks)
            sig_local = (neardup
                         and gate_kept * num_bands <= D.BAND_DRIVER_MAX_ROWS)
            cols = ["doc_id", "fp_md5"] + (["sig"] if sig_local else [])
            rows = (pa.concat_tables([t for _, t in blocks]) if blocks
                    else pa.schema([("doc_id", pa.int64()),
                                    ("fp_md5", pa.large_string()),
                                    ("sig", pa.large_binary())])
                    .empty_table()).select(cols)
            t1 = time.perf_counter()

            # 2. decide: first-wins winners (the smallest doc_id of each
            # fingerprint) are the candidates; drop the seen ones and the
            # near-dups
            rows = rows.take(np.argsort(rows["doc_id"].to_numpy(),
                                        kind="stable"))
            keys = _fp_keys(rows["fp_md5"])
            cand = np.sort(np.unique(keys, return_index=True)[1])
            cids = rows["doc_id"].to_numpy()[cand]
            cfp = rows["fp_md5"].take(cand)
            drop = state.seen_hits(i, cids, cfp, keys[cand])
            if neardup:
                if sig_local:
                    sig_src = pa.table({
                        "doc_id": pa.array(cids, pa.int64()),
                        "sig": rows["sig"].take(cand)})
                    csig = D._sig_matrix(sig_src["sig"], num_perm)
                    _, id_b, _ = D._band_pairs_np(cids, csig, num_bands,
                                                  neardup_threshold)
                else:
                    csig = None
                    sig_src = (ray.data.from_arrow_refs(
                        [ref if ref is not None else ray.put(t)
                         for ref, t in blocks])
                        .map_batches(D._isin_filter("doc_id", cids),
                                     batch_format="pyarrow")
                        .select_columns(["doc_id", "sig"]).materialize())
                    pairs = D.minhash_pairs_from_sigs(
                        sig_src, len(cids), id_col="doc_id",
                        threshold=neardup_threshold, num_perm=num_perm,
                        num_bands=num_bands).to_pandas()
                    id_b = (pairs.id_b.to_numpy(np.int64) if len(pairs)
                            else np.empty(0, dtype=np.int64))
                within = np.unique(id_b)
                drops = np.union1d(within, state.neardup_drops(
                    i, cids, csig, sig_src, neardup_threshold))
                drop |= np.isin(cids, drops)
            keep = cids[~drop]
            t2 = time.perf_counter()

            # 3. write: one task publishes part=<i>; a published
            # partition whose manifest is missing (killed between rename
            # and manifest) is complete, so it is reused
            pdir = partition_dir(out_dir, i)
            shutil.rmtree(pdir + ".tmp", ignore_errors=True)
            ref = (None if os.path.isdir(pdir)
                   else _write_partition.remote(frag, keep, pdir))
            t3 = time.perf_counter()

            # 4. state: the partition's published keys and (near-dup
            # runs) its candidates' signatures — deterministic, so a
            # crash-resume rewrite is byte-identical
            seen_path = os.path.join(state_dir, f"seen_{i}.parquet")
            if not os.path.exists(seen_path):
                pq.write_table(pa.table({"fp": cfp.filter(pa.array(~drop))
                                         .cast(pa.string())}),
                               seen_path + ".tmp")
                os.replace(seen_path + ".tmp", seen_path)
            state.add_seen(keys[cand][~drop], np.full((~drop).sum(), i))
            blobs = [seen_path]
            if neardup:
                sigs_path = os.path.join(state_dir, f"sigs_{i}.parquet")
                if not os.path.exists(sigs_path):
                    tmp = sigs_path + ".tmp"
                    if csig is not None:
                        pq.write_table(sig_src, tmp)
                    else:
                        shutil.rmtree(tmp, ignore_errors=True)
                        sig_src.write_parquet(tmp)
                    os.replace(tmp, sigs_path)
                if csig is not None:
                    state.add_sigs(csig, np.full(len(cids), i))
                blobs.append(sigs_path)
            t4 = time.perf_counter()

            metrics = {"rows_in": n_in, "gate_kept": gate_kept,
                       "exact_kept": len(cids)}
            if neardup:
                metrics["neardup_within_dropped"] = len(within)
                metrics["neardup_dropped_total"] = len(drops)
            writes.append((i, ref, PartitionManifest(
                partition=i, inputs=[frag], row_count=len(keep),
                metrics=metrics, sketch_blobs=blobs, complete=True),
                {"map_s": t1 - t0, "decide_s": t2 - t1,
                 "write_s": t3 - t2, "state_s": t4 - t3}))
            publish(block=False)
            t0 = time.perf_counter()
        publish(block=True)
    except BaseException:
        # no write task outlives the run, and a partition without a
        # manifest leaves no output or checkpoint that a re-run over
        # corrected input would reuse
        refs = [w[1] for w in writes if w[1] is not None]
        if refs:
            ray.wait(refs, num_returns=len(refs))
        for i in set(pending) - set(completed):
            pdir = partition_dir(out_dir, i)
            for d in (pdir, pdir + ".tmp"):
                shutil.rmtree(d, ignore_errors=True)
            for kind in ("seen", "sigs"):
                base = os.path.join(state_dir, f"{kind}_{i}.parquet")
                for f in (base, base + ".tmp"):
                    if os.path.isdir(f):
                        shutil.rmtree(f)
                    elif os.path.exists(f):
                        os.remove(f)
        raise
    finally:
        parts.close()
        ctx.raise_original_map_exception, opts.preserve_order = prev
    return {"completed": completed, "skipped": skipped,
            "rows": total_rows}


def curation_partition_report(out_dir: str):
    """Per-partition lineage-metrics table of a (possibly resumed)
    curation run, read from the published ``_lineage.json`` manifests
    — the operator-facing view of the north-rule requirement that
    "every partition emits lineage + metrics": rows in, quality-gate
    survivors, within-partition exact-dedup winners, published rows
    (after cross-partition drops) and the driver seconds of each step
    (map, decide, write, state: time spent on it or blocked waiting for
    it) with ``wall_s`` their sum.  The cluster maps and writes other
    partitions meanwhile, so ``wall_s`` summed over partitions is at
    most the run's wall.  Reads only the manifests — never the data —
    so it is instant at any scale."""
    import pandas as pd

    rows = []
    for i in sorted(completed_partitions(out_dir)):
        m = read_manifest(out_dir, i)
        if m is None:
            continue
        r = {"part_id": i,
             "rows_in": int(m.metrics.get("rows_in", 0)),
             "gate_kept": int(m.metrics.get("gate_kept", 0)),
             "exact_kept": int(m.metrics.get("exact_kept", 0)),
             "rows_out": int(m.row_count),
             "wall_s": float(m.metrics.get("wall_s", 0.0))}
        for stage in ("map_s", "decide_s", "write_s", "state_s"):
            r[stage] = float(m.metrics.get(stage, 0.0))
        if "neardup_dropped_total" in m.metrics:
            r["neardup_dropped_total"] = int(
                m.metrics["neardup_dropped_total"])
        rows.append(r)
    return pd.DataFrame(rows)
