"""Resumable partitioned categorize run (BASELINE requirement: a killed
job resumes from per-partition lineage/sketch checkpoints without
recomputing finished partitions — SURVEY.md §4).

Unit of resume = one input parquet fragment (the natural shard of a
Common-Crawl-style layout).  Each partition writes its labeled output
under ``<out>/part=<i>/`` atomically and then its ``_lineage.json``
manifest; a partition whose manifest says ``complete`` is skipped on
re-run.  Because every UDF is deterministic (fixed hash seeds), a resume
produces byte-identical rows to an uninterrupted run.

This is a deliberate driver-side loop over partitions (not one big
Dataset): the loop IS the checkpoint boundary.  Within a partition the
work is still a streaming Ray Data pipeline, so each partition scales
out across the cluster; at 10^12 pages you'd raise the partition
granularity to directory-level shards.
"""

from __future__ import annotations

from biobloom_ray.io import read_parquet as _rp
import glob
import os
import time

import ray.data

from biobloom_ray.config import CategorizeConfig
from biobloom_ray.pipelines.categorize import categorize
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


#: seen-key table size above which the cross-partition dedup membership
#: switches from a broadcast sorted-array probe to a left_anti hash
#: join against the accumulated checkpoint parquet (narrow 32-hex rows)
SEEN_BROADCAST_MAX_KEYS = 2_000_000

#: accumulated prior-partition signature rows above which the
#: cross-partition NEAR-dup probe switches from a broadcast
#: (band-key index + signature matrix, ~1 KB/doc at 128 perms —
#: ~50 MB at this gate) to band-key hash joins against the signature
#: checkpoint parquet
NEARDUP_STATE_BROADCAST_MAX_ROWS = 50_000


def _cross_neardup_drops(sig_ds, prior_files: list[str],
                         threshold: float, num_perm: int,
                         num_bands: int) -> "np.ndarray":
    """doc_ids of THIS partition's candidate docs that are near-dups
    (MinHash est-Jaccard ≥ threshold) of ANY earlier partition's
    candidate doc — earlier partitions always win.  Tiered like the
    exact seen-set probe: below ``NEARDUP_STATE_BROADCAST_MAX_ROWS``
    accumulated prior signature rows, the prior state broadcasts once
    as (sorted band keys, band→row index, signature matrix) and ONE
    distributed map probes + verifies; above it, band rows hash-join
    the checkpoint parquet and signatures attach via two more joins."""
    import numpy as np
    import pyarrow as pa
    import ray

    from biobloom_ray.io import cheap_count, hash_join
    from biobloom_ray.sketches.minhash import (_EMPTY_SENTINEL,
                                               lsh_band_keys)
    from biobloom_ray.stages.dedup import (_band_rows,
                                           _collect_numpy_sigs,
                                           _sig_matrix)

    prior_ds = _rp(prior_files)
    n_prior = cheap_count(prior_ds)
    if n_prior is None:
        n_prior = int(prior_ds.count())
    if n_prior == 0:
        return np.empty(0, dtype=np.int64)

    if n_prior <= NEARDUP_STATE_BROADCAST_MAX_ROWS:
        prior = _collect_numpy_sigs(prior_ds, "doc_id", num_perm)
        psigs = prior["sigs"]
        keep = psigs[:, 0] != _EMPTY_SENTINEL
        psigs = psigs[keep]
        if not len(psigs):
            return np.empty(0, dtype=np.int64)
        keys = lsh_band_keys(psigs, num_bands) \
            .reshape(-1).view(np.int64)
        idx = np.repeat(np.arange(len(psigs)), num_bands)
        order = np.argsort(keys, kind="stable")
        state_ref = ray.put((keys[order], idx[order], psigs))

        def probe(b: pa.Table) -> pa.Table:
            kb, pidx, ps = ray.get(state_ref)
            sig = _sig_matrix(b["sig"], num_perm)
            ids = b["doc_id"].to_numpy(zero_copy_only=False)
            ne = sig[:, 0] != _EMPTY_SENTINEL
            sig, ids = sig[ne], ids[ne]
            if not len(ids):
                return pa.table({"doc_id": pa.array([], pa.int64())})
            ks = lsh_band_keys(sig, num_bands) \
                .reshape(-1).view(np.int64)
            row_of = np.repeat(np.arange(len(ids)), num_bands)
            lo = np.searchsorted(kb, ks, side="left")
            hi = np.searchsorted(kb, ks, side="right")
            cnt = hi - lo
            m = cnt > 0
            if not m.any():
                return pa.table({"doc_id": pa.array([], pa.int64())})
            lo_m, cnt_m, row_m = lo[m], cnt[m], row_of[m]
            total = int(cnt_m.sum())
            starts = np.repeat(lo_m, cnt_m)
            offs = (np.arange(total)
                    - np.repeat(np.cumsum(cnt_m) - cnt_m, cnt_m))
            pi = pidx[starts + offs]
            ni = np.repeat(row_m, cnt_m)
            # dedup (prior row, new row) so each pair verifies once
            pk = np.unique(pi.astype(np.int64) * len(ids) + ni)
            pi, ni = pk // len(ids), pk % len(ids)
            est = (ps[pi] == sig[ni]).mean(axis=1)
            hit = ni[est >= threshold]
            return pa.table({"doc_id": pa.array(
                np.unique(ids[hit]).astype(np.int64))})

        dropped = sig_ds.map_batches(probe,
                                     batch_format="pyarrow").to_pandas()
        if len(dropped) == 0:
            return np.empty(0, dtype=np.int64)
        return np.unique(dropped.doc_id.to_numpy(np.int64))

    # join tier: band-key hash join against the checkpoint parquet
    def prior_bands(b: pa.Table) -> pa.Table:
        t = _band_rows(b, "doc_id", num_perm, num_bands)
        return pa.table({"band_key": t["band_key"],
                         "prior_id": t["doc_id"]})

    new_band = sig_ds.map_batches(
        lambda b: _band_rows(b, "doc_id", num_perm, num_bands),
        batch_format="pyarrow")
    cand = hash_join(new_band,
                     prior_ds.map_batches(prior_bands,
                                          batch_format="pyarrow"),
                     on=("band_key",))
    def pair_narrow(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b["doc_id"],
                         "prior_id": b["prior_id"]})

    j1 = hash_join(cand.map_batches(pair_narrow,
                                    batch_format="pyarrow"),
                   sig_ds, on=("doc_id",))

    def rename_sig(b: pa.Table) -> pa.Table:
        i = b.schema.get_field_index("sig")
        return b.set_column(i, "sig_new", b["sig"])

    def prior_sig_narrow(b: pa.Table) -> pa.Table:
        return pa.table({"prior_id2": b["doc_id"], "sig": b["sig"]})

    j2 = hash_join(j1.map_batches(rename_sig, batch_format="pyarrow"),
                   prior_ds.map_batches(prior_sig_narrow,
                                        batch_format="pyarrow"),
                   on=("prior_id",), right_on=("prior_id2",))

    def verify(b: pa.Table) -> pa.Table:
        A = _sig_matrix(b["sig_new"], num_perm)
        B = _sig_matrix(b["sig"], num_perm)
        est = (A == B).mean(axis=1) if len(A) else np.empty(0)
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({"doc_id": pa.array(
            np.unique(ids[est >= threshold]).astype(np.int64))})

    dropped = j2.map_batches(verify, batch_format="pyarrow").to_pandas()
    if len(dropped) == 0:
        return np.empty(0, dtype=np.int64)
    return np.unique(dropped.doc_id.to_numpy(np.int64))


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
    partition — the cross-partition dedup state is a per-partition
    ``state/seen_<i>.parquet`` key checkpoint (BASELINE: "every
    partition emits lineage + sketch-state checkpoints"), so a killed
    run resumes without recomputing finished partitions AND without
    re-admitting their duplicates.  Membership against the accumulated
    seen set is a broadcast sorted-array probe below
    ``SEEN_BROADCAST_MAX_KEYS`` and a ``left_anti`` hash join against
    the checkpoint parquet above it.  Deterministic end-to-end, so a
    resumed run is byte-identical to an uninterrupted one.

    ``neardup=True`` adds a MinHash NEAR-dup stage (VERDICT r4 #4):
    each partition's CANDIDATE set (gated + within-partition
    exact-deduped — including docs later dropped by cross-partition
    checks, so the drop rule is non-recursive) checkpoints its
    signature table to ``state/sigs_<i>.parquet`` alongside the seen
    keys; a doc is dropped when it has an est-Jaccard ≥
    ``neardup_threshold`` neighbor either earlier in its own
    partition (smaller doc_id — the ``minhash_dedup`` greedy) or in
    ANY earlier partition's candidate set (``_cross_neardup_drops``,
    tiered broadcast / band-key hash join).  With doc_id-ordered
    fragments this equals the plain greedy min-neighbor rule over the
    gated corpus — the property the ``curation_neardup_summary`` SQL
    oracle checks."""
    import numpy as np
    import pyarrow as pa

    from biobloom_ray.io import hash_join
    from biobloom_ray.stages.dedup import _isin_filter, add_content_hash

    frags = input_fragments(input_dir)
    done = completed_partitions(out_dir)
    state_dir = os.path.join(out_dir, "state")
    os.makedirs(state_dir, exist_ok=True)
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
        n_in = ds.count()

        def gate_hash(b: pa.Table) -> pa.Table:
            s = b["text"].to_pandas()
            n_chars = s.str.len().fillna(0).astype("int64").to_numpy()
            n_alpha = (s.str.count(r"[A-Za-z]").fillna(0)
                       .astype("int64").to_numpy())
            keep = 100 * n_alpha >= min_alpha_pct * n_chars
            sub = b.filter(pa.array(keep))
            return add_content_hash(sub)

        hashed = ds.map_batches(gate_hash, batch_format="pyarrow")

        # within-partition first-wins dedup: per-block (fp, min id)
        # partials fold on the driver (partition-bounded), winners
        # broadcast back as a filter
        def fp_min(b: pa.Table) -> pa.Table:
            import pandas as pd

            df = pd.DataFrame({
                "fp": b["fp_md5"].to_pandas().to_numpy(dtype=object),
                "doc_id": b["doc_id"].to_numpy(zero_copy_only=False)})
            agg = df.groupby("fp", as_index=False).agg(
                doc_id=("doc_id", "min"), cnt=("doc_id", "size"))
            return pa.Table.from_pandas(agg, preserve_index=False)

        import pandas as pd

        mins = (hashed.map_batches(fp_min, batch_format="pyarrow")
                .to_pandas())
        # per-stage attrition for the lineage metrics — free: the
        # fp-min partials already carry per-group row counts
        gate_kept = int(mins.cnt.sum()) if len(mins) else 0
        if len(mins):
            mins = mins.groupby("fp", as_index=False).agg(
                doc_id=("doc_id", "min"))
        exact_kept = len(mins)
        winners = np.sort(mins.doc_id.to_numpy("int64")) \
            if len(mins) else np.array([], "int64")
        deduped = hashed.map_batches(_isin_filter("doc_id", winners),
                                     batch_format="pyarrow")

        sig_ds = None
        if neardup:
            from biobloom_ray.stages.dedup import (
                MinHashSigStage, minhash_pairs_from_sigs)

            # the partition CANDIDATE set's signatures (materialized:
            # used for within-pairs, cross-probe AND the checkpoint;
            # partition-bounded by the runner's checkpoint unit)
            sig_ds = deduped.map_batches(
                MinHashSigStage("text", "doc_id", shingle_k, num_perm),
                batch_format="pyarrow").materialize()

        # cross-partition dedup vs the accumulated seen checkpoints
        seen_files = sorted(
            glob.glob(os.path.join(state_dir, "seen_*.parquet")))
        seen_files = [f for f in seen_files
                      if int(os.path.basename(f)[5:-8]) < i]
        if seen_files:
            seen_ds = _rp(seen_files)
            n_seen = seen_ds.count()
            if n_seen <= SEEN_BROADCAST_MAX_KEYS:
                sk = np.sort(seen_ds.to_pandas().fp
                             .to_numpy(dtype=object))
                deduped = deduped.map_batches(
                    _isin_filter("fp_md5", sk, keep=False),
                    batch_format="pyarrow")
            else:
                def fp_narrow(b: pa.Table) -> pa.Table:
                    return pa.table({
                        "fp": b["fp"].cast(pa.string())})

                def key_cast(b: pa.Table) -> pa.Table:
                    # join keys must not mix string/large_string
                    i = b.schema.get_field_index("fp_md5")
                    return b.set_column(
                        i, "fp_md5", b["fp_md5"].cast(pa.string()))

                deduped = hash_join(
                    deduped.map_batches(key_cast,
                                        batch_format="pyarrow"),
                    seen_ds.map_batches(fp_narrow,
                                        batch_format="pyarrow"),
                    on=("fp_md5",), right_on=("fp",),
                    join_type="left_anti")

        if neardup:
            # within-partition greedy (drop the larger id of any
            # est >= threshold pair) + cross-partition drops against
            # the accumulated signature checkpoints
            n_cand = sig_ds.count()
            pairs = minhash_pairs_from_sigs(
                sig_ds, n_cand, id_col="doc_id",
                threshold=neardup_threshold, num_perm=num_perm,
                num_bands=num_bands).to_pandas()
            drops = (np.unique(pairs.id_b.to_numpy(np.int64))
                     if len(pairs) else np.empty(0, np.int64))
            nd_within = int(len(drops))
            sig_files = sorted(
                glob.glob(os.path.join(state_dir, "sigs_*.parquet")))
            sig_files = [f for f in sig_files
                         if int(os.path.basename(f)[5:-8]) < i]
            if sig_files:
                cross = _cross_neardup_drops(
                    sig_ds, sig_files, neardup_threshold,
                    num_perm, num_bands)
                drops = np.union1d(drops, cross)
            nd_total = int(len(drops))
            if len(drops):
                deduped = deduped.map_batches(
                    _isin_filter("doc_id", drops, keep=False),
                    batch_format="pyarrow")

        pdir = partition_dir(out_dir, i)
        tmpdir = pdir + ".tmp"
        if os.path.isdir(tmpdir):
            import shutil
            shutil.rmtree(tmpdir)
        if not os.path.isdir(pdir):
            os.makedirs(tmpdir, exist_ok=True)
            deduped.write_parquet(tmpdir)
            os.rename(tmpdir, pdir)
        out_ds = _rp(pdir)
        n_out = out_ds.count()
        # sketch-state checkpoint: the partition's published keys
        seen_path = os.path.join(state_dir, f"seen_{i}.parquet")
        if not os.path.exists(seen_path):
            tmp = seen_path + ".tmp"
            kept = out_ds.map_batches(
                lambda b: pa.table({"fp": b["fp_md5"].cast(
                    pa.string())}),
                batch_format="pyarrow").to_pandas()
            pa_tbl = pa.Table.from_pandas(kept, preserve_index=False)
            import pyarrow.parquet as pq

            pq.write_table(pa_tbl, tmp)
            os.replace(tmp, seen_path)
        blobs = [seen_path]
        if neardup:
            # NEAR-dup sketch-state checkpoint: the partition's
            # candidate-set signature table (deterministic, so a
            # crash-resume rewrite is byte-identical)
            sigs_path = os.path.join(state_dir, f"sigs_{i}.parquet")
            if not os.path.exists(sigs_path):
                tmp = sigs_path + ".tmp"
                import pyarrow.parquet as pq

                sig_tbl = pa.concat_tables(list(sig_ds.iter_batches(
                    batch_size=None, batch_format="pyarrow"))) \
                    if sig_ds.count() else pa.table(
                        {"doc_id": pa.array([], pa.int64()),
                         "sig": pa.array([], pa.large_binary())})
                pq.write_table(sig_tbl, tmp)
                os.replace(tmp, sigs_path)
            blobs.append(sigs_path)
        metrics = {"wall_s": round(time.perf_counter() - t0, 3),
                   "rows_in": int(n_in),
                   "gate_kept": gate_kept,
                   "exact_kept": exact_kept}
        if neardup:
            metrics["neardup_within_dropped"] = nd_within
            metrics["neardup_dropped_total"] = nd_total
        write_manifest(out_dir, PartitionManifest(
            partition=i,
            inputs=[frag],
            row_count=int(n_out),
            metrics=metrics,
            sketch_blobs=blobs,
            complete=True,
        ))
        completed.append(i)
        total_rows += int(n_out)
        fresh += 1
    return {"completed": completed, "skipped": skipped,
            "rows": total_rows}


def curation_partition_report(out_dir: str):
    """Per-partition lineage-metrics table of a (possibly resumed)
    curation run, read from the published ``_lineage.json`` manifests
    — the operator-facing view of the north-rule requirement that
    "every partition emits lineage + metrics": rows in, quality-gate
    survivors, within-partition exact-dedup winners, published rows
    (after cross-partition drops), and wall seconds.  Reads only the
    manifests — never the data — so it is instant at any scale."""
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
        if "neardup_dropped_total" in m.metrics:
            r["neardup_dropped_total"] = int(
                m.metrics["neardup_dropped_total"])
        rows.append(r)
    return pd.DataFrame(rows)
