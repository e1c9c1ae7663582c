"""The three workloads.  Each one times calls into the package's public
pipelines, checks every output it times, and can replay its layers
single-threaded in process under a :class:`~perfbench.trace.Tracer`.

Interface of a workload:

- ``prepare()``    set-up after ``ray.init``: worker warm-up (and, for
  categorize, the filter bank build) — part of ``setup_s``;
- ``execute()``    one timed pass; raises ``CheckFailed`` when the output
  is wrong, or differs from the first output recorded for the same inputs
  in this or an earlier run (``digests``);
- ``finish()``     checks that need a reference computed after the timed
  passes (so it stays out of the driver's peak RSS); returns what is
  wrong with every pass, or None;
- ``pass_targets()`` functions to wrap with spans during the traced pass;
- ``replay(tr)``   the traced single-thread layer replay;
- ``traced_extras(recorder)`` per-layer metrics of the traced pass.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from perfbench import inputs
from perfbench.trace import Tracer


class CheckFailed(AssertionError):
    """A timed pass produced a wrong output."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _fragments(d: str) -> list[str]:
    return sorted(glob.glob(os.path.join(d, "*.parquet")))


@contextlib.contextmanager
def spans_around(tr: Tracer, targets):
    """Temporarily wrap ``owner.attr`` for each ``(owner, attr, span,
    on_result)`` so every call records a span named ``span``;
    ``on_result(tr, args, result)``, when given, records counters."""
    saved = []
    for owner, attr, name, on_result in targets:
        orig = owner.__dict__[attr]

        def wrapper(*a, _orig=orig, _name=name, _on=on_result, **kw):
            with tr.span(_name):
                out = _orig(*a, **kw)
            if _on is not None:
                _on(tr, a, out)
            return out

        setattr(owner, attr, wrapper)
        saved.append((owner, attr, orig))
    try:
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def _count_frames(tr: Tracer, args, out) -> None:
    tr.count("hashing.frames", len(out[0]))


def _count_probes(tr: Tracer, args, out) -> None:
    tr.count("sketches.bloom.probes", len(out))
    tr.count("sketches.bloom.frame_hits", int(out.sum()))


def _layer_metrics(tr: Tracer, layers: dict[str, str], fused: str,
                   unattributed: str) -> dict:
    """Self time per layer span plus the fused call's own self time, so
    the layer times and ``unattributed`` add up to the fused call."""
    out = {metric: tr.self_time(span) for metric, span in layers.items()}
    out[fused + "_s"] = tr.total(fused)
    out[unattributed] = tr.self_time(fused)
    return out


class Workload:
    """Defaults shared by the workloads; see the module docstring."""

    name: str
    pipeline: str  # the per-layer prefix of its parallel efficiency

    def __init__(self, inp: dict, work_dir: str, seed: int, digests: dict):
        self.dir = inp["dir"]
        self.warmup_dir = inp["warmup_dir"]
        self.n_docs = inp["stats"]["rows"]
        self.work_dir = work_dir
        self.seed = seed
        self.digests = digests

    def _stable(self, what: str, digest: str) -> None:
        """Fail unless ``digest`` equals the first one recorded for these
        inputs, by this run or an earlier one (run.py keeps ``digests``
        on disk)."""
        first = self.digests.setdefault(what, digest)
        _require(digest == first,
                 f"{what} differ from the first output on these inputs")

    def finish(self) -> str | None:
        return None

    def pass_targets(self) -> list:
        return []

    def traced_extras(self, recorder) -> dict:
        return {}


# ---------------------------------------------------------------------------
# categorize_pages
# ---------------------------------------------------------------------------

CAT_K = 8


def _cat_cfg():
    from biobloom_ray.config import CategorizeConfig

    return CategorizeConfig(scoring_method="simple", score_threshold=0.15,
                            mode="std", batch_size=None)


def _page_check(fids: list[str]):
    """Per-block output check fused into the timed pipeline: every ``zz``
    page is noMatch and every other page hits its own language's
    filter."""
    sorted_ids = np.array(sorted(fids), dtype=object)
    bit_of_sorted = np.array([fids.index(f) for f in sorted_ids],
                             dtype=np.uint64)

    def check(b: pa.Table) -> pa.Table:
        lang = b["lang"].to_numpy(zero_copy_only=False)
        label = b["label"].to_numpy(zero_copy_only=False)
        mask = b["hit_mask"].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        zz = lang == "zz"
        _require(bool((label[zz] == "noMatch").all()),
                 "a zz negative-control page matched a filter")
        pos = np.searchsorted(sorted_ids, lang[~zz])
        _require(bool((sorted_ids[pos] == lang[~zz]).all()),
                 "page language without a filter")
        own = (mask[~zz] >> bit_of_sorted[pos]) & np.uint64(1)
        _require(bool(own.all()),
                 "a page missed its own language's filter")
        return b

    return check


class CategorizePages(Workload):
    name = "categorize_pages"
    pipeline = "pipelines.categorize"

    def prepare(self) -> None:
        import ray.data

        from biobloom_ray.config import BuildConfig
        from biobloom_ray.pipelines.build import build_filters

        ref = ray.data.from_arrow(inputs.ref_table(self.seed))
        built = build_filters(ref, text_col="doc", label_col="filter_id",
                              cfg=BuildConfig(kmer_size=CAT_K,
                                              batch_size=2048))
        self.bank = [built[f]["filter"] for f in sorted(built)]
        self.fids = [bf.filter_id for bf in self.bank]
        self._summary(self.warmup_dir)

    def _summary(self, d: str):
        from biobloom_ray.io import read_parquet
        from biobloom_ray.pipelines.categorize import categorize
        from biobloom_ray.stages.categorize import summary_table

        labeled = categorize(read_parquet(d, columns=["text", "lang"]),
                             self.bank, _cat_cfg())
        checked = labeled.map_batches(_page_check(self.fids),
                                      batch_format="pyarrow")
        return summary_table(checked, self.fids)

    def execute(self) -> dict:
        t0 = time.perf_counter()
        summary = self._summary(self.dir)
        wall = time.perf_counter() - t0
        _require(bool((summary.hits + summary.misses == self.n_docs).all()),
                 "summary totals differ from the page count")
        self._stable("summary rows", hashlib.sha256(
            summary.to_csv(index=False).encode()).hexdigest())
        return {"wall_s": wall, "docs": self.n_docs, "partition_s": [wall]}

    def replay(self, tr: Tracer) -> dict:
        import biobloom_ray.stages.categorize as sc
        from biobloom_ray.sketches.bloom import BloomFilter

        actor = sc.CategorizerActor(self.bank, _cat_cfg())
        tables = [pq.read_table(f, columns=["text", "lang"])
                  for f in _fragments(self.dir)]
        targets = [
            (sc, "normalize_batch", "textnorm.normalize", None),
            (sc, "shingle_hashes", "hashing.shingle", _count_frames),
            (BloomFilter, "contains", "sketches.bloom.contains",
             _count_probes),
            (sc, "eval_batch", "scoring.eval", None),
            (sc, "labels_from_hits", "stages.categorize.label", None),
            (sc, "_hit_mask", "stages.categorize.label", None),
        ]
        with spans_around(tr, targets):
            for t in tables:
                with tr.span("stages.categorize.actor_call"):
                    actor(t)
        out = _layer_metrics(tr, {
            "textnorm.normalize_s": "textnorm.normalize",
            "hashing.shingle_s": "hashing.shingle",
            "sketches.bloom.contains_s": "sketches.bloom.contains",
            "scoring.eval_s": "scoring.eval",
            "stages.categorize.label_s": "stages.categorize.label",
        }, "stages.categorize.actor_call", "stages.categorize.unattributed_s")
        out["hashing.frames"] = tr.counts["hashing.frames"]
        out["sketches.bloom.probes"] = tr.counts["sketches.bloom.probes"]
        out["sketches.bloom.frame_hit_frac"] = (
            tr.counts["sketches.bloom.frame_hits"]
            / max(tr.counts["sketches.bloom.probes"], 1))
        out["replay_s"] = out["stages.categorize.actor_call_s"]
        return out


# ---------------------------------------------------------------------------
# build_bank
# ---------------------------------------------------------------------------

def _build_cfg():
    from biobloom_ray.config import BuildConfig

    return BuildConfig()


def _filter_bits(built: dict) -> dict:
    return {fid: (r["filter"].m, r["filter"].hash_num,
                  r["filter"].n_inserted,
                  hashlib.sha256(r["filter"].words.tobytes()).hexdigest())
            for fid, r in built.items()}


class BuildBank(Workload):
    name = "build_bank"
    pipeline = "pipelines.build"
    first_bits = None
    single_bits = None

    def _single_process_build(self, tr: Tracer | None = None) -> dict:
        """The same kernels as ``build_filters`` in one process: pre-pass,
        one partial per 2048-row batch, OR-merge per filter."""
        from biobloom_ray.sketches.bloom import BloomFilter
        from biobloom_ray.sketches.hll import HLL
        import biobloom_ray.stages.build as sb

        tr = tr or Tracer()
        cfg = _build_cfg()
        table = pa.concat_tables(pq.read_table(f, columns=["text", "lang"])
                                 for f in _fragments(self.dir))
        batches = [table.slice(i, cfg.batch_size)
                   for i in range(0, table.num_rows, cfg.batch_size)]
        expected: dict[str, int] = {}
        with tr.span("stages.build.expected_entries"):
            for b in batches:
                part = sb.expected_entries_batch(b, "text", cfg.kmer_size,
                                                 "lang")
                for fid, n in zip(part["filter_id"].to_pylist(),
                                  part["frames"].to_pylist()):
                    expected[fid] = expected.get(fid, 0) + n
        builder = sb.PartialBloomBuilder(
            sizes=sb.compute_sizes(expected, cfg), cfg=cfg, text_col="text",
            label_col="lang")
        targets = [
            (sb, "normalize_batch", "textnorm.normalize", None),
            (sb, "shingle_hashes", "hashing.shingle", _count_frames),
            (BloomFilter, "insert", "sketches.bloom.insert", None),
            (BloomFilter, "serialize", "sketches.bloom.serialize", None),
            (HLL, "update", "sketches.hll.update", None),
        ]
        partials = []
        with spans_around(tr, targets):
            for b in batches:
                with tr.span("stages.build.builder_call"):
                    partials.append(builder(b))
        parts = pa.concat_tables(partials).to_pandas()
        out = {}
        with tr.span("stages.build.merge"):
            for fid, group in parts.groupby("filter_id"):
                row = sb.merge_partials_group(group).iloc[0]
                out[fid] = {"filter": BloomFilter.deserialize(row["blob"])}
        return out

    def finish(self) -> str | None:
        if self.single_bits is None:
            self.single_bits = _filter_bits(self._single_process_build())
        if self.first_bits != self.single_bits:
            return "Ray-built filters differ from the single-process build"
        return None

    def prepare(self) -> None:
        self._build(self.warmup_dir)

    def _build(self, d: str) -> dict:
        from biobloom_ray.io import read_parquet
        from biobloom_ray.pipelines.build import build_filters

        return build_filters(read_parquet(d, columns=["text", "lang"]),
                             text_col="text", label_col="lang",
                             cfg=_build_cfg())

    def execute(self) -> dict:
        t0 = time.perf_counter()
        built = self._build(self.dir)
        wall = time.perf_counter() - t0
        bits = _filter_bits(built)
        if self.first_bits is None:
            self.first_bits = bits
        self._stable("filters", hashlib.sha256(
            repr(sorted(bits.items())).encode()).hexdigest())
        self.last = built
        return {"wall_s": wall, "docs": self.n_docs, "partition_s": [wall]}

    def replay(self, tr: Tracer) -> dict:
        self.single_bits = _filter_bits(self._single_process_build(tr))
        out = _layer_metrics(tr, {
            "textnorm.normalize_s": "textnorm.normalize",
            "hashing.shingle_s": "hashing.shingle",
            "sketches.bloom.insert_s": "sketches.bloom.insert",
            "sketches.hll.update_s": "sketches.hll.update",
            "sketches.bloom.serialize_s": "sketches.bloom.serialize",
        }, "stages.build.builder_call", "stages.build.unattributed_s")
        out["stages.build.expected_entries_s"] = tr.total(
            "stages.build.expected_entries")
        out["stages.build.merge_s"] = tr.total("stages.build.merge")
        out["hashing.frames"] = tr.counts["hashing.frames"]
        out["replay_s"] = (out["stages.build.expected_entries_s"]
                           + out["stages.build.builder_call_s"]
                           + out["stages.build.merge_s"])
        return out

    def traced_extras(self, recorder) -> dict:
        op = recorder.operator("PartialBloomBuilder")
        f = [r["filter"] for r in self.last.values()]
        return {"stages.build.partials": op["rows_out"],
                "stages.build.partial_mb": op["bytes_out"] / 1e6,
                "sketches.bloom.distinct_frac":
                    sum(b.n_distinct for b in f)
                    / max(sum(b.n_inserted for b in f), 1)}


# ---------------------------------------------------------------------------
# curate_partitions
# ---------------------------------------------------------------------------

CUR_K = 5
CUR_PERM = 128
CUR_BANDS = 16
CUR_THRESHOLD = 0.6
MIN_ALPHA_PCT = 50


def _count_state_reads(tr: Tracer, args, out) -> None:
    paths = args[0] if isinstance(args[0], list) else [args[0]]
    tr.count("pipelines.resumable.state_files_read",
             sum(f"{os.sep}state{os.sep}" in p for p in paths))


class CuratePartitions(Workload):
    name = "curate_partitions"
    pipeline = "pipelines.resumable"
    passes = 0

    def __init__(self, inp: dict, work_dir: str, seed: int, digests: dict):
        super().__init__(inp, work_dir, seed, digests)
        self.n_parts = inp["stats"]["fragments"]

    def _run(self, d: str, out: str):
        from biobloom_ray.pipelines.resumable import (
            curation_partition_report, run_partitioned_curation)

        shutil.rmtree(out, ignore_errors=True)
        run_partitioned_curation(d, out, min_alpha_pct=MIN_ALPHA_PCT,
                                 neardup=True,
                                 neardup_threshold=CUR_THRESHOLD,
                                 shingle_k=CUR_K, num_perm=CUR_PERM,
                                 num_bands=CUR_BANDS)
        return curation_partition_report(out)

    def prepare(self) -> None:
        out = os.path.join(self.work_dir, "warmup")
        self._run(self.warmup_dir, out)
        shutil.rmtree(out)

    def execute(self) -> dict:
        out = os.path.join(self.work_dir, f"pass{self.passes}")
        self.passes += 1
        t0 = time.perf_counter()
        report = self._run(self.dir, out)
        wall = time.perf_counter() - t0
        try:
            self._check(out, report)
        finally:
            shutil.rmtree(out)
        self.last_report = report
        return {"wall_s": wall, "docs": self.n_docs,
                "partition_s": report.wall_s.tolist()}

    def _check(self, out: str, report) -> None:
        _require(len(report) == self.n_parts, "a partition is missing")
        _require(bool(((report.rows_out <= report.exact_kept)
                       & (report.exact_kept <= report.gate_kept)
                       & (report.gate_kept <= report.rows_in)).all()),
                 "manifest violates rows_out <= exact_kept <= gate_kept "
                 "<= rows_in")
        published = pa.concat_tables(
            pq.read_table(f, columns=["doc_id", "fp_md5"])
            for f in sorted(glob.glob(os.path.join(out, "part=*",
                                                   "*.parquet"))))
        _require(published.num_rows == int(report.rows_out.sum()),
                 "published rows differ from the manifests")
        fps = published["fp_md5"].to_numpy(zero_copy_only=False)
        _require(len(np.unique(fps)) == len(fps),
                 "an fp_md5 was published twice")
        ids = np.sort(published["doc_id"].to_numpy())
        self._stable("published doc_ids",
                     hashlib.sha256(ids.tobytes()).hexdigest())

    def replay(self, tr: Tracer) -> dict:
        """Gate → content hash → first-wins exact dedup → MinHash
        signatures → within-partition pairs, per input fragment."""
        import pyarrow.compute as pc
        import ray.data

        import biobloom_ray.stages.dedup as sd

        targets = [(sd, "shingle_hashes", "hashing.shingle", _count_frames)]
        sig_stage = sd.MinHashSigStage("text", "doc_id", CUR_K, CUR_PERM)
        for f in _fragments(self.dir):
            t = pq.read_table(f, columns=["doc_id", "text"])
            alpha = pc.count_substring_regex(t["text"], "[A-Za-z]")
            chars = pc.utf8_length(t["text"])
            gated = t.filter(pc.greater_equal(
                pc.multiply(alpha, 100), pc.multiply(chars, MIN_ALPHA_PCT)))
            with tr.span("stages.dedup.content_hash"):
                hashed = sd.add_content_hash(gated)
            _, first = np.unique(hashed["fp_md5"].to_numpy(
                zero_copy_only=False), return_index=True)
            cand = hashed.take(np.sort(first))
            with spans_around(tr, targets), \
                    tr.span("stages.dedup.minhash_sig"):
                sigs = sig_stage(cand)
            with tr.span("stages.dedup.pairs"):
                sd.minhash_pairs_from_sigs(
                    ray.data.from_arrow(sigs), len(sigs),
                    threshold=CUR_THRESHOLD, num_perm=CUR_PERM,
                    num_bands=CUR_BANDS).to_pandas()
        out = {"stages.dedup.content_hash_s":
               tr.total("stages.dedup.content_hash"),
               "stages.dedup.minhash_sig_s":
               tr.self_time("stages.dedup.minhash_sig"),
               "hashing.shingle_s": tr.self_time("hashing.shingle"),
               "stages.dedup.pairs_s": tr.total("stages.dedup.pairs"),
               "hashing.frames": tr.counts["hashing.frames"]}
        out["replay_s"] = (out["stages.dedup.content_hash_s"]
                           + tr.total("stages.dedup.minhash_sig")
                           + out["stages.dedup.pairs_s"])
        return out

    def pass_targets(self) -> list:
        import biobloom_ray.pipelines.resumable as pr

        return [(pr, "_rp", "pipelines.resumable.read_parquet",
                 _count_state_reads)]

    def traced_extras(self, recorder) -> dict:
        r = self.last_report
        return {
            "pipelines.resumable.partition_s_first": float(r.wall_s.iloc[0]),
            "pipelines.resumable.partition_s_last": float(r.wall_s.iloc[-1]),
            "pipelines.resumable.gate_kept_frac":
                r.gate_kept.sum() / r.rows_in.sum(),
            "pipelines.resumable.exact_kept_frac":
                r.exact_kept.sum() / r.gate_kept.sum(),
            "pipelines.resumable.neardup_drop_frac":
                r.neardup_dropped_total.sum() / r.exact_kept.sum(),
        }


WORKLOADS = {w.name: w for w in (CategorizePages, BuildBank,
                                 CuratePartitions)}
