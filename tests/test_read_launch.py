"""read_parquet's block size: what Ray Data assumes a map task will hold
before any task has reported, so how many tasks it starts at once —
and build_filters, which raises it for its own partial blocks only."""

import json
import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data

import biobloom_ray.pipelines.build as pb
from biobloom_ray.config import BuildConfig
from biobloom_ray.io import read_block_bytes, read_parquet

LABELS = ["de", "en", "fr"]


def _write(d, n_files, rows=60):
    """``n_files`` parquet files; file i holds ``rows + 10 * i`` rows of
    ``text`` and ``lang``, every label in turn."""
    os.makedirs(d, exist_ok=True)
    for i in range(n_files):
        n = rows + 10 * i
        pq.write_table(pa.table({
            "text": [" ".join(str((i * 1000 + j) * 7919 + w * 104729)
                              for w in range(12)) for j in range(n)],
            "lang": [LABELS[j % len(LABELS)] for j in range(n)],
            "doc_id": list(range(n))}), os.path.join(d, f"part-{i:02d}.parquet"))
    return d


def _text_bytes(path):
    md = pq.read_metadata(path)
    col = md.schema.names.index("text")
    return sum(md.row_group(g).column(col).total_uncompressed_size
               for g in range(md.num_row_groups))


def _default_block_size():
    return ray.data.DataContext.get_current().target_max_block_size


def test_block_bytes_are_the_blocks_selected_columns(tmp_path):
    d = _write(str(tmp_path), 5)
    files = sorted(os.path.join(d, f) for f in os.listdir(d))
    text = [_text_bytes(f) for f in files]
    # two blocks: Ray's array_split gives files 0-2 and 3-4
    assert read_block_bytes(files, ["text"], 2) == max(sum(text[:3]),
                                                       sum(text[3:]))
    assert read_block_bytes(files, ["text"], 5) == max(text)
    # every column counts when none is selected
    assert read_block_bytes(files, None, 5) > max(text)


def test_read_sets_the_largest_blocks_bytes(ray_session, tmp_path):
    d = _write(str(tmp_path), 8)
    files = sorted(os.path.join(d, f) for f in os.listdir(d))
    ds = read_parquet(d, columns=["text"])
    # 4 cpus in the session: 8 files read as 8 whole-file blocks
    assert ds.context.target_max_block_size == max(map(_text_bytes, files))
    assert ds.context.target_max_block_size < _default_block_size()
    # the read's own blocks are not sliced by the smaller target
    assert ds.materialize().num_blocks() == 8
    assert ds.count() == sum(60 + 10 * i for i in range(8))


def test_read_never_raises_the_block_size(ray_session, tmp_path):
    d = _write(str(tmp_path), 8)
    ctx = ray.data.DataContext.get_current()
    prev = ctx.target_max_block_size
    ctx.target_max_block_size = 1000
    try:
        assert read_parquet(d).context.target_max_block_size == 1000
    finally:
        ctx.target_max_block_size = prev


@pytest.mark.parametrize("case", ["one file", "uri", "override"])
def test_other_reads_keep_rays_block_size(ray_session, tmp_path, case):
    d = _write(str(tmp_path), 8)
    if case == "one file":
        ds = read_parquet(os.path.join(d, "part-00.parquet"))
    elif case == "uri":
        ds = read_parquet("file://" + d)
    else:
        ds = read_parquet(d, override_num_blocks=8)
    assert ds.context.target_max_block_size == _default_block_size()


def _spy_fold(monkeypatch, seen, fail=False):
    real = pb.fold_partials

    def spy(parts, *a, **kw):
        parts = parts.materialize()
        seen.append({"target": parts.context.target_max_block_size,
                     "blocks": [m.num_rows for b in
                                parts.iter_internal_ref_bundles()
                                for _, m in b.blocks]})
        if fail and a[0] is pb.PARTIAL_SKETCHES:  # the build's fold
            raise RuntimeError("fold failed")
        return real(parts, *a, **kw)

    monkeypatch.setattr(pb, "fold_partials", spy)


def test_build_emits_one_partial_block_per_batch(ray_session, tmp_path,
                                                 monkeypatch):
    d = _write(str(tmp_path), 8)
    ds = read_parquet(d, columns=["text", "lang"])
    read_target = ds.context.target_max_block_size
    seen = []
    _spy_fold(monkeypatch, seen)
    cfg = BuildConfig(kmer_size=8, batch_size=30)
    built = pb.build_filters(ds, label_col="lang", cfg=cfg)
    build = seen[-1]
    # raised for the build to a batch's partials: a row per label
    assert build["target"] > read_target
    n_batches = sum(-(-(60 + 10 * i) // 30) for i in range(8))
    assert build["blocks"] == [len(LABELS)] * n_batches
    # and restored for the caller
    assert ds.context.target_max_block_size == read_target
    single = pb.build_filters(
        ray.data.from_arrow(pa.concat_tables(
            pq.read_table(os.path.join(d, f), columns=["text", "lang"])
            for f in sorted(os.listdir(d)))),
        label_col="lang", cfg=cfg)
    assert {f: r["filter"].words.tobytes() for f, r in built.items()} == \
        {f: r["filter"].words.tobytes() for f, r in single.items()}


def test_build_restores_the_callers_block_size(ray_session, tmp_path,
                                               monkeypatch):
    d = _write(str(tmp_path), 8)
    ds = read_parquet(d, columns=["text", "lang"])
    read_target = ds.context.target_max_block_size
    seen = []
    _spy_fold(monkeypatch, seen, fail=True)
    with pytest.raises(RuntimeError, match="fold failed"):
        pb.build_filters(ds, label_col="lang", cfg=BuildConfig(kmer_size=8))
    assert seen[-1]["target"] > read_target
    assert ds.context.target_max_block_size == read_target


_LAUNCH_SCRIPT = r"""
import json, os, sys, time
import pyarrow as pa, pyarrow.parquet as pq
import ray
ray.init(address="local", num_cpus=4, object_store_memory=10**9,
         include_dashboard=False, logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False
from biobloom_ray.io import read_parquet
d = sys.argv[1]
for i in range(8):
    pq.write_table(pa.table({"text": [f"doc {i} {j}" for j in range(100)]}),
                   os.path.join(d, f"part-{i}.parquet"))

def stamp(b):
    t0 = time.time()
    time.sleep(0.3)
    return pa.table({"pid": [os.getpid()], "start": [t0],
                     "end": [time.time()]})

for _ in range(2):  # the second pass runs on warm workers
    rows = read_parquet(d).map_batches(stamp, batch_format="pyarrow").take_all()
print(json.dumps(rows))
ray.shutdown()
"""


def test_every_worker_starts_at_once(tmp_path):
    """Ray with 4 cpus and a 1 GB object store reads 8 local files: at
    least 3 map tasks start before the first one ends."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=root)
    p = subprocess.Popen(
        [sys.executable, "-c", _LAUNCH_SCRIPT, str(tmp_path)], cwd=root,
        env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=240)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, 9)
        p.communicate()
        pytest.fail("the launch-timeline script hung")
    assert p.returncode == 0
    calls = json.loads(out.strip().splitlines()[-1])
    assert len(calls) == 8
    first_end = min(c["end"] for c in calls)
    assert sum(c["start"] < first_end for c in calls) >= 3, calls
