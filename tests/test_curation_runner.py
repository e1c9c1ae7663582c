"""Curation runner edge cases and state handling, the MinHash signature
kernel, and the Bloom join's cluster tier at two cpus.

- degenerate fragments (empty, all gated out, one row, docs shorter
  than the shingle width, negative ids) against a single-shot
  recomputation, with near-dup on and off, and at forced-zero gates;
- a kill after publish re-derives identical rows and state files;
- a fresh run reads no state checkpoint, a resumed run reads each
  finished partition's checkpoint exactly once;
- per-step seconds in the manifests sum to at most ``wall_s``;
- a run is one read of its pending fragments and no Dataset write; a
  doc_id repeated within a fragment fails loudly; a run killed mid-way
  on two cpus resumes to the uninterrupted output;
- ``MinHashSigStage`` equals a (row, hash) lexsort-dedup reference.
"""

import collections
import hashlib
import os
import subprocess
import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from biobloom_ray.state.lineage import MANIFEST_NAME, partition_dir

WORDS = np.array(["alpha", "beta", "gamma", "delta", "kappa", "sigma",
                  "omega", "theta", "lambda", "zeta", "rho", "tau"])


def _docs(ids, rng, planted=()):
    """Word-salad docs; ``planted`` maps a position to the text it
    copies (exact) or extends (near: a few words appended)."""
    text = [" ".join(rng.choice(WORDS, rng.integers(12, 40)))
            for _ in ids]
    for pos, (src, kind) in planted:
        text[pos] = src if kind == "exact" else src + " qq zz xx"
    return pd.DataFrame({"doc_id": np.asarray(ids, dtype=np.int64),
                         "text": text})


def _frag(texts, first_id):
    return pd.DataFrame({
        "doc_id": np.arange(first_id, first_id + len(texts),
                            dtype=np.int64),
        "text": pd.Series(texts, dtype=object)})


def _fragments():
    """Named doc_id-ordered building blocks of the fragment cases."""
    rng = np.random.default_rng(11)
    a = _docs(range(100, 140), rng)
    b = _docs(range(200, 240), rng, planted=[
        (0, (a.text[3], "exact")), (5, (a.text[7], "near")),
        (9, (a.text[7], "exact"))])
    c = _docs(range(300, 330), rng, planted=[
        (2, (b.text[11], "near")), (4, (a.text[3], "exact"))])
    return {
        "a": a, "b": b, "c": c, "empty": a.iloc[:0],
        "gated_low": _frag(["1234 5678 90", "!!!! ????", "42"], 50),
        "gated_mid": _frag(["1234 5678 90", "7 7 7", "42"], 150),
        "one_row": b.iloc[5:6],
        "short_mid": _frag(["abc", "ab", "abc", "", "x y"], 150),
        "short_high": _frag(["abc", "xyz", "", "ab"], 250),
    }


def _cases():
    """name → doc_id-ordered fragment list."""
    f = _fragments()
    return {
        # the reported crash: every doc of partition 0 fails the gate
        "gated_first_minimal": [_frag(["1234 5678 90", "!!!! ????"], 0),
                                _frag(["plain words here"], 10)],
        "empty_first": [f["empty"], f["a"], f["b"]],
        "gated_first": [f["gated_low"], f["a"], f["b"]],
        "gated_middle": [f["a"], f["gated_mid"], f["b"], f["c"]],
        "one_row": [f["a"], f["one_row"], f["c"]],
        "shorter_than_k": [f["a"], f["short_mid"], f["b"],
                           f["short_high"]],
        "negative_ids": [f[k].assign(doc_id=f[k].doc_id - 1_000_000)
                         for k in ("a", "b", "c")],
    }


def _write(frags, d):
    os.makedirs(d, exist_ok=True)
    for i, f in enumerate(frags):
        pq.write_table(pa.Table.from_pandas(
            f.reset_index(drop=True), preserve_index=False,
            schema=pa.schema([("doc_id", pa.int64()),
                              ("text", pa.string())])),
            os.path.join(d, f"frag_{i:02d}.parquet"))


def _published(d):
    frames = []
    for name in sorted(os.listdir(d)):
        p = os.path.join(d, name)
        if not name.startswith("part="):
            continue
        for f in sorted(os.listdir(p)):
            if f.endswith(".parquet"):
                frames.append(pq.read_table(os.path.join(p, f))
                              .to_pandas())
    if not frames:
        return pd.DataFrame({"doc_id": pd.Series(dtype=np.int64)})
    return (pd.concat(frames).sort_values("doc_id")
            .reset_index(drop=True))


def _single_shot(full, neardup):
    """Gate, global first-wins exact dedup and (near-dup runs) the
    greedy min-neighbor rule over the whole gated corpus."""
    import ray

    from biobloom_ray.stages.dedup import minhash_neardup_pairs

    full = full.sort_values("doc_id").reset_index(drop=True)
    nc = full.text.str.len().astype("int64")
    na = full.text.str.count(r"[A-Za-z]").astype("int64")
    gated = full[100 * na >= 50 * nc]
    drop = gated.text.duplicated(keep="first")
    if neardup and len(gated):
        pairs = minhash_neardup_pairs(
            ray.data.from_pandas(gated[["doc_id", "text"]]
                                 .reset_index(drop=True)),
            threshold=0.6)
        drop |= gated.doc_id.isin(set(pairs.id_b.tolist()))
    return list(gated[~drop].doc_id)


@pytest.mark.parametrize("neardup", [False, True])
@pytest.mark.parametrize("case", sorted(_cases()))
def test_degenerate_fragments_match_single_shot(ray_session, tmp_path,
                                                case, neardup):
    from biobloom_ray.pipelines.resumable import (
        curation_partition_report, run_partitioned_curation)

    frags = _cases()[case]
    in_dir, out = str(tmp_path / "in"), str(tmp_path / "out")
    _write(frags, in_dir)
    r = run_partitioned_curation(in_dir, out, neardup=neardup)
    assert r["completed"] == list(range(len(frags)))
    got = _published(out)
    assert list(got.doc_id) == _single_shot(pd.concat(frags), neardup)
    assert r["rows"] == len(got)
    rep = curation_partition_report(out)
    assert list(rep.rows_in) == [len(f) for f in frags]
    # every seen checkpoint is typed, even for a partition with no rows
    for i in range(len(frags)):
        t = pq.read_table(os.path.join(out, "state", f"seen_{i}.parquet"))
        assert t.schema.names == ["fp"] and t.schema.types == [pa.string()]
    # a re-run over the finished output skips every partition
    again = run_partitioned_curation(in_dir, out, neardup=neardup)
    assert again["skipped"] == list(range(len(frags)))


def test_degenerate_fragments_forced_gate_parity(ray_session, tmp_path,
                                                 monkeypatch):
    """Every join tier (seen left_anti, near-dup band join, signatures
    kept in the cluster, the pair verifier's joins) over empty,
    gated-out, one-row and short-doc partitions publishes what the
    in-memory tiers publish."""
    import biobloom_ray.pipelines.resumable as RS
    import biobloom_ray.stages.dedup as D

    f = _fragments()
    frags = [f[k] for k in ("gated_low", "empty", "a", "gated_mid",
                            "one_row", "short_high", "c")]
    in_dir = str(tmp_path / "in")
    _write(frags, in_dir)
    RS.run_partitioned_curation(in_dir, str(tmp_path / "mem"),
                                neardup=True)
    monkeypatch.setattr(RS, "SEEN_BROADCAST_MAX_KEYS", 0)
    monkeypatch.setattr(RS, "NEARDUP_STATE_BROADCAST_MAX_ROWS", 0)
    monkeypatch.setattr(D, "BAND_DRIVER_MAX_ROWS", 0)
    monkeypatch.setattr(D, "BROADCAST_LIMIT", 0)
    RS.run_partitioned_curation(in_dir, str(tmp_path / "join"),
                                neardup=True)
    a = _published(str(tmp_path / "mem"))
    b = _published(str(tmp_path / "join"))
    assert len(a) > 0 and a.equals(b)
    assert list(a.doc_id) == _single_shot(pd.concat(frags), True)

    # signature checkpoints written as directories load into memory on
    # resume at the default gates
    mixed = str(tmp_path / "mixed")
    monkeypatch.undo()
    monkeypatch.setattr(D, "BAND_DRIVER_MAX_ROWS", 0)
    RS.run_partitioned_curation(in_dir, mixed, neardup=True, fail_after=4)
    assert os.path.isdir(os.path.join(mixed, "state", "sigs_2.parquet"))
    monkeypatch.undo()
    RS.run_partitioned_curation(in_dir, mixed, neardup=True)
    assert _published(mixed).equals(a)


def _state_tables(out):
    d = os.path.join(out, "state")
    return {f: pq.read_table(os.path.join(d, f))
            for f in sorted(os.listdir(d))}


def test_kill_after_publish_rederives_state(ray_session, tmp_path):
    """A kill between the publish rename and the state/manifest writes
    leaves part=<i> without its checkpoints; the re-run must re-derive
    identical rows and identical state files."""
    from biobloom_ray.pipelines.resumable import run_partitioned_curation

    frags = _cases()["gated_middle"]
    in_dir, out = str(tmp_path / "in"), str(tmp_path / "out")
    _write(frags, in_dir)
    run_partitioned_curation(in_dir, out, neardup=True)
    last = len(frags) - 1
    rows, state = _published(out), _state_tables(out)
    for f in (f"seen_{last}.parquet", f"sigs_{last}.parquet"):
        os.remove(os.path.join(out, "state", f))
    os.remove(os.path.join(partition_dir(out, last), MANIFEST_NAME))
    r = run_partitioned_curation(in_dir, out, neardup=True)
    assert r["completed"] == [last]
    assert _published(out).equals(rows)
    again = _state_tables(out)
    assert again.keys() == state.keys()
    for f, t in state.items():
        assert again[f].equals(t), f


def test_state_files_read_once(ray_session, tmp_path, monkeypatch):
    """A fresh run holds its state in memory and reads no checkpoint; a
    run resumed after two partitions reads each of their checkpoints
    exactly once."""
    import biobloom_ray.pipelines.resumable as RS

    reads = collections.Counter()
    orig = RS._rp

    def counting(paths, *a, **kw):
        for p in paths if isinstance(paths, list) else [paths]:
            if f"{os.sep}state{os.sep}" in p:
                reads[os.path.basename(p)] += 1
        return orig(paths, *a, **kw)

    monkeypatch.setattr(RS, "_rp", counting)
    frags = _cases()["gated_middle"]
    in_dir = str(tmp_path / "in")
    _write(frags, in_dir)
    fresh = str(tmp_path / "fresh")
    RS.run_partitioned_curation(in_dir, fresh, neardup=True)
    assert not reads

    killed = str(tmp_path / "killed")
    RS.run_partitioned_curation(in_dir, killed, neardup=True, fail_after=2)
    assert not reads
    r = RS.run_partitioned_curation(in_dir, killed, neardup=True)
    assert r["completed"] == [2, 3]
    assert reads == {f"{k}_{i}.parquet": 1
                     for k in ("seen", "sigs") for i in (0, 1)}
    assert _published(killed).equals(_published(fresh))


def test_manifest_stage_seconds_within_wall(ray_session, tmp_path):
    """Each step's seconds are driver time, so they add up to the
    partition's ``wall_s`` and the partitions' ``wall_s`` to at most the
    run's wall.  Only partition 0 must have waited for the map: later
    partitions' rows can already be buffered when the driver asks."""
    import time

    from biobloom_ray.pipelines.resumable import (
        curation_partition_report, run_partitioned_curation)

    in_dir, out = str(tmp_path / "in"), str(tmp_path / "out")
    _write(_cases()["gated_middle"], in_dir)
    t0 = time.perf_counter()
    run_partitioned_curation(in_dir, out, neardup=True)
    wall = time.perf_counter() - t0
    rep = curation_partition_report(out)
    stages = rep[["map_s", "decide_s", "write_s", "state_s"]]
    assert (stages >= 0).all().all()
    assert (stages.sum(axis=1) <= rep.wall_s + 1e-9).all()
    assert rep.map_s.iloc[0] > 0
    assert rep.wall_s.sum() <= wall


@pytest.mark.parametrize("neardup", [False, True])
def test_curation_one_read_per_run(ray_session, tmp_path, monkeypatch,
                                   neardup):
    """A run maps its pending fragments in one read (one Ray Data
    execution) and publishes without ``Dataset.write_parquet``; a run
    resumed after two partitions maps only the other two."""
    import ray.data

    import biobloom_ray.pipelines.resumable as RS

    reads = []
    orig = RS._rp

    def recording(paths, *a, **kw):
        paths = paths if isinstance(paths, list) else [paths]
        if not any(f"{os.sep}state{os.sep}" in p for p in paths):
            reads.append(paths)
        return orig(paths, *a, **kw)

    def no_write(*a, **kw):
        raise AssertionError("Dataset.write_parquet called")

    monkeypatch.setattr(RS, "_rp", recording)
    monkeypatch.setattr(ray.data.Dataset, "write_parquet", no_write)
    in_dir = str(tmp_path / "in")
    _write(_cases()["gated_middle"], in_dir)
    frags = RS.input_fragments(in_dir)
    assert len(frags) == 4
    RS.run_partitioned_curation(in_dir, str(tmp_path / "fresh"),
                                neardup=neardup)
    assert reads == [frags]

    reads.clear()
    killed = str(tmp_path / "killed")
    RS.run_partitioned_curation(in_dir, killed, neardup=neardup,
                                fail_after=2)
    assert reads == [frags[:2]]
    reads.clear()
    r = RS.run_partitioned_curation(in_dir, killed, neardup=neardup)
    assert r["completed"] == [2, 3]
    assert reads == [frags[2:]]


def test_repeated_doc_id_in_fragment_fails_loudly(ray_session, tmp_path):
    """Rows publish by doc_id, so a doc_id that repeats within a fragment
    (here a gated-out row sharing a kept row's id) fails the run with
    the fragment and the id named; only the clean partition before it
    gets a manifest, and the failed partition leaves no output or
    checkpoint that a run over the corrected fragment would reuse."""
    import glob

    from biobloom_ray.pipelines.resumable import run_partitioned_curation

    frags = [_frag(["plain words here", "other plain words"], -2),
             pd.DataFrame({"doc_id": np.array([1, 2, 2, 3], np.int64),
                           "text": ["first clean words",
                                    "second clean words", "1234 5678 !!",
                                    "third clean words"]})]
    in_dir, out = str(tmp_path / "in"), str(tmp_path / "out")
    _write(frags, in_dir)
    with pytest.raises(ValueError,
                       match=r"doc_id 2 repeats in fragment .*frag_01"):
        run_partitioned_curation(in_dir, out)
    manifest = os.path.join(partition_dir(out, 0), MANIFEST_NAME)
    assert glob.glob(os.path.join(out, "part=*", MANIFEST_NAME)) \
        == [manifest]
    assert not os.path.exists(partition_dir(out, 1))
    assert sorted(os.listdir(os.path.join(out, "state"))) \
        == ["seen_0.parquet"]


_KILL_SCRIPT = """
import sys
import time
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import biobloom_ray.pipelines.resumable as RS

write = RS._write_partition._function


@ray.remote
def slow_last_write(frag, keep, pdir):
    if pdir.endswith("part=3"):
        time.sleep(30)
    write(frag, keep, pdir)


RS._write_partition = slow_last_write
RS.run_partitioned_curation(sys.argv[1], sys.argv[2], neardup=True)
"""


def test_kill_mid_run_resumes_two_cpus(ray_session, tmp_path):
    """SIGKILL a near-dup run on a 2-cpu cluster as soon as partition
    0's manifest appears, while the last partition's write (slowed)
    is still running; resuming publishes the rows and writes the state
    tables of an uninterrupted run."""
    import signal
    import time

    from biobloom_ray.pipelines.resumable import run_partitioned_curation

    in_dir = str(tmp_path / "in")
    killed, clean = str(tmp_path / "killed"), str(tmp_path / "clean")
    _write(_cases()["gated_middle"], in_dir)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    p = subprocess.Popen(
        [sys.executable, "-c", _KILL_SCRIPT, in_dir, killed], cwd=root,
        env=dict(os.environ, PYTHONPATH=root), start_new_session=True)
    first = os.path.join(partition_dir(killed, 0), MANIFEST_NAME)
    try:
        deadline = time.monotonic() + 240
        while not os.path.exists(first):
            assert p.poll() is None, "the run died before partition 0"
            assert time.monotonic() < deadline, "partition 0 never landed"
            time.sleep(0.005)
    finally:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
    assert not os.path.exists(
        os.path.join(partition_dir(killed, 3), MANIFEST_NAME))
    r = run_partitioned_curation(in_dir, killed, neardup=True)
    assert 3 in r["completed"]
    run_partitioned_curation(in_dir, clean, neardup=True)
    assert _published(killed).equals(_published(clean))
    got, want = _state_tables(killed), _state_tables(clean)
    assert got.keys() == want.keys()
    for f, t in want.items():
        assert got[f].equals(t), f


# ---------------------------------------------------------------------------
# MinHash signature kernel
# ---------------------------------------------------------------------------

def _reference_sigs(texts, k, num_perm):
    """The (row, hash) lexsort shingle dedup, then the signatures."""
    from biobloom_ray.hashing import shingle_hashes
    from biobloom_ray.sketches.minhash import minhash_signatures

    h1, _, nf = shingle_hashes(texts, k)
    nrow = len(nf)
    row_of = np.repeat(np.arange(nrow, dtype=np.int64), nf)
    order = np.lexsort((h1, row_of))
    hs, ro = h1[order], row_of[order]
    nfu = np.zeros(nrow, dtype=np.int64)
    if len(hs):
        first = np.r_[True, (hs[1:] != hs[:-1]) | (ro[1:] != ro[:-1])]
        hs = hs[first]
        np.add.at(nfu, ro[first], 1)
    return minhash_signatures(hs, nfu, num_perm, 0x31337)


def _kernel_batches():
    rng = np.random.default_rng(3)
    web = [" ".join(rng.choice(WORDS, rng.integers(1, 80)))
           for _ in range(300)]
    web += [web[7] * 3, "", "a", web[2] + " " + web[2]]
    short_rows = [f"w{i % 977}x{i % 13}" for i in range(70_000)]
    return {"zero_rows": [], "all_shorter_than_k": ["ab", "", "abcd"],
            "one_row": ["the same words the same words"],
            "web_like": web, "over_65536_rows": short_rows}


@pytest.mark.parametrize("name", sorted(_kernel_batches()))
def test_minhash_sig_stage_matches_lexsort_reference(name):
    from biobloom_ray.stages.dedup import MinHashSigStage, _sig_matrix

    texts = _kernel_batches()[name]
    num_perm = 32
    batch = pa.table({"doc_id": pa.array(np.arange(len(texts)),
                                         pa.int64()),
                      "text": pa.array(texts, pa.large_string())})
    got = _sig_matrix(MinHashSigStage("text", "doc_id", 5, num_perm)(
        batch)["sig"], num_perm)
    want = _reference_sigs(batch["text"].combine_chunks(), 5, num_perm)
    assert got.shape == (len(texts), num_perm)
    assert np.array_equal(got, want)


def test_minhash_neardup_pairs_unchanged_sf001(ray_session, monkeypatch):
    """The driver band tier's pairs on sf0.01 equal the cluster tier's
    and the digest recorded before the single-key dedup and the shared
    numpy band core."""
    import ray

    import biobloom_ray.stages.dedup as D
    from biobloom_ray.stages.dedup import (minhash_neardup_pairs,
                                           minhash_neardup_pairs_ds)

    from __ray_entry__ import SF0001

    sf001 = os.path.join(os.path.dirname(SF0001), "sf0.01")
    docs = pd.read_parquet(os.path.join(sf001, "documents.parquet"),
                           columns=["doc_id", "text"])
    ds = ray.data.from_pandas(docs)
    got = minhash_neardup_pairs(ds, threshold=0.6)
    assert len(got) == 25
    assert hashlib.sha256(got.to_csv(index=False).encode()).hexdigest() \
        == "f357fd22a71864ef906f2cafcd6989ce72910df44c568d03bb0a2f21220c01a7"
    monkeypatch.setattr(D, "BAND_DRIVER_MAX_ROWS", 0)
    cluster = (minhash_neardup_pairs_ds(ds, threshold=0.6)
               .to_pandas().sort_values(["id_a", "id_b"])
               .reset_index(drop=True))
    assert cluster.equals(got)


# ---------------------------------------------------------------------------
# Bloom join cluster tier at two cpus
# ---------------------------------------------------------------------------

_BLOOM_JOIN_SCRIPT = """
import sys
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import biobloom_ray.pipelines.analytics as A
driver = A.bloom_prune_join_revenue(sys.argv[1])
A.LINEITEM_DRIVER_MAX_ROWS = 0
cluster = A.bloom_prune_join_revenue(sys.argv[1])[list(driver.columns)]
print(len(driver), driver.equals(cluster))
ray.shutdown()
"""


def test_bloom_join_cluster_tier_two_cpus():
    """The cluster tier's probe must not starve against the join's
    aggregators on a 2-cpu cluster (it hung as an actor pool)."""
    from __ray_entry__ import SF0001

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=root)
    p = subprocess.Popen(
        [sys.executable, "-c", _BLOOM_JOIN_SCRIPT, SF0001],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, _ = p.communicate(timeout=240)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, 9)
        p.communicate()
        pytest.fail("bloom_prune_join_revenue cluster tier hung at 2 cpus")
    assert p.returncode == 0
    n, same = out.strip().splitlines()[-1].split()
    assert int(n) > 0 and same == "True"
