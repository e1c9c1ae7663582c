"""fold_partials: the one fold of partial sketches, at both tiers,
against a sequential fold and under permuted task completion — and the
Bloom build that runs on it (forced-gate parity, empty reference, null
labels)."""

import numpy as np
import pyarrow as pa
import pytest

import ray

from biobloom_ray.config import BuildConfig
from biobloom_ray.sketches.bloom import BloomFilter
from biobloom_ray.sketches.cms import CountMinSketch
from biobloom_ray.sketches.fold import fold_partials
from biobloom_ray.sketches.hll import HLL

SKETCHES = {"bf": BloomFilter, "hll": HLL, "cms": CountMinSketch}


def _partial(rng, key):
    h1 = rng.integers(0, 2 ** 63, 200, dtype=np.uint64)
    h2 = rng.integers(0, 2 ** 63, 200, dtype=np.uint64)
    bf = BloomFilter(m=4096, hash_num=3, kmer_size=8, filter_id=str(key))
    bf.insert(h1, h2)
    hll = HLL(p=8)
    hll.update(h1)
    cms = CountMinSketch(depth=3, width=64)
    cms.update(h1 % np.uint64(50), 1)
    return {"k": key, "bf": bf.serialize(), "hll": hll.serialize(),
            "cms": cms.serialize(), "n": int(rng.integers(0, 100))}


def _parts(n, keys, seed=0):
    rng = np.random.default_rng(seed)
    return [_partial(rng, keys[i % len(keys)]) for i in range(n)]


def _dataset(rows, n_blocks=3):
    schema = pa.schema([("k", pa.large_string()), ("bf", pa.large_binary()),
                        ("hll", pa.large_binary()),
                        ("cms", pa.large_binary()), ("n", pa.int64())])
    chunks = [rows[i::n_blocks] for i in range(n_blocks)]
    return ray.data.from_arrow([pa.Table.from_pylist(c, schema=schema)
                                for c in chunks if c] or
                               [schema.empty_table()])


def _sequential(rows, key):
    out = {}
    for r in rows:
        k = r["k"] if key else None
        acc = out.setdefault(k, {**dict.fromkeys(SKETCHES), "n": 0})
        for col, cls in SKETCHES.items():
            sk = cls.deserialize(r[col])
            acc[col] = sk if acc[col] is None else acc[col].merge(sk)
        acc["n"] += r["n"]
    return dict(sorted(out.items()))


def _assert_same(got, want):
    assert list(got) == list(want)
    for k in want:
        g, w = got[k], want[k]
        assert g["n"] == w["n"]
        assert np.array_equal(g["bf"].words, w["bf"].words)
        assert (g["bf"].n_inserted, g["bf"].n_distinct, g["bf"].n_redundant,
                g["bf"].filter_id) == (w["bf"].n_inserted,
                                       w["bf"].n_distinct,
                                       w["bf"].n_redundant,
                                       w["bf"].filter_id)
        assert np.array_equal(g["hll"].registers, w["hll"].registers)
        assert np.array_equal(g["cms"].counts, w["cms"].counts)
        assert g["cms"].n == w["cms"].n


@pytest.fixture(params=["driver", "tree"])
def tier(request, monkeypatch):
    """``driver`` folds at the default gate; ``tree`` forces the gate to
    0, so every partial block goes to a fold task."""
    if request.param == "tree":
        import biobloom_ray.sketches.fold as F

        monkeypatch.setattr(F, "DRIVER_FOLD_MAX_BYTES", 0)
    return request.param


@pytest.mark.parametrize("key", ["k", None])
@pytest.mark.parametrize("n_parts", [0, 1, 9])
def test_fold_matches_sequential(ray_session, tier, key, n_parts):
    rows = _parts(n_parts, ["b", "a", "c"], seed=n_parts)
    got = fold_partials(_dataset(rows), SKETCHES, key=key, sums=("n",))
    _assert_same(got, _sequential(rows, key))


def test_fold_empty_blob_is_no_sketch(ray_session, tier):
    rows = _parts(4, ["a"])
    for r in rows[::2]:
        r["hll"] = b""
    got = fold_partials(_dataset(rows), {"hll": HLL}, key="k")
    want = HLL.deserialize(rows[1]["hll"]).merge(
        HLL.deserialize(rows[3]["hll"]))
    assert np.array_equal(got["a"]["hll"].registers, want.registers)
    none = [dict(r, hll=b"") for r in rows]
    assert fold_partials(_dataset(none), {"hll": HLL},
                         key="k") == {"a": {"hll": None}}


class _SpyFoldTasks:
    """Stands in for ``fold._fold_blocks``: counts the blocks each fold
    task is given, then runs the real task."""

    def __init__(self, real):
        self.real, self.calls = real, []

    def remote(self, sketches, key, sums, *blocks):
        self.calls.append(len(blocks))
        return self.real.remote(sketches, key, sums, *blocks)


def _bloom_blocks(n_blocks, m):
    def partial(b: pa.Table) -> pa.Table:
        bf = BloomFilter(m=m, hash_num=3, kmer_size=8)
        ids = b["id"].to_numpy().astype(np.uint64)
        bf.insert(ids * np.uint64(0x9E3779B97F4A7C15), ids + np.uint64(1))
        return pa.table({"bf": pa.array([bf.serialize()], pa.large_binary()),
                         "n": pa.array([len(ids)], pa.int64())})

    return ray.data.range(n_blocks * 10, override_num_blocks=n_blocks) \
        .map_batches(partial, batch_format="pyarrow", batch_size=None)


@pytest.mark.parametrize("n_blocks,tasks", [(24, True), (1, False)])
def test_gate_weighs_shipped_bytes(ray_session, monkeypatch, n_blocks,
                                   tasks):
    """The tier follows the bytes the partial blocks ship, not the folded
    size: of 24 partials of a 64 KiB filter (folded 64 KiB, shipped
    1.5 MiB) the driver folds the ones that fit the gate and fold tasks
    take the rest; a single one stays on the driver."""
    import biobloom_ray.sketches.fold as F

    spy = _SpyFoldTasks(F._fold_blocks)
    monkeypatch.setattr(F, "_fold_blocks", spy)
    m = 8 * (64 << 10)
    got = fold_partials(_bloom_blocks(n_blocks, m), {"bf": BloomFilter},
                        sums=("n",))
    assert m // 8 <= F.DRIVER_FOLD_MAX_BYTES
    assert (0 < sum(spy.calls) < n_blocks) if tasks else not spy.calls
    want = BloomFilter(m=m, hash_num=3, kmer_size=8)
    ids = np.arange(n_blocks * 10, dtype=np.uint64)
    want.insert(ids * np.uint64(0x9E3779B97F4A7C15), ids + np.uint64(1))
    assert got[None]["n"] == n_blocks * 10
    assert np.array_equal(got[None]["bf"].words, want.words)
    assert got[None]["bf"].n_inserted == want.n_inserted


def test_fold_tasks_form_a_tree(ray_session, monkeypatch):
    """Fold task outputs fold again in groups of ``_FAN_IN``, so the
    driver fetches at most ``_FAN_IN`` of them however many partials
    there are."""
    import biobloom_ray.sketches.fold as F

    spy = _SpyFoldTasks(F._fold_blocks)
    fetched = []
    monkeypatch.setattr(F, "_fold_blocks", spy)
    monkeypatch.setattr(F, "_rows", lambda b: fetched.append(b) or
                        F.BlockAccessor.for_block(b).to_arrow())
    monkeypatch.setattr(F, "DRIVER_FOLD_MAX_BYTES", 0)
    monkeypatch.setattr(F, "_FAN_IN", 2)
    rows = _parts(9, ["b", "a", "c"], seed=3)
    got = fold_partials(_dataset(rows, n_blocks=9), SKETCHES, key="k",
                        sums=("n",))
    _assert_same(got, _sequential(rows, "k"))
    assert len(spy.calls) >= 6 and max(spy.calls) == 2
    assert 1 <= len(fetched) <= 2


def test_partial_map_keeps_its_parallelism(ray_session, tier):
    """No shuffle sits between the partial map and the fold: 8 one-block
    map tasks of ~0.3 s run side by side at both tiers (each partial row
    keys itself by the task's pid and run interval)."""
    import os
    import time

    def slow(b: pa.Table) -> pa.Table:
        t0 = time.time()
        time.sleep(0.3)
        return pa.table({"iv": [f"{os.getpid()} {t0} {time.time()}"],
                         "n": pa.array([b.num_rows], pa.int64())})

    parts = ray.data.range(8, override_num_blocks=8).map_batches(
        slow, batch_format="pyarrow", batch_size=None)
    got = fold_partials(parts, {}, key="iv", sums=("n",))
    assert sum(r["n"] for r in got.values()) == 8
    ivs = sorted(tuple(float(x) for x in k.split()[1:]) for k in got)
    assert len(ivs) == 8
    assert any(b[0] < a[1] for a, b in zip(ivs, ivs[1:])), ivs


def _sleepy_partials(perm, log):
    """8 one-block map tasks; block ``i`` sleeps ``perm[i]`` steps,
    appends ``i`` to ``log`` as it finishes and emits KLL, t-digest and
    Misra–Gries partials of its own values.  The MG capacity is far
    below the 200-key domain, so its merges truncate (order-dependent),
    and so do KLL's compactions at k=16."""
    import time

    from biobloom_ray.sketches.kll import KLL
    from biobloom_ray.sketches.misra_gries import MisraGries
    from biobloom_ray.sketches.tdigest import TDigest

    def partial(b: pa.Table) -> pa.Table:
        i = b["id"][0].as_py() // 500
        time.sleep(0.15 * perm[i])
        rng = np.random.default_rng(i)
        kll, td, mg = KLL(k=16), TDigest(delta=20), MisraGries(capacity=8)
        v = rng.lognormal(6.0, 1.0, 500)
        kll.update(v)
        td.update(v)
        mg.update(rng.zipf(1.3, 500).astype(np.uint64) % np.uint64(200))
        with open(log, "a") as f:
            f.write(f"{i}\n")
        return pa.table({c: pa.array([sk.serialize()], pa.large_binary())
                         for c, sk in (("kll", kll), ("td", td),
                                       ("mg", mg))})

    return ray.data.range(4000, override_num_blocks=8).map_batches(
        partial, batch_format="pyarrow", batch_size=None)


def test_fold_order_is_input_order(ray_session, tier, tmp_path):
    """KLL, t-digest and Misra–Gries merges depend on merge order; the
    fold merges in input order, so partials that finish in different
    orders still fold to byte-identical sketches."""
    from biobloom_ray.sketches.kll import KLL
    from biobloom_ray.sketches.misra_gries import MisraGries
    from biobloom_ray.sketches.tdigest import TDigest

    sketches = {"kll": KLL, "td": TDigest, "mg": MisraGries}
    got, finished = [], []
    for j, perm in enumerate([range(8), range(7, -1, -1),
                              [3, 7, 0, 5, 1, 6, 2, 4]]):
        log = tmp_path / f"finished_{j}"
        folded = fold_partials(_sleepy_partials(list(perm), str(log)),
                               sketches)
        got.append({c: sk.serialize() for c, sk in folded[None].items()})
        finished.append(log.read_text().split())
    assert len({tuple(f) for f in finished}) > 1, finished
    for col in sketches:
        assert len({g[col] for g in got}) == 1, col


def test_fold_incompatible_bloom_raises(ray_session, tier):
    rows = _parts(4, ["a"])
    odd = BloomFilter(m=8192, hash_num=3, kmer_size=8, filter_id="a")
    rows[3]["bf"] = odd.serialize()
    with pytest.raises(ValueError, match="incompatible Bloom"):
        fold_partials(_dataset(rows, n_blocks=1), {"bf": BloomFilter},
                      key="k")


# ---- build_filters on the fold ---------------------------------------------


def _build_input():
    from biobloom_ray.pages import generate_ref_corpora

    t = generate_ref_corpora(docs_per_lang=40)
    return ray.data.from_arrow(t).repartition(4), t


@pytest.mark.parametrize("label_col,with_hll", [
    ("filter_id", True), (None, True), ("filter_id", False)])
def test_build_filters_tiers_agree(ray_session, monkeypatch, label_col,
                                   with_hll):
    """The driver fold and the forced tree build identical filters:
    words, counters and HLL registers."""
    import biobloom_ray.sketches.fold as F
    from biobloom_ray.pipelines.build import build_filters

    ds, _ = _build_input()
    cfg = BuildConfig(kmer_size=8, batch_size=16)
    kw = dict(text_col="doc", label_col=label_col, cfg=cfg,
              with_hll=with_hll)
    driver = build_filters(ds, **kw)
    monkeypatch.setattr(F, "DRIVER_FOLD_MAX_BYTES", 0)
    tree = build_filters(ds, **kw)
    assert list(driver) == list(tree) == sorted(driver)
    assert len(driver) == (1 if label_col is None else 4)
    for fid in driver:
        a, b = driver[fid], tree[fid]
        fa, fb = a["filter"], b["filter"]
        assert np.array_equal(fa.words, fb.words)
        assert (fa.n_inserted, fa.n_distinct, fa.n_redundant) == \
            (fb.n_inserted, fb.n_distinct, fb.n_redundant)
        assert fa.n_inserted > 0
        assert a["expected_entries"] == b["expected_entries"]
        if with_hll:
            assert np.array_equal(a["hll"].registers, b["hll"].registers)
        else:
            assert a["hll"] is None and b["hll"] is None


@pytest.mark.parametrize("filter_id", ["__all__", "ref"])
def test_build_filters_empty_reference(ray_session, filter_id):
    """An empty reference builds the one (empty) filter a reference
    shorter than k builds, not a StopIteration."""
    from biobloom_ray.pipelines.build import build_filters

    cfg = BuildConfig(kmer_size=8)
    empty = ray.data.from_arrow(pa.table({"text": pa.array([], pa.string())}))
    short = ray.data.from_arrow(pa.table({"text": ["abc"]}))
    got = build_filters(empty, label_col=None, cfg=cfg, filter_id=filter_id)
    want = build_filters(short, label_col=None, cfg=cfg, filter_id=filter_id)
    assert list(got) == list(want) == [filter_id]
    g, w = got[filter_id], want[filter_id]
    assert g["filter"].m == w["filter"].m == 64
    assert g["filter"].filter_id == filter_id
    assert g["filter"].n_inserted == w["filter"].n_inserted == 0
    assert not g["filter"].words.any()
    assert np.array_equal(g["hll"].registers, w["hll"].registers)
    assert g["expected_entries"] == w["expected_entries"] == 0


def test_build_filters_null_label_raises(ray_session):
    """A null label names no filter: the build says so, naming the
    column, instead of failing inside the builder (or dropping the
    rows in the pre-pass)."""
    from biobloom_ray.pipelines.build import build_filters

    ds = ray.data.from_arrow(pa.table({
        "text": ["some reference text", "more reference text"],
        "lang": ["en", None]}))
    with pytest.raises(ValueError, match="lang has null values"):
        build_filters(ds, label_col="lang", cfg=BuildConfig(kmer_size=8))


def test_build_filters_null_label_raises_at_cluster_tier(ray_session,
                                                         monkeypatch):
    """The null-label ``ValueError`` surfaces as itself through the ref
    loop with every partial bound for the fold tasks too."""
    import biobloom_ray.sketches.fold as F
    from biobloom_ray.pipelines.build import build_filters

    monkeypatch.setattr(F, "DRIVER_FOLD_MAX_BYTES", 0)
    ds = ray.data.from_arrow(pa.table({
        "text": ["some reference text", "more reference text"],
        "lang": ["en", None]}))
    with pytest.raises(ValueError, match="lang has null values"):
        build_filters(ds, label_col="lang", cfg=BuildConfig(kmer_size=8))
