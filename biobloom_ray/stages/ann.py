"""Embedding near-dup pairs by random-hyperplane (SimHash-family) LSH.

Hyperplane signatures bucket vectors, exact cosine verifies within
buckets — candidates shuffle, never the full cross product.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _matrix(batch_col) -> np.ndarray:
    """list<float> column → (n, d) float64 matrix (zero-copy values buf)."""
    arr = batch_col
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    import pyarrow.compute as pc

    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    if isinstance(arr, pa.FixedSizeListArray):
        d = arr.type.list_size
        return flat.reshape(-1, d)
    widths = pc.list_value_length(arr).to_numpy(zero_copy_only=False)
    d = int(widths[0]) if len(widths) else 0
    if len(widths) and not (widths == d).all():
        raise ValueError("ragged embedding column")
    return flat.reshape(-1, d)


def _normalize_rows(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


class HyperplaneLSH:
    """Deterministic random-hyperplane signatures for cosine LSH."""

    def __init__(self, dim: int, n_bits: int = 16, seed: int = 0xA55):
        rng = np.random.default_rng(np.random.PCG64(seed))
        self.planes = rng.standard_normal((dim, n_bits))
        self.n_bits = n_bits

    def keys(self, m: np.ndarray) -> np.ndarray:
        bits = (m @ self.planes) > 0
        weights = (1 << np.arange(self.n_bits)).astype(np.int64)
        return bits.astype(np.int64) @ weights


def embedding_neardup_pairs(ds, threshold: float = 0.9,
                            emb_col: str = "embedding",
                            id_col: str = "vec_id",
                            n_bits: int = 10, dim: int | None = None):
    """Pairs with cosine ≥ threshold via hyperplane-LSH blocking + exact
    in-bucket verification.  n_bits trades recall (P[same bucket] =
    (1 − θ/π)^n_bits) for bucket size; pairs in no common bucket are
    missed — the documented approximation."""

    def _empty() -> pd.DataFrame:
        return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                             "id_b": pd.Series(dtype="int64"),
                             "cos_sim": pd.Series(dtype="float64")})

    if dim is None:
        first = ds.take(1)
        if not first:
            return _empty()
        dim = len(first[0][emb_col])
    lsh = HyperplaneLSH(dim, n_bits)
    import ray
    lsh_ref = ray.put(lsh)

    def add_bucket(batch: pa.Table) -> pa.Table:
        l = ray.get(lsh_ref)
        m = _normalize_rows(_matrix(batch[emb_col]))
        key = l.keys(m)
        flat = pa.array(m.reshape(-1), type=pa.float64())
        return pa.table({
            "bucket": pa.array(key),
            id_col: batch[id_col],
            "emb": pa.FixedSizeListArray.from_arrays(flat, m.shape[1]),
        })

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = g[id_col].to_numpy()
        if len(ids) < 2:
            return _empty()
        m = np.stack(g["emb"].to_numpy())
        order = np.argsort(ids, kind="stable")
        ids, m = ids[order], m[order]
        sims = m @ m.T
        ii, jj = np.triu_indices(len(ids), k=1)
        s = sims[ii, jj]
        keep = s >= threshold
        return pd.DataFrame({"id_a": ids[ii[keep]], "id_b": ids[jj[keep]],
                             "cos_sim": s[keep]})

    from ray.data.aggregate import Max

    pairs = (ds.map_batches(add_bucket, batch_format="pyarrow")
             .groupby("bucket")
             .map_groups(bucket_pairs, batch_format="pandas"))
    # a pair found in several buckets appears once — native aggregate,
    # no per-pair Python (cos_sim identical across buckets)
    out = (pairs.groupby(["id_a", "id_b"])
           .aggregate(Max("cos_sim", alias_name="cos_sim")).to_pandas())
    if out.empty or "id_a" not in out.columns:
        return _empty()
    return (out.sort_values(["id_a", "id_b"], kind="stable")
            .reset_index(drop=True))
