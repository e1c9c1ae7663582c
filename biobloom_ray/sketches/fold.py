"""One order-free fold for partial sketches.

Bloom OR, HLL register max and count-min add are associative and
commutative, so per-block partial sketches combine in any order
bit-for-bit — the Ray rebuild of the reference maker's one shared bit
array (``BloomFilterGenerator.h:143-188``).  A partial table has an
optional key column, one blob column per sketch (an empty blob means
"no sketch") and int columns that are summed.
"""

from __future__ import annotations

import pyarrow as pa

#: folded bytes (summed over keys) at or below which the partials stream
#: to the driver and fold there; above it a two-level repartition tree
#: folds them first.  The driver fold touches every partial's
#: object-store pages, so this also bounds driver memory (module-level
#: so tests can force the tree)
DRIVER_FOLD_MAX_BYTES = 1 << 20


def fold_table(t: pa.Table, sketches: dict, key: str | None = None,
               sums=(), acc: dict | None = None) -> dict:
    """Fold one table of partial rows into ``acc``: ``{key: {col:
    sketch | None, sum_col: int}}`` (key ``None`` when unkeyed)."""
    acc = {} if acc is None else acc
    keys = t[key].to_pylist() if key else [None] * t.num_rows
    for i, k in enumerate(keys):
        row = acc.setdefault(k, {**dict.fromkeys(sketches),
                                 **dict.fromkeys(sums, 0)})
        for col, cls in sketches.items():
            blob = t[col][i].as_py()
            if blob:
                sk = cls.deserialize(blob)
                row[col] = sk if row[col] is None else row[col].merge(sk)
        for col in sums:
            row[col] += t[col][i].as_py()
    return acc


def to_table(folded: dict, schema: pa.Schema, sketches: dict,
             key: str | None = None, sums=()) -> pa.Table:
    """Inverse of :func:`fold_table`: one row per key, typed like the
    partial table's ``schema``."""
    data = {key: list(folded)} if key else {}
    for col in sketches:
        data[col] = [b"" if r[col] is None else r[col].serialize()
                     for r in folded.values()]
    for col in sums:
        data[col] = [r[col] for r in folded.values()]
    return pa.Table.from_pydict(
        data, schema=pa.schema([schema.field(c) for c in data]))


def fold_partials(parts, sketches: dict, key: str | None = None, sums=(),
                  nbytes: int = 0) -> dict:
    """Fold a Dataset of partial rows with :func:`fold_table`; the result
    is sorted by key.  ``sketches`` maps each blob column to a class with
    ``deserialize``/``merge``/``serialize``; ``nbytes`` is the folded
    size summed over keys, checked against :data:`DRIVER_FOLD_MAX_BYTES`.
    A partial's own exception (say a ``ValueError`` from the map that
    made it) surfaces as itself."""
    from biobloom_ray.io import cluster_cpus

    if nbytes > DRIVER_FOLD_MAX_BYTES:
        def fold_block(b: pa.Table) -> pa.Table:
            return to_table(fold_table(b, sketches, key, sums), b.schema,
                            sketches, key, sums)

        tree = dict(batch_format="pyarrow", batch_size=None)
        parts = (parts.repartition(max(2, cluster_cpus() // 2))
                 .map_batches(fold_block, **tree)
                 .repartition(1).map_batches(fold_block, **tree))
    ctx, acc = parts.context, {}
    prev, ctx.raise_original_map_exception = \
        ctx.raise_original_map_exception, True
    try:
        for b in parts.iter_batches(batch_size=None, batch_format="pyarrow"):
            fold_table(b, sketches, key, sums, acc)
    finally:
        ctx.raise_original_map_exception = prev
    return dict(sorted(acc.items()))
