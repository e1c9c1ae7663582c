"""One deterministic fold for partial sketches.

Bloom OR, HLL register max, count-min add and KMV keep-k-smallest are
associative and commutative, so per-block partial sketches combine in
any order bit-for-bit — the Ray rebuild of the reference maker's one
shared bit array (``BloomFilterGenerator.h:143-188``).  KLL, t-digest
and Misra–Gries (past its capacity) merge within their error bounds
under any merge tree, but not to the same bytes, so the fold merges in
input order: the partial Dataset runs with ``preserve_order`` for the
fold and fold-task outputs merge in the order the tasks were issued.
The same input then gives the same sketch in every run, whichever task
finishes first.  A partial table has an optional key column, one blob
column per sketch (an empty blob means "no sketch") and int columns
that are summed.

:func:`fold_partials` takes the partial blocks' refs as the map
finishes them: no all-to-all operator sits between the map and the
fold, which would leave the map's tasks in one worker.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
from ray.data.block import BlockAccessor

#: partial-block bytes (as the blocks' metadata reports them) the driver
#: fetches and folds itself, as the map finishes them; every block past
#: this budget goes to fold tasks of ``_FAN_IN`` refs, whose outputs fold
#: again in groups of ``_FAN_IN``, so the driver fetches at most this
#: many partial bytes plus ``_FAN_IN`` one-row-per-key outputs
#: (module-level so tests can force the tasks).  The gate bounds driver
#: memory, not time: on 4 cpus the driver fold was never slower, but the
#: driver's peak RSS grows with the partial bytes it fetches (BASELINE.md
#: "Fold tier crossover"); fan-ins of 4, 8 and 16 timed alike
DRIVER_FOLD_MAX_BYTES = 1 << 20
_FAN_IN = 8


def _blobs(col: pa.ChunkedArray) -> list:
    """A binary column's values as views into its Arrow buffers (a null
    reads as empty), so a sketch's own ``deserialize`` copy is the only
    copy of its blob."""
    views = []
    for a in col.chunks:
        if a.null_count:
            a = a.cast(pa.large_binary()).fill_null(b"")
        wide = pa.types.is_large_binary(a.type)
        _, offsets, data = a.buffers()
        off = np.frombuffer(offsets, np.int64 if wide else np.int32)[
            a.offset:a.offset + len(a) + 1].tolist()
        data = memoryview(data or b"")
        views += [data[s:e] for s, e in zip(off[:-1], off[1:])]
    return views


def fold_table(t: pa.Table, sketches: dict, key: str | None = None,
               sums=(), acc: dict | None = None) -> dict:
    """Fold one table of partial rows into ``acc`` in row order: ``{key:
    {col: sketch | None, sum_col: int}}`` (key ``None`` when unkeyed)."""
    acc = {} if acc is None else acc
    keys = t[key].to_pylist() if key else [None] * t.num_rows
    blobs = {col: _blobs(t[col]) for col in sketches}
    counts = {col: t[col].to_pylist() for col in sums}
    for i, k in enumerate(keys):
        row = acc.setdefault(k, {**dict.fromkeys(sketches),
                                 **dict.fromkeys(sums, 0)})
        for col, cls in sketches.items():
            if blobs[col][i]:
                sk = cls.deserialize(blobs[col][i])
                row[col] = sk if row[col] is None else row[col].merge(sk)
        for col in sums:
            row[col] += counts[col][i]
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


def _rows(block) -> pa.Table:
    return BlockAccessor.for_block(block).to_arrow()


@ray.remote
def _fold_blocks(sketches: dict, key, sums, *blocks) -> pa.Table:
    """One fold task: its blocks (partials or fold outputs) as one row
    per key."""
    acc, tables = {}, [_rows(b) for b in blocks]
    for t in tables:
        fold_table(t, sketches, key, sums, acc)
    return to_table(acc, tables[0].schema, sketches, key, sums)


def fold_partials(parts, sketches: dict, key: str | None = None,
                  sums=()) -> dict:
    """Fold a Dataset of partial rows with :func:`fold_table` in input
    order; the result is sorted by key.  ``sketches`` maps each blob
    column to a class with ``deserialize``/``merge``/``serialize``.  A
    partial's own exception (say a ``ValueError`` from the map that
    made it) surfaces as itself, and so does a fold task's."""
    def fold(refs: list) -> list:
        return [_fold_blocks.remote(sketches, key, sums, *refs)]

    ctx, budget, held, folds, acc = \
        parts.context, DRIVER_FOLD_MAX_BYTES, [], [], {}
    opts = ctx.execution_options
    prev = ctx.raise_original_map_exception, opts.preserve_order
    ctx.raise_original_map_exception = opts.preserve_order = True
    try:
        for bundle in parts.iter_internal_ref_bundles():
            for ref, meta in bundle.blocks:
                if meta.num_rows and meta.size_bytes <= budget:
                    budget -= meta.size_bytes
                    fold_table(_rows(ray.get(ref)), sketches, key, sums, acc)
                elif meta.num_rows:
                    held.append(ref)
                if len(held) == _FAN_IN:
                    folds, held = folds + fold(held), []
                if len(folds) == _FAN_IN:
                    folds = fold(folds)
        folds += fold(held) if held else []
        for ref in folds:
            fold_table(_rows(ray.get(ref)), sketches, key, sums, acc)
    finally:
        ctx.raise_original_map_exception, opts.preserve_order = prev
    return dict(sorted(acc.items()))
