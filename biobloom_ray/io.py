"""Parquet read helper.

``read_parquet`` picks the read's block count so that a read over many
local files fuses with the map after it, and tells Ray Data how large
those blocks are before any task has produced output (see its
docstring).

The driver's test parquet carries pandas schema metadata whose nested
dict makes ``hash(pa.Schema)`` raise on this pyarrow version; Ray Data
hashes schemas to dedup them when unioning block metadata, so every
pipeline over a raw read spams "Failed to hash the schemas" warnings.
The package ``__init__`` installs a logging filter for exactly that
message; a metadata-strip stage after the read was tried and reverted,
because it cannot fuse with the read and one extra task hop per block
costs more than the warning it silenced.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

# See module docstring: filter the schema-hash warning at its source
# module (message-targeted Filter, installed by the package __init__ —
# importing it here guarantees the filter is active wherever io is
# used); real errors and unrelated warnings still surface.
import biobloom_ray  # noqa: F401  (installs the _SchemaHashNoise filter)


def _local_parquet_files(paths) -> list[str]:
    """The local ``*.parquet`` files under ``paths`` (a path or a list of
    paths; directories are walked, each in sorted order, as Ray lists
    them); empty if any path is a URI."""
    found = []
    for p in [paths] if isinstance(paths, (str, os.PathLike)) else paths:
        p = os.fspath(p)
        if "://" in p:
            return []
        if os.path.isdir(p):
            found += sorted(os.path.join(root, f)
                            for root, _, files in os.walk(p)
                            for f in files if f.endswith(".parquet"))
        elif os.path.isfile(p):
            found.append(p)
    return found


def _column_bytes(path: str, columns) -> int:
    """Uncompressed bytes of ``columns`` (all when None) in one parquet
    file, from its footer."""
    md = pq.read_metadata(path)
    return sum(col.total_uncompressed_size
               for g in (md.row_group(i) for i in range(md.num_row_groups))
               for col in (g.column(j) for j in range(g.num_columns))
               if columns is None
               or col.path_in_schema.split(".")[0] in columns)


def read_block_bytes(files: list[str], columns, n_blocks: int) -> int:
    """In-memory bytes of the largest of the ``n_blocks`` blocks a read of
    ``files`` makes: Ray's parquet read gives each block a contiguous
    run of the files (``np.array_split``), and a block holds its files'
    selected columns."""
    sizes = [_column_bytes(f, columns) for f in files]
    return int(max(chunk.sum() for chunk in np.array_split(sizes, n_blocks)))


def read_parquet(paths, columns=None, **kwargs) -> "ray.data.Dataset":
    """``ray.data.read_parquet``, reading whole files once the files alone
    fill the cluster, and sizing Ray's launch estimate from them.

    When the caller passes no ``override_num_blocks`` and ``paths`` hold
    at least ``cluster_cpus()`` local ``*.parquet`` files, the read asks
    for ``min(n_files, 2 * cluster_cpus())`` blocks: no file is split, and
    there are never more read tasks than Ray's own 2x-cpus baseline.
    Ray's default can ask for more blocks than there are files and then
    splits each read task's output (``ReadParquet->SplitBlocks(k)``), and a split
    read never fuses with the next map: Ray's ``operator_fusion.py``
    refuses when ``get_additional_split_factor() > 1``.  Unsplit, the read
    and the maps after it (categorize, its checks and the summary
    partial) run as one task per block, so a block is read and processed
    in the same worker.

    In the same case the returned Dataset's ``context.target_max_block_size``
    becomes the largest block's bytes (:func:`read_block_bytes`, from
    the parquet footers), never more than it was.  Until a map operator
    has finished a task, Ray Data assumes each task holds two blocks of
    ``target_max_block_size`` (128 MiB by default) of output, and on a
    1 GB object store its budget admits one such task, so the other
    workers would wait for the first task to report.  With the real size
    all cpus start at once.  Maps on the Dataset share its context, so
    Ray slices their output blocks once they pass 1.5x that size.

    Fewer files than cpus (a single file, one curation partition) or a
    remote URI keep Ray's default, which splits a large file for
    parallelism, and Ray's block size; a caller's
    ``override_num_blocks`` always wins and also keeps both."""
    n_blocks = None
    if "override_num_blocks" not in kwargs:
        cpus, files = cluster_cpus(), _local_parquet_files(paths)
        if len(files) >= cpus:
            n_blocks = kwargs["override_num_blocks"] = min(len(files),
                                                           2 * cpus)
    ds = ray.data.read_parquet(paths, columns=columns, **kwargs)
    if n_blocks:
        ctx = ds.context
        est = read_block_bytes(files, columns, n_blocks)
        if est and (ctx.target_max_block_size is None
                    or est < ctx.target_max_block_size):
            ctx.target_max_block_size = est
    return ds


def cheap_count(ds) -> int | None:
    """Row count ONLY when it is metadata-cheap (pure Read / in-memory
    input, no transform chain to execute); None otherwise.  Used to gate
    small-scale driver fast paths without ever paying an extra pipeline
    execution for the decision."""
    try:
        dag = ds._logical_plan.dag
        if type(dag).__name__ in ("Read", "InputData", "FromArrow",
                                  "FromPandas", "FromNumpy", "FromItems"):
            return ds.count()
    except Exception:
        pass
    return None


# ---------------------------------------------------------------------------
# empty-partition join guard
# ---------------------------------------------------------------------------
# Ray 2.49's hash-join aggregator builds each partition's side from the
# shards it received; a partition that received NO rows for one side
# yields a zero-column table and acero raises "No match or multiple
# matches for key field ... on right side" — any inner join whose
# small side doesn't hash into every partition fails (e.g. a filtered
# vocabulary with a handful of survivors over 2+ partitions).  For an
# INNER join an empty side means zero output rows, so the patched
# finalize short-circuits to an empty block (Ray's block union skips
# schema-less empties); non-inner joins keep the stock behavior.
# CALLER CAVEAT: if one side is empty in EVERY partition (a fully
# empty join input) the whole result is schema-less — a caller that
# column-selects the output must restore its expected columns on an
# empty frame (see source_quality_gate).


try:
    import ray as _ray_ver_mod
    from ray.data._internal.execution.operators import join as _join_mod

    # Pin the internals this patch targets: the Ray minor version the
    # guard was written against AND the attributes finalize() touches.
    # A future Ray refactor must fail LOUDLY (warning + stock classes),
    # not silently drop the guard that callers like source_quality_gate
    # rely on to survive sparse inner-join partitions.
    _PATCH_TESTED_RAY = ("2.49",)
    if not any(_ray_ver_mod.__version__.startswith(v + ".") or
               _ray_ver_mod.__version__ == v for v in _PATCH_TESTED_RAY):
        raise RuntimeError(
            f"ray {_ray_ver_mod.__version__} not in tested set "
            f"{_PATCH_TESTED_RAY}")
    import inspect as _inspect
    _src = _inspect.getsource(_join_mod.JoiningShuffleAggregation)
    for _attr in ("_get_partition_builder", "_join_type",
                  "_left_key_col_names", "_right_key_col_names",
                  "_left_columns_suffix", "_right_columns_suffix"):
        if _attr not in _src:
            raise RuntimeError(f"JoiningShuffleAggregation lost {_attr}")
    if not hasattr(_join_mod, "_JOIN_TYPE_TO_ARROW_JOIN_VERB_MAP"):
        raise RuntimeError("join verb map moved")

    class _GuardedJoinAggregation(_join_mod.JoiningShuffleAggregation):
        """JoiningShuffleAggregation whose finalize tolerates a
        schema-less (never-fed) partition side on inner joins."""

        def finalize(self, partition_id):
            left = self._get_partition_builder(
                input_seq_id=0, partition_id=partition_id).build()
            right = self._get_partition_builder(
                input_seq_id=1, partition_id=partition_id).build()
            if ((left.num_columns == 0 or right.num_columns == 0)
                    and str(getattr(self, "_join_type", ""))
                    .lower().endswith("inner")):
                return pa.table({})
            verb = _join_mod._JOIN_TYPE_TO_ARROW_JOIN_VERB_MAP[
                self._join_type]
            return left.join(
                right, join_type=verb,
                keys=list(self._left_key_col_names),
                right_keys=list(self._right_key_col_names),
                left_suffix=self._left_columns_suffix,
                right_suffix=self._right_columns_suffix)

    # The JoinOperator factory lambda resolves this NAME at call time
    # and cloudpickles the captured class BY REFERENCE to this module,
    # which worker processes can import — so the guard reaches the
    # aggregator actors, unlike an in-place method patch.
    _join_mod.JoiningShuffleAggregation = _GuardedJoinAggregation
except Exception as _patch_err:  # pragma: no cover - future Ray refactors
    import warnings as _warnings
    _warnings.warn(
        "biobloom_ray: empty-partition inner-join guard NOT applied "
        f"({_patch_err!r}); sparse inner-join partitions may raise "
        "acero 'No match ... for key field' — re-validate the patch "
        "against this Ray version (biobloom_ray/io.py)",
        RuntimeWarning)


# ---------------------------------------------------------------------------
# hash-join sizing
# ---------------------------------------------------------------------------
# Ray's hash shuffle reserves one aggregator ACTOR per partition for the
# lifetime of the pipeline (default 1 CPU each) — chained joins on a
# small cluster deadlock if partitions ≈ CPUs.  Size partitions to a
# fraction of the cores and reserve fractional CPUs per aggregator so
# map tasks always make progress.
_AGG_REMOTE_ARGS = {"num_cpus": 0.25}


def cluster_cpus() -> int:
    import ray
    return int(ray.cluster_resources().get("CPU", 8)) \
        if ray.is_initialized() else 8


def auto_partitions(num_partitions=None) -> int:
    if num_partitions:
        return num_partitions
    return max(2, cluster_cpus() // 4)


def hash_join(left, right, on, right_on=None, num_partitions=None,
              left_suffix=None, right_suffix=None, join_type="inner"):
    """``Dataset.join`` with deadlock-safe partition/actor sizing."""
    return left.join(right, join_type,
                     num_partitions=auto_partitions(num_partitions),
                     on=on, right_on=right_on, left_suffix=left_suffix,
                     right_suffix=right_suffix,
                     aggregator_ray_remote_args=dict(_AGG_REMOTE_ARGS))
