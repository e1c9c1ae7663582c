"""Forced-cluster correctness artifact (VERDICT r3 #8).

Runs EVERY DuckDB-oracled query with every scale-tier gate forced to 0
(the same `bench._force_cluster_tiers` switch the bench uses), so each
query executes its at-scale cluster plan — native groupbys, hash joins,
sharded reduces — and compares the result against its oracle SQL
exactly like the driver does (row count + column names +
order-insensitive values).  Writes ``CORRECTNESS_cluster.json`` at the
repo root: one row per query plus the list of gates that were zeroed.

Usage:  python scripts/correctness_cluster.py
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.01")
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def _canon(df):
    import pandas as pd

    df = df.copy()
    df = df[sorted(df.columns)]
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _to_pandas(res):
    import pyarrow as pa

    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def main():
    import duckdb
    import numpy as np
    import pandas as pd
    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import bench
    import __ray_entry__ as E

    bench._force_cluster_tiers()
    gates = [f"{mod.split('.')[-1]}.{gate}"
             for mod, gate in bench._force_cluster_gates()]

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'")

    qs, oracles = E.queries(), E.oracle_sql()
    rows = {}
    n_green = 0
    for name in oracles:
        t0 = time.perf_counter()
        entry = {"rows_match": False, "schema_match": False,
                 "values_match": False, "error": None}
        try:
            got = _canon(_to_pandas(qs[name](SF_DIR)))
            want = _canon(con.sql(oracles[name]).df())
            entry["schema_match"] = list(got.columns) == list(want.columns)
            entry["rows_match"] = len(got) == len(want)
            vm = entry["schema_match"] and entry["rows_match"]
            if vm:
                for c in got.columns:
                    g, w = got[c], want[c]
                    if (pd.api.types.is_float_dtype(g)
                            or pd.api.types.is_float_dtype(w)):
                        ok = np.allclose(g.astype(float), w.astype(float),
                                         rtol=0, atol=0)
                    else:
                        ok = bool((g.to_numpy() == w.to_numpy()).all())
                    if not ok:
                        vm = False
                        break
            entry["values_match"] = vm
        except Exception as e:  # pragma: no cover - recorded, not raised
            entry["error"] = f"{type(e).__name__}: {e}"
        entry["seconds"] = round(time.perf_counter() - t0, 3)
        n_green += entry["values_match"]
        rows[name] = entry
        status = "OK " if entry["values_match"] else "FAIL"
        print(f"{status} {name} ({entry['seconds']}s)", file=sys.stderr)

    artifact = {
        "sf_dir": SF_DIR,
        "protocol": "all scale-tier gates forced to 0 "
                    "(bench._force_cluster_tiers) so every query runs its "
                    "at-scale cluster plan; compare = driver semantics "
                    "(rows + schema + order-insensitive exact values vs "
                    "DuckDB oracle)",
        "gates_zeroed": sorted(gates),
        "n_queries": len(rows),
        "n_green": n_green,
        "queries": rows,
    }
    out = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "CORRECTNESS_cluster.json")
    with open(out, "w") as f:
        json.dump(artifact, f, indent=1, sort_keys=True)
    print(json.dumps({"n_queries": len(rows), "n_green": n_green,
                      "gates_zeroed": len(gates), "artifact": out}))
    ray.shutdown()


if __name__ == "__main__":
    main()
