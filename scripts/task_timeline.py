"""Per-call timeline of one pass (Ray with 4 cpus and a 1 GB object store):
``python scripts/task_timeline.py categorize|build DIR``.  ``categorize``
runs categorize + summary_table over DIR (parquet with ``text``, ``lang``)
with a k=8 bank from its first 2,000 rows; ``build`` runs build_filters by
``lang``.  Prints the second pass's kernel calls and peak concurrency."""
import os
import sys
import tempfile
import time

import pyarrow.parquet as pq
import ray

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)
from biobloom_ray.config import BuildConfig, CategorizeConfig  # noqa: E402
from biobloom_ray.io import read_parquet  # noqa: E402
from biobloom_ray.pipelines import build_filters, categorize  # noqa: E402
from biobloom_ray.stages.build import PartialBloomBuilder  # noqa: E402
from biobloom_ray.stages import categorize as sc  # noqa: E402


def main(mode: str, d: str) -> None:
    log = tempfile.NamedTemporaryFile(suffix=".log", delete=False).name
    def setup():  # runs in every worker: log each kernel call
        for cls in (sc.CategorizerActor, PartialBloomBuilder):
            def call(self, b, _orig=cls.__call__):
                t0, out = time.time(), _orig(self, b)
                with open(log, "a") as f:
                    print(t0, time.time(), os.getpid(), b.num_rows, file=f)
                return out
            cls.__call__ = call
    os.environ["PYTHONPATH"] = REPO  # the workers import the package
    ray.init(num_cpus=4, object_store_memory=10**9, logging_level="ERROR",
             runtime_env={"worker_process_setup_hook": setup})
    ref = pq.read_table(d, columns=["text", "lang"])[:2000]
    bank = build_filters(ray.data.from_arrow(ref), label_col="lang",
                         cfg=BuildConfig(kmer_size=8))
    for _ in range(2):
        open(log, "w").close()
        t, ds = time.time(), read_parquet(d, columns=["text", "lang"])
        if mode == "categorize":
            sc.summary_table(categorize(
                ds, [bank[f]["filter"] for f in sorted(bank)],
                CategorizeConfig(batch_size=None)), sorted(bank))
        else:
            build_filters(ds, label_col="lang")
        wall = time.time() - t
    calls = sorted((s - t, e - t, int(p), int(r)) for s, e, p, r in
                   (map(float, ln.split()) for ln in open(log)))
    for s, e, p, r in calls:
        print(f"pid {p}  start {s:6.3f}  end {e:6.3f}  rows {r}")
    peak = max(sum(s2 <= s < e2 for s2, e2, *_ in calls) for s, *_ in calls)
    print(f"pass {wall:.3f} s  calls {len(calls)}  peak concurrent {peak}")
    ray.shutdown()
    os.remove(log)


if __name__ == "__main__":
    main(*sys.argv[1:3])
