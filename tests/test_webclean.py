"""Web-corpus cleaning stages (stages/webclean.py): PII redaction,
Gopher quality gate, cross-document boilerplate removal, and the
corpus-internal bigram LM score — kernel unit tests against
hand-computed expectations plus tier-parity checks (driver/broadcast
tier vs forced-cluster tier must be bit-identical, same convention as
every scale gate in the repo)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF_SMALL = "/root/testdata/sf0.001"


def _docs_table(texts):
    return pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    })


class TestPiiRedact:
    def test_kernel_known_strings(self):
        from biobloom_ray.stages.webclean import pii_redact_batch

        batch = pa.table({
            "event_id": pa.array([0, 1, 2, 3], type=pa.int64()),
            "props": pa.array([
                "mail bob.smith+x@example.co.uk now",
                "from 192.168.0.1 port 8080",
                "no pii here",
                "a1b22c333d",
            ]),
        })
        out = pii_redact_batch(batch).to_pydict()
        assert out["props_redacted"] == [
            "mail <EMAIL> now",
            "from <IP> port <NUM>",
            "no pii here",
            "a<NUM>b<NUM>c<NUM>d",
        ]
        # digit-run counts are PRE-redaction (the IP row's four octets
        # + the port = 5 runs even though the output shows one <NUM>)
        assert out["n_digit_runs"] == [0, 5, 0, 3]

    def test_email_eats_digits_first(self):
        """Order matters: the email pattern must consume its digits
        before the digit-run pass ever sees them."""
        from biobloom_ray.stages.webclean import pii_redact_batch

        batch = pa.table({
            "event_id": pa.array([0], type=pa.int64()),
            "props": pa.array(["x99@y99.com"]),
        })
        out = pii_redact_batch(batch).to_pydict()
        assert out["props_redacted"] == ["<EMAIL>"]


class TestGopherFlags:
    def test_kernel_hand_computed(self):
        from biobloom_ray.stages.webclean import gopher_flags_batch

        good = " ".join(["the", "and", "for"] + ["word"] * 20)
        short = "the and tiny"                      # < 20 words
        no_stop = " ".join(["xyzzy"] * 25)          # 0 stopword hits
        symbols = " ".join(["$$$"] * 18 + ["the", "and"] + ["ok"] * 5)
        batch = _docs_table([good, short, no_stop, symbols, ""])
        out = gopher_flags_batch(batch).to_pydict()
        assert out["n_words"] == [23, 3, 25, 25, 0]
        assert out["n_stop"] == [3, 2, 0, 2, 0]
        assert out["n_alpha_words"] == [23, 3, 25, 7, 0]
        assert out["flag_word_count"] == [1, 0, 1, 1, 0]
        assert out["flag_stopwords"] == [1, 1, 0, 1, 0]
        # symbols doc: 7 alpha of 25 words -> 28% < 80%
        assert out["flag_alpha_words"] == [1, 1, 1, 0, 0]
        assert out["pass_gopher"] == [1, 0, 0, 0, 0]

    def test_mean_word_len_bounds(self):
        from biobloom_ray.stages.webclean import gopher_flags_batch

        # 25 single-char words -> mean 1 < 2; 25 11-char words -> 11 > 10
        too_short = " ".join(["a"] * 25)
        too_long = " ".join(["abcdefghijk"] * 25)
        ok = " ".join(["abc"] * 25)
        out = gopher_flags_batch(_docs_table([too_short, too_long, ok]))
        assert out["flag_mean_word_len"].to_pylist() == [0, 0, 1]


class TestBoilerplateRemoval:
    def test_matches_bruteforce(self, ray_session, tmp_path):
        """Interval-overlay removal equals a per-doc brute-force scan
        over the same frequent-trigram rule on handcrafted docs."""
        import biobloom_ray.pipelines.analytics as A

        header = "subscribe to newsletter"
        texts = [
            f"{header} alpha beta gamma",
            f"delta {header} epsilon",
            f"zeta eta {header}",
            "theta iota kappa lambda mu",
            "one two",
        ]
        d = tmp_path / "docs"
        d.mkdir()
        pq.write_table(_docs_table(texts), d / "documents.parquet")
        out = A.remove_boilerplate_ngrams(str(d))

        # brute force: trigram -> distinct docs, cover, rejoin
        toks = [t.split() for t in texts]
        from collections import defaultdict
        docs_of = defaultdict(set)
        for i, ts in enumerate(toks):
            for j in range(len(ts) - 2):
                docs_of[tuple(ts[j:j + 3])].add(i)
        freq = {g for g, s in docs_of.items() if len(s) >= 3}
        want_clean, want_removed = [], []
        for ts in toks:
            cov = np.zeros(len(ts), dtype=bool)
            for j in range(len(ts) - 2):
                if tuple(ts[j:j + 3]) in freq:
                    cov[j:j + 3] = True
            want_clean.append(" ".join(t for t, c in zip(ts, cov) if not c))
            want_removed.append(int(cov.sum()))
        assert out.text_clean.tolist() == want_clean
        assert out.n_removed.tolist() == want_removed
        assert sum(want_removed) > 0  # the header really was removed

    @pytest.mark.parametrize("texts", [
        ["one  two\tthree four"],
        ["one two three four", "five six  seven"],
    ])
    def test_kernel_empty_frequent_set(self, texts):
        """Below BOILERPLATE_MIN_DOCS docs no n-gram is frequent: the
        empty hash set removes nothing and only re-joins the tokens."""
        from biobloom_ray.stages.webclean import remove_ngrams_batch

        out = remove_ngrams_batch(_docs_table(texts),
                                  np.array([], dtype=np.int64), 3)
        assert out["n_removed"].to_pylist() == [0] * len(texts)
        assert out["text_clean"].to_pylist() == [
            " ".join(t.split()) for t in texts]

    def test_tiers_agree(self, ray_session, monkeypatch):
        import biobloom_ray.pipelines.analytics as A

        fast = A.remove_boilerplate_ngrams(SF_SMALL)
        monkeypatch.setattr(A, "BOILERPLATE_DRIVER_MAX_ROWS", 0)
        slow = A.remove_boilerplate_ngrams(SF_SMALL)
        pd.testing.assert_frame_equal(fast, slow[fast.columns])
        # tiny fixture vocab guarantees cross-doc trigram repeats
        assert fast.n_removed.sum() > 0


class TestBigramLM:
    def test_matches_bruteforce(self, ray_session, tmp_path):
        import biobloom_ray.pipelines.analytics as A

        texts = ["a b a b c", "a b c", "c a", "solo"]
        d = tmp_path / "docs"
        d.mkdir()
        pq.write_table(_docs_table(texts), d / "documents.parquet")
        out = A.bigram_lm_scores(str(d))

        from collections import Counter
        bgs = [(t.split()[i], t.split()[i + 1])
               for t in texts for i in range(len(t.split()) - 1)]
        c_g, c_p = Counter(bgs), Counter(w1 for w1, _ in bgs)
        rows = {}
        for t, did in zip(texts, range(len(texts))):
            ts = t.split()
            if len(ts) < 2:
                continue
            cnts = [c_g[(ts[i], ts[i + 1])] for i in range(len(ts) - 1)]
            lps = [np.log(c_g[(ts[i], ts[i + 1])] / c_p[ts[i]])
                   for i in range(len(ts) - 1)]
            rows[did] = (len(cnts), sum(cnts), min(cnts),
                         round(float(np.mean(lps)), 6))
        assert out.doc_id.tolist() == sorted(rows)
        for _, r in out.iterrows():
            nb, sc, mc, lp = rows[r.doc_id]
            assert (r.n_bigrams, r.sum_bigram_cnt, r.min_bigram_cnt) \
                == (nb, sc, mc)
            assert r.avg_logprob_r6 == pytest.approx(lp, abs=1e-6)

    def test_tiers_agree(self, ray_session, monkeypatch):
        import biobloom_ray.pipelines.analytics as A

        fast = A.bigram_lm_scores(SF_SMALL)
        monkeypatch.setattr(A, "BIGRAM_BROADCAST_MAX_ROWS", 0)
        slow = A.bigram_lm_scores(SF_SMALL)
        for c in ("doc_id", "n_bigrams", "sum_bigram_cnt",
                  "min_bigram_cnt"):
            assert (fast[c].to_numpy() == slow[c].to_numpy()).all(), c
        assert np.allclose(fast.avg_logprob_r6, slow.avg_logprob_r6,
                           rtol=0, atol=1e-6)


class TestChunkDocuments:
    def test_kernel_hand_computed(self):
        from biobloom_ray.stages.webclean import chunk_docs_batch

        # chunk=4, stride=2: L=9 -> chunks [0:4],[2:6],[4:8],[6:9]
        toks9 = [f"t{i}" for i in range(9)]
        batch = _docs_table([" ".join(toks9), "a b", "", "x y z w"])
        out = chunk_docs_batch(batch, chunk=4, stride=2).to_pydict()
        assert out["doc_id"] == [0, 0, 0, 0, 1, 3]
        assert out["chunk_id"] == [0, 1, 2, 3, 0, 0]
        assert out["n_chunk_tokens"] == [4, 4, 4, 3, 2, 4]
        assert out["chunk_text"][:4] == [
            "t0 t1 t2 t3", "t2 t3 t4 t5", "t4 t5 t6 t7", "t6 t7 t8"]
        assert out["chunk_text"][4:] == ["a b", "x y z w"]

    def test_exact_multiple_no_empty_tail(self):
        from biobloom_ray.stages.webclean import chunk_docs_batch

        # L == chunk -> exactly one chunk; L == chunk + stride -> two
        out = chunk_docs_batch(_docs_table(["a b c d", "a b c d e f"]),
                               chunk=4, stride=2).to_pydict()
        assert out["doc_id"] == [0, 1, 1]
        assert out["n_chunk_tokens"] == [4, 4, 4]

    def test_coverage_and_overlap(self, ray_session):
        """Every token position is covered and consecutive chunks of a
        doc overlap by exactly chunk - stride (except the short tail)."""
        import biobloom_ray.pipelines.analytics as A

        out = A.chunk_documents(SF_SMALL)
        assert (out.n_chunk_tokens <= A.CHUNK_TOKENS).all()
        for did, grp in out.groupby("doc_id"):
            assert grp.chunk_id.tolist() == list(range(len(grp)))
            ends = grp.chunk_id.to_numpy() * A.CHUNK_STRIDE \
                + grp.n_chunk_tokens.to_numpy()
            assert (np.diff(ends) > 0).all()  # strictly progressing


class TestTfidfTopTerms:
    def test_matches_bruteforce(self, ray_session, tmp_path):
        import biobloom_ray.pipelines.analytics as A

        texts = ["b b b rare", "b rare rare", "c c b", ""]
        d = tmp_path / "docs"
        d.mkdir()
        pq.write_table(_docs_table(texts), d / "documents.parquet")
        out = A.tfidf_top_terms(str(d))
        # df: b=3, rare=2, c=1; N=4
        # doc0: b tf3 -> b; doc1: rare tf2 -> rare;
        # doc2: c tf2 beats b tf1; doc3 empty -> no row
        assert out.doc_id.tolist() == [0, 1, 2]
        assert out.top_term.tolist() == ["b", "rare", "c"]
        assert out.tf.tolist() == [3, 2, 2]
        assert out.df.tolist() == [3, 2, 1]
        assert out.tfidf_r6.tolist() == [
            round(3 * np.log(4 / 3), 6), round(2 * np.log(4 / 2), 6),
            round(2 * np.log(4 / 1), 6)]

    def test_tie_breaks(self, ray_session, tmp_path):
        """Equal tf -> rarer term (smaller df) wins; equal (tf, df) ->
        lexicographically smaller token wins."""
        import biobloom_ray.pipelines.analytics as A

        texts = ["x y", "x", "p q"]
        d = tmp_path / "docs"
        d.mkdir()
        pq.write_table(_docs_table(texts), d / "documents.parquet")
        out = A.tfidf_top_terms(str(d))
        # doc0: x df2 vs y df1 -> y; doc2: p,q both tf1 df1 -> p
        assert out.top_term.tolist() == ["y", "x", "p"]

    def test_tiers_agree(self, ray_session, monkeypatch):
        import biobloom_ray.pipelines.analytics as A

        fast = A.tfidf_top_terms(SF_SMALL)
        monkeypatch.setattr(A, "TFIDF_BROADCAST_MAX_ROWS", 0)
        slow = A.tfidf_top_terms(SF_SMALL)
        pd.testing.assert_frame_equal(fast, slow[fast.columns])
        assert len(fast) > 0


class TestPplBuckets:
    def test_ntile_sizes_and_order(self, ray_session):
        """Bucket sizes follow SQL NTILE (earlier buckets take the
        remainder) and bucket order follows the score ranking."""
        import biobloom_ray.pipelines.analytics as A

        out = A.bigram_ppl_buckets(SF_SMALL)
        n = len(out)
        base, rem = divmod(n, 3)
        sizes = out.ppl_bucket.value_counts().sort_index().tolist()
        assert sizes == [base + 1] * rem + [base] * (3 - rem)
        ranked = out.sort_values(["avg_logprob_r6", "doc_id"],
                                 ascending=[False, True])
        assert (np.diff(ranked.ppl_bucket.to_numpy()) >= 0).all()

    def test_layout_invariant(self, ray_session, tmp_path):
        """Re-sharded input gives the identical bucket assignment (the
        global rank is order-defined, not block-layout-defined)."""
        import pyarrow.parquet as _pq

        import biobloom_ray.pipelines.analytics as A

        t = _pq.read_table(f"{SF_SMALL}/documents.parquet")
        d = tmp_path / "docs"
        d.mkdir()
        half = len(t) // 2
        _pq.write_table(t.slice(0, half), d / "a.parquet")
        _pq.write_table(t.slice(half), d / "b.parquet")

        a = A.bigram_ppl_buckets(SF_SMALL)
        import biobloom_ray.io as io_mod
        ds = io_mod.read_parquet([str(d / "a.parquet"),
                                  str(d / "b.parquet")],
                                 columns=["doc_id", "text"])
        # route the resharded read through the same pipeline
        orig = A._read
        try:
            A._read = lambda sf, tbl, columns=None: ds
            b = A.bigram_ppl_buckets("ignored")
        finally:
            A._read = orig
        pd.testing.assert_frame_equal(a, b)


class TestDupClusters:
    @staticmethod
    def _run(texts, tmp_path, k, cap, force_cluster=False):
        import biobloom_ray.pipelines.analytics as A

        d = tmp_path / "docs"
        d.mkdir(exist_ok=True)
        pq.write_table(_docs_table(texts), d / "documents.parquet")
        gate = 0 if force_cluster else A.DUPC_DRIVER_MAX_ROWS
        old = A.DUPC_DRIVER_MAX_ROWS
        try:
            A.DUPC_DRIVER_MAX_ROWS = gate
            return A.dup_clusters(str(d), k=k, cap=cap)
        finally:
            A.DUPC_DRIVER_MAX_ROWS = old

    def test_chain_transitivity(self, ray_session, tmp_path):
        """A-B share gram1, B-C share gram2, no A-C gram: one cluster
        {A,B,C} labeled by the min doc_id — the transitive closure a
        pair list alone cannot express."""
        g1, g2 = "aaaaaaaaaa", "bbbbbbbbbb"
        texts = [f"{g1} xxxxxxxxxx", f"{g1} yyyy {g2}", f"{g2} zzzzzzzz",
                 "unrelated document with no shared grams at all"]
        out = self._run(texts, tmp_path, k=10, cap=5)
        assert out.doc_id.tolist() == [0, 1, 2]
        assert out.cluster_id.tolist() == [0, 0, 0]
        assert out.cluster_size.tolist() == [3, 3, 3]

    def test_hot_gram_cap_excludes_boilerplate(self, ray_session,
                                               tmp_path):
        """A gram in > cap docs creates no edges (boilerplate)."""
        hot = "cccccccccc"
        texts = [f"{hot} doc{i}xxxx" for i in range(4)]
        out = self._run(texts, tmp_path, k=10, cap=3)
        assert len(out) == 0
        assert list(out.columns) == ["doc_id", "cluster_id",
                                     "cluster_size"]

    def test_tiers_agree_on_fixture(self, ray_session, tmp_path):
        import biobloom_ray.pipelines.analytics as A

        fast = A.dup_clusters(SF_SMALL)
        old = A.DUPC_DRIVER_MAX_ROWS
        try:
            A.DUPC_DRIVER_MAX_ROWS = 0
            slow = A.dup_clusters(SF_SMALL)
        finally:
            A.DUPC_DRIVER_MAX_ROWS = old
        pd.testing.assert_frame_equal(fast, slow)

    def test_cluster_tier_multi_round_chain(self, ray_session, tmp_path):
        """A 5-doc chain (diameter 4) on the forced BSP path: label
        propagation must run multiple rounds to converge."""
        grams = [f"g{i}bbbbbbbb"[:10] for i in range(4)]
        texts = []
        for i in range(5):
            parts = []
            if i > 0:
                parts.append(grams[i - 1])
            if i < 4:
                parts.append(grams[i])
            texts.append(" ".join(parts) + f" tail{i}xxxx")
        out = self._run(texts, tmp_path, k=10, cap=3, force_cluster=True)
        assert out.doc_id.tolist() == [0, 1, 2, 3, 4]
        assert out.cluster_id.tolist() == [0] * 5
        assert out.cluster_size.tolist() == [5] * 5
