"""Deterministic extraction + normalization (the webtext analogue of
``Common/Sequence.cpp`` reverse-complement / IUPAC normalization, per
SURVEY.md §2.2 M4).

BASELINE.json input_hint invariant: extracted text must be
**byte-identical per url** across runs and retries.  Everything here is
pure byte/str manipulation with compiled regexes — no locale, no
Unicode-version-dependent tables (``casefold``/``lower`` on ASCII only
via explicit translation), pinned by golden sha256 fixtures in tests.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_TAG_RE = re.compile(rb"<[^>]*>")
_WS_RE = re.compile(r"[ \t\r\n\f\v]+")


def extract_text(html: bytes) -> str:
    """html → text: strip tags, decode UTF-8 (surrogate-safe), collapse
    ASCII whitespace runs to single spaces, trim.  Deterministic and
    byte-stable for a given input."""
    raw = _TAG_RE.sub(b" ", html)
    text = raw.decode("utf-8", errors="replace")
    return _WS_RE.sub(" ", text).strip()


def normalize_batch(text_col: pa.Array) -> pa.Array:
    """Shingling pre-pass: ASCII lowercase + ASCII-whitespace collapse,
    done with pyarrow compute kernels (zero-copy columnar).  This is the
    pinned normalization applied before hashing (SURVEY.md §2.2 M4).

    ``ascii_lower`` / an explicit ``[ \\t\\r\\n\\f\\v]`` class (not
    ``utf8_lower`` / ``\\s``) so the output can never drift with the
    Unicode tables of a future pyarrow — the module contract is
    byte-identical normalization across versions; non-ASCII code points
    pass through untouched (golden non-ASCII fixture in test_hashing).
    """
    if isinstance(text_col, pa.ChunkedArray):
        text_col = text_col.combine_chunks()
    t = pc.ascii_lower(text_col)
    t = pc.replace_substring_regex(t, pattern=r"[ \t\r\n\f\v]+",
                                   replacement=" ")
    return pc.ascii_trim_whitespace(t)


def text_sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def content_md5_batch(text_col: pa.Array) -> np.ndarray:
    """Per-row md5 hex digest of the UTF-8 text — the exact-dedup /
    fingerprint content key (matches DuckDB's ``md5(text)`` for the
    oracle)."""
    if isinstance(text_col, pa.ChunkedArray):
        text_col = text_col.combine_chunks()
    return np.array(
        [hashlib.md5(v.encode("utf-8")).hexdigest() if v is not None else ""
         for v in text_col.to_pylist()],
        dtype=object,
    )


def normalized_byte_len(text_col: pa.Array) -> np.ndarray:
    """Per-row UTF-8 byte length AFTER :func:`normalize_batch`, computed
    directly from the raw bytes with numpy (no string materialization —
    the sizing pre-pass must not pay the full normalization twice).

    Normalization is length-preserving except whitespace: each maximal
    ASCII-whitespace run collapses to one space, and leading/trailing
    runs are removed entirely.  So
    ``len' = len − ws_bytes + n_runs − lead_run − trail_run``.
    """
    from biobloom_ray.hashing import string_column_bytes

    data, starts, ends = string_column_bytes(text_col)
    n = len(starts)
    lens = (ends - starts).astype(np.int64)
    if len(data) == 0 or n == 0:
        return np.maximum(lens, 0)
    is_ws = ((data == 0x20) | (data == 0x09) | (data == 0x0D)
             | (data == 0x0A) | (data == 0x0C) | (data == 0x0B))
    # run starts: ws byte whose predecessor is not ws (global view; row
    # boundaries handled below because spans index into the same buffer)
    prev_ws = np.empty_like(is_ws)
    prev_ws[0] = False
    prev_ws[1:] = is_ws[:-1]
    csum_ws = np.zeros(len(data) + 1, dtype=np.int64)
    np.cumsum(is_ws, out=csum_ws[1:])
    run_start = is_ws & ~prev_ws
    csum_rs = np.zeros(len(data) + 1, dtype=np.int64)
    np.cumsum(run_start, out=csum_rs[1:])

    ws_bytes = csum_ws[ends] - csum_ws[starts]
    n_runs = csum_rs[ends] - csum_rs[starts]
    # a row-initial ws byte is always a run start within the row, even if
    # the previous row's last byte was ws
    nonempty = lens > 0
    first_ws = np.zeros(n, dtype=bool)
    first_ws[nonempty] = is_ws[starts[nonempty]]
    row_initial_missed = np.zeros(n, dtype=np.int64)
    ne_starts = starts[nonempty]
    row_initial_missed[nonempty] = (is_ws[ne_starts]
                                    & prev_ws[ne_starts]).astype(np.int64)
    n_runs = n_runs + row_initial_missed
    last_ws = np.zeros(n, dtype=bool)
    last_ws[nonempty] = is_ws[ends[nonempty] - 1]
    # all-ws row: one run, fully trimmed → length 0 (handled naturally:
    # len − ws + 1 − 1(lead) − 1(trail) would double-count the single
    # run; guard it)
    all_ws = nonempty & (ws_bytes == lens)
    out = lens - ws_bytes + n_runs \
        - first_ws.astype(np.int64) - last_ws.astype(np.int64)
    out[all_ws] = 0
    # single trimmed run at both ends (e.g. " a b ") subtracts lead and
    # trail separately — correct; but a row that is exactly one run AND
    # both lead+trail is the all_ws case above
    return np.maximum(out, 0)
