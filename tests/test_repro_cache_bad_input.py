"""The result cache under bad on-disk input: every defect is a counted miss.

Whatever sits at an entry's path — arbitrary bytes, a truncated entry,
non-UTF-8 data, a byte-order mark, JSON of the wrong type, an entry of
another version or key, or a directory — a lookup must count a miss
(and a corrupted entry when a file was there), return no payload, never
raise, and leave no file descriptor open.  A later store replaces the
bad entry, so the next lookup hits.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ENTRY_VERSION, ResultCache

FP = "a" * 32
CONFIG = {"x": 1}
PAYLOAD = {"rows": [1, 2], "note": "é"}

_FD_DIR = "/proc/self/fd"


def _open_fds() -> Optional[int]:
    """Open descriptors of this process, where the platform lists them."""
    if not os.path.isdir(_FD_DIR):
        return None
    return len(os.listdir(_FD_DIR))


def _valid_entry() -> bytes:
    """The bytes of a well-formed entry for ``CONFIG`` (built in a scratch dir)."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp, fingerprint=FP)
        key = cache.store("exp", CONFIG, payload=PAYLOAD)
        return cache.path_for_key(key).read_bytes()


VALID = _valid_entry()
VALID_ENTRY = json.loads(VALID)


def _assert_counted_miss(raw: Optional[bytes]) -> None:
    """Put ``raw`` (``None``: a directory) at the entry path and look it up."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp, fingerprint=FP)
        path = cache.path_for_key(cache.key_for("exp", CONFIG))
        if raw is None:
            path.mkdir()
        else:
            path.write_bytes(raw)
        before = _open_fds()
        assert cache.fetch("exp", CONFIG) is None
        assert not cache.contains("exp", CONFIG)
        assert _open_fds() == before
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        assert cache.stats.corrupted == (0 if raw is None else 1)
        if raw is not None:
            # The recompute overwrites the bad entry; the next lookup hits.
            payload, hit = cache.fetch_or_compute("exp", CONFIG, lambda: PAYLOAD)
            assert not hit and payload == PAYLOAD
            assert cache.fetch("exp", CONFIG) == PAYLOAD


def test_the_valid_entry_hits():
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp, fingerprint=FP)
        cache.path_for_key(cache.key_for("exp", CONFIG)).write_bytes(VALID)
        before = _open_fds()
        assert cache.fetch("exp", CONFIG) == PAYLOAD
        assert _open_fds() == before


@settings(max_examples=100, deadline=None)
@given(raw=st.binary(max_size=512))
def test_arbitrary_bytes_are_a_counted_miss(raw):
    _assert_counted_miss(raw)


@settings(max_examples=50, deadline=None)
@given(cut=st.integers(min_value=0, max_value=len(VALID) - 2))
def test_truncated_entry_is_a_counted_miss(cut):
    # VALID ends in "}\n": any cut before the closing brace breaks the JSON.
    _assert_counted_miss(VALID[:cut])


@settings(max_examples=50, deadline=None)
@given(
    at=st.integers(min_value=0, max_value=len(VALID)),
    bad=st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80\x80"]),
)
def test_non_utf8_entry_is_a_counted_miss(at, bad):
    _assert_counted_miss(VALID[:at] + bad + VALID[at:])


def test_byte_order_mark_is_a_counted_miss():
    _assert_counted_miss(b"\xef\xbb\xbf" + VALID)


_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8)),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=8), children, max_size=3),
    ),
    max_leaves=8,
)


@settings(max_examples=100, deadline=None)
@given(document=_json)
def test_json_of_the_wrong_shape_is_a_counted_miss(document):
    # No generated document carries the entry's 32-hex key, so none is
    # a well-formed entry for CONFIG.
    _assert_counted_miss(json.dumps(document).encode())


@settings(max_examples=50, deadline=None)
@given(field=st.sampled_from(["version", "key"]), value=_json)
def test_wrong_version_or_key_is_a_counted_miss(field, value):
    expected = ENTRY_VERSION if field == "version" else VALID_ENTRY["key"]
    if value == expected:
        value = [value]
    _assert_counted_miss(json.dumps({**VALID_ENTRY, field: value}).encode())


def test_missing_payload_is_a_counted_miss():
    entry = {name: value for name, value in VALID_ENTRY.items() if name != "payload"}
    _assert_counted_miss(json.dumps(entry).encode())


def test_directory_in_place_of_the_entry_is_a_miss():
    _assert_counted_miss(None)
