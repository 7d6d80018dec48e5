"""On-disk content-addressed cache for experiment results.

The production experiment service (ROADMAP item 4) answers the same
queries over and over: *run experiment X with configuration C and seed S*.
Every registered experiment is a deterministic function of exactly those
inputs plus the code that implements it, so the answer can be stored once
and replayed forever — provided the key captures all four ingredients.
This module implements that store:

* **Content addressing** — an entry's key is the BLAKE2 hash of
  ``(experiment id, canonical configuration JSON, seed, code
  fingerprint)``.  Canonicalisation (:func:`canonical_json`) makes the
  configuration representation-independent: dataclasses, tuples, sets and
  numpy scalars collapse to one sorted-key JSON form, so equal
  configurations always produce equal keys.
* **Fingerprint invalidation** — the code fingerprint
  (:func:`code_fingerprint`) hashes every source file of the ``repro``
  package, so editing any implementation file silently invalidates every
  cached result without version bookkeeping.
* **Robustness** — entries are written atomically (temp file +
  ``os.replace``) and verified on read; a corrupted or truncated entry
  counts as a miss and is recomputed and overwritten, never trusted.

Payloads are stored as JSON.  :meth:`ResultCache.fetch_or_compute`
returns the *JSON round-trip* of a freshly computed payload, so a cold
call and a later cache hit return byte-identical values (tuples never
leak through on the cold path only) — the property the sweep tests pin.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import pathlib
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple, Union

#: Bump to orphan every existing cache entry on a format change.
#: Version 2: mapping keys are type-tagged during canonicalisation, so
#: ``{1: x}``, ``{"1": x}`` and ``{True: x}`` no longer collide into one
#: key — entries written by version-1 code are unreachable.
ENTRY_VERSION = 2

#: Hex digest length: 32 hex chars (16 bytes) keeps filenames short while
#: leaving collision probability negligible for any realistic cache size.
_DIGEST_SIZE = 16


# ----------------------------------------------------------------------
# Canonicalisation
# ----------------------------------------------------------------------
#: Mapping-key type tags.  A plain string key passes through untouched
#: unless it *looks* like a tagged key, in which case it is escaped with
#: the ``s:`` tag — so ordinary JSON-native payloads (summary rows,
#: config dicts) canonicalise to themselves, while ``{1: x}``,
#: ``{"1": x}`` and ``{True: x}`` all map to distinct canonical keys.
_KEY_TAG_RE = re.compile(r"^(?:s|i|b|f|n|r):")


def _canonical_key(key: Any) -> str:
    """The canonical string form of one mapping key, type-encoded.

    ``str`` keys stay verbatim (escaped with ``s:`` only when they match
    the tag syntax themselves); every other type carries an explicit tag
    (``b:`` bool before ``i:`` int — bool subclasses int — then ``f:``
    float, ``n:`` None, ``r:`` repr fallback).  Distinct key types can
    therefore never collapse into one canonical key.
    """
    if isinstance(key, str):
        return f"s:{key}" if _KEY_TAG_RE.match(key) else key
    if isinstance(key, bool):
        return f"b:{key}"
    if isinstance(key, int):
        return f"i:{key}"
    if isinstance(key, float):
        return f"f:{key!r}"
    if key is None:
        return "n:"
    return f"r:{key!r}"


#: Exact types that are already canonical: returned as they are.
_PLAIN_SCALARS = frozenset((str, int, float, bool, type(None)))


def canonical_value(value: Any) -> Any:
    """Reduce ``value`` to plain JSON types, canonically.

    Dataclasses become dictionaries, mappings get type-encoded string
    keys (see :func:`_canonical_key`), tuples, lists and frozen/plain
    sets become lists (sets are sorted by their repr, so order is
    deterministic), and objects exposing ``item()`` (numpy scalars)
    collapse to the underlying Python number.  Anything else falls back
    to ``repr`` — stable for the config objects used here, and never
    silently ambiguous (two distinct reprs cannot collide into one key
    component).

    The exact JSON-native types (``str``/``int``/``float``/``bool``/
    ``None``, ``dict``, ``list``, ``tuple``) are dispatched on their type
    alone; every other value — subclasses included, such as
    ``np.float64``, an ``IntEnum`` or an ``OrderedDict`` — walks the
    full chain of :func:`_canonical_other`, in its order.  Both routes
    give the same form for any value the fast one takes.
    """
    cls = type(value)
    if cls in _PLAIN_SCALARS:
        return value
    if cls is dict:
        return {
            _canonical_key(key): canonical_value(item) for key, item in value.items()
        }
    if cls is list or cls is tuple:
        return [canonical_value(item) for item in value]
    return _canonical_other(value)


def _canonical_other(value: Any) -> Any:
    """:func:`canonical_value` of a value outside the exact-type fast path."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical_value(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {
            _canonical_key(key): canonical_value(item) for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return [canonical_value(item) for item in sorted(value, key=repr)]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return canonical_value(value.item())
    return repr(value)


#: The one canonical encoder (sorted keys, no whitespace): the settings
#: ``json.dumps(sort_keys=True, separators=(",", ":"))`` would rebuild on
#: every call.
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(value: Any) -> str:
    """The canonical JSON form of ``value`` (sorted keys, no whitespace)."""
    return _CANONICAL_ENCODER.encode(canonical_value(value))


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------
#: Per-process tmp-name discriminator: two threads writing the same key
#: in one process must never share a tmp file (``next`` on a counter is
#: atomic under the GIL), and the pid keeps processes apart.
_tmp_counter = itertools.count()


def atomic_write_text(path: pathlib.Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (tmp file + ``os.replace``).

    Readers never observe a partial file.  The tmp name is unique per
    (process, call) — concurrent writers of the same path each replace
    the whole file, last writer wins — and a failed write always removes
    its tmp file, so no ``.tmp*`` litter survives an error or a crash
    between retries.  Used by the result cache and the experiment
    service's job store alike.
    """
    tmp_path = path.with_name(f"{path.name}.tmp-{os.getpid()}-{next(_tmp_counter)}")
    try:
        tmp_path.write_text(text, encoding="utf-8")
        os.replace(tmp_path, path)
    finally:
        tmp_path.unlink(missing_ok=True)


# ----------------------------------------------------------------------
# Code fingerprint
# ----------------------------------------------------------------------
_default_fingerprint: Optional[str] = None


def code_fingerprint(root: Union[None, str, pathlib.Path] = None) -> str:
    """BLAKE2 hash of every ``*.py`` file under ``root`` (default: ``repro``).

    The digest covers each file's package-relative path and content, in
    sorted path order, so renames, additions, deletions and edits all
    change the fingerprint.  The default-package fingerprint is computed
    once per process (source files do not change under a running
    service); pass an explicit ``root`` to bypass the memo.
    """
    global _default_fingerprint
    if root is None:
        if _default_fingerprint is None:
            _default_fingerprint = code_fingerprint(pathlib.Path(__file__).parent)
        return _default_fingerprint
    root = pathlib.Path(root)
    digest = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def result_key(
    experiment: str, config: Any, seed: Any = None, fingerprint: Optional[str] = None
) -> str:
    """The content address of one experiment result.

    A pure function of ``(experiment, canonical config JSON, seed, code
    fingerprint)`` — equal inputs give equal keys across processes and
    machines; changing any ingredient (including only the code) gives a
    fresh key.
    """
    if fingerprint is None:
        fingerprint = code_fingerprint()
    digest = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    for part in (experiment, canonical_json(config), canonical_json(seed), fingerprint):
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
#: Bytes asked for per ``os.read``; an entry is a few hundred bytes.
_READ_CHUNK = 1 << 16


def _read_bytes(path: str) -> bytes:
    """The whole content of the file at ``path``, read with raw ``os`` calls.

    Any failure — missing file, a directory in its place, an I/O error —
    raises :class:`OSError`, and the descriptor is closed on every path.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while True:
            chunk = os.read(fd, _READ_CHUNK)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)
    finally:
        os.close(fd)


#: Private miss sentinel: a stored payload may legitimately be ``None``,
#: so lookups that must distinguish "not present" from "present and
#: None" compare against this object instead of ``None``.
_MISS = object()


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Entries that existed on disk but failed validation (truncated,
    #: non-JSON, wrong version/key); each also counts as a miss.
    corrupted: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class ResultCache:
    """Content-addressed result store over a directory of JSON entries.

    One entry per key, written atomically; payloads must be JSON-
    serialisable (after :func:`canonical_value`).  The ``fingerprint``
    defaults to the live :func:`code_fingerprint`, so entries written by
    older code are unreachable (not deleted — a rollback finds them
    again).
    """

    def __init__(
        self,
        cache_dir: Union[str, pathlib.Path],
        fingerprint: Optional[str] = None,
    ) -> None:
        self.cache_dir = pathlib.Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        # Entry paths are built as plain strings: the lookup's raw read
        # takes one without a pathlib round trip.
        self._entry_prefix = os.path.join(os.fspath(self.cache_dir), "")
        self.fingerprint = fingerprint if fingerprint is not None else code_fingerprint()
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def key_for(self, experiment: str, config: Any, seed: Any = None) -> str:
        """The content address this cache uses for ``(experiment, config, seed)``."""
        return result_key(experiment, config, seed, fingerprint=self.fingerprint)

    def path_for_key(self, key: str) -> pathlib.Path:
        return pathlib.Path(self._entry_path(key))

    def _entry_path(self, key: str) -> str:
        return f"{self._entry_prefix}{key}.json"

    # ------------------------------------------------------------------
    def _lookup(self, key: str) -> Any:
        """The payload stored under ``key``, or the :data:`_MISS` sentinel.

        Any defect in the on-disk entry — unreadable, non-JSON, missing
        fields, version or key mismatch — is treated as a miss (and
        counted in ``stats.corrupted``), so a later :meth:`store`
        replaces the bad entry.  The sentinel (never ``None``) signals
        the miss, so a stored-``None`` payload is a perfectly ordinary
        hit.

        The entry is read as bytes (:func:`_read_bytes`) and decoded
        strictly as UTF-8, so an undecodable entry is a corrupted miss
        like any other malformed one.
        """
        try:
            raw = _read_bytes(self._entry_path(key))
        except OSError:
            self.stats.misses += 1
            return _MISS
        try:
            entry = json.loads(raw.decode("utf-8"))
            if (
                not isinstance(entry, dict)
                or entry.get("version") != ENTRY_VERSION
                or entry.get("key") != key
                or "payload" not in entry
            ):
                raise ValueError("malformed cache entry")
        except (ValueError, TypeError):
            self.stats.corrupted += 1
            self.stats.misses += 1
            return _MISS
        self.stats.hits += 1
        return entry["payload"]

    def fetch_key(self, key: str) -> Optional[Any]:
        """The payload stored under ``key``, or ``None`` on a miss.

        ``None`` is ambiguous here (a stored payload may itself be
        ``None``); use :meth:`contains` or :meth:`fetch_or_compute` when
        the distinction matters — both detect misses via a private
        sentinel, never the payload value.
        """
        payload = self._lookup(key)
        return None if payload is _MISS else payload

    def fetch(self, experiment: str, config: Any, seed: Any = None) -> Optional[Any]:
        """Look up ``(experiment, config, seed)``; ``None`` on a miss."""
        return self.fetch_key(self.key_for(experiment, config, seed))

    def contains(self, experiment: str, config: Any, seed: Any = None) -> bool:
        """True when a valid entry exists (without hit/miss accounting)."""
        key = self.key_for(experiment, config, seed)
        stats = self.stats
        self.stats = CacheStats()
        try:
            return self._lookup(key) is not _MISS
        finally:
            self.stats = stats

    # ------------------------------------------------------------------
    def store(
        self, experiment: str, config: Any, seed: Any = None, payload: Any = None
    ) -> str:
        """Store ``payload`` under the content address; returns the key.

        The entry records the full addressing tuple alongside the payload
        so entries stay debuggable (``cat`` shows what produced them).
        The write is atomic with a per-(process, call) unique tmp name —
        concurrent same-key stores never share a tmp file — and a failed
        write cleans its tmp file up instead of leaving ``.tmp*`` litter
        the corrupted-entry scan cannot reclaim.
        """
        key = self.key_for(experiment, config, seed)
        entry = {
            "version": ENTRY_VERSION,
            "key": key,
            "experiment": experiment,
            "config": canonical_value(config),
            "seed": canonical_value(seed),
            "fingerprint": self.fingerprint,
            "payload": canonical_value(payload),
        }
        atomic_write_text(self.path_for_key(key), json.dumps(entry, indent=2) + "\n")
        self.stats.stores += 1
        return key

    # ------------------------------------------------------------------
    def fetch_or_compute(
        self,
        experiment: str,
        config: Any,
        compute: Callable[[], Any],
        seed: Any = None,
    ) -> Tuple[Any, bool]:
        """Return ``(payload, hit)`` — from the store, or via ``compute``.

        On a miss, ``compute()`` runs, its payload is stored, and the
        *JSON round-trip* of the payload is returned — so the miss path
        returns exactly what every later hit will return, byte for byte.
        Misses are detected with a private sentinel, never the payload
        value: a stored ``None`` is a hit, not a permanent recompute.
        """
        cached = self._lookup(self.key_for(experiment, config, seed))
        if cached is not _MISS:
            return cached, True
        payload = compute()
        self.store(experiment, config, seed=seed, payload=payload)
        # The same round-trip the store/fetch pair performs (plain dumps of
        # the canonical value, no key re-sorting), so the returned payload
        # is byte-for-byte what every later hit will return.
        return json.loads(json.dumps(canonical_value(payload))), False
