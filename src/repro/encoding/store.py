"""The persistent document store: mmap columnar fragments + a WAL.

The paper's encoding is a *disk-resident* columnar layout (Section 3.1:
node/attribute tables plus string pools); this module gives the arena
that durability.  A :class:`DocumentStore` owns one directory::

    store/
      MANIFEST.json            # atomically-replaced catalog (doc -> epoch)
      wal-<i>-of-<n>.log       # append-only TreeDelta log of shard i of n
      docs/<slug>-s<i>-<epoch>/  # one immutable fragment per doc + epoch
        kind.bin size.bin level.bin parent.bin name.bin value.bin
        attr_owner.bin attr_name.bin attr_value.bin
        pool.blob pool_offsets.bin

Each fragment directory holds **one numpy-mappable file per column** of
the XPath Accelerator tables, written once and never modified: node
rows relative to the document root (``parent`` rebased, the root's
parent ``-1``), the attribute triples of the subtree, and a private
string pool (UTF-8 blob + offsets) holding every property string the
fragment references, with ``name``/``value`` columns remapped to local
surrogates.  Reopening a store therefore never re-parses XML:
:meth:`load_fragment` memory-maps the column files and adopts them into
the arena with vectorised appends, re-interning only the distinct pool
strings.  Every integer file but ``kind`` is written at the narrowest
signed width its values need, recorded in the fragment's manifest entry
(``"dtypes"``, manifest format 2; an entry without them has format 1's
fixed table :data:`FORMAT1_DTYPES`).

Durability protocol (see ``docs/storage.md``):

* the **manifest** is the single source of truth.  It is replaced
  atomically (write temp + fsync + ``os.replace`` + fsync dir), so a
  crash leaves either the old or the new catalog, never a mix.
  Fragment directories are written and fsynced *before* the manifest
  that references them; unreferenced directories are garbage.
* the **WAL** records updates as position-independent serialized
  :class:`~repro.encoding.arena.TreeDelta` payloads
  (:func:`serialize_delta`), one fsynced JSON line per update, written
  *before* the arena mutates.  A record lists every document the update
  touches with its base and new epoch, so replay is atomic per update
  and idempotent: a record whose base epoch no longer matches the
  manifest (because a checkpoint or replace already folded it in) is
  skipped.
* a **checkpoint** rewrites the fragments of every WAL-dirty document,
  swaps the manifest, then removes the log.  Recovery = mmap the
  manifest fragments + replay the WAL tail; a torn final record
  (partial write, bad checksum) is discarded.

Every file-system step calls the injectable ``fault_hook`` first, which
is how the crash-recovery suite (``tests/test_store_recovery.py``) kills
the process at each boundary and proves reopening is always consistent.

Every open is a shard view: ``shard=(i, n)`` owns the URIs
:func:`shard_of` (pure hashing) maps to ``i``, and the default
``(0, 1)`` owns them all, so a different worker count is only a
different open-time filter over the same directory.  One set of rules
covers every layout (docs/storage.md):

* an open appends to its **own log** ``wal-<i>-of-<n>.log``; same-layout
  logs of other indices are live siblings, never touched.  Every other
  ``wal*.log`` is an **other-layout log** (a crash under another worker
  count, or an older ``wal.log``/``wal-NN.log``): :meth:`read_wal` reads
  it read-only, and :meth:`truncate_wal` deletes it once the manifest
  covers every record in it.
* every manifest commit **merges** with the manifest on disk under an
  advisory file lock, overlaying only the documents this open owns.
* only a one-shard open runs :meth:`gc_unreferenced` (a neighbour's
  fresh fragment directory is unreachable until its manifest commit).
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import re
import shutil
import zlib
from contextlib import contextmanager

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

import numpy as np

from repro.encoding.arena import NK_TEXT, NodeArena, TreeDelta
from repro.encoding.storage import persisted_fragment_bytes
from repro.errors import PathfinderError

MANIFEST_NAME = "MANIFEST.json"
#: the manifest format this code writes: every fragment entry records the
#: dtype of each of its column files (``"dtypes"``)
FORMAT_VERSION = 2
#: the manifest formats an open reads; format 1 wrote every fragment at
#: the fixed widths of :data:`FORMAT1_DTYPES`, and a checkpoint rewrites
#: only dirty documents, so one format-2 store may hold both kinds
READABLE_FORMATS = (1, 2)

#: node-table column files.  ``kind`` is always one unsigned byte; every
#: other column is stored at the narrowest signed width that holds its
#: values (paper Section 3.1: narrow physical columns)
NODE_COLUMNS = ("kind", "size", "level", "parent", "name", "value")
#: attribute-table column files (owner rebased to the fragment root),
#: narrowed like the node columns
ATTR_COLUMNS = ("attr_owner", "attr_name", "attr_value")
#: the files whose width a fragment's manifest entry records: every
#: integer column but ``kind``, and the string pool's offsets
NARROW_COLUMNS = NODE_COLUMNS[1:] + ATTR_COLUMNS + ("pool_offsets",)
#: the widths a narrowed file may have, narrowest first
WIDTHS = ("<i1", "<i2", "<i4", "<i8")
#: the fixed column dtypes of format 1 (and of any entry without ``dtypes``)
FORMAT1_DTYPES = {
    "kind": "u1",
    "size": "<i8",
    "level": "<i4",
    "parent": "<i8",
    "name": "<i8",
    "value": "<i8",
    "attr_owner": "<i8",
    "attr_name": "<i8",
    "attr_value": "<i8",
    "pool_offsets": "<i8",
}


class StoreError(PathfinderError):
    """A persistent-store invariant was violated (corrupt manifest...)."""


class StoreCrash(RuntimeError):
    """Raised by fault hooks to simulate a crash mid-write (tests)."""


def shard_of(uri: str, shards: int) -> int:
    """Deterministic shard owner of a document URI (SHA-1 mod shards).

    This *is* the cluster's shard map: pure hashing, no state, so the
    router, every worker, and any later re-open with a different worker
    count all agree on ownership without coordination.  SHA-1 rather
    than CRC-32 because CRC's linearity leaves near-identical URIs
    (``doc0.xml`` … ``doc5.xml``) with correlated low bits — real
    catalogs name documents in exactly that pattern.
    """
    if shards <= 0:
        raise ValueError("shard count must be positive")
    digest = hashlib.sha1(uri.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


def _covered(documents: dict, part: dict) -> bool:
    """Whether a manifest's ``documents`` hold a WAL record's part: the
    document is gone, or catalogued at least at the part's new epoch."""
    meta = documents.get(part["uri"])
    return meta is None or meta["epoch"] >= part["new_epoch"]


def _slug(uri: str) -> str:
    """A filesystem-safe (non-unique) name for a document URI."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", uri)[:64] or "doc"


def _fsync_dir(path: str) -> None:
    """fsync a directory so renames/creates inside it are durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def narrowest_dtype(values: np.ndarray) -> str:
    """The narrowest of :data:`WIDTHS` that holds every value (the ``-1``
    sentinels included); an empty column takes the narrowest."""
    if not len(values):
        return WIDTHS[0]
    lo, hi = int(values.min()), int(values.max())
    return next(
        dtype
        for dtype in WIDTHS
        if np.iinfo(dtype).min <= lo and hi <= np.iinfo(dtype).max
    )


def fragment_dtypes(meta: dict) -> dict[str, str]:
    """Column file → dtype of one manifest entry: ``kind`` plus its
    ``dtypes`` (format 2), or :data:`FORMAT1_DTYPES` for an entry
    without them.  An entry whose ``dtypes`` miss a narrowed file, name
    another, or give a width outside :data:`WIDTHS` raises
    :class:`StoreError` instead of being misread."""
    widths = meta.get("dtypes")
    if widths is None:
        return FORMAT1_DTYPES
    if (
        not isinstance(widths, dict)
        or sorted(widths) != sorted(NARROW_COLUMNS)
        or not all(width in WIDTHS for width in widths.values())
    ):
        raise StoreError(
            f"fragment {meta.get('dir')!r} lists unsupported column dtypes"
            f" {widths!r}"
        )
    return {"kind": "u1", **widths}


def fragment_bytes(meta: dict) -> int:
    """Exact byte size of the files of one manifest entry's fragment."""
    dtypes = fragment_dtypes(meta)
    width = lambda cname: np.dtype(dtypes[cname]).itemsize  # noqa: E731
    return persisted_fragment_bytes(
        meta["nodes"],
        meta["attrs"],
        meta["strings"],
        meta["blob_bytes"],
        node_row_bytes=sum(width(cname) for cname in NODE_COLUMNS),
        attr_row_bytes=sum(width(cname) for cname in ATTR_COLUMNS),
        offset_bytes=width("pool_offsets"),
    )


class PagedFragment:
    """A memory-mapped, relocatable view of one persisted fragment.

    ``cols``/``acols`` are read-only numpy memmaps of the column files
    (root-relative rows, fragment-local surrogates) and ``gsids`` maps
    local surrogate ``i`` to the shared pool's id for the same string —
    everything :func:`~repro.encoding.paging.fill_adopted_span` needs to
    materialise the fragment at any arena base, as often as the pager
    faults it back in.  Holding one keeps the store files mapped (and,
    on POSIX, readable even after the directory is garbage collected);
    it never holds decoded column data.
    """

    __slots__ = ("uri", "nodes", "attrs", "cols", "acols", "gsids",
                 "disk_bytes")

    def __init__(self, uri, nodes, attrs, cols, acols, gsids, disk_bytes):
        self.uri = uri
        self.nodes = nodes
        self.attrs = attrs
        self.cols = cols
        self.acols = acols
        self.gsids = gsids
        self.disk_bytes = disk_bytes


class DocumentStore:
    """One store directory: fragments, manifest, WAL (see module docs).

    The store performs no locking of its own — every mutating call runs
    under the owning Database's exclusive catalog lock, which also
    serialises manifest swaps and WAL appends.  ``fault_hook(point)``
    is invoked before/after each file-system step with a label such as
    ``"wal:fsync"``; raising from the hook simulates a crash there.

    ``shard=(index, count)`` is the open's view (module docs): its own
    WAL, merge-committed manifests, and :meth:`owns` as the filter the
    Database applies in recovery and loads; ``(0, 1)`` owns everything.
    """

    def __init__(self, path: str, fault_hook=None, shard=(0, 1)):
        self.path = os.path.abspath(str(path))
        self._fault = fault_hook if fault_hook is not None else lambda point: None
        index, count = int(shard[0]), int(shard[1])
        if count < 1 or not (0 <= index < count):
            raise ValueError(f"invalid shard spec {shard!r}")
        self.shard = (index, count)
        #: this open chose its default document (``set_default`` or a
        #: ``default=True`` load): merge-commits carry it over the disk's
        self.default_override = False
        try:
            os.makedirs(os.path.join(self.path, "docs"), exist_ok=True)
        except OSError as exc:
            raise StoreError(
                f"cannot open store directory {self.path!r}: {exc.strerror}"
            ) from None
        self.manifest: dict = {
            "format": FORMAT_VERSION,
            "last_epoch": 0,
            "default_document": None,
            "documents": {},
        }
        manifest_path = os.path.join(self.path, MANIFEST_NAME)
        if os.path.exists(manifest_path):
            try:
                with open(manifest_path, "r", encoding="utf-8") as handle:
                    self.manifest = json.load(handle)
            except (OSError, ValueError) as exc:
                raise StoreError(
                    f"unreadable store manifest {manifest_path!r}: {exc}"
                ) from None
            if (
                not isinstance(self.manifest, dict)
                or self.manifest.get("format") not in READABLE_FORMATS
            ):
                raise StoreError(
                    f"unsupported store format in {manifest_path!r}"
                )
        #: documents with WAL records not yet folded into a fragment
        self.dirty: set[str] = set()
        self.wal_records = 0
        self.wal_seq = 0
        self.checkpoints = 0
        self.replayed = 0

    # ------------------------------------------------------------ plumbing
    def owns(self, uri: str) -> bool:
        """Whether this open's shard owns ``uri``."""
        return shard_of(uri, self.shard[1]) == self.shard[0]

    @property
    def wal_path(self) -> str:
        """Absolute path of the write-ahead log this open appends to."""
        index, count = self.shard
        return os.path.join(self.path, f"wal-{index}-of-{count}.log")

    def _other_layout_logs(self) -> list[str]:
        """The directory's WAL files of every other shard layout, sorted
        (see the module docs; same-layout siblings are not listed)."""
        count = self.shard[1]
        layout = {f"wal-{j}-of-{count}.log" for j in range(count)}
        return sorted(
            path
            for path in glob.glob(os.path.join(self.path, "wal*.log"))
            if os.path.basename(path) not in layout
        )

    @property
    def wal_bytes(self) -> int:
        """Current byte size of the WAL (0 when absent)."""
        try:
            return os.path.getsize(self.wal_path)
        except OSError:
            return 0

    def _doc_dir(self, meta: dict) -> str:
        return os.path.join(self.path, meta["dir"])

    # ----------------------------------------------------------- fragments
    def write_fragment(
        self, uri: str, epoch: int, arena: NodeArena, root: int, xml_bytes: int = 0
    ) -> dict:
        """Write the document's current fragment as columnar files.

        The subtree ``root .. root+size`` is snapshotted with rows and
        attribute owners rebased to the root, surrogates remapped into a
        fragment-local pool, and each column written + fsynced into a
        fresh ``docs/<slug>-<epoch>`` directory at the narrowest width
        its values need (:func:`narrowest_dtype`).  Returns the manifest
        entry, widths included; the fragment is unreachable until a
        manifest commit references it.
        """
        lo = int(root)
        arena.ensure_rows((lo,))  # snapshotting a cold fragment faults it
        hi = lo + int(arena.size[lo]) + 1
        pool = arena.pool
        name = np.asarray(arena.name[lo:hi], dtype=np.int64).copy()
        value = np.asarray(arena.value[lo:hi], dtype=np.int64).copy()
        parent = np.asarray(arena.parent[lo:hi], dtype=np.int64) - lo
        parent = parent.copy()
        parent[0] = -1
        ids, _ = arena.attrs_in_span(lo, hi)
        aowner = np.asarray(arena.attr_owner[ids], dtype=np.int64) - lo
        aname = np.asarray(arena.attr_name[ids], dtype=np.int64).copy()
        avalue = np.asarray(arena.attr_value[ids], dtype=np.int64).copy()

        # fragment-local string pool: every referenced surrogate, stored
        # once as UTF-8 (blob + offsets), columns remapped to local ids
        used = np.concatenate(
            [col[col >= 0] for col in (name, value, aname, avalue)]
        )
        uniq = np.unique(used)

        def remap(col: np.ndarray) -> np.ndarray:
            mask = col >= 0
            col[mask] = np.searchsorted(uniq, col[mask])
            return col

        strings = pool.values(uniq.tolist())
        encoded = [s.encode("utf-8") for s in strings]
        blob = b"".join(encoded)
        offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
        if encoded:
            np.cumsum([len(b) for b in encoded], out=offsets[1:])

        columns = {
            "kind": np.asarray(arena.kind[lo:hi]),
            "size": np.asarray(arena.size[lo:hi]),
            "level": np.asarray(arena.level[lo:hi]),
            "parent": parent,
            "name": remap(name),
            "value": remap(value),
            "attr_owner": aowner,
            "attr_name": remap(aname),
            "attr_value": remap(avalue),
            "pool_offsets": offsets,
        }
        # shard suffix: worker epoch counters are only unique per
        # process, and two URIs on different shards can share a slug
        frag_name = f"{_slug(uri)}-s{self.shard[0]:02d}-{epoch:08d}"
        rel_dir = os.path.join("docs", frag_name)
        frag_dir = os.path.join(self.path, rel_dir)
        os.makedirs(frag_dir, exist_ok=True)
        self._fault("frag:write")
        dtypes = {
            cname: narrowest_dtype(arr)
            for cname, arr in columns.items()
            if cname != "kind"
        }
        files = {"kind": "u1", **dtypes}
        for cname, arr in columns.items():
            data = np.ascontiguousarray(arr.astype(files[cname]))
            self._write_file(os.path.join(frag_dir, cname + ".bin"), data.tobytes())
        self._write_file(os.path.join(frag_dir, "pool.blob"), blob)
        self._fault("frag:fsync-dir")
        _fsync_dir(frag_dir)
        return {
            "epoch": int(epoch),
            "dir": rel_dir,
            "nodes": hi - lo,
            "attrs": int(len(ids)),
            "strings": int(len(uniq)),
            "blob_bytes": len(blob),
            "xml_bytes": int(xml_bytes),
            "dtypes": dtypes,
        }

    def _write_file(self, path: str, data: bytes) -> None:
        """Write one immutable fragment file and fsync it."""
        with open(path, "wb") as handle:
            handle.write(data)
            handle.flush()
            self._fault("frag:fsync")
            os.fsync(handle.fileno())

    def _mapped(self, path: str, dtype: str, count: int) -> np.ndarray:
        if count == 0:
            return np.empty(0, dtype=dtype)
        return np.memmap(path, dtype=dtype, mode="r", shape=(count,))

    def open_paged(self, pool, uri: str) -> "PagedFragment":
        """mmap one manifest fragment as a :class:`PagedFragment` view.

        The column files are memory-mapped (demand-paged, nothing read
        yet except the string pool, whose distinct strings are interned
        into ``pool`` so the fragment's surrogate translation table
        ``gsids`` is ready before any fault).  This is the relocatable
        half of adoption; :meth:`NodeArena.adopt_fragment
        <repro.encoding.arena.NodeArena.adopt_fragment>` does the span
        reservation and (lazy or eager) materialisation.
        """
        meta = self.manifest["documents"].get(uri)
        if meta is None:
            raise StoreError(f"document {uri!r} is not in the store manifest")
        frag = self._doc_dir(meta)
        dtypes = fragment_dtypes(meta)
        n, m, k = meta["nodes"], meta["attrs"], meta["strings"]

        def mapped(cname: str, count: int) -> np.ndarray:
            path = os.path.join(frag, cname + ".bin")
            return self._mapped(path, dtypes[cname], count)

        cols = {cname: mapped(cname, n) for cname in NODE_COLUMNS}
        acols = {cname: mapped(cname, m) for cname in ATTR_COLUMNS}
        offsets = mapped("pool_offsets", k + 1)
        if k:
            with open(os.path.join(frag, "pool.blob"), "rb") as handle:
                blob = handle.read()
            # materialise the offsets first: per-element indexing into a
            # memmap pays a page-lookup per subscript
            off = np.asarray(offsets, dtype=np.int64).tolist()
            strings = [
                blob[off[i] : off[i + 1]].decode("utf-8") for i in range(k)
            ]
            gsids = np.asarray(pool.intern_many(strings), dtype=np.int64)
        else:
            gsids = np.empty(0, dtype=np.int64)
        return PagedFragment(
            uri=uri,
            nodes=int(n),
            attrs=int(m),
            cols=cols,
            acols=acols,
            gsids=gsids,
            disk_bytes=fragment_bytes(meta),
        )

    def load_fragment(self, arena: NodeArena, uri: str) -> int:
        """mmap one manifest fragment and adopt it into ``arena``.

        Column files are memory-mapped (demand-paged; no XML parse) and
        adopted as one contiguous fragment, cast straight from the
        memmaps into the flat buffers — a single copy, with nothing but
        the (small) translation table kept alive afterwards.  With a
        pager attached the adoption is *lazy* instead: the span stays
        cold until first touch.  Returns the document's new root row.
        """
        return arena.adopt_fragment(
            self.open_paged(arena.pool, uri), paged=arena.pager is not None
        )

    # ------------------------------------------------------------ manifest
    @contextmanager
    def _manifest_lock(self):
        """Advisory cross-process lock guarding manifest merge-commits."""
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            yield
            return
        lock_path = os.path.join(self.path, "MANIFEST.lock")
        with open(lock_path, "a+") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def _disk_manifest(self) -> dict | None:
        """The manifest on disk; None when it is absent or unreadable."""
        try:
            with open(
                os.path.join(self.path, MANIFEST_NAME), "r", encoding="utf-8"
            ) as handle:
                disk = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(disk, dict) or disk.get("format") not in READABLE_FORMATS:
            return None
        return disk

    def _merge_manifest_from_disk(self) -> None:
        """Overlay this open's entries onto the manifest on disk.

        Runs under :meth:`_manifest_lock`.  For documents this open owns
        (all of them for one shard of one), the in-memory state is the
        truth, absence included; for foreign documents the disk wins, so
        concurrent workers never lose each other's entries.  The default
        follows the disk unless this open chose it
        (:attr:`default_override`) or the disk's choice is gone.
        """
        disk = self._disk_manifest()
        if disk is None:
            return  # nothing valid on disk; the in-memory state stands
        merged = {
            uri: meta
            for uri, meta in disk.get("documents", {}).items()
            if not self.owns(uri)
        }
        merged.update(
            {
                uri: meta
                for uri, meta in self.manifest["documents"].items()
                if self.owns(uri)
            }
        )
        default = disk.get("default_document")
        if self.default_override or default not in merged:
            default = self.manifest.get("default_document")
        if default not in merged:
            default = None
        self.manifest = {
            "format": FORMAT_VERSION,
            "last_epoch": max(
                int(disk.get("last_epoch", 0)),
                int(self.manifest.get("last_epoch", 0)),
            ),
            "default_document": default,
            "documents": merged,
            "shards": self.shard[1],
        }

    def commit_manifest(self) -> None:
        """Atomically replace ``MANIFEST.json`` with the in-memory state,
        merged with the manifest on disk under an advisory file lock
        (see :meth:`_merge_manifest_from_disk`) so concurrent workers'
        commits compose instead of clobbering."""
        with self._manifest_lock():
            self._merge_manifest_from_disk()
            self._commit_manifest_file()

    def _commit_manifest_file(self) -> None:
        """The atomic replace itself: temp + fsync + rename + dir fsync."""
        final = os.path.join(self.path, MANIFEST_NAME)
        tmp = f"{final}.s{self.shard[0]:02d}.tmp"
        self._fault("manifest:write")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.manifest, handle, indent=1, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        self._fault("manifest:replace")
        os.replace(tmp, final)
        self._fault("manifest:done")
        _fsync_dir(self.path)

    def bump_epoch(self, epoch: int) -> None:
        """Record the highest epoch ever handed out (manifest field)."""
        if epoch > self.manifest.get("last_epoch", 0):
            self.manifest["last_epoch"] = int(epoch)

    def persist_document(
        self,
        uri: str,
        epoch: int,
        arena: NodeArena,
        root: int,
        xml_bytes: int = 0,
        default_document: str | None = None,
    ) -> dict:
        """Write a (re)loaded document's fragment and commit the manifest.

        This is the load/replace path: the fragment *is* the checkpoint
        for a fresh shred, so any pending WAL records for ``uri`` (their
        base epoch is now stale) will be skipped on recovery.
        """
        meta = self.write_fragment(uri, epoch, arena, root, xml_bytes)
        old = self.manifest["documents"].get(uri)
        self.manifest["documents"][uri] = meta
        self.manifest["default_document"] = default_document
        self.bump_epoch(epoch)
        self.commit_manifest()
        self.dirty.discard(uri)
        if old is not None:
            self._gc_dir(old["dir"])
        return meta

    def remove_document(self, uri: str, default_document: str | None) -> None:
        """Drop a document from the manifest (``unload_document``)."""
        old = self.manifest["documents"].pop(uri, None)
        self.manifest["default_document"] = default_document
        self.commit_manifest()
        self.dirty.discard(uri)
        if old is not None:
            self._gc_dir(old["dir"])

    def set_default(self, default_document: str | None) -> None:
        """Persist the catalog's default-document choice.

        This marks the default as chosen by this open, so merge-commits
        carry it over the disk's value.
        """
        self.manifest["default_document"] = default_document
        self.default_override = True
        self.commit_manifest()

    def _gc_dir(self, rel_dir: str) -> None:
        """Best-effort removal of a no-longer-referenced fragment dir."""
        shutil.rmtree(os.path.join(self.path, rel_dir), ignore_errors=True)

    def gc_unreferenced(self) -> int:
        """Delete fragment dirs the manifest no longer references.

        Runs at open: crashes can strand half-written fragment
        directories (they only become reachable at manifest commit).
        Returns how many directories were removed.  An open of one shard
        among several never sweeps: a neighbour's fresh fragment is
        unreachable *until* its manifest commit and must survive.
        """
        if self.shard[1] > 1:
            return 0
        live = {meta["dir"] for meta in self.manifest["documents"].values()}
        removed = 0
        docs = os.path.join(self.path, "docs")
        for entry in os.listdir(docs):
            rel = os.path.join("docs", entry)
            if rel not in live:
                self._gc_dir(rel)
                removed += 1
        return removed

    # ----------------------------------------------------------------- WAL
    def append_wal(self, record: dict) -> None:
        """Append one update record to the WAL and fsync it.

        The record is one JSON line carrying a CRC-32 of its payload;
        recovery treats a line that is truncated or fails the checksum
        as the torn tail of a crashed append and discards it.  The append
        that creates the log fsyncs the directory for the new entry.
        """
        self.wal_seq += 1
        record = {"seq": self.wal_seq, **record}
        payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
        crc = zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF
        line = json.dumps({"crc": crc, "rec": record}, separators=(",", ":"))
        self._fault("wal:append")
        with open(self.wal_path, "ab") as handle:
            if handle.tell() == 0:
                _fsync_dir(self.path)
            handle.write(line.encode("utf-8") + b"\n")
            handle.flush()
            self._fault("wal:fsync")
            os.fsync(handle.fileno())
        self._fault("wal:done")
        self.wal_records += 1
        for part in record.get("docs", ()):
            self.dirty.add(part["uri"])
            self.bump_epoch(part["new_epoch"])

    def _read_wal_file(self, path: str, truncate: bool) -> list[dict]:
        """Parse one WAL file's intact records, discarding a torn tail.

        A record is intact when its line parses as JSON and the CRC of
        the canonical payload matches; the first failure ends the log
        (an fsynced append can never be *followed* by an intact line,
        so nothing valid is thrown away).  With ``truncate`` the file is
        cut back to the surviving prefix so later appends start clean —
        disabled for files this open doesn't own (other-layout logs).
        """
        records: list[dict] = []
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError:
            return records
        pos = 0
        while pos < len(raw):
            newline = raw.find(b"\n", pos)
            if newline < 0:
                break  # torn tail: the append never finished its line
            line = raw[pos:newline]
            try:
                framed = json.loads(line.decode("utf-8"))
                payload = json.dumps(
                    framed["rec"], sort_keys=True, separators=(",", ":")
                )
                if (zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF) != framed[
                    "crc"
                ]:
                    break
            except (ValueError, KeyError, TypeError, UnicodeDecodeError):
                break
            records.append(framed["rec"])
            pos = newline + 1
        if truncate and pos < len(raw):
            with open(path, "ab") as handle:
                handle.truncate(pos)
        return records

    def read_wal(self) -> list[tuple[dict, bool]]:
        """Every intact record this open may replay, paired with whether
        it came from an other-layout log (read read-only, before the own
        log, whose torn tail is cut).  Cross-file order does not matter:
        an open that replays an other-layout record checkpoints at once,
        so the records a document still needs always sit in one log."""
        records = [
            (record, True)
            for path in self._other_layout_logs()
            for record in self._read_wal_file(path, False)
        ]
        own = self._read_wal_file(self.wal_path, True)
        if own:
            self.wal_seq = max(r.get("seq", 0) for r in own)
            self.wal_records = len(own)
        return records + [(record, False) for record in own]

    def truncate_wal(self) -> None:
        """Remove the own log, then each other-layout log whose every
        record the manifest on disk covers (:func:`_covered`, judged under
        the manifest lock): a log still holding another shard's unreplayed
        update stays for that shard's open to fold."""
        self._fault("wal:truncate")
        try:
            os.remove(self.wal_path)
        except OSError:
            pass
        self.wal_records = 0
        with self._manifest_lock():
            disk = self._disk_manifest()
            if disk is None:
                return
            documents = disk.get("documents", {})
            for path in self._other_layout_logs():
                if all(
                    _covered(documents, part)
                    for record in self._read_wal_file(path, False)
                    for part in record.get("docs", ())
                ):
                    self._fault("wal:sweep")
                    try:
                        os.remove(path)
                    except OSError:
                        pass

    # ----------------------------------------------------------- checkpoint
    def checkpoint(
        self,
        arena: NodeArena,
        documents: dict[str, int],
        doc_epochs: dict[str, int],
        default_document: str | None,
    ) -> dict:
        """Fold the WAL into fragments: rewrite dirty docs, swap the
        manifest, remove the log.

        Crash-safe at every boundary: new fragment dirs are unreachable
        until the manifest swap; a crash before the swap replays the WAL
        against the old fragments, a crash after it skips the stale
        records (their base epochs no longer match).
        """
        self._fault("checkpoint:begin")
        rewritten = []
        for uri in sorted(self.dirty):
            if uri not in documents:
                continue  # unloaded since; manifest already dropped it
            old = self.manifest["documents"].get(uri)
            meta = self.write_fragment(
                uri,
                doc_epochs[uri],
                arena,
                documents[uri],
                xml_bytes=(old or {}).get("xml_bytes", 0),
            )
            self.manifest["documents"][uri] = meta
            self.bump_epoch(doc_epochs[uri])
            rewritten.append((uri, old))
        self.manifest["default_document"] = default_document
        self.commit_manifest()
        self.truncate_wal()
        self._fault("checkpoint:done")
        self.dirty.clear()
        self.checkpoints += 1
        for _, old in rewritten:
            if old is not None:
                self._gc_dir(old["dir"])
        return {
            "documents_rewritten": len(rewritten),
            "wal_bytes": self.wal_bytes,
        }

    # --------------------------------------------------------------- status
    def status(self) -> dict:
        """Operational summary (the ``/stats`` ``"store"`` section).

        A store counts only the documents its shard owns, so the
        cluster's per-shard sections sum to the catalog, not N copies
        of it.
        """
        docs = {
            uri: meta
            for uri, meta in self.manifest["documents"].items()
            if self.owns(uri)
        }
        return {
            "path": self.path,
            "shard": {"index": self.shard[0], "of": self.shard[1]},
            "documents": len(docs),
            "last_epoch": self.manifest.get("last_epoch", 0),
            "wal_bytes": self.wal_bytes,
            "wal_records": self.wal_records,
            "dirty_documents": len(self.dirty),
            "checkpoints": self.checkpoints,
            "replayed_deltas": self.replayed,
            # other-layout logs still holding records for some owner; a
            # mapping, so the cluster's key-wise sum does not count one
            # file once per shard
            "pending_wal_logs": {
                os.path.basename(path): _size(path) for path in self._other_layout_logs()
            },
            "fragment_bytes": sum(fragment_bytes(meta) for meta in docs.values()),
        }


def _size(path: str) -> int:
    """Byte size of ``path``; 0 once it is gone (another shard's
    checkpoint may delete a log between the listing and the stat)."""
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# --------------------------------------------------------------------------
# TreeDelta (de)serialization — the WAL record payload
# --------------------------------------------------------------------------
def _entry_to_json(arena: NodeArena, entry) -> dict:
    """One constructor-content entry → a position-independent payload.

    ``("text", sid)`` keeps its string; ``("copy", row)`` of a text node
    degrades to a text payload (copy semantics are by-value); any other
    copied subtree is serialized to XML, which :func:`_entries_from_json`
    re-shreds on replay.
    """
    from repro.xml.serializer import serialize_node

    tag, payload = entry
    if tag == "text":
        return {"t": "text", "v": arena.pool.value(int(payload))}
    row = int(payload)
    if int(arena.kind[row]) == NK_TEXT:
        return {"t": "text", "v": arena.pool.value(int(arena.value[row]))}
    return {"t": "xml", "v": serialize_node(arena, row)}


def _entries_from_json(arena: NodeArena, tables: list) -> list:
    """Materialise lists of serialized content entries against the
    current arena; returns one entry list per payload list.

    The XML payloads of all lists are shredded with one call, each
    inside its own wrapper element (so comments, PIs and multi-node
    document content replay too), into a transient fragment whose
    wrappers' children become ``("copy", row)`` entries — exactly the
    by-value copy the original update performed.
    """
    from repro.encoding.shred import shred_text

    xml = [p["v"] for payloads in tables for p in payloads if p["t"] != "text"]
    copies = iter(())
    if xml:
        doc = shred_text(arena, "<ws><w>" + "</w><w>".join(xml) + "</w></ws>")
        order, lo, hi = arena.children_ranges(np.asarray((doc + 1,), dtype=np.int64))
        order, lo, hi = arena.children_ranges(np.asarray(order[lo[0] : hi[0]], dtype=np.int64))
        copies = iter([[("copy", int(child)) for child in order[a:b]]
                       for a, b in zip(lo.tolist(), hi.tolist())])
    out = []
    for payloads in tables:
        entries: list = []
        for payload in payloads:
            if payload["t"] == "text":
                entries.append(("text", arena.pool.intern(payload["v"])))
            else:
                entries.extend(next(copies))
        out.append(entries)
    return out


def _attr_pair_to_json(arena: NodeArena, pair) -> list:
    name_sid, value_sid = pair
    return [arena.pool.value(int(name_sid)), arena.pool.value(int(value_sid))]


def _span_attr_ids(arena: NodeArena, root: int) -> np.ndarray:
    lo = int(root)
    arena.ensure_rows((lo,))
    return arena.attrs_in_span(lo, lo + int(arena.size[lo]) + 1)[0]


def serialize_delta(arena: NodeArena, root: int, delta: TreeDelta) -> dict:
    """Encode a :class:`TreeDelta` as a position-independent payload.

    Node targets become pre-order offsets relative to the document root
    and attribute targets become indices into the document's attribute
    list (both stable across restarts for the same epoch); pool
    surrogates become the strings themselves; copied content becomes
    XML text.  :func:`materialize_delta` inverts this against the
    recovered arena.
    """
    attr_ids = _span_attr_ids(arena, root)
    attr_index = {int(aid): i for i, aid in enumerate(attr_ids)}
    rel = lambda row: int(row) - int(root)  # noqa: E731
    out: dict = {}
    for field in TreeDelta.ROW_CONTENT_FIELDS:
        table = getattr(delta, field)
        if table:
            out[field] = {
                str(rel(row)): [_entry_to_json(arena, e) for e in entries]
                for row, entries in table.items()
            }
    if delta.insert_attrs:
        out["insert_attrs"] = {
            str(rel(row)): [_attr_pair_to_json(arena, p) for p in pairs]
            for row, pairs in delta.insert_attrs.items()
        }
    if delta.delete:
        out["delete"] = sorted(rel(row) for row in delta.delete)
    if delta.delete_attrs:
        out["delete_attrs"] = sorted(
            attr_index[int(aid)] for aid in delta.delete_attrs
        )
    if delta.replace_attr:
        out["replace_attr"] = {
            str(attr_index[int(aid)]): [
                _attr_pair_to_json(arena, p) for p in pairs
            ]
            for aid, pairs in delta.replace_attr.items()
        }
    for field in TreeDelta.ROW_STRING_FIELDS:
        table = getattr(delta, field)
        if table:
            out[field] = {
                str(rel(row)): arena.pool.value(int(sid))
                for row, sid in table.items()
            }
    for field in TreeDelta.ATTR_STRING_FIELDS:
        table = getattr(delta, field)
        if table:
            out[field] = {
                str(attr_index[int(aid)]): arena.pool.value(int(sid))
                for aid, sid in table.items()
            }
    return out


def materialize_delta(arena: NodeArena, root: int, payload: dict) -> TreeDelta:
    """Rebuild a :class:`TreeDelta` from :func:`serialize_delta` output.

    ``root`` must be the document's root row at the epoch the record
    applies to (the WAL replay loop checks epochs before calling), so
    relative rows and attribute indices resolve to the same logical
    targets the original update addressed.
    """
    attr_ids = _span_attr_ids(arena, root)
    delta = TreeDelta()
    base = int(root)
    intern = arena.pool.intern
    targets = [
        (getattr(delta, field), base + int(key), entries)
        for field in TreeDelta.ROW_CONTENT_FIELDS
        for key, entries in payload.get(field, {}).items()
    ]
    tables = _entries_from_json(arena, [entries for _, _, entries in targets])
    for (table, row, _), entries in zip(targets, tables):
        table[row] = entries
    for key, pairs in payload.get("insert_attrs", {}).items():
        delta.insert_attrs[base + int(key)] = [
            (intern(n), intern(v)) for n, v in pairs
        ]
    delta.delete = {base + int(r) for r in payload.get("delete", ())}
    delta.delete_attrs = {
        int(attr_ids[int(i)]) for i in payload.get("delete_attrs", ())
    }
    for key, pairs in payload.get("replace_attr", {}).items():
        delta.replace_attr[int(attr_ids[int(key)])] = [
            (intern(n), intern(v)) for n, v in pairs
        ]
    for field in TreeDelta.ROW_STRING_FIELDS:
        for key, text in payload.get(field, {}).items():
            getattr(delta, field)[base + int(key)] = intern(text)
    for field in TreeDelta.ATTR_STRING_FIELDS:
        for key, text in payload.get(field, {}).items():
            getattr(delta, field)[int(attr_ids[int(key)])] = intern(text)
    return delta


# --------------------------------------------------------------------------
# differential-test helper
# --------------------------------------------------------------------------
def fragment_snapshot(arena: NodeArena, root: int) -> dict:
    """A store-independent, comparable image of one document fragment.

    Rows are rebased to the root and surrogates decoded to strings, so
    two arenas that interned in different orders (e.g. in-memory vs
    reopened-from-store) still compare equal column for column.  The
    differential suites assert this across persist/reopen/replay.
    """
    lo = int(root)
    arena.ensure_rows((lo,))
    hi = lo + int(arena.size[lo]) + 1
    pool = arena.pool
    decode = lambda sid: pool.value(int(sid)) if sid >= 0 else None  # noqa: E731
    parent = (np.asarray(arena.parent[lo:hi], dtype=np.int64) - lo).tolist()
    parent[0] = -1
    ids = _span_attr_ids(arena, lo)
    return {
        "kind": np.asarray(arena.kind[lo:hi]).tolist(),
        "size": np.asarray(arena.size[lo:hi]).tolist(),
        "level": np.asarray(arena.level[lo:hi]).tolist(),
        "parent": parent,
        "name": [decode(s) for s in arena.name[lo:hi]],
        "value": [decode(s) for s in arena.value[lo:hi]],
        "attrs": [
            (
                int(arena.attr_owner[j]) - lo,
                decode(arena.attr_name[j]),
                decode(arena.attr_value[j]),
            )
            for j in ids
        ],
    }
