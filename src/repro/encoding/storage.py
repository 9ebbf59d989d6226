"""Storage accounting for the encoding (paper Section 3.1).

The paper reports disk space of the relational encoding relative to the
serialised XML document: 147 % at 11 MB falling to 125 % at 110 MB — and
below 100 % for large instances as duplicate text lets surrogate sharing
win.  We model the MonetDB/XQuery storage layout:

* node table: ``pre`` is a virtual oid (free), ``size`` 4 B, ``level`` 1 B,
  ``kind`` 1 B, ``prop`` surrogate 4 B per node;
* attribute table: ``owner`` 4 B, ``name`` 4 B, ``value`` 4 B per attribute;
* property pools: each distinct string stored once (UTF-8 bytes) plus an
  8 B dictionary entry.

The persistent store (``encoding/store.py``) has no fixed widths: each
fragment stores ``kind`` as one byte and every other column, and its
pool offsets, at the narrowest signed width (1, 2, 4 or 8 bytes) that
holds that fragment's values.  :func:`persisted_fragment_bytes` counts
a fragment's real footprint from those per-fragment widths.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.encoding.arena import NodeArena

NODE_ROW_BYTES = 4 + 1 + 1 + 4  # size, level, kind, prop surrogate
ATTR_ROW_BYTES = 4 + 4 + 4
POOL_ENTRY_OVERHEAD = 8


def persisted_fragment_bytes(
    nodes: int,
    attrs: int,
    strings: int,
    blob_bytes: int,
    *,
    node_row_bytes: int,
    attr_row_bytes: int,
    offset_bytes: int,
) -> int:
    """Exact on-disk size of one fragment directory's files.

    This is the real footprint of the mmap layout, as opposed to the
    *modelled* MonetDB widths above: ``node_row_bytes`` and
    ``attr_row_bytes`` are the summed widths of the fragment's node and
    attribute column files, ``offset_bytes`` the width of one of its
    ``strings + 1`` pool offsets.  The store materialises ``parent``,
    which the model derives, but pays the string pool only for the
    fragment's distinct strings.
    """
    return (
        nodes * node_row_bytes
        + attrs * attr_row_bytes
        + blob_bytes
        + (strings + 1) * offset_bytes
    )


@dataclass(frozen=True)
class StorageReport:
    """Byte-level breakdown of one encoded document set."""

    xml_bytes: int
    node_rows: int
    attr_rows: int
    node_table_bytes: int
    attr_table_bytes: int
    pool_bytes: int
    pool_entries: int

    @property
    def encoded_bytes(self) -> int:
        """Total bytes of the encoding: node + attribute tables + pool."""
        return self.node_table_bytes + self.attr_table_bytes + self.pool_bytes

    @property
    def overhead_pct(self) -> float:
        """Encoded size as a percentage of the XML text size (paper metric)."""
        if self.xml_bytes == 0:
            return 0.0
        return 100.0 * self.encoded_bytes / self.xml_bytes


def measure_storage(arena: NodeArena, xml_bytes: int) -> StorageReport:
    """Measure the modelled storage footprint of everything in ``arena``
    against the size of the original XML text."""
    pool = arena.pool
    return StorageReport(
        xml_bytes=xml_bytes,
        node_rows=arena.num_nodes,
        attr_rows=arena.num_attrs,
        node_table_bytes=arena.num_nodes * NODE_ROW_BYTES,
        attr_table_bytes=arena.num_attrs * ATTR_ROW_BYTES,
        pool_bytes=pool.bytes_used() + POOL_ENTRY_OVERHEAD * len(pool),
        pool_entries=len(pool),
    )
