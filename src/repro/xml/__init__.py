"""A small, self-contained XML layer: parser, escaping and serializer.

Pathfinder only needs well-formed document parsing (elements, attributes,
character data, CDATA, comments, processing instructions, the five builtin
entities and numeric character references) — no DTDs, no namespaces-aware
processing.  The parser has two consumers: :func:`parse_document` builds a
lightweight tree, while :func:`parse_events` streams start/text/end
callbacks so the shredder (:mod:`repro.encoding.shred`) can fill the
relational encoding without materialising a DOM.  The serializer runs the
other direction as a vectorised scan over the pre/size/level tables.
"""

from repro.xml.parser import (
    XMLComment,
    XMLElement,
    XMLEventHandler,
    XMLPi,
    XMLText,
    parse_document,
    parse_events,
)
from repro.xml.serializer import (
    scan_parts,
    serialize_node,
    serialize_tree,
)

__all__ = [
    "parse_document",
    "parse_events",
    "XMLEventHandler",
    "XMLElement",
    "XMLText",
    "XMLComment",
    "XMLPi",
    "scan_parts",
    "serialize_node",
    "serialize_tree",
]
