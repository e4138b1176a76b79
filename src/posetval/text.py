"""The text syntax that the input formats and the DOT writers share.

Every input format (posets, valuations, representation maps, quantile
maps) is read line by line: ``#`` starts a comment that runs to the end of
the line, lines left blank are skipped, fields are separated by
whitespace, and an error names its line. Numbers are ASCII decimal
digits. The serializers write only element names that come back as one
field. The DOT writers quote every ID and label, escaping ``\\`` and
``"``, so any element name gives a valid graph.
"""

from __future__ import annotations

from .errors import UnknownElement


def read_lines(text: str):
    """(line number, line, fields) for each line of text that is not empty
    once its comment is cut; line numbers start at 1 and count every
    line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line, line.split()


def digits(part: str) -> int:
    """part's value, if it is ASCII decimal digits and nothing else; int()
    would also take signs, underscores, inner spaces and other scripts'
    digits. Anything else raises ValueError."""
    if not (part.isascii() and part.isdigit()):
        raise ValueError
    return int(part)


def known(name: str, base, lineno: int) -> str:
    """name, if it is an element of the poset base."""
    if name not in base.index:
        raise UnknownElement("line %d: unknown element %r" % (lineno, name))
    return name


def writable(names: list):
    """Refuse, by ValueError naming the first of them, the names whose
    str() read_lines would not give back as one field: an empty one, or
    one holding whitespace or ``#``. One test covers all three, since an
    empty name splits into no field at all."""
    for name in map(str, names):
        if "#" in name or name.split() != [name]:
            raise ValueError("element %r cannot be written: a name must be "
                             "one field, without whitespace or '#'" % name)


def quote(name) -> str:
    """name, as str() gives it, as a DOT quoted string, with ``\\`` and
    ``"`` escaped."""
    return '"%s"' % str(name).replace("\\", "\\\\").replace('"', '\\"')


def statement(*ids, label=None) -> str:
    """A node (one ID) or an edge (two IDs), with an optional label."""
    text = " -> ".join(map(quote, ids))
    return text if label is None else "%s [label=%s]" % (text, quote(label))


def digraph(name: str, rankdir: str, statements) -> str:
    """A DOT digraph holding the given statements, one per line."""
    body = "".join("  %s;\n" % s for s in statements)
    return "digraph %s {\n  rankdir=%s;\n%s}\n" % (name, rankdir, body)
