"""Object identifiers.

An :class:`OID` is an immutable sequence of non-negative integers with the
ordering SNMP uses for GETNEXT traversal (lexicographic on the component
tuple).
"""


class OID:
    """An SNMP object identifier.

    Construct from a dotted string, another OID, or an iterable of ints::

        OID("1.3.6.1.2.1.1.3.0")
        OID((1, 3, 6, 1))
        OID("1.3.6").child(1, 2)
    """

    __slots__ = ("parts",)

    def __init__(self, value):
        if isinstance(value, OID):
            # Already validated: share the immutable parts tuple.
            object.__setattr__(self, "parts", value.parts)
            return
        if isinstance(value, str):
            if not value:
                raise ValueError("empty OID string")
            try:
                parts = tuple(int(piece) for piece in value.split("."))
            except ValueError:
                raise ValueError("malformed OID string %r" % value) from None
        else:
            parts = tuple(int(piece) for piece in value)
        if not parts:
            raise ValueError("OID must have at least one component")
        if any(piece < 0 for piece in parts):
            raise ValueError("OID components must be non-negative: %r" % (parts,))
        object.__setattr__(self, "parts", parts)

    @classmethod
    def _from_valid(cls, parts):
        """An OID over ``parts`` already known to be valid (no checks)."""
        oid = object.__new__(cls)
        object.__setattr__(oid, "parts", parts)
        return oid

    def __setattr__(self, name, value):
        raise AttributeError("OID is immutable")

    def child(self, *suffix):
        """This OID extended with extra components."""
        suffix = tuple(int(piece) for piece in suffix)
        parts = self.parts + suffix
        if any(piece < 0 for piece in suffix):
            raise ValueError("OID components must be non-negative: %r" % (parts,))
        return OID._from_valid(parts)

    def is_prefix_of(self, other):
        """True when ``other`` lies in this OID's subtree (or equals it)."""
        parts = self.parts
        return as_oid(other).parts[: len(parts)] == parts

    @property
    def parent(self):
        if len(self.parts) == 1:
            raise ValueError("root OID has no parent")
        return OID._from_valid(self.parts[:-1])

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, index):
        return self.parts[index]

    def __eq__(self, other):
        return isinstance(other, OID) and other.parts == self.parts

    # Ordering compares parts tuples; strings and tuples on the other side
    # are coerced (and validated) first, OIDs are used as they are.

    def __lt__(self, other):
        return self.parts < as_oid(other).parts

    def __le__(self, other):
        return self.parts <= as_oid(other).parts

    def __gt__(self, other):
        return self.parts > as_oid(other).parts

    def __ge__(self, other):
        return self.parts >= as_oid(other).parts

    def __hash__(self):
        return hash(self.parts)

    def __str__(self):
        return ".".join(str(piece) for piece in self.parts)

    def __repr__(self):
        return "OID(%r)" % str(self)


def as_oid(value):
    """``value`` itself when it is already an :class:`OID`, else ``OID(value)``."""
    return value if isinstance(value, OID) else OID(value)

