"""Typed facts and working memory."""

import itertools
import weakref


class Fact:
    """An immutable typed fact: a fact type plus named attributes.

    Facts compare by type + attributes (not identity), so the engine's
    duplicate suppression works naturally.
    """

    _ids = itertools.count(1)

    __slots__ = ("id", "type", "attrs", "asserted_at")

    def __init__(self, fact_type, **attrs):
        if not fact_type:
            raise ValueError("fact type must be non-empty")
        object.__setattr__(self, "id", next(Fact._ids))
        object.__setattr__(self, "type", fact_type)
        object.__setattr__(self, "attrs", dict(attrs))
        object.__setattr__(self, "asserted_at", None)

    def __setattr__(self, name, value):
        if name == "asserted_at" and self.asserted_at is None:
            object.__setattr__(self, name, value)
            return
        raise AttributeError("Fact is immutable")

    def get(self, name, default=None):
        return self.attrs.get(name, default)

    def __getitem__(self, name):
        return self.attrs[name]

    def __contains__(self, name):
        return name in self.attrs

    def same_content(self, other):
        """Type+attribute equality (ignores id/assertion time)."""
        return (
            isinstance(other, Fact)
            and other.type == self.type
            and other.attrs == self.attrs
        )

    def content_key(self):
        """A hashable key of the fact's content (for dedup sets)."""
        return (self.type, tuple(sorted(
            (name, _freeze(value)) for name, value in self.attrs.items()
        )))

    def __repr__(self):
        inner = ", ".join(
            "%s=%r" % (name, value) for name, value in sorted(self.attrs.items())
        )
        return "Fact(%s: %s)" % (self.type, inner)


def _freeze(value):
    """Recursively convert a value into something hashable."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((key, _freeze(val)) for key, val in value.items()))
    if isinstance(value, set):
        return frozenset(_freeze(item) for item in value)
    return value


class WorkingMemory:
    """The fact store an inference engine runs against.

    Indexed by fact type.  Asserting a fact whose content duplicates a live
    fact is a no-op returning the existing fact (classic production-system
    semantics), which keeps rule firings idempotent across re-runs.
    """

    def __init__(self, clock=None):
        self._by_type = {}
        self._by_key = {}
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._observers = []
        self.assertions = 0
        self.retractions = 0
        self.version = 0

    def subscribe(self, observer):
        """Report every later change to ``observer``.

        ``observer.memory_changed(fact, asserted)`` runs after each fact is
        stored (``asserted=True``) or removed; no-op duplicate asserts and
        retracts of absent facts are not reported.  The observer is held
        by weak reference, so an engine and its memory form no reference
        cycle and are freed as soon as the job drops them.
        """
        self._observers.append(weakref.ref(observer))

    def _notify(self, facts, asserted):
        live = []
        for ref in self._observers:
            observer = ref()
            if observer is not None:
                live.append(ref)
                for fact in facts:
                    observer.memory_changed(fact, asserted)
        self._observers = live

    def __len__(self):
        return sum(len(facts) for facts in self._by_type.values())

    def assert_fact(self, fact):
        """Add a fact; returns the stored fact (existing one on duplicate)."""
        key = fact.content_key()
        existing = self._by_key.get(key)
        if existing is not None:
            return existing
        fact.asserted_at = self._clock()
        self._by_type.setdefault(fact.type, []).append(fact)
        self._by_key[key] = fact
        self.assertions += 1
        self.version += 1
        if self._observers:
            self._notify((fact,), True)
        return fact

    def assert_new(self, fact_type, **attrs):
        return self.assert_fact(Fact(fact_type, **attrs))

    def retract(self, fact):
        """Remove a fact (no-op when absent)."""
        facts = self._by_type.get(fact.type)
        if facts is None:
            return False
        try:
            facts.remove(fact)
        except ValueError:
            return False
        self._by_key.pop(fact.content_key(), None)
        self.retractions += 1
        self.version += 1
        if self._observers:
            self._notify((fact,), False)
        return True

    def retract_type(self, fact_type):
        """Remove every fact of a type; returns how many were removed."""
        facts = self._by_type.pop(fact_type, [])
        for fact in facts:
            self._by_key.pop(fact.content_key(), None)
        self.retractions += len(facts)
        if facts:
            self.version += 1
            if self._observers:
                self._notify(facts, False)
        return len(facts)

    def facts(self, fact_type=None):
        """All facts, or those of one type (stable assertion order)."""
        if fact_type is not None:
            return list(self._by_type.get(fact_type, ()))
        everything = []
        for fact_type_name in sorted(self._by_type):
            everything.extend(self._by_type[fact_type_name])
        return everything

    def first(self, fact_type, **attr_equals):
        """First fact of a type whose attributes equal the given values."""
        for fact in self._by_type.get(fact_type, ()):
            if all(fact.get(name) == value for name, value in attr_equals.items()):
                return fact
        return None

    def count(self, fact_type):
        return len(self._by_type.get(fact_type, ()))

    def types(self):
        return sorted(self._by_type)

    def __repr__(self):
        return "WorkingMemory(facts=%d, types=%d)" % (len(self), len(self._by_type))
