"""Forward-chaining inference with incremental, indexed matching.

Rules fire in a fixed order, and that order is the engine's contract.  At
any moment the *activations* are all full matches of every rule against
working memory: one fact per pattern, no fact in two slots, variable
bindings consistent across the patterns.  An activation is *runnable*
until its exact (rule, fact-tuple) pair has fired (refractoriness).  Each
cycle fires the runnable activation with the lowest key -- salience
(highest first), then rule definition order, then fact recency (newest
first) -- and keeps firing in key order until an action changes working
memory, which ends the cycle.  ``max_cycles`` bounds the number of cycles,
so it counts the firings that change memory.  This is exactly what
rematching every rule after every change would fire, with the same
bindings dicts (same keys, same key order).

The matcher is incremental in the style of Rete (Forgy 1982) and TREAT
(Miranker 1987), rather than a rematch of every rule after every change:

* **Alpha memories.**  Each rule pattern keeps the facts that pass its own
  tests (``pattern.match(fact, {})``): type, literals, predicates and
  repeated variables.
* **Hash joins.**  A pattern is probed through a hash index on the
  attributes whose variables are already bound: by earlier patterns, or,
  when a new fact is joined, by that fact.  Unhashable values sit in a
  bucket that is always scanned.  Every candidate is still confirmed with
  :meth:`Pattern.match`, in pattern order, so NaN, predicates, ``bind=``
  and repeated variables behave as in a nested-loop join.
* **Incremental agenda.**  Working memory reports every assert and
  retract.  At the start of the next cycle the engine joins each new fact
  in every slot it fits, and forgets retracted facts; an activation holding
  one is dropped when it reaches the top of the agenda (a heap on the
  activation key).
"""

import heapq
import itertools

from repro.rules.conditions import Var


class Rule:
    """A production rule.

    Args:
        name: unique rule name within its knowledge base.
        patterns: list of :class:`~repro.rules.conditions.Pattern`; all must
            match (conjunction) with consistent variable bindings.
        action: callable ``action(context)`` run on firing.
        salience: higher fires first within a cycle.
        group: knowledge-area tag ("performance", "traffic", ...); used by
            the grids to give containers different rule subsets.
        level: the paper's analysis level (1 = per-batch, 2 = consolidation
            against history, 3 = cross-device correlation).
    """

    def __init__(self, name, patterns, action, salience=0, group="default", level=1):
        if not patterns:
            raise ValueError("rule %r needs at least one pattern" % name)
        if level not in (1, 2, 3):
            raise ValueError("level must be 1, 2 or 3")
        self.name = name
        self.patterns = list(patterns)
        self.action = action
        self.salience = salience
        self.group = group
        self.level = level

    def __repr__(self):
        return "Rule(%r, group=%s, level=%d, salience=%d)" % (
            self.name, self.group, self.level, self.salience,
        )


class RuleContext:
    """What an action sees when its rule fires."""

    def __init__(self, engine, rule, facts, bindings):
        self.engine = engine
        self.rule = rule
        self.facts = facts
        self.bindings = bindings

    def __getitem__(self, variable_name):
        return self.bindings[variable_name]

    def get(self, variable_name, default=None):
        return self.bindings.get(variable_name, default)

    def assert_fact(self, fact_type, **attrs):
        """Assert a derived fact into working memory."""
        return self.engine.memory.assert_new(fact_type, **attrs)

    def retract(self, fact):
        return self.engine.memory.retract(fact)

    def __repr__(self):
        return "RuleContext(%s)" % self.rule.name


class _Activation:
    __slots__ = ("rule", "rule_index", "facts", "bindings", "key")

    def __init__(self, rule, rule_index, facts, bindings):
        self.rule = rule
        self.rule_index = rule_index
        self.facts = facts
        self.bindings = bindings
        self.key = (rule.name, tuple(fact.id for fact in facts))

    def sort_key(self):
        recency = tuple(-fact.id for fact in self.facts)
        return (-self.rule.salience, self.rule_index, recency)


class _AlphaMemory:
    """The facts that pass one pattern's own tests, hash-indexed on demand.

    An index maps a tuple of attribute names to ``(buckets, unhashable)``:
    ``buckets`` keys facts by their values of those attributes, and
    ``unhashable`` holds the facts whose values cannot be hashed.
    """

    __slots__ = ("facts", "_indexes")

    def __init__(self):
        self.facts = {}        # fact id -> fact
        self._indexes = {}

    def add(self, fact):
        self.facts[fact.id] = fact
        for attrs, index in self._indexes.items():
            _file(index, attrs, fact)

    def remove(self, fact):
        if self.facts.pop(fact.id, None) is None:
            return
        for attrs, (buckets, unhashable) in self._indexes.items():
            key = tuple(fact.attrs[name] for name in attrs)
            try:
                bucket = buckets.get(key)
            except TypeError:
                del unhashable[fact.id]
                continue
            bucket.pop(fact.id, None)
            if not bucket:
                del buckets[key]

    def candidates(self, attrs, values):
        """Facts whose ``attrs`` may equal ``values`` (a superset)."""
        if not attrs:
            return self.facts.values()
        index = self._indexes.get(attrs)
        if index is None:
            index = self._indexes[attrs] = ({}, {})
            for fact in self.facts.values():
                _file(index, attrs, fact)
        buckets, unhashable = index
        try:
            bucket = buckets.get(values)
        except TypeError:
            return self.facts.values()
        if bucket is None:
            return unhashable.values()
        if unhashable:
            return list(bucket.values()) + list(unhashable.values())
        return bucket.values()


def _file(index, attrs, fact):
    buckets, unhashable = index
    key = tuple(fact.attrs[name] for name in attrs)
    try:
        buckets.setdefault(key, {})[fact.id] = fact
    except TypeError:
        unhashable[fact.id] = fact


class _CompiledRule:
    """A rule's alpha memories and its join plans.

    ``plans[seed]`` lists, per pattern, the ``(attrs, sources)`` to probe
    that pattern's alpha memory with: ``sources`` names, per attribute, the
    variable that must equal it and whether its value comes from the seed
    fact's own bindings (``True``) or from the earlier patterns (``False``).
    ``seed`` is ``None`` for a full join, else the slot the new fact fills.
    """

    __slots__ = ("rule", "index", "alphas", "plans")

    def __init__(self, rule, index):
        self.rule = rule
        self.index = index
        patterns = rule.patterns
        self.alphas = [_AlphaMemory() for _ in patterns]
        variables = [
            [(attr, constraint.name)
             for attr, constraint in pattern.constraints.items()
             if isinstance(constraint, Var)]
            for pattern in patterns
        ]
        # A bind= name is overwritten, not checked, so it never constrains
        # a fact from the seed's side.
        rebound = {pattern.bind for pattern in patterns}
        bound_before = []
        bound = set()
        for pattern, pairs in zip(patterns, variables):
            bound_before.append(frozenset(bound))
            bound.update(name for _, name in pairs)
            if pattern.bind is not None:
                bound.add(pattern.bind)
        self.plans = {}
        for seed in [None] + list(range(len(patterns))):
            seeded = set() if seed is None else {
                name for _, name in variables[seed]} - rebound
            plan = []
            for slot, pairs in enumerate(variables):
                keys = [(attr, name, False) for attr, name in pairs
                        if name in bound_before[slot]]
                if seed is not None and slot < seed:
                    keys += [(attr, name, True) for attr, name in pairs
                             if name in seeded
                             and name not in bound_before[slot]]
                plan.append((tuple(attr for attr, _, _ in keys),
                             tuple((name, from_seed)
                                   for _, name, from_seed in keys)))
            self.plans[seed] = plan


class InferenceEngine:
    """Runs a rule set to quiescence over a working memory.

    The engine subscribes to ``memory`` (weakly: dropping the engine
    unsubscribes it) and keeps plain counters of its work: ``facts_in``
    (facts in memory when it was built plus every later assert),
    ``activations`` (full matches found) and ``join_probes`` (candidate
    facts examined while joining).
    """

    def __init__(self, memory, rules=(), max_cycles=1000):
        self.memory = memory
        self.rules = []
        for rule in rules:
            self.add_rule(rule)
        self.max_cycles = max_cycles
        self.fired = []          # list of (rule_name, bindings) in fire order
        self._fired_keys = set()
        self.cycles_run = 0
        self.facts_in = len(memory)
        self.activations = 0
        self.join_probes = 0
        self._compiled = []
        self._slots_by_type = {}     # fact type -> [(compiled rule, slot)]
        self._live = set()           # ids of facts held in alpha memories
        self._pending = []           # (fact, asserted) not yet joined
        self._agenda = []            # heap of (sort key, seq, activation)
        self._sequence = itertools.count()
        memory.subscribe(self)

    def add_rule(self, rule):
        if any(existing.name == rule.name for existing in self.rules):
            raise ValueError("duplicate rule name %r" % rule.name)
        self.rules.append(rule)

    @property
    def fire_count(self):
        return len(self.fired)

    def memory_changed(self, fact, asserted):
        """Working-memory callback: the next cycle joins the change."""
        if asserted:
            self.facts_in += 1
        self._pending.append((fact, asserted))

    def run(self):
        """Fire rules until quiescent; returns number of firings."""
        fired_before = len(self.fired)
        for _ in range(self.max_cycles):
            self.cycles_run += 1
            self._sync()
            activation = self._pop_runnable()
            if activation is None:
                return len(self.fired) - fired_before
            version_before = self.memory.version
            while activation is not None:
                self._fired_keys.add(activation.key)
                self.fired.append((activation.rule.name, activation.bindings))
                context = RuleContext(
                    self, activation.rule, activation.facts, activation.bindings
                )
                activation.rule.action(context)
                if self.memory.version != version_before:
                    break  # memory changed: the next cycle joins the change
                activation = self._pop_runnable()
        raise RuntimeError(
            "inference did not quiesce within %d cycles" % self.max_cycles
        )

    def _sync(self):
        """Join pending memory changes, then compile newly added rules."""
        pending, self._pending = self._pending, []
        for fact, asserted in pending:
            if asserted:
                self._join_new(fact)
            else:
                self._live.discard(fact.id)
                for compiled, slot in self._slots_by_type.get(fact.type, ()):
                    compiled.alphas[slot].remove(fact)
        for index in range(len(self._compiled), len(self.rules)):
            compiled = _CompiledRule(self.rules[index], index)
            self._compiled.append(compiled)
            for slot, pattern in enumerate(compiled.rule.patterns):
                self._slots_by_type.setdefault(pattern.fact_type, []).append(
                    (compiled, slot))
                alpha = compiled.alphas[slot]
                for fact in self.memory.facts(pattern.fact_type):
                    if pattern.match(fact, {}) is not None:
                        alpha.add(fact)
                        self._live.add(fact.id)
            self._push(compiled, self._join(compiled, None, None, None))

    def _join_new(self, fact):
        seeded = []
        for compiled, slot in self._slots_by_type.get(fact.type, ()):
            seed_bindings = compiled.rule.patterns[slot].match(fact, {})
            if seed_bindings is not None:
                compiled.alphas[slot].add(fact)
                seeded.append((compiled, slot, seed_bindings))
        if seeded:
            self._live.add(fact.id)
        for compiled, slot, seed_bindings in seeded:
            self._push(compiled, self._join(compiled, slot, fact, seed_bindings))

    def _join(self, compiled, seed_slot, seed, seed_bindings):
        """Every full match of a rule, with ``seed`` in ``seed_slot``.

        Patterns are joined in order, so each bindings dict is built by the
        same :meth:`Pattern.match` chain a nested-loop join would run.
        """
        partial = [((), {})]
        probes = 0
        plan = compiled.plans[seed_slot]
        for slot, pattern in enumerate(compiled.rule.patterns):
            attrs, sources = plan[slot]
            alpha = compiled.alphas[slot]
            extended = []
            for facts, bindings in partial:
                if slot == seed_slot:
                    candidates = (seed,)
                else:
                    candidates = alpha.candidates(attrs, tuple(
                        seed_bindings[name] if from_seed else bindings[name]
                        for name, from_seed in sources
                    ))
                for fact in candidates:
                    probes += 1
                    if fact in facts:
                        continue  # a fact may satisfy only one pattern slot
                    new_bindings = pattern.match(fact, bindings)
                    if new_bindings is not None:
                        extended.append((facts + (fact,), new_bindings))
            partial = extended
            if not partial:
                break
        self.join_probes += probes
        return partial

    def _push(self, compiled, matches):
        agenda = self._agenda
        for facts, bindings in matches:
            activation = _Activation(compiled.rule, compiled.index, facts, bindings)
            heapq.heappush(
                agenda, (activation.sort_key(), next(self._sequence), activation))
        self.activations += len(matches)

    def _pop_runnable(self):
        """The lowest-keyed activation still runnable, or ``None``."""
        agenda = self._agenda
        live = self._live
        while agenda:
            activation = heapq.heappop(agenda)[2]
            if activation.key in self._fired_keys:
                continue
            if all(fact.id in live for fact in activation.facts):
                return activation
        return None

    def __repr__(self):
        return "InferenceEngine(rules=%d, fired=%d)" % (len(self.rules), len(self.fired))
