"""The naive forward-chaining matcher, kept as a test-only oracle.

It rematches every rule against the whole working memory after every
firing that changes memory, with a nested-loop join.  That is the
definition of the fire order the incremental engine in
``repro.rules.engine`` must reproduce exactly: same firings, same bindings
(same key order), same final memory, same ``max_cycles`` behaviour.
"""

# The activation and its sort key are shared with the engine, so the oracle
# pins the order they define rather than a copy of it.
from repro.rules.engine import RuleContext, _Activation


class NaiveInferenceEngine:
    """Same surface as :class:`~repro.rules.engine.InferenceEngine`."""

    def __init__(self, memory, rules=(), max_cycles=1000):
        self.memory = memory
        self.rules = []
        for rule in rules:
            self.add_rule(rule)
        self.max_cycles = max_cycles
        self.fired = []          # list of (rule_name, bindings) in fire order
        self._fired_keys = set()
        self.cycles_run = 0

    def add_rule(self, rule):
        if any(existing.name == rule.name for existing in self.rules):
            raise ValueError("duplicate rule name %r" % rule.name)
        self.rules.append(rule)

    @property
    def fire_count(self):
        return len(self.fired)

    def run(self):
        """Fire rules until quiescent; returns number of firings."""
        fired_before = len(self.fired)
        for _ in range(self.max_cycles):
            self.cycles_run += 1
            activations = self._match_all()
            runnable = [
                activation
                for activation in activations
                if activation.key not in self._fired_keys
            ]
            if not runnable:
                return len(self.fired) - fired_before
            runnable.sort(key=_Activation.sort_key)
            version_before = self.memory.version
            for activation in runnable:
                if activation.key in self._fired_keys:
                    continue
                self._fired_keys.add(activation.key)
                self.fired.append((activation.rule.name, activation.bindings))
                context = RuleContext(
                    self, activation.rule, activation.facts, activation.bindings
                )
                activation.rule.action(context)
                if self.memory.version != version_before:
                    # Memory changed: recompute activations for soundness.
                    break
        raise RuntimeError(
            "inference did not quiesce within %d cycles" % self.max_cycles
        )

    def _match_all(self):
        activations = []
        for rule_index, rule in enumerate(self.rules):
            for facts, bindings in self._match_rule(rule):
                activations.append(_Activation(rule, rule_index, facts, bindings))
        return activations

    def _match_rule(self, rule):
        """Every full join of the rule as (facts_tuple, bindings)."""
        partial = [((), {})]
        for pattern in rule.patterns:
            candidates = self.memory.facts(pattern.fact_type)
            extended = []
            for facts, bindings in partial:
                for fact in candidates:
                    if any(existing is fact for existing in facts):
                        continue  # a fact may satisfy only one pattern slot
                    new_bindings = pattern.match(fact, bindings)
                    if new_bindings is not None:
                        extended.append((facts + (fact,), new_bindings))
            if not extended:
                return []
            partial = extended
        return partial
