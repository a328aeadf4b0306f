"""The incremental engine against the naive oracle, plus its own counters.

The property draws random rule sets (literals, predicates, shared and
repeated variables, ``bind=``, salience), fact streams and actions that
assert, retract (one fact or a whole type), re-assert duplicates or run
away, and requires both
engines to agree exactly: firings with their bindings (key order
included), cycle counts, the final working memory, and the
non-quiescence error with the firings before it.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.rules.conditions import IN, NE, PRED, Pattern, Var
from repro.rules.engine import InferenceEngine, Rule
from repro.rules.facts import Fact, WorkingMemory

from tests.rules_oracle import NaiveInferenceEngine

TYPES = ("a", "b", "c")
ATTRS = ("x", "y", "z")
VARIABLES = ("u", "v", "w")
NAN = float("nan")
#: Attribute values: ints, an equal float, one shared NaN object and an
#: unhashable list, so the hash index meets every awkward key.
VALUES = (0, 1, 2, 1.0, NAN, [1])
MAX_CYCLES = 40

values = st.sampled_from(VALUES)
fact_specs = st.tuples(
    st.sampled_from(TYPES),
    st.dictionaries(st.sampled_from(ATTRS), values, min_size=1),
)
# Ordering predicates raise TypeError on the list value, which a rule base
# must not meet; the numeric ones are guarded the way rule authors do.
constraints = st.one_of(
    st.sampled_from((0, 1, 2)),
    st.sampled_from((
        IN(0, 1), NE(1), PRED(lambda value: value != 2, "not-2"),
        PRED(lambda value: isinstance(value, (int, float)) and value > 0,
             "positive"),
    )),
    st.sampled_from(VARIABLES).map(Var),
)
patterns = st.builds(
    lambda fact_type, constraint_map, bind: Pattern(
        fact_type, bind=bind, **constraint_map),
    st.sampled_from(TYPES),
    st.dictionaries(st.sampled_from(ATTRS), constraints, max_size=3),
    # binding a name that is also a variable exercises the overwrite
    st.sampled_from((None, None, "f", "u")),
)
operations = st.one_of(
    st.tuples(st.just("assert"), st.sampled_from(TYPES),
              st.sampled_from(VARIABLES + (None,)), values),
    st.tuples(st.just("retract"), st.integers(0, 2)),
    st.tuples(st.just("retract_type"), st.integers(0, 2)),
    st.tuples(st.just("duplicate"), st.integers(0, 2)),
    st.tuples(st.just("runaway"), st.sampled_from(TYPES)),
)
rule_specs = st.tuples(
    st.lists(patterns, min_size=1, max_size=3),
    st.lists(operations, max_size=2),
    st.integers(0, 2),
)


def _action(program):
    """A deterministic action: same bindings and history, same effect."""
    def action(context):
        memory = context.engine.memory
        for operation in program:
            kind = operation[0]
            if kind == "assert":
                _, fact_type, variable, fallback = operation
                # a bound fact (bind=) may become an attribute value
                value = context.get(variable, fallback) if variable else fallback
                context.assert_fact(fact_type, x=value, y=fallback)
            elif kind == "runaway":
                context.assert_fact(operation[1], x=len(context.engine.fired))
            else:
                fact = context.facts[operation[1] % len(context.facts)]
                if kind == "retract":
                    context.retract(fact)
                elif kind == "retract_type":
                    memory.retract_type(fact.type)
                else:
                    memory.assert_new(fact.type, **fact.attrs)
    return action


def _build_rules(specs):
    return [
        Rule("r%d" % index, pattern_list, _action(program), salience=salience)
        for index, (pattern_list, program, salience) in enumerate(specs)
    ]


class _Run:
    """One engine driven through the scenario, with its observations.

    Facts are observed as (ordinal, content): both runs create their facts
    in the same order, so the ordinal (id relative to the run's first) tells
    which fact an engine used, not only what it said.
    """

    def __init__(self, engine_class, initial, between, retract_between,
                 rules, late_rule):
        self.first_id = Fact("run-start").id
        self.memory = WorkingMemory()
        self.log = []
        for fact_type, attrs in initial:
            self.memory.assert_new(fact_type, **attrs)
        self.engine = engine_class(self.memory, rules, max_cycles=MAX_CYCLES)
        self._run()
        live = self.memory.facts()
        for index in retract_between:
            if live:
                self.memory.retract(live[index % len(live)])
        for fact_type, attrs in between:
            self.memory.assert_new(fact_type, **attrs)
        self._run()
        if late_rule is not None:
            self.engine.add_rule(late_rule)
            self._run()

    def _run(self):
        try:
            outcome = ("fired", self.engine.run())
        except RuntimeError as error:
            outcome = ("error", str(error))
        self.log.append((
            outcome,
            self.engine.cycles_run,
            [(name, [(key, self._value(value))
                     for key, value in bindings.items()])
             for name, bindings in self.engine.fired],
            [self._fact(fact) for fact in self.memory.facts()],
        ))

    def _fact(self, fact):
        return (fact.id - self.first_id, fact.type, tuple(sorted(
            (name, self._value(value)) for name, value in fact.attrs.items())))

    def _value(self, value):
        if isinstance(value, Fact):
            return self._fact(value)
        if isinstance(value, float) and math.isnan(value):
            return "nan"
        return repr(value)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(fact_specs, max_size=8),
    st.lists(fact_specs, max_size=4),
    st.lists(st.integers(0, 7), max_size=2),
    st.lists(rule_specs, min_size=1, max_size=4),
    st.booleans(),
)
def test_incremental_engine_matches_naive_oracle(
        initial, between, retract_between, specs, add_late):
    rules = _build_rules(specs)
    late_rule = rules.pop() if add_late and len(rules) > 1 else None
    naive = _Run(NaiveInferenceEngine, initial, between, retract_between,
                 rules, late_rule)
    incremental = _Run(InferenceEngine, initial, between, retract_between,
                       rules, late_rule)
    assert incremental.log == naive.log


def test_runaway_rule_trips_max_cycles_after_identical_firings():
    def runaway(context):
        context.assert_fact("seed", n=len(context.engine.fired))

    outcomes = []
    for engine_class in (NaiveInferenceEngine, InferenceEngine):
        memory = WorkingMemory()
        memory.assert_new("seed", n=-1)
        engine = engine_class(
            memory, [Rule("runaway", [Pattern("seed", n=Var("n"))], runaway)],
            max_cycles=12)
        with pytest.raises(RuntimeError, match="within 12 cycles"):
            engine.run()
        outcomes.append((engine.cycles_run, engine.fired))
    assert outcomes[0] == outcomes[1]
    assert outcomes[1][0] == 12
    assert [bindings["n"] for _, bindings in outcomes[1][1]] == [-1] + list(range(1, 12))


def test_bind_overwrite_never_becomes_a_join_key():
    """``bind=`` rebinds a name without a check, so a later pattern on that
    name compares against the bound fact, not the earlier value."""
    for engine_class in (NaiveInferenceEngine, InferenceEngine):
        memory = WorkingMemory()
        memory.assert_new("a", x=1)
        bound = memory.assert_new("b", x=2)
        engine = engine_class(memory, [Rule("r", [
            Pattern("a", x=Var("u")),
            Pattern("b", bind="u"),
            Pattern("c", y=Var("u")),
        ], lambda context: None)])
        engine.run()
        memory.assert_new("c", y=bound)  # joined as the new fact in slot 3
        engine.run()
        assert [(name, list(bindings.items()))
                for name, bindings in engine.fired] == [("r", [("u", bound)])]


def test_duplicate_rule_names_rejected_by_constructor():
    rules = [Rule("r", [Pattern("a")], lambda c: None),
             Rule("r", [Pattern("b")], lambda c: None)]
    with pytest.raises(ValueError, match="duplicate rule name 'r'"):
        InferenceEngine(WorkingMemory(), rules)


class TestCounters:
    def test_counters_report_the_work_done(self):
        memory = WorkingMemory()
        for device in ("d1", "d2", "d3"):
            memory.assert_new("a", device=device)
        memory.assert_new("b", device="d2")
        engine = InferenceEngine(memory, [Rule("join", [
            Pattern("a", device=Var("d")),
            Pattern("b", device=Var("d")),
        ], lambda context: context.assert_fact("c", device=context["d"]))])
        assert engine.run() == 1
        assert engine.facts_in == 5      # four loaded, one derived
        assert engine.activations == 1
        # three "a" facts each probe the "b" index once; only d2 has a bucket
        assert engine.join_probes == 3 + 1

    def test_hash_join_probes_only_the_matching_bucket(self):
        memory = WorkingMemory()
        for index in range(50):
            memory.assert_new("a", key=index)
            memory.assert_new("b", key=index)
        engine = InferenceEngine(memory, [Rule("pair", [
            Pattern("a", key=Var("k")),
            Pattern("b", key=Var("k")),
        ], lambda context: None)])
        assert engine.run() == 50
        assert engine.join_probes == 50 + 50    # not 50 + 50 * 50

    def test_dropped_engine_stops_observing_memory(self):
        memory = WorkingMemory()
        engine = InferenceEngine(memory, [
            Rule("r", [Pattern("a")], lambda c: None)])
        engine.run()
        del engine
        memory.assert_new("a", x=1)
        assert memory._observers == []
