"""Production-rule engine and knowledge bases.

The paper's analysis is rule-driven: "Rule-based and inference systems
could be used to analyze this data, extract necessary information and
identify eventual problems", and a selling point of the grid is holding "a
large number of analysis rules".  This package provides:

* :mod:`facts <repro.rules.facts>` -- typed facts and working memory;
* :mod:`conditions <repro.rules.conditions>` -- the pattern/predicate DSL;
* :mod:`engine <repro.rules.engine>` -- forward-chaining inference with
  incremental indexed matching, salience ordering and refractoriness;
* :mod:`rulebase <repro.rules.rulebase>` -- grouped, extensible knowledge
  bases (agents can "learn new rules" by adding to them at runtime);
* :mod:`stdlib <repro.rules.stdlib>` -- the stock network-management rules
  (thresholds, trends, cross-device correlation).
"""

from repro.rules.facts import Fact, WorkingMemory
from repro.rules.conditions import (
    BETWEEN,
    CONTAINS,
    EQ,
    GE,
    GT,
    IN,
    LE,
    LT,
    NE,
    PRED,
    Pattern,
    Var,
)
from repro.rules.engine import InferenceEngine, Rule, RuleContext
from repro.rules.rulebase import KnowledgeBase
from repro.rules import stdlib

__all__ = [
    "BETWEEN",
    "CONTAINS",
    "EQ",
    "Fact",
    "GE",
    "GT",
    "IN",
    "InferenceEngine",
    "KnowledgeBase",
    "LE",
    "LT",
    "NE",
    "PRED",
    "Pattern",
    "Rule",
    "RuleContext",
    "Var",
    "WorkingMemory",
    "stdlib",
]
