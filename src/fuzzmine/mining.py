"""Windowed association extraction, fuzzification, and rule metrics.

The pipeline turns three role-bound streams into linguistic rules of the
form (trigger1, trigger2) => (elapsed-time, consequence) in one lazy pass:

1. generate every event triple that satisfies the two time windows,
2. classify each triple's values into linguistic labels, giving one
   weighted instance per label combination (weight = product of the four
   membership degrees),
3. add each instance straight into the rule totals and compute each
   rule's support (weight over the combined weight of all rules) and
   confidence (weight over the combined weight of rules sharing its
   trigger pair).

Nothing per triple is materialized: memory grows with the rule count.
Everything here is pure and deterministic; rule sets are frozen dataclasses.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import product
from math import isfinite

from .fuzzy import Vocabulary, classify


@dataclass(frozen=True)
class WindowConfig:
    """Maximum allowed spacings between the events of one association.

    ``trigger_window`` bounds the time from the trigger-1 event to the
    trigger-2 event; ``consequence_window`` bounds the time from the
    trigger-2 event to the consequence event. Both windows are closed:
    an event landing exactly on the boundary is included.
    """

    trigger_window: float
    consequence_window: float

    def __post_init__(self):
        for name in ("trigger_window", "consequence_window"):
            value = getattr(self, name)
            if not (isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class FuzzyRule:
    """An aggregated linguistic rule with its accumulated metrics."""

    l1: str
    l2: str
    l_dt: str
    l3: str
    weight: float
    support: float
    confidence: float

    @property
    def labels(self):
        return (self.l1, self.l2, self.l_dt, self.l3)


@dataclass(frozen=True)
class RuleSet:
    """Aggregated rules plus the weight totals their metrics divide by.

    ``total_weight`` is the combined weight of all aggregated instances
    and ``trigger_weights`` maps each (l1, l2) pair to the combined
    weight of its rules. A thresholded rule set (see
    :func:`apply_thresholds`) keeps the pre-pruning totals, so surviving
    rules retain the metrics they were filtered on.
    """

    rules: tuple
    total_weight: float
    trigger_weights: dict

    def __iter__(self):
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)


@dataclass(frozen=True)
class MiningConfig:
    """Everything one mining run needs besides the streams themselves."""

    windows: WindowConfig
    vocab_t1: Vocabulary
    vocab_t2: Vocabulary
    vocab_dt: Vocabulary
    vocab_c: Vocabulary
    min_support: float = 0.0
    min_confidence: float = 0.0

    def __post_init__(self):
        for name in ("min_support", "min_confidence"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


def extract_numerical(bundle, windows):
    """Generate every event triple allowed by the windows.

    A triple (e1, e2, e3) qualifies when e2 falls within the trigger
    window after e1 (e1.t <= e2.t <= e1.t + trigger_window) and e3 falls
    within the consequence window after e2. Enumeration is exhaustive:
    one event may participate in any number of associations, and one
    trigger pair may yield several. Triples of :class:`Event` objects are
    yielded lazily, ordered by (t1, t2, t3).
    """
    t2_events = bundle.trigger2.events
    t3_events = bundle.consequence.events
    t2_times = [e.timestamp for e in t2_events]
    t3_times = [e.timestamp for e in t3_events]
    for e1 in bundle.trigger1.events:
        lo2 = bisect_left(t2_times, e1.timestamp)
        hi2 = bisect_right(t2_times, e1.timestamp + windows.trigger_window)
        for e2 in t2_events[lo2:hi2]:
            lo3 = bisect_left(t3_times, e2.timestamp)
            hi3 = bisect_right(t3_times, e2.timestamp + windows.consequence_window)
            for e3 in t3_events[lo3:hi3]:
                yield e1, e2, e3


def aggregate(instances):
    """Accumulate weighted instances into a rule set with metrics.

    ``instances`` is any iterable of (l1, l2, l_dt, l3, weight) tuples.
    Weights of identical label tuples add up, in input order; support
    and confidence are populated from the resulting totals. Zero-weight
    instances (the degree product can underflow) are skipped, so every
    weight a metric divides by is positive and an all-zero input yields
    an empty set.
    Rules are ordered by descending weight, then lexicographically by
    label tuple, and the trigger pairs are distinct keys in their
    stream-bound order: (Small, Medium) and (Medium, Small) are
    different triggers.
    """
    weights = {}
    trigger_weights = {}
    total_weight = 0.0
    for l1, l2, l_dt, l3, weight in instances:
        if weight == 0.0:
            continue
        key = (l1, l2, l_dt, l3)
        pair = (l1, l2)
        weights[key] = weights.get(key, 0.0) + weight
        trigger_weights[pair] = trigger_weights.get(pair, 0.0) + weight
        total_weight += weight

    ordered = sorted(weights, key=lambda key: (-weights[key], key))
    rules = tuple(
        FuzzyRule(*key, weight=weights[key],
                  support=weights[key] / total_weight,
                  confidence=weights[key] / trigger_weights[key[:2]])
        for key in ordered
    )
    return RuleSet(rules=rules, total_weight=total_weight,
                   trigger_weights=trigger_weights)


def apply_thresholds(ruleset, min_support, min_confidence):
    """Keep only rules meeting both thresholds.

    Metrics are not recomputed: the surviving rules keep the support and
    confidence they had before pruning, and the returned set carries the
    pre-pruning weight totals.
    """
    kept = tuple(
        rule for rule in ruleset.rules
        if rule.support >= min_support and rule.confidence >= min_confidence
    )
    return RuleSet(rules=kept, total_weight=ruleset.total_weight,
                   trigger_weights=dict(ruleset.trigger_weights))


def mine(bundle, cfg):
    """Run the full pipeline: extract, fuzzify, aggregate, threshold.

    Each triple yields one instance per combination of its four
    classifications, weighing the product of their degrees taken left to
    right, in (t1, t2, t3) order, then vocabulary label order. Zero
    factors never occur because classification omits zero-degree labels;
    a dimension that classifies to nothing leaves the triple weightless.
    A product can still underflow to 0.0; :func:`aggregate` skips those.
    """
    instances = (
        (l1, l2, l_dt, l3, m1 * m2 * m_dt * m3)
        for e1, e2, e3 in extract_numerical(bundle, cfg.windows)
        for (l1, m1), (l2, m2), (l_dt, m_dt), (l3, m3) in product(
            classify(cfg.vocab_t1, e1.value),
            classify(cfg.vocab_t2, e2.value),
            classify(cfg.vocab_dt, e3.timestamp - e2.timestamp),
            classify(cfg.vocab_c, e3.value))
    )
    ruleset = aggregate(instances)
    return apply_thresholds(ruleset, cfg.min_support, cfg.min_confidence)
