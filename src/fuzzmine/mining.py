"""Windowed association mining: its config, rules, metrics and thresholds.

Three role-bound streams become rules (trigger1, trigger2) =>
(elapsed-time, consequence). Each combination of the labels of an event
triple the two windows allow is one instance, weighing the product of
its four membership degrees. A rule's support is its weight over that of
all rules, its confidence its weight over that of the rules sharing its
trigger pair. :func:`mine` does it all in one fused, deterministic pass.
Its windows are found by indices into the streams' time-sorted columns
that only move forward, so each timestamp is passed over once per index.
A trigger value is classified once; a consequence's value and its
elapsed time once for each trigger-2 event that reaches it. Beyond the
streams, the pass holds only what its trigger window reaches and one row
of totals per trigger label pair, so its memory does not grow with their
length. Each rule is made once, from its row; the heaviest come first.
"""

from collections import defaultdict, namedtuple
from itertools import product
from operator import itemgetter
from sys import float_info

from .fuzzy import Vocabulary, classify


class FuzzyRule(namedtuple("FuzzyRule", "l1 l2 l_dt l3 weight support confidence")):
    """An aggregated linguistic rule with its accumulated metrics."""

    __slots__ = ()

    @property
    def labels(self):
        return self[:4]


class RuleSet(namedtuple("RuleSet", "rules total_weight trigger_weights")):
    """Aggregated rules plus the weight totals their metrics divide by.

    ``total_weight`` is the combined weight of all aggregated instances
    and ``trigger_weights`` maps each (l1, l2) pair to the combined
    weight of its rules. :func:`mine` keeps only the rules meeting its
    config's thresholds but the totals of all, so the kept rules retain
    the metrics they were filtered on.
    """

    __slots__ = ()


class MiningConfig(namedtuple("MiningConfig", "trigger_window consequence_window vocab_t1 "
                              "vocab_t2 vocab_dt vocab_c min_support min_confidence",
                              defaults=(0.0, 0.0))):
    """Everything one mining run needs besides the streams themselves.

    The closed windows bound the time from a trigger-1 to a trigger-2
    event and from that to a consequence event. The thresholds default to
    0. A window that is not a positive finite number, or a threshold
    outside [0, 1], raises ValueError starting with the field's name.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):   # every range is False for NaN
            if name.endswith("_window") and not 0 < value <= float_info.max:   # and ints past it
                raise ValueError(f"{name} must be a positive finite number")
            if name.startswith("min_") and not 0 <= value <= 1:
                raise ValueError(f"{name} must be a number in [0, 1]")
        return self


def mine(bundle, cfg):
    """Mine a bundle's rules in one fused pass, keeping those that meet
    ``cfg.min_support`` and ``cfg.min_confidence``.

    A window triple has ``t1 <= t2 <= t1 + trigger_window`` and
    ``t2 <= t3 <= t2 + consequence_window``, each sum a float addition.
    It yields one instance per combination of its four readings' labels,
    weighing ``((m1 * m2) * m_dt) * m3``. A trigger value is classified
    once; a consequence's value and its Δt once for each trigger-2 event
    that reaches it, into that event's combos, which are dropped when
    the trigger-1 scan has passed it. Instances are added one at a time,
    in (t1, t2, t3) then label order, into their rule's, their trigger
    pair's and the grand total, so every sum is bit-reproducible. A
    product that underflows to 0.0 adds nothing. Each rule is then made
    once, as a :class:`FuzzyRule` straight from its pair's row, and the
    list is sorted by labels, then stably by descending weight.

    It trusts the streams' time order, which the EventStream constructor
    makes: a column changed in place afterwards can give wrong rules with
    no error.

    A vocabulary of ``cfg`` with no error finding from
    :func:`~fuzzmine.fuzzy.validate_vocabulary` mines; ``load_config``
    returns no other kind, and one built in code with one may raise.
    """
    # Intervals as plain tuples, which classify unpacks faster than named tuples.
    vocab1, vocab2, vocab_dt, vocab3 = (
        Vocabulary(vocab.name, map(tuple, vocab.intervals))
        for vocab in (cfg.vocab_t1, cfg.vocab_t2, cfg.vocab_dt, cfg.vocab_c))
    # The rule totals of an (l1, l2) pair sit in a flat row indexed like
    # tails, with the pair's own total in the last slot.
    tails = list(product(dict.fromkeys(cfg.vocab_dt.labels),
                         dict.fromkeys(cfg.vocab_c.labels)))
    slots = {tail: k for k, tail in enumerate(tails)}
    width = len(tails)
    rows = defaultdict(lambda: [0.0] * (width + 1))
    total = 0.0
    span12, span23 = cfg.trigger_window, cfg.consequence_window
    times2, values2 = bundle.trigger2.timestamps, bundle.trigger2.values
    times3, values3 = bundle.consequence.timestamps, bundle.consequence.values
    # For the trigger-2 events first, first + 1, ...: None if no labelled
    # consequence is in reach, else the event's degrees and, per such
    # consequence, its (l_dt, l3) combos.
    window, first = [], 0
    # Windows by indices that only move forward, as the timestamps do:
    # [lo, hi) into times2 for t1's window, [lo3, hi3) into times3 for t2's.
    lo = hi = lo3 = hi3 = 0
    n2, n3 = len(times2), len(times3)
    for t1, v1 in zip(bundle.trigger1.timestamps, bundle.trigger1.values):
        end = t1 + span12
        while lo < n2 and times2[lo] < t1:
            lo += 1
        if lo == n2 or times2[lo] > end:
            continue
        while hi < n2 and times2[hi] <= end:
            hi += 1
        del window[:lo - first]
        first = lo
        for j in range(lo + len(window), hi):
            t2, group = times2[j], []
            end3 = t2 + span23
            while lo3 < n3 and times3[lo3] < t2:
                lo3 += 1
            while hi3 < n3 and times3[hi3] <= end3:
                hi3 += 1
            for k in range(lo3, hi3):
                degrees3 = classify(vocab3, values3[k])
                combos = [(slots[l_dt, l3], m_dt, m3)
                          for l_dt, m_dt in classify(vocab_dt, times3[k] - t2)
                          for l3, m3 in degrees3] if degrees3 else None
                if combos:
                    group.append(combos)
            window.append((classify(vocab2, values2[j]), group) if group else None)
        live = [entry for entry in window if entry]
        d1 = classify(vocab1, v1) if live else ()
        for d2, group in live:
            pairs = [(rows[l1, l2], m1 * m2) for l1, m1 in d1 for l2, m2 in d2]
            for combos in group:
                for row, m12 in pairs:
                    pair_total = row[width]
                    for k, m_dt, m3 in combos:
                        weight = m12 * m_dt * m3
                        if weight:
                            row[k] += weight
                            pair_total += weight
                            total += weight
                    row[width] = pair_total

    trigger_weights = {pair: row[width] for pair, row in rows.items() if row[width]}
    rules = [FuzzyRule._make((*pair, *tail, w, w / total, w / row[width]))
             for pair, row in rows.items() for tail, w in zip(tails, row) if w]
    rules.sort()   # by labels, which no two rules share
    rules.sort(key=itemgetter(4), reverse=True)   # by weight, stable: ties stay in label order
    return RuleSet(tuple(rule for rule in rules if rule.support >= cfg.min_support
                         and rule.confidence >= cfg.min_confidence), total, trigger_weights)
