"""Windowed association mining: its config, rules, metrics and thresholds.

Three role-bound streams become rules (trigger1, trigger2) =>
(elapsed-time, consequence). Each combination of the labels of an event
triple the two windows allow is one instance, weighing the product of
its four membership degrees. A rule's support is its weight over that of
all rules, its confidence its weight over that of the rules sharing its
trigger pair. :func:`mine` does it all in one fused, deterministic pass.
Its trigger window is a queue in time order, which it and the
consequence windows fill by indices into the streams' sorted columns
that only move forward, so each timestamp is passed over once per index.
A trigger value is classified once; a consequence's value and its
elapsed time once for each trigger-2 event that reaches it. Beyond the
streams, the pass holds only what its trigger window reaches and one row
of totals per trigger label pair, so its memory does not grow with their
length. Each rule meeting the thresholds is made once, heaviest first.
"""

from collections import defaultdict, deque, namedtuple
from itertools import product
from math import isfinite, nan
from operator import itemgetter
from sys import float_info

from .fuzzy import Vocabulary, classify
from .streams import _floats, in_order


class FuzzyRule(namedtuple("FuzzyRule", "l1 l2 l_dt l3 weight support confidence")):
    """An aggregated linguistic rule with its accumulated metrics;
    ``rule[:4]`` is its four labels."""

    __slots__ = ()


class RuleSet(namedtuple("RuleSet", "rules total_weight")):
    """Aggregated rules plus the combined weight of all aggregated instances.
    :func:`mine` makes only the rules meeting its config's thresholds but
    adds up the weights of all, so each rule's metrics are those it was tested on."""

    __slots__ = ()


class MiningConfig(namedtuple("MiningConfig", "trigger_window consequence_window vocab_t1 "
                              "vocab_t2 vocab_dt vocab_c min_support min_confidence",
                              defaults=(0.0, 0.0))):
    """Everything one mining run needs besides the streams themselves.

    The closed windows bound the time from a trigger-1 to a trigger-2
    event and from that to a consequence event. The thresholds default to
    0. Each number becomes the float nearest it. A window that is not a
    positive finite number, or a threshold outside [0, 1], raises
    ValueError starting with the field's name, as does a number past the
    float range or a signalling NaN; one that is not a number TypeError.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        numbers = {}
        for name in self._fields[:2] + self._fields[6:]:   # the windows, the thresholds
            try:
                value = _floats(name, (getattr(self, name),), "value")[0]
            except ValueError:   # past the float range, or a signalling NaN
                value = nan
            if name.endswith("_window") and not 0 < value <= float_info.max:   # False for NaN
                raise ValueError(f"{name} must be a positive finite number")
            if name.startswith("min_") and not 0 <= value <= 1:
                raise ValueError(f"{name} must be a number in [0, 1]")
            numbers[name] = value
        return self._replace(**numbers)


def mine(bundle, cfg):
    """Mine a bundle's rules in one fused pass, making only those that meet
    ``cfg.min_support`` and ``cfg.min_confidence``.

    A window triple has ``t1 <= t2 <= t1 + trigger_window`` and
    ``t2 <= t3 <= t2 + consequence_window``, each sum a float addition.
    It yields one instance per combination of its four readings' labels,
    weighing ``((m1 * m2) * m_dt) * m3``; a consequence's labels are queued
    with its trigger-2 event until the trigger-1 scan has passed it.
    Instances are added one at a time, in (t1, t2, t3) then label order,
    into their rule's, their trigger pair's and the grand total, so every
    sum is bit-reproducible; one that underflows to 0.0 changes no sum.
    Only a rule meeting both thresholds is then made, as a :class:`FuzzyRule`
    straight from its pair's row, so they bound memory too; the list is
    sorted by labels, then stably by descending weight.

    A stream whose timestamps are out of order or out of [0, float max],
    or with a value that is not finite, as a column changed in place can
    leave them, raises ValueError.

    A vocabulary of ``cfg`` with no error finding from
    :func:`~fuzzmine.fuzzy.validate_vocabulary` mines; ``load_config``
    returns no other kind, and one built in code with one may raise.
    """
    for stream in bundle:
        if not in_order(stream.timestamps):
            raise ValueError(f"stream {stream.name!r} has timestamps out of order or range")
        if not all(map(isfinite, stream.values)):
            raise ValueError(f"stream {stream.name!r} has a value that is not finite")
    # Intervals as plain tuples, which classify unpacks faster than named tuples.
    vocab1, vocab2, vocab_dt, vocab3 = (
        Vocabulary._make((vocab.name, tuple(map(tuple, vocab.intervals))))
        for vocab in (cfg.vocab_t1, cfg.vocab_t2, cfg.vocab_dt, cfg.vocab_c))
    # The rule totals of an (l1, l2) pair sit in a flat row indexed like
    # tails, with the pair's own total in the last slot.
    tails = list(product(cfg.vocab_dt.labels, cfg.vocab_c.labels))
    slots = {tail: k for k, tail in enumerate(tails)}
    width = len(tails)
    rows = defaultdict(lambda: [0.0] * (width + 1))
    total = 0.0
    span12, span23 = cfg.trigger_window, cfg.consequence_window
    times2, values2 = bundle.trigger2.timestamps, bundle.trigger2.values
    times3, values3 = bundle.consequence.timestamps, bundle.consequence.values
    # The trigger-2 events in t1's window that reach a labelled consequence, as
    # (t2, degrees, one list of (l_dt, l3) combos per such consequence). Indices
    # only move forward: hi into times2, [lo3, hi3) into times3 for t2's window.
    live = deque()
    hi = lo3 = hi3 = 0
    n2, n3 = len(times2), len(times3)
    for t1, v1 in zip(bundle.trigger1.timestamps, bundle.trigger1.values):
        end = t1 + span12
        while live and live[0][0] < t1:
            live.popleft()
        while hi < n2 and times2[hi] < t1:   # in no later window either
            hi += 1
        while hi < n2 and times2[hi] <= end:
            t2, group = times2[hi], []
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
            if group:
                live.append((t2, classify(vocab2, values2[hi]), group))
            hi += 1
        d1 = classify(vocab1, v1) if live else ()
        for _, d2, group in live:
            pairs = [(rows[l1, l2], m1 * m2) for l1, m1 in d1 for l2, m2 in d2]
            for combos in group:
                for row, m12 in pairs:
                    pair_total = row[width]
                    for k, m_dt, m3 in combos:
                        weight = m12 * m_dt * m3
                        row[k] += weight
                        pair_total += weight
                        total += weight
                    row[width] = pair_total

    rules = [FuzzyRule._make((*pair, *tail, w, w / total, w / row[width]))
             for pair, row in rows.items() for tail, w in zip(tails, row)
             if w and w / total >= cfg.min_support and w / row[width] >= cfg.min_confidence]
    rules.sort()   # by labels, which no two rules share
    rules.sort(key=itemgetter(4), reverse=True)   # by weight, stable: ties stay in label order
    return RuleSet(tuple(rules), total)
