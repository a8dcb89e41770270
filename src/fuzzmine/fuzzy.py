"""Trapezoidal fuzzy intervals and vocabularies of linguistic labels.

A fuzzy interval (a, b, c, d) maps a continuous value to a membership
degree in [0, 1]: a ramp up on [a, b], a plateau of 1 on [b, c], and a
ramp down on [c, d]. Setting a == b or c == d collapses the corresponding
ramp, which yields shoulder sets whose plateau extends to the edge of the
support. A vocabulary is an ordered collection of labelled intervals over
one dimension (e.g. stream volume, or elapsed time).

All types are immutable and all functions are pure.
"""

from collections import namedtuple
from functools import reduce
from math import isfinite
from operator import add

from .validation import ERROR, INFO, Finding, has_errors

# Degrees are compared against 1 with this slack when probing whether a
# vocabulary is a Ruspini partition; ramp arithmetic is exact to well
# below this for realistic boundaries.
_PARTITION_TOL = 1e-9


class FuzzyInterval(namedtuple("FuzzyInterval", "label a b c d")):
    """One trapezoid (a, b, c, d) defining a linguistic label.

    Corner values are expressed in the units of the dimension the
    interval classifies. Valid intervals satisfy a <= b <= c <= d;
    construction does not enforce this so that validators can report
    on malformed definitions (see :func:`validate_vocabulary`).
    """

    __slots__ = ()


class Vocabulary(namedtuple("Vocabulary", "name intervals")):
    """A named, ordered collection of labelled intervals over one dimension."""

    __slots__ = ()

    def __new__(cls, name, intervals=()):
        return super().__new__(cls, name, tuple(intervals))

    @property
    def labels(self):
        return tuple(iv.label for iv in self.intervals)


def membership(interval, x):
    """Membership degree of ``x`` in ``interval``, in [0, 1].

    The plateau test runs before the ramp tests, so degenerate ramps
    (a == b or c == d) never divide by zero: the plateau rule governs
    those boundary points and shoulder sets behave as expected. A NaN
    lies outside every support and has degree 0.
    """
    if not interval.a <= x <= interval.d:
        return 0.0
    if interval.b <= x <= interval.c:
        return 1.0
    if x < interval.b:
        return (x - interval.a) / (interval.b - interval.a)
    return (interval.d - x) / (interval.d - interval.c)


def classify(vocab, x):
    """Assign linguistic labels to ``x`` with their membership degrees.

    Returns a tuple of ``(label, degree)`` pairs for exactly those
    intervals with positive membership, in vocabulary order. An empty
    tuple is a legal outcome: ``x`` lies outside every interval.
    """
    return classify_intervals(vocab.intervals, x)


def classify_intervals(intervals, x):
    """:func:`classify` over ``(label, a, b, c, d)`` tuples, with
    :func:`membership` inline for :func:`~fuzzmine.mining.mine`."""
    pairs = []
    for label, a, b, c, d in intervals:
        if not a <= x <= d:   # also True for NaN
            continue
        degree = 1.0 if b <= x <= c else (x - a) / (b - a) if x < b else (d - x) / (d - c)
        if degree > 0.0:
            pairs.append((label, degree))
    return tuple(pairs)


def validate_vocabulary(vocab):
    """Check a vocabulary definition and report findings.

    Error findings flag invariant breaches (corner ordering, non-finite
    corners, a ramp wider than the float range, empty or duplicate
    labels, no intervals at all). When the definition is sound,
    informational findings describe coverage gaps and whether the
    vocabulary forms a Ruspini partition (membership degrees summing to
    1 across the covered range).
    """
    findings = []
    if not vocab.name:
        findings.append(Finding(ERROR, "vocabulary-name", "vocabulary name is empty"))
    if not vocab.intervals:
        findings.append(
            Finding(ERROR, "vocabulary-empty",
                    f"vocabulary {vocab.name!r} has no intervals")
        )
        return findings

    seen = set()
    for i, iv in enumerate(vocab.intervals):
        where = f"{vocab.name}[{i}]"
        if not iv.label:
            findings.append(Finding(ERROR, "interval-label", f"{where}: label is empty"))
        elif iv.label in seen:
            findings.append(
                Finding(ERROR, "duplicate-label",
                        f"{where}: duplicate label {iv.label!r}")
            )
        else:
            seen.add(iv.label)
        corners = (iv.a, iv.b, iv.c, iv.d)
        if not all(isfinite(v) for v in corners):
            findings.append(
                Finding(ERROR, "interval-corners",
                        f"{where} ({iv.label!r}): corners must be finite, got {corners}")
            )
        elif not (iv.a <= iv.b <= iv.c <= iv.d):
            findings.append(
                Finding(ERROR, "interval-corners",
                        f"{where} ({iv.label!r}): requires a <= b <= c <= d, "
                        f"got ({iv.a:g}, {iv.b:g}, {iv.c:g}, {iv.d:g})")
            )
        elif not (isfinite(iv.b - iv.a) and isfinite(iv.d - iv.c)):
            findings.append(Finding(ERROR, "interval-span", f"{where} ({iv.label!r}): "
                                    f"a ramp is wider than the float range, got {corners}"))

    if has_errors(findings):
        return findings

    findings.extend(_coverage_findings(vocab))
    findings.append(_partition_finding(vocab))
    return findings


def _coverage_findings(vocab):
    """Informational findings for ranges no interval supports."""
    spans = sorted((iv.a, iv.d) for iv in vocab.intervals)
    findings = []
    _, reach = spans[0]
    for lo, hi in spans[1:]:
        if lo > reach:
            findings.append(
                Finding(INFO, "coverage-gap",
                        f"{vocab.name}: no interval covers ({reach:g}, {lo:g})")
            )
        reach = max(reach, hi)
    return findings


def _partition_finding(vocab):
    """Decide whether degrees sum to 1 across the covered range.

    The degree sum is piecewise linear with breakpoints only at interval
    corners, so checking every corner plus the midpoints between
    consecutive corners decides the property exactly (up to float slack).
    """
    corners = sorted({v for iv in vocab.intervals for v in (iv.a, iv.b, iv.c, iv.d)})
    probes = list(corners)
    for lo, hi in zip(corners, corners[1:]):
        probes.append(lo / 2 + hi / 2)   # hi - lo may overflow
    lo, hi = corners[0], corners[-1]
    ruspini = all(   # a left fold: sum() compensates on Python 3.12+
        abs(reduce(add, (membership(iv, x) for iv in vocab.intervals), 0.0) - 1.0)
        <= _PARTITION_TOL
        for x in probes
    )
    if ruspini:
        return Finding(INFO, "ruspini",
                       f"{vocab.name}: memberships sum to 1 over [{lo:g}, {hi:g}] "
                       "(Ruspini partition)")
    return Finding(INFO, "not-ruspini",
                   f"{vocab.name}: membership degrees do not sum to 1 everywhere "
                   f"on [{lo:g}, {hi:g}]")
