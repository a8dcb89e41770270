"""Trapezoidal fuzzy intervals and vocabularies of linguistic labels.

A fuzzy interval (a, b, c, d) maps a continuous value to a membership
degree in [0, 1]: a ramp up on [a, b], a plateau of 1 on [b, c], and a
ramp down on [c, d]. Setting a == b or c == d collapses the corresponding
ramp, which yields shoulder sets whose plateau extends to the edge of the
support. A vocabulary is an ordered collection of labelled intervals over
one dimension (e.g. stream volume, or elapsed time). :func:`classify`
gives a value's labels with their degrees, and is the one function that
computes the trapezoid.

All types are immutable and all functions are pure.
"""

from collections import namedtuple
from functools import reduce
from math import isfinite
from operator import add

from .streams import _floats
from .validation import ERROR, INFO, Finding

# Degrees are compared against 1 with this slack when probing whether a
# vocabulary is a Ruspini partition; ramp arithmetic is exact to well
# below this for realistic boundaries.
_PARTITION_TOL = 1e-9

# Unicode category Cc, which the stability policy fixes at these 65 code points.
_CONTROL = frozenset(map(chr, (*range(0x20), *range(0x7F, 0xA0))))


class FuzzyInterval(namedtuple("FuzzyInterval", "label a b c d")):
    """One trapezoid (a, b, c, d) defining a linguistic label.

    Corner values are in the units of the dimension the interval
    classifies. The constructor makes each the float nearest it, as
    ``EventStream`` does its readings: one past the float range raises
    ValueError naming the interval, one that is not a number TypeError
    (``_make`` and ``_replace`` skip this). Order and finiteness are left
    to :func:`validate_vocabulary`, which lists every malformed interval.
    """

    __slots__ = ()

    def __new__(cls, label, a, b, c, d):
        return super().__new__(cls, label, *_floats(f"interval {label!r}", (a, b, c, d), "corner"))


class Vocabulary(namedtuple("Vocabulary", "name intervals")):
    """A named, ordered collection of labelled intervals over one dimension,
    each built by :class:`FuzzyInterval` from its five fields, so a plain
    tuple gets checked float corners (``_make`` skips this)."""

    __slots__ = ()

    def __new__(cls, name, intervals=()):
        return super().__new__(cls, name, tuple(FuzzyInterval(*iv) for iv in intervals))

    @property
    def labels(self):
        return tuple(iv.label for iv in self.intervals)


def classify(vocab, x):
    """Assign linguistic labels to ``x`` with their membership degrees.

    Returns a tuple of ``(label, degree)`` pairs for exactly those
    intervals with positive membership, in vocabulary order. An empty
    tuple is a legal outcome: ``x`` lies outside every interval. The
    intervals may also be plain ``(label, a, b, c, d)`` tuples.

    This is the one place the trapezoid is computed. A value outside
    ``[a, d]``, or NaN, has no degree. Inside, the ramps are tested before
    the plateau, so neither divides by zero: ``x < b`` implies ``a < b``
    and ``x > c`` implies ``c < d``, whatever the corners, NaN included.
    A degree that is not positive (0 at a ramp's foot, or NaN from an
    infinite ramp) is dropped.
    """
    pairs = []
    for label, a, b, c, d in vocab.intervals:
        if not a <= x <= d:   # also True for NaN
            continue
        degree = (x - a) / (b - a) if x < b else (d - x) / (d - c) if x > c else 1.0
        if degree > 0.0:
            pairs.append((label, degree))
    return tuple(pairs)


def validate_vocabulary(vocab):
    """The one check of a vocabulary's content: its findings, never an exception.

    Error findings flag invariant breaches (no intervals; a label that is
    not a non-empty string, or has a control character or an unpaired
    surrogate; a duplicate label; corners out of order or not finite; a
    ramp wider than the float range). Without them the vocabulary mines and
    renders, and informational findings list the coverage gaps in
    ascending order and then say whether the vocabulary forms a Ruspini
    partition (degrees summing to 1 across the covered range). Corners are
    floats, as the :class:`FuzzyInterval` constructor makes them.
    """
    findings = []
    if not vocab.name:
        findings.append(Finding(ERROR, "vocabulary-name", "vocabulary name is empty"))
    if not vocab.intervals:
        findings.append(Finding(ERROR, "vocabulary-empty",
                                f"vocabulary {vocab.name!r} has no intervals"))
        return findings

    seen = set()
    for i, iv in enumerate(vocab.intervals):
        where, label = f"{vocab.name}[{i}]", iv.label
        # Checked before ``in seen``, which a list would make raise. UTF-8 encodes
        # no surrogate code point; JSON joins an escaped pair into one character.
        error = ("must be a non-empty string" if not isinstance(label, str) or not label else
                 "has an unpaired surrogate" if any("\ud800" <= c <= "\udfff" for c in label) else
                 "has a control character" if not _CONTROL.isdisjoint(label) else None)
        if error:
            findings.append(Finding(ERROR, "interval-label",
                                    f"{where}: label {error}, got {label!r}"))
        elif label in seen:
            findings.append(Finding(ERROR, "duplicate-label",
                                    f"{where}: duplicate label {label!r}"))
        else:
            seen.add(label)
        error = _corner_error(iv)
        if error:
            findings.append(Finding(ERROR, error[0], f"{where} ({label!r}): {error[1]}"))
    return findings or _range_findings(vocab)   # so far, every finding is an error


def _corner_error(iv):
    """``(code, message)`` if the corners of ``iv`` break an invariant, else None."""
    corners = (iv.a, iv.b, iv.c, iv.d)
    if not all(map(isfinite, corners)):
        return "interval-corners", f"corners must be finite, got {corners}"
    if not iv.a <= iv.b <= iv.c <= iv.d:
        got = ", ".join(f"{v:g}" for v in corners)
        return "interval-corners", f"requires a <= b <= c <= d, got ({got})"
    if isfinite(iv.b - iv.a) and isfinite(iv.d - iv.c):   # the widths classify divides by
        return None
    return "interval-span", f"a ramp is wider than the float range, got {corners}"


def _range_findings(vocab):
    """The coverage gaps, then whether degrees sum to 1 across the covered range.

    No interval starts or ends strictly between two consecutive corners,
    so the span between them lies either inside some interval's [a, d] or
    in a gap. The degree sum is piecewise linear with breakpoints only at
    corners, so checking every corner plus the midpoints between
    consecutive corners decides the Ruspini property exactly (up to float
    slack).
    """
    corners = sorted({v for iv in vocab.intervals for v in (iv.a, iv.b, iv.c, iv.d)})
    findings, probes = [], list(corners)
    for lo, hi in zip(corners, corners[1:]):
        if not any(iv.a <= lo and hi <= iv.d for iv in vocab.intervals):
            findings.append(Finding(INFO, "coverage-gap",
                                    f"{vocab.name}: no interval covers ({lo:g}, {hi:g})"))
        probes.append(lo / 2 + hi / 2)   # hi - lo may overflow
    ruspini = all(   # a left fold: sum() compensates on Python 3.12+
        abs(reduce(add, (degree for _, degree in classify(vocab, x)), 0.0) - 1.0)
        <= _PARTITION_TOL
        for x in probes
    )
    span = f"[{corners[0]:g}, {corners[-1]:g}]"
    findings.append(
        Finding(INFO, "ruspini", f"{vocab.name}: memberships sum to 1 over {span} "
                                 "(Ruspini partition)") if ruspini else
        Finding(INFO, "not-ruspini", f"{vocab.name}: membership degrees do not sum to 1 "
                                     f"everywhere on {span}"))
    return findings

