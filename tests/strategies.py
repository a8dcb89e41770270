"""Hypothesis strategies for streams, windows, and vocabularies.

Timestamps, values, and interval corners are drawn from a quarter-unit
grid: every quantity is an exact dyadic float, so window boundary
checks never wobble and ramp arithmetic stays bit-reproducible between
the pipeline and the oracles.
"""

import hypothesis.strategies as st

from fuzzmine import (
    FuzzyInterval,
    MiningConfig,
    StreamBundle,
    Vocabulary,
    WindowConfig,
)

from common import stream

STREAM_NAMES = ("alpha", "beta", "gamma")


def quarters(low, high):
    """Multiples of 0.25 in [low, high] (bounds given as integers)."""
    return st.integers(4 * low, 4 * high).map(lambda k: k / 4)


def bundles(max_events=10, max_time=30, max_value=12):
    """Three-stream bundles with up to max_events events per stream."""
    events = st.lists(
        st.tuples(quarters(0, max_time), quarters(0, max_value)),
        max_size=max_events,
    )

    def build(parts):
        return StreamBundle(*map(stream, STREAM_NAMES, parts))

    return st.tuples(events, events, events).map(build)


@st.composite
def ruspini_vocabs(draw, name, low, high, max_sets=4):
    """Trapezoid families whose degrees sum to 1 across [low, high].

    Adjacent sets share their ramp interval exactly (the down-ramp of
    one is the complement of the up-ramp of the next), shoulders close
    both ends, and interior ramps have positive width.
    """
    room = 4 * (high - low) - 1
    m = draw(st.integers(1, max(1, min(max_sets, 1 + room // 2))))
    if m == 1:
        return Vocabulary(name, (FuzzyInterval(f"{name}0", low, low, high, high),))
    ks = draw(st.lists(st.integers(4 * low + 1, 4 * high - 1),
                       min_size=2 * (m - 1), max_size=2 * (m - 1), unique=True))
    points = sorted(k / 4 for k in ks)
    corners = [float(low), float(low)] + points + [float(high), float(high)]
    intervals = tuple(
        FuzzyInterval(f"{name}{i}", *corners[2 * i: 2 * i + 4]) for i in range(m)
    )
    return Vocabulary(name, intervals)


@st.composite
def arbitrary_vocabs(draw, name, low, high, max_sets=3):
    """Valid but unconstrained vocabularies: overlaps and gaps allowed."""
    m = draw(st.integers(1, max_sets))
    intervals = []
    for i in range(m):
        a, b, c, d = sorted(draw(st.lists(quarters(low, high), min_size=4, max_size=4)))
        intervals.append(FuzzyInterval(f"{name}{i}", a, b, c, d))
    return Vocabulary(name, tuple(intervals))


@st.composite
def ruspini_settings(draw, max_events=16, max_time=30, max_value=12):
    """(bundle, config) pairs where all four vocabularies are Ruspini
    partitions covering every value the pipeline can encounter."""
    consequence_window = draw(st.integers(2, 12))
    windows = WindowConfig(draw(st.integers(1, 48)) / 4, float(consequence_window))
    bundle = draw(bundles(max_events=max_events, max_time=max_time,
                          max_value=max_value))
    cfg = MiningConfig(
        windows=windows,
        vocab_t1=draw(ruspini_vocabs("t1", 0, max_value)),
        vocab_t2=draw(ruspini_vocabs("t2", 0, max_value)),
        vocab_dt=draw(ruspini_vocabs("dt", 0, consequence_window)),
        vocab_c=draw(ruspini_vocabs("c", 0, max_value)),
    )
    return bundle, cfg


@st.composite
def arbitrary_settings(draw, max_events=8, max_time=30, max_value=12):
    """(bundle, config) pairs with unconstrained valid vocabularies."""
    windows = WindowConfig(draw(st.integers(1, 40)) / 4, draw(st.integers(1, 40)) / 4)
    bundle = draw(bundles(max_events=max_events, max_time=max_time,
                          max_value=max_value))
    cfg = MiningConfig(
        windows=windows,
        vocab_t1=draw(arbitrary_vocabs("t1", 0, max_value)),
        vocab_t2=draw(arbitrary_vocabs("t2", 0, max_value)),
        vocab_dt=draw(arbitrary_vocabs("dt", 0, 10)),
        vocab_c=draw(arbitrary_vocabs("c", 0, max_value)),
    )
    return bundle, cfg


def rectangle_vocab(name, count):
    """Non-overlapping unit rectangles centred on the integers 0..count-1."""
    return Vocabulary(name, tuple(
        FuzzyInterval(f"{name}{k}", k - 0.25, k - 0.25, k + 0.25, k + 0.25)
        for k in range(count)
    ))


@st.composite
def crisp_settings(draw, max_events=8, max_time=20, max_value=9):
    """(bundle, config) pairs with integer data and rectangle vocabularies,
    so every membership degree is 0 or 1."""
    consequence_window = draw(st.integers(1, 8))
    windows = WindowConfig(float(draw(st.integers(1, 8))), float(consequence_window))
    events = st.lists(
        st.tuples(st.integers(0, max_time), st.integers(0, max_value)),
        max_size=max_events,
    )
    parts = draw(st.tuples(events, events, events))
    streams = [
        stream(name, [(float(t), float(v)) for t, v in part])
        for name, part in zip(STREAM_NAMES, parts)
    ]
    cfg = MiningConfig(
        windows=windows,
        vocab_t1=rectangle_vocab("t1", max_value + 1),
        vocab_t2=rectangle_vocab("t2", max_value + 1),
        vocab_dt=rectangle_vocab("dt", consequence_window + 1),
        vocab_c=rectangle_vocab("c", max_value + 1),
    )
    return StreamBundle(*streams), cfg
