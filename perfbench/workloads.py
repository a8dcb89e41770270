"""Seeded workload generation and the load counts the benchmark derives itself.

Each workload is three event streams plus a pipeline config, generated
from ``random.Random(seed)``. Timestamps follow a jittered grid (event i
of a stream lands uniformly in its own slot of width ``spacing``), so the
number of events per window, and with it the triple count, varies little
from seed to seed. Timestamps are kept at 3 decimals and values at 2, and
the in-memory floats are exactly what the program parses back from the
CSV, so counts made here match the program's window tests bit for bit.
"""

import json
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

ROLES = ("trigger1", "trigger2", "consequence")
STREAM_NAMES = ("stream1", "stream2", "stream3")
VALUE_MAX = 15.0
WINDOW = 10.0

# The quickstart vocabulary: three Ruspini labels per dimension.
_VOLUME = [
    {"label": "Small Volume", "a": 0, "b": 0, "c": 3, "d": 6},
    {"label": "Medium Volume", "a": 3, "b": 6, "c": 9, "d": 12},
    {"label": "Large Volume", "a": 9, "b": 12, "c": 15, "d": 15},
]
_TIMING = [
    {"label": "Immediately After", "a": 0, "b": 0, "c": 1, "d": 3},
    {"label": "Short Time After", "a": 1, "b": 3, "c": 5, "d": 7},
    {"label": "Long Time After", "a": 5, "b": 7, "c": 10, "d": 10},
]


def _wide_vocab(prefix, first, last):
    """Nine overlapping labels alternating trapezoid/triangle: not Ruspini.

    Supports reach just past the neighbouring label's peak, so every point
    of [first, last] lies in about two of them, which gives a fan-out near
    2**4 per triple.
    """
    step = (last - first) / 8
    out = []
    for k in range(9):
        mid = first + step * k
        plateau = 0.2 * step if k % 2 == 0 else 0.0
        out.append({"label": f"{prefix}{k:02d}",
                    "a": round(mid - 1.05 * step, 4), "b": round(mid - plateau, 4),
                    "c": round(mid + plateau, 4), "d": round(mid + 1.05 * step, 4)})
    return out


# Values in [0, 15] are always covered; elapsed times above about 9.95
# are not, so a small share of triples adds zero weight.
_WIDE_VALUES = _wide_vocab("v", 0.0, VALUE_MAX)
_WIDE_TIMING = _wide_vocab("dt", 0.0, 8.8)


@dataclass(frozen=True)
class Spec:
    """The shape of one workload; BENCHMARK.json says why it was chosen."""

    name: str
    events_per_stream: int
    spacing: float          # mean time between events of one stream
    vocab: tuple            # (value vocabulary, elapsed-time vocabulary)
    ruspini: bool           # every triple then adds exactly weight 1
    layout: str             # "long" or "wide" CSV
    cli_args: tuple         # report options passed to ``fuzzmine mine``
    slice_len: float        # length of the time slice checked by the oracle


SPECS = {
    spec.name: spec for spec in (
        Spec("dense", 300, 1.0, (_VOLUME, _TIMING), True, "long",
             ("--format", "json"), 5.0),
        Spec("sparse", 25000, 50.0, (_VOLUME, _TIMING), True, "wide",
             ("--format", "table"), 200.0),
        Spec("wide-vocab", 70, 1.0, (_WIDE_VALUES, _WIDE_TIMING), False, "long",
             ("--format", "json", "--tree", "dot"), 4.0),
    )
}


def config_doc(spec):
    values, timing = spec.vocab
    return {
        "roles": dict(zip(ROLES, STREAM_NAMES)),
        "windows": {"trigger": WINDOW, "consequence": WINDOW},
        "vocabularies": {"trigger1": values, "trigger2": values,
                         "delta_t": timing, "consequence": values},
        "min_support": 0,
        "min_confidence": 0,
    }


def generate(spec, seed):
    """Three streams of (timestamp, value) pairs, sorted by timestamp."""
    rng = random.Random(f"{spec.name}:{seed}")
    streams = []
    for _ in ROLES:
        events = []
        for i in range(spec.events_per_stream):
            t = float(f"{(i + rng.random()) * spec.spacing:.3f}")
            v = float(f"{rng.uniform(0.0, VALUE_MAX):.2f}")
            events.append((t, v))
        streams.append(events)
    return streams


def write_csv(path, streams, layout):
    """Write streams in the long or wide layout, rows in time order."""
    rows = sorted(
        (t, role, v) for role, events in enumerate(streams) for t, v in events)
    if layout == "long":
        lines = ["timestamp,stream,value"]
        lines += [f"{t:.3f},{STREAM_NAMES[role]},{v:.2f}" for t, role, v in rows]
    else:
        lines = ["timestamp," + ",".join(STREAM_NAMES)]
        for t, role, v in rows:
            cells = ["-"] * len(STREAM_NAMES)
            cells[role] = f"{v:.2f}"
            lines.append(f"{t:.3f}," + ",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_header_only(path, layout):
    header = "timestamp,stream,value" if layout == "long" else \
        "timestamp," + ",".join(STREAM_NAMES)
    path.write_text(header + "\n", encoding="utf-8")


def write_config(path, spec):
    path.write_text(json.dumps(config_doc(spec), indent=2) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class Counts:
    events: int
    pairs12: int
    pairs23: int
    triples: int


def load_counts(streams):
    """|P12|, |P23| and the triple count, by bisect over the timestamps.

    The windows are tested exactly as the program states them
    (t1 <= t2 <= t1 + W and t2 <= t3 <= t2 + W, same float additions),
    and triples are summed per trigger-1 event from a prefix sum of the
    consequence counts of the trigger-2 events in its window.
    """
    t1s, t2s, t3s = ([t for t, _ in events] for events in streams)
    n3 = [bisect_right(t3s, t + WINDOW) - bisect_left(t3s, t) for t in t2s]
    prefix = [0, *accumulate(n3)]
    pairs12 = triples = 0
    for t in t1s:
        lo, hi = bisect_left(t2s, t), bisect_right(t2s, t + WINDOW)
        pairs12 += hi - lo
        triples += prefix[hi] - prefix[lo]
    return Counts(sum(map(len, streams)), pairs12, sum(n3), triples)


def fanout_counts(streams, spec, degree):
    """Label instances, zero-weight triples and labels per event value.

    ``degree(a, b, c, d, x)`` is the reference trapezoid. An instance is
    one label combination with positive degree in all four dimensions; a
    triple adds zero weight when some dimension has no label. Both are
    summed per trigger-2 event in O(|P12| + |P23|).
    """
    values, timing = spec.vocab

    def n_labels(vocab, x):
        return sum(degree(iv["a"], iv["b"], iv["c"], iv["d"], x) > 0.0 for iv in vocab)

    (e1s, e2s, e3s) = streams
    t2s = [t for t, _ in e2s]
    t3s = [t for t, _ in e3s]
    labels = [[n_labels(values, v) for _, v in events] for events in streams]

    # Per trigger-2 event: summed trigger-1 label counts, and trigger-1
    # events with any label, over the trigger-1 events whose window holds it.
    diff_n = [0] * (len(e2s) + 1)
    diff_any = [0] * (len(e2s) + 1)
    for (t, _), n1 in zip(e1s, labels[0]):
        lo, hi = bisect_left(t2s, t), bisect_right(t2s, t + WINDOW)
        diff_n[lo] += n1
        diff_n[hi] -= n1
        diff_any[lo] += n1 > 0
        diff_any[hi] -= n1 > 0
    in_n = list(accumulate(diff_n))
    in_any = list(accumulate(diff_any))

    instances = weighted = 0
    for j, ((t2, _), n2) in enumerate(zip(e2s, labels[1])):
        lo, hi = bisect_left(t3s, t2), bisect_right(t3s, t2 + WINDOW)
        out_n = out_any = 0
        for k in range(lo, hi):
            n = n_labels(timing, t3s[k] - t2) * labels[2][k]
            out_n += n
            out_any += n > 0
        instances += in_n[j] * n2 * out_n
        weighted += in_any[j] * (n2 > 0) * out_any
    total_labels = sum(map(sum, labels))
    return instances, weighted, total_labels


def time_slice(streams, spec, seed):
    """A short seeded slice of the streams that holds at least one triple.

    The slice starts at a trigger-1 event chosen among those that begin a
    triple and keeps every event within ``spec.slice_len`` after it.
    """
    rng = random.Random(f"{spec.name}:{seed}:slice")
    t2s = [t for t, _ in streams[1]]
    t3s = [t for t, _ in streams[2]]
    starts = []
    for t, _ in streams[0]:
        for t2 in t2s[bisect_left(t2s, t):bisect_right(t2s, t + WINDOW)]:
            if bisect_right(t3s, t2 + WINDOW) > bisect_left(t3s, t2):
                starts.append(t)
                break
    start = rng.choice(starts)
    end = start + spec.slice_len
    return [[(t, v) for t, v in events if start <= t <= end] for events in streams]
