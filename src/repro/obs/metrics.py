"""Typed metrics instruments with Prometheus text exposition (zero-dep).

:class:`MetricsRegistry` unifies the solve stack's scattered counters into
two instrument types -- :class:`Counter` (monotone) and :class:`Histogram`
(cumulative buckets + sum + count) -- each with optional label dimensions,
and renders them in the Prometheus text exposition format
(``/v1/metrics?format=prometheus``).

Two complementary paths feed the exposition:

* **Instruments** registered here and updated at instrumentation points
  (phase latency histograms via the tracer's span hook, HTTP request
  counters, job lifecycle counters);
* **Snapshot flattening** (:func:`flatten_numeric`): the daemon's existing
  nested JSON metrics payload (``JobQueue.metrics()`` -- plan cache,
  formulation cache, warm-start counters, latency quantiles...) is walked at
  scrape time and every numeric leaf becomes one sample, so *every* counter
  in ``SolveService.statistics()`` is scrapeable without double-booking any
  state.

:func:`validate_prometheus_text` is the "simple line-format checker" CI's
observability-smoke job runs against a live scrape: it verifies line syntax,
label escaping and histogram bucket monotonicity with stdlib only.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "get_metrics_registry",
    "flatten_numeric",
    "validate_prometheus_text",
    "DEFAULT_LATENCY_BUCKETS",
]

#: Default histogram buckets for solve-stack latencies: 100us .. 60s, roughly
#: geometric -- wide enough for both a cache hit and a cold exact ILP.
DEFAULT_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label_value(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    f = float(value)
    return repr(int(f)) if f.is_integer() and abs(f) < 1e15 else repr(f)


def _labels_text(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    if not labelnames:
        return ""
    inner = ",".join(f'{n}="{_escape_label_value(v)}"'
                     for n, v in zip(labelnames, labelvalues))
    return "{" + inner + "}"


class _Instrument:
    """Shared machinery: a name, fixed label dimensions, per-labelset state."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",  # noqa: A002
                 labelnames: Sequence[str] = ()) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._values: Dict[Tuple[str, ...], float] = {}

    def _key(self, labels: dict) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}")
        return tuple(str(labels[n]) for n in self.labelnames)

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def samples(self) -> List[Tuple[str, Tuple[str, ...], float]]:
        """``(suffix, labelvalues, value)`` rows for exposition."""
        with self._lock:
            return [("", key, val) for key, val in sorted(self._values.items())]


class Counter(_Instrument):
    """Monotonically increasing count (e.g. requests, solver calls)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount


class Histogram(_Instrument):
    """Cumulative-bucket histogram (Prometheus semantics: le = less-or-equal).

    Per label set it keeps one count per bucket plus ``sum`` and ``count``;
    exposition emits ``<name>_bucket{le=...}`` (cumulative, ending in
    ``+Inf``), ``<name>_sum`` and ``<name>_count``.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",  # noqa: A002
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(nxt <= prev for nxt, prev in zip(bounds[1:], bounds)):
            raise ValueError("buckets must be non-empty and strictly increasing")
        self.buckets = bounds
        self._counts: Dict[Tuple[str, ...], List[float]] = {}

    def observe(self, value: float, **labels) -> None:
        self.observe_many_at(((self._key(labels), float(value)),))

    def observe_many_at(self, pairs) -> None:
        """Observe ``(labelvalues, value)`` pairs under one lock acquisition.

        The tracer's span hook feeds a whole flushed trace through here at
        once, so a batch of spans costs one lock round-trip, not one per
        span.
        """
        buckets = self.buckets
        num_buckets = len(buckets)
        with self._lock:
            for labelvalues, value in pairs:
                state = self._counts.get(labelvalues)
                if state is None:
                    if len(labelvalues) != len(self.labelnames):
                        raise ValueError(
                            f"metric {self.name!r} takes "
                            f"{len(self.labelnames)} label values, "
                            f"got {labelvalues!r}")
                    # One slot per finite bucket + [inf-count, sum, count].
                    state = self._counts[labelvalues] = [0.0] * (num_buckets + 3)
                for i, bound in enumerate(buckets):
                    if value <= bound:
                        state[i] += 1.0
                        break
                else:
                    state[num_buckets] += 1.0
                state[-2] += value
                state[-1] += 1.0

    def snapshot(self, **labels):
        """``(cumulative_bucket_counts, sum, count)`` for one label set."""
        key = self._key(labels)
        with self._lock:
            state = self._counts.get(key)
            if state is None:
                return [0.0] * (len(self.buckets) + 1), 0.0, 0.0
            raw = list(state)
        cumulative = []
        running = 0.0
        for c in raw[: len(self.buckets) + 1]:
            running += c
            cumulative.append(running)
        return cumulative, raw[-2], raw[-1]

    def quantile(self, q: float, **labels) -> Optional[float]:
        """Estimate the ``q``-quantile of one label set (``None`` when empty).

        Interpolates linearly inside the bucket holding rank ``q * count``,
        as Prometheus ``histogram_quantile`` does, so the estimate always
        lies in the bucket of the true nearest-rank quantile.  A rank in the
        ``+Inf`` bucket returns the last finite bound.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        cumulative, _, count = self.snapshot(**labels)
        if not count:
            return None
        rank = q * count
        below = 0.0
        for i, bound in enumerate(self.buckets):
            # ``> 0`` skips leading empty buckets, so q=0 lands in the first
            # occupied one instead of dividing by an empty bucket's count.
            if cumulative[i] >= rank and cumulative[i] > 0:
                lower = self.buckets[i - 1] if i else min(0.0, bound)
                return lower + (bound - lower) * (rank - below) / (
                    cumulative[i] - below)
            below = cumulative[i]
        return self.buckets[-1]

    def samples(self) -> List[Tuple[str, Tuple[str, ...], float]]:
        rows: List[Tuple[str, Tuple[str, ...], float]] = []
        with self._lock:
            items = [(key, list(state)) for key, state in
                     sorted(self._counts.items())]
        for key, raw in items:
            running = 0.0
            for bound, count in zip(self.buckets, raw):
                running += count
                rows.append((f'_bucket|le={_format_value(bound)}', key, running))
            running += raw[len(self.buckets)]
            rows.append(('_bucket|le=+Inf', key, running))
            rows.append(("_sum", key, raw[-2]))
            rows.append(("_count", key, raw[-1]))
        return rows


class MetricsRegistry:
    """Named instruments with get-or-create semantics plus text exposition.

    ``counter``/``histogram`` return the existing instrument when
    one of the same name, type and labels is already registered, so separate
    modules can reference one instrument without import-order coupling.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: "Dict[str, _Instrument]" = {}

    def _get_or_create(self, cls, name: str, help: str,  # noqa: A002
                       labelnames: Sequence[str], **kwargs) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or \
                        existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.labelnames}")
                return existing
            instrument = cls(name, help, labelnames, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "",  # noqa: A002
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def histogram(self, name: str, help: str = "",  # noqa: A002
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames,
                                   buckets=buckets)

    def instruments(self) -> List[_Instrument]:
        with self._lock:
            return list(self._instruments.values())

    # ------------------------------------------------------------------ #
    # Exposition
    # ------------------------------------------------------------------ #
    def render_prometheus(
        self,
        extra_numeric: Optional[Dict[str, float]] = None,
        extra_instruments: Sequence[_Instrument] = (),
    ) -> str:
        """The Prometheus text format (version 0.0.4) of every instrument.

        ``extra_numeric`` maps pre-flattened sample names (see
        :func:`flatten_numeric`) to values; they are emitted as gauges, which
        is how the daemon folds its JSON metrics snapshot into the scrape.
        ``extra_instruments`` are rendered next to the registered ones, typed
        (how per-service counters scrape without a process-wide registration).
        """
        lines: List[str] = []
        instruments = self.instruments() + list(extra_instruments)
        for inst in sorted(instruments, key=lambda i: i.name):
            if inst.help:
                # HELP text escapes backslash and newline (exposition 0.0.4).
                escaped = inst.help.replace("\\", r"\\").replace("\n", r"\n")
                lines.append(f"# HELP {inst.name} {escaped}")
            lines.append(f"# TYPE {inst.name} {inst.kind}")
            for suffix, labelvalues, value in inst.samples():
                extra_label = None
                if "|" in suffix:
                    suffix, extra_label = suffix.split("|", 1)
                names = list(inst.labelnames)
                values = list(labelvalues)
                if extra_label is not None:
                    k, v = extra_label.split("=", 1)
                    names.append(k)
                    values.append(v)
                lines.append(f"{inst.name}{suffix}"
                             f"{_labels_text(names, values)} "
                             f"{_format_value(value)}")
        if extra_numeric:
            for name in sorted(extra_numeric):
                if not _NAME_RE.match(name):
                    continue
                lines.append(f"# TYPE {name} gauge")
                lines.append(f"{name} {_format_value(extra_numeric[name])}")
        return "\n".join(lines) + "\n"


def _sanitize_name(part: str) -> str:
    return re.sub(r"[^a-zA-Z0-9_]", "_", part)


def flatten_numeric(payload, prefix: str = "repro") -> Dict[str, float]:
    """Flatten a nested JSON-ish dict to ``{metric_name: float}`` samples.

    Dict keys join the prefix with ``_``; booleans become 0/1; ``None`` and
    non-numeric leaves (strings, lists) are skipped.  This is how the
    daemon's existing ``/v1/metrics`` JSON payload -- every counter in
    ``SolveService.statistics()`` included -- becomes scrapeable without
    re-plumbing each counter individually.
    """
    out: Dict[str, float] = {}

    def walk(node, name: str) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{name}_{_sanitize_name(str(key))}")
        elif isinstance(node, bool):
            out[name] = 1.0 if node else 0.0
        elif isinstance(node, (int, float)):
            out[name] = float(node)

    walk(payload, _sanitize_name(prefix))
    return out


# --------------------------------------------------------------------------- #
# Exposition-format checking (used by tests and the CI smoke job)
# --------------------------------------------------------------------------- #
_LABEL_PAIR_RE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\["\\n])*"$')


def _parse_sample_line(line: str, lineno: int):
    """``(name, raw_labels_or_None, value_text)`` of one exposition line.

    Quote-aware: a ``}`` inside a quoted label value (legal in the format,
    e.g. ``route="/v1/jobs/{id}"``) does not terminate the label block.
    """
    match = re.match(r"[a-zA-Z_:][a-zA-Z0-9_:]*", line)
    if not match:
        raise ValueError(f"line {lineno}: malformed sample: {line!r}")
    name = match.group(0)
    rest = line[match.end():]
    raw_labels = None
    if rest.startswith("{"):
        in_quotes = False
        escaped = False
        end = -1
        for i, ch in enumerate(rest[1:], 1):
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_quotes = not in_quotes
            elif ch == "}" and not in_quotes:
                end = i
                break
        if end < 0:
            raise ValueError(f"line {lineno}: unterminated label block: {line!r}")
        raw_labels = rest[1:end]
        rest = rest[end + 1:]
    parts = rest.split()
    if len(parts) not in (1, 2):  # value [timestamp]
        raise ValueError(f"line {lineno}: malformed sample: {line!r}")
    if len(parts) == 2 and not re.fullmatch(r"-?[0-9]+", parts[1]):
        raise ValueError(f"line {lineno}: malformed timestamp: {line!r}")
    return name, raw_labels, parts[0]


def validate_prometheus_text(text: str) -> Dict[str, int]:
    """Strictly parse Prometheus text exposition; raise ``ValueError`` on any
    malformed line; return ``{metric_name: sample_count}``.

    Checks, per line: sample syntax (name, optional escaped label set, float
    value), and per histogram: ``_bucket`` series monotone non-decreasing in
    ``le`` with a trailing ``+Inf`` bucket equal to ``_count``.
    """
    samples: Dict[str, int] = {}
    buckets: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], List[Tuple[float, float]]] = {}
    counts: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        name, raw_labels, value_text = _parse_sample_line(line, lineno)
        labels: Dict[str, str] = {}
        if raw_labels:
            for pair in _split_label_pairs(raw_labels, lineno):
                if not _LABEL_PAIR_RE.match(pair):
                    raise ValueError(f"line {lineno}: bad label pair {pair!r}")
                key, value = pair.split("=", 1)
                labels[key] = value[1:-1]
        try:
            value = float(value_text.replace("+Inf", "inf")
                          .replace("-Inf", "-inf").replace("NaN", "nan"))
        except ValueError:
            raise ValueError(
                f"line {lineno}: non-numeric value {value_text!r}") from None
        samples[name] = samples.get(name, 0) + 1

        if name.endswith("_bucket") and "le" in labels:
            base = name[: -len("_bucket")]
            rest = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            le = math.inf if labels["le"] == "+Inf" else float(labels["le"])
            buckets.setdefault((base, rest), []).append((le, value))
        elif name.endswith("_count"):
            base = name[: -len("_count")]
            counts[(base, tuple(sorted(labels.items())))] = value

    for (base, rest), series in buckets.items():
        series.sort(key=lambda pair: pair[0])
        for (le_a, v_a), (le_b, v_b) in zip(series, series[1:]):
            if v_b < v_a:
                raise ValueError(
                    f"histogram {base!r}: bucket counts not monotone "
                    f"(le={le_a} -> {v_a}, le={le_b} -> {v_b})")
        if series[-1][0] != math.inf:
            raise ValueError(f"histogram {base!r}: missing le=\"+Inf\" bucket")
        total = counts.get((base, rest))
        if total is not None and series[-1][1] != total:
            raise ValueError(
                f"histogram {base!r}: +Inf bucket {series[-1][1]} != "
                f"count {total}")
    return samples


def _split_label_pairs(raw: str, lineno: int) -> Iterable[str]:
    """Split ``a="x",b="y"`` on commas outside quoted values."""
    pairs: List[str] = []
    current: List[str] = []
    in_quotes = False
    escaped = False
    for ch in raw:
        if escaped:
            current.append(ch)
            escaped = False
        elif ch == "\\":
            current.append(ch)
            escaped = True
        elif ch == '"':
            current.append(ch)
            in_quotes = not in_quotes
        elif ch == "," and not in_quotes:
            pairs.append("".join(current))
            current = []
        else:
            current.append(ch)
    if in_quotes:
        raise ValueError(f"line {lineno}: unterminated label quote")
    if current:
        pairs.append("".join(current))
    return [p for p in pairs if p]


_registry = MetricsRegistry()


def get_metrics_registry() -> MetricsRegistry:
    """The process-wide registry the solve stack's instruments live in."""
    return _registry
