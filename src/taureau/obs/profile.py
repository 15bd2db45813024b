"""Profiling: trace-derived flamegraphs, metric-derived cost tables.

Span trees answer "where did *this* request go?"; this module answers
the aggregate question — across every trace in a store, which call
paths accumulate the time, and across the platform's billing metrics,
which functions/tenants accumulate the bill.  The folded-stack output
is the `flamegraph.pl` / speedscope interchange format (one
``root;child;leaf value`` line per call path, value in integer
microseconds of *self* time), so any off-the-shelf flamegraph renderer
consumes the simulator's profile directly.

All outputs are deterministically ordered: same-seed runs produce
byte-identical profiles, which is what lets ``scripts/metrics_smoke.py``
diff them across runs.
"""

from __future__ import annotations

import typing

from taureau.obs.trace import Span, Trace, TraceStore
from taureau.sim.metrics import MetricRegistry

__all__ = [
    "folded_stacks",
    "folded_profile",
    "validate_folded",
    "billing_lines",
    "cost_table",
    "render_cost_table",
    "Profiler",
]


def _frame(name: str) -> str:
    """A span name sanitized for the folded-stack grammar.

    Semicolons separate frames and spaces separate the path from the
    value, so both are rewritten; control characters would corrupt the
    line-oriented format and are dropped.
    """
    cleaned = []
    for ch in name:
        if ch == ";":
            cleaned.append(":")
        elif ch.isspace():
            cleaned.append("_")
        elif ch.isprintable():
            cleaned.append(ch)
    return "".join(cleaned) or "unnamed"


def _accumulate(
    trace: Trace,
    span: Span,
    prefix: str,
    totals: typing.Dict[str, int],
) -> None:
    path = f"{prefix};{_frame(span.name)}" if prefix else _frame(span.name)
    children = [c for c in trace.children(span) if c.finished]
    covered = sum(
        max(0.0, min(c.end, span.end) - max(c.start, span.start))
        for c in children
    )
    self_us = int(round(max(0.0, span.duration_s - covered) * 1e6))
    if self_us > 0:
        totals[path] = totals.get(path, 0) + self_us
    for child in children:
        _accumulate(trace, child, path, totals)


def folded_stacks(trace: Trace) -> typing.List[str]:
    """One trace as folded-stack lines (``a;b;c self_microseconds``).

    Each finished span contributes its *self* time — duration minus the
    windows covered by its finished children — so a path's frames sum to
    the root duration and the flamegraph's widths are exact.  Unfinished
    spans (and their subtrees) are skipped; zero-self-time frames are
    elided, matching what stack samplers emit.  Lines are sorted by
    path.
    """
    root = trace.root
    totals: typing.Dict[str, int] = {}
    if root.finished:
        _accumulate(trace, root, "", totals)
    return [f"{path} {value}" for path, value in sorted(totals.items())]


def folded_profile(store: TraceStore) -> typing.List[str]:
    """Every trace in ``store`` merged into one folded-stack profile.

    Identical call paths across traces aggregate (their self-times sum),
    which is what turns a thousand invocations into one readable
    flamegraph.  Lines are sorted by path for deterministic output.
    """
    totals: typing.Dict[str, int] = {}
    for trace_id in store.trace_ids():
        trace = store.trace(trace_id)
        try:
            root = trace.root
        except ValueError:
            continue
        if root.finished:
            _accumulate(trace, root, "", totals)
    return [f"{path} {value}" for path, value in sorted(totals.items())]


def validate_folded(lines: typing.Iterable[str]) -> typing.List[str]:
    """Structurally check folded-stack ``lines``; returns a problem list.

    A valid line is ``frame(;frame)* value`` with non-empty frames and a
    positive integer value — exactly what flamegraph.pl accepts.
    """
    problems: typing.List[str] = []
    for lineno, line in enumerate(lines, start=1):
        path, sep, value = line.rpartition(" ")
        if not sep or not path:
            problems.append(f"line {lineno}: missing path or value {line!r}")
            continue
        if not value.isdigit() or int(value) <= 0:
            problems.append(
                f"line {lineno}: value must be a positive integer, got "
                f"{value!r}"
            )
        frames = path.split(";")
        if any(not frame or " " in frame for frame in frames):
            problems.append(f"line {lineno}: malformed frame in {path!r}")
    return problems


def billing_lines(metrics: MetricRegistry) -> typing.List[tuple]:
    """``(function, tenant, requests, seconds, gb_s, cost_usd)`` per billed
    function, sorted, from the platform's ``billing.<kind>_by`` families
    (their children are bound together at a function's first bill)."""
    families = [metrics.find(f"billing.{kind}_by")
                for kind in ("requests", "seconds", "gb_s", "cost_usd")]
    if any(family is None for family in families):
        return []
    return [(*row[0][0], *(child.value for __, child in row))
            for row in zip(*(family.items() for family in families))]


def cost_table(metrics: MetricRegistry) -> dict:
    """Per-function and per-tenant request/GB-s/cost attribution.

    Built from the platform's billing families (see :func:`billing_lines`),
    so it covers every billed attempt with tracing on or off.  Returns::

        {"by_function": {name: {"requests", "gb_s", "cost_usd"}},
         "by_tenant":   {tenant: {...same...}}}

    with keys sorted for deterministic iteration.
    """
    table: dict = {"by_function": {}, "by_tenant": {}}
    for function, tenant, requests, __, gb_s, cost in billing_lines(metrics):
        for side, key in (("by_function", function), ("by_tenant", tenant)):
            row = table[side].setdefault(
                key, {"requests": 0, "gb_s": 0.0, "cost_usd": 0.0}
            )
            row["requests"] += int(requests)
            row["gb_s"] += gb_s
            row["cost_usd"] += cost
    return {side: dict(sorted(rows.items())) for side, rows in table.items()}


def render_cost_table(table: dict) -> str:
    """The :func:`cost_table` dict as a fixed-width accounting report."""
    lines: typing.List[str] = []
    for title, key in (("function", "by_function"), ("tenant", "by_tenant")):
        rows = table.get(key, {})
        lines.append(f"cost by {title}:")
        header = f"  {title:<24} {'requests':>9} {'GB-s':>12} {'cost $':>12}"
        lines.append(header)
        for name, row in rows.items():
            lines.append(
                f"  {name:<24} {row['requests']:>9d} "
                f"{row['gb_s']:>12.4f} {row['cost_usd']:>12.6f}"
            )
        if not rows:
            lines.append("  (nothing billed)")
    return "\n".join(lines)


class Profiler:
    """The convenience handle the facade exposes: traces and the bill in,
    reports out.  ``store`` is ``None`` when tracing is off; the cost
    table needs only the platform's ``metrics``."""

    def __init__(self, store: typing.Optional[TraceStore], metrics: MetricRegistry):
        self.store = store
        self.metrics = metrics

    def folded(self) -> typing.List[str]:
        """The aggregated folded-stack profile (see :func:`folded_profile`)."""
        if self.store is None:
            raise RuntimeError("tracing is disabled on this Platform")
        return folded_profile(self.store)

    def folded_text(self) -> str:
        """The profile as one newline-terminated document for file dumps."""
        lines = self.folded()
        return "\n".join(lines) + ("\n" if lines else "")

    def cost_table(self) -> dict:
        return cost_table(self.metrics)

    def render_cost_table(self) -> str:
        return render_cost_table(self.cost_table())
