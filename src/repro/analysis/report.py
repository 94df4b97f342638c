"""Table and figure-series rendering for the benchmark harness.

Every bench prints the rows/series the paper reports, via these helpers,
so ``pytest benchmarks/ --benchmark-only`` output doubles as the
EXPERIMENTS.md raw data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Union


@dataclass
class Series:
    """One labelled curve of an x-y figure."""

    label: str
    points: List[tuple] = field(default_factory=list)

    def add(self, x, y) -> None:
        """Add a point, replacing any existing point at the same ``x``.

        Replacement (rather than silently keeping the first value, as the
        old append-only behaviour did) is what a re-run sweep cell needs:
        refreshed results overwrite the stale point.
        """
        for i, (px, _) in enumerate(self.points):
            if px == x:
                self.points[i] = (x, y)
                return
        self.points.append((x, y))

    def y_at(self, x):
        for px, py in self.points:
            if px == x:
                return py
        raise KeyError(f"{self.label}: no point at x={x}")

    @property
    def ys(self) -> List:
        return [y for _, y in self.points]


class Figure:
    """A collection of series sharing an x-axis, printable as a table."""

    def __init__(self, title: str, xlabel: str = "x", ylabel: str = "y"):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.series: Dict[str, Series] = {}

    def series_named(self, label: str) -> Series:
        if label not in self.series:
            self.series[label] = Series(label)
        return self.series[label]

    def add(self, label: str, x, y) -> None:
        self.series_named(label).add(x, y)

    def render(self, fmt: str = "{:>12.2f}") -> str:
        xs: List = []
        for s in self.series.values():
            for x, _ in s.points:
                if x not in xs:
                    xs.append(x)

        # Format every cell first, then derive each column's width from
        # its label and widest formatted value — a custom ``fmt`` width or
        # a long series label must never break header/row alignment
        # (blank cells used to be hardcoded to 12 spaces).
        columns: Dict[str, Dict] = {}
        widths: Dict[str, int] = {}
        for label, s in self.series.items():
            cells = {}
            for x in xs:
                try:
                    cells[x] = fmt.format(s.y_at(x))
                except KeyError:
                    cells[x] = ""
            columns[label] = cells
            widths[label] = max(
                [len(label)] + [len(c) for c in cells.values()]
            )
        xw = max([12, len(self.xlabel)] + [len(str(x)) for x in xs])

        lines = [f"== {self.title} ==", f"   {self.ylabel} vs {self.xlabel}"]
        header = f"{self.xlabel:>{xw}} | " + " | ".join(
            f"{label:>{widths[label]}}" for label in self.series
        )
        lines.append(header)
        lines.append("-" * len(header))
        for x in xs:
            cells = [
                f"{columns[label][x]:>{widths[label]}}"
                for label in self.series
            ]
            lines.append(f"{str(x):>{xw}} | " + " | ".join(cells))
        return "\n".join(lines)


class Table:
    """A paper-style table: named rows × named columns."""

    def __init__(self, title: str, columns: Sequence[str]):
        self.title = title
        self.columns = list(columns)
        self.rows: List[tuple] = []

    def add_row(self, name: str, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"{self.title}: row {name!r} has {len(values)} values, "
                f"expected {len(self.columns)}"
            )
        self.rows.append((name, values))

    def value(self, row: str, column: str):
        ci = self.columns.index(column)
        for name, values in self.rows:
            if name == row:
                return values[ci]
        raise KeyError(f"{self.title}: no row {row!r}")

    def render(self) -> str:
        widths = [max(12, len(c) + 2) for c in self.columns]
        name_w = max([len("app")] + [len(n) for n, _ in self.rows]) + 2
        lines = [f"== {self.title} =="]
        lines.append(
            f"{'app':<{name_w}}" + "".join(f"{c:>{w}}" for c, w in zip(self.columns, widths))
        )
        lines.append("-" * (name_w + sum(widths)))
        for name, values in self.rows:
            cells = []
            for v, w in zip(values, widths):
                if isinstance(v, float):
                    cells.append(f"{v:>{w}.2f}")
                else:
                    cells.append(f"{str(v):>{w}}")
            lines.append(f"{name:<{name_w}}" + "".join(cells))
        return "\n".join(lines)


def pct_change(new: float, old: float) -> float:
    """Percentage change, the Figure-10 metric."""
    if old == 0:
        return 0.0
    return 100.0 * (new - old) / old


#: a scheme figure's axes per cell kind: x parameter, y metric, their labels
FIGURE_AXES = {
    "latency": ("size", "latency_us", "bytes", "one-way us"),
    "bandwidth": ("window", "mbps", "window", "MB/s"),
}


def scheme_figure(result: Any, title: str) -> Figure:
    """A campaign result of latency or bandwidth cells as one series per
    scheme — Figures 2-8, ``repro latency`` and ``repro bandwidth``."""
    x, y, xlabel, ylabel = FIGURE_AXES[result.outcomes[0].spec.kind]
    fig = Figure(title, xlabel=xlabel, ylabel=ylabel)
    for out in result.outcomes:
        fig.add(out.spec.params["scheme"], out.spec.params[x], out.metrics[y])
    return fig


def scheme_table(result: Any, title: str,
                 metric: Union[str, Callable[[Any], Any]] = "elapsed_s") -> Table:
    """A campaign result of NAS cells as one row per kernel and one column
    per scheme, both in grid order — Figures 9-10 and ``repro nas``.  A
    cell's value is its ``metric``, or ``metric(outcome)`` if callable."""
    values = {
        (out.spec.params["kernel"], out.spec.params["scheme"]):
            metric(out) if callable(metric) else out.metrics[metric]
        for out in result.outcomes
    }
    schemes = list(dict.fromkeys(scheme for _, scheme in values))
    table = Table(title, schemes)
    for kernel in dict.fromkeys(kernel for kernel, _ in values):
        table.add_row(kernel, *(values[kernel, s] for s in schemes))
    return table


def scaling_report(result: Any) -> str:
    """A campaign result of ``ring`` cells (``grids.scaling_grid``) as
    ``repro scaling`` prints it: per rank count, one row per scheme and
    connection mode; then every cell's pinned vbuf memory, one column per
    rank count (Table 2 at scale)."""
    cells = {(out.spec.params["nodes"], out.spec.params["scheme"],
              out.spec.params["on_demand"]): out.metrics
             for out in result.outcomes}
    ranks = sorted({r for r, _, _ in cells})
    schemes = list(dict.fromkeys(scheme for _, scheme, _ in cells))
    parts = []
    for r in ranks:
        table = Table(f"Ring on {r} ranks (fat-tree)",
                      ["connections", "posted_buffers", "time_us"])
        for scheme in schemes:
            for on_demand, mode in ((False, "full mesh"), (True, "on-demand")):
                m = cells[r, scheme, on_demand]
                table.add_row(f"{scheme} {mode}", m["connections"],
                              m["posted_buffers"], m["elapsed_us"])
        parts.append(table.render())
    memory = Table("Pinned buffer memory vs rank count (Table 2 at scale)",
                   [f"{r} ranks (MB)" for r in ranks])
    for scheme in schemes:
        for on_demand, mode in ((False, "mesh"), (True, "on-demand")):
            memory.add_row(f"{scheme} {mode}", *(
                f"{cells[r, scheme, on_demand]['pinned_bytes'] / (1024.0 * 1024.0):.2f}"
                for r in ranks))
    parts.append(memory.render())
    parts.append("Buffer memory scales with the communication graph, not P^2 —\n"
                 "the paper's conclusion, demonstrated beyond its 8-node testbed.")
    return "\n\n".join(parts)
