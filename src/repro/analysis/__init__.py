"""Result collection, rendering and run forensics for the harness."""

from repro.analysis.report import (
    Figure,
    Series,
    Table,
    congestion_table,
    memory_table,
    pct_change,
    scheme_figure,
    scheme_table,
)
from repro.analysis.timeline import (
    PairTraffic,
    fabric_utilisation,
    flow_control_timeline,
    rank_activity,
)

__all__ = [
    "Figure",
    "PairTraffic",
    "Series",
    "Table",
    "congestion_table",
    "fabric_utilisation",
    "flow_control_timeline",
    "memory_table",
    "pct_change",
    "rank_activity",
    "scheme_figure",
    "scheme_table",
]
