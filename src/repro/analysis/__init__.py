"""Result collection, rendering and run forensics for the harness."""

from repro.analysis.report import (
    Figure,
    Series,
    Table,
    pct_change,
    scaling_report,
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
    "fabric_utilisation",
    "flow_control_timeline",
    "pct_change",
    "rank_activity",
    "scaling_report",
    "scheme_figure",
    "scheme_table",
]
