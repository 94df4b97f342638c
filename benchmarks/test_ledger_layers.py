"""Which layers a quick ledger run traced, with the mesh's QP count as a
static mesh now builds it: a pair at its first touch.

``benchmarks/ledger/test_bench.py::test_trace_shows_which_layers_ran``
still pins the quick mesh's ``ib.create_qp_n`` at ``64 * 63``, every pair
of the 64-rank mesh built at launch; the ring touches one pair a rank and
its wiring builds both QPs of it, ``2 * 64``.  Until that test is restated
in the ledger's own suite, CI deselects it there and runs this one (one
quick ledger, ~30 s):

    PYTHONPATH=src python -m pytest benchmarks/test_ledger_layers.py -q
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent / "ledger"))

import bench  # noqa: E402
import manifest  # noqa: E402
import workloads  # noqa: E402


def test_trace_shows_which_layers_ran(tmp_path):
    assert bench.main(["--quick", "--seed", "7", "--out", str(tmp_path)]) == 0
    ledger = json.loads((tmp_path / "ledger.json").read_text())
    per_layer = {n: ledger["workloads"][n]["per_layer"] for n in manifest.WORKLOADS}
    for layer in ("check", "recovery", "ft", "congestion"):
        assert per_layer["nas_lu8"][f"{layer}.calls"] == 0
    for layer in ("check", "ft", "congestion"):
        assert per_layer["armed_lu8"][f"{layer}.calls"] > 0
    assert per_layer["scale1024_od"]["cluster.on_demand_requests"] > 0
    mesh_ranks = workloads.make_inputs("mesh_build256", 7, "quick")["nranks"]
    assert per_layer["mesh_build256"]["ib.create_qp_n"] == 2 * mesh_ranks
    assert per_layer["mesh_build256"]["cluster.connections"] == mesh_ranks * (mesh_ranks - 1)
    assert per_layer["paper_figs"]["cluster.launch_n"] == 165
    assert per_layer["paper_figs"]["campaign.cache_hits"] == 165
    assert per_layer["paper_figs"]["mpi.host_ns_4B"] > per_layer["paper_figs"][
        "ib.fabric_ns_4B"] > 0
