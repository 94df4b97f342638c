"""A plain job loads only the code it runs (DESIGN §6.7): a disarmed
subsystem, an unused NAS kernel and the campaign runner stay unimported.

Each check runs in a fresh interpreter, so what this process has imported
already cannot hide a load.
"""

import os
import subprocess
import sys

import pytest

#: what neither the performance ledger's imports nor a plain job load
UNUSED = [
    "repro.ft.manager", "repro.recovery.manager", "repro.check", "repro.faults",
    "repro.congestion", "repro.ib.fattree", "repro.mpi.rdma_channel", "repro.mpi.comm",
    "repro.campaign.runner", "repro.campaign.cache", "repro.workloads.microbench",
    *(f"repro.workloads.nas.{kernel}" for kernel in ("is_", "ft", "cg", "mg", "adi")),
]

PRELUDE = f"""
import sys
UNUSED = {UNUSED!r}
def loaded():
    return {{name for name in sys.modules if name.split(".")[0] == "repro"}}
def ring(mpi):  # point-to-point, a collective, and the finalize barrier
    nxt, prv = (mpi.rank + 1) % mpi.world_size, (mpi.rank - 1) % mpi.world_size
    req = yield from mpi.irecv(prv, capacity=64)
    yield from mpi.send(nxt, size=4)
    yield from mpi.wait(req)
    yield from mpi.allreduce(size=8)
"""


def _child(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", PRELUDE + code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_the_ledgers_imports_load_no_subsystem_kernel_or_runner():
    _child("""
import repro.cluster, repro.campaign
from repro.workloads.nas import lu
assert not loaded() & set(UNUSED), sorted(loaded() & set(UNUSED))
""")


def test_a_plain_job_loads_nothing_its_launch_did_not():
    # the ring channel loads at launch for the ring scheme, the connection
    # manager at launch on demand: nothing is first imported inside a run
    _child("""
from repro.cluster import Cluster, TestbedConfig, run_job
from repro.core import make_scheme
for scheme in ("hardware", "static", "dynamic", "rdma-eager"):
    for on_demand in (False, True):
        cluster = Cluster(TestbedConfig(nodes=4))
        cluster.launch(4, make_scheme(scheme), 4, on_demand=on_demand)
        before = loaded()
        run_job(ring, 4, scheme, 4, cluster=cluster)
        assert loaded() == before, (scheme, on_demand, sorted(loaded() - before))
stray = loaded() & set(UNUSED) - {"repro.mpi.rdma_channel"}
assert not stray, sorted(stray)
""")


@pytest.mark.parametrize("keyword, manager", [
    ("ft", "repro.ft.manager"), ("recovery", "repro.recovery.manager")])
def test_arming_a_subsystem_loads_its_manager(keyword, manager):
    _child(f"""
from repro.cluster import TestbedConfig, run_job
assert {manager!r} not in loaded()
run_job(ring, 4, "static", 4, config=TestbedConfig(nodes=4), {keyword}=True)
assert {manager!r} in loaded()
""")
