"""A static-mesh pair's call budget: Python frames per connection its first
touch wires, by layer and scheme (DESIGN §6.4).

The set-up twin of ``test_call_budget``'s frames per eager message.
``Cluster.launch`` wires nothing; a pair is wired when first touched, by
one chain — ``Cluster.wire`` and ``Cluster.connect`` (the function that
builds every pair, on demand too), create each half's QP (and its
``Requester``) at its reserved number, ``Connection`` (and its
``ConnStats``), ``add_connection`` → ``_set_up`` → the scheme's
``setup_connection``, then the bring-up ``Cluster._bring_up`` that
recovery's ``reset_pair`` shares: connect the QPs, the pre-post through
``post_setup_buffers`` → ``post_recv``.  An all-to-all job runs it P*(P-1)/2
times.  Frame counts are deterministic, so the ceilings are the counts: a
helper, a property or a scheme override added to the chain fails here, by
name, before a wall-clock benchmark could resolve it.
"""

import gc
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.cluster import Cluster, TestbedConfig
from repro.core import make_scheme

SRC = str(Path(repro.__file__).parent) + "/"
NRANKS = 12


def _frames_per_connection(scheme):
    """Python ``call`` events of first touches on an ``NRANKS`` mesh, per
    connection (two per pair), keyed by (file, qualified name)."""
    cluster = Cluster(TestbedConfig(nodes=NRANKS))
    cluster.launch(NRANKS, make_scheme(scheme), 1, on_demand=False)
    eps = cluster.endpoints
    # every rank's receive descriptor is built (a per-peer cost, not a
    # pair's): the remaining pairs run nothing but the chain
    for r in range(0, NRANKS, 2):
        cluster.wire(eps[r], r + 1)
    pairs = [(a, b) for a in range(NRANKS) for b in range(a + 1, NRANKS)
             if b not in eps[a].connections]
    calls = Counter()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[code.co_filename, code.co_qualname] += 1

    # An earlier test's garbage — a suspended program closing into
    # mpi/ generator frames — would otherwise finalize whenever a pass
    # happens to fall inside the count, counting frames that are not its own.
    gc.collect()
    sys.setprofile(hook)
    try:
        for a, b in pairs:
            cluster.wire(eps[a], b)
    finally:
        sys.setprofile(None)
    assert all(len(ep.connections) == NRANKS - 1 for ep in eps)
    return {key: n / (2 * len(pairs)) for key, n in calls.items()}


@pytest.fixture(scope="module", params=["hardware", "static", "dynamic", "rdma-eager"])
def per_connection(request):
    return request.param, _frames_per_connection(request.param)


def _layer(per_connection, sub=""):
    return sum(v for (path, _), v in per_connection.items()
               if path.startswith(SRC + sub))


#: (ib, mpi, core, cluster, everything under src/repro) per connection.  Two
#: of the ib frames build the QP's ``Requester`` (its ``__init__`` and
#: ``transport.arm``); ib was 4 while a QP that had not sent shared one idle
#: requester.  The counts sit below the ceilings (ib 6, cluster 1.5, total
#: 12.5; rdma-eager 9, mpi 7.5, total 20)
CEILINGS = {
    "hardware": (8, 4, 1, 2, 15),
    "static": (8, 4, 1, 2, 15),
    "dynamic": (8, 4, 1, 2, 15),
    # + the ring: its region registered at its reserved number, the
    # channel and its ring, the other ring's coordinates, a slot-count lookup
    "rdma-eager": (11, 8.5, 2, 2, 23.5),
}


def test_frames_per_mesh_connection_by_layer(per_connection):
    scheme, frames = per_connection
    ib, mpi, core, cluster, total = CEILINGS[scheme]
    assert _layer(frames, "ib/") <= ib
    assert _layer(frames, "mpi/") <= mpi
    assert _layer(frames, "core/") <= core
    assert _layer(frames, "cluster/") <= cluster
    assert _layer(frames) <= total
