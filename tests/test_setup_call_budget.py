"""A mesh connection's call budget: Python frames per connection that
``Cluster.launch`` wires, by layer and scheme (DESIGN §6.4).

The set-up twin of ``test_call_budget``'s frames per eager message.  A
full mesh is P*(P-1) connections, so the per-connection chain — create and
connect the QP, ``Connection``, ``add_connection``, the scheme's
``setup_connection``, the pre-post through ``refill_recv_buffers`` →
``_post_recv_vbuf`` → ``post_recv`` — is set-up time.  Frame counts are
deterministic, so the ceilings are the counts: a helper, a property or a
scheme override added to the chain fails here, by name, before a
wall-clock benchmark could resolve it.
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
SIZES = (8, 16, 24)  # equally spaced: the second difference is 2 * 8**2 connections


def _frames(nranks, scheme):
    """Python ``call`` events of one ``launch`` of an ``nranks`` mesh,
    keyed by (file, qualified name)."""
    cluster = Cluster(TestbedConfig(nodes=nranks))
    scheme = make_scheme(scheme)
    calls = Counter()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[code.co_filename, code.co_qualname] += 1

    # An earlier test's garbage — a suspended program closing into
    # mpi/ generator frames — would otherwise finalize whenever a pass
    # happens to fall inside the launch, counting frames that are not its own.
    gc.collect()
    sys.setprofile(hook)
    try:
        cluster.launch(nranks, scheme, 1, on_demand=False)
    finally:
        sys.setprofile(None)
    return calls


@pytest.fixture(scope="module", params=["hardware", "static", "dynamic", "rdma-eager"])
def per_connection(request):
    """Frames per connection, exactly: the marginal between two mesh sizes
    is P*(P-1) connections plus the per-rank frames (endpoint, CQ, pool,
    ...), and the second difference over three equally spaced sizes
    cancels everything linear in P — the ranks — and the per-job constant."""
    a, b, c = (_frames(n, request.param) for n in SIZES)
    step = SIZES[1] - SIZES[0]
    return request.param, {key: (c[key] - 2 * b[key] + a[key]) / (2 * step * step)
                           for key in c}


def _layer(per_connection, sub=""):
    return sum(v for (path, _), v in per_connection.items()
               if path.startswith(SRC + sub))


#: (ib, mpi, core, everything under src/repro) per mesh connection
CEILINGS = {
    "hardware": (4, 4, 1, 9),
    "static": (4, 4, 1, 9),
    "dynamic": (4, 4, 1, 9),
    # + the ring: two MRs' registration, the channel, a slot-count lookup
    "rdma-eager": (7, 8.5, 2, 17.5),
}


def test_frames_per_mesh_connection_by_layer(per_connection):
    scheme, frames = per_connection
    ib, mpi, core, total = CEILINGS[scheme]
    assert _layer(frames, "ib/") <= ib
    assert _layer(frames, "mpi/") <= mpi
    assert _layer(frames, "core/") <= core
    assert _layer(frames, "cluster/") == 0  # the mesh loop itself is not a frame
    assert _layer(frames) <= total
