"""The eager message's call budget: Python frames per blocking 4-byte
message, by layer (DESIGN §5.2).

The per-message twin of ``test_mesh_setup``'s bytes-per-connection guard.
Frame counts are deterministic, so the ceilings sit just above what the
code does today — a helper frame, a keyword constructor or a per-yield
allocation added to the fast path fails here, by name, before any
wall-clock benchmark could resolve it.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from tests.mpi_helpers import run2

SRC = str(Path(repro.__file__).parent) + "/"


def _stream(n):
    def prog(mpi):
        for _ in range(n):
            if mpi.rank == 0:
                yield from mpi.send(1, size=4)
            else:
                yield from mpi.recv(source=0, capacity=4)

    return prog


def _frames(n):
    """Python ``call`` events of one 2-rank job of ``n`` blocking
    send/recv pairs, keyed by (file, qualified name)."""
    calls = Counter()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[code.co_filename, code.co_qualname] += 1

    sys.setprofile(hook)
    try:
        run2(_stream(n), "static", 100)
    finally:
        sys.setprofile(None)
    return calls


@pytest.fixture(scope="module")
def per_message():
    """Marginal frames per message, ``(N=400 − N=200) / 200`` messages:
    set-up, teardown and first-use allocation cancel out."""
    small, large = _frames(200), _frames(400)
    return {key: (large[key] - small[key]) / 200 for key in large}


def _layer(per_message, sub=""):
    return sum(v for (path, _), v in per_message.items()
               if path.startswith(SRC + sub))


def test_frames_per_message_by_layer(per_message):
    assert _layer(per_message, "ib/") <= 36
    assert _layer(per_message, "mpi/") <= 66
    assert _layer(per_message) <= 140


def test_no_timeout_is_constructed_per_message(per_message):
    built = sum(v for (path, name), v in per_message.items()
                if path.endswith("sim/waitables.py") and name == "Timeout.__init__")
    assert built == 0


def test_dispatch_enters_no_python_level_enum_code(per_message):
    assert [key for key, v in per_message.items()
            if v and key[0].endswith("/enum.py")] == []
