"""MPI-style constants."""

from __future__ import annotations

from types import MappingProxyType

#: Wildcard source for receives.
ANY_SOURCE = -1

#: Wildcard tag for receives.
ANY_TAG = -1

#: Upper bound for user tags; collectives use the space above it.
TAG_UB = 1 << 20

#: Context id of the world communicator.
WORLD_CONTEXT = 0

#: Internal tag base for collective operations (outside the user range).
COLL_TAG_BASE = TAG_UB + 1

#: A read-only empty mapping: what a per-rank table that most jobs never
#: fill holds until its first entry, when its one write site makes a dict.
NO_ENTRIES = MappingProxyType({})
