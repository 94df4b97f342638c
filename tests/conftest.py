"""Test-suite settings.

The ``ci`` hypothesis profile makes the property tests reproduce: examples
are derived from each test's name rather than drawn at random, no example
is failed for its wall-clock time (CI runners are slower and noisier than a
workstation), and a failure prints the blob that replays it.  CI's tier-1
step selects it with ``--hypothesis-profile=ci``; a plain ``pytest`` keeps
hypothesis's own default.  Interpreters without hypothesis (CI's floor job
installs only pytest) skip the registration.
"""

try:
    from hypothesis import settings
except ImportError:  # pragma: no cover - the floor job
    pass
else:
    settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
