"""Append one row to the performance history, ``BENCH_history.json``.

Runs the ledger (``benchmarks/ledger/bench.py --repeats 3 --seed 7``) on a
checkout and appends, never rewrites: the commit, date, host and repeats,
and per workload its five end-to-end values, its ``sim_digest`` and its
failed-check count.  Stdlib only::

    python3 tools/bench_row.py                   # this checkout
    python3 tools/bench_row.py --checkout DIR    # another commit's checkout
"""

import argparse
import datetime
import json
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
HISTORY = ROOT / "BENCH_history.json"
REPEATS = 3  # every row is measured the same way, so any two rows compare
METRICS = ("run_s", "setup_s", "peak_rss_mib", "sim_events", "sim_elapsed_us")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", type=pathlib.Path, default=ROOT)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as out:
        cmd = [sys.executable, "benchmarks/ledger/bench.py", "--repeats", str(REPEATS),
               "--seed", "7", "--out", out]
        code = subprocess.run(cmd, cwd=args.checkout, stdout=subprocess.DEVNULL).returncode
        ledger = json.loads((pathlib.Path(out) / "ledger.json").read_text())
    # a tree with uncommitted changes reads "<HEAD>-dirty": the change over HEAD
    commit = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                            cwd=args.checkout, check=True, capture_output=True,
                            text=True).stdout.strip()
    row = {"commit": commit, "date": datetime.date.today().isoformat(),
           "host": ledger["host"], "repeats": REPEATS, "seed": ledger["seed"],
           "workloads": {name: {"end_to_end": {m: e["end_to_end"][m]["value"] for m in METRICS},
                                "sim_digest": e["sim_digest"],
                                "failed_checks": e["checks"]["failed"]}
                         for name, e in ledger["workloads"].items()}}
    rows = json.loads(HISTORY.read_text()) if HISTORY.exists() else []
    HISTORY.write_text(json.dumps(rows + [row], indent=1) + "\n")
    print(f"appended {commit[:12]} to {HISTORY} (row {len(rows) + 1})")
    return code


if __name__ == "__main__":
    sys.exit(main())
