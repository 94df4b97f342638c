"""One implementation of each thing: pins that duplicate paths stay gone."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.ib import fabric
from repro.ib.fattree import FatTreeFabric

SRC = Path(repro.__file__).parent


def test_fat_tree_reuses_the_fabric_timing_model():
    # link reservation and control-path latency live on Fabric alone; the
    # fat tree only says which links a route takes
    assert "transmit" not in vars(FatTreeFabric)
    assert "control_path_ns" not in vars(FatTreeFabric)
    assert "path_links" in vars(FatTreeFabric)
    assert "path_links" in vars(fabric.Fabric)


def test_one_delivery_train_class():
    trains = [name for name, obj in vars(fabric).items()
              if inspect.isclass(obj) and "train" in name.lower()]
    assert trains == ["_Train"]


def test_kernel_internals_stay_in_the_kernel():
    """The calendar queue's private layout is open-coded only where a call
    per event was measured to matter."""
    private = re.compile(r"\b_SHIFT\b|\b_MASK\b|\bsim\._(?:buckets|active|over)\b")
    allowed = {"sim/engine.py", "sim/process.py", "ib/fabric.py"}
    users = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if private.search(path.read_text())
    }
    assert users <= allowed


def test_legacy_perf_harness_is_gone(capsys):
    legacy = "perf"  # superseded by benchmarks/ledger/bench.py
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(f"repro.{legacy}")
    assert main([legacy]) == 2  # like any unknown subcommand
    assert "invalid choice" in capsys.readouterr().err
