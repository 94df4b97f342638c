"""One implementation of each thing: pins that duplicate paths stay gone."""

import ast
import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.ib import fabric
from repro.ib.fattree import FatTreeFabric

SRC = Path(repro.__file__).parent


def _src(rel):
    return (SRC / rel).read_text()


def _modules_matching(pattern):
    """Source modules (relative to ``src/repro``) the regex occurs in."""
    rx = re.compile(pattern)
    return {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if rx.search(path.read_text())
    }


def test_fat_tree_reuses_the_fabric_timing_model():
    # link reservation and control-path latency live on Fabric alone; the
    # fat tree only says which links a route takes
    assert "transmit" not in vars(FatTreeFabric)
    assert "control_path_ns" not in vars(FatTreeFabric)
    assert "path_links" in vars(FatTreeFabric)
    assert "path_links" in vars(fabric.Fabric)
    # ... and a route is resolved once per pair: the transmit path reaches
    # the fat tree only on a table miss, and no second path memo is kept
    assert not hasattr(FatTreeFabric, "_route")
    for fn in (fabric.Fabric.transmit, fabric.Fabric.send_control):
        called = set(re.findall(r"self\.(\w+)\(", inspect.getsource(fn)))
        assert called & set(vars(FatTreeFabric)) == {"_resolve"}, fn.__name__
        assert "or self._resolve(" in inspect.getsource(fn)
    assert not re.search(r"_path_cache|link_msgs\[", _src("ib/fattree.py"))


def test_the_fabric_keeps_no_delivery_trains():
    # every delivery is its own agenda entry under its (arrival, seq) key
    assert not re.search("train", _src("ib/fabric.py"), re.IGNORECASE)


def test_the_fabric_schedules_only_through_the_simulators_api():
    src = _src("ib/fabric.py")
    assert not re.search(r"^\s*(?:from|import)\s+(?:heapq|bisect|collections)\b", src, re.MULTILINE)
    assert set(re.findall(r"\bsim\.(\w+)\(", src)) == {"call_at"}


def test_kernel_internals_stay_in_the_kernel():
    """The agenda's layout is private to ``repro.sim``: outside engine.py
    only the ``Timeout`` wakeup in process.py pushes onto the heap (measured
    to matter, DESIGN §5.1) — at one site — and the same-instant FIFO that
    measurement kept is engine.py's alone."""
    assert _modules_matching(r"\bsim\._[a-z]") <= {"sim/engine.py", "sim/process.py"}
    assert _src("sim/process.py").count("heappush(") == 1
    assert _modules_matching(r"\b_now_q\b") == {"sim/engine.py"}
    gone = (r"\b_SHIFT\b|\b_MASK\b|\b_NBUCKETS\b|\binsort\b"
            r"|\b_buckets\b|\b_over\b|\b_c?trains\b")
    assert _modules_matching(gone) == set()


def test_the_agenda_has_one_entry_shape_and_only_the_qp_keeps_handles():
    """Every agenda entry is a ``(time, seq, callback, args)`` tuple and
    ``cancel()`` removes a handle's entry at once: the lazy-cancel and
    compaction machinery stays gone, and the only handles the simulator
    builds are the queue pair's RNR and ACK timers."""
    assert _modules_matching(r"\.schedule\(") == {"ib/qp.py"}
    gone = r"\bschedule_at\b|\b_compact\b|\b_cancelled_pending\b|len\(e\) == 3"
    assert _modules_matching(gone) == set()
    assert _modules_matching(r"\bScheduledEvent\b") <= {
        "sim/engine.py", "sim/__init__.py"}


def test_legacy_perf_harness_is_gone(capsys):
    legacy = "perf"  # superseded by benchmarks/ledger/bench.py
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(f"repro.{legacy}")
    assert main([legacy]) == 2  # like any unknown subcommand
    assert "invalid choice" in capsys.readouterr().err


# ----------------------------------------------------------------------
# one path per protocol event in the MPI endpoint
# ----------------------------------------------------------------------
def test_one_post_site_and_no_replay_twins():
    from repro.mpi.endpoint import Endpoint

    assert _src("mpi/endpoint.py").count("SendWR(") == 1
    assert [name for name in vars(Endpoint) if name.startswith("_replay_")] == []


@pytest.mark.parametrize("hook, sites", [
    ("on_emit", 1), ("on_deliver", 1), ("on_grant", 1),
    ("on_grow", 1), ("on_consume", 1), ("on_send_done", 1),
    ("on_app_send", 1), ("on_post_recv", 1), ("on_ring_free", 1),
    ("on_swallow", 1), ("on_backlog_enqueue", 1),
    # distinct events: arrival vs. late irecv; drained vs. converted to fallback
    ("on_match", 2), ("on_backlog_dequeue", 2),
])
def test_each_audit_hook_fires_from_one_place_per_event(hook, sites):
    assert _src("mpi/endpoint.py").count(f"observer.{hook}(") == sites


#: seam events DESIGN §5 fires from more than one site: arrival vs. late
#: irecv; drained vs. converted to the fallback; the five sources of a
#: legitimate stall (a fault plan, an injected death, a detector round, a
#: recovery backoff, a dropped packet's retry)
SEAM_SITES = {"on_match": 2, "on_backlog_dequeue": 2, "on_quiet": 5}


def _is_slot(node):
    """The receiver of a seam event: a layer's slot, or a local bound to it."""
    return (isinstance(node, ast.Name) and node.id == "obs"
            or isinstance(node, ast.Attribute) and node.attr == "observer")


def test_the_observer_seam_is_the_one_way_to_the_auditor():
    """DESIGN §5: the event table (``repro.cluster.builder.EVENTS``) is the
    interface, every event fires from its sites and through a layer's slot,
    and outside ``repro.check`` only arming names the auditor."""
    from repro.cluster.builder import EVENTS

    outside = sorted(p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py")
                     if not p.relative_to(SRC).as_posix().startswith("check/"))
    fired = dict.fromkeys(EVENTS, 0)
    for rel in outside:
        for node in ast.walk(ast.parse(_src(rel))):
            if isinstance(node, ast.Attribute):
                # the three hand-threaded attachment fields are gone
                assert node.attr not in ("auditor", "_audit"), (rel, node.lineno)
                assert node.attr != "Auditor" or rel == "cluster/arming.py", rel
                if node.attr in fired:
                    fired[node.attr] += 1
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in EVENTS:
                assert _is_slot(node.func.value), (rel, node.lineno)
            elif isinstance(node, (ast.Name, ast.alias)):
                name = node.id if isinstance(node, ast.Name) else node.name
                assert name != "Auditor" or rel == "cluster/arming.py", rel
    assert fired == {event: SEAM_SITES.get(event, 1) for event in EVENTS}
    assert not re.search(r"\.audit\b", _src("congestion/switch.py"))


@pytest.mark.parametrize("pattern, owners", [
    # the MR initialises its own hook to None; the ring channel installs it
    (r"\.on_write = ", {"ib/mr.py", "mpi/rdma_channel.py"}),
    (r"tx_addr = ", {"mpi/rdma_channel.py"}),
    (r"cq\._entries = ", set()),  # CompletionQueue rebinds its own self._entries
    (r"\._waiter = ", {"ib/cq.py"}),  # only the CQ parks and wakes its consumer
    # the endpoint executes an errored completion's verdict (classify) and
    # severs a dead peer itself: ft and recovery read none of its privates
    (r"\b(_reclaim_error_wc|_conn_of|_backlogged)\b", {"mpi/endpoint.py"}),
    (r"\b_rndv_(send|recv)\b", {"mpi/endpoint.py", "check/auditor.py"}),
    (r"on_error_wc", set()),
], ids=["on_write", "tx_ring", "cq_entries", "cq_notify",
        "error_wc_internals", "rndv_tables", "on_error_wc"])
def test_managers_do_not_open_code_internals(pattern, owners):
    assert _modules_matching(pattern) <= owners


def test_a_blocked_rank_waits_only_on_its_cq():
    # a ring deposit and an ft declaration wake it through CompletionQueue.wake
    assert not re.search(r"\bAnyOf\b|_ring_notify", _src("mpi/endpoint.py"))


# ----------------------------------------------------------------------
# the eager ring has one owner, growth one protocol, a send one record
# ----------------------------------------------------------------------
def test_retired_ring_and_credit_update_names_are_gone():
    gone = (r"use_rdma_channel|RING_RESIZE|e2e_credit_updates|_advertised_zero"
            r"|_send_ctx|_ctx_ids|_conn_for_qp|_handle_resize")
    assert _modules_matching(gone) == set()


def test_a_connection_has_one_ring_field_filled_at_one_site():
    from repro.mpi.connection import Connection

    slots = set(Connection.__slots__)
    assert "ring" in slots
    assert not slots & {"rdma_eager", "tx_ring_addr", "tx_ring_rkey",
                        "tx_ring_slots", "tx_ring_next", "rx_channel", "cq_stash"}
    # built at set-up alone (Endpoint._set_up), and only the scheme says whether
    assert _modules_matching(r"RDMAChannel\(") == {"mpi/endpoint.py"}
    assert _src("mpi/endpoint.py").count("RDMAChannel(") == 1
    assert "self._ring_mode = scheme.uses_ring\n" in _src("mpi/endpoint.py")


def test_five_message_kinds_five_handlers_one_growth_tail():
    from repro.mpi.endpoint import Endpoint
    from repro.mpi.protocol import MsgKind
    from repro.mpi.rdma_channel import RDMAChannel, RingBuffer

    # one dispatch in _deliver, over the kinds the protocol decides
    assert len(MsgKind) == 5
    deliver = inspect.getsource(Endpoint._deliver)
    assert all(f"MsgKind.{k.name}" in deliver for k in MsgKind)
    assert not hasattr(Endpoint, "_HANDLERS")
    # nothing grows a ring: the arrival path acts on ``grown`` alone, and
    # the release step drains whichever channel carried the message
    assert not hasattr(RDMAChannel, "grow")
    assert "generation" not in RingBuffer.__slots__ + RDMAChannel.__slots__
    assert deliver.count("if grown:") == 1 and "if h.via_ring" not in deliver
    release = inspect.getsource(Endpoint._release)
    assert "if conn.backlog:\n" in release and "conn.backlog and" not in release


def test_the_send_record_rides_the_work_request():
    from repro.mpi.endpoint import Endpoint

    # no table between _post and the completion: what goes in as wr_id is
    # what _handle_send_done reads back ...
    assert "SendWR(record," in inspect.getsource(Endpoint._post)
    assert "wc.wr_id" in inspect.getsource(Endpoint._handle_send_done)
    # ... and no walk over the connection table for an errored completion
    conn_of = inspect.getsource(Endpoint._conn_of)
    assert not re.search(r"^\s*(for|while)\b", conn_of, re.M)


# ----------------------------------------------------------------------
# the credit protocol is one sim-free module; the endpoint and the recovery
# manager only execute it
# ----------------------------------------------------------------------
CREDIT_FIELDS = {"credits", "pending_credit_return", "fallback_inflight",
                 "prepost_target", "swallow_debt"}


def _assigned_attributes(rel):
    """``(attribute, line)`` for every ``x.attribute`` an assignment or an
    augmented assignment in module ``rel`` writes."""
    def attrs(target):
        if isinstance(target, (ast.Tuple, ast.List)):
            return [a for elt in target.elts for a in attrs(elt)]
        return [target.attr] if isinstance(target, ast.Attribute) else []

    found = []
    for node in ast.walk(ast.parse(_src(rel))):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        found += [(a, node.lineno) for t in targets for a in attrs(t)]
    return found


@pytest.mark.parametrize("module", ["mpi/endpoint.py", "recovery/manager.py"])
def test_the_executors_hold_no_credit_arithmetic(module):
    assert [(attr, line) for attr, line in _assigned_attributes(module)
            if attr in CREDIT_FIELDS] == []


def _banned_imports(rel, banned):
    """What module ``rel`` imports (``from m import n`` counts as ``m`` and
    ``m.n``) from under any of the ``banned`` packages."""
    imported = set()
    for node in ast.walk(ast.parse(_src(rel))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    return [m for m in imported if any(m == b or m.startswith(b + ".") for b in banned)]


def test_the_credit_protocol_imports_no_simulator_verbs_or_endpoint():
    banned = ("repro.sim", "repro.ib", "repro.mpi.endpoint")
    assert _banned_imports("core/credit.py", banned) == []


def test_the_message_protocol_is_sim_free_and_the_endpoint_only_executes_it():
    """DESIGN §5.4: arrival order, matching and the rendezvous states are
    functions of ``mpi/protocol.py`` and ``mpi/rendezvous.py`` that read no
    simulator, verbs object or endpoint; the endpoint builds no rendezvous
    op and moves no arrival sequence of its own."""
    from repro.mpi import protocol, rendezvous

    for module, names in ((protocol, ("in_order", "unpark", "ring_next", "match")),
                          (rendezvous, ("choose", "rts", "cts", "fin", "land", "finish"))):
        assert all(inspect.isfunction(getattr(module, n, None)) for n in names)
    banned = ("repro.sim", "repro.ib.qp", "repro.ib.hca", "repro.ib.fabric",
              "repro.ib.cq", "repro.mpi.endpoint")
    for rel in ("mpi/protocol.py", "mpi/rendezvous.py"):
        assert _banned_imports(rel, banned) == [], rel
    built = {node.func.id for node in ast.walk(ast.parse(_src("mpi/endpoint.py")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert not built & {"RndvSendOp", "RndvRecvOp"}
    assert [line for attr, line in _assigned_attributes("mpi/endpoint.py")
            if attr == "seq_in_expected"] == []


@pytest.mark.parametrize("hook", ["try_consume_credit", "on_credits_received",
                                  "on_recv_header", "should_send_ecm"])
def test_the_schemes_keep_policy_and_no_transition(hook):
    from repro.core import EXTENDED_SCHEMES, make_scheme

    for name in EXTENDED_SCHEMES:
        assert not hasattr(make_scheme(name), hook), (name, hook)


# ----------------------------------------------------------------------
# a connection costs what its state needs (an all-to-all job wires P*(P-1))
# ----------------------------------------------------------------------
def test_per_connection_objects_carry_no_instance_dict():
    from repro.cluster import Cluster, TestbedConfig
    from repro.core import make_scheme

    cluster = Cluster(TestbedConfig(nodes=2))
    cluster.launch(2, make_scheme("dynamic"), 1, on_demand=False)
    cluster.wire(cluster.endpoints[0], 1)
    conn = cluster.endpoints[0].connections[1]
    for obj in (conn, conn.qp, conn.stats):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
    with pytest.raises(AttributeError):
        conn.not_a_field = 1  # scheme state is declared, not patched on


def test_an_endpoint_carries_no_instance_dict():
    from repro.cluster import Cluster, TestbedConfig
    from repro.core import make_scheme
    from repro.mpi.endpoint import Endpoint

    assert hasattr(Endpoint, "__slots__")
    cluster = Cluster(TestbedConfig(nodes=2))
    ep = cluster.launch(2, make_scheme("dynamic"), 1, on_demand=True)[0]
    assert not hasattr(ep, "__dict__")
    with pytest.raises(AttributeError):
        ep.not_a_field = 1  # subsystem hooks are declared, not patched on


def test_a_queue_pair_holds_only_per_connection_state():
    from repro.ib.hca import HCA
    from repro.ib.qp import QueuePair

    # no container with a per-instance block is built for an idle QP
    assert "deque(" not in inspect.getsource(QueuePair.__init__)
    # what is constant per adapter lives on the adapter, once
    shared = {"sq_depth", "rq_depth", "_max_inflight"}
    assert not shared & set(QueuePair.__slots__)
    hca_init = inspect.getsource(HCA.__init__)
    assert all(f"self.{name} = " in hca_init for name in shared)


def test_a_fifo_that_configuration_bounds_is_a_list():
    """DESIGN §6.4 *Why a list*: a ``deque``'s first block is 760 B however
    little it holds, and every rank and engaged connection holds several.
    Under ``ib`` and ``mpi`` only the two queues nothing but the application
    bounds are deques, each built at its first-use site."""
    sites = [
        (path.relative_to(SRC).as_posix(), line.strip())
        for layer in ("ib", "mpi")
        for path in sorted((SRC / layer).glob("*.py"))
        for line in path.read_text().splitlines()
        if "deque(" in line
    ]
    assert sites == [
        ("mpi/endpoint.py", "conn.deferred = deque()"),
        ("mpi/endpoint.py", "backlog = conn.backlog = deque()"),
    ]


def test_one_collector_pause_and_one_recv_descriptor_site():
    # Simulator.run and Cluster.launch pause the collector through the
    # same helper
    assert _modules_matching(r"gc\.disable\(") == {"sim/engine.py"}
    assert "type: ignore[attr-defined]" not in _src("core/dynamic.py")
    # a connection's receive descriptor is looked up once, at set-up, not
    # per posted buffer — and built once per (peer, capacity), by the
    # cached factory beside the class, not per connection
    assert _modules_matching(r"\bRecvWR\(") == {"ib/wr.py"}
    assert _src("ib/wr.py").count("RecvWR(") == 2  # the factory's, and __repr__'s
    endpoint = _src("mpi/endpoint.py")
    assert endpoint.count("shared_recv_wr(") == 1
    line = next(l for l in endpoint.splitlines() if "shared_recv_wr(" in l)
    set_up = endpoint[endpoint.index("def _set_up"):]
    set_up = set_up[:set_up.index("\n    def ", 1)]
    assert line in set_up
    assert not re.search(r"^\s*(for|while)\b", set_up, re.M)


def test_the_rc_transport_is_one_sim_free_module():
    """Every RC transition is a function of ``repro.ib.transport`` (DESIGN
    §5.5): it imports no simulator, adapter or fabric; only the queue pair
    and the adapter call it; and a queue pair's transport is armed through
    one method, which the fault injector and the congestion drop call."""
    imported = set()
    for node in ast.walk(ast.parse(_src("ib/transport.py"))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not [m for m in imported
                if m.startswith(("repro.sim", "repro.ib.hca", "repro.ib.fabric"))]
    importers = r"(?m)^\s*(?:from repro\.ib\.transport import|from repro\.ib import .*\btransport\b)"
    assert _modules_matching(importers) == {"ib/qp.py", "ib/hca.py"}
    assert _modules_matching(r"\.arm_transport\(") == {"faults/injector.py",
                                                       "congestion/switch.py",
                                                       "ib/qp.py"}
    for gone in (r"\bset_transport\(", r"enable_transport_retry", r"adopt_fault_transport",
                 r"on_wire_loss", r"reack_stale"):
        assert not _modules_matching(gone), gone


# ----------------------------------------------------------------------
# a job costs what it touched: nothing a job runs every time walks a static
# mesh's whole table, every peer of every rank (tests/test_job_bookkeeping.py
# keeps the full scans as oracles).  The per-job passes walk the wired
# connections and one stand-in a rank for the pairs not wired yet; the
# auditor's sweeps walk every wired connection, idle ones too — pinned by
# tests/test_mesh_setup.py::test_auditor_final_check_walks_idle_connections
# — and the per-connection outputs (per_connection_max_buffers,
# analysis.flow_control_timeline) walk the whole mesh on request, not per job.
# ----------------------------------------------------------------------
def test_no_per_job_pass_scans_the_connection_table():
    from repro.core import memory, stats

    scan = re.compile(r"connection_table\(|range\([\w.]*world_size")
    for fn in (stats.weighted_connections, stats.collect_report,
               memory.collect_memory_report):
        assert not scan.search(inspect.getsource(fn)), fn.__name__
    assert not scan.search(_src("cluster/job.py"))
    # one of each pass: no full-scan variant kept beside it
    passes = {
        name for mod in (stats, memory) for name, fn in vars(mod).items()
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__
        and re.search("collect|reset", name)
    }
    assert passes == {"collect_report", "collect_congestion_report",
                      "collect_memory_report"}


def test_one_site_builds_a_requester_and_arming_builds_none():
    """A QP builds its own requester half when it is created, and keeps it
    for its life (a successor QP builds its own) — DESIGN §6.4.  Arming a subsystem updates
    the requesters that exist."""
    from repro.ib.qp import QueuePair

    built = r"\bRequester\("
    assert _modules_matching(built) == {"ib/qp.py"}
    assert len(re.findall(built, _src("ib/qp.py"))) == 1
    assert re.search(built, inspect.getsource(QueuePair.__init__))
    assert len(re.findall(r"\._req\s*=(?!=)", _src("ib/qp.py"))) == 1  # never replaced
    # read by its queue pair, the adapter's send engine and the transport
    # machine's responder filter and audit (DESIGN §5.5)
    assert not _modules_matching(r"\._req\b") - {"ib/qp.py", "ib/hca.py", "ib/transport.py"}
    # the report and the reset go through the verbs layer's own two calls
    for counter in ("rnr_naks_received", "rnr_naks_sent", "retransmissions",
                    "messages_sent", "messages_delivered"):
        assert not re.search(rf"\.{counter}\b", _src("core/stats.py")), counter


def test_a_pair_comes_into_being_in_one_place():
    """``Cluster.connect`` wires a pair under either wiring and announces it
    to the observers — DESIGN §6.4.  The connection manager keeps the
    handshake and only the exchanges in flight; the auditor binds a pair's
    rows when it is wired, never on a lookup miss."""
    from repro.check.auditor import Auditor
    from repro.cluster import Cluster
    from repro.cluster import on_demand

    connect = inspect.getsource(Cluster.connect)
    for built in (r"create_qp\(", r"\bConnection\("):
        in_cluster = {m for m in _modules_matching(built) if m.startswith("cluster/")}
        assert in_cluster <= {"cluster/builder.py"}, built
        assert len(re.findall(built, _src("cluster/builder.py"))) == len(
            re.findall(built, connect)) > 0, built
    assert not [name for name, obj in vars(on_demand).items()
                if getattr(obj, "__module__", None) == "repro.cluster.builder"]
    assert "__missing__" not in _src("check/auditor.py")
    assert ".connections" not in inspect.getsource(Auditor._bind)
    assert _modules_matching(r"\.on_wired\(") == {"cluster/builder.py", "check/auditor.py"}
    assert "invalidated" not in _src("cluster/on_demand.py")
    # the CM's in-flight exchanges are its own: ft fails them through a method
    assert not _modules_matching(r"(?<!self)\._pending\b")


def test_a_lost_pair_comes_back_on_successor_qps_through_one_bring_up():
    """Recovery re-arms a pair through ``Cluster.reset_pair``, which swaps
    in successor QPs and runs ``connect``'s bring-up; ``recovery/`` touches
    no QP verb, ring or hardware-scheme setting, and nothing in flight
    carries an epoch — DESIGN §6.2."""
    from repro.cluster import Cluster
    from repro.ib.qp import QueuePair, _Message
    from repro.mpi.rdma_channel import RDMAChannel

    ring_methods = [name for name, fn in vars(RDMAChannel).items()
                    if callable(fn) and not name.startswith("__")] + ["wire_rdma_rings"]
    for gone in [r"\.connect\(", r"\.reset\(", r"\.successor\(", r"arm_e2e_gate",
                 r"set_initial_credit_estimate", r"refill_recv_buffers",
                 *(rf"\.{name}\(" for name in ring_methods)]:
        assert not [p for p in (SRC / "recovery").rglob("*.py")
                    if re.search(gone, p.read_text())], gone
    assert _modules_matching(r"\.successor\(") == {"cluster/builder.py"}
    assert len(re.findall(r"\.successor\(", _src("cluster/builder.py"))) == len(
        re.findall(r"\.successor\(", inspect.getsource(Cluster.reset_pair))) == 2
    assert _modules_matching(r"\._bring_up\(") == {"cluster/builder.py"}
    for fn in (Cluster.connect, Cluster.reset_pair):
        assert "self._bring_up(" in inspect.getsource(fn), fn.__name__
    for gone in ("reset", "reestablish"):
        assert not hasattr(QueuePair, gone) and not hasattr(RDMAChannel, gone), gone
    assert "epoch" not in _Message.__slots__
    for name in ("_on_ack", "_on_rnr_nak", "_on_remote_error"):
        assert "epoch" not in inspect.signature(getattr(QueuePair, name)).parameters, name
    assert not re.search(r"epoch", _src("ib/transport.py"))


def test_a_dead_rank_is_a_killed_process_and_a_lost_pair_is_severed():
    """A rank goes away as its process: the fault injector kills it at the
    death, ``run_job`` at job end one ft declared dead while it ran, and the
    endpoint keeps no halt flag or parking signal.  A pair lost with a dead
    rank goes away through ``Endpoint.sever``, which errors the QP and
    reclaims its flushed completions — DESIGN §6.6; ft is its one caller."""
    assert not re.search(r"\b_halted\b|\bhalt\(|\bSignal\(", _src("mpi/endpoint.py"))
    assert _modules_matching(r"(?<!hca)\.kill\(\)") == {"cluster/job.py",
                                                         "faults/injector.py"}
    assert _modules_matching(r"\.sever\(") == {"ft/manager.py"}


# ----------------------------------------------------------------------
# a subsystem arms and reports itself (DESIGN §6.7): run_job loops over the
# job's subsystems, a finished job is read through report(), and the chaos
# chain passes the caller's arming through as one mapping
# ----------------------------------------------------------------------
def test_run_job_names_no_subsystems_private_fields_or_classes():
    src = _src("cluster/job.py")
    for clause in ("._recovery", "._ft", "fabric.fault",
                   "configure_chaos", "Auditor(", "RecoveryManager(",
                   "FTManager(", "FaultInjector(", "SetupChaos("):
        assert clause not in src, clause
    # each subsystem's arm lives in its own module, and nothing else points
    # an attachment field anywhere
    owners = {
        r"\._recovery = ": "recovery/manager.py",
        r"\._ft = ": "ft/manager.py",
        r"fabric\.fault = ": "faults/injector.py",
        r"\._chaos = ": "cluster/on_demand.py",
        r"fault_transport = ": "faults/injector.py",
    }
    for pattern, owner in owners.items():
        built_by = {"mpi/endpoint.py", "ib/hca.py"}  # ... = None, once, at birth
        assert _modules_matching(pattern) - built_by == {owner}, pattern
        assert "def arm(" in set(re.findall(r"def \w+\(", _src(owner)))
    # the observer slots are resolved where observers join
    assert _modules_matching(r"\.observer = ") - {"congestion/switch.py", "mpi/endpoint.py"} == {
        "cluster/builder.py"}
    assert "def observe(" in set(re.findall(r"def \w+\(", _src("cluster/builder.py")))
    assert _modules_matching(r"cluster\.observe\(") == {
        "check/auditor.py", "ft/manager.py"}


def test_a_cluster_runs_one_job():
    """``MPI_Init`` builds a job's connections and ``MPI_Finalize`` ends
    them: nothing takes a subsystem off a cluster, resets a counter or
    tears a pair down between jobs, because ``run_job`` refuses a cluster
    that ran one — before it arms or spawns anything (DESIGN §6.7)."""
    from repro.cluster.job import run_job

    gone = r"def (?:disarm|unobserve|reset_counters|reset_stats|teardown|on_teardown)\("
    assert _modules_matching(gone) == set()
    src = inspect.getsource(run_job)
    refusal = src.index("if cluster.procs:")
    assert "already ran a job" in src[refusal:src.index("\n", src.index("raise", refusal))]
    assert refusal < min(src.index(call) for call in (".arm(", ".spawn("))


def test_only_arming_imports_the_subsystem_managers():
    # a disarmed subsystem is not imported (DESIGN §6.7): the two managers
    # load where a job arms them (tests/test_import_boundary.py runs it)
    manager = r"(?m)^\s*(?:from|import)\s+repro\.(?:ft|recovery)\.manager\b"
    assert _modules_matching(manager) == {"cluster/arming.py"}


def test_a_finished_job_is_read_through_its_report():
    import ast

    handles = {"tracer", "audit", "recovery", "ft", "congestion", "memory",
               "connections_established", "fc_dict"}
    for rel in ("faults/scenarios.py", "campaign/cells.py", "check/fuzz.py", "cli.py"):
        tree = ast.parse(_src(rel))
        results = {  # every name a run_job(...) result is bound to
            target.id
            for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) == "run_job"
            for target in node.targets if isinstance(target, ast.Name)
        }
        read = {
            f"{node.value.id}.{node.attr}"
            for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in results
        }
        assert rel == "cli.py" or results, rel  # the cells do run jobs
        assert not {r for r in read if r.split(".")[1] in handles}, (rel, read)


def test_the_chaos_chain_passes_arming_through_as_one_mapping():
    from repro.campaign import grids
    from repro.faults import scenarios

    chain = {
        "chaos_cell": scenarios.chaos_cell,
        "chaos_report": scenarios.chaos_report,
        "run_chaos": scenarios.run_chaos,
        "chaos_grid": grids.chaos_grid,
    }
    for name, fn in chain.items():
        params = inspect.signature(fn).parameters
        assert not {"recovery", "ft"} & set(params), name
        # the switch model is built into the fabric at Cluster(): only the
        # cell, which builds the config, takes the mode out of the mapping
        assert ("congestion" in params) == (name == "chaos_cell"), name
        assert params["arming"].kind is inspect.Parameter.VAR_KEYWORD
    for src in (inspect.getsource(importlib.import_module("repro.cli")._chaos_axes),
                inspect.getsource(importlib.import_module(
                    "repro.campaign.cells")._chaos_cell)):
        assert not re.search(r"\b(recovery|ft|congestion)\s*=", src)


# ----------------------------------------------------------------------
# an experiment is defined once: one scheme axis, two renderers shared by
# the CLI and the figure suite, one chaos assembler, one --check
# ----------------------------------------------------------------------
ROOT = SRC.parent.parent
REPORT, CLI, CONFTEST = "src/repro/analysis/report.py", "src/repro/cli.py", "benchmarks/conftest.py"


def _files_matching(pattern):
    """Program files — ``src/repro`` and the figure suite, the frozen
    ledger excepted — the regex occurs in, relative to the checkout."""
    assert (ROOT / CONFTEST).exists()
    rx = re.compile(pattern)
    files = [*SRC.rglob("*.py"), *(ROOT / "benchmarks").glob("*.py")]
    return {p.relative_to(ROOT).as_posix() for p in files if rx.search(p.read_text())}


def test_the_scheme_axes_are_derived_once():
    from repro.core import EXTENDED_SCHEME_NAMES, SCHEME_NAMES

    assert SCHEME_NAMES == ("hardware", "static", "dynamic")
    assert EXTENDED_SCHEME_NAMES == SCHEME_NAMES + ("rdma-eager",)
    name = r'"(?:hardware|static|dynamic|rdma-eager)"'
    assert _files_matching(rf"[(\[]\s*{name}\s*,\s*{name}") == set()
    # the figure axes too: one window list, one latency size list
    grids = {"src/repro/campaign/grids.py"}
    assert _files_matching(r"\b1, 2, 4, 8, 16, 32, 64, 100\b") == grids
    assert _files_matching(r"\b4, 16, 64, 256, 1024, 4096, 16384\b") == grids


def test_scheme_figures_and_tables_have_one_renderer_each():
    # a scheme-series Figure and a scheme-column Table are built in
    # analysis/report.py alone; the CLI and the figure suite call it
    assert _files_matching(r"\bFigure\(") == {REPORT}
    assert _files_matching(r"\bTable\([^)]*\b(?:SCHEMES|schemes)\b") == {REPORT}
    assert _files_matching(r"\bscheme_figure\(") == {REPORT, CLI, CONFTEST}
    assert _files_matching(r"\bscheme_table\(") == {
        REPORT, CLI, "benchmarks/test_fig9_nas_pp100.py",
        "benchmarks/test_fig10_nas_degradation.py"}
    assert _files_matching(r"bw_common|nas_common") == set()


def test_the_cli_has_one_check_path_and_one_chaos_assembler():
    import argparse

    from repro import cli
    from repro.faults import scenarios

    # every experiment command is a parser row: cells and a render, run by
    # cmd_experiment
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for name in ("latency", "bandwidth", "nas", "scaling", "chaos"):
        row = sub.choices[name]
        assert row.get_default("fn") is cli.cmd_experiment, name
        assert row.get_default("cells") and row.get_default("render"), name
    checks = re.findall(r"\brun_cells\([^)]*\bcheck=\w+", _src("cli.py"))
    assert checks == [
        re.search(r"\brun_cells\([^)]*\bcheck=\w+", inspect.getsource(cli._run))[0]]
    assert checks[0].endswith("check=True")
    for cmd in (cli.cmd_experiment, cli.cmd_sweep, cli.cmd_fuzz):
        body = inspect.getsource(cmd)
        assert "_run(args" in body and "DETERMINISM" not in body, cmd.__name__
    # repro chaos runs the cells chaos_specs builds and renders what
    # chaos_report assembles, as run_chaos does; nothing else builds either
    assert "chaos_report(" in inspect.getsource(cli._chaos_render)
    assert "chaos_report(" in inspect.getsource(scenarios.run_chaos)
    assert "chaos_specs(" in inspect.getsource(scenarios.run_chaos)
    assert _files_matching(r"\bchaos_specs\(") == {CLI, "src/repro/faults/scenarios.py"}
    assert "chaos_grid(" not in _src("cli.py")
    assert "run_cells(" in inspect.getsource(scenarios.run_chaos)
    assert _files_matching(r"\bchaos_report\(") == {CLI, "src/repro/faults/scenarios.py"}
    assert _files_matching(r'"fault_window_us":') == {"src/repro/faults/scenarios.py"}


def test_the_scaling_experiment_is_defined_once():
    # one renderer of a rank-count table, which repro scaling prints and
    # the scaling bench saves; the ring program lives with the cell (and
    # the chaos workloads), not in a bench
    assert _files_matching(r"\bTable\([^)]*\branks\b") == {REPORT}
    assert _files_matching(r"\bscaling_report\(") == {
        REPORT, CLI, "benchmarks/test_ext_scaling.py"}
    ring = r"\(mpi\.rank [+-] 1\) % mpi\.world_size|\bdef ring\("
    assert not {f for f in _files_matching(ring) if f.startswith("benchmarks/")}


# ----------------------------------------------------------------------
# the cache is a campaign's one checkpoint; the artifact is written once
# ----------------------------------------------------------------------
def test_run_cells_takes_no_resume():
    from repro.campaign import runner

    assert "resume" not in inspect.signature(runner.run_cells).parameters
    assert "resume" not in runner.SOURCES


def test_the_runner_opens_only_the_completed_artifact():
    from repro.campaign import runner

    assert not hasattr(runner, "_load_checkpoint")
    src = _src("campaign/runner.py")
    assert re.findall(r"\bopen\([^)]*\)", src) == ['open(tmp, "w")']


def test_sweep_resume_is_a_usage_error(capsys):
    assert main(["sweep", "--grid", "fig3-smoke", "--resume"]) == 2
    assert "unrecognized arguments: --resume" in capsys.readouterr().err


def test_the_fuzzer_builds_its_jobs_from_the_scenario_schema():
    # a fuzz spec is a scenario entry: scenario_job arms and configures
    # its job, and the fuzzer passes only its overrides
    src = _src("check/fuzz.py")
    assert "Arming(" not in src and "TestbedConfig(" not in src

    def calls(node, name):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == name

    tree = ast.parse(src)
    built = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and calls(node.value, "scenario_job") for target in node.targets}
    (run,) = [node for node in ast.walk(tree) if calls(node, "run_job")]
    assert not run.args  # no positional job shape of its own
    (job,) = [kw.value for kw in run.keywords if kw.arg is None]
    assert calls(job, "scenario_job") or getattr(job, "id", None) in built
    assert [kw.arg for kw in run.keywords if kw.arg] == ["scheme"]
    # one sweep a command: --check re-runs the cells, not the fuzzer
    assert len(re.findall(r"\brun_fuzz\(", _src("cli.py"))) == 1


def test_a_chaos_scenario_is_data():
    from repro.faults import SCENARIOS

    assert json.loads(json.dumps(SCENARIOS)) == SCENARIOS
    # no scenario class and no per-scenario builder callables, anywhere
    rx = re.compile(r"\bclass Scenario[(:]|\bmake_(?:program|plan|config)\b")
    files = [*SRC.rglob("*.py"), *(ROOT / "tests").rglob("*.py"),
             *(ROOT / "benchmarks").rglob("*.py")]
    assert [p.name for p in files if rx.search(p.read_text())] == []


def test_arming_is_run_jobs_subsystem_keywords():
    from dataclasses import fields

    from repro.cluster import Arming, run_job

    keywords = list(inspect.signature(run_job).parameters)
    job_shape = ["program", "nranks", "scheme", "prepost", "config", "finalize",
                 "trace", "max_events", "cluster"]
    assert sorted(f.name for f in fields(Arming)) == sorted(
        k for k in keywords if k not in job_shape)
    # a description with one way to become live objects: nothing to set or
    # call on it that src/repro does not use
    assert [n for n in vars(Arming) if not n.startswith("_")
            and n not in {f.name for f in fields(Arming)}] == ["subsystems"]


# ----------------------------------------------------------------------
# the eager message's call budget (DESIGN §5.2): folded helpers stay gone
# ----------------------------------------------------------------------
def test_no_timeout_is_built_per_yield_in_the_endpoint():
    # every modelled cost goes through the shared table (sim.TIMEOUTS)
    assert "Timeout(" not in _src("mpi/endpoint.py")


@pytest.mark.parametrize("module, cls, gone", [
    ("repro.ib.hca", "HCA", "_complete_recv"),
    ("repro.ib.qp", "QueuePair", "_make_message"),
    ("repro.mpi.connection", "Connection", "take_piggyback_credits"),
    ("repro.mpi.connection", "Connection", "next_seq"),
])
def test_folded_per_message_helpers_are_deleted(module, cls, gone):
    assert not hasattr(getattr(importlib.import_module(module), cls), gone)


def test_no_type_ignore_left_in_the_package():
    assert _modules_matching(r"type: ignore") == set()
