"""Seeded workload inputs, system construction and outcome checks.

Each workload turns the benchmark seed into plain inputs (device
population, faulty-device sample, fault kinds, system seed) and builds the
system from them through the public API only: ``GridManagementSystem`` /
``FederatedManagementSystem``, ``make_paper_goals`` / ``make_site_goals``,
``ManagedDevice.inject_fault`` and ``run_until_records``.  Nothing under
``src/`` is patched; every count read here is a public counter.

Why each workload exists (which layer it makes dominant):

* ``correlate`` -- one 240-record dataset, so level-2/3 rule inference is
  the hot path with real firings.  Incremental rule matching must show its
  gain here.
* ``fleet`` -- a large, mostly idle device population on the sharded grid:
  the cost sits in topology construction and the classifier / storage /
  dispatch path, not in inference.  Lazy-device work moves ``setup_s`` and
  ``peak_rss_mb`` here.
* ``lossy_mesh`` -- a four-site mesh federation over a lossy WAN with the
  reliable channel and 1 s heartbeats: kernel events, beacons, acks and
  retransmits dominate, rules are a minor share.  Failure-detector work
  must move ``false_alarms`` here.
"""

import hashlib
import json
import random

#: Fault kinds drawn for the faulty-device sample.
FAULT_KINDS = ("cpu_runaway", "memory_leak", "disk_filling", "interface_down")
#: Device profiles per workload.  Interface facts dominate the rule
#: engine's joins (servers have 2 interfaces, routers 8, switches 24), so
#: ``correlate`` polls servers only -- one repetition over its 240-record
#: dataset takes ~1.3 s instead of ~7 s with half routers -- and switches,
#: which would also turn the mesh rule-bound, appear only in the fleet,
#: whose datasets are small.
SERVERS = ("server",)
SMALL_DEVICES = ("server", "router")
ALL_DEVICES = ("server", "router", "switch")

#: Full-size and cut-down (test) parameters per workload.  The cut-down
#: sizes keep each workload's shape but run in about a second.
SIZES = {
    "correlate": {
        "full": dict(devices=40, profiles=SERVERS, shards=1,
                     polls_per_type=80, dataset_threshold=240, collectors=16,
                     analyzers=14, deadline=4000.0),
        "small": dict(devices=10, profiles=SERVERS, shards=1,
                      polls_per_type=20, dataset_threshold=60, collectors=4,
                      analyzers=3, deadline=4000.0),
    },
    "fleet": {
        "full": dict(devices=20000, profiles=ALL_DEVICES, shards=8,
                     polls_per_type=300, dataset_threshold=12, collectors=16,
                     analyzers=14, deadline=4000.0),
        "small": dict(devices=400, profiles=ALL_DEVICES, shards=4,
                      polls_per_type=20, dataset_threshold=12, collectors=4,
                      analyzers=3, deadline=4000.0),
    },
    "lossy_mesh": {
        "full": dict(sites=4, devices_per_site=8, profiles=SMALL_DEVICES,
                     analyzers_per_site=2, polls_per_type=30, site1_load=3,
                     wan_loss=0.05, heartbeat=1.0, deadline=4000.0),
        "small": dict(sites=3, devices_per_site=4, profiles=SMALL_DEVICES,
                      analyzers_per_site=1, polls_per_type=6, site1_load=3,
                      wan_loss=0.05, heartbeat=1.0, deadline=4000.0),
    },
}

WORKLOAD_NAMES = tuple(SIZES)

#: Set-ups timed per repetition (the median is reported).  The small
#: systems build in milliseconds, so one sample would be mostly noise; the
#: 20,000-device fleet takes about a second per build and is timed once.
SETUPS_PER_REP = {"correlate": 5, "fleet": 1, "lossy_mesh": 5}


def generate(workload, seed, size="full", deadline=None):
    """The workload's inputs, derived only from ``seed``.

    Returns a JSON-ready dict; the same ``(workload, seed, size)`` always
    gives the same dict.  ``deadline`` overrides the simulated-seconds
    budget (the tests force a run past it).
    """
    if workload not in SIZES:
        raise ValueError("unknown workload %r (choose from %s)"
                         % (workload, ", ".join(WORKLOAD_NAMES)))
    params = dict(SIZES[workload][size])
    if deadline is not None:
        params["deadline"] = float(deadline)
    rng = random.Random("%s/%d" % (workload, seed))
    inputs = {"workload": workload, "seed": seed, "size": size,
              "system_seed": rng.randrange(2 ** 31), "params": params}
    if workload == "lossy_mesh":
        inputs["sites"] = []
        for index in range(params["sites"]):
            site = "site%d" % (index + 1)
            profiles = _balanced(rng, params["profiles"],
                                 params["devices_per_site"])
            inputs["sites"].append({"name": site, "devices": [
                ("%s-dev%d" % (site, number + 1), profile)
                for number, profile in enumerate(profiles)]})
        inputs["faults"] = []  # no fault: every partition is a false alarm
        return inputs
    # make_paper_goals polls device ``i mod N`` in sorted-name order, so the
    # polled population is the first ``polls_per_type`` names; it gets its
    # own balanced mix, as does the idle rest.
    count = params["devices"]
    polled_count = min(count, params["polls_per_type"])
    profiles = (_balanced(rng, params["profiles"], polled_count)
                + _balanced(rng, params["profiles"], count - polled_count))
    width = len(str(count))
    devices = [("dev%0*d" % (width, index), profile)
               for index, profile in enumerate(profiles)]
    inputs["devices"] = devices
    # Faults are sampled per profile, each profile's share cycling through
    # the fault kinds, so every seed faults the same mix.
    faults = []
    for profile in params["profiles"]:
        group = [name for name, device_profile in devices[:polled_count]
                 if device_profile == profile]
        faulty = sorted(rng.sample(group, len(group) // 5))
        for name, kind in zip(faulty,
                              _balanced(rng, FAULT_KINDS, len(faulty))):
            interface = None
            if kind == "interface_down":
                interface = rng.randrange(_interface_count(profile))
            faults.append((name, kind, interface))
    inputs["faults"] = sorted(faults)
    return inputs


def _balanced(rng, choices, count):
    """``count`` items cycling through ``choices``, in seeded order.

    Seeds change which device gets which profile or fault, not how many of
    each there are, so the work a run does barely moves with the seed.
    """
    items = [choices[index % len(choices)] for index in range(count)]
    rng.shuffle(items)
    return items


def _interface_count(profile):
    from repro.snmp.device import PROFILES

    return PROFILES[profile].interface_count


def requested_records(inputs):
    params = inputs["params"]
    if inputs["workload"] == "lossy_mesh":
        per_site = 3 * params["polls_per_type"]
        return per_site * (params["sites"] - 1 + params["site1_load"])
    return 3 * params["polls_per_type"]


def import_program():
    """Import every module a build touches, so set-up times exclude
    first-import cost."""
    import repro.core.federation  # noqa: F401
    import repro.core.system  # noqa: F401
    import repro.network.reliable  # noqa: F401
    import repro.simkernel.telemetry  # noqa: F401


def build(inputs, telemetry=False):
    """Construct the system for ``inputs`` (the timed set-up phase)."""
    if inputs["workload"] == "lossy_mesh":
        return _build_mesh(inputs, telemetry)
    return _build_grid(inputs, telemetry)


def _build_grid(inputs, telemetry):
    from repro.core.system import (
        DeviceSpec, GridManagementSystem, GridTopologySpec, HostSpec)

    params = inputs["params"]
    spec = GridTopologySpec(
        devices=[DeviceSpec(name, profile, "site1")
                 for name, profile in inputs["devices"]],
        collector_hosts=[HostSpec("collector%d" % (index + 1), "site1")
                         for index in range(params["collectors"])],
        analysis_hosts=[HostSpec("analysis%d" % (index + 1), "site1")
                        for index in range(params["analyzers"])],
        storage_host=HostSpec("storage1", "site1"),
        interface_host=HostSpec("interface1", "site1"),
        dataset_threshold=params["dataset_threshold"],
        seed=inputs["system_seed"],
        telemetry=telemetry,
        shards=params["shards"],
        lazy_devices=True,
    )
    system = GridManagementSystem(spec)
    for name, kind, interface in inputs["faults"]:
        system.devices[name].inject_fault(kind, interface)
    system.assign_goals(
        system.make_paper_goals(polls_per_type=params["polls_per_type"]))
    return system


def _build_mesh(inputs, telemetry):
    from repro.core.federation import (
        MESH, FederatedManagementSystem, FederatedTopologySpec, SiteSpec)
    from repro.core.system import DeviceSpec
    from repro.network.topology import LinkSpec

    params = inputs["params"]
    spec = FederatedTopologySpec(
        sites=[
            SiteSpec(site["name"],
                     [DeviceSpec(name, profile, site["name"])
                      for name, profile in site["devices"]],
                     analyzer_count=params["analyzers_per_site"])
            for site in inputs["sites"]
        ],
        mode=MESH,
        seed=inputs["system_seed"],
        wan=LinkSpec(latency=0.05, bandwidth=1000.0,
                     loss_rate=params["wan_loss"]),
        federation_reliability=True,
        heartbeat_interval=params["heartbeat"],
        # Forward as soon as every local container holds a job, so the
        # triple-loaded site1 spills work across the mesh.
        forward_threshold=1,
        telemetry=telemetry,
    )
    system = FederatedManagementSystem(spec)
    goals = system.make_site_goals(polls_per_type=params["polls_per_type"])
    goals["site1"] = goals["site1"] * params["site1_load"]
    system.assign_site_goals(goals)
    return system


def run(system, inputs):
    """Drive the run phase; True when every requested record was reported."""
    return system.run_until_records(
        requested_records(inputs), timeout=inputs["params"]["deadline"])


# -- outcome --------------------------------------------------------------


def _parts(system):
    """The components of either system kind, through public attributes."""
    if hasattr(system, "sites"):
        runtimes = [system.sites[name] for name in sorted(system.sites)]
        return dict(
            interfaces=system.interfaces(),
            roots=system.roots(),
            stores=[runtime.store for runtime in runtimes],
            storage_agents=[runtime.storage_agent for runtime in runtimes],
            collectors=[c for runtime in runtimes
                        for c in runtime.collectors],
            classifiers=[runtime.classifier for runtime in runtimes],
            analyzers=[a for runtime in runtimes for a in runtime.analyzers],
        )
    return dict(
        interfaces=[system.interface],
        roots=[system.root],
        stores=list(system.stores),
        storage_agents=list(system.storage_agents),
        collectors=list(system.collectors),
        classifiers=list(system.classifiers),
        analyzers=list(system.analyzers),
    )


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list (exact, no interpolation
    -- the simulated metrics must stay bit-identical across runs)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def outcome(system, inputs, completed):
    """Simulated metrics, public counters, output checks and the digest.

    Every value here is a function of the simulation alone, so it is
    identical on every repetition of one seed and with tracing on or off.
    """
    parts = _parts(system)
    requested = requested_records(inputs)
    deadline = inputs["params"]["deadline"]
    reports = [report for interface in parts["interfaces"]
               for report in interface.reports]
    # Link-state reports (mesh partitions) cover no records.
    analyses = [report for report in reports if report.kind == "analysis"]
    collected_at = {}
    for store in parts["stores"]:
        for dataset_id in store.dataset_ids():
            times = collected_at.setdefault(dataset_id, [])
            for cluster in store.clusters_of(dataset_id):
                times.extend(record.collected_at for record in
                             store.fetch_cluster(dataset_id, cluster))
    latencies = []
    reported = 0
    for report in analyses:
        if report.generated_at > deadline:
            continue
        reported += report.records_analyzed
        latencies.extend(report.generated_at - t
                         for t in collected_at.get(report.dataset_id, ()))
    findings = sorted(
        (finding.kind, finding.level, finding.device, finding.site)
        for report in reports for finding in report.findings)
    # No workload takes a site or a host down, so every major
    # site-partition finding and every analyzer eviction is a false alarm.
    false_alarms = sum(
        1 for report in reports for finding in report.findings
        if finding.kind == "site-partition" and finding.severity == "major")
    false_alarms += sum(root.containers_evicted for root in parts["roots"])

    collectors = parts["collectors"]
    classifiers = parts["classifiers"]
    roots = parts["roots"]
    analyzers = parts["analyzers"]
    counters = {
        "core.collector.polls_completed":
            sum(c.polls_completed for c in collectors),
        "core.collector.polls_failed": sum(c.polls_failed for c in collectors),
        "core.collector.poll_retries_used":
            sum(c.poll_retries_used for c in collectors),
        "core.collector.records_shipped":
            sum(c.records_shipped for c in collectors),
        "core.classifier.records_classified":
            sum(c.records_classified for c in classifiers),
        "core.classifier.datasets_published":
            sum(c.datasets_published for c in classifiers),
        "core.storage.records_stored":
            sum(s.records_stored for s in parts["stores"]),
        "core.storage.queries_answered":
            sum(a.queries_answered for a in parts["storage_agents"]),
        "core.processor.jobs_dispatched":
            sum(r.jobs_dispatched for r in roots),
        "core.processor.jobs_redispatched":
            sum(r.jobs_redispatched for r in roots),
        "core.processor.fetch_retries_used":
            sum(a.fetch_retries_used for a in analyzers),
        "rules.firings": sum(a.rules_fired for a in analyzers),
        "core.interface.reports": len(reports),
        "core.interface.findings": len(findings),
        "simkernel.processes_spawned": system.sim.spawned,
        "network.messages_sent": system.transport.messages_sent,
        "network.messages_dropped": system.transport.messages_dropped,
        "agents.messages_routed": system.platform.messages_routed,
        "agents.messages_failed": system.platform.messages_failed,
    }
    channel = system.reliable_channel
    counters.update({
        "network.reliable.retransmits": channel.retransmits if channel else 0,
        "network.reliable.dup_drops": channel.dup_drops if channel else 0,
        "network.reliable.dead_letters":
            len(channel.dead_letters) if channel else 0,
        "network.reliable.acked_per_send": (
            channel.messages_acked / channel.messages_sent
            if channel and channel.messages_sent else 0.0),
    })
    forwarding = (system.forwarding_report()
                  if hasattr(system, "forwarding_report") else {})
    for key in ("beacons_sent", "beacons_received", "partitions_declared",
                "jobs_forwarded"):
        counters["core.federation." + key] = forwarding.get(key, 0)
    # Late duplicates of re-dispatched jobs are absorbed at the root by
    # design (at-least-once dispatch, exactly-once reports); reported, not
    # failed.  A duplicate forwarded result crossing the mesh is a fault.
    counters["core.processor.duplicate_results"] = sum(
        r.duplicate_results for r in roots)
    counters["core.federation.duplicate_results"] = forwarding.get(
        "duplicate_results", 0)
    dataset_ids = [report.dataset_id for report in analyses]

    checks = {
        "all_records_reported": bool(completed) and reported >= requested,
        "classified_equals_shipped":
            counters["core.classifier.records_classified"]
            == counters["core.collector.records_shipped"],
        "no_duplicate_results":
            counters["core.federation.duplicate_results"] == 0,
        "each_dataset_reported_once":
            len(dataset_ids) == len(set(dataset_ids)),
    }
    makespan = max((report.generated_at for report in analyses),
                   default=0.0)
    digest_fields = {
        "makespan": makespan,
        "reports": len(reports),
        "findings": findings,
        "forwarding": {key: forwarding[key] for key in sorted(forwarding)},
    }
    digest = hashlib.sha256(
        json.dumps(digest_fields, sort_keys=True).encode()).hexdigest()[:16]
    sim = {
        "makespan_sim_s": makespan,
        "report_latency_p50_sim_s":
            percentile(latencies, 50) if latencies else 0.0,
        "report_latency_p95_sim_s":
            percentile(latencies, 95) if latencies else 0.0,
        "latency_samples": len(latencies),
        "false_alarms": false_alarms,
    }
    return {
        "requested": requested,
        "reported": min(reported, requested),
        "sim": sim,
        "counters": counters,
        "checks": checks,
        "digest": digest,
    }
