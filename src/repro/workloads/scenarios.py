"""Named experiment scenarios and the compound-failure catalog.

A :class:`Scenario` bundles a device population, a request mix and pacing
parameters; the experiment runners in :mod:`repro.evaluation.experiments`
and the benches execute scenarios against architecture specs.

The **scenario catalog** (:data:`SCENARIO_CATALOG`) adds declarative,
composable compound-failure experiments in the style of the smart-grid
MAS scenario libraries (blackout / storm / high-demand as named configs):
each catalog entry is a complete chaos experiment -- overlapping
:class:`~repro.workloads.faults.FaultEvent` windows, optional traffic
shaping on the diurnal generator, the
:class:`~repro.core.system.GridTopologySpec` overrides the scenario
needs, and the **invariant tier** the run is expected to uphold.  The
tier ladder (weakest to strongest):

========================================  ==================================
tier                                      guarantee asserted by its cell
========================================  ==================================
:data:`TIER_SILENT_LOSS`                  none -- the documented baseline
                                          failure mode (fire-and-forget
                                          transports lose records silently)
:data:`TIER_NO_SILENT_LOSS`               every loss is *accounted* by the
                                          reliable channel:
                                          ``classified + dead >= shipped``
:data:`TIER_HEAL_COMPLETE`                after the faults clear and
                                          redelivery drains,
                                          ``classified == shipped``
:data:`TIER_DETECTION_SURVIVES`           heal-complete **plus** failure
                                          detection kept working with the
                                          root unreachable (gossip
                                          suspicion converged during the
                                          outage window)
========================================  ==================================

:func:`check_tier` is the executable form of this table: it returns
the list of violated guarantees (empty = tier upheld).  The chaos matrix
in ``tests/test_robustness_scenarios.py`` and the ``repro-sim chaos``
drill judge runs through it, and :meth:`Scenario.build` builds the one
chaos-matrix topology they share with the robustness bench.  Every
catalog scenario registers a cell in that matrix asserting exactly its
tier, and a gated row in ``BENCH_robustness.json``.
"""

from repro.core.system import (
    DeviceSpec,
    GridManagementSystem,
    GridTopologySpec,
    HostSpec,
)
from repro.network.topology import LinkSpec
from repro.workloads.faults import FaultPlan, apply_fault_plan
from repro.workloads.generator import RequestMix, WorkloadGenerator

#: The invariant-tier ladder, weakest to strongest (see module docstring).
TIER_SILENT_LOSS = "silent-loss"
TIER_NO_SILENT_LOSS = "no-silent-loss"
TIER_HEAL_COMPLETE = "heal-complete"
TIER_DETECTION_SURVIVES = "detection-survives-root-outage"
INVARIANT_TIERS = (
    TIER_SILENT_LOSS,
    TIER_NO_SILENT_LOSS,
    TIER_HEAL_COMPLETE,
    TIER_DETECTION_SURVIVES,
)


def dead_lettered_records(channel):
    """Records inside ``channel``'s dead-lettered collected-batch
    envelopes -- the loss the reliable channel *accounted* for."""
    count = 0
    for letter in channel.dead_letters:
        acl = letter.message.payload
        if getattr(acl, "ontology", None) == "collected-batch":
            count += len(acl.content["records"])
    return count


def check_tier(system, tier):
    """Judge a finished run against ``tier`` and everything below it.

    Returns the violated guarantees as strings; an empty list means the
    run upheld the tier.  Bookkeeping sanity (``classified <= shipped``)
    holds at every tier, and a run that shipped nothing is vacuous.
    """
    shipped = system.collectors[0].records_shipped
    classified = system.classifier.records_classified
    if shipped == 0:
        return ["no records shipped -- the run is vacuous"]
    violations = []
    if classified > shipped:
        violations.append("double count: classified %d > shipped %d"
                          % (classified, shipped))
    rank = INVARIANT_TIERS.index(tier)
    if rank < INVARIANT_TIERS.index(TIER_NO_SILENT_LOSS):
        return violations
    channel = system.reliable_channel
    if channel is None:
        violations.append("tier requires a reliable channel")
        return violations
    dead = dead_lettered_records(channel)
    if classified + dead < shipped:
        violations.append(
            "silent loss: shipped %d > classified %d + dead-lettered %d"
            % (shipped, classified, dead))
    if rank < INVARIANT_TIERS.index(TIER_HEAL_COMPLETE):
        return violations
    if classified != shipped:
        violations.append("not heal-complete: classified %d != shipped %d"
                          % (classified, shipped))
    if channel.parked_count():
        violations.append("%d envelope(s) still parked"
                          % channel.parked_count())
    if channel.pending_count():
        violations.append("%d envelope(s) still pending"
                          % channel.pending_count())
    if channel.permanently_dead():
        violations.append("%d envelope(s) permanently dead"
                          % len(channel.permanently_dead()))
    if not system.root.datasets:
        violations.append("no datasets reached the root")
    elif not all(state.finished for state in system.root.datasets.values()):
        violations.append("unfinished dataset(s) at the root")
    if rank < INVARIANT_TIERS.index(TIER_DETECTION_SURVIVES):
        return violations
    if system.gossip is None:
        violations.append("tier requires gossip= but no mesh was built")
    elif not system.gossip.detection_times():
        violations.append("gossip never confirmed the root dead -- "
                          "detection did not survive the outage")
    return violations


class TrafficShape:
    """Declarative traffic shaping for a scenario: the diurnal curve plus
    an optional flash-crowd spike, mapped onto
    :meth:`~repro.workloads.generator.WorkloadGenerator.diurnal_goals`.

    Args:
        day_length: simulated seconds in the scenario's "day".
        peak_fraction / peak_start / peak_end: the diurnal busy window.
        spike_multiplier: flash-crowd factor (1.0 = plain diurnal curve;
            the catalog's ``flash_crowd`` uses 10-100x).
        spike_start / spike_length: spike window as day fractions.
    """

    def __init__(self, day_length, peak_fraction=0.7, peak_start=0.25,
                 peak_end=0.75, spike_multiplier=1.0, spike_start=0.5,
                 spike_length=0.05):
        if day_length <= 0:
            raise ValueError("day_length must be positive")
        self.day_length = day_length
        self.peak_fraction = peak_fraction
        self.peak_start = peak_start
        self.peak_end = peak_end
        self.spike_multiplier = spike_multiplier
        self.spike_start = spike_start
        self.spike_length = spike_length

    def goals(self, mix, device_names, seed=0):
        """Generate the shaped goals (deterministic under ``seed``)."""
        return WorkloadGenerator(seed=seed).diurnal_goals(
            mix, device_names, self.day_length,
            peak_fraction=self.peak_fraction,
            peak_start=self.peak_start,
            peak_end=self.peak_end,
            spike_multiplier=self.spike_multiplier,
            spike_start=self.spike_start,
            spike_length=self.spike_length,
        )

    def __repr__(self):
        return "TrafficShape(day=%g, spike=%gx)" % (
            self.day_length, self.spike_multiplier)


class Scenario:
    """A reproducible experiment workload.

    ``fault_plan`` optionally attaches a
    :class:`~repro.workloads.faults.FaultPlan` so a scenario is a complete
    chaos experiment in one object (workload + failures); runners apply it
    with :func:`~repro.workloads.faults.apply_fault_plan` after build.

    Catalog scenarios carry three further declarative pieces:

    * ``traffic`` -- a :class:`TrafficShape`; :meth:`build_goals` then
      generates the shaped diurnal workload instead of the evenly-paced
      default.
    * ``expected_tier`` -- the invariant tier (one of
      :data:`INVARIANT_TIERS`) this scenario's chaos-matrix cell asserts.
    * ``spec_overrides`` -- :class:`~repro.core.system.GridTopologySpec`
      keyword overrides the scenario requires (e.g. ``split_brain`` needs
      ``gossip=`` and a reliability ladder); :meth:`build` merges these
      into the chaos-matrix spec.
    """

    def __init__(self, name, devices, mix, interval=1.0, stagger=0.1,
                 description="", fault_plan=None, traffic=None,
                 expected_tier=None, spec_overrides=None):
        if not devices:
            raise ValueError("scenario needs at least one device")
        if expected_tier is not None and expected_tier not in INVARIANT_TIERS:
            raise ValueError(
                "unknown invariant tier %r (ladder: %s)"
                % (expected_tier, ", ".join(INVARIANT_TIERS)))
        self.name = name
        self.devices = list(devices)
        self.mix = mix
        self.interval = interval
        self.stagger = stagger
        self.description = description
        self.fault_plan = fault_plan
        self.traffic = traffic
        self.expected_tier = expected_tier
        self.spec_overrides = dict(spec_overrides or {})

    @property
    def total_requests(self):
        return self.mix.total

    def device_names(self):
        return [device.name for device in self.devices]

    def build_goals(self, seed=0):
        """The scenario's collection goals: shaped when ``traffic`` is
        declared, the evenly-paced paper layout otherwise."""
        from repro.workloads.generator import goals_for_mix

        if self.traffic is not None:
            return self.traffic.goals(
                self.mix, self.device_names(), seed=seed)
        return goals_for_mix(self.mix, self.device_names(),
                             interval=self.interval, stagger=self.stagger)

    def build(self, seed, analysis_hosts=2):
        """The faultified, goal-assigned chaos-matrix system, not yet run.

        One field collector host ``col1``, ``analysis_hosts`` management
        analysis hosts ``inf1..infN``, storage on ``stor`` and the
        interface on ``iface``, with :attr:`spec_overrides` merged into
        the spec.  The caller picks the horizon and drives
        ``system.sim.run``; :func:`check_tier` then judges the run.
        """
        spec = GridTopologySpec(
            devices=self.devices,
            collector_hosts=[HostSpec("col1", "field")],
            analysis_hosts=[HostSpec("inf%d" % (index + 1), "mgmt")
                            for index in range(analysis_hosts)],
            storage_host=HostSpec("stor", "mgmt"),
            interface_host=HostSpec("iface", "mgmt"),
            seed=seed,
            dataset_threshold=4,
            policy="round-robin",
            job_timeout=40.0,
            wan=LinkSpec(latency=0.05, bandwidth=1000.0, loss_rate=0.0),
            **self.spec_overrides
        )
        system = GridManagementSystem(spec)
        system.collectors[0].poll_retries = 8
        if self.fault_plan is not None:
            apply_fault_plan(system, self.fault_plan)
        system.assign_goals(self.build_goals(seed=seed))
        return system

    def compose(self, other):
        """Overlay another scenario's failure modes onto this workload.

        Composition keeps *this* scenario's devices, mix, traffic shape
        and tier floor, merges both fault plans (re-validated, so
        incoherent overlapping kill windows are rejected at composition
        time, not at run time) and both spec-override dicts
        (conflicting overrides are rejected -- composition must not
        silently reconfigure the stack).  The composed expected tier is
        the *weaker* of the two: overlaying extra failures can only
        lower the guarantee.
        """
        if not isinstance(other, Scenario):
            raise TypeError("can only compose with another Scenario")
        mine = list(self.fault_plan) if self.fault_plan is not None else []
        theirs = list(other.fault_plan) if other.fault_plan is not None \
            else []
        merged_plan = FaultPlan(mine + theirs) if mine or theirs else None
        overrides = dict(self.spec_overrides)
        for key, value in other.spec_overrides.items():
            if key in overrides and overrides[key] != value:
                raise ValueError(
                    "conflicting spec override %r while composing %r x %r "
                    "(%r vs %r)" % (key, self.name, other.name,
                                    overrides[key], value))
            overrides[key] = value
        tiers = [tier for tier in (self.expected_tier, other.expected_tier)
                 if tier is not None]
        composed_tier = min(
            tiers, key=INVARIANT_TIERS.index) if tiers else None
        return Scenario(
            "%s+%s" % (self.name, other.name),
            devices=self.devices,
            mix=self.mix,
            interval=self.interval,
            stagger=self.stagger,
            description="%s overlaid with %s" % (
                self.description or self.name,
                other.description or other.name),
            fault_plan=merged_plan,
            traffic=self.traffic,
            expected_tier=composed_tier,
            spec_overrides=overrides,
        )

    def __repr__(self):
        return "Scenario(%r, devices=%d, requests=%d)" % (
            self.name, len(self.devices), self.total_requests,
        )


def _device_population(count, site_count=1):
    """A mixed device population spread over sites."""
    profiles = ("server", "router", "server", "switch")
    devices = []
    for index in range(count):
        site = "site%d" % (index % site_count + 1)
        devices.append(DeviceSpec(
            "dev%d" % (index + 1), profiles[index % len(profiles)], site,
        ))
    return devices


def paper_scenario(seed=0):
    """Section 4.1's evaluation: 3 devices, 10 requests of each type."""
    return Scenario(
        "paper-figure6",
        devices=_device_population(3),
        mix=RequestMix(10, 10, 10),
        description="10 requests of each type over 3 devices (Figure 6)",
    )


def scaling_scenario(device_count, requests_per_type, site_count=1):
    """Parametric scenario for the scalability sweep (X3)."""
    return Scenario(
        "scale-d%d-r%d" % (device_count, requests_per_type),
        devices=_device_population(device_count, site_count),
        mix=RequestMix(requests_per_type, requests_per_type, requests_per_type),
        description="%d devices, %d requests/type" % (
            device_count, requests_per_type,
        ),
    )


def chaos_scenario(requests_per_type=8, device_count=4, site_count=2):
    """A two-site workload for the chaos-fault harness.

    Cross-site WAN traffic is what loss bursts and the reliable channel
    act on; pair with a :class:`~repro.workloads.faults.FaultPlan` (e.g.
    :func:`~repro.workloads.faults.chaos_plan`) and
    ``GridTopologySpec(reliability=True, heartbeat_interval=...)``.
    """
    return Scenario(
        "chaos-d%d-r%d" % (device_count, requests_per_type),
        devices=_device_population(device_count, site_count),
        mix=RequestMix(requests_per_type, requests_per_type,
                       requests_per_type),
        description="%d devices over %d sites under injected faults" % (
            device_count, site_count,
        ),
    )


def partition_scenario(site_count=4, devices_per_site=2,
                       requests_per_type=8, partitioned_site=None,
                       partition_at=15.0, heal_after=25.0):
    """A multi-site mesh workload with one site partitioned mid-run.

    The first entry in the scenario catalog of compound failures (ROADMAP
    item 4): ``site_count`` sites of ``devices_per_site`` devices each,
    with ``partitioned_site`` (default: the last site) severed at
    ``partition_at`` and healed ``heal_after`` later via the attached
    :attr:`Scenario.fault_plan`.  Pair with
    ``FederatedTopologySpec(mode=MESH, federation_reliability=True)`` --
    the mesh must detect the partition within its heartbeat timeout,
    degrade the severed site's devices to offline, and drain back to
    heal-complete afterwards.
    """
    from repro.workloads.faults import site_partition_plan

    if site_count < 2:
        raise ValueError("a partition needs at least 2 sites")
    if partitioned_site is None:
        partitioned_site = "site%d" % site_count
    return Scenario(
        "partition-s%d-d%d" % (site_count, devices_per_site),
        devices=_device_population(site_count * devices_per_site,
                                   site_count),
        mix=RequestMix(requests_per_type, requests_per_type,
                       requests_per_type),
        description="%d sites, %s partitioned at t=%g for %gs" % (
            site_count, partitioned_site, partition_at, heal_after,
        ),
        fault_plan=site_partition_plan(
            partitioned_site, partition_at=partition_at,
            heal_after=heal_after,
        ),
    )


def crossover_scenarios(points=(1, 2, 5, 10, 20, 50), device_count=3):
    """Scenarios for the crossover sweep (X1): growing request volume."""
    return [
        Scenario(
            "crossover-r%d" % requests,
            devices=_device_population(device_count),
            mix=RequestMix(requests, requests, requests),
            description="%d requests/type" % requests,
        )
        for requests in points
    ]


# -- the compound-failure catalog -----------------------------------------
#
# Each constructor returns a complete declarative experiment; defaults
# target the chaos-matrix topology (collector host "col1", analysis hosts
# "inf1"/"inf2", storage host "stor") so the catalog, the matrix cells,
# the benches and the ``repro-sim chaos`` drill all run the same config.

#: Reliability ladder shared by the catalog's heal-complete scenarios:
#: fast retransmissions, give-up inside the outage window, redelivery
#: scheduler to drain dead letters after the heal.
CATALOG_RELIABILITY = {
    "ack_timeout": 1.0,
    "backoff": 2.0,
    "max_attempts": 4,
    "redelivery": True,
    "redelivery_interval": 2.0,
    "redelivery_max_interval": 8.0,
    "redelivery_give_up_after": None,
}


def split_brain_scenario(island_hosts=("stor", "inf1"), partition_at=15.0,
                         heal_after=30.0, requests_per_type=8,
                         device_count=4, gossip_interval=1.0):
    """The root's host plus half the analyzer hosts cut into an island.

    Both halves stay internally healthy; only the gossip mesh
    (``gossip=``) lets the severed analyzers converge on the root's
    death, elect a stand-in dispatcher and reconcile on heal -- the
    catalog's only :data:`TIER_DETECTION_SURVIVES` entry.
    """
    from repro.workloads.faults import split_brain_plan

    return Scenario(
        "split_brain",
        devices=_device_population(device_count),
        mix=RequestMix(requests_per_type, requests_per_type,
                       requests_per_type),
        description="island %s severed at t=%g for %gs; gossip keeps "
                    "detection alive without the root" % (
                        ",".join(island_hosts), partition_at, heal_after),
        fault_plan=split_brain_plan(island_hosts,
                                    partition_at=partition_at,
                                    heal_after=heal_after),
        expected_tier=TIER_DETECTION_SURVIVES,
        spec_overrides={
            "reliability": dict(CATALOG_RELIABILITY),
            "heartbeat_interval": 2.0,
            "gossip": {"interval": gossip_interval},
        },
    )


def cascade_scenario(hosts=("inf1", "inf2"), start_at=10.0, stagger=6.0,
                     down_duration=15.0, requests_per_type=10,
                     device_count=4, day_length=60.0):
    """Rolling host failures correlated with load.

    The diurnal peak and the cascade window coincide: hosts start
    failing just as the busy window opens, with overlapping down-windows
    (``stagger < down_duration``), so the surviving analyzers absorb
    both the load and the re-dispatched jobs.  Heal-complete: every
    record is accounted once the cascade clears and redelivery drains.
    """
    from repro.workloads.faults import cascade_plan

    return Scenario(
        "cascade",
        devices=_device_population(device_count),
        mix=RequestMix(requests_per_type, requests_per_type,
                       requests_per_type),
        description="%d hosts fail rolling from t=%g (stagger %gs, "
                    "down %gs) under the diurnal peak" % (
                        len(hosts), start_at, stagger, down_duration),
        fault_plan=cascade_plan(hosts, start_at=start_at, stagger=stagger,
                                down_duration=down_duration),
        traffic=TrafficShape(day_length=day_length, peak_fraction=0.7,
                             peak_start=0.15, peak_end=0.6),
        expected_tier=TIER_HEAL_COMPLETE,
        spec_overrides={
            "reliability": dict(CATALOG_RELIABILITY),
            "heartbeat_interval": 2.0,
        },
    )


def flash_crowd_scenario(spike_multiplier=20.0, requests_per_type=6,
                         device_count=4, day_length=60.0,
                         spike_start=0.4, spike_length=0.1):
    """A 10-100x request spike on the diurnal curve -- no faults at all.

    The failure mode is *overload*, not breakage: the grid must absorb
    the crowd without losing records (heal-complete -- with nothing to
    heal, that is plain completeness) while the benches gate how far the
    ship-stage p99 degrades relative to the unspiked curve
    (``flash_crowd_p99_ratio``).
    """
    if spike_multiplier < 10.0 or spike_multiplier > 100.0:
        raise ValueError(
            "flash_crowd spike_multiplier must be within [10, 100]")
    return Scenario(
        "flash_crowd",
        devices=_device_population(device_count),
        mix=RequestMix(requests_per_type, requests_per_type,
                       requests_per_type),
        description="%gx flash crowd inside %.0f%% of the day" % (
            spike_multiplier, spike_length * 100),
        traffic=TrafficShape(day_length=day_length,
                             spike_multiplier=spike_multiplier,
                             spike_start=spike_start,
                             spike_length=spike_length),
        expected_tier=TIER_HEAL_COMPLETE,
        spec_overrides={
            "reliability": dict(CATALOG_RELIABILITY),
        },
    )


def rolling_upgrade_scenario(hosts=("inf1", "inf2"), start_at=10.0,
                             restart_duration=5.0, wave_gap=12.0, waves=1,
                             requests_per_type=8, device_count=4):
    """Staggered restart waves: every analysis host bounces once per
    wave, one at a time (the next restart waits for the previous host to
    come back).  The disciplined counterpart of :func:`cascade_scenario`:
    the grid re-dispatches around each bounce and ends heal-complete.
    """
    from repro.workloads.faults import rolling_upgrade_plan

    return Scenario(
        "rolling_upgrade",
        devices=_device_population(device_count),
        mix=RequestMix(requests_per_type, requests_per_type,
                       requests_per_type),
        description="%d hosts restarted in %d wave(s) of %gs bounces "
                    "from t=%g" % (len(hosts), waves, restart_duration,
                                   start_at),
        fault_plan=rolling_upgrade_plan(
            hosts, start_at=start_at, wave_gap=wave_gap,
            restart_duration=restart_duration, waves=waves),
        expected_tier=TIER_HEAL_COMPLETE,
        spec_overrides={
            "reliability": dict(CATALOG_RELIABILITY),
            "heartbeat_interval": 2.0,
        },
    )


#: The compound-failure catalog: name -> zero-config constructor.
SCENARIO_CATALOG = {
    "split_brain": split_brain_scenario,
    "cascade": cascade_scenario,
    "flash_crowd": flash_crowd_scenario,
    "rolling_upgrade": rolling_upgrade_scenario,
}


def catalog_scenario(name, **overrides):
    """Instantiate a catalog scenario by name (constructor kwargs pass
    through); unknown names list the catalog, loudly."""
    try:
        constructor = SCENARIO_CATALOG[name]
    except KeyError:
        raise KeyError(
            "unknown scenario %r (catalog: %s)"
            % (name, ", ".join(sorted(SCENARIO_CATALOG)))) from None
    return constructor(**overrides)
