"""Managed network devices with live, stochastic metric dynamics.

A :class:`ManagedDevice` wraps a simulated :class:`~repro.network.topology.Host`
(role ``"device"``), populates a MIB with callables that read its current
state, and runs a background process that evolves the state every tick.
Fault injection (used by the fault-management example and benches) switches
the dynamics into degraded regimes that the stock analysis rules detect.
"""

from repro.snmp.mib import MibTree, std


class DeviceProfile:
    """Static parameters for a class of device.

    Args:
        name: profile name ("server", "router", "switch").
        interface_count: interfaces exposed in the MIB.
        process_slots: process-table entries exposed.
        cpu_mean / cpu_sigma: steady-state CPU-percent dynamics.
        mem_total_kb / disk_total_kb: capacities.
        traffic_rate: mean octets per second per interface.
    """

    def __init__(
        self,
        name,
        interface_count=2,
        process_slots=3,
        cpu_mean=35.0,
        cpu_sigma=10.0,
        mem_total_kb=1024 * 1024,
        disk_total_kb=8 * 1024 * 1024,
        traffic_rate=20000.0,
    ):
        self.name = name
        self.interface_count = interface_count
        self.process_slots = process_slots
        self.cpu_mean = cpu_mean
        self.cpu_sigma = cpu_sigma
        self.mem_total_kb = mem_total_kb
        self.disk_total_kb = disk_total_kb
        self.traffic_rate = traffic_rate

    def __repr__(self):
        return "DeviceProfile(%r)" % self.name


PROFILES = {
    "server": DeviceProfile(
        "server", interface_count=2, process_slots=6, cpu_mean=40.0,
        cpu_sigma=12.0, traffic_rate=30000.0,
    ),
    "router": DeviceProfile(
        "router", interface_count=8, process_slots=2, cpu_mean=25.0,
        cpu_sigma=8.0, traffic_rate=120000.0,
    ),
    "switch": DeviceProfile(
        "switch", interface_count=24, process_slots=1, cpu_mean=10.0,
        cpu_sigma=4.0, traffic_rate=250000.0,
    ),
}


class _Faults:
    """Active fault flags for a device."""

    def __init__(self):
        self.cpu_runaway = False
        self.memory_leak = False
        self.disk_filling = False
        self.down_interfaces = set()

    def any_active(self):
        return (
            self.cpu_runaway
            or self.memory_leak
            or self.disk_filling
            or bool(self.down_interfaces)
        )


class ManagedDevice:
    """A device whose MIB reflects continuously evolving metrics.

    Args:
        sim: the simulator.
        host: the device's host in the topology (provides identity; device
            metric values are *modelled state*, not derived from the host's
            simulated resources).
        profile: a :class:`DeviceProfile` or profile name.
        tick: seconds between dynamics updates.
        lazy: when True, no background dynamics process is spawned; the
            device replays its missed ticks on demand (:meth:`catch_up`,
            called by the SNMP engine before every read and by fault
            injection).  Values are identical to eager mode -- each tick
            draws from the device's own RNG stream in tick order -- but an
            idle device costs *zero* kernel events.  This is the
            big-topology win: at ``devices=5000, tick=1`` eager dynamics
            alone schedule 5000 events per simulated second.  A lazy
            device also builds its MIB on first read.

    In both modes the device's RNG stream (``sim.rng("device/<name>")``)
    is created on the first draw; its seed derives from the stream name,
    so the values do not depend on when that happens.  Together with the
    host building its resources on first use, a device that is never
    polled costs only its identity and state scalars.
    """

    def __init__(self, sim, host, profile="server", tick=1.0, lazy=False):
        if isinstance(profile, str):
            profile = PROFILES[profile]
        self.sim = sim
        self.host = host
        self.profile = profile
        self.tick = tick
        self.lazy = lazy
        self._rng = None
        self.faults = _Faults()
        self.started_at = sim.now
        self._ticks_done = 0

        # Live state
        self.cpu_load = profile.cpu_mean
        self.load_avg = profile.cpu_mean / 25.0
        self.mem_available_kb = int(profile.mem_total_kb * 0.6)
        self.disk_free_kb = int(profile.disk_total_kb * 0.5)
        self.proc_count = 40 + profile.process_slots * 10
        self.if_in_octets = [0] * profile.interface_count
        self.if_out_octets = [0] * profile.interface_count
        self.process_names = [
            "proc-%s-%d" % (host.name, index)
            for index in range(profile.process_slots)
        ]

        if lazy:
            # MIB built on first read; dynamics replayed on demand.
            self._mib = None
            self._dynamics = None
        else:
            self._mib = MibTree()
            self._populate_mib()
            self._dynamics = sim.spawn(
                self._run_dynamics(), name="dyn:" + host.name,
            )

    @property
    def rng(self):
        """The device's private RNG stream, created on first use."""
        rng = self._rng
        if rng is None:
            rng = self._rng = self.sim.rng("device/" + self.host.name)
        return rng

    # -- MIB ---------------------------------------------------------------

    @property
    def mib(self):
        mib = self._mib
        if mib is None:
            mib = self._mib = MibTree()
            self._populate_mib()
        return mib

    def _populate_mib(self):
        # Objects are registered in OID order, so each register() appends.
        register = self._mib.register_scalar
        profile = self.profile
        register(
            std.SYS_DESCR, "sysDescr", "repro %s device" % profile.name,
        )
        register(
            std.SYS_UPTIME, "sysUpTime",
            lambda: int((self.sim.now - self.started_at) * 100), units="ticks",
        )
        register(std.SYS_NAME, "sysName", self.host.name, writable=False)
        register(std.IF_COUNT, "ifNumber", profile.interface_count)
        # The polled OID lists are built once per device shape:
        # traffic = [ifNumber, then in, out, status per interface],
        # storage = [disk free, disk total, process count, process table].
        traffic = std.group_oids(std.GROUP_TRAFFIC, profile.interface_count)
        in_oids, out_oids, status_oids = (
            traffic[1::3], traffic[2::3], traffic[3::3])
        for index, oid in enumerate(status_oids, start=1):
            register(oid, "ifOperStatus.%d" % index, self._status_reader(index))
        for index, oid in enumerate(in_oids, start=1):
            register(
                oid, "ifInOctets.%d" % index,
                self._octet_reader(self.if_in_octets, index - 1),
                units="octets",
            )
        for index, oid in enumerate(out_oids, start=1):
            register(
                oid, "ifOutOctets.%d" % index,
                self._octet_reader(self.if_out_octets, index - 1),
                units="octets",
            )
        register(std.PROC_COUNT, "hrSystemProcesses", lambda: self.proc_count)
        proc_oids = std.group_oids(
            std.GROUP_STORAGE, process_slots=len(self.process_names))[3:]
        for slot, (oid, name) in enumerate(
                zip(proc_oids, self.process_names), start=1):
            register(oid, "hrSWRunName.%d" % slot, name)
        register(
            std.MEM_AVAIL, "memAvailReal", lambda: self.mem_available_kb,
            units="kB",
        )
        register(std.DISK_TOTAL, "dskTotal", profile.disk_total_kb, units="kB")
        register(
            std.DISK_FREE, "dskAvail", lambda: self.disk_free_kb, units="kB",
        )
        register(std.LOAD_AVG_1MIN, "laLoad1", lambda: round(self.load_avg, 2))
        register(
            std.CPU_LOAD, "ssCpuBusy", lambda: round(self.cpu_load, 1),
            units="percent",
        )

    def _octet_reader(self, counters, index):
        return lambda: counters[index]

    def _status_reader(self, if_index):
        # MIB interface indices are 1-based; fault indices are 0-based.
        return lambda: 2 if (if_index - 1) in self.faults.down_interfaces else 1

    # -- dynamics -----------------------------------------------------------

    def _run_dynamics(self):
        while True:
            yield self.tick
            self._advance()

    def catch_up(self):
        """Replay every tick a lazy device has missed up to ``sim.now``.

        Deterministically equivalent to eager dynamics: the same number of
        ticks have elapsed by any given time, each consuming the same
        draws from the device's private RNG stream in the same order, so a
        read observes identical values either way.  No-op on eager
        devices (their background process already did the work).
        """
        if self._dynamics is not None:
            return
        target = int((self.sim.now - self.started_at) / self.tick)
        while self._ticks_done < target:
            self._advance()

    def _advance(self):
        """One dynamics tick (shared by the eager loop and lazy replay).

        Draw order per tick: CPU, load average, memory (healthy regime
        only), process count, then per up interface its traffic and its
        out/in ratio.  Each clamp is ``min(high, max(low, gauss(...)))``.
        """
        self._ticks_done += 1
        # Re-read the profile each tick: scenarios may swap it at
        # runtime (e.g. rerouted traffic multiplying the rate).
        profile = self.profile
        faults = self.faults
        generator = self.rng.generator
        gauss = generator.gauss
        if faults.cpu_runaway:
            cpu_load = min(100.0, max(90.0, gauss(97.0, 2.0)))
        else:
            cpu_load = min(
                100.0, max(0.0, gauss(profile.cpu_mean, profile.cpu_sigma)))
        self.cpu_load = cpu_load
        self.load_avg = max(0.0, cpu_load / 25.0 + gauss(0, 0.1))
        mem_total = profile.mem_total_kb
        if faults.memory_leak:
            self.mem_available_kb = max(
                0, int(self.mem_available_kb - mem_total * 0.02)
            )
        else:
            self.mem_available_kb = int(min(
                mem_total * 0.95,
                max(mem_total * 0.2, gauss(mem_total * 0.6, mem_total * 0.1)),
            ))
        if faults.disk_filling:
            self.disk_free_kb = max(
                0, int(self.disk_free_kb - profile.disk_total_kb * 0.03)
            )
        self.proc_count = max(
            1, int(self.proc_count + generator.randint(-3, 3))
        )
        mean = profile.traffic_rate * self.tick
        sigma = mean * 0.3
        high = mean * 3.0
        down = faults.down_interfaces
        uniform = generator.uniform
        in_octets = self.if_in_octets
        out_octets = self.if_out_octets
        for index in range(profile.interface_count):
            if index in down:
                continue
            delta = min(high, max(0.0, gauss(mean, sigma)))
            in_octets[index] += int(delta)
            out_octets[index] += int(delta * uniform(0.5, 1.0))

    # -- fault injection -------------------------------------------------

    def inject_fault(self, kind, interface=None):
        """Switch a metric into a degraded regime.

        ``kind`` is one of ``"cpu_runaway"``, ``"memory_leak"``,
        ``"disk_filling"``, ``"interface_down"`` (needs ``interface``).
        """
        self.catch_up()  # regime switches apply from a caught-up state
        if kind == "cpu_runaway":
            self.faults.cpu_runaway = True
        elif kind == "memory_leak":
            self.faults.memory_leak = True
        elif kind == "disk_filling":
            self.faults.disk_filling = True
        elif kind == "interface_down":
            if interface is None:
                raise ValueError("interface_down needs an interface index")
            if not 0 <= interface < self.profile.interface_count:
                raise ValueError("interface %r out of range" % interface)
            self.faults.down_interfaces.add(interface)
        else:
            raise ValueError("unknown fault kind %r" % kind)

    def clear_fault(self, kind, interface=None):
        """Return a metric to its healthy regime."""
        self.catch_up()
        if kind == "cpu_runaway":
            self.faults.cpu_runaway = False
        elif kind == "memory_leak":
            self.faults.memory_leak = False
            self.mem_available_kb = int(self.profile.mem_total_kb * 0.6)
        elif kind == "disk_filling":
            self.faults.disk_filling = False
            self.disk_free_kb = int(self.profile.disk_total_kb * 0.5)
        elif kind == "interface_down":
            self.faults.down_interfaces.discard(interface)
        else:
            raise ValueError("unknown fault kind %r" % kind)

    def stop(self):
        """Halt the background dynamics process (lets ``sim.run()`` drain)."""
        if self._dynamics is not None:
            self._dynamics.kill()

    @property
    def name(self):
        return self.host.name

    def __repr__(self):
        return "ManagedDevice(%r, profile=%r)" % (self.name, self.profile.name)
