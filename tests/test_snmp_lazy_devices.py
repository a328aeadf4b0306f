"""Lazy device state: pinned dynamics draws, lazy = eager, idle = free.

Devices build their RNG stream and MIB, and their hosts build their
resources, on first touch.  These tests hold the simulated outcome to the
values the eager construction produced:

* every profile's state after 50 ticks in each fault regime is pinned
  (seed 2003), so the tick loop must make the same draws in the same
  order with the same clamps;
* a lazy and an eager device with the same seed answer every MIB read
  identically, over generated fault and read schedules;
* a 2,000-device lazy grid with four devices polled leaves the others
  without resources or RNG streams, and its management hosts account
  exactly the pinned units and busy times.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import (
    DeviceSpec, GridManagementSystem, GridTopologySpec, HostSpec)
from repro.network.topology import Host, Network
from repro.simkernel.simulator import Simulator
from repro.snmp.device import PROFILES, ManagedDevice

REGIMES = (
    "healthy", "cpu_runaway", "memory_leak", "disk_filling", "interface_down")

GOLDEN_50_TICKS = {
    "router/cpu_runaway": dict(
        cpu_load=96.86371113847811, load_avg=4.033644929475844,
        mem_available_kb=537853, disk_free_kb=4194304, proc_count=35,
        if_in_octets=[
            6120375, 5600763, 5940904, 6125803, 6295699, 6120394, 5851033,
            5629811
        ],
        if_out_octets=[
            4778035, 4319585, 4356471, 4900397, 4707454, 4689115, 4484783,
            4386055
        ],
    ),
    "router/disk_filling": dict(
        cpu_load=24.454844553912466, load_avg=1.137290266093218,
        mem_available_kb=537853, disk_free_kb=0, proc_count=35,
        if_in_octets=[
            6120375, 5600763, 5940904, 6125803, 6295699, 6120394, 5851033,
            5629811
        ],
        if_out_octets=[
            4778035, 4319585, 4356471, 4900397, 4707454, 4689115, 4484783,
            4386055
        ],
    ),
    "router/healthy": dict(
        cpu_load=24.454844553912466, load_avg=1.137290266093218,
        mem_available_kb=537853, disk_free_kb=4194304, proc_count=35,
        if_in_octets=[
            6120375, 5600763, 5940904, 6125803, 6295699, 6120394, 5851033,
            5629811
        ],
        if_out_octets=[
            4778035, 4319585, 4356471, 4900397, 4707454, 4689115, 4484783,
            4386055
        ],
    ),
    "router/interface_down": dict(
        cpu_load=23.113661437675628, load_avg=0.8138484345466956,
        mem_available_kb=854457, disk_free_kb=4194304, proc_count=66,
        if_in_octets=[
            6412351, 0, 6577237, 5615872, 5897758, 5638321, 6219832, 6149074
        ],
        if_out_octets=[
            4905012, 0, 5183483, 4384355, 4559156, 4314432, 4837118, 5046419
        ],
    ),
    "router/memory_leak": dict(
        cpu_load=50.8312783750495, load_avg=1.948888103266918,
        mem_available_kb=0, disk_free_kb=4194304, proc_count=46,
        if_in_octets=[
            5710676, 5764510, 5735780, 6074044, 5809914, 5568291, 5762667,
            5852819
        ],
        if_out_octets=[
            4354389, 4285486, 4322271, 4683848, 4229315, 4349100, 4307241,
            4295609
        ],
    ),
    "server/cpu_runaway": dict(
        cpu_load=96.72208996318845, load_avg=3.7306598450371213,
        mem_available_kb=552071, disk_free_kb=4194304, proc_count=98,
        if_in_octets=[1387222, 1435948],
        if_out_octets=[1055802, 1083592],
    ),
    "server/disk_filling": dict(
        cpu_load=38.33253977913073, load_avg=1.395077837674812,
        mem_available_kb=552071, disk_free_kb=0, proc_count=98,
        if_in_octets=[1387222, 1435948],
        if_out_octets=[1055802, 1083592],
    ),
    "server/healthy": dict(
        cpu_load=38.33253977913073, load_avg=1.395077837674812,
        mem_available_kb=552071, disk_free_kb=4194304, proc_count=98,
        if_in_octets=[1387222, 1435948],
        if_out_octets=[1055802, 1083592],
    ),
    "server/interface_down": dict(
        cpu_load=32.144061622381074, load_avg=1.2969872884987477,
        mem_available_kb=594615, disk_free_kb=4194304, proc_count=107,
        if_in_octets=[1519218, 0],
        if_out_octets=[1140704, 0],
    ),
    "server/memory_leak": dict(
        cpu_load=46.473079630350846, load_avg=1.8264359073599916,
        mem_available_kb=0, disk_free_kb=4194304, proc_count=70,
        if_in_octets=[1428923, 1621411],
        if_out_octets=[1077305, 1255021],
    ),
    "switch/cpu_runaway": dict(
        cpu_load=98.6140604470405, load_avg=3.8574086212237892,
        mem_available_kb=580284, disk_free_kb=4194304, proc_count=44,
        if_in_octets=[
            11956929, 12400027, 12300700, 12563610, 12264639, 12706034,
            12345626, 12970822, 13227936, 12729208, 12451122, 11272248,
            12768339, 12282190, 13189858, 12547864, 12441492, 12546313,
            12994413, 12591987, 12975653, 12500078, 12473580, 13090289
        ],
        if_out_octets=[
            9609375, 8883747, 9825757, 9397537, 9807191, 9471937, 9158909,
            9698374, 9922947, 10038426, 9375254, 8141286, 9192632, 9535661,
            9780651, 9939401, 8749618, 9381290, 10230015, 9767750, 9917339,
            9704432, 9043046, 9504333
        ],
    ),
    "switch/disk_filling": dict(
        cpu_load=13.228120894081014, load_avg=0.44197103910541,
        mem_available_kb=580284, disk_free_kb=0, proc_count=44,
        if_in_octets=[
            11956929, 12400027, 12300700, 12563610, 12264639, 12706034,
            12345626, 12970822, 13227936, 12729208, 12451122, 11272248,
            12768339, 12282190, 13189858, 12547864, 12441492, 12546313,
            12994413, 12591987, 12975653, 12500078, 12473580, 13090289
        ],
        if_out_octets=[
            9609375, 8883747, 9825757, 9397537, 9807191, 9471937, 9158909,
            9698374, 9922947, 10038426, 9375254, 8141286, 9192632, 9535661,
            9780651, 9939401, 8749618, 9381290, 10230015, 9767750, 9917339,
            9704432, 9043046, 9504333
        ],
    ),
    "switch/healthy": dict(
        cpu_load=13.228120894081014, load_avg=0.44197103910541,
        mem_available_kb=580284, disk_free_kb=4194304, proc_count=44,
        if_in_octets=[
            11956929, 12400027, 12300700, 12563610, 12264639, 12706034,
            12345626, 12970822, 13227936, 12729208, 12451122, 11272248,
            12768339, 12282190, 13189858, 12547864, 12441492, 12546313,
            12994413, 12591987, 12975653, 12500078, 12473580, 13090289
        ],
        if_out_octets=[
            9609375, 8883747, 9825757, 9397537, 9807191, 9471937, 9158909,
            9698374, 9922947, 10038426, 9375254, 8141286, 9192632, 9535661,
            9780651, 9939401, 8749618, 9381290, 10230015, 9767750, 9917339,
            9704432, 9043046, 9504333
        ],
    ),
    "switch/interface_down": dict(
        cpu_load=11.783154527236327, load_avg=0.6360318879019311,
        mem_available_kb=799060, disk_free_kb=4194304, proc_count=52,
        if_in_octets=[
            12455181, 0, 12161811, 12606449, 13171329, 11730279, 11884838,
            12062861, 11077761, 12258221, 12503846, 13661093, 11276656,
            13001871, 11574694, 13073376, 12129034, 13469916, 11618484,
            12641038, 12725711, 12450031, 12573155, 13323312
        ],
        if_out_octets=[
            9690049, 0, 9290766, 9310989, 10089884, 8992999, 9075444, 8995108,
            8581743, 9480898, 8961573, 10075319, 8295226, 9707767, 8893700,
            9510906, 10015805, 10468209, 8972907, 9258707, 9532039, 9073581,
            9455185, 10151431
        ],
    ),
    "switch/memory_leak": dict(
        cpu_load=12.236861888873332, load_avg=0.4281572879372014,
        mem_available_kb=0, disk_free_kb=4194304, proc_count=33,
        if_in_octets=[
            12752073, 12322058, 12902729, 12451270, 11823227, 12491081,
            13512027, 12630049, 12166615, 12360137, 13478287, 13345165,
            12748331, 11848253, 11842683, 12775491, 12375925, 12253490,
            12069184, 13151915, 12613685, 13054166, 12632611, 12586899
        ],
        if_out_octets=[
            9588142, 8754259, 9578134, 9573086, 9021763, 9630702, 9761118,
            9384016, 8810395, 9056064, 9927893, 9896695, 9352472, 9064196,
            8689622, 9630436, 9726918, 9017208, 9294976, 9678634, 9687381,
            9721062, 9621923, 9170515
        ],
    ),
}


def _device(profile, lazy=True, seed=2003, tick=1.0):
    sim = Simulator(seed=seed)
    host = Network(sim).add_host("dev-" + profile, "site1", role="device")
    return sim, ManagedDevice(sim, host, profile=profile, tick=tick, lazy=lazy)


def _inject(device, regime):
    if regime == "interface_down":
        device.inject_fault(regime, interface=1)
    elif regime != "healthy":
        device.inject_fault(regime)


class TestGoldenDraws:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("regime", REGIMES)
    def test_state_after_50_ticks(self, profile, regime):
        _, device = _device(profile)
        _inject(device, regime)
        for _ in range(50):
            device._advance()
        assert device._ticks_done == 50
        state = dict(
            cpu_load=device.cpu_load,
            load_avg=device.load_avg,
            mem_available_kb=device.mem_available_kb,
            disk_free_kb=device.disk_free_kb,
            proc_count=device.proc_count,
            if_in_octets=device.if_in_octets,
            if_out_octets=device.if_out_octets,
        )
        assert state == GOLDEN_50_TICKS["%s/%s" % (profile, regime)]

    def test_eager_loop_replays_the_same_ticks(self):
        sim, device = _device("router", lazy=False)
        _inject(device, "interface_down")
        sim.run(until=50.5)
        device.stop()
        assert device._ticks_done == 50
        expected = GOLDEN_50_TICKS["router/interface_down"]
        assert device.if_in_octets == expected["if_in_octets"]
        assert device.cpu_load == expected["cpu_load"]


# -- lazy = eager ------------------------------------------------------------

FAULTS = ("cpu_runaway", "memory_leak", "disk_filling", "interface_down")


@st.composite
def schedules(draw):
    """A profile, fault inject/clear times and read times (half-ticks).

    Times sit halfway between ticks (tick = 1.0), where the eager loop's
    order against the action is unambiguous.
    """
    profile = draw(st.sampled_from(sorted(PROFILES)))
    half_ticks = st.integers(min_value=0, max_value=40).map(lambda t: t + 0.5)
    actions = []
    for kind in draw(st.lists(st.sampled_from(FAULTS), max_size=4)):
        interface = None
        if kind == "interface_down":
            interface = draw(st.integers(
                0, PROFILES[profile].interface_count - 1))
        start = draw(half_ticks)
        actions.append((start, "inject", kind, interface))
        if draw(st.booleans()):
            actions.append(
                (start + draw(half_ticks) - 0.5, "clear", kind, interface))
    for at in draw(st.lists(half_ticks, min_size=1, max_size=5)):
        actions.append((at, "read", None, None))
    actions.sort(key=lambda action: (action[0], action[1] == "read"))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return profile, seed, actions


def _replay(profile, seed, actions, lazy):
    sim, device = _device(profile, lazy=lazy, seed=seed)
    log = []

    def play():
        for at, what, kind, interface in actions:
            if at > sim.now:
                yield at - sim.now
            if what == "inject":
                device.inject_fault(kind, interface)
            elif what == "clear":
                device.clear_fault(kind, interface)
            else:
                device.catch_up()  # what the SNMP engine does before a read
                mib = device.mib
                log.append((sim.now, device._ticks_done, [
                    (str(oid), mib.get(oid).read()) for oid in mib.oids()
                ]))

    sim.spawn(play())
    sim.run(until=actions[-1][0] + 0.25)
    device.stop()
    return log, device._ticks_done


class TestLazyEqualsEager:
    @settings(max_examples=40, deadline=None)
    @given(schedules())
    def test_identical_reads_and_tick_counts(self, schedule):
        profile, seed, actions = schedule
        assert (_replay(profile, seed, actions, lazy=True)
                == _replay(profile, seed, actions, lazy=False))


# -- idle devices allocate nothing ------------------------------------------

#: Management-host accounting of the run below, pinned from the eager-
#: resource build: host -> (cpu, network, disk) units, then busy seconds.
UTILIZATION = {
    "analysis1": (240.0, 58.7, 0.0, 24.0, 5.869999999999998, 0.0),
    "analysis2": (80.0, 20.999999999999996, 0.0, 8.0, 2.1, 0.0),
    "collector1": (150.0, 40.20000000000001, 0.0, 15.0, 4.02, 0.0),
    "collector2": (150.0, 40.20000000000001, 0.0, 15.0, 4.02, 0.0),
    "interface1": (2.0, 4.0, 0.0, 0.2, 0.4, 0.0),
    "storage1": (132.0, 104.10000000000001, 248.0,
                 13.199999999999998, 10.409999999999995, 24.800000000000008),
}


@pytest.fixture(scope="module")
def idle_grid():
    profiles = sorted(PROFILES)
    spec = GridTopologySpec(
        devices=[DeviceSpec("dev%04d" % index, profiles[index % 3], "site1")
                 for index in range(2000)],
        collector_hosts=[HostSpec("collector1", "site1"),
                         HostSpec("collector2", "site1")],
        analysis_hosts=[HostSpec("analysis1", "site1"),
                        HostSpec("analysis2", "site1")],
        storage_host=HostSpec("storage1", "site1"),
        interface_host=HostSpec("interface1", "site1"),
        dataset_threshold=6, seed=9, lazy_devices=True,
    )
    system = GridManagementSystem(spec)
    system.devices["dev0001"].inject_fault("cpu_runaway")
    # Four polls per request type: devices dev0000..dev0003.
    system.assign_goals(system.make_paper_goals(polls_per_type=4))
    assert system.run_until_records(12, timeout=300.0)
    return system


POLLED = ("dev0000", "dev0001", "dev0002", "dev0003")


class TestIdleDevicesAllocateNothing:
    def test_only_the_polled_devices_were_touched(self, idle_grid):
        polled = sorted(name for name, engine
                        in idle_grid.device_engines.items()
                        if engine.pdus_handled)
        assert polled == list(POLLED)

    def test_untouched_hosts_hold_no_resource(self, idle_grid):
        for name, device in idle_grid.devices.items():
            built = {"cpu", "disk", "nic"} & set(vars(device.host))
            if name in POLLED:
                assert {"cpu", "nic"} <= built
            else:
                assert not built, name

    def test_untouched_devices_hold_no_rng_stream_or_mib(self, idle_grid):
        streams = {name for name in idle_grid.sim._rng_streams
                   if name.startswith("device/")}
        assert streams == {"device/" + name for name in POLLED}
        for name, device in idle_grid.devices.items():
            if name not in POLLED:
                assert device._rng is None and device._mib is None, name

    def test_management_accounting_is_unchanged(self, idle_grid):
        report = {
            row.host_name: (
                row.cpu_units, row.net_units, row.disk_units,
                row.busy_time["cpu"], row.busy_time["network"],
                row.busy_time["disk"])
            for row in idle_grid.utilization_report()
        }
        assert report == UTILIZATION
        findings = [finding.kind for report in idle_grid.interface.reports
                    for finding in report.findings]
        assert findings == ["high-cpu"]

    def test_resources_appear_on_first_access(self, idle_grid):
        host = idle_grid.devices["dev1999"].host
        assert "disk" not in vars(host)
        assert host.resource("disk") is host.disk is vars(host)["disk"]
        assert [r.name for r in host.resources()] == ["cpu", "nic", "disk"]
        assert host.cpu.capacity == 10.0 and host.cpu.full_name == (
            "dev1999.cpu")

    @pytest.mark.parametrize("capacity", ["cpu_capacity", "disk_capacity",
                                          "net_capacity"])
    @pytest.mark.parametrize("value", [0, -1.0])
    def test_bad_capacity_still_raises_at_construction(self, capacity, value):
        sim = Simulator()
        site = Network(sim).site("site1")
        with pytest.raises(ValueError, match="capacity must be positive"):
            Host(sim, "h", site, **{capacity: value})
        assert site.hosts == []

    def test_unknown_attributes_still_raise(self):
        host = Network(Simulator()).add_host("h", "site1")
        with pytest.raises(AttributeError):
            host.gpu
        assert not hasattr(host, "gpu")
