"""Message transport over the simulated topology.

Semantics (see DESIGN.md section 5):

* the sender's NIC *queues* the payload (``nic.use``) -- a busy NIC delays
  further sends, which is how network bottlenecks emerge;
* the link adds latency plus size/bandwidth transit time;
* the receiver's NIC is *charged* the payload units (accounting without
  queueing -- receive-side contention is negligible at the paper's scale);
* the handler bound to the destination port is invoked with the message.

Delivery to a down host (or an unbound port, unless ``best_effort``) raises
:class:`DeliveryError` into the sending process via the returned event.

Batched delivery (DESIGN.md section 5.1 "Transport batching"):

All traffic flows through *wire batches*.  A flow is the tuple
``(sender host, destination host, destination port, ledger label)``; every
message submitted for the same flow within the same simulated instant is
drained by **one** delivery engine instead of one spawned process per
message.  Two batch modes exist:

* **coalesced** (automatic, for :meth:`Transport.send` / :meth:`post`) --
  one pooled NIC ``use`` for the summed units, but per-message transits so
  each message keeps the *exact* delivery time (and latency accounting) it
  would have had under per-message delivery: message *i* of the batch
  arrives at ``nic_service_start + cumsum(sizes[:i+1])/capacity +
  link.transit_time(sizes[i])``, which is precisely the serialized
  per-message pipeline.  Figure 6 outputs are therefore byte-identical
  with and without coalescing.
* **aggregate** (explicit :meth:`send_batch` / :meth:`post_batch`) -- the
  sender opted into shipping one aggregate: one NIC ``use`` for the summed
  units, **one** link transit sized by the sum, and one fan-out loop
  invoking handlers in send order at the common arrival instant.  This is
  the paper's "aggregate before transfer" (section 3) made literal.

Loss is applied per *message* in both modes -- each message survives an
independent Bernoulli draw from the shared ``"transport-loss"`` RNG stream
(drawn in arrival order), so link loss statistics are unchanged by
batching.  Host-down / unknown-host / unbound-port failures are likewise
still judged per message, at the instant that message arrives.
"""

import itertools

from repro.network.addressing import Address
from repro.simkernel.events import SimEvent


class DeliveryError(Exception):
    """A message could not be delivered."""

    def __init__(self, message, reason):
        super().__init__("%s (message %s -> %s)" % (reason, message.sender, message.dest))
        self.message = message
        self.reason = reason


class Message:
    """A payload travelling between two (host, port) endpoints.

    Args:
        sender / dest: :class:`~repro.network.addressing.Address`.
        payload: arbitrary Python object (records batch, ACL message, ...).
        size_units: abstract network units -- the quantity charged to NICs
            and divided by bandwidth for transit time.
        protocol: symbolic protocol name ("snmp", "http", "smtp", "acl").
        label: ledger label for the NIC charge (defaults to protocol).
    """

    _ids = itertools.count(1)

    def __init__(self, sender, dest, payload, size_units, protocol="raw", label=None):
        if size_units < 0:
            raise ValueError("size_units must be >= 0")
        self.id = next(Message._ids)
        self.sender = sender
        self.dest = dest
        self.payload = payload
        self.size_units = float(size_units)
        self.protocol = protocol
        self.label = label if label is not None else protocol
        self.sent_at = None
        self.delivered_at = None

    @property
    def latency(self):
        if self.sent_at is None or self.delivered_at is None:
            return None
        return self.delivered_at - self.sent_at

    def __repr__(self):
        return "Message(#%d %s->%s, %s, %g units)" % (
            self.id,
            self.sender,
            self.dest,
            self.protocol,
            self.size_units,
        )


class _WireBatch:
    """Delivery state for one wire batch (pooled -- see Transport._pool).

    ``sinks[i]`` records where message *i*'s outcome goes: ``None``
    (fire-and-forget), a :class:`SimEvent` to trigger, or an
    ``(_OutcomeCollector, index)`` pair from :meth:`Transport.send_batch`.
    """

    __slots__ = ("transport", "aggregate", "key", "messages", "sinks",
                 "src", "dst", "link", "total", "unresolved")

    def __init__(self, transport):
        self.transport = transport
        self.aggregate = False
        self.key = None
        self.messages = []
        self.sinks = []
        self.src = None
        self.dst = None
        self.link = None
        self.total = 0.0
        self.unresolved = 0

    def add(self, message, sink):
        self.messages.append(message)
        self.sinks.append(sink)
        self.unresolved += 1

    # NIC callbacks (resources.Resource.acquire) --------------------------

    def _nic_started(self, request):
        self.transport._exact_departures(self)

    def _nic_completed(self, request):
        self.transport._aggregate_transit(self)


class _OutcomeCollector:
    """Gathers per-message outcomes for one :meth:`Transport.send_batch`."""

    __slots__ = ("event", "results", "remaining")

    def __init__(self, event, count):
        self.event = event
        self.results = [None] * count
        self.remaining = count

    def resolve(self, index, value):
        self.results[index] = value
        self.remaining -= 1
        if self.remaining == 0:
            self.event.trigger(self.results)


class Transport:
    """Delivers messages between bound host ports with full cost accounting.

    Args:
        network: the :class:`~repro.network.topology.Network` to route over.
        best_effort: drop (rather than name) unbound destination ports.
        coalesce: when True (default), same-instant sends to the same flow
            share one wire batch (timing-exact; see module docstring).
            ``False`` gives every message its own batch -- the pre-batching
            per-message pipeline, kept for A/B tests and benchmarks.
    """

    def __init__(self, network, best_effort=False, coalesce=True):
        self.network = network
        self.sim = network.sim
        self.best_effort = best_effort
        self.coalesce = coalesce
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.units_carried = 0.0
        self.wire_batches = 0
        self.messages_coalesced = 0
        self._pending = {}  # flow key -> _WireBatch filling this instant
        self._pool = []  # recycled _WireBatch objects
        self._loss_random = None  # cached "transport-loss" stream .random

    # -- submission ----------------------------------------------------------

    def send(self, message):
        """Asynchronously deliver ``message``.

        Returns a :class:`~repro.simkernel.events.SimEvent` that triggers
        with the message on delivery, or with a :class:`DeliveryError` on
        failure (the caller decides whether to inspect it).
        """
        done = self.sim.event("delivery#%d" % message.id)
        self._submit(message, done)
        return done

    def post(self, message):
        """Fire-and-forget :meth:`send`: no completion event is allocated.

        The hot path for protocols that surface failures by other means
        (SNMP timeouts, platform FAILURE bounces).
        """
        self._submit(message, None)

    def send_batch(self, messages):
        """Ship ``messages`` as aggregate wire batches (one per flow).

        Messages sharing a flow -- same (sender host, destination host,
        destination port, label) -- travel as **one** transfer: one NIC
        ``use`` for the summed units and one link transit sized by the
        sum, arriving together.  Returns a SimEvent that triggers with the
        list of per-message outcomes (Message or DeliveryError, in input
        order) once every message has been resolved.
        """
        messages = list(messages)
        done = self.sim.event("delivery-batch")
        if not messages:
            done.trigger([])
            return done
        collector = _OutcomeCollector(done, len(messages))
        for index, message in enumerate(messages):
            self._submit_aggregate(message, (collector, index))
        return done

    def post_batch(self, messages):
        """Fire-and-forget :meth:`send_batch` (no outcome collection)."""
        for message in messages:
            self._submit_aggregate(message, None)

    def send_and_wait(self, message):
        """Process helper: ``result = yield from transport.send_and_wait(m)``.

        Raises :class:`DeliveryError` inside the calling process on failure.
        """
        outcome = yield self.send(message)
        if isinstance(outcome, DeliveryError):
            raise outcome
        return outcome

    # -- batching lanes ------------------------------------------------------

    def _submit(self, message, sink):
        """Queue one message on the coalesced (timing-exact) lane."""
        message.sent_at = self.sim.now
        self.messages_sent += 1
        if not self.coalesce:
            batch = self._new_batch(aggregate=False)
            batch.add(message, sink)
            self.sim._schedule_now(self._launch, (batch,))
            return
        key = (message.sender.host, message.dest.host,
               message.dest.port, message.label)
        batch = self._pending.get(key)
        if batch is None:
            batch = self._new_batch(aggregate=False)
            batch.key = key
            self._pending[key] = batch
            self.sim._schedule_now(self._launch, (batch,))
        batch.add(message, sink)

    def _submit_aggregate(self, message, sink):
        """Queue one message on the aggregate (one-transit) lane."""
        message.sent_at = self.sim.now
        self.messages_sent += 1
        key = (message.sender.host, message.dest.host,
               message.dest.port, message.label, "aggregate")
        batch = self._pending.get(key)
        if batch is None:
            batch = self._new_batch(aggregate=True)
            batch.key = key
            self._pending[key] = batch
            self.sim._schedule_now(self._launch, (batch,))
        batch.add(message, sink)

    def _new_batch(self, aggregate):
        if self._pool:
            batch = self._pool.pop()
        else:
            batch = _WireBatch(self)
        batch.aggregate = aggregate
        return batch

    def _recycle(self, batch):
        batch.key = None
        batch.src = None
        batch.dst = None
        batch.link = None
        batch.total = 0.0
        batch.messages.clear()
        batch.sinks.clear()
        self._pool.append(batch)

    # -- delivery engine -----------------------------------------------------

    def _launch(self, batch):
        """Start one wire batch (fires in the zero-delay lane)."""
        if batch.key is not None:
            del self._pending[batch.key]
            batch.key = None
        self.wire_batches += 1
        count = len(batch.messages)
        if count > 1:
            self.messages_coalesced += count
        first = batch.messages[0]
        hosts = self.network.hosts
        src = hosts.get(first.sender.host)
        if src is None:
            self._abort(batch, "unknown sender host")
            return
        dst = hosts.get(first.dest.host)
        if dst is None:
            self._abort(batch, "unknown destination host")
            return
        if not src.up:
            self._abort(batch, "sender host down")
            return
        batch.src = src
        batch.dst = dst
        link = self.network.link_between(src, dst)
        batch.link = link
        total = 0.0
        for message in batch.messages:
            total += message.size_units
        batch.total = total
        if batch.aggregate:
            if total > 0:
                # One queued NIC use for the whole aggregate; transit is
                # scheduled once the summed units have been served.
                src.nic.acquire(total, label=first.label,
                                on_complete=batch._nic_completed)
            else:
                self._aggregate_transit(batch)
            return
        # Coalesced lane: one NIC use for the sum, per-message transits
        # once service starts.  Zero-size messages never queue on the NIC
        # and depart immediately, exactly as in per-message delivery.
        if total > 0:
            src.nic.acquire(total, label=first.label,
                            on_start=batch._nic_started)
        schedule = self.sim.schedule
        latency = link.latency
        for index, message in enumerate(batch.messages):
            if message.size_units > 0:
                continue
            if latency > 0:
                schedule(latency, self._arrive_one, (batch, index))
            else:
                self._arrive_one(batch, index)

    def _exact_departures(self, batch):
        """NIC service started: schedule each message's exact arrival.

        Message *i* would, under per-message delivery, finish the NIC at
        ``start + cumsum(sizes[:i+1])/capacity`` and then spend its own
        ``link.transit_time(size_i)`` on the wire; reproduce both from the
        single batched service start.
        """
        capacity = batch.src.nic.capacity
        link = batch.link
        schedule = self.sim.schedule
        cumulative = 0.0
        for index, message in enumerate(batch.messages):
            size = message.size_units
            if size <= 0:
                continue  # departed at launch
            cumulative += size
            schedule(cumulative / capacity + link.transit_time(size),
                     self._arrive_one, (batch, index))

    def _aggregate_transit(self, batch):
        """Aggregate NIC service done: one transit for the summed units."""
        transit = batch.link.transit_time(batch.total)
        if transit > 0:
            self.sim.schedule(transit, self._arrive_aggregate, (batch,))
        else:
            self._arrive_aggregate(batch)

    def _arrive_aggregate(self, batch):
        for index in range(len(batch.messages)):
            self._arrive_one(batch, index)

    def _arrive_one(self, batch, index):
        """One message reaches the destination edge: loss, checks, handoff."""
        message = batch.messages[index]
        link = batch.link
        if link.loss_rate > 0:
            loss_random = self._loss_random
            if loss_random is None:
                loss_random = self.sim.rng("transport-loss").random
                self._loss_random = loss_random
            if loss_random() < link.loss_rate:
                self._finish(batch, index, "lost in transit")
                return
        dst = batch.dst
        # Site partitions sever traffic at the destination edge: messages
        # already in flight when the partition starts are lost too, like a
        # real cut fibre.  The set membership guard keeps the healthy path
        # free of any per-message cost (partitioned_sites is normally empty).
        if self.network.partitioned_sites and self.network.severed(batch.src, dst):
            self._finish(batch, index, "site partitioned")
            return
        # Host-island partitions (split-brain) sever at the same edge,
        # under the same empty-set gating.
        if self.network.partitioned_hosts and \
                self.network.host_severed(batch.src, dst):
            self._finish(batch, index, "host partitioned")
            return
        if not dst.up:
            self._finish(batch, index, "destination host down")
            return
        handler = dst.handler_for(message.dest.port)
        if handler is None:
            if self.best_effort:
                self._finish(batch, index, "port not bound")
            else:
                self._finish(batch, index, "port %r not bound on %s" % (
                    message.dest.port, dst.name))
            return
        if message.size_units > 0:
            dst.nic.charge(message.size_units, label=message.label)
        message.delivered_at = self.sim.now
        self.messages_delivered += 1
        self.units_carried += message.size_units
        handler(message)
        self._finish(batch, index, None, message)

    def _finish(self, batch, index, reason, delivered=None):
        """Resolve message ``index`` of ``batch`` and recycle when drained."""
        if reason is not None:
            self._drop(batch.messages[index], batch.sinks[index], reason)
        else:
            self._resolve(batch.sinks[index], delivered)
        batch.unresolved -= 1
        if batch.unresolved == 0:
            self._recycle(batch)

    def _abort(self, batch, reason):
        """Drop every message of a batch that failed pre-flight checks."""
        for message, sink in zip(batch.messages, batch.sinks):
            self._drop(message, sink, reason)
        batch.unresolved = 0
        self._recycle(batch)

    def _drop(self, message, sink, reason):
        self.messages_dropped += 1
        self._resolve(sink, DeliveryError(message, reason))

    @staticmethod
    def _resolve(sink, value):
        if sink is None:
            return
        if type(sink) is tuple:
            sink[0].resolve(sink[1], value)
        else:
            sink.trigger(value)

    # -- convenience ---------------------------------------------------------

    def address(self, host_name, port):
        return Address(host_name, port)

    def stats(self):
        return {
            "sent": self.messages_sent,
            "delivered": self.messages_delivered,
            "dropped": self.messages_dropped,
            "units_carried": self.units_carried,
            "wire_batches": self.wire_batches,
            "coalesced": self.messages_coalesced,
        }

    def __repr__(self):
        return "Transport(sent=%d, delivered=%d, dropped=%d, batches=%d)" % (
            self.messages_sent,
            self.messages_delivered,
            self.messages_dropped,
            self.wire_batches,
        )
