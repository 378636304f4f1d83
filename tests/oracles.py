"""List-based oracles the property tests hold the real structures to.

Deliberately naive — one plain list, linear scans, no index, no cache, no
heap — so that what they compute is obviously the specification.  They
took over the equivalence duty of the linear-scan, per-call and copy-first
reference implementations that used to ship in ``src/`` behind a switch,
and :class:`ListSimulator` keeps the simulator loop as it was before it
popped once per event.
The one dict-based oracle, :class:`DictFlowStateTable`, is the flow table
as it shipped before its entries were linked to their reverse flow: every
flow keeps a copy of its indicators and every drop rebuilds the reverse
key from them.
:class:`UncachedEventBus` is the event bus before it cached its delivery
lists, and :class:`ScoreEveryEventManager` the streaming detector
manager before it scored only the events it alerts on.
:func:`oracle_column` builds a frame column as the frame did before it
read rows in blocks, and :func:`oracle_partial_sums` the K-Means sums as
they were before ``np.bincount``.
"""

import statistics

import numpy as np

from repro.distdb.query import matches_filter, sort_documents
from repro.errors import SimulationError
from repro.openflow.constants import FlowRemovedReason
from repro.openflow.flow import FlowEntry
from repro.openflow.match import MATCH_FIELDS
from repro.simkernel import SimClock
from repro.streaming.detector import StreamingAlert, StreamingDetectorManager


def oracle_matches(match, headers):
    """Field by field: every set field of ``match`` equals the header."""
    return all(
        headers.get(name) == getattr(match, name)
        for name in MATCH_FIELDS
        if getattr(match, name) is not None
    )


def oracle_approx_size(doc):
    """The BSON-like size formula, one isinstance chain per value."""
    size = 8
    for key, value in doc.items():
        size += len(key) + 2
        if isinstance(value, str):
            size += len(value) + 5
        elif isinstance(value, (int, float, bool)) or value is None:
            size += 9
        elif isinstance(value, dict):
            size += oracle_approx_size(value)
        elif isinstance(value, (list, tuple)):
            size += 5 + 9 * len(value)
        else:
            size += 16
    return size


def list_find(docs, filter_=None, sort=None, limit=None, projection=None):
    """Copy, filter, sort, limit, project; returns (results, bytes read)."""
    results = [dict(doc) for doc in docs if matches_filter(doc, filter_)]
    bytes_read = sum(oracle_approx_size(doc) for doc in results)
    if sort:
        sort_documents(results, sort)
    if limit is not None:
        results = results[: max(0, limit)]
    if projection:
        keep = set(projection) | {"_id"}
        results = [{k: v for k, v in doc.items() if k in keep} for doc in results]
    return results, bytes_read


def oracle_matrix(docs, features):
    """The feature matrix, one document and one feature at a time: a plain
    int or float lands as a float, anything else (absent, None, bool,
    string, list) is 0.0."""
    matrix = np.zeros((len(docs), len(features)))
    for row, doc in enumerate(docs):
        for col, feature in enumerate(features):
            value = doc.get(feature)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                matrix[row, col] = float(value)
    return matrix


def oracle_column(docs, name):
    """One typed column, one ``.get`` pass per column (the builder that
    shipped before rows were read in blocks): ``float64`` values plus a
    missing mask when every value is ``None`` or a non-bool int/float
    (subclasses included), else an ``object`` array and ``None``."""
    raw = [doc.get(name) for doc in docs]
    kinds = set(map(type, raw))
    for kind in kinds - {int, float, type(None)}:
        if issubclass(kind, bool) or not issubclass(kind, (int, float)):
            return np.fromiter(raw, dtype=object, count=len(raw)), None
    values = np.array(raw, dtype=np.float64)
    missing = np.fromiter((v is None for v in raw), dtype=bool, count=len(raw))
    return values, missing


def oracle_partial_sums(X, centers):
    """K-Means map statistics by scatter-add: per-cluster sums, counts and
    inertia, rows added in index order."""
    assignments = np.argmin(
        (centers ** 2).sum(axis=1)[None, :] - 2 * (X @ centers.T), axis=1
    )
    sums = np.zeros(centers.shape)
    counts = np.zeros(centers.shape[0])
    np.add.at(sums, assignments, X)
    np.add.at(counts, assignments, 1.0)
    return sums, counts, float(np.sum((X - centers[assignments]) ** 2))


class ListEvent:
    """An ``Event`` handle for :class:`ListEventQueue`."""

    def __init__(self, time, seq, action):
        self.time, self.seq, self.action, self.cancelled = time, seq, action, False

    def cancel(self):
        self.cancelled = True


class ListEventQueue:
    """``EventQueue`` semantics on one list kept sorted on ``(time, seq)``."""

    def __init__(self):
        self.events, self.seq = [], 0

    def __len__(self):
        return sum(not e.cancelled for e in self.events)

    def push(self, time, action):
        event = ListEvent(time, self.seq, action)
        self.seq += 1
        # sorted() is stable: equal times keep push order.
        self.events = sorted(self.events + [event], key=lambda e: e.time)
        return event

    def pop(self):
        live = [e for e in self.events if not e.cancelled]
        self.events = live[1:]
        return live[0] if live else None

    def peek_time(self):
        return next((e.time for e in self.events if not e.cancelled), None)

    def rearm(self, event, time):
        event.time, event.seq = time, self.seq
        self.seq += 1
        self.events = sorted(self.events + [event], key=lambda e: e.time)


class ListSimulator:
    """``Simulator`` on a :class:`ListEventQueue`, with the loop it had
    before it popped once per event: peek at the next live time, stop at
    the horizon, otherwise pop and fire."""

    def __init__(self):
        self.clock, self.queue, self.processed = SimClock(), ListEventQueue(), 0

    @property
    def now(self):
        return self.clock.now

    @property
    def pending(self):
        return len(self.queue)

    def at(self, when, action):
        if when < self.now:
            raise SimulationError(f"cannot schedule event at {when} before now={self.now}")
        return self.queue.push(when, action)

    def after(self, delay, action):
        return self.at(self.now + delay, action)

    def every(self, interval, action, until=None):
        def fire():
            action()
            next_time = self.now + interval
            if not handle.cancelled and (until is None or next_time <= until):
                self.queue.rearm(handle, next_time)

        handle = self.after(interval, fire)
        return handle

    def run(self, until=None, max_events=None):
        fired = 0
        while max_events is None or fired < max_events:
            next_time = self.queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self.clock.advance_to(until)
                break
            event = self.queue.pop()
            self.clock.advance_to(event.time)
            event.action()
            self.processed += 1
            fired += 1
        return fired


HARD, IDLE = FlowRemovedReason.HARD_TIMEOUT, FlowRemovedReason.IDLE_TIMEOUT


class ListFlowTable:
    """``FlowTable`` semantics on one precedence-sorted list."""

    def __init__(self, table_id=0):
        self.table_id, self.entries = table_id, []
        self.lookup_count = self.matched_count = 0

    def __len__(self):
        return len(self.entries)

    def select(self, match, priority=None, strict=False, out_port=None):
        """Entries a flow-mod (or a stats request) addresses, best first."""

        def covered(e):
            if strict:
                return e.match == match and priority in (None, e.priority)
            return oracle_matches(match, vars(e.match))  # e.match within match

        def ports(e):
            return [getattr(action, "port", None) for action in e.actions]

        return [e for e in self.entries if covered(e) and out_port in (None, *ports(e))]

    def find(self, match, priority=None):
        return next(iter(self.select(match, priority, strict=True)), None)

    def _remove(self, doomed):
        self.entries = [e for e in self.entries if all(e is not d for d in doomed)]
        return doomed

    def delete(self, match, priority=None, strict=False, out_port=None):
        return self._remove(self.select(match, priority, strict, out_port))

    def insert(self, entry, now):
        self.delete(entry.match, entry.priority, strict=True)
        entry.table_id = self.table_id
        entry.stats.install_time = entry.stats.last_packet_time = now
        # sorted() is stable: equal precedence keeps arrival order.
        self.entries = sorted(self.entries + [entry], key=FlowEntry.sort_key)
        return entry

    def modify(self, match, actions, priority=None, strict=False):
        covered = self.select(match, priority, strict)
        for entry in covered:
            entry.actions = list(actions)
        return len(covered)

    def lookup(self, headers, in_port=None):
        if in_port is not None:
            headers = {**headers, "in_port": in_port}
        winner = next((e for e in self.entries if oracle_matches(e.match, headers)), None)
        self.lookup_count += 1
        self.matched_count += winner is not None
        return winner

    def expire(self, now):
        due = [e for e in self.entries if e.is_hard_expired(now) or e.is_idle_expired(now)]
        return [(e, HARD if e.is_hard_expired(now) else IDLE) for e in self._remove(due)]


def reverse_indicators(indicators):
    """Indicators of the reverse direction (for pair-flow detection)."""
    flipped = dict(indicators)
    for a, b in (("eth_src", "eth_dst"), ("ip_src", "ip_dst"), ("tcp_src", "tcp_dst")):
        va, vb = indicators.get(a), indicators.get(b)
        if va is not None or vb is not None:
            flipped[a], flipped[b] = vb, va
    return {k: v for k, v in flipped.items() if v is not None}


def oracle_flow_keys(indicators):
    """A flow's key and its reverse's: copy, flip, filter, sort."""
    return (
        tuple(sorted(indicators.items())),
        tuple(sorted(reverse_indicators(indicators).items())),
    )


_REVERSE_NAME = {
    "eth_src": "eth_dst", "eth_dst": "eth_src",
    "ip_src": "ip_dst", "ip_dst": "ip_src",
    "tcp_src": "tcp_dst", "tcp_dst": "tcp_src",
}


def two_sort_flow_keys(indicators):
    """A flow's key and its reverse's as ``(name, value)`` items, one sort
    each: the one-pass version the flow-state table used before its keys
    became ``(names, values)`` pairs with a name ordering kept per name
    tuple."""
    name_of = _REVERSE_NAME.get
    return (
        tuple(sorted(indicators.items())),
        tuple(sorted([
            (name_of(name, name), value)
            for name, value in indicators.items()
            if value is not None
        ])),
    )


def _endpoints(indicators):
    src = indicators.get("ip_src") or indicators.get("eth_src")
    dst = indicators.get("ip_dst") or indicators.get("eth_dst")
    return src, dst


class _DictFlow:
    def __init__(self, indicators, last_seen):
        self.indicators, self.last_seen = indicators, last_seen
        self.samples, self.packet_count = 0, 0.0


class _DictSwitch:
    def __init__(self):
        self.flows, self.src_counts, self.dst_counts = {}, {}, {}
        self.pair_count = self.new_flows_since_sample = self.expired_since_sample = 0
        self.last_sample_time = None

    def drop_flow(self, key, reverse_key):
        flow = self.flows.pop(key, None)
        if flow is None:
            return None
        src, dst = _endpoints(flow.indicators)
        for counts, endpoint in ((self.src_counts, src), (self.dst_counts, dst)):
            remaining = counts.get(endpoint, 1) - 1
            if remaining <= 0:
                counts.pop(endpoint, None)
            else:
                counts[endpoint] = remaining
        if reverse_key in self.flows and reverse_key != key:
            self.pair_count -= 2
        return flow


class DictFlowStateTable:
    """``FlowStateTable`` semantics with a copy of the indicators per flow:
    pair presence is a reverse-key lookup, and a drop rebuilds the key."""

    def __init__(self, stale_after=60.0):
        self.stale_after = stale_after
        self._switches = {}

    def _state(self, dpid):
        return self._switches.setdefault(dpid, _DictSwitch())

    def observe_flow(self, dpid, indicators, now, packet_count=0.0):
        state = self._state(dpid)
        key, reverse_key = oracle_flow_keys(indicators)
        has_pair = reverse_key in state.flows and reverse_key != key
        src, dst = _endpoints(indicators)
        flow = state.flows.get(key)
        is_new = flow is None
        if is_new:
            flow = state.flows[key] = _DictFlow(dict(indicators), now)
            state.src_counts[src] = state.src_counts.get(src, 0) + 1
            state.dst_counts[dst] = state.dst_counts.get(dst, 0) + 1
            if has_pair:
                state.pair_count += 2
            state.new_flows_since_sample += 1
        flow.last_seen = now
        flow.samples += 1
        flow.packet_count = packet_count
        return {
            "PAIR_FLOW": 1.0 if has_pair else 0.0,
            "FLOW_IS_NEW": 1.0 if is_new else 0.0,
            "FLOW_SAMPLE_COUNT": float(flow.samples),
            "SRC_FLOW_FANOUT": float(state.src_counts.get(src, 0)),
            "DST_FLOW_FANIN": float(state.dst_counts.get(dst, 0)),
        }

    def remove_flow(self, dpid, indicators):
        state = self._state(dpid)
        if state.drop_flow(*oracle_flow_keys(indicators)) is not None:
            state.expired_since_sample += 1
            return True
        return False

    def switch_snapshot(self, dpid):
        state = self._switches.get(dpid) or _DictSwitch()
        total, paired = len(state.flows), state.pair_count
        sources, destinations = state.src_counts, state.dst_counts
        return {
            "PAIR_FLOW_RATIO": paired / total if total else 0.0,
            "SINGLE_FLOW_RATIO": (total - paired) / total if total else 0.0,
            "TOTAL_TRACKED_FLOWS": float(total),
            "UNIQUE_SRC_COUNT": float(len(sources)),
            "UNIQUE_DST_COUNT": float(len(destinations)),
            "FLOWS_PER_SRC": total / len(sources) if sources else 0.0,
            "FLOWS_PER_DST": total / len(destinations) if destinations else 0.0,
        }

    def switch_fields(self, dpid, now):
        state = self._state(dpid)
        fields = self.switch_snapshot(dpid)
        elapsed = (
            now - state.last_sample_time if state.last_sample_time is not None else 0.0
        )
        new, expired = state.new_flows_since_sample, state.expired_since_sample
        fields["NEW_FLOW_RATE"] = new / elapsed if elapsed > 0 else 0.0
        fields["EXPIRED_FLOW_RATE"] = expired / elapsed if elapsed > 0 else 0.0
        fields["MEDIAN_FLOW_PACKETS"] = (
            float(statistics.median(f.packet_count for f in state.flows.values()))
            if state.flows
            else 0.0
        )
        fields["GROWTH_SINGLE_FLOWS"] = float(new - expired)
        state.new_flows_since_sample = state.expired_since_sample = 0
        state.last_sample_time = now
        return fields

    def collect_garbage(self, now):
        evicted = 0
        for state in self._switches.values():
            stale = [
                (key, oracle_flow_keys(flow.indicators)[1])
                for key, flow in state.flows.items()
                if now - flow.last_seen > self.stale_after
            ]
            for key, reverse_key in stale:
                state.drop_flow(key, reverse_key)
                evicted += 1
        return evicted

    def tracked_flow_count(self, dpid=None):
        if dpid is not None:
            state = self._switches.get(dpid)
            return len(state.flows) if state is not None else 0
        return sum(len(s.flows) for s in self._switches.values())


class UncachedEventBus:
    """The event bus that walks the event's MRO on every publish and
    dedups the delivery list by ``==`` as it builds it."""

    def __init__(self):
        self._listeners = {}

    def subscribe(self, event_type, listener):
        listeners = self._listeners.setdefault(event_type, [])
        if listener not in listeners:
            listeners.append(listener)

    def unsubscribe(self, event_type, listener):
        if listener in self._listeners.get(event_type, []):
            self._listeners[event_type].remove(listener)

    def publish(self, event):
        delivered = []
        for event_type in type(event).__mro__:
            if event_type is object:
                break
            for listener in self._listeners.get(event_type, []):
                if listener not in delivered:
                    delivered.append(listener)
        for listener in delivered:
            listener(event)

    def listener_count(self, event_type):
        return len(self._listeners.get(event_type, []))


class ScoreEveryEventManager(StreamingDetectorManager):
    """The detector manager that scores every event past warm-up, then
    absorbs it, then checks the verdict and cooldown for an alert."""

    def on_event(self, event):
        for detector in self._detectors.values():
            if detector.scope is not event.scope:
                continue
            if detector.kinds is not None and event.kind not in detector.kinds:
                continue
            detector.events_seen += 1
            vector = [event.fields.get(name, 0.0) for name in detector.features]
            if detector.events_seen <= detector.warmup:
                if detector.absorb:
                    detector.learner.partial_fit(vector)
                continue
            verdict = detector.learner.predict_event(vector)
            score = detector.learner.score_event(vector)
            if detector.absorb:
                detector.learner.partial_fit(vector)
            if not verdict:
                continue
            source = self._source_key(event)
            last = detector.last_alert.get(source)
            if last is not None and event.time - last < detector.cooldown:
                continue
            detector.last_alert[source] = event.time
            detector.alerts_emitted += 1
            self.alerts.append(
                StreamingAlert(
                    detector=detector.name,
                    kind=event.kind,
                    sim_time=event.time,
                    dpid=event.dpid,
                    instance_id=event.instance_id,
                    source=source,
                    score=round(float(score), 9),
                    features={
                        name: event.fields.get(name, 0.0)
                        for name in detector.features
                    },
                )
            )
