"""Tests of the live node layer: directory, remote fabric, LiveNode.

The LiveNode tests boot real asyncio nodes on loopback ephemeral ports
inside ``asyncio.run`` — small rings, tight maintenance intervals, and
polling with hard deadlines keep them fast and non-flaky.
"""

import asyncio
import threading

import pytest

from repro.errors import ConfigError, ProtocolError, TransientNetworkError
from repro.net.node import (
    LiveNode,
    LiveNodeConfig,
    PeerDirectory,
    RemoteNetwork,
)
from repro.net.transport import RetryPolicy, async_request

POLICY = RetryPolicy(timeout=2.0, retries=1, backoff=0.01)

FAST = dict(maintenance_interval=0.03, heartbeat_interval=0.2)


class TestPeerDirectory:
    def test_add_get_snapshot(self):
        directory = PeerDirectory()
        directory.add(5, ("127.0.0.1", 9000))
        assert directory.get(5) == ("127.0.0.1", 9000)
        assert directory.snapshot() == {5: ["127.0.0.1", 9000]}
        assert directory.ids() == [5]

    def test_unknown_id_is_transport_failure(self):
        with pytest.raises(ProtocolError) as info:
            PeerDirectory().get(42)
        assert info.value.transport_failure is True

    def test_merge_does_not_overwrite(self):
        directory = PeerDirectory()
        directory.add(5, ("127.0.0.1", 9000))
        directory.merge({5: ["10.0.0.9", 1], 6: ["127.0.0.1", 9001]})
        assert directory.get(5) == ("127.0.0.1", 9000)
        assert directory.get(6) == ("127.0.0.1", 9001)

    def test_tombstone_blocks_resurrection_by_merge(self):
        """A retired identity must not flap back in via stale gossip."""
        directory = PeerDirectory()
        directory.add(5, ("127.0.0.1", 9000))
        directory.remove(5)
        directory.merge({5: ["127.0.0.1", 9000]})
        assert not directory.knows(5)
        # an explicit re-add (genuine re-registration) clears the stone
        directory.add(5, ("127.0.0.1", 9002))
        assert directory.get(5) == ("127.0.0.1", 9002)

    def test_tombstones_bounded_by_size(self):
        """Retiring identities forever must not leak memory: the stone
        set is capped, evicting oldest-first."""
        directory = PeerDirectory(max_tombstones=8)
        for ident in range(100):
            directory.add(ident, ("127.0.0.1", 9000))
            directory.remove(ident)
        assert len(directory._tombstones) == 8
        # the survivors are the most recent removals
        assert sorted(directory._tombstones) == list(range(92, 100))
        # old stones are gone, so (by design) a very stale snapshot can
        # re-add those ids; recent retirements stay protected
        directory.merge({0: ["127.0.0.1", 9000], 99: ["127.0.0.1", 9000]})
        assert directory.knows(0)
        assert not directory.knows(99)

    def test_tombstones_expire_by_op_age(self):
        directory = PeerDirectory(tombstone_ttl_ops=10)
        directory.add(5, ("127.0.0.1", 9000))
        directory.remove(5)
        assert 5 in directory._tombstones
        for ident in range(100, 106):
            directory.add(ident, ("127.0.0.1", 9000))
        assert 5 in directory._tombstones  # still young
        for ident in range(106, 112):
            directory.add(ident, ("127.0.0.1", 9000))
        assert 5 not in directory._tombstones  # aged out
        directory.merge({5: ["127.0.0.1", 9000]})
        assert directory.knows(5)

    def test_re_removal_refreshes_tombstone_age(self):
        directory = PeerDirectory(max_tombstones=2)
        for ident in (1, 2):
            directory.add(ident, ("127.0.0.1", 9000))
            directory.remove(ident)
        # re-add + re-remove id 1: its stone must now be the youngest
        directory.add(1, ("127.0.0.1", 9000))
        directory.remove(1)
        directory.add(3, ("127.0.0.1", 9000))
        directory.remove(3)
        assert sorted(directory._tombstones) == [1, 3]


class TestRemoteNetworkLocal:
    """The SimNetwork-facade behaviours that need no sockets."""

    def _net(self):
        directory = PeerDirectory()
        return RemoteNetwork(directory, ("127.0.0.1", 1), policy=POLICY)

    def test_unknown_target_is_transport_failure(self):
        net = self._net()
        with pytest.raises(ProtocolError) as info:
            net.rpc(99, "rpc_ping")
        assert info.value.transport_failure is True
        assert net.messages["rpc_ping"] == 1  # the send was attempted

    def test_local_dispatch_counts_messages(self):
        from repro.chord.node import ChordNode
        from repro.hashspace.idspace import IdSpace

        net = self._net()
        node = ChordNode(10, IdSpace(16), net)
        node.create()
        assert net.rpc(10, "rpc_ping") is True
        assert net.messages["rpc_ping"] == 1
        assert net.is_alive(10)
        assert net.directory.knows(10)

    def test_dispatch_rejects_non_rpc_methods(self):
        from repro.chord.node import ChordNode
        from repro.hashspace.idspace import IdSpace

        net = self._net()
        ChordNode(10, IdSpace(16), net).create()
        with pytest.raises(ProtocolError):
            net.dispatch(10, "fail", [], {})  # would kill the node

    @pytest.mark.parametrize("drops", [0, 1, 2, 3])
    def test_rpc_retry_accounting_under_transit_drops(
        self, drops, monkeypatch
    ):
        """``RemoteNetwork`` spends its resend budget exactly as
        ``SimNetwork`` does (tests/test_chord_network.py pins the same
        counts): k <= b drops deliver with k+1 messages / k retries /
        k drops; k > b raises after b+1 messages / b retries / b+1
        drops."""
        import repro.net.node as node_module

        sends = []

        def flaky_request(addr, envelope, *, policy):
            sends.append(envelope["method"])
            if len(sends) <= drops:
                raise TransientNetworkError("stubbed transit drop")
            return {"r": True, "addrs": {}}

        monkeypatch.setattr(node_module, "request", flaky_request)
        net = self._net()
        net.directory.add(20, ("127.0.0.1", 2))
        budget = net.transient_retries
        assert budget == 2
        if drops <= budget:
            assert net.rpc_retry(20, "rpc_ping") is True
            expect = (drops + 1, drops, drops)
        else:
            with pytest.raises(TransientNetworkError):
                net.rpc_retry(20, "rpc_ping")
            expect = (budget + 1, budget, budget + 1)
        assert (net.total_messages(), net.retries, net.drops) == expect
        assert len(sends) == expect[0]
        assert net.fault_stats() == {
            "drops": expect[2], "retries": expect[1], "fallbacks": 0,
        }

    def test_deregister_tombstones_directory(self):
        from repro.chord.node import ChordNode
        from repro.hashspace.idspace import IdSpace

        net = self._net()
        ChordNode(10, IdSpace(16), net).create()
        net.deregister(10)
        assert not net.is_alive(10)
        net.directory.merge({10: ["127.0.0.1", 1]})
        assert not net.is_alive(10)


class TestLiveViewValidation:
    @pytest.mark.parametrize("name", ["relocation", "churn", "bogus"])
    def test_rejects_excluded_and_unknown_strategies(self, name):
        with pytest.raises(ConfigError):
            LiveNode("127.0.0.1", 0, LiveNodeConfig(strategy=name))


async def _wait_until(predicate, *, timeout=10.0, interval=0.05):
    """Poll an async predicate until truthy (hard deadline)."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while True:
        value = await predicate()
        if value:
            return value
        if loop.time() > deadline:
            raise AssertionError("condition not reached before deadline")
        await asyncio.sleep(interval)


async def _boot_ring(n, **config_kwargs):
    nodes = []
    first = LiveNode(
        "127.0.0.1", 0, LiveNodeConfig(seed=100, **FAST, **config_kwargs)
    )
    await first.start()
    nodes.append(first)
    for i in range(1, n):
        node = LiveNode(
            "127.0.0.1",
            0,
            LiveNodeConfig(seed=100 + i, **FAST, **config_kwargs),
        )
        await node.start(bootstrap=first.addr)
        nodes.append(node)
    return nodes


async def _stop_all(nodes):
    for node in reversed(nodes):
        await node.stop()


class TestLiveRing:
    def test_three_node_ring_put_get(self):
        async def main():
            nodes = await _boot_ring(3)
            try:
                ids = sorted(n.main.id for n in nodes)

                async def ring_converged():
                    # every node's successor pointer lands on the next
                    # ring id — the standard Chord convergence criterion
                    for node in nodes:
                        succ = node.main.successor_list[0]
                        expected = ids[
                            (ids.index(node.main.id) + 1) % len(ids)
                        ]
                        if succ != expected:
                            return False
                    return True

                await _wait_until(ring_converged)

                # store through one node, fetch through another
                put = await async_request(
                    nodes[0].addr,
                    {"op": "client_put", "key": 777, "value": "v"},
                    policy=POLICY,
                )
                assert put["holder"] in ids
                got = await async_request(
                    nodes[2].addr,
                    {"op": "client_get", "key": 777},
                    policy=POLICY,
                )
                assert got["value"] == "v"

                stats = await async_request(
                    nodes[1].addr, {"op": "stats"}, policy=POLICY
                )
                assert stats["known_peers"] == 3
                assert set(stats["fault_stats"]) == {
                    "drops", "retries", "fallbacks",
                }
            finally:
                await _stop_all(nodes)

        asyncio.run(main())

    def test_graceful_leave_hands_off_data(self):
        async def main():
            nodes = await _boot_ring(2)
            try:
                await _wait_until(
                    lambda: asyncio.sleep(
                        0, nodes[1].main.successor_list[0] == nodes[0].main.id
                    )
                )
                put = await async_request(
                    nodes[0].addr,
                    {"op": "client_put", "key": 4242, "value": "kept"},
                    policy=POLICY,
                )
                assert put["holder"] in (nodes[0].main.id, nodes[1].main.id)
                # stop (graceful leave) whichever node holds the key
                holder = next(
                    n for n in nodes if n.main.id == put["holder"]
                )
                survivor = next(n for n in nodes if n is not holder)
                await holder.stop()
                got = await async_request(
                    survivor.addr,
                    {"op": "client_get", "key": 4242},
                    policy=POLICY,
                )
                assert got["value"] == "kept"
                await survivor.stop()
            except BaseException:
                await _stop_all([n for n in nodes if n._server is not None])
                raise

        asyncio.run(main())

    def test_random_injection_spawns_sybils(self):
        async def main():
            nodes = await _boot_ring(
                2,
                strategy="random_injection",
                sybil_threshold=0,
                max_sybils=2,
                decision_interval=2,
            )
            try:
                async def some_sybil():
                    stats = await async_request(
                        nodes[0].addr, {"op": "stats"}, policy=POLICY
                    )
                    return stats["n_sybils"] >= 1

                await _wait_until(some_sybil)
                stats = await async_request(
                    nodes[0].addr, {"op": "stats"}, policy=POLICY
                )
                sybil_idents = [
                    v for v in stats["identities"].values() if v["sybil"]
                ]
                assert sybil_idents
                assert stats["metrics"]["counters"].get(
                    "net.sybils_created", 0
                ) >= 1
            finally:
                await _stop_all(nodes)

        asyncio.run(main())

    def test_unknown_op_is_app_error(self):
        async def main():
            nodes = await _boot_ring(1)
            try:
                with pytest.raises(ProtocolError) as info:
                    await async_request(
                        nodes[0].addr, {"op": "nonsense"}, policy=POLICY
                    )
                assert not isinstance(info.value, TransientNetworkError)
                assert not getattr(info.value, "transport_failure", False)
            finally:
                await _stop_all(nodes)

        asyncio.run(main())

    def test_bad_frames_are_counted_and_survived(self):
        """Garbage on the wire drops that connection, bumps
        ``net.bad_frames`` and leaves the node serving."""
        bad = [
            b"\x00\x00",  # truncated header
            b"\x00\x00\x00\x03\xff\xfe\xfd",  # not UTF-8
            b"\x00\x00\x00\x04nope",  # not JSON
        ]

        async def main():
            nodes = await _boot_ring(1)
            try:
                for data in bad:
                    reader, writer = await asyncio.open_connection(
                        *nodes[0].addr
                    )
                    writer.write(data)
                    writer.write_eof()
                    assert await reader.read() == b""  # dropped, no reply
                    writer.close()
                    await writer.wait_closed()
                stats = await async_request(
                    nodes[0].addr, {"op": "stats"}, policy=POLICY
                )
                assert stats["metrics"]["counters"]["net.bad_frames"] == 3
            finally:
                await _stop_all(nodes)

        asyncio.run(main())

    def test_rpc_to_unhosted_id_is_transport_error(self):
        async def main():
            nodes = await _boot_ring(1)
            try:
                with pytest.raises(ProtocolError) as info:
                    await async_request(
                        nodes[0].addr,
                        {
                            "op": "rpc",
                            "to": 123456789,
                            "method": "rpc_ping",
                            "args": [],
                            "kwargs": {},
                        },
                        policy=POLICY,
                    )
                assert info.value.transport_failure is True
            finally:
                await _stop_all(nodes)

        asyncio.run(main())

    def test_sha1_identity_when_unspecified(self):
        from repro.hashspace.hashing import sha1_id

        async def main():
            node = LiveNode("127.0.0.1", 0, LiveNodeConfig(seed=3, **FAST))
            await node.start()
            try:
                expected = sha1_id(
                    f"{node.addr[0]}:{node.addr[1]}", node.space
                )
                assert node.main.id == expected
            finally:
                await node.stop()

        asyncio.run(main())


#: a strategy is configured, but no round runs unless a test drives one
IDLE = dict(decision_interval=10**9)


def _ring_settled(nodes):
    """Every main node's successor and predecessor lists hold the other
    mains in ring order."""
    ids = sorted(n.main.id for n in nodes)
    for node in nodes:
        at = ids.index(node.main.id)
        after = [ids[(at + i) % len(ids)] for i in range(1, len(ids))]
        if node.main.successor_list != after[:5]:
            return False
        if node.main.predecessor_list != after[::-1][:5]:
            return False
    return True


async def _settle(nodes):
    await _wait_until(lambda: asyncio.sleep(0, _ring_settled(nodes)))


def _off_loop(fn, *args):
    """Run blocking protocol work off the event loop all nodes share."""
    return asyncio.get_running_loop().run_in_executor(None, fn, *args)


class TestLiveView:
    def test_windows_follow_the_list_contract(self):
        async def main():
            nodes = await _boot_ring(
                4, strategy="smart_neighbor_injection", **IDLE
            )
            try:
                await _settle(nodes)
                for i in range(40):
                    await async_request(
                        nodes[0].addr,
                        {"op": "client_put", "key": i * 2**58, "value": i},
                        policy=POLICY,
                    )
                node = nodes[0]
                view, slot = node.view, node.main.id
                owner_of = {n.main.id: n.addr for n in nodes}
                for k in (1, 2, 3, 5):
                    slots, owners, gaps = view.successor_window(slot, k)
                    assert len(slots) == len(owners) == len(gaps)
                    assert len(slots) == min(k, 3) and slot not in slots
                    assert gaps == [
                        node.space.distance(a, b)
                        for a, b in zip([slot] + slots, slots)
                    ]
                    # one owner per host, never the deciding one
                    assert 0 not in owners
                    assert len(set(owners)) == len({
                        owner_of[s] for s in slots
                    })
                    preds, pred_owners = view.predecessor_window(slot, k)
                    assert len(preds) == len(pred_owners) == min(k, 3)
                    assert slot not in preds and 0 not in pred_owners

                sent = node.network.messages["rpc_report_load"]
                slots, _, _, counts = await _off_loop(
                    lambda: view.successor_window(slot, 3, counts=True)
                )
                assert node.network.messages["rpc_report_load"] == sent + 3
                loads = {
                    n.main.id: n.main.store.primary_count for n in nodes
                }
                assert counts == [loads[s] for s in slots]
                assert sum(loads.values()) == 40
            finally:
                await _stop_all(nodes)

        asyncio.run(main())

    def test_overloaded_host_invites_a_predecessor_into_its_arc(self):
        async def main():
            nodes = await _boot_ring(2, strategy="invitation", **IDLE)
            try:
                await _settle(nodes)
                # the host covering more than half the ring is above
                # its own fair-share estimate once it holds any load
                space = nodes[0].space

                def arc(n):
                    return space.distance(n.main.predecessor, n.main.id)

                inviter = max(nodes, key=arc)
                helper = next(n for n in nodes if n is not inviter)
                start, end = helper.main.id, inviter.main.id
                for i in range(30):
                    await async_request(
                        helper.addr,
                        {"op": "client_put", "key": end - i, "value": i},
                        policy=POLICY,
                    )
                assert inviter.main.store.primary_count == 30
                await _off_loop(inviter.view.run_round)

                counters = inviter.metrics.as_dict()["counters"]
                assert counters["net.invitations_sent"] == 1
                assert counters["net.invitations_refused"] == 0
                assert counters["net.messages"] == 1  # one predecessor
                assert counters["net.sybils_created"] == 0
                (sybil,) = helper.sybils()
                assert space.in_interval(
                    sybil.id, start, end, closed_right=False
                ) and sybil.id != start
                assert helper.metrics.counter("net.sybils_created") == 1
                assert sybil.store.primary_count == helper.metrics.counter(
                    "net.tasks_acquired"
                )
            finally:
                await _stop_all(nodes)

        asyncio.run(main())

    def test_hosts_inviting_each_other_mid_round_refuse_at_once(self):
        """Each host holds its own round lock while it invites the
        other; the handler refuses instead of waiting for that lock,
        so neither invitation waits out the transport timeout."""
        async def main():
            nodes = await _boot_ring(2, strategy="invitation", **IDLE)
            try:
                await _settle(nodes)
                a, b = nodes
                both_mid_round = threading.Barrier(2)

                def invite(host, other):
                    view = host.view
                    helper = view._owner(other.main.id)
                    with view._lock:
                        both_mid_round.wait(timeout=5)
                        answer = view.create_sybil_in_slot_arc(
                            helper, host.main.id
                        )
                        both_mid_round.wait(timeout=5)
                    return answer

                loop = asyncio.get_running_loop()
                t0 = loop.time()
                results = await asyncio.gather(
                    _off_loop(invite, a, b), _off_loop(invite, b, a)
                )
                assert results == [None, None]
                assert loop.time() - t0 < POLICY.timeout / 2
                assert not a.sybils() and not b.sybils()
            finally:
                await _stop_all(nodes)

        asyncio.run(main())


class TestLiveDefects:
    def test_lookup_walks_past_a_sybil_retiring_mid_lookup(self):
        """A lookup that reaches a Sybil which retires between naming
        its successor and answering ``rpc_closest_preceding`` walks on
        from that successor instead of failing the request."""
        async def main():
            nodes = await _boot_ring(2, strategy="random_injection", **IDLE)
            try:
                await _settle(nodes)
                a, b = nodes
                await _off_loop(b.view.create_sybil_random, 0)
                (sybil,) = b.sybils()
                serve = b.network.dispatch

                def dispatch(target, method, args, kwargs):
                    value = serve(target, method, args, kwargs)
                    if target == sybil.id and method == (
                        "rpc_get_successor_list"
                    ):
                        b.view.retire_sybils(0)
                    return value

                b.network.dispatch = dispatch
                a.directory.add(sybil.id, b.addr)
                holder, _ = await _off_loop(
                    a.main._lookup_via, sybil.id, sybil.id
                )
                assert not sybil.alive
                assert holder in (a.main.id, b.main.id)
            finally:
                await _stop_all(nodes)

        asyncio.run(main())

    def test_retired_sybils_leave_every_address_book(self):
        """Idle hosts on an empty ring retire and re-inject a Sybil
        every round; once they stop, no address book keeps a retired
        id, because a host's own snapshot is authoritative for it."""
        async def main():
            nodes = await _boot_ring(
                3, strategy="random_injection", decision_interval=1
            )
            try:
                async def thrashed():
                    return sum(
                        n.metrics.counter("net.sybils_retired")
                        for n in nodes
                    ) >= 12

                await _wait_until(thrashed)
                for node in nodes:
                    node.config.decision_interval = 10**9

                async def books_hold_only_live_ids():
                    live = set().union(
                        *(n.network.alive_ids() for n in nodes)
                    )
                    return all(
                        set(n.directory.ids()) <= live for n in nodes
                    )

                await _wait_until(books_hold_only_live_ids, timeout=5.0)
            finally:
                await _stop_all(nodes)

        asyncio.run(main())
