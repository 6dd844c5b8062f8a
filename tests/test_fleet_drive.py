"""The fleet drive over recording channels: no server, no socket.

:class:`~repro.chaos.FleetDrive` is the one loop that ships a
fleet's records through per-device spoolers, for the in-process
telemetry pipeline and for the socket harness alike.  Here each
device's channel is a recorder, so what left on which device's channel
is visible directly.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import replace

import pytest

from repro.backend.ingest import IngestionServer, ServiceUnavailable
from repro.chaos import ChaosConfig, FleetDrive
from repro.chaos.transport import PayloadDropped
from repro.dataset.records import record_identity
from repro.serve.client import ServeConnectionError
from repro.serve.harness import SOCKET_CHAOS, synthetic_records
from repro.store import StoreError


class Channels:
    """A channel factory whose channels log ``(device, record)`` and
    ack, or, while ``down``, refuse every send as a lost connection."""

    def __init__(self, down: bool = False) -> None:
        self.down = down
        self.sent: list[tuple[int, dict]] = []
        self.closed = False

    def __call__(self, device_id: int):
        def channel(payload: bytes) -> None:
            if self.down:
                raise ServeConnectionError("service restarting")
            self.sent.append(
                (device_id, json.loads(zlib.decompress(payload)))
            )

        return channel

    def close(self) -> None:
        self.closed = True


def identities(records) -> set[str]:
    return {record_identity(record) for record in records}


def test_held_payload_leaves_on_its_own_devices_channel():
    chaos = replace(SOCKET_CHAOS, enabled=True, seed=99,
                    reorder_rate=0.3)
    channels = Channels()
    drive = FleetDrive(channels, chaos)
    drive.emit(synthetic_records(10, 4))
    drive.drain()
    assert drive.transport.reordered > 0
    assert len(channels.sent) == 40
    wrong = [(device, record["device_id"])
             for device, record in channels.sent
             if device != record["device_id"]]
    assert wrong == []


def test_refused_release_is_not_charged_to_the_next_sender():
    def channels(device_id: int):
        def channel(payload: bytes) -> None:
            if device_id == 0:
                raise ServeConnectionError("device 0's socket is gone")

        return channel

    drive = FleetDrive(channels, ChaosConfig(seed=3, reorder_rate=0.5))
    drive.emit([dict(record, device_id=0, start_time=1.0)
                for record in synthetic_records(1, 1)])
    assert len(drive.transport.held_payloads) == 1
    drive.emit([dict(record, device_id=1, start_time=2.0)
                for record in synthetic_records(1, 1)])
    # Device 1's payload went out and was acked; releasing device 0's
    # held payload failed on device 0's channel, so it stays held.
    assert drive.batchers[1].failed_sends == 0
    assert drive.batchers[1].acked_payloads == 1
    assert len(drive.transport.held_payloads) == 1


def test_rebind_carries_spools_and_identities_to_fresh_channels():
    records = synthetic_records(6, 4)
    old, new = Channels(down=True), Channels()
    chaos = replace(SOCKET_CHAOS, enabled=True, seed=4, reorder_rate=0.3)
    drive = FleetDrive(old, chaos)
    drive.emit(records[:12])
    held = drive.transport.held_payloads
    assert held, "the seed should hold some payload across the rebind"
    assert drive.pending_payloads + len(held) == 12
    assert old.sent == []

    drive.rebind(new)
    assert old.closed
    drive.emit(records[12:])
    drive.drain()
    assert drive.pending_payloads == 0
    assert drive.transport.held_payloads == ()
    assert drive.emitted == identities(records)
    assert identities(record for _, record in new.sent) == drive.emitted
    assert all(device == record["device_id"]
               for device, record in new.sent)


@pytest.mark.parametrize("nack", [
    ServiceUnavailable("backend down"),
    ServeConnectionError("connection lost"),
    PayloadDropped("lost in transit"),
])
def test_drain_leaves_unacked_held_payloads_in_flight(nack):
    def refuse(payload: bytes) -> None:
        raise nack

    records = synthetic_records(3, 2)
    # Every send is held (and acked), so the channel sees nothing
    # until the drain releases the held payloads.
    drive = FleetDrive(lambda _device: refuse,
                       ChaosConfig(seed=1, reorder_rate=1.0))
    drive.emit(records)
    assert drive.drain() == 0
    assert len(drive.transport.held_payloads) == len(records)
    report = drive.reconcile(IngestionServer())
    assert report.ok
    assert report.in_flight == len(records)


@pytest.mark.parametrize("fault", [
    OSError("disk full"),
    StoreError("journal damaged"),
    ValueError("bug in the channel"),
])
def test_drain_raises_a_channel_fault_that_is_not_a_nack(fault):
    def broken(payload: bytes) -> None:
        raise fault

    drive = FleetDrive(lambda _device: broken,
                       ChaosConfig(seed=1, reorder_rate=1.0))
    drive.emit(synthetic_records(3, 2))
    with pytest.raises(type(fault)):
        drive.drain()
    assert len(drive.transport.held_payloads) == 6
