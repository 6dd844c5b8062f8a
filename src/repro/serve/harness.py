"""Overload and failure harness for the live ingest service.

Everything the soak smoke, the CI job, and the service tests need to
prove the acceptance story end to end:

* :func:`synthetic_records` — a deterministic record stream (no fleet
  simulation required; the service is the thing under test);
* :func:`socket_drive` — a :class:`~repro.chaos.pipeline.FleetDrive`
  whose devices each upload over their own socket
  (:class:`SocketChannels`), by the policy :data:`SOCKET_CHAOS`;
* :func:`connection_storm` / :func:`stalled_clients` /
  :func:`malformed_flood` — the three classic abuse patterns, each
  returning what the server did about it;
* :class:`ServeProcess` — one ``repro serve`` child process with its
  bind address parsed, for the smokes that SIGTERM / SIGKILL a real
  server.

The harness talks to a *real* socket — in-process
:class:`~repro.serve.service.IngestService` for tests, or a
``repro serve`` subprocess for the kill/resume smoke — so slow-loris
deadlines, breaker unavailability, and drain acks are all exercised
through the same code path production traffic would take.
"""

from __future__ import annotations

import os
import random
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.chaos.config import ChaosConfig
from repro.chaos.pipeline import FleetDrive
from repro.serve import protocol
from repro.serve.client import SocketTransport

FAILURE_TYPES = ("Data_Stall", "Out_of_Service", "Call_Drop")
ISPS = ("ISP-A", "ISP-B", "ISP-C")


def synthetic_records(n_devices: int, per_device: int,
                      seed: int = 2020) -> list[dict]:
    """A deterministic emission-ordered record stream."""
    rng = random.Random(f"serve-harness:{seed}")
    records = []
    for device_id in range(n_devices):
        for k in range(per_device):
            records.append({
                "device_id": device_id,
                "model": device_id % 7,
                "android_version": "10",
                "has_5g": bool(device_id % 3 == 0),
                "isp": ISPS[device_id % len(ISPS)],
                "failure_type": FAILURE_TYPES[k % len(FAILURE_TYPES)],
                "start_time": round(
                    k * 60.0 + rng.random() * 30.0, 3
                ),
                "duration_s": round(1.0 + rng.random() * 120.0, 3),
                "bs_id": rng.randrange(400),
                "rat": "4G",
                "signal_level": rng.randrange(6),
                "deployment": "urban",
                "error_code": None,
                "resolved_by": None,
                "stages_executed": 0,
                "post_transition": False,
                "arm": "vanilla",
            })
    records.sort(key=lambda r: (r["start_time"], r["device_id"]))
    return records


#: How a socket fleet spools and drains: 50 attempts per payload, 1 s
#: backoff doubling to a 60 s cap, an unbounded spool, WiFi always up,
#: and drain rounds 120 s of virtual time apart (outpacing any client
#: backoff or server retry-after), at most 200 of them.  No transport
#: faults: a chaotic run is ``replace(SOCKET_CHAOS, enabled=True,
#: seed=..., drop_rate=..., ...)``.
SOCKET_CHAOS = ChaosConfig(
    enabled=False, seed=0, max_attempts=50, base_backoff_s=1.0,
    max_backoff_s=60.0, max_spool_bytes=None, wifi_availability=1.0,
    drain_interval_s=120.0, max_drain_rounds=200,
)


class SocketChannels:
    """Channel factory: one :class:`SocketTransport` per device, all to
    one service; :meth:`close` closes every one it opened."""

    def __init__(self, host: str, port: int,
                 timeout_s: float = 10.0) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.opened: list[SocketTransport] = []

    def __call__(self, device_id: int) -> SocketTransport:
        transport = SocketTransport(self.host, self.port,
                                    sender=device_id,
                                    timeout_s=self.timeout_s)
        self.opened.append(transport)
        return transport

    def close(self) -> None:
        for transport in self.opened:
            transport.close()


def socket_drive(host: str, port: int,
                 chaos: ChaosConfig = SOCKET_CHAOS,
                 timeout_s: float = 10.0) -> FleetDrive:
    """A fleet drive whose devices upload to ``host:port`` over their
    own sockets, sleeping 2 ms per drain round so the service's worker
    can work off its queue.  After a restart, continue the same fleet
    with ``drive.rebind(SocketChannels(host, port))``."""
    return FleetDrive(SocketChannels(host, port, timeout_s), chaos,
                      settle_s=0.002)


# -- abuse patterns ----------------------------------------------------------


@dataclass
class StormResult:
    """What a :func:`connection_storm` observed."""

    connections: int = 0
    acks: dict[str, int] = field(default_factory=dict)
    connect_failures: int = 0
    dropped_connections: int = 0


def connection_storm(host: str, port: int, connections: int,
                     payloads_per_connection: int = 1,
                     payload: bytes = b"storm-junk",
                     timeout_s: float = 5.0) -> StormResult:
    """Open many short-lived connections, each firing junk payloads.

    The payloads are valid frames with undecodable bodies, so the
    server admits and quarantines them — pure load, no identity, no
    effect on fleet reconciliation.
    """
    result = StormResult()
    for _ in range(connections):
        try:
            sock = socket.create_connection((host, port),
                                            timeout=timeout_s)
        except OSError:
            result.connect_failures += 1
            continue
        result.connections += 1
        try:
            sock.settimeout(timeout_s)
            for _ in range(payloads_per_connection):
                protocol.write_request(sock, payload)
                status, _delay = protocol.read_ack(sock)
                name = protocol.ACK_NAMES[status]
                result.acks[name] = result.acks.get(name, 0) + 1
        except (OSError, protocol.ProtocolError):
            result.dropped_connections += 1
        finally:
            sock.close()
    return result


def stalled_clients(host: str, port: int, clients: int,
                    wait_s: float) -> int:
    """Open connections that stall mid-frame; count server closes.

    Sends half a request header then goes silent — the slow-loris
    pattern the per-connection read deadline exists for.  Returns how
    many of the stalled connections the server closed within
    ``wait_s``.
    """
    socks = []
    for _ in range(clients):
        try:
            sock = socket.create_connection((host, port), timeout=5.0)
            sock.sendall(b"\x00\x00")  # 2 of the 12 header bytes
            socks.append(sock)
        except OSError:
            continue
    deadline = time.monotonic() + wait_s
    closed = 0
    for sock in socks:
        sock.settimeout(max(0.05, deadline - time.monotonic()))
        try:
            if sock.recv(1) == b"":
                closed += 1
        except (socket.timeout, TimeoutError):
            pass
        except OSError:
            closed += 1
        finally:
            sock.close()
    return closed


def malformed_flood(host: str, port: int, frames: int,
                    timeout_s: float = 5.0) -> dict[str, int]:
    """Fire undecodable payloads down one connection; tally the acks."""
    acks: dict[str, int] = {}
    with socket.create_connection((host, port),
                                  timeout=timeout_s) as sock:
        sock.settimeout(timeout_s)
        for index in range(frames):
            protocol.write_request(
                sock, b"malformed-%d" % index
            )
            status, _delay = protocol.read_ack(sock)
            name = protocol.ACK_NAMES[status]
            acks[name] = acks.get(name, 0) + 1
    return acks


# -- a real server to kill ---------------------------------------------------


class ServeProcess:
    """One ``python -m repro serve`` child, bind address parsed.

    ``flags`` are appended to the command line (``"--resume"``,
    ``"--store-dir", path`` ...).  Construction returns once the child
    printed its ``serving on HOST:PORT`` line; everything it printed
    up to then is in :attr:`banner`.
    """

    def __init__(self, checkpoint: str | Path, *flags: str) -> None:
        source_root = str(Path(__file__).resolve().parents[2])
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--checkpoint", str(checkpoint),
             "--read-deadline", "0.5", "--drain-timeout", "30",
             *flags],
            env=dict(os.environ, PYTHONPATH=source_root), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        self.banner: list[str] = []
        self.host, self.port = self._await_bind()

    def _await_bind(self) -> tuple[str, int]:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            self.banner.append(line.rstrip())
            if line.startswith("serving on "):
                host, port = line.split()[-1].rsplit(":", 1)
                return host, int(port)
        raise RuntimeError(
            "serve never bound; output so far: %r" % self.banner
        )

    def sigterm(self) -> tuple[int, str]:
        """Drain: returns the exit code and the remaining output."""
        self.proc.send_signal(signal.SIGTERM)
        tail = self.proc.stdout.read()
        code = self.proc.wait(timeout=60)
        return code, tail

    def sigkill(self) -> None:
        """Pull the plug: no drain, no checkpoint."""
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)
        self.proc.stdout.close()
