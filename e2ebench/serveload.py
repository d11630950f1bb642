"""``repro serve`` in its own process, and the load the benchmark sends it.

The server is started with the program's defaults (``python -m repro
serve DIR --port 0``) and is ready at its first 200 on ``/v1/healthz``.
Load is an open loop over one keep-alive connection: request *i* is due
at ``start + i / rate`` and is timed from when it was due, so a stall
also counts against the requests queued behind it.  This module uses
no repro code; it runs in the driver process.
"""

from __future__ import annotations

import hashlib
import os
import re
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

_URL = re.compile(r"on http://([0-9.]+):([0-9]+)")
_CLOCK_TICK = os.sysconf("SC_CLK_TCK")

#: Request outcomes that count as served.
OK_STATUSES = (200, 304)


def check_body(target: str, status: int, body: bytes,
               expected: Dict) -> Optional[str]:
    """A problem with one served target, or None.  ``expected`` holds
    the in-process ``SurveyAPI`` answer's status and body digest;
    ``/v1/metrics`` carries live counters, so only its status counts."""
    if status not in OK_STATUSES:
        return f"serve: {target} answered {status}"
    if status != expected["status"]:
        return (f"serve: {target} answered {status}, SurveyAPI "
                f"{expected['status']}")
    if target.startswith("/v1/metrics"):
        return None
    if hashlib.sha256(body).hexdigest() != expected["sha256"]:
        return f"serve: {target} body differs from SurveyAPI's"
    return None


class ServerError(RuntimeError):
    """The server did not start or answer as expected."""


@dataclass
class Server:
    process: subprocess.Popen
    host: str
    port: int
    setup_s: float

    def cpu_s(self) -> float:
        """User + system CPU seconds the server process has used."""
        stat = Path(f"/proc/{self.process.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2:].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICK

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text(
        ).splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain, flushes the access log), then wait."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


def start_server(archive: Path, env: Dict[str, str], cwd: Path,
                 log: Path, access_log: Optional[Path] = None,
                 timeout: float = 60.0) -> Server:
    """Spawn ``repro serve`` and wait for its first healthy answer."""
    command = [sys.executable, "-m", "repro", "serve", str(archive),
               "--port", "0"]
    if access_log is not None:
        command += ["--access-log", str(access_log)]
    started = time.perf_counter()
    with open(log, "ab") as errors:
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=errors, env=env,
            cwd=cwd, text=True,
        )
    try:
        banner = process.stdout.readline()
        match = _URL.search(banner)
        if match is None:
            raise ServerError(f"unexpected server banner {banner!r}")
        host, port = match.group(1), int(match.group(2))
        probe = Client(host, port)
        while probe.get("/v1/healthz", "ready")[0] != 200:
            probe.close()
            if time.perf_counter() - started > timeout:
                raise ServerError("server not healthy in time")
            time.sleep(0.002)
        probe.close()
    except BaseException:
        process.kill()
        process.wait()
        process.stdout.close()
        raise
    return Server(process, host, port, time.perf_counter() - started)


@dataclass
class Sample:
    target: str
    due: float
    sent: float
    done: float
    status: int

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def late_s(self) -> float:
        return max(0.0, self.sent - self.due)


class Client:
    """One keep-alive HTTP/1.1 connection over a plain socket.

    Requests are written as bytes and responses parsed only as far as
    the status and ``Content-Length``, so the client's own CPU time per
    request is small next to the server's and adds little to the
    latency it measures.  Reconnects after a transport error.
    """

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self._sock: Optional[socket.socket] = None
        self._buffer = b""

    def get(self, target: str, request_id: str) -> tuple:
        """``(status, body)``; status 0 on a transport error."""
        try:
            if self._sock is None:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=10)
                self._sock.setsockopt(socket.IPPROTO_TCP,
                                      socket.TCP_NODELAY, 1)
                self._buffer = b""
            self._sock.sendall(
                f"GET {target} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"X-Request-Id: {request_id}\r\n\r\n".encode("ascii"))
            while b"\r\n\r\n" not in self._buffer:
                self._fill()
            head, _, rest = self._buffer.partition(b"\r\n\r\n")
            lines = head.split(b"\r\n")
            status = int(lines[0].split()[1])
            length = 0
            for line in lines[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            self._buffer = rest
            while len(self._buffer) < length:
                self._fill()
            body, self._buffer = (self._buffer[:length],
                                  self._buffer[length:])
            return status, body
        except (OSError, ValueError, IndexError):
            self.close()
            return 0, b""

    def _fill(self) -> None:
        chunk = self._sock.recv(262144)
        if not chunk:
            raise ConnectionResetError("server closed the connection")
        self._buffer += chunk

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None


def open_loop(client: Client, targets: Sequence[str], rate: float,
              id_prefix: str) -> List[Sample]:
    """Send ``targets`` at ``rate`` per second; request *i* is due at
    ``start + i / rate`` whether or not earlier ones have finished."""
    samples = []
    start = time.perf_counter() + 0.005
    for index, target in enumerate(targets):
        due = start + index / rate
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        sent = time.perf_counter()
        status, _body = client.get(target, f"{id_prefix}{index}")
        samples.append(Sample(target, due, sent, time.perf_counter(),
                              status))
    return samples


def closed_loop(client: Client, targets: Sequence[str],
                seconds: float) -> float:
    """Requests per second, each sent as soon as the previous ended."""
    started = time.perf_counter()
    sent = 0
    while time.perf_counter() - started < seconds:
        client.get(targets[sent % len(targets)], f"c{sent}")
        sent += 1
    return sent / (time.perf_counter() - started)
