"""``repro serve`` subprocess lifecycle and the closed-loop clients."""

from __future__ import annotations

import os
import re
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.client import Client, ServerError
from repro.ptest.spec import CampaignSpec, RoundResult, round_from_dict

_LISTENING = re.compile(r"listening on ([0-9.]+):(\d+)")


class Server:
    """One ``python3 -m repro serve --port 0 --max-concurrent 2`` subprocess
    of the checkout."""

    def __init__(self, root: Path):
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--max-concurrent",
                "2",
            ],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
            line = self.proc.stdout.readline() if ready else ""
            match = _LISTENING.search(line)
            if match is None:
                raise RuntimeError(f"repro serve did not start: {line!r}")
        except BaseException:
            self.kill()
            raise
        self.address = (match.group(1), int(match.group(2)))

    def client(self, timeout: float = 120.0) -> Client:
        return Client(*self.address, timeout=timeout, connect_timeout=30.0)

    def workers(self) -> list[int]:
        """Pids of the server's children (its forked pool workers)."""
        pids = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue  # exited while listing
            # Field 4 (ppid) follows the parenthesised command name.
            if int(stat.rsplit(")", 1)[1].split()[1]) == self.proc.pid:
                pids.append(int(entry))
        return pids

    def peak_rss_mb(self) -> float:
        """Sum of the peak RSS (``VmHWM``) of the server and its workers."""
        total_kib = 0
        for pid in [self.proc.pid, *self.workers()]:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
        return total_kib / 1024.0

    def close(self) -> None:
        """Drain with the ``shutdown`` op and wait for the exit."""
        if self.proc.poll() is None:
            try:
                with self.client(timeout=30.0) as client:
                    client.shutdown_server()
                self.proc.wait(timeout=60.0)
            except (ServerError, OSError, subprocess.TimeoutExpired):
                self.kill()
        self.proc.stdout.close()

    def kill(self) -> None:
        workers = self.workers() if self.proc.poll() is None else []
        self.proc.kill()
        self.proc.wait()
        for pid in workers:
            try:
                os.kill(pid, 9)
            except ProcessLookupError:
                pass
        self.proc.stdout.close()


@dataclass
class Request:
    """One request's client-side frame timestamps and rebuilt outcome."""

    index: int
    send: float
    accepted: float = 0.0
    first_cell: float | None = None
    last_cell: float | None = None
    done: float = 0.0
    queued: bool = False
    rounds: list[RoundResult] = field(default_factory=list)
    cells: list[tuple] = field(default_factory=list)
    error: str | None = None

    @property
    def ms(self) -> float:
        return (self.done - self.send) * 1000.0


def send(client: Client, spec: CampaignSpec, index: int) -> Request:
    request = Request(index=index, send=time.perf_counter())
    for frame in client.stream(spec, stream_cells=True):
        now = time.perf_counter()
        kind = frame.get("type")
        if kind == "accepted":
            request.accepted = now
            request.queued = bool(frame.get("queued"))
        elif kind == "cell":
            if request.first_cell is None:
                request.first_cell = now
            request.last_cell = now
            request.cells.append(
                (frame["variant"], frame["seed"], frame["found_bug"], frame["kind"])
            )
        elif kind == "round":
            request.rounds.append(round_from_dict(frame["round"]))
        elif kind == "error":
            request.error = f"{frame.get('kind')}: {frame.get('message')}"
    request.done = time.perf_counter()
    return request


def closed_loop(
    server: Server, specs: list[CampaignSpec], clients: int, seconds: float
) -> tuple[list[Request], float]:
    """``clients`` threads, each sending its next request only after the
    previous reply is done, cycling through ``specs`` until ``seconds``
    pass.  Returns the requests and the wall time until the last one
    completed."""
    lock = threading.Lock()
    next_index = [0]
    requests: list[Request] = []
    failures: list[BaseException] = []
    start = time.perf_counter()
    deadline = start + seconds

    def drive() -> None:
        try:
            with server.client() as client:
                while True:
                    with lock:
                        if time.perf_counter() >= deadline:
                            return
                        index = next_index[0] % len(specs)
                        next_index[0] += 1
                    request = send(client, specs[index], index)
                    with lock:
                        requests.append(request)
        except Exception as error:  # reported by the caller
            failures.append(error)

    threads = [threading.Thread(target=drive) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 150.0)
        if thread.is_alive():
            raise RuntimeError("closed-loop client did not finish")
    if failures:
        raise failures[0]
    end = max((request.done for request in requests), default=time.perf_counter())
    return requests, end - start
