"""Blocking client for the sweep service (library + tiny CLI).

The library half is what the chaos tests drive::

    with ServiceClient("127.0.0.1", port) as c:
        response = c.sweep(points, client="ci-a")

The CLI half is what the ``service-smoke`` CI job drives -- results on
stdout (deterministic: a warm-cache replay of the same request is
byte-identical), sourcing stats on stderr::

    python -m repro.service.client --port 4242 sweep \\
        --network lenet --batches 16,32 --gpus 1,4 --comm p2p
    python -m repro.service.client --port 4242 stats
    python -m repro.service.client --port 4242 drain
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.service.protocol import MAX_LINE_BYTES, ProtocolError


class ServiceClient:
    """One TCP connection speaking the line protocol."""

    def __init__(
        self, host: str, port: int, timeout: Optional[float] = 60.0,
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._fp = self._sock.makefile("rwb")

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._fp.close()
        finally:
            self._sock.close()

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request object; block for its response object."""
        self._fp.write((json.dumps(message) + "\n").encode("utf-8"))
        self._fp.flush()
        line = self._fp.readline(MAX_LINE_BYTES)
        if not line:
            raise ConnectionError("server closed the connection")
        response = json.loads(line.decode("utf-8"))
        if not isinstance(response, dict):
            raise ProtocolError("response is not a JSON object")
        return response

    def ping(self) -> Dict[str, Any]:
        return self.request({"op": "ping"})

    def stats(self) -> Dict[str, Any]:
        return self.request({"op": "stats"})

    def drain(self) -> Dict[str, Any]:
        return self.request({"op": "drain"})

    def sweep(
        self,
        points: Sequence[Dict[str, Any]],
        client: str = "anonymous",
        budget: Optional[int] = None,
        deadline: Optional[float] = None,
        degrade: bool = True,
    ) -> Dict[str, Any]:
        message: Dict[str, Any] = {
            "op": "sweep", "client": client, "points": list(points),
            "degrade": degrade,
        }
        if budget is not None:
            message["budget"] = budget
        if deadline is not None:
            message["deadline"] = deadline
        return self.request(message)


def render_result(result: Dict[str, Any]) -> str:
    """One deterministic stdout line per served point."""
    label = result.get("label", "?")
    kind = result.get("kind", "?")
    if kind == "oom":
        return f"{label}: OOM ({result.get('message', '')})"
    if kind == "failed":
        return (f"{label}: FAILED {result.get('error_type', '?')}: "
                f"{result.get('message', '')}")
    suffix = " [analytic]" if result.get("degraded") else ""
    return (f"{label}: iteration={result['iteration_time']:.6f}s "
            f"epoch={result['epoch_time']:.3f}s "
            f"({result['images_per_second']:.0f} img/s){suffix}")


def render_sourcing(sourcing: Dict[str, Any]) -> str:
    """The stderr sourcing summary (reports the seconds avoided)."""
    derived = sourcing.get("derived", 0)
    return (f"sourcing: {sourcing.get('executed', 0)} executed, "
            f"{sourcing.get('disk_hits', 0)} disk hit(s), "
            f"{sourcing.get('deduped', 0)} deduped, "
            f"{sourcing.get('degraded', 0)} degraded, "
            + (f"{derived} derived, " if derived else "")
            + f"~{sourcing.get('saved_seconds', 0.0):.2f}s avoided")


def _parse_int_list(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.client",
        description="Talk to a running sweep service (docs/SERVICE.md).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="socket timeout in seconds (default: 300)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ping")
    sub.add_parser("stats")
    sub.add_parser("drain")
    sweep = sub.add_parser("sweep")
    sweep.add_argument("--client", default="cli",
                       help="client identity for quota accounting")
    sweep.add_argument("--network", default="lenet")
    sweep.add_argument("--batches", default="16",
                       help="comma list of batch sizes")
    sweep.add_argument("--gpus", default="1",
                       help="comma list of GPU counts")
    sweep.add_argument("--comm", default="p2p",
                       help="communication method")
    sweep.add_argument("--budget", type=int, default=None,
                       help="simulation budget (extra points degrade)")
    sweep.add_argument("--deadline", type=float, default=None,
                       help="request deadline in seconds")
    sweep.add_argument("--no-degrade", action="store_true",
                       help="forbid analytic degraded answers")
    args = parser.parse_args(argv)

    with ServiceClient(args.host, args.port, timeout=args.timeout) as client:
        if args.command == "ping":
            print(json.dumps(client.ping(), sort_keys=True))
            return 0
        if args.command == "stats":
            print(json.dumps(client.stats(), sort_keys=True))
            return 0
        if args.command == "drain":
            print(json.dumps(client.drain(), sort_keys=True))
            return 0
        points = [
            {"network": args.network, "batch_size": batch,
             "num_gpus": gpus, "comm_method": args.comm}
            for batch in _parse_int_list(args.batches)
            for gpus in _parse_int_list(args.gpus)
        ]
        response = client.sweep(
            points, client=args.client, budget=args.budget,
            deadline=args.deadline, degrade=not args.no_degrade,
        )
    status = response.get("status")
    if status != "ok":
        print(f"{status}: {response.get('reason', response.get('error', ''))}",
              file=sys.stderr)
        return 3
    for result in response["results"]:
        print(render_result(result))
    print(render_sourcing(response.get("sourcing", {})), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
