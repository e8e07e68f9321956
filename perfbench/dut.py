"""Device-under-test stand-in: a UDP receiver in its own process.

Usage: python3 perfbench/dut.py

Binds an ephemeral loopback port and prints it on the first stdout line.
It then blocks on the socket and decodes every datagram with
``rtcsim.wire.unpack_bsm`` until it receives ``STOP``. It ends by printing
one JSON object: datagrams received, datagrams that failed to decode, and
the sorted list of received ``[vehicle_id, seq]`` pairs.

Receiving and decoding here, not in the paced runner's delivery thread,
keeps the sink as cheap as a real modem hand-off.
"""

from __future__ import annotations

import json
import socket
import sys

STOP = b"STOP"
RECV_BUFFER_BYTES = 1 << 22


def main() -> int:
    from rtcsim.errors import ValidationError
    from rtcsim.wire import unpack_bsm

    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, RECV_BUFFER_BYTES)
    sock.bind(("127.0.0.1", 0))
    print(sock.getsockname()[1], flush=True)
    received = bad = 0
    keys = set()
    try:
        while True:
            data = sock.recv(2048)
            if data == STOP:
                break
            received += 1
            try:
                record = unpack_bsm(data)
            except ValidationError:
                bad += 1
                continue
            keys.add((record.vehicle_id, record.seq))
    finally:
        sock.close()
    print(json.dumps({"received": received, "bad": bad, "keys": sorted(keys)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
