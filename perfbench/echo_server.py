"""The served workload's round-trip reference: an echo server.

Usage: ``python3 perfbench/echo_server.py``; prints its port, then
answers every connection on its own thread until it is killed.  A
request is a length-prefixed pickle; the answer does a little dict and
list work and pickles a reply, so a round trip exercises what a served
unit does outside the program: two processes, a socket, pickling and
thread hand-offs.  It imports nothing from the program, so a change to
the program cannot move it.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading

HEADER = struct.Struct(">I")


def answer(conn: socket.socket) -> None:
    table: dict[int, list] = {}
    with conn, conn.makefile("rb") as stream:
        while True:
            head = stream.read(HEADER.size)
            if len(head) < HEADER.size:
                return
            request = pickle.loads(stream.read(HEADER.unpack(head)[0]))
            slot = request["k"] % 64
            table[slot] = sorted(request["v"], reverse=True)
            reply = pickle.dumps({"ok": True, "v": table[slot][:8]})
            conn.sendall(HEADER.pack(len(reply)) + reply)


def main() -> None:
    listener = socket.create_server(("127.0.0.1", 0))
    print(listener.getsockname()[1], flush=True)
    while True:
        conn, _addr = listener.accept()
        threading.Thread(target=answer, args=(conn,), daemon=True).start()


if __name__ == "__main__":
    main()
