"""Loopback stub model server for the remote-replay workload.

Answers POST /embed, /caption, /generate and /judge with exactly what the
stub ports return for the same input, so a replay through `remote_ports`
must give the answers and bundle digests of a stub-port replay.  GET /stats
returns the requests seen per endpoint (attempts, retries included).

Run as a child process:

    python3 perfbench/model_server.py SRC_DIR

It binds 127.0.0.1 on a free port, prints the port on one line, and serves
until its standard input closes.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found"}


def make_answer():
    """Return answer(endpoint, payload) -> reply dict, built on the stubs."""
    from streammem.frame_gate import Chunk
    from streammem.ports import EchoGenerator, TagCaptioner, exact_match_judge, hash_text_encode

    captioner = TagCaptioner()
    generator = EchoGenerator()

    def embed(p):
        return {"vectors": [hash_text_encode(t).tolist() for t in p["texts"]]}

    def caption(p):
        if p.get("captions"):
            return {"caption": captioner.summarize(p["captions"])}
        chunk = Chunk(embeddings=(), span=(0.0, 0.0), tags=tuple(p.get("tags", ())))
        return {"caption": captioner.caption_chunk(chunk)}

    def generate(p):
        doc = p["bundle"]
        context = doc.get("dialogue_context")
        bundle = SimpleNamespace(
            path=SimpleNamespace(best_caption=doc.get("best_caption", "")),
            dialogue_context=None if context is None else (context["question"],
                                                           context["answer"]),
        )
        return {"text": generator(bundle)}

    def judge(p):
        verdict, score = exact_match_judge(p["question"], p["reference"], p["prediction"])
        return {"verdict": verdict, "score": score}

    handlers = {"embed": embed, "caption": caption, "generate": generate, "judge": judge}

    def answer(endpoint: str, payload: dict):
        handler = handlers.get(endpoint)
        return None if handler is None else handler(payload)

    return answer


def make_handler(answer, attempts: Counter, lock: threading.Lock):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive, as RemoteClient's session expects

        def do_POST(self):
            endpoint = self.path.strip("/")
            with lock:
                attempts[endpoint] += 1
            length = int(self.headers.get("Content-Length", 0))
            try:
                reply = answer(endpoint, json.loads(self.rfile.read(length) or b"{}"))
            except (KeyError, TypeError, ValueError) as exc:
                self._send(400, {"error": str(exc)})
                return
            if reply is None:
                self._send(404, {"error": f"unknown endpoint {endpoint!r}"})
            else:
                self._send(200, reply)

        def do_GET(self):
            if self.path != "/stats":
                self._send(404, {"error": "not found"})
                return
            with lock:
                self._send(200, {"attempts": dict(attempts)})

        def _send(self, status: int, doc: dict):
            body = json.dumps(doc).encode()
            head = (
                f"HTTP/1.1 {status} {REASONS[status]}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode()
            # one send: headers and body in separate sends meet Nagle's
            # algorithm and the client's delayed ACK, about 40 ms a call
            self.wfile.write(head + body)

        def log_message(self, *args):
            pass

    return Handler


def main(argv: list[str]) -> int:
    sys.path.insert(0, argv[1])
    attempts: Counter = Counter()
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(make_answer(), attempts,
                                                                 threading.Lock()))
    server.daemon_threads = True
    serving = threading.Thread(target=server.serve_forever, name="model-server")
    serving.start()
    print(server.server_address[1], flush=True)
    try:
        sys.stdin.read()  # the parent closes our stdin (or dies) to stop us
    finally:
        server.shutdown()
        serving.join()
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
