import contextlib
import gc
import json
import os
import subprocess
import sys
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from streammem import ports as ports_module
from streammem.errors import BackendError, InputError, ProtocolError
from streammem.ports import (
    RemoteBackendConfig,
    RemoteClient,
    RemoteJudge,
    RemoteTextEncoder,
    remote_ports,
)
from streammem.retrieval import PromptBundle


class MockHandler(BaseHTTPRequestHandler):
    # class-level behaviour knobs, reset per test via the server fixture
    fail_next = 0
    delay = 0.0
    bad_json = False
    reply_body = None  # when set, the JSON text sent for every endpoint
    seen_auth: list = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length) or b"{}")
        MockHandler.seen_auth.append(self.headers.get("Authorization"))
        if MockHandler.delay:
            time.sleep(MockHandler.delay)
        if MockHandler.fail_next > 0:
            MockHandler.fail_next -= 1
            self.send_response(500)
            self.end_headers()
            return
        if MockHandler.bad_json:
            self._reply(b"not json{")
            return
        if MockHandler.reply_body is not None:
            self._reply(MockHandler.reply_body.encode())
            return
        if self.path == "/embed":
            vectors = [[1.0, 2.0, 3.0] for _ in payload.get("texts", [])]
            self._reply(json.dumps({"vectors": vectors}).encode())
        elif self.path == "/caption":
            self._reply(json.dumps({"caption": "scene: mock"}).encode())
        elif self.path == "/generate":
            self._reply(json.dumps({"text": "mock answer"}).encode())
        elif self.path == "/judge":
            self._reply(json.dumps({"verdict": "yes", "score": 4}).encode())
        else:
            self.send_response(404)
            self.end_headers()

    def _reply(self, body: bytes):
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class QuietServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        # clients deliberately disconnect mid-response in the timeout tests
        pass


@pytest.fixture(autouse=True)
def short_backoff(monkeypatch):
    monkeypatch.setattr(ports_module, "BACKOFF_BASE", 0.01)


@contextlib.contextmanager
def serving(handler):
    httpd = QuietServer(("127.0.0.1", 0), handler)
    # a short poll, so that shutdown() returns in 0.05 s instead of 0.5 s
    thread = threading.Thread(target=httpd.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_address[1]}"
    finally:
        httpd.shutdown()
        httpd.server_close()


@pytest.fixture
def server():
    MockHandler.fail_next = 0
    MockHandler.delay = 0.0
    MockHandler.bad_json = False
    MockHandler.reply_body = None
    MockHandler.seen_auth = []
    with serving(MockHandler) as url:
        yield url


@pytest.fixture
def keep_alive():
    """An HTTP/1.1 server that keeps each connection open, as a model server
    does (MockHandler speaks HTTP/1.0 and closes after every reply); yields
    its URL and its handler class, whose `paths` lists each POST it saw."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True  # the head and the body go out in two sends
        delay = 0.0
        close_after_reply = False
        paths: list = []

        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            self.paths.append(self.path)
            if self.delay:
                time.sleep(self.delay)
            body = b'{"ok": true}'
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            # close as a server drops an idle connection: no `Connection: close`
            self.close_connection = self.close_after_reply

        def log_message(self, *args):
            pass

    with serving(Handler) as url:
        yield url, Handler


@pytest.fixture
def sleeps(monkeypatch):
    """Each backoff the client sleeps, recorded instead of slept."""
    slept: list = []
    monkeypatch.setattr(ports_module, "time", SimpleNamespace(sleep=slept.append))
    return slept


def client_for(url, timeout=2.0):
    return RemoteClient(RemoteBackendConfig(base_url=url, timeout=timeout))


def test_embed_loopback(server):
    encoder = RemoteTextEncoder(client_for(server))
    vec = encoder("hello")
    assert np.allclose(vec, [1.0, 2.0, 3.0])


def test_retry_succeeds_on_third_attempt(server):
    MockHandler.fail_next = 2
    reply = client_for(server).call("embed", {"texts": ["x"]})
    assert reply == {"vectors": [[1.0, 2.0, 3.0]]}


def test_exhausted_retries_raise_backend_error(server):
    MockHandler.fail_next = 10
    with pytest.raises(BackendError) as err:
        client_for(server).call("generate", {"bundle": {}})
    assert err.value.endpoint == "generate"
    assert err.value.attempts == 3


def test_timeout_is_backend_error(server):
    MockHandler.delay = 0.5
    client = client_for(server, timeout=0.05)
    with pytest.raises(BackendError) as err:
        client.call("embed", {"texts": ["x"]})
    assert err.value.attempts == 3
    assert len(MockHandler.seen_auth) == 3


def test_malformed_response_is_protocol_error(server):
    MockHandler.bad_json = True
    with pytest.raises(ProtocolError):
        client_for(server).call("caption", {"captions": [], "tags": []})


def test_judge_schema_validation(server):
    judge = RemoteJudge(client_for(server))
    assert judge("q", "ref", "pred") == ("yes", 4)


@pytest.mark.parametrize(
    "body",
    [
        '{"verdict": "yes", "score": true}',
        '{"verdict": "no", "score": 99}',
        '{"verdict": "no", "score": -1}',
        '{"verdict": "yes", "score": 4.0}',
        '{"verdict": "yes", "score": "4"}',
        '{"verdict": "maybe", "score": 4}',
        '{"verdict": "yes"}',
    ],
)
def test_malformed_judge_reply_is_protocol_error(server, body):
    MockHandler.reply_body = body
    with pytest.raises(ProtocolError):
        RemoteJudge(client_for(server))("q", "ref", "pred")


@pytest.mark.parametrize("score", [0, 5])
def test_judge_scores_at_the_ends_of_the_scale_pass(server, score):
    MockHandler.reply_body = json.dumps({"verdict": "no", "score": score})
    assert RemoteJudge(client_for(server))("q", "ref", "pred") == ("no", score)


def test_api_key_sent_as_bearer(server, monkeypatch):
    monkeypatch.setenv("STREAMMEM_API_KEY", "sekrit")
    client_for(server).call("embed", {"texts": ["x"]})
    assert MockHandler.seen_auth[-1] == "Bearer sekrit"


def test_no_auth_header_without_api_key(server, monkeypatch):
    monkeypatch.delenv("STREAMMEM_API_KEY", raising=False)
    client_for(server).call("embed", {"texts": ["x"]})
    assert MockHandler.seen_auth == [None]


def test_remote_portset_same_shapes_as_stub(server):
    ports = remote_ports(RemoteBackendConfig(base_url=server))
    vec = ports.text_encoder("hi")
    assert vec.ndim == 1
    assert ports.judge("q", "r", "p") == ("yes", 4)


@pytest.mark.parametrize(
    "body",
    [
        '[1, 2]',  # not an object
        '{"vectors": []}',
        '{"vectors": [[1.0, 2.0], [1.0]]}',
        '{"vectors": [["1.0"]]}',
        '{"vectors": [[NaN]]}',
        '{"vectors": [1.0, 2.0]}',
        '{"vectors": [[1.0, 2.0], [3.0, 4.0]]}',  # two vectors for one text
    ],
)
def test_malformed_embed_reply_is_protocol_error(server, body):
    MockHandler.reply_body = body
    with pytest.raises(ProtocolError):
        RemoteTextEncoder(client_for(server))("hello")


def test_non_string_caption_is_protocol_error(server):
    MockHandler.reply_body = '{"caption": 5}'
    ports = remote_ports(RemoteBackendConfig(base_url=server))
    with pytest.raises(ProtocolError):
        ports.captioner.summarize(["scene: a"])


def test_non_string_generated_text_is_protocol_error(server):
    MockHandler.reply_body = '{"text": 7}'
    ports = remote_ports(RemoteBackendConfig(base_url=server))
    with pytest.raises(ProtocolError):
        ports.generator(PromptBundle(short_term=(), tree_tokens=(), dialogue_context=None,
                                     question="q"))


def test_backoff_doubles_between_attempts(server, sleeps):
    MockHandler.fail_next = 10
    with pytest.raises(BackendError):
        client_for(server).call("embed", {"texts": ["x"]})
    assert sleeps == [0.01, 0.02]


@pytest.mark.parametrize("status, attempts", [(400, 1), (404, 1), (301, 1), (408, 3), (429, 3)])
def test_only_replies_that_can_succeed_are_retried(sleeps, status, attempts):
    body = json.dumps({"error": "'bundle'"}) + " " * 300

    class Handler(BaseHTTPRequestHandler):
        seen = 0

        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            Handler.seen += 1
            self.send_response(status)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body.encode())

        def log_message(self, *args):
            pass

    with serving(Handler) as url:
        with pytest.raises(BackendError) as err:
            client_for(url).call("generate", {})
    assert Handler.seen == err.value.attempts == attempts
    assert len(sleeps) == attempts - 1
    message = str(err.value)
    assert f"HTTP {status}" in message and "'bundle'" in message
    assert len(message) < 260  # the body enters cut to 200 characters


def test_payload_that_is_not_json_is_not_sent(server, sleeps):
    with pytest.raises(BackendError, match="generate payload is not valid JSON") as err:
        client_for(server).call("generate", {"bundle": {"similarity": float("nan")}})
    assert err.value.endpoint == "generate"
    assert MockHandler.seen_auth == []  # no request reached the server
    assert sleeps == []


def test_two_threads_share_one_client(keep_alive):
    # Engine calls the ports from the query thread and the stream worker at once
    url, handler = keep_alive
    handler.delay = 0.001
    client = client_for(url)
    errors: list = []

    def fifty_calls():
        for _ in range(50):
            try:
                client.call("embed", {"texts": ["x"]})
            except BackendError as exc:
                errors.append(exc)

    threads = [threading.Thread(target=fifty_calls) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(handler.paths) == 100


def test_connection_closed_while_idle_costs_no_attempt(keep_alive, sleeps):
    url, handler = keep_alive
    handler.close_after_reply = True
    client = client_for(url)
    for _ in range(5):
        assert client.call("embed", {"texts": ["x"]}) == {"ok": True}
        threading.Event().wait(0.05)  # the server's close arrives meanwhile
    assert len(handler.paths) == 5
    assert sleeps == []


def test_dropped_client_closes_its_connections(keep_alive):
    url, _ = keep_alive
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        client = client_for(url)
        client.call("embed", {"texts": ["x"]})
        del client
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_base_url_path_prefixes_the_endpoint(keep_alive):
    url, handler = keep_alive
    client_for(url + "/v1/").call("caption", {"captions": [], "tags": []})
    assert handler.paths == ["/v1/caption"]


def test_https_url_speaks_tls(server):
    # the plain-HTTP mock cannot complete a TLS handshake, so no request reaches it
    with pytest.raises(BackendError) as err:
        client_for(server.replace("http://", "https://")).call("embed", {"texts": ["x"]})
    assert err.value.attempts == 3
    assert MockHandler.seen_auth == []


@pytest.mark.parametrize(
    "url", ["localhost:8099", "ftp://h/", "http://", "//h:80", "http://h:99999", "http://h:x"]
)
def test_base_url_must_be_http_with_a_host(url):
    with pytest.raises(InputError, match="remote url"):
        RemoteBackendConfig(base_url=url)


def test_import_loads_no_third_party_http_client():
    src = str(Path(ports_module.__file__).resolve().parents[1])
    code = "import sys, streammem; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
