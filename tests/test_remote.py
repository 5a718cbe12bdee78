import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from streammem.errors import BackendError, ProtocolError
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


@pytest.fixture
def server():
    MockHandler.fail_next = 0
    MockHandler.delay = 0.0
    MockHandler.bad_json = False
    MockHandler.reply_body = None
    MockHandler.seen_auth = []
    httpd = QuietServer(("127.0.0.1", 0), MockHandler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()
    httpd.server_close()


def client_for(url, **kw):
    defaults = dict(base_url=url, timeout=2.0, retry_count=3, backoff_base=0.01)
    defaults.update(kw)
    return RemoteClient(RemoteBackendConfig(**defaults))


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
    client = client_for(server, timeout=0.05, retry_count=2)
    with pytest.raises(BackendError):
        client.call("embed", {"texts": ["x"]})


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
    ports = remote_ports(RemoteBackendConfig(base_url=server, backoff_base=0.01))
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
    ],
)
def test_malformed_embed_reply_is_protocol_error(server, body):
    MockHandler.reply_body = body
    with pytest.raises(ProtocolError):
        RemoteTextEncoder(client_for(server))("hello")


def test_non_string_caption_is_protocol_error(server):
    MockHandler.reply_body = '{"caption": 5}'
    ports = remote_ports(RemoteBackendConfig(base_url=server, backoff_base=0.01))
    with pytest.raises(ProtocolError):
        ports.captioner.summarize(["scene: a"])


def test_non_string_generated_text_is_protocol_error(server):
    MockHandler.reply_body = '{"text": 7}'
    ports = remote_ports(RemoteBackendConfig(base_url=server, backoff_base=0.01))
    with pytest.raises(ProtocolError):
        ports.generator(PromptBundle(short_term=(), tree_tokens=(), dialogue_context=None,
                                     question="q"))
