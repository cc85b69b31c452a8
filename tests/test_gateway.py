"""Gateway behavior: caching, retries, mock scripting, concurrency bound."""

import hashlib
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from flowsra.gateway import (
    ChatGateway,
    ChatMessage,
    ChatRequest,
    MockRule,
    PermanentError,
    ProtocolError,
    ScriptedMissError,
    TransientError,
    TransportError,
    cache_key,
    load_mock_script,
    mock_backend,
)


def req(content="hello", model="m", **kwargs):
    return ChatRequest(model=model, messages=(ChatMessage("user", content),), **kwargs)


def provider_payload(content):
    return {"choices": [{"message": {"role": "assistant", "content": content}}],
            "usage": {"prompt_tokens": 1, "completion_tokens": 1}}


class TestChatRequest:
    def test_needs_messages(self):
        with pytest.raises(ValueError):
            ChatRequest(model="m", messages=())

    def test_temperature_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            req(temperature=-1.0)


class TestCacheKey:
    def test_equal_requests_equal_keys(self):
        assert cache_key(req()) == cache_key(req())

    def test_any_field_changes_the_key(self):
        base = cache_key(req())
        assert cache_key(req(content="other")) != base
        assert cache_key(req(model="m2")) != base
        assert cache_key(req(max_tokens=9)) != base
        assert cache_key(req(seed=5)) != base

    def test_key_matches_independent_recomputation(self):
        # oracle: rebuild the canonical payload by hand
        request = req(content="x", model="mm", max_tokens=7)
        payload = json.dumps(
            {"max_tokens": 7, "messages": [["user", "x"]], "model": "mm",
             "seed": 0, "temperature": 0.0},
            sort_keys=True, ensure_ascii=False, separators=(",", ":"))
        assert cache_key(request) == hashlib.sha256(payload.encode()).hexdigest()


class TestComplete:
    def test_cache_hit_skips_transport(self, tmp_path):
        calls = []

        def transport(request):
            calls.append(request)
            return provider_payload("pong")

        gateway = ChatGateway(transport, cache_dir=tmp_path)
        first = gateway.complete(req())
        second = gateway.complete(req())
        assert first.content == second.content == "pong"
        assert first.cached is False
        assert second.cached is True
        assert len(calls) == 1

    def test_cache_survives_gateway_restart(self, tmp_path):
        ChatGateway(lambda r: provider_payload("pong"), cache_dir=tmp_path).complete(req())
        replay = ChatGateway(None, cache_dir=tmp_path, offline=True)
        assert replay.complete(req()).content == "pong"

    @pytest.mark.parametrize("damage", [
        '{"choices": [{"mess',  # truncated
        "[]",  # well-formed JSON of the wrong shape
        '{"choices": [{"message": {"content": "x"}}], "usage": "lots"}',
    ])
    def test_damaged_cache_entry_is_a_miss_and_heals(self, tmp_path, damage):
        calls = []

        def transport(request):
            calls.append(request)
            return provider_payload("pong")

        entry = tmp_path / f"{cache_key(req())}.json"
        entry.write_text(damage)
        gateway = ChatGateway(transport, cache_dir=tmp_path)
        response = gateway.complete(req())
        assert (response.content, response.cached, len(calls)) == ("pong", False, 1)
        assert json.loads(entry.read_text()) == provider_payload("pong")
        assert list(tmp_path.iterdir()) == [entry]
        assert gateway.complete(req()).cached is True
        assert len(calls) == 1

    def test_damaged_cache_entry_offline_is_a_transport_error(self, tmp_path):
        (tmp_path / f"{cache_key(req())}.json").write_text("{")
        gateway = ChatGateway(None, cache_dir=tmp_path, offline=True)
        with pytest.raises(TransportError):
            gateway.complete(req())

    def test_offline_without_cache_is_a_transport_error(self, tmp_path):
        gateway = ChatGateway(None, cache_dir=tmp_path, offline=True)
        with pytest.raises(TransportError):
            gateway.complete(req())

    def test_offline_forbids_network_transport(self):
        class FakeNetwork:
            is_network = True

            def __call__(self, request):
                raise AssertionError("must not be called")

        gateway = ChatGateway(FakeNetwork(), offline=True)
        with pytest.raises(TransportError):
            gateway.complete(req())

    def test_transient_failures_retry_then_succeed(self, tmp_path):
        attempts = []

        def flaky(request):
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientError("boom")
            return provider_payload("ok")

        gateway = ChatGateway(flaky, cache_dir=tmp_path, retries=3, sleep=lambda s: None)
        assert gateway.complete(req()).content == "ok"
        assert len(attempts) == 3
        # retries never duplicate cache entries
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_retries_exhausted_raises_transport_error(self):
        def always_down(request):
            raise TransientError("down")

        gateway = ChatGateway(always_down, retries=3, sleep=lambda s: None)
        with pytest.raises(TransportError):
            gateway.complete(req())

    def test_permanent_error_is_not_retried(self):
        attempts = []

        def rejecting(request):
            attempts.append(1)
            raise PermanentError("401")

        gateway = ChatGateway(rejecting, retries=3, sleep=lambda s: None)
        with pytest.raises(PermanentError):
            gateway.complete(req())
        assert len(attempts) == 1

    def test_malformed_payload_is_a_protocol_error(self):
        gateway = ChatGateway(lambda r: {"nonsense": True})
        with pytest.raises(ProtocolError):
            gateway.complete(req())

    def test_malformed_usage_is_a_protocol_error(self):
        payload = {"choices": [{"message": {"content": "x"}}],
                   "usage": {"prompt_tokens": "many"}}
        gateway = ChatGateway(lambda r: payload)
        with pytest.raises(ProtocolError):
            gateway.complete(req())

    def test_concurrency_bound_respected(self):
        in_flight = []
        peak = []
        lock = threading.Lock()

        def slow(request):
            with lock:
                in_flight.append(1)
                peak.append(len(in_flight))
            time.sleep(0.005)
            with lock:
                in_flight.pop()
            return provider_payload("ok")

        gateway = ChatGateway(slow, parallelism=8)
        with ThreadPoolExecutor(max_workers=32) as pool:
            futures = [pool.submit(gateway.complete, req(content=f"q{i}", seed=i))
                       for i in range(100)]
            for future in futures:
                future.result()
        assert max(peak) <= 8


class TestHttpTransport:
    class FakeResponse:
        def __init__(self, status_code=200, payload=None, text=""):
            self.status_code = status_code
            self._payload = payload
            self.text = text

        def json(self):
            if self._payload is None:
                raise ValueError("not json")
            return self._payload

    def test_body_carries_temperature_and_seed(self, monkeypatch):
        from flowsra import gateway as gateway_mod

        captured = {}

        def fake_post(url, json=None, headers=None, timeout=None):
            captured.update(url=url, body=json, headers=headers)
            return self.FakeResponse(200, provider_payload("ok"))

        monkeypatch.setattr(gateway_mod.requests, "post", fake_post)
        transport = gateway_mod.HttpTransport("http://x/v1/chat/completions", "key")
        transport(req("hello", model="m1"))
        assert captured["url"] == "http://x/v1/chat/completions"
        assert captured["headers"]["Authorization"] == "Bearer key"
        body = captured["body"]
        assert body["model"] == "m1"
        assert body["temperature"] == 0.0
        assert body["seed"] == 0
        assert body["messages"] == [{"role": "user", "content": "hello"}]

    @pytest.mark.parametrize("status,exc", [
        (500, TransientError), (429, TransientError), (401, PermanentError)])
    def test_status_mapping(self, monkeypatch, status, exc):
        from flowsra import gateway as gateway_mod

        monkeypatch.setattr(gateway_mod.requests, "post",
                            lambda *a, **k: self.FakeResponse(status))
        transport = gateway_mod.HttpTransport("http://x")
        with pytest.raises(exc):
            transport(req())

    def test_non_json_payload_is_protocol_error(self, monkeypatch):
        from flowsra import gateway as gateway_mod

        monkeypatch.setattr(gateway_mod.requests, "post",
                            lambda *a, **k: self.FakeResponse(200, None, "<html>"))
        with pytest.raises(ProtocolError):
            gateway_mod.HttpTransport("http://x")(req())


class TestMockBackend:
    def test_empty_script_misses(self):
        gateway = ChatGateway(mock_backend([]))
        with pytest.raises(ScriptedMissError):
            gateway.complete(req())

    def test_substring_match_wins_in_order(self):
        transport = mock_backend([
            ("RELATION", "RELATION: Causality"),
            ("", "fallthrough"),
        ])
        gateway = ChatGateway(transport)
        assert gateway.complete(req("pick a RELATION please")).content == (
            "RELATION: Causality")
        assert gateway.complete(req("anything else")).content == "fallthrough"

    def test_hash_exact_match(self):
        request = req("exact content")
        digest = hashlib.sha256(request.rendered().encode()).hexdigest()
        transport = mock_backend([MockRule("hash", digest, "matched")])
        assert ChatGateway(transport).complete(request).content == "matched"
        with pytest.raises(ScriptedMissError):
            ChatGateway(transport).complete(req("different"))

    def test_record_then_replay_offline(self, tmp_path):
        transport = mock_backend([("ping", "pong")])
        live = ChatGateway(transport, cache_dir=tmp_path)
        recorded = live.complete(req("ping"))
        offline = ChatGateway(None, cache_dir=tmp_path, offline=True)
        replayed = offline.complete(req("ping"))
        assert replayed.content == recorded.content
        assert replayed.cached is True

    def test_script_file_loading(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps([
            {"match": "contains", "pattern": "hi", "response": "hello"}]))
        transport = load_mock_script(path)
        assert ChatGateway(transport).complete(req("hi there")).content == "hello"
