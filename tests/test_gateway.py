"""Gateway behavior: caching, retries, mock scripting, concurrency bound,
single-flight, and the in-order concurrent map."""

import hashlib
import json
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime

import pytest

from flowsra import gateway as gateway_mod
from flowsra.gateway import (
    CacheError,
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
    map_in_order,
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

    def test_unreadable_cache_entry_is_a_miss_and_heals(self, tmp_path):
        calls = []

        def transport(request):
            calls.append(request)
            return provider_payload("pong")

        entry = tmp_path / f"{cache_key(req())}.json"
        entry.symlink_to(entry.name)  # reading it fails with ELOOP
        gateway = ChatGateway(transport, cache_dir=tmp_path)
        assert gateway.complete(req()).cached is False
        assert not entry.is_symlink()
        assert gateway.complete(req()).cached is True
        assert len(calls) == 1

    def test_failed_cache_write_is_a_cache_error_naming_the_path(self, tmp_path):
        entry = tmp_path / f"{cache_key(req())}.json"
        entry.mkdir()
        gateway = ChatGateway(lambda r: provider_payload("pong"), cache_dir=tmp_path)
        with pytest.raises(CacheError, match=str(entry)):
            gateway.complete(req())
        assert [p.name for p in tmp_path.iterdir()] == [entry.name]

    def test_transport_calls_are_counted(self, tmp_path):
        attempts = []

        def flaky(request):
            attempts.append(1)
            if len(attempts) == 1:
                raise TransientError("boom")
            return provider_payload("ok")

        gateway = ChatGateway(flaky, cache_dir=tmp_path, sleep=lambda s: None)
        gateway.complete(req())
        gateway.complete(req())
        assert gateway.transport_calls == 2


class TestRetryBackoff:
    def failing(self, retry_afters):
        pending = list(retry_afters)

        def transport(request):
            if pending:
                raise TransientError("busy", pending.pop(0))
            return provider_payload("ok")

        return transport

    def test_full_jitter_without_retry_after(self):
        slept = []
        gateway = ChatGateway(self.failing([None, None, None]), retries=4,
                              backoff=0.5, sleep=slept.append, rng=random.Random(7))
        assert gateway.complete(req()).content == "ok"
        expected = random.Random(7)
        assert slept == [expected.uniform(0.0, 0.5 * 2 ** k) for k in range(3)]

    def test_sleeps_the_larger_of_retry_after_and_jitter(self):
        slept = []
        gateway = ChatGateway(self.failing([30.0, 0.0]), retries=3, backoff=0.5,
                              sleep=slept.append, rng=random.Random(11))
        gateway.complete(req())
        expected = random.Random(11)
        jitters = [expected.uniform(0.0, 0.5), expected.uniform(0.0, 1.0)]
        assert slept == [30.0, jitters[1]]
        assert jitters[0] < 30.0


class TestSingleFlight:
    def test_identical_concurrent_request_waits_and_gets_a_cache_hit(self, tmp_path):
        calls = []
        entered, release = threading.Event(), threading.Event()

        def transport(request):
            calls.append(request)
            entered.set()
            assert release.wait(5)
            return provider_payload("pong")

        gateway = ChatGateway(transport, cache_dir=tmp_path)
        with ThreadPoolExecutor(max_workers=2) as pool:
            first = pool.submit(gateway.complete, req())
            assert entered.wait(5)
            second = pool.submit(gateway.complete, req())
            time.sleep(0.05)  # without single-flight, the second call lands here
            release.set()
            responses = [first.result(timeout=5), second.result(timeout=5)]
        assert len(calls) == 1
        assert [r.content for r in responses] == ["pong", "pong"]
        assert [r.cached for r in responses] == [False, True]
        assert gateway.transport_calls == 1

    def test_waiter_makes_its_own_attempt_when_the_flight_fails(self, tmp_path):
        calls = []
        entered, release = threading.Event(), threading.Event()

        def transport(request):
            calls.append(request)
            if len(calls) == 1:
                entered.set()
                assert release.wait(5)
                raise PermanentError("HTTP 400")
            return provider_payload("pong")

        gateway = ChatGateway(transport, cache_dir=tmp_path)
        with ThreadPoolExecutor(max_workers=2) as pool:
            first = pool.submit(gateway.complete, req())
            assert entered.wait(5)
            second = pool.submit(gateway.complete, req())
            time.sleep(0.05)
            release.set()
            with pytest.raises(PermanentError):
                first.result(timeout=5)
            response = second.result(timeout=5)
        assert (response.content, response.cached) == ("pong", False)
        assert len(calls) == 2

    def test_request_that_missed_just_before_a_flight_landed_is_a_hit(self, tmp_path):
        # the late request reads the cache before the first one writes it,
        # and looks for a flight only after that flight has landed
        missed, landed = threading.Event(), threading.Event()

        class PausingGateway(ChatGateway):
            def _cache_read(self, key):
                response = super()._cache_read(key)
                if threading.current_thread().name == "late" and not missed.is_set():
                    missed.set()
                    assert landed.wait(5)
                return response

        gateway = PausingGateway(lambda r: provider_payload("pong"), cache_dir=tmp_path)
        late_response = []
        late = threading.Thread(target=lambda: late_response.append(gateway.complete(req())),
                                name="late")
        late.start()
        assert missed.wait(5)
        assert gateway.complete(req()).cached is False
        landed.set()
        late.join(timeout=5)
        assert not late.is_alive()
        assert [r.cached for r in late_response] == [True]
        assert gateway.transport_calls == 1

    def test_without_a_cache_each_copy_calls_the_transport(self):
        # as each would one after another: there is no cache to hit
        both = threading.Barrier(2, timeout=5)

        def transport(request):
            both.wait()
            return provider_payload("pong")

        gateway = ChatGateway(transport)
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(gateway.complete, req()) for _ in range(2)]
            assert [f.result(timeout=5).cached for f in futures] == [False, False]
        assert gateway.transport_calls == 2


class TestMapInOrder:
    def delayed(self, delays, gateway=None, log=None):
        """fn over item indices: sleeps, optionally sends a request first."""

        def fn(i):
            if log is not None:
                log.append(threading.get_ident())
            if gateway is not None:
                gateway.complete(req(f"item {i}"))
            time.sleep(delays[i])
            return i * i

        return fn

    def test_inline_without_transport_calls(self, tmp_path, monkeypatch):
        warm = ChatGateway(lambda r: provider_payload("ok"), cache_dir=tmp_path)
        for i in range(6):
            warm.complete(req(f"item {i}"))
        monkeypatch.setattr(gateway_mod, "ThreadPoolExecutor", None)
        gateway = ChatGateway(None, cache_dir=tmp_path, offline=True)
        threads = []
        fn = self.delayed([0.0] * 6, gateway, threads)
        assert list(map_in_order(fn, range(6), gateway)) == [i * i for i in range(6)]
        assert set(threads) == {threading.get_ident()}

    def test_overlaps_from_the_first_transport_call_in_input_order(self):
        gateway = ChatGateway(lambda r: provider_payload("ok"), parallelism=4)
        threads = []
        # later items finish first
        fn = self.delayed([0.02 - 0.002 * i for i in range(10)], gateway, threads)
        assert list(map_in_order(fn, range(10), gateway)) == [i * i for i in range(10)]
        assert threads[0] == threading.get_ident()
        assert threading.get_ident() not in threads[1:]
        assert len(set(threads[1:])) > 1

    def test_draws_items_only_as_slots_free(self):
        gateway = ChatGateway(lambda r: provider_payload("ok"), parallelism=3)
        drawn = []

        def items():
            for i in range(20):
                drawn.append(i)
                yield i

        results = map_in_order(self.delayed([0.001] * 20, gateway), items(), gateway)
        assert next(results) == 0
        assert drawn == [0]
        assert next(results) == 1
        assert len(drawn) <= 1 + 8 * 3 + 1
        assert list(results) == [i * i for i in range(2, 20)]

    def test_first_failure_in_input_order_is_raised(self):
        gateway = ChatGateway(lambda r: provider_payload("ok"), parallelism=4)
        lookahead = 8 * gateway.parallelism
        done = []

        def fn(i):
            gateway.complete(req(f"item {i}"))
            time.sleep(0.02 if i == 3 else 0.0)
            if i in (3, 5):
                raise ValueError(f"item {i}")
            done.append(i)
            return i

        results = map_in_order(fn, range(3 * lookahead), gateway)
        assert [next(results) for _ in range(3)] == [0, 1, 2]
        with pytest.raises(ValueError, match="item 3"):
            next(results)
        assert max(done) <= 3 + lookahead

    def test_stress_keeps_input_order_and_the_transport_bound(self, tmp_path):
        lock = threading.Lock()
        in_flight = peak = 0

        def transport(r):
            nonlocal in_flight, peak
            with lock:
                in_flight += 1
                peak = max(peak, in_flight)
            time.sleep(0.0005)
            with lock:
                in_flight -= 1
            return provider_payload(r.messages[-1].content)

        gateway = ChatGateway(transport, cache_dir=tmp_path, parallelism=4)

        def fn(i):  # item pairs share a request, so single-flight waits happen too
            return gateway.complete(req(f"item {i // 2}")).content

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = list(map_in_order(fn, range(400), gateway))
        finally:
            sys.setswitchinterval(interval)
        assert results == [f"item {i // 2}" for i in range(400)]
        assert 1 < peak <= gateway.parallelism
        assert gateway.transport_calls == 200

    def test_a_slow_head_item_does_not_hold_back_the_next_ones(self):
        gateway = ChatGateway(lambda r: provider_payload("ok"), parallelism=2)
        finished = []
        delays = [0.0, 0.2] + [0.005] * 6
        slow = self.delayed(delays, gateway)

        def fn(i):
            result = slow(i)
            finished.append(i)
            return result

        assert list(map_in_order(fn, range(8), gateway)) == [i * i for i in range(8)]
        assert finished.index(1) > max(finished.index(i) for i in range(2, 6))


class TestHttpTransport:
    class FakeResponse:
        def __init__(self, status_code=200, payload=None, text="", headers=None):
            self.status_code = status_code
            self._payload = payload
            self.text = text
            self.headers = headers or {}

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

    @pytest.mark.parametrize("status", [429, 503])
    def test_retry_after_seconds_ride_on_the_error(self, monkeypatch, status):
        monkeypatch.setattr(gateway_mod.requests, "post", lambda *a, **k: self.FakeResponse(
            status, headers={"Retry-After": "7"}))
        with pytest.raises(TransientError) as excinfo:
            gateway_mod.HttpTransport("http://x")(req())
        assert excinfo.value.retry_after == 7.0

    def test_retry_after_http_date_is_seconds_from_now(self, monkeypatch):
        when = format_datetime(datetime.now(timezone.utc) + timedelta(seconds=120),
                               usegmt=True)
        monkeypatch.setattr(gateway_mod.requests, "post", lambda *a, **k: self.FakeResponse(
            429, headers={"Retry-After": when}))
        with pytest.raises(TransientError) as excinfo:
            gateway_mod.HttpTransport("http://x")(req())
        assert 100.0 < excinfo.value.retry_after <= 120.0

    @pytest.mark.parametrize("status,headers", [
        (503, {}), (503, {"Retry-After": "soon"}), (503, {"Retry-After": "-3"}),
        (500, {"Retry-After": "7"})])
    def test_no_usable_retry_after(self, monkeypatch, status, headers):
        monkeypatch.setattr(gateway_mod.requests, "post", lambda *a, **k: self.FakeResponse(
            status, headers=headers))
        with pytest.raises(TransientError) as excinfo:
            gateway_mod.HttpTransport("http://x")(req())
        assert excinfo.value.retry_after is None

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


class TestAskParseRetry:
    """chat_request, last_tagged_line and ask_twice: the helpers the router,
    judge and recognizer share."""

    def test_chat_request_shapes(self):
        from flowsra.gateway import chat_request

        plain = chat_request("m", "p", max_tokens=64)
        assert plain == ChatRequest(model="m", messages=(ChatMessage("user", "p"),),
                                    max_tokens=64)
        framed = chat_request("m", "p", max_tokens=9, system="s")
        assert [m.role for m in framed.messages] == ["system", "user"]

    def test_last_tagged_line_strips_markup_and_takes_the_last(self):
        import re

        from flowsra.gateway import last_tagged_line

        tag = re.compile(r"tag:\s*(\w+)", re.IGNORECASE)
        text = "TAG: first\nreasoning\n**Tag:** `second`\ntrailer"
        idx, m = last_tagged_line(text, tag)
        assert (idx, m.group(1)) == (2, "second")
        assert last_tagged_line("no tag here", tag) is None
        assert last_tagged_line("", tag) is None

    def test_ask_twice_retries_once_with_the_reminder(self):
        from flowsra.gateway import ask_twice

        prompts = []

        def ask(prompt):
            prompts.append(prompt)
            return "ok" if len(prompts) == 2 else "garbled"

        parse = lambda text: text if text == "ok" else None
        assert ask_twice(ask, "p", parse, "+r") == "ok"
        assert prompts == ["p", "p+r"]
        prompts.clear()
        assert ask_twice(lambda p: prompts.append(p) or "x", "p", parse, "+r") is None
        assert prompts == ["p", "p+r"]
        assert ask_twice(lambda p: "ok", "p", parse, "+r") == "ok"
