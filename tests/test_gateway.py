"""Gateway behavior: caching, retries, mock scripting, concurrency bound,
single-flight, and the in-order concurrent map."""

import errno
import gc
import hashlib
import json
import os
import random
import re
import shutil
import sys
import tempfile
import threading
import time
import weakref
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
import requests
from hypothesis import given, settings, strategies as st

from flowsra import cli
from flowsra import gateway as gateway_mod
from flowsra.gateway import (
    ATTEMPTS,
    BACKOFF_S,
    CacheError,
    ChatGateway,
    ChatMessage,
    ChatRequest,
    CredentialError,
    MockRule,
    MockTransport,
    PermanentError,
    PromptKind,
    ProtocolError,
    ScriptedMissError,
    TransientError,
    TransportError,
    cache_key,
    chat_request,
    completion_backend,
    load_mock_script,
    map_in_order,
)

from gen import mock_backend


def req(content="hello", model="m", max_tokens=256):
    return ChatRequest(model=model, messages=(ChatMessage("user", content),),
                       max_tokens=max_tokens)


# text that JSON must escape or may pass through: quotes, backslashes, every
# C0 control, DEL, the JS line separators, astral characters, and the key's
# own framing
KEY_TEXT = st.lists(
    st.characters(blacklist_categories=("Cs",))
    | st.sampled_from(['"', "\\", "\x7f", "\u2028", "\u2029", "\U0001f600", "\U0010ffff",
                       '"messages":[]', '"messages":[', "],[", '"max_tokens":1,'])
    | st.sampled_from([chr(c) for c in range(0x20)]),
    max_size=20).map("".join)


def provider_payload(content):
    return {"choices": [{"message": {"role": "assistant", "content": content}}],
            "usage": {"prompt_tokens": 1, "completion_tokens": 1}}


class TestChatRequest:
    def test_needs_messages(self):
        with pytest.raises(ValueError):
            ChatRequest(model="m", messages=(), max_tokens=256)

    @pytest.mark.parametrize("role, content", [("user", None), (None, "x"), ("user", b"x")])
    def test_message_fields_must_be_text(self, role, content):
        with pytest.raises(ValueError, match="must be strings"):
            ChatMessage(role, content)

    @pytest.mark.parametrize("max_tokens", [True, False, 256.0, "256", None])
    def test_max_tokens_must_be_an_int(self, max_tokens):
        # a bool is an int to Python, but the provider would get true or false
        with pytest.raises(ValueError, match=re.escape(repr(max_tokens))):
            ChatRequest(model="m", messages=(ChatMessage("user", "x"),), max_tokens=max_tokens)

    def test_kind_is_neither_compared_nor_sent(self):
        plain, tagged = req(), replace(req(), kind=PromptKind.RELATION_RETRY)
        assert plain == tagged and hash(plain) == hash(tagged)
        assert cache_key(plain) == cache_key(tagged)
        assert plain.rendered() == tagged.rendered()


class TestCacheKey:
    def test_equal_requests_equal_keys(self):
        assert cache_key(req()) == cache_key(req())

    def test_any_field_changes_the_key(self):
        base = cache_key(req())
        assert cache_key(req(content="other")) != base
        assert cache_key(req(model="m2")) != base
        assert cache_key(req(max_tokens=9)) != base

    def test_key_matches_independent_recomputation(self):
        # oracle: rebuild the canonical payload by hand
        request = req(content="x", model="mm", max_tokens=7)
        payload = json.dumps(
            {"max_tokens": 7, "messages": [["user", "x"]], "model": "mm",
             "seed": 0, "temperature": 0.0},
            sort_keys=True, ensure_ascii=False, separators=(",", ":"))
        assert cache_key(request) == hashlib.sha256(payload.encode()).hexdigest()

    @settings(max_examples=300, deadline=None)
    @given(model=KEY_TEXT, system=st.none() | KEY_TEXT, user=KEY_TEXT,
           max_tokens=st.integers(0, 4096) | st.integers())
    def test_key_matches_json_dumps_for_any_text(self, model, system, user, max_tokens):
        messages = [["user", user]] if system is None else [["system", system], ["user", user]]
        request = ChatRequest(model, tuple(ChatMessage(*m) for m in messages), max_tokens)
        payload = json.dumps(
            {"model": model, "messages": messages, "temperature": 0.0,
             "max_tokens": max_tokens, "seed": 0},
            sort_keys=True, ensure_ascii=False, separators=(",", ":"))
        assert cache_key(request) == hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @given(surrogate=st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
           field=st.sampled_from(["model", "role", "content"]))
    def test_lone_surrogate_cannot_be_keyed(self, surrogate, field):
        text = {"model": "m", "role": "user", "content": "x", field: f"a{surrogate}b"}
        request = ChatRequest(text["model"], (ChatMessage(text["role"], text["content"]),), 7)
        with pytest.raises(UnicodeEncodeError):
            cache_key(request)


@pytest.mark.usefixtures("fast_thread_switches")
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
        replay = ChatGateway(None, cache_dir=tmp_path)
        assert replay.complete(req()).content == "pong"

    @pytest.mark.parametrize("damage", [
        "",  # empty
        '{"choices": [{"mess',  # truncated
        "[]",  # well-formed JSON of the wrong shape
        '{"choices": [{"message": {"content": "x"}}], "usage": "lots"}',
        '{"choices": [{"message": {"content": "x"}}], "usage": {"prompt_tokens": 1e999}}',
        "[" * 200_000,  # nested too deeply to decode
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
        gateway = ChatGateway(None, cache_dir=tmp_path)
        with pytest.raises(TransportError):
            gateway.complete(req())

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_named_pipe_entry_is_a_miss_and_heals(self, tmp_path):
        entry = tmp_path / f"{cache_key(req())}.json"
        os.mkfifo(entry)
        gateway = ChatGateway(lambda r: provider_payload("pong"), cache_dir=tmp_path)
        responses = []
        worker = threading.Thread(target=lambda: responses.append(gateway.complete(req())),
                                  daemon=True)
        worker.start()
        worker.join(timeout=10)
        if worker.is_alive():  # blocked opening the pipe: give it a writer, then fail
            os.close(os.open(entry, os.O_WRONLY | os.O_NONBLOCK))
            worker.join(timeout=10)
            pytest.fail("complete() blocked opening a named pipe at the entry's path")
        assert [(r.content, r.cached) for r in responses] == [("pong", False)]
        assert json.loads(entry.read_text()) == provider_payload("pong")

    def test_requests_counts_every_request_served(self, tmp_path):
        gateway = ChatGateway(lambda r: provider_payload("pong"), cache_dir=tmp_path)
        for content in ("one", "two", "one"):
            gateway.complete(replace(req(content), kind=PromptKind.JUDGE))
        assert (gateway.requests, gateway.transport_calls) == (Counter({PromptKind.JUDGE: 3}), 2)

    def test_offline_without_cache_is_a_transport_error(self, tmp_path):
        gateway = ChatGateway(None, cache_dir=tmp_path)
        with pytest.raises(TransportError):
            gateway.complete(req())

    def test_transient_failures_retry_then_succeed(self, tmp_path):
        attempts = []

        def flaky(request):
            attempts.append(1)
            if len(attempts) < ATTEMPTS:
                raise TransientError("boom")
            return provider_payload("ok")

        gateway = ChatGateway(flaky, cache_dir=tmp_path, sleep=lambda s: None)
        assert gateway.complete(req()).content == "ok"
        assert len(attempts) == ATTEMPTS
        # retries never duplicate cache entries
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_retries_exhausted_raises_transport_error(self):
        attempts, slept = [], []

        def always_down(request):
            attempts.append(1)
            raise TransientError("down")

        gateway = ChatGateway(always_down, sleep=slept.append)
        with pytest.raises(TransportError, match=f"gave up after {ATTEMPTS} attempts"):
            gateway.complete(req())
        # no sleep after the last attempt
        assert (len(attempts), len(slept)) == (ATTEMPTS, ATTEMPTS - 1)

    def test_permanent_error_is_not_retried(self):
        attempts = []

        def rejecting(request):
            attempts.append(1)
            raise PermanentError("401")

        gateway = ChatGateway(rejecting, sleep=lambda s: None)
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
            futures = [pool.submit(gateway.complete, req(content=f"q{i}"))
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


# cache entry contents: arbitrary bytes, JSON texts in UTF-8 (chat-completions
# payloads, whose usage counts may be any JSON value), with a byte order
# mark or in UTF-16, and JSON nested deeper than the decoder can follow
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=8)
_usage_counts = st.integers() | st.sampled_from([2.5, float("inf"), float("nan"), "3", "x"])
_payloads = st.builds(
    lambda content, usage: {"choices": [{"message": {"content": content}}], "usage": usage},
    st.text(max_size=8) | _json_values,
    st.fixed_dictionaries({"prompt_tokens": _usage_counts},
                          optional={"completion_tokens": _usage_counts}) | _json_values)
_entry_bytes = (
    st.binary(max_size=64)
    | _payloads.map(lambda payload: json.dumps(payload, ensure_ascii=False).encode())
    | st.builds(lambda value, encoding: json.dumps(value, ensure_ascii=False).encode(encoding),
                _payloads | _json_values, st.sampled_from(["utf-8", "utf-8-sig", "utf-16"]))
    | st.integers(min_value=1, max_value=200_000).map(lambda depth: b"[" * depth))


class TestCacheFormat:
    """Entries on disk: the bytes written, and what reading accepts."""

    def test_entry_bytes_are_the_sorted_json_of_the_payload(self, tmp_path):
        payload = {"usage": {"prompt_tokens": 2, "completion_tokens": 1},
                   "choices": [{"message": {"role": "assistant", "content": "né ✓ \"q\""}}]}
        ChatGateway(lambda r: payload, cache_dir=tmp_path).complete(req())
        entry = tmp_path / f"{cache_key(req())}.json"
        assert entry.read_bytes() == json.dumps(
            payload, ensure_ascii=False, sort_keys=True).encode()
        assert list(tmp_path.iterdir()) == [entry]

    def test_entry_written_by_json_dump_replays_as_a_hit(self, tmp_path):
        payload = provider_payload("né ✓")
        # how entries were written before: json.dump to a text stream
        with open(tmp_path / f"{cache_key(req())}.json", "w", encoding="utf-8") as handle:
            json.dump(payload, handle, ensure_ascii=False, sort_keys=True)
        response = ChatGateway(None, cache_dir=tmp_path).complete(req())
        assert (response.content, response.cached) == ("né ✓", True)

    @pytest.mark.parametrize("encode", [
        lambda text: b"\xef\xbb\xbf" + text.encode("utf-8"),  # byte order mark
        lambda text: text.encode("utf-16"),
        lambda text: text.encode("utf-8").replace(b"pong", b"p\xffng"),
    ], ids=["bom", "utf-16", "invalid-utf-8"])
    def test_entry_that_is_not_utf8_json_is_a_miss_and_heals(self, tmp_path, encode):
        calls = []

        def transport(request):
            calls.append(request)
            return provider_payload("pong")

        entry = tmp_path / f"{cache_key(req())}.json"
        entry.write_bytes(encode(json.dumps(provider_payload("pong"))))
        with pytest.raises(TransportError):
            ChatGateway(None, cache_dir=tmp_path).complete(req())
        gateway = ChatGateway(transport, cache_dir=tmp_path)
        assert gateway.complete(req()).cached is False
        assert gateway.complete(req()).cached is True
        assert len(calls) == 1

    def test_cache_directory_is_created_and_re_created(self, tmp_path):
        cache = tmp_path / "a" / "cache"
        gateway = ChatGateway(lambda r: provider_payload("pong"), cache_dir=cache)
        gateway.complete(req("one"))
        assert [p.name for p in cache.iterdir()] == [f"{cache_key(req('one'))}.json"]
        shutil.rmtree(tmp_path / "a")
        gateway.complete(req("two"))
        assert [p.name for p in cache.iterdir()] == [f"{cache_key(req('two'))}.json"]
        assert gateway.complete(req("two")).cached is True

    def test_cache_path_that_is_a_file_is_a_cache_error(self, tmp_path):
        cache = tmp_path / "cache"
        cache.write_text("")
        gateway = ChatGateway(lambda r: provider_payload("pong"), cache_dir=cache)
        with pytest.raises(CacheError, match=str(cache)):
            gateway.complete(req())
        assert [p.name for p in tmp_path.iterdir()] == ["cache"]

    @settings(max_examples=300, deadline=None)
    @given(_entry_bytes)
    def test_any_entry_bytes_give_a_hit_or_a_miss(self, data):
        with tempfile.TemporaryDirectory() as cache:
            with open(f"{cache}/{cache_key(req())}.json", "wb") as handle:
                handle.write(data)
            try:
                response = ChatGateway(None, cache_dir=cache).complete(req())
            except TransportError:  # a miss
                return
        assert response.cached is True
        assert isinstance(response.content, str)


class TestCacheRead:
    """The hit path: one ``os.open``, reads until one returns nothing, one
    decode, and the descriptor closed whatever the entry holds."""

    def test_entry_larger_than_one_read_is_a_hit_with_all_its_content(self, tmp_path):
        content = "ünïcode ✓ " * 2_000
        entry = tmp_path / f"{cache_key(req())}.json"
        entry.write_bytes(json.dumps(provider_payload(content), ensure_ascii=False).encode())
        assert entry.stat().st_size > 3 * gateway_mod._READ_SIZE
        response = ChatGateway(None, cache_dir=tmp_path).complete(req())
        assert (response.content, response.cached) == (content, True)

    def test_directory_at_the_entry_path_is_a_miss(self, tmp_path):
        # it opens, and its first read fails; writing over it is a CacheError
        # (test_failed_cache_write_is_a_cache_error_naming_the_path)
        (tmp_path / f"{cache_key(req())}.json").mkdir()
        with pytest.raises(TransportError, match="not in cache"):
            ChatGateway(None, cache_dir=tmp_path).complete(req())

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd to count open descriptors")
    def test_hits_and_misses_leave_no_descriptor_open(self, tmp_path):
        hit = req("hit")
        whole = json.dumps(provider_payload("pong")).encode()
        (tmp_path / f"{cache_key(hit)}.json").write_bytes(whole)
        damaged = {"empty": b"", "bom": b"\xef\xbb\xbf" + whole, "truncated": whole[:-3],
                   "invalid-utf-8": whole.replace(b"pong", b"p\xffng"),
                   "deep": b"[" * 100_000, "shape": b"[]"}
        for name, data in damaged.items():
            (tmp_path / f"{cache_key(req(name))}.json").write_bytes(data)
        (tmp_path / f"{cache_key(req('directory'))}.json").mkdir()
        loop = tmp_path / f"{cache_key(req('loop'))}.json"
        loop.symlink_to(loop.name)
        misses = [req(name) for name in [*damaged, "directory", "loop", "absent"]]
        gateway = ChatGateway(None, cache_dir=tmp_path)
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(500):
            assert gateway.complete(hit).cached is True
        for index in range(500):
            with pytest.raises(TransportError, match="not in cache"):
                gateway.complete(misses[index % len(misses)])
        assert len(os.listdir("/proc/self/fd")) == before


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
        gateway = ChatGateway(self.failing([None] * (ATTEMPTS - 1)),
                              sleep=slept.append, rng=random.Random(7))
        assert gateway.complete(req()).content == "ok"
        expected = random.Random(7)
        caps = [BACKOFF_S * 2 ** k for k in range(ATTEMPTS - 1)]
        assert slept == [expected.uniform(0.0, cap) for cap in caps]
        assert all(0.0 <= s <= cap for s, cap in zip(slept, caps))

    def test_sleeps_the_larger_of_retry_after_and_jitter(self):
        slept = []
        gateway = ChatGateway(self.failing([30.0, 0.0]), sleep=slept.append,
                              rng=random.Random(11))
        gateway.complete(req())
        expected = random.Random(11)
        jitters = [expected.uniform(0.0, BACKOFF_S), expected.uniform(0.0, 2 * BACKOFF_S)]
        assert slept == [30.0, jitters[1]]
        assert jitters[0] < 30.0 and jitters[1] > 0.0

    def test_a_wait_the_host_rejects_ends_the_request(self):
        def sleep(seconds):  # what the host's sleep raises at 9223372036 s
            raise OSError(errno.EINVAL, "Invalid argument")

        transport = self.failing([9223372036.0])
        gateway = ChatGateway(transport, sleep=sleep)
        with pytest.raises(TransportError, match="provider asked to wait 9223372036 s"):
            gateway.complete(req())
        assert gateway.transport_calls == 1


@pytest.mark.usefixtures("fast_thread_switches")
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


@pytest.mark.usefixtures("fast_thread_switches")
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
        gateway = ChatGateway(None, cache_dir=tmp_path)
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

        results = list(map_in_order(fn, range(400), gateway))
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


@pytest.mark.usefixtures("fast_thread_switches")
class TestTransportWorkers:
    """Transport calls run on the gateway's own worker threads, which live
    no longer than the scope that started them."""

    @staticmethod
    def recording(threads, outcomes):
        """A transport that notes its thread and answers with ``outcomes``
        in turn: an exception is raised, anything else is the reply."""
        pending = list(outcomes)

        def transport(request):
            threads.append(threading.current_thread())
            outcome = pending.pop(0)
            if isinstance(outcome, BaseException):
                raise outcome
            return provider_payload(outcome)

        return transport

    def test_bare_miss_runs_on_a_worker_that_is_joined(self, tmp_path):
        threads = []
        gateway = ChatGateway(self.recording(threads, ["pong"]), cache_dir=tmp_path)
        before = threading.active_count()
        assert gateway.complete(req()).content == "pong"
        assert threading.active_count() == before
        [worker] = threads
        assert worker is not threading.current_thread()
        assert not worker.is_alive()

    @staticmethod
    def complete_within(gateway, request, seconds=5):
        """``gateway.complete(request)`` on a thread of its own, so that a
        request no worker takes fails the test instead of hanging it."""
        future = Future()

        def run():
            try:
                future.set_result(gateway.complete(request))
            except BaseException as exc:
                future.set_exception(exc)

        requester = threading.Thread(target=run, daemon=True)
        requester.start()
        try:
            return future.result(timeout=seconds)
        finally:
            requester.join(seconds)

    def test_a_failed_call_loses_no_worker(self):
        threads = []
        gateway = ChatGateway(self.recording(threads, [PermanentError("HTTP 400"), "pong"]),
                              parallelism=1)
        before = threading.active_count()
        with gateway:
            with pytest.raises(PermanentError, match="HTTP 400"):
                self.complete_within(gateway, req("first"))
            assert self.complete_within(gateway, req("second")).content == "pong"
            assert gateway.transport_calls == 2
            assert threads[0] is threads[1] and threads[0].is_alive()
        assert threading.active_count() == before

    def test_any_exception_reaches_the_requester_as_raised(self):
        class Abort(BaseException):
            pass

        raised = [Abort("stop"), TransientError("busy", 3.0), ValueError("odd")]
        gateway = ChatGateway(self.recording([], raised), sleep=lambda s: None)
        before = threading.active_count()
        with pytest.raises(Abort) as abort:
            gateway.complete(req("a"))
        with pytest.raises(ValueError) as odd:  # the transient error was retried
            gateway.complete(req("b"))
        assert (abort.value, odd.value) == (raised[0], raised[2])
        assert threading.active_count() == before

    def test_nested_scopes_share_workers_until_the_last_user_leaves(self):
        threads = []
        gateway = ChatGateway(self.recording(threads, ["a", "b", "c"]), parallelism=1)
        before = threading.active_count()
        with gateway:
            with gateway:
                gateway.complete(req("a"))
            assert threads[0].is_alive()
            gateway.complete(req("b"))
            assert threads[1] is threads[0]
        assert threading.active_count() == before
        with gateway:  # a later scope starts its own worker
            gateway.complete(req("c"))
            assert threads[2] is not threads[0] and threads[2].is_alive()
        assert not threads[2].is_alive()

    def test_at_most_parallelism_workers_start(self):
        threads = []
        gateway = ChatGateway(self.recording(threads, ["ok"] * 40), parallelism=3)
        with gateway, ThreadPoolExecutor(max_workers=8) as pool:
            for future in [pool.submit(gateway.complete, req(f"q{i}")) for i in range(40)]:
                future.result(timeout=5)
        assert 1 <= len(set(threads)) <= 3
        assert not any(thread.is_alive() for thread in threads)


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

    @pytest.mark.parametrize("kind", [None, PromptKind.RELATION_RETRY])
    def test_body_carries_temperature_and_seed(self, monkeypatch, kind):
        captured = {}

        def fake_post(url, json=None, headers=None, timeout=None):
            captured.update(url=url, body=json, headers=headers, timeout=timeout)
            return self.FakeResponse(200, provider_payload("ok"))

        monkeypatch.setattr(requests, "post", fake_post)
        transport = gateway_mod.HttpTransport("http://x/v1/chat/completions", "key")
        transport(replace(req("hello", model="m1"), kind=kind))
        assert captured["url"] == "http://x/v1/chat/completions"
        assert captured["headers"]["Authorization"] == "Bearer key"
        assert captured["timeout"] == gateway_mod.TIMEOUT_S
        # the body as requests encodes it: key order and number forms included
        assert json.dumps(captured["body"]) == (
            '{"model": "m1", "messages": [{"role": "user", "content": "hello"}], '
            '"temperature": 0.0, "max_tokens": 256, "seed": 0}')

    @pytest.mark.parametrize("status,exc", [
        (500, TransientError), (429, TransientError), (400, PermanentError),
        (401, CredentialError)])
    def test_status_mapping(self, monkeypatch, status, exc):
        from flowsra import gateway as gateway_mod

        monkeypatch.setattr(requests, "post",
                            lambda *a, **k: self.FakeResponse(status))
        transport = gateway_mod.HttpTransport("http://x")
        with pytest.raises(exc):
            transport(req())

    @pytest.mark.parametrize("status", [429, 503])
    def test_retry_after_seconds_ride_on_the_error(self, monkeypatch, status):
        monkeypatch.setattr(requests, "post", lambda *a, **k: self.FakeResponse(
            status, headers={"Retry-After": "7"}))
        with pytest.raises(TransientError) as excinfo:
            gateway_mod.HttpTransport("http://x")(req())
        assert excinfo.value.retry_after == 7.0

    # RFC 5322 reads the zone -0000 as "none given", which parses as a naive
    # time: it is read as UTC
    @pytest.mark.parametrize("zone", ["GMT", "-0000"])
    def test_retry_after_http_date_is_seconds_from_now(self, monkeypatch, zone):
        then = datetime.now(timezone.utc) + timedelta(seconds=120)
        when = (format_datetime(then, usegmt=True) if zone == "GMT"
                else format_datetime(then.replace(tzinfo=None)))
        assert when.endswith(" " + zone)
        monkeypatch.setattr(requests, "post", lambda *a, **k: self.FakeResponse(
            429, headers={"Retry-After": when}))
        with pytest.raises(TransientError) as excinfo:
            gateway_mod.HttpTransport("http://x")(req())
        assert 100.0 < excinfo.value.retry_after <= 120.0

    @pytest.mark.parametrize("status,headers", [
        (503, {}), (503, {"Retry-After": "soon"}), (503, {"Retry-After": "-3"}),
        (500, {"Retry-After": "7"})])
    def test_no_usable_retry_after(self, monkeypatch, status, headers):
        monkeypatch.setattr(requests, "post", lambda *a, **k: self.FakeResponse(
            status, headers=headers))
        with pytest.raises(TransientError) as excinfo:
            gateway_mod.HttpTransport("http://x")(req())
        assert excinfo.value.retry_after is None

    @pytest.mark.parametrize("value", ["\xb2", "12\xb3"])  # as a latin-1 header decodes
    def test_retry_after_with_a_superscript_digit_is_unusable(self, monkeypatch, value):
        monkeypatch.setattr(requests, "post", lambda *a, **k: self.FakeResponse(
            503, headers={"Retry-After": value}))
        with pytest.raises(TransientError) as excinfo:
            gateway_mod.HttpTransport("http://x")(req())
        assert excinfo.value.retry_after is None

    def test_non_json_payload_is_protocol_error(self, monkeypatch):
        from flowsra import gateway as gateway_mod

        monkeypatch.setattr(requests, "post",
                            lambda *a, **k: self.FakeResponse(200, None, "<html>"))
        with pytest.raises(ProtocolError):
            gateway_mod.HttpTransport("http://x")(req())

    def test_too_deeply_nested_payload_is_protocol_error(self, monkeypatch):
        response = self.FakeResponse(200)
        response.json = lambda: json.loads("[" * 200_000)
        monkeypatch.setattr(requests, "post", lambda *a, **k: response)
        with pytest.raises(ProtocolError):
            gateway_mod.HttpTransport("http://x")(req())

    def test_building_imports_nothing_and_the_first_call_imports_requests(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "requests")
        transport = gateway_mod.HttpTransport("http://x")
        assert "requests" not in sys.modules
        monkeypatch.setitem(sys.modules, "requests", requests)
        posted = []

        def fake_post(url, **kwargs):
            posted.append(url)
            return self.FakeResponse(200, provider_payload("ok"))

        monkeypatch.setattr(requests, "post", fake_post)
        assert transport(req()) == provider_payload("ok")
        assert posted == ["http://x"]

    @pytest.mark.parametrize("endpoint", [
        "localhost:9/v1/chat/completions", "ftp://x/v1", "file:///v1", "http:///v1",
        "//x/v1", "http://x:port/v1", "http://x:70000/v1", "http://[::1/v1", ""])
    def test_malformed_endpoint_is_a_value_error(self, endpoint):
        with pytest.raises(ValueError, match="endpoint"):
            gateway_mod.HttpTransport(endpoint)

    @pytest.mark.parametrize("endpoint", [
        "http://127.0.0.1:9", "https://api.example.com/v1/chat/completions",
        "HTTP://x/v1", "http://[::1]:8080/v1"])
    def test_http_and_https_urls_with_a_host_are_accepted(self, endpoint):
        assert gateway_mod.HttpTransport(endpoint).endpoint == endpoint

    @pytest.mark.parametrize("retry_after,low,high", [
        ("9300000000", 9_300_000_000, 9_300_000_000),
        (format_datetime(datetime(9999, 12, 31, tzinfo=timezone.utc), usegmt=True),
         200_000_000_000, 260_000_000_000)])
    def test_retry_after_the_host_cannot_sleep_ends_the_request(
            self, monkeypatch, retry_after, low, high):
        posted = []

        def fake_post(url, **kwargs):
            posted.append(url)
            return self.FakeResponse(429, headers={"Retry-After": retry_after})

        def sleep(seconds):  # the host's sleep, handed only waits it rejects at once
            assert seconds > 1e9
            time.sleep(seconds)

        monkeypatch.setattr(requests, "post", fake_post)
        gateway = ChatGateway(gateway_mod.HttpTransport("http://x"), sleep=sleep)
        with pytest.raises(TransportError) as excinfo:
            gateway.complete(req())
        wait = re.match(r"provider asked to wait (\d+) s, ", str(excinfo.value))
        assert wait and low <= int(wait.group(1)) <= high
        assert posted == ["http://x"]

    @pytest.mark.parametrize("retry_after", [
        "3600", format_datetime(datetime.now(timezone.utc) + timedelta(hours=1), usegmt=True)],
        ids=["seconds", "http-date"])
    def test_retry_after_longer_than_the_timeout_ends_the_request(self, monkeypatch,
                                                                  retry_after):
        posted = []

        def fake_post(url, **kwargs):
            posted.append(url)
            return self.FakeResponse(429, headers={"Retry-After": retry_after})

        monkeypatch.setattr(requests, "post", fake_post)
        slept = []
        gateway = ChatGateway(gateway_mod.HttpTransport("http://x"), sleep=slept.append)
        with pytest.raises(TransportError) as excinfo:
            gateway.complete(req())
        wait = re.match(r"provider asked to wait (\d+) s, longer than the 120 s request "
                        r"timeout \(HTTP 429\)$", str(excinfo.value))
        assert wait and 3500 <= int(wait.group(1)) <= 3600
        assert (posted, slept) == (["http://x"], [])

    @pytest.mark.parametrize("retry_after,error", [("120", TransientError),
                                                   ("121", TransportError)])
    def test_a_retry_after_up_to_the_timeout_is_retried(self, monkeypatch, retry_after,
                                                         error):
        assert gateway_mod.TIMEOUT_S == 120
        monkeypatch.setattr(requests, "post", lambda *a, **k: self.FakeResponse(
            503, headers={"Retry-After": retry_after}))
        with pytest.raises(error):
            gateway_mod.HttpTransport("http://x")(req())

    @pytest.mark.parametrize("api_key", [
        "a\nb", "a\rb", "key\r\n", "\u043a\u043b\u044e\u0447", "k\udcffey"])
    def test_api_key_no_header_can_carry_is_a_value_error(self, api_key):
        with pytest.raises(ValueError, match="API key") as excinfo:
            gateway_mod.HttpTransport("http://x", api_key)
        assert api_key not in str(excinfo.value)

    def test_latin1_api_key_is_sent(self, monkeypatch):
        headers = {}
        monkeypatch.setattr(requests, "post", lambda url, **kwargs: (
            headers.update(kwargs["headers"]) or self.FakeResponse(200, provider_payload("ok"))))
        gateway_mod.HttpTransport("http://x", "cl\xe9 ")(req())
        assert headers["Authorization"] == "Bearer cl\xe9 "


def _short_body(handler):
    """Announce more body than is sent, then close the connection."""
    handler.send_response(200)
    handler.send_header("Content-Length", "100")
    handler.end_headers()
    handler.wfile.write(b'{"choices"')


def _hang_up(handler):
    """Close the connection without a reply."""
    handler.close_connection = True


def _slow(handler):
    """Close the connection without a reply, after 0.5 s."""
    time.sleep(0.5)
    handler.close_connection = True


def _http_date(hours):
    return format_datetime(datetime.now(timezone.utc) + timedelta(hours=hours), usegmt=True)


class TestLoopback:
    """``HttpTransport`` against a stdlib HTTP server on 127.0.0.1."""

    @pytest.fixture
    def serve(self, monkeypatch):
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        servers = []
        posts = []
        auth = []

        def serve(*replies):
            """Start a server that answers its n-th POST with ``replies[n]``
            and return its URL. A reply is a (status, body) pair or a
            (status, body, headers) triple, its body sent as is if bytes and
            as JSON otherwise, or a function that answers through the
            handler it is given. ``serve.posts`` lists the POSTs served and
            ``serve.auth`` their ``Authorization`` headers, None if absent."""
            pending = list(replies)

            class Handler(BaseHTTPRequestHandler):
                def do_POST(self):
                    self.rfile.read(int(self.headers["Content-Length"]))
                    posts.append(self.path)
                    auth.append(self.headers["Authorization"])
                    reply = pending.pop(0)
                    if callable(reply):
                        reply(self)
                        return
                    status, body, *headers = reply
                    data = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
                    self.send_response(status)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(data)))
                    for name, value in (headers[0] if headers else {}).items():
                        self.send_header(name, value)
                    self.end_headers()
                    self.wfile.write(data)

                def log_message(self, *args):
                    pass

            server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
            server.daemon_threads = False  # so server_close joins the handlers
            thread = threading.Thread(target=server.serve_forever,
                                      kwargs={"poll_interval": 0.01})
            thread.start()
            servers.append((server, thread))
            return f"http://127.0.0.1:{server.server_port}/v1/chat/completions"

        serve.posts = posts
        serve.auth = auth
        yield serve
        for server, thread in servers:
            server.shutdown()
            server.server_close()
            thread.join()

    def test_408_is_retried(self, serve):
        url = serve((408, {"error": "request timeout"}), (200, provider_payload("ok")))
        slept = []
        gateway = ChatGateway(gateway_mod.HttpTransport(url), sleep=slept.append)
        assert gateway.complete(req()).content == "ok"
        assert gateway.transport_calls == 2
        assert len(slept) == 1


    @pytest.mark.parametrize("replies, posts, stderr", [
        ([(200, b"not json")], 1, "backend error: provider response is not JSON"),
        ([(200, {"id": "x"})], 1, "backend error: malformed provider payload"),
        ([(200, {"choices": [{"message": {"content": None}}]})], 1,
         "backend error: provider payload content is not text"),
        ([(400, {"error": "bad request"})], 1, "backend error: HTTP 400: "),
        ([(429, {"error": "slow down"}, {"Retry-After": "0"})] * 3, 3,
         "backend error: gave up after 3 attempts: HTTP 429 from provider"),
        ([(500, {"error": "oops"})] * 3, 3,
         "backend error: gave up after 3 attempts: HTTP 500 from provider"),
        ([(503, {"error": "busy"})] * 3, 3,
         "backend error: gave up after 3 attempts: HTTP 503 from provider"),
        ([_short_body] * 3, 3, "backend error: gave up after 3 attempts: "),
        ([_hang_up] * 3, 3, "backend error: gave up after 3 attempts: "),
        ([(429, {"error": "slow down"}, {"Retry-After": _http_date(-1)})] * 3, 3,
         "backend error: gave up after 3 attempts: HTTP 429 from provider"),
        ([(503, {"error": "busy"}, {"Retry-After": _http_date(1)})], 1,
         "backend error: provider asked to wait "),
    ], ids=["200-not-json", "200-no-choices", "200-null-content", "400",
            "429-retry-after-0", "500", "503", "short-body", "closed-before-reply",
            "429-retry-after-past-date", "503-retry-after-date-an-hour-ahead"])
    def test_llm_route_failure_exits_3(self, serve, monkeypatch, capsys,
                                       replies, posts, stderr):
        monkeypatch.setattr(gateway_mod, "BACKOFF_S", 0)
        url = serve(*replies)
        code = cli.main(["route", "--router", "llm", "--question", "Why?",
                         "--endpoint", url])
        captured = capsys.readouterr()
        assert (code, len(serve.posts), captured.out) == (3, posts, "")
        assert captured.err.startswith(stderr)

    def test_reply_slower_than_the_timeout_is_retried_then_exits_3(self, serve, monkeypatch,
                                                                    capsys):
        monkeypatch.setattr(gateway_mod, "BACKOFF_S", 0)
        monkeypatch.setattr(gateway_mod, "TIMEOUT_S", 0.2)
        url = serve(*[_slow] * 3)
        code = cli.main(["route", "--router", "llm", "--question", "Why?",
                         "--endpoint", url])
        captured = capsys.readouterr()
        assert (code, len(serve.posts), captured.out) == (3, 3, "")
        assert captured.err.startswith("backend error: gave up after 3 attempts: ")
        assert "timed out" in captured.err

    @pytest.mark.parametrize("status", [400])
    def test_rejected_deep_ask_names_the_first_edge_and_exits_3(self, serve, tmp_path,
                                                               capsys, status):
        # the first edge is recognised in the caller's thread; its transport
        # call, and the rejection, happen on the gateway's executor
        chart = tmp_path / "chart.mmd"
        chart.write_text("flowchart TD\nA[Start] --> B[Check input]\nB --> C{Valid?}\n"
                         "C -->|Yes| D[Save]\nC -->|No| A\n")
        url = serve((status, {"error": "rejected"}))
        code = cli.main(["ask", str(chart), "--question", "Why check the input?",
                         "--mode", "deep", "--relation-backend", "llm", "--endpoint", url])
        captured = capsys.readouterr()
        assert (code, len(serve.posts), captured.out) == (3, 1, "")
        assert captured.err.startswith(
            f"backend error: relation recognition failed for edge A -> B: HTTP {status}: ")

    @pytest.mark.parametrize("status", [400])
    def test_rejected_eval_fails_every_instance_and_exits_0(self, serve, capsys, status):
        # each instance's router call is rejected once, not retried, and
        # fails that instance alone
        url = serve(*[(status, {"error": "rejected"})] * 10)
        dataset = Path(__file__).parent / "data" / "eval10.jsonl"
        code = cli.main(["eval", "--dataset", str(dataset), "--router", "llm",
                         "--relation-backend", "llm", "--report", "json", "--endpoint", url])
        report = json.loads(capsys.readouterr().out)
        assert (code, len(serve.posts)) == (0, 10)
        assert report["failed_count"] == report["total"] == 10

    @pytest.mark.parametrize("command", [
        ["route", "--router", "llm", "--question", "Why?"],
        ["ask", "CHART", "--question", "Why check the input?", "--mode", "deep",
         "--relation-backend", "llm"],
        ["eval", "--dataset", str(Path(__file__).parent / "data" / "eval10.jsonl"),
         "--router", "llm", "--relation-backend", "llm", "--report", "json"],
    ], ids=["route", "deep-ask", "eval"])
    def test_rejected_credentials_end_the_run_with_exit_2(self, serve, tmp_path, capsys,
                                                          command):
        # a 401 would meet every request of the run alike: it is not
        # retried, and the first one ends the run
        chart = tmp_path / "chart.mmd"
        chart.write_text("flowchart TD\nA[Start] --> B[Check input]\nB --> C[Save]\n")
        url = serve(*[(401, {"error": "unauthorized"})] * 10)
        argv = [str(chart) if arg == "CHART" else arg for arg in command]
        code = cli.main(argv + ["--endpoint", url])
        captured = capsys.readouterr()
        assert (code, len(serve.posts), captured.out) == (2, 1, "")
        assert captured.err.startswith("config error: HTTP 401: ")

    def test_api_key_rides_on_every_post(self, serve, capsys):
        url = serve((200, provider_payload("no class here")),
                    (200, provider_payload("CLASS: Straight")))
        code = cli.main(["route", "--router", "llm", "--question", "Why?",
                         "--endpoint", url, "--api-key", "k1"])
        assert (code, serve.auth) == (0, ["Bearer k1"] * 2)
        assert "Straight" in capsys.readouterr().out

    def test_api_key_with_a_line_break_exits_2_before_any_post(self, serve, monkeypatch,
                                                              capsys):
        monkeypatch.setenv("FLOWSRA_API_KEY", "k1\r\nX-Injected: 1")
        url = serve()
        code = cli.main(["route", "--router", "llm", "--question", "Why?", "--endpoint", url])
        captured = capsys.readouterr()
        assert (code, len(serve.posts), captured.out) == (2, 0, "")
        assert captured.err.startswith("config error: API key holds a line break")


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

    @pytest.mark.parametrize("case", [str.lower, str.upper])
    def test_hash_exact_match(self, case):
        request = req("exact content")
        digest = case(hashlib.sha256(request.rendered().encode()).hexdigest())
        transport = mock_backend([MockRule("hash", digest, "matched")])
        assert ChatGateway(transport).complete(request).content == "matched"
        with pytest.raises(ScriptedMissError):
            ChatGateway(transport).complete(req("different"))

    def test_exact_match_is_the_whole_rendered_prompt(self):
        request = chat_request("m", "the question", max_tokens=8, system="be brief")
        assert request.rendered() == "[system]\nbe brief\n\n[user]\nthe question"
        transport = MockTransport([MockRule("exact", "[user]\nthe question", "part"),
                                   MockRule("exact", request.rendered(), "whole")])
        assert ChatGateway(transport).complete(request).content == "whole"
        with pytest.raises(ScriptedMissError):
            ChatGateway(transport).complete(req("the question!"))

    def test_a_served_request_can_be_collected(self):
        transport = MockTransport([MockRule("contains", "", "ok")])
        request = req()
        assert transport(request)["choices"][0]["message"]["content"] == "ok"
        dropped = weakref.ref(request)
        del request
        gc.collect()
        assert dropped() is None

    def test_record_then_replay_offline(self, tmp_path):
        transport = mock_backend([("ping", "pong")])
        live = ChatGateway(transport, cache_dir=tmp_path)
        recorded = live.complete(req("ping"))
        offline = ChatGateway(None, cache_dir=tmp_path)
        replayed = offline.complete(req("ping"))
        assert replayed.content == recorded.content
        assert replayed.cached is True

    def test_script_file_loading(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps([
            {"match": "contains", "pattern": "hi", "response": "hello"}]))
        transport = load_mock_script(path)
        assert ChatGateway(transport).complete(req("hi there")).content == "hello"

    @pytest.mark.parametrize("entries,message", [
        ({"pattern": "a", "response": "b"}, " is not a JSON list"),
        (["x"], ", entry 0: not an object with a string pattern and a string response"),
        ([{"pattern": "a", "response": "b"}, {"pattern": "a"}],
         ", entry 1: not an object with a string pattern and a string response"),
        ([{"pattern": "a", "response": 5}],
         ", entry 0: not an object with a string pattern and a string response"),
        ([{"match": "regex", "pattern": "a", "response": "b"}],
         ", entry 0: unknown mock matcher 'regex'"),
        ([{"pattern": "a", "response": "b"}, {"match": "hash", "pattern": "0" * 63,
                                              "response": "b"}],
         ", entry 1: a hash pattern must be 64 hex digits, the sha256 of the rendered prompt"),
        ([{"match": "hash", "pattern": "0" * 63 + "g", "response": "b"}],
         ", entry 0: a hash pattern must be 64 hex digits, the sha256 of the rendered prompt"),
        ([{"match": "hash", "pattern": "0" * 64 + "\n", "response": "b"}],
         ", entry 0: a hash pattern must be 64 hex digits, the sha256 of the rendered prompt"),
        ([{"match": "hash", "pattern": "\uff10" * 64, "response": "b"}],
         ", entry 0: a hash pattern must be 64 hex digits, the sha256 of the rendered prompt"),
    ])
    def test_script_entries_are_checked_on_load(self, tmp_path, entries, message):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(entries))
        with pytest.raises(ValueError) as excinfo:
            load_mock_script(path)
        assert str(excinfo.value) == f"mock script {path}{message}"

    def test_unknown_matcher_is_refused_at_construction(self):
        with pytest.raises(ValueError, match="^unknown mock matcher 'regex'$"):
            MockRule("regex", "a", "b")


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
        retried = "p\n\nYour previous answer could not be parsed. Answer again +r"
        assert ask_twice(ask, "p", parse, "+r") == "ok"
        assert prompts == ["p", retried]
        prompts.clear()
        assert ask_twice(lambda p: prompts.append(p) or "x", "p", parse, "+r") is None
        assert prompts == ["p", retried]
        assert ask_twice(lambda p: "ok", "p", parse, "+r") == "ok"

    @pytest.mark.parametrize("kind, retry", [
        (PromptKind.ROUTER, PromptKind.ROUTER_RETRY),
        (PromptKind.RELATION, PromptKind.RELATION_RETRY),
        (PromptKind.JUDGE, PromptKind.JUDGE_RETRY)])
    def test_ask_twice_tags_the_re_ask_with_the_retry_kind(self, kind, retry):
        from flowsra.gateway import ask_twice

        sent = []

        def transport(request):
            sent.append(request)
            return provider_payload("garbled")

        gateway = ChatGateway(transport)
        ask = completion_backend(gateway, "m", max_tokens=64, kind=kind)
        assert ask_twice(ask, "p", lambda text: None, "+r") is None
        assert [request.kind for request in sent] == [kind, retry]
        assert gateway.requests == Counter({kind: 1, retry: 1})
