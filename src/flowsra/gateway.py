"""Provider-neutral chat-completion client.

Requests are content-addressed: the cache key hashes the full request, so a
warm cache replays a run byte-identically with zero network traffic. The
wire shape is the de-facto open chat-completions JSON contract; a scriptable
mock transport stands in for the network during tests and offline runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from email.utils import parsedate_to_datetime
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import requests


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str


@dataclass(frozen=True)
class ChatRequest:
    model: str
    messages: tuple[ChatMessage, ...]
    temperature: float = 0.0
    max_tokens: int = 256
    seed: int | None = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "messages", tuple(self.messages))
        if not self.messages:
            raise ValueError("a chat request needs at least one message")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")

    def rendered(self) -> str:
        """The prompt as one string, used for matching and fingerprints."""
        return "\n\n".join(f"[{m.role}]\n{m.content}" for m in self.messages)


@dataclass(frozen=True)
class Usage:
    prompt_tokens: int = 0
    completion_tokens: int = 0


@dataclass(frozen=True)
class ChatResponse:
    content: str
    usage: Usage = Usage()
    cached: bool = False


def cache_key(req: ChatRequest) -> str:
    """Stable hash of the request; independent of wall clock, host, and
    process (usable across restarts)."""
    payload = json.dumps(
        {
            "model": req.model,
            "messages": [[m.role, m.content] for m in req.messages],
            "temperature": req.temperature,
            "max_tokens": req.max_tokens,
            "seed": req.seed,
        },
        sort_keys=True,
        ensure_ascii=False,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TransportError(RuntimeError):
    """Transient failures exhausted, or no way to serve the request offline."""


class TransientError(RuntimeError):
    """Retryable provider failure (connection trouble, 5xx, 429).

    ``retry_after`` is the provider's requested wait in seconds, if it sent
    one."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class PermanentError(RuntimeError):
    """Non-retryable provider rejection (other 4xx)."""


class ProtocolError(RuntimeError):
    """Provider payload does not follow the chat-completions shape."""


class ScriptedMissError(RuntimeError):
    """A mock transport received a request its script does not cover."""


class CacheError(RuntimeError):
    """A response could not be written to the cache directory."""


def parse_provider_payload(payload: dict, cached: bool = False) -> ChatResponse:
    try:
        content = payload["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise ProtocolError(f"malformed provider payload: {exc!r}") from exc
    if not isinstance(content, str):
        raise ProtocolError("provider payload content is not text")
    usage_raw = payload.get("usage") or {}
    try:
        usage = Usage(
            prompt_tokens=int(usage_raw.get("prompt_tokens", 0) or 0),
            completion_tokens=int(usage_raw.get("completion_tokens", 0) or 0),
        )
    except (AttributeError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed provider usage: {exc!r}") from exc
    return ChatResponse(content=content, usage=usage, cached=cached)


def _retry_after_seconds(value: str | None) -> float | None:
    """A ``Retry-After`` header as seconds from now: delay-seconds or an
    HTTP date. None when absent or unreadable."""
    if not value:
        return None
    value = value.strip()
    if value.isdigit():
        return float(value)
    try:
        when = parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    if when.tzinfo is None:
        when = when.replace(tzinfo=timezone.utc)
    return max(0.0, (when - datetime.now(timezone.utc)).total_seconds())


class HttpTransport:
    """POSTs to an OpenAI-style chat-completions endpoint."""

    is_network = True

    def __init__(self, endpoint: str, api_key: str | None = None, timeout: float = 120.0):
        self.endpoint = endpoint
        self.api_key = api_key
        self.timeout = timeout

    def __call__(self, req: ChatRequest) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        body: dict = {
            "model": req.model,
            "messages": [{"role": m.role, "content": m.content} for m in req.messages],
            "temperature": req.temperature,
            "max_tokens": req.max_tokens,
        }
        if req.seed is not None:
            body["seed"] = req.seed
        try:
            resp = requests.post(self.endpoint, json=body, headers=headers,
                                 timeout=self.timeout)
        except requests.RequestException as exc:
            raise TransientError(str(exc)) from exc
        if resp.status_code in (429, 503):
            raise TransientError(
                f"HTTP {resp.status_code} from provider",
                _retry_after_seconds(resp.headers.get("Retry-After")))
        if resp.status_code >= 500:
            raise TransientError(f"HTTP {resp.status_code} from provider")
        if resp.status_code >= 400:
            raise PermanentError(f"HTTP {resp.status_code}: {resp.text[:500]}")
        try:
            return resp.json()
        except ValueError as exc:
            raise ProtocolError("provider response is not JSON") from exc


@dataclass(frozen=True)
class MockRule:
    """One script entry: how to match a request and what to answer.

    ``match`` is ``contains`` (substring of the rendered prompt), ``exact``
    (whole rendered prompt), or ``hash`` (sha256 hex of the rendered prompt).
    """

    match: str
    pattern: str
    response: str

    def applies(self, rendered: str) -> bool:
        if self.match == "contains":
            return self.pattern in rendered
        if self.match == "exact":
            return self.pattern == rendered
        if self.match == "hash":
            return hashlib.sha256(rendered.encode("utf-8")).hexdigest() == self.pattern
        raise ValueError(f"unknown mock matcher {self.match!r}")


class MockTransport:
    """Scripted backend: first matching rule wins, unmatched requests fail
    loudly so tests cannot drift silently."""

    is_network = False

    def __init__(self, rules: Sequence[MockRule]):
        self.rules = list(rules)
        self.calls: list[ChatRequest] = []
        self._lock = threading.Lock()

    def __call__(self, req: ChatRequest) -> dict:
        with self._lock:
            self.calls.append(req)
        rendered = req.rendered()
        for rule in self.rules:
            if rule.applies(rendered):
                return {
                    "choices": [{"message": {"role": "assistant", "content": rule.response}}],
                    "usage": {
                        "prompt_tokens": len(rendered.split()),
                        "completion_tokens": len(rule.response.split()),
                    },
                }
        raise ScriptedMissError(
            f"no scripted response matches request (prompt starts: {rendered[:120]!r})")


def mock_backend(script: Sequence[tuple[str, str] | MockRule]) -> MockTransport:
    """Build a mock transport from (substring, response) pairs or MockRules."""
    rules = [
        entry if isinstance(entry, MockRule) else MockRule("contains", entry[0], entry[1])
        for entry in script
    ]
    return MockTransport(rules)


def load_mock_script(path: str | Path) -> MockTransport:
    """Read a JSON script file: a list of {match, pattern, response} objects."""
    entries = json.loads(Path(path).read_text(encoding="utf-8"))
    rules = [MockRule(e.get("match", "contains"), e["pattern"], e["response"])
             for e in entries]
    return MockTransport(rules)


class _Flight:
    """One request for a cache key at the transport; identical requests
    wait for it."""

    def __init__(self) -> None:
        self.done = threading.Event()
        self.response: ChatResponse | None = None


class ChatGateway:
    """Caching, retrying, concurrency-bounded front of any chat transport.

    At most ``parallelism`` transport calls run at once; ``transport_calls``
    counts the calls made. With a cache directory, a request whose key is
    already at the transport waits for that call and gets its response as
    a cache hit (single-flight), so concurrent callers make exactly the
    transport calls that the same requests made one after another would.
    Without a cache, each of those would call the transport, and so does
    each concurrent copy.
    """

    def __init__(
        self,
        transport: Callable[[ChatRequest], dict] | None = None,
        *,
        cache_dir: str | Path | None = None,
        offline: bool = False,
        parallelism: int = 8,
        retries: int = 3,
        backoff: float = 0.25,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
    ):
        self.transport = transport
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.offline = offline
        self.parallelism = max(1, parallelism)
        self.retries = retries
        self.backoff = backoff
        self.transport_calls = 0
        self._sleep = sleep
        self._rng = rng or random.Random()
        self._semaphore = threading.BoundedSemaphore(self.parallelism)
        self._lock = threading.Lock()
        self._flights: dict[str, _Flight] = {}

    # -- cache ----------------------------------------------------------

    def _cache_path(self, key: str) -> Path | None:
        return self.cache_dir / f"{key}.json" if self.cache_dir else None

    def _cache_read(self, key: str) -> ChatResponse | None:
        """The cached response, or None on a miss. An entry that cannot be
        read, or is damaged (not JSON, or not a chat-completions payload),
        is a miss too: the transport's reply then overwrites it."""
        path = self._cache_path(key)
        if path is None:
            return None
        try:
            return parse_provider_payload(
                json.loads(path.read_text(encoding="utf-8")), cached=True)
        except (OSError, ValueError, ProtocolError):
            return None

    def _cache_write(self, key: str, payload: dict) -> None:
        path = self._cache_path(key)
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, ensure_ascii=False, sort_keys=True)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError as exc:
            raise CacheError(f"cannot write cache entry {path}: {exc}") from exc

    # -- completion -----------------------------------------------------

    def complete(self, req: ChatRequest) -> ChatResponse:
        """Serve from cache, otherwise call the transport with retries."""
        key = cache_key(req)
        cached = self._cache_read(key)
        if cached is not None:
            return cached
        if self.transport is None:
            raise TransportError(
                "request not in cache and no transport is configured"
                + (" (offline mode)" if self.offline else ""))
        if self.offline and getattr(self.transport, "is_network", False):
            raise TransportError("offline mode forbids network transports")
        if self.cache_dir is None:
            return self._fetch(key, req)
        while True:
            with self._lock:
                flight = self._flights.get(key)
                leading = flight is None
                if leading:
                    flight = self._flights[key] = _Flight()
            if not leading:
                flight.done.wait()
                if flight.response is not None:
                    return replace(flight.response, cached=True)
                continue  # that flight failed: try again, perhaps leading
            try:
                # a flight that landed after the read above has filled the cache
                flight.response = self._cache_read(key) or self._fetch(key, req)
                return flight.response
            finally:
                with self._lock:
                    del self._flights[key]
                flight.done.set()

    def _fetch(self, key: str, req: ChatRequest) -> ChatResponse:
        """Call the transport, retrying transient failures after the larger
        of the provider's ``Retry-After`` and a full-jitter backoff, so
        concurrent callers do not retry in lockstep; cache the reply."""
        attempt = 0
        while True:
            try:
                with self._semaphore:
                    with self._lock:
                        self.transport_calls += 1
                    payload = self.transport(req)
                break
            except TransientError as exc:
                attempt += 1
                if attempt >= self.retries:
                    raise TransportError(
                        f"gave up after {attempt} attempts: {exc}") from exc
                jitter = self._rng.uniform(0.0, self.backoff * (2 ** (attempt - 1)))
                self._sleep(max(exc.retry_after or 0.0, jitter))
        response = parse_provider_payload(payload)
        self._cache_write(key, payload)
        return response


T = TypeVar("T")
R = TypeVar("R")


def map_in_order(fn: Callable[[T], R], items: Iterable[T],
                 gateway: ChatGateway | None) -> Iterator[R]:
    """Yield ``fn(item)`` for each item, in input order.

    Items run one at a time in the caller's thread while the gateway serves
    them without its transport (cache hits, or no gateway at all): that work
    is CPU-bound, and handing it between threads would only add interpreter
    lock switches. From the first item that reached the transport on, items
    run on a pool of ``2 * gateway.parallelism`` workers: per transport
    slot, one at the transport and one preparing its next request. The
    gateway still runs at most ``parallelism`` transport calls at once.
    Items are drawn in the caller's thread and kept submitted up to
    ``8 * gateway.parallelism`` ahead of the item being yielded, so a freed
    worker takes the next item at once, even while the head item is slow.
    An exception from ``fn`` is raised at its item's turn: the items not yet
    started are cancelled, and those already running finish first.
    """
    items = iter(items)
    if gateway is None or gateway.parallelism < 2:
        yield from map(fn, items)
        return
    for item in items:
        calls = gateway.transport_calls
        result = fn(item)
        reached = gateway.transport_calls != calls
        yield result
        if reached:
            break
    else:
        return
    pool = ThreadPoolExecutor(max_workers=2 * gateway.parallelism)
    try:
        window = deque(pool.submit(fn, item)
                       for item in islice(items, 8 * gateway.parallelism))
        while window:
            head = window.popleft()
            window.extend(pool.submit(fn, item) for item in islice(items, 1))
            yield head.result()
    finally:
        pool.shutdown(cancel_futures=True)


def chat_request(model: str, prompt: str, *, max_tokens: int,
                 system: str | None = None) -> ChatRequest:
    """The request for one prompt: an optional system message, then the
    prompt as the user message."""
    messages = (ChatMessage("system", system),) if system else ()
    return ChatRequest(model=model, messages=messages + (ChatMessage("user", prompt),),
                       max_tokens=max_tokens)


def completion_backend(gateway: ChatGateway, model: str, *,
                       max_tokens: int = 256,
                       system: str | None = None) -> Callable[[str], str]:
    """Adapter: a plain prompt->text callable over the gateway, as expected
    by the router/judge/recognizer response parsers."""

    def call(prompt: str) -> str:
        return gateway.complete(
            chat_request(model, prompt, max_tokens=max_tokens, system=system)).content

    return call


_MARKUP = re.compile(r"[*_`#>]")


def last_tagged_line(text: str, pattern: re.Pattern) -> tuple[int, re.Match] | None:
    """The last line of ``text`` that ``pattern`` matches once markdown
    markup is stripped from it: its index in ``text.splitlines()`` and the
    match. None when no line matches."""
    lines = text.splitlines()
    for idx in range(len(lines) - 1, -1, -1):
        m = pattern.search(_MARKUP.sub("", lines[idx]))
        if m:
            return idx, m
    return None


def ask_twice(ask: Callable[[str], str], prompt: str,
              parse: Callable[[str], R | None], reminder: str) -> R | None:
    """``parse(ask(prompt))``; when that is None, ask once more with the
    format ``reminder`` appended. None when neither reply parses."""
    parsed = parse(ask(prompt))
    if parsed is None:
        parsed = parse(ask(prompt + reminder))
    return parsed
