"""Provider-neutral chat-completion client.

Requests are content-addressed: the cache key hashes the full request, so a
warm cache replays a run byte-identically with zero network traffic. A
cache entry is one file, ``<cache_dir>/<key>.json``, holding the provider's
payload as UTF-8 JSON with sorted keys. A hit is one ``os.open`` of the
entry, one read of its descriptor and one decode, with no file object: a
read shorter than ``_READ_SIZE`` (4 KiB) is the whole entry, because a short
read of a regular file ends at its end. Only a read that fills the buffer
is followed by more, until one returns nothing. A write replaces the entry
atomically. The wire shape is the de-facto open chat-completions JSON
contract. A request varies only in its model, messages and ``max_tokens``;
``_wire_fields`` adds the fixed ``TEMPERATURE`` and ``SEED`` and writes all
five, for the cache key and for the HTTP body alike. The key's payload is the five fields as one JSON
encoder writes them (sorted keys, compact, non-ASCII verbatim); the fields
around the messages are encoded once per prompt head (below), and each
request escapes only its messages' strings, with that encoder's own string
function. Its bytes are those of encoding all five fields per request, as
earlier versions did, so their caches stay warm. A prompt's head, the text
before its per-request part (``ChatMessage.head``), is escaped and hashed
once: the hash state after it is kept and copied for each request that
shares it, so a chart's requests cost time linear in the chart's size, not
in its size times its edges. ``prompt_request`` builds every request from
the one table of prompt kinds, ``prompts.ANCHORS``. A scriptable mock
transport stands in for the network during tests and offline runs; a cache
miss with no transport is a ``TransportError``. The HTTP client
(``requests``) is loaded on the first request to an endpoint, so mock runs,
replays served from the cache, ``convert``, ``stats`` and a heuristic
``upgrade`` never load it.
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
from collections import Counter, deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar
from urllib.parse import urlsplit

from .prompts import ANCHORS, split_template

ATTEMPTS = 3       # transport calls per request, the first one included
BACKOFF_S = 0.25   # the full-jitter cap before the first retry; doubles per retry
TIMEOUT_S = 120.0  # seconds per HTTP call; a longer Retry-After ends the request
PARALLELISM = 8    # concurrent transport calls, unless a gateway is given another
TEMPERATURE = 0.0  # sent with every request: greedy decoding
SEED = 0           # sent with every request, for providers that sample anyway


@dataclass(frozen=True, slots=True)
class ChatMessage:
    """``head`` is a prefix of ``content`` that other requests share, which
    ``cache_key`` hashes once; like ``ChatRequest.kind``, it is not sent."""

    role: str
    content: str
    head: str = field(default="", compare=False, repr=False)

    def __post_init__(self) -> None:
        # cache_key escapes both as JSON strings
        if not (isinstance(self.role, str) and isinstance(self.content, str)):
            raise ValueError("a chat message's role and content must be strings, not "
                             f"{type(self.role).__name__} and {type(self.content).__name__}")
        if not (isinstance(self.head, str) and self.content.startswith(self.head)):
            raise ValueError("a chat message's head must be a prefix of its content")


class PromptKind(str, Enum):
    """What a request is for: counted, but neither sent nor in its cache key.
    A kind that is re-asked has a ``<value>_retry`` form, its re-ask's kind."""

    ROUTER = "router"
    ROUTER_RETRY = "router_retry"
    RELATION = "relation"
    RELATION_RETRY = "relation_retry"
    SHALLOW = "shallow"
    DEEP = "deep"
    JUDGE = "judge"
    JUDGE_RETRY = "judge_retry"


@dataclass(frozen=True)
class ChatRequest:
    model: str
    messages: tuple[ChatMessage, ...]
    max_tokens: int
    kind: PromptKind | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if type(self.messages) is not tuple:
            object.__setattr__(self, "messages", tuple(self.messages))
        if not self.messages:
            raise ValueError("a chat request needs at least one message")
        if isinstance(self.max_tokens, bool) or not isinstance(self.max_tokens, int):
            raise ValueError(f"max_tokens must be an int, not {self.max_tokens!r}")

    def rendered(self) -> str:
        """The prompt as one string, used for matching and fingerprints."""
        return _render(self.messages[:-1], self.messages[-1].role, self.messages[-1].content)


def _render(earlier: Sequence[ChatMessage], role: str, text: str) -> str:
    """``earlier``, then a ``role`` message reading ``text``: each message is
    ``[role]``, a line break and its content; a blank line parts them."""
    return "".join([f"[{m.role}]\n{m.content}\n\n" for m in earlier]) + f"[{role}]\n{text}"


@dataclass(frozen=True, slots=True)
class Usage:
    prompt_tokens: int = 0
    completion_tokens: int = 0


@dataclass(frozen=True, slots=True)
class ChatResponse:
    content: str
    usage: Usage = Usage()
    cached: bool = False


# one encoder for every key; json.dumps with these options builds one per call
_KEY_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"))
# the string escaper of _KEY_ENCODER, which ensure_ascii=False selects
_encode_str = json.encoder.encode_basestring
# decodes every cache entry; json.loads would add a type and a BOM check per call
_ENTRY_DECODER = json.JSONDecoder()
# the whitespace JSON allows around a value, which JSONDecoder.decode skips
_JSON_WHITESPACE = " \t\n\r"
# bytes asked of each read of an entry: most entries fit in one read
_READ_SIZE = 4096
# how an entry is opened; regular files ignore O_NONBLOCK
_ENTRY_OPEN_FLAGS = os.O_RDONLY | getattr(os, "O_NONBLOCK", 0)


def _wire_fields(model: str, max_tokens: int, messages: list) -> dict:
    """The five fields a request sends, in wire order; ``messages`` is the
    request's messages in the caller's encoding."""
    return {"model": model, "messages": messages, "temperature": TEMPERATURE,
            "max_tokens": max_tokens, "seed": SEED}


def _key_frame(model: str, max_tokens: int) -> tuple[str, str]:
    """The encoded key payload of a request around its messages: everything
    up to the ``[`` that opens them, and from the ``]`` that closes them."""
    # sorted keys put "messages" second, after max_tokens (an int); an
    # encoded model cannot hold the mark, since its quotes are escaped
    head, _, tail = _KEY_ENCODER.encode(
        _wire_fields(model, max_tokens, [])).partition('"messages":[]')
    return head + '"messages":[', "]" + tail


# a run has one head per chart and prompt kind, and one for the router and judge
@lru_cache(maxsize=128)
def _head_state(model: str, max_tokens: int, earlier: tuple[ChatMessage, ...],
                role: str, head: str):
    """The sha256 state after a request's key payload up to the head of its
    last message, the payload's text from the ``]`` that closes the
    messages (``_key_frame``), and the sha256 state after the rendered
    prompt up to that head, for ``prompt_fingerprint``. A string's escaping
    is its characters' escapings in turn, so the head's, less its closing
    quote, leads the content's."""
    frame_head, frame_tail = _key_frame(model, max_tokens)
    before = "".join([f"[{_encode_str(m.role)},{_encode_str(m.content)}]," for m in earlier])
    state = hashlib.sha256(f"{frame_head}{before}"
                           f"[{_encode_str(role)},{_encode_str(head)[:-1]}".encode("utf-8"))
    return state, frame_tail, hashlib.sha256(_render(earlier, role, head).encode("utf-8"))


def cache_key(req: ChatRequest) -> str:
    """Stable hash of the request; independent of wall clock, host, and
    process (usable across restarts).

    The hash is sha256 of the five wire fields as ``_KEY_ENCODER`` writes
    them, each message a ``[role, content]`` pair. All up to the last
    message's head is hashed once per head (``_head_state``), which also
    keeps the encoded fields after the messages (``_key_frame``); a request
    feeds a copy of that state only the rest of its content and those
    fields. Each request escapes only its messages' strings, with the
    function the encoder itself uses, so the bytes hashed are the encoder's
    own. A message without a head takes the same path, with an empty one."""
    last = req.messages[-1]
    head_state, frame_tail, _ = _head_state(req.model, req.max_tokens, req.messages[:-1],
                                            last.role, last.head)
    state = head_state.copy()
    rest = _encode_str(last.content[len(last.head):])[1:]
    state.update(f"{rest}]{frame_tail}".encode("utf-8"))
    return state.hexdigest()


def prompt_fingerprint(request: ChatRequest) -> str:
    """sha256 hex of ``request.rendered()``, hashing each head once (``_head_state``)."""
    last = request.messages[-1]
    state = _head_state(request.model, request.max_tokens, request.messages[:-1],
                        last.role, last.head)[2].copy()
    state.update(last.content[len(last.head):].encode("utf-8"))
    return state.hexdigest()


class TransportError(RuntimeError):
    """Transient failures exhausted, or a cache miss with no transport."""


class TransientError(RuntimeError):
    """Retryable provider failure (connection trouble, 5xx, 429, 408).

    ``retry_after`` is the provider's requested wait in seconds, if it sent
    one."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class PermanentError(RuntimeError):
    """Non-retryable provider rejection (4xx other than 401, 408, 429)."""


class ProtocolError(RuntimeError):
    """Provider payload does not follow the chat-completions shape."""


class ScriptedMissError(RuntimeError):
    """A mock transport received a request its script does not cover."""


class SetupError(RuntimeError):
    """A fault of the run's setup, which every request would meet alike: it
    ends the run rather than fail one request or instance."""


class CacheError(SetupError):
    """A response could not be written to the cache directory."""


class CredentialError(SetupError):
    """The provider refused the credentials (HTTP 401), as it would every
    request of the run."""


class EndpointError(SetupError):
    """``requests`` cannot prepare a request to the endpoint (an invalid
    URL, say), so no request to it can be sent."""


def parse_provider_payload(payload: dict, cached: bool = False) -> ChatResponse:
    try:
        content = payload["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise ProtocolError(f"malformed provider payload: {exc!r}") from exc
    if not isinstance(content, str):
        raise ProtocolError("provider payload content is not text")
    usage_raw = payload.get("usage") or {}
    if type(usage_raw) is dict:
        # the shape every transport and cache entry sends: two int counts,
        # which the conversions below would return as they are
        prompt_tokens = usage_raw.get("prompt_tokens")
        completion_tokens = usage_raw.get("completion_tokens")
        if type(prompt_tokens) is int and type(completion_tokens) is int:
            return ChatResponse(content, Usage(prompt_tokens, completion_tokens), cached)
    try:
        usage = Usage(
            prompt_tokens=int(usage_raw.get("prompt_tokens", 0) or 0),
            completion_tokens=int(usage_raw.get("completion_tokens", 0) or 0),
        )
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        # OverflowError: a count of Infinity, which JSON decoding accepts
        raise ProtocolError(f"malformed provider usage: {exc!r}") from exc
    return ChatResponse(content=content, usage=usage, cached=cached)


def _retry_after_seconds(value: str | None) -> float | None:
    """A ``Retry-After`` header as seconds from now: delay-seconds or an
    HTTP date. None when absent or unreadable."""
    if not value:
        return None
    value = value.strip()
    if value.isascii() and value.isdigit():  # "²" is a digit float() rejects
        return float(value)
    from datetime import datetime, timezone
    from email.utils import parsedate_to_datetime

    try:
        when = parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    if when.tzinfo is None:
        when = when.replace(tzinfo=timezone.utc)
    return max(0.0, (when - datetime.now(timezone.utc)).total_seconds())


class HttpTransport:
    """POSTs to an OpenAI-style chat-completions endpoint.

    ``requests`` is imported on the first call, not when the transport is
    built, so a run whose requests all hit the cache never loads it. An
    endpoint that is not an http or https URL with a host, or an API key
    that an HTTP header cannot carry, is a ``ValueError`` here, before any
    call. A request that ``requests`` cannot prepare is an ``EndpointError``,
    and an HTTP 401 a ``CredentialError``; neither is retried. A
    ``Retry-After`` longer than ``TIMEOUT_S`` ends the request with a
    ``TransportError`` instead of a wait."""

    def __init__(self, endpoint: str, api_key: str | None = None):
        try:
            parts = urlsplit(endpoint)
            parts.port  # ValueError unless the port, if any, is a number in range
        except ValueError as exc:
            raise ValueError(f"endpoint {endpoint!r}: {exc}") from None
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"endpoint {endpoint!r} is not an http or https URL with a host")
        if api_key and re.search(r"[\r\n]|[^\x00-\xff]", api_key):
            raise ValueError("API key holds a line break or a character outside latin-1, "
                             "which an HTTP header cannot carry")
        self.endpoint = endpoint
        self.api_key = api_key

    def __call__(self, req: ChatRequest) -> dict:
        import requests

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        body = _wire_fields(req.model, req.max_tokens,
                            [{"role": m.role, "content": m.content} for m in req.messages])
        try:
            resp = requests.post(self.endpoint, json=body, headers=headers, timeout=TIMEOUT_S)
        except ValueError as exc:  # raised only while preparing, before any connection
            raise EndpointError(f"endpoint {self.endpoint!r}: {exc}") from exc
        except requests.RequestException as exc:
            raise TransientError(str(exc)) from exc
        if resp.status_code in (429, 503):
            wait = _retry_after_seconds(resp.headers.get("Retry-After"))
            if wait is not None and wait > TIMEOUT_S:
                raise TransportError(
                    f"provider asked to wait {wait:.0f} s, longer than the "
                    f"{TIMEOUT_S:g} s request timeout (HTTP {resp.status_code})")
            raise TransientError(f"HTTP {resp.status_code} from provider", wait)
        if resp.status_code >= 500 or resp.status_code == 408:
            raise TransientError(f"HTTP {resp.status_code} from provider")
        if resp.status_code == 401:
            raise CredentialError(f"HTTP 401: {resp.text[:500]}")
        if resp.status_code >= 400:
            raise PermanentError(f"HTTP {resp.status_code}: {resp.text[:500]}")
        try:
            return resp.json()
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise ProtocolError("provider response is not JSON") from exc


_SHA256_HEX = re.compile("[0-9a-fA-F]{64}")


@dataclass(frozen=True)
class MockRule:
    """One script entry: how to match a request and what to answer.

    ``match`` is ``contains`` (substring of the rendered prompt), ``exact``
    (whole rendered prompt), or ``hash`` (sha256 hex of the rendered prompt,
    in either case; kept in lowercase).
    """

    match: str
    pattern: str
    response: str

    def __post_init__(self) -> None:
        if self.match not in ("contains", "exact", "hash"):
            raise ValueError(f"unknown mock matcher {self.match!r}")
        if self.match == "hash":
            if not _SHA256_HEX.fullmatch(self.pattern):
                raise ValueError("a hash pattern must be 64 hex digits, "
                                 "the sha256 of the rendered prompt")
            object.__setattr__(self, "pattern", self.pattern.lower())

    def applies(self, rendered: str) -> bool:
        if self.match == "contains":
            return self.pattern in rendered
        if self.match == "exact":
            return self.pattern == rendered
        return hashlib.sha256(rendered.encode("utf-8")).hexdigest() == self.pattern


class MockTransport:
    """Scripted backend: first matching rule wins, unmatched requests fail
    loudly so tests cannot drift silently. It keeps no request it served."""

    def __init__(self, rules: Sequence[MockRule]):
        self.rules = list(rules)

    def __call__(self, req: ChatRequest) -> dict:
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


def load_mock_script(path: str | Path) -> MockTransport:
    """Read a JSON script file: a list of {match, pattern, response} objects,
    ``match`` defaulting to ``contains``. Raises ValueError, naming the file,
    for one that is not UTF-8 JSON, or the entry that is not such an object."""
    try:
        entries = json.loads(Path(path).read_text(encoding="utf-8").removeprefix("\ufeff"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"mock script {path}: {exc}") from None
    except RecursionError:
        raise ValueError(f"mock script {path}: JSON nested too deeply") from None
    if not isinstance(entries, list):
        raise ValueError(f"mock script {path} is not a JSON list")
    rules = []
    for index, entry in enumerate(entries):
        if not (isinstance(entry, dict) and isinstance(entry.get("pattern"), str)
                and isinstance(entry.get("response"), str)):
            raise ValueError(f"mock script {path}, entry {index}: not an object "
                             "with a string pattern and a string response")
        try:
            rules.append(MockRule(entry.get("match", "contains"), entry["pattern"],
                                  entry["response"]))
        except ValueError as exc:
            raise ValueError(f"mock script {path}, entry {index}: {exc}") from None
    return MockTransport(rules)


class ChatGateway:
    """Caching, retrying, concurrency-bounded front of any chat transport.

    Transport calls run on a ``ThreadPoolExecutor`` of ``parallelism``
    threads (at least 1, or ValueError): a requester submits its request
    and waits for the reply, and an idle thread takes the next queued call
    at once. ``requests`` counts the requests made of ``complete`` per
    ``PromptKind``, cache hits and failures included; ``cache_hits`` counts
    those of them served from the cache or by a single-flight peer (below),
    per kind; and ``transport_calls`` counts the transport calls submitted.
    The gateway is a reentrant context manager: a scope's executor is made
    on its first transport call and shut down, its threads joined, when its
    last user leaves, so no thread outlives the scope and a run served from
    the cache starts none. A request outside any scope holds one for its own
    attempts. Retries, their backoff sleeps and cache writes stay in the
    requester's thread.

    With a cache directory, a request whose key is already at the transport
    waits for that call and gets its response as a cache hit (single-flight),
    so concurrent callers make exactly the transport calls that the same
    requests made one after another would. Without a cache, each of those
    would call the transport, and so does each concurrent copy.
    """

    def __init__(
        self,
        transport: Callable[[ChatRequest], dict] | None = None,
        *,
        cache_dir: str | Path | None = None,
        parallelism: int = PARALLELISM,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
    ):
        self.transport = transport
        self.cache_dir = Path(cache_dir) if cache_dir else None
        # prefix of every entry's path: the directory and a separator
        self._cache_prefix = os.path.join(self.cache_dir, "") if self.cache_dir else None
        if parallelism < 1:
            raise ValueError(f"parallelism must be at least 1, not {parallelism}")
        self.parallelism = parallelism
        self.requests: Counter[PromptKind | None] = Counter()
        self.cache_hits: Counter[PromptKind | None] = Counter()
        self.transport_calls = 0
        self._sleep = sleep
        self._rng = rng or random.Random()
        self._lock = threading.Lock()
        # per cache key at the transport: its response, None if it failed
        self._flights: dict[str, Future[ChatResponse | None]] = {}
        # the scope's users and its transport executor, None until the
        # scope's first transport call
        self._users = 0
        self._executor: ThreadPoolExecutor | None = None

    # -- transport scope ------------------------------------------------

    def __enter__(self) -> ChatGateway:
        with self._lock:
            self._users += 1
        return self

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._users -= 1
            if self._users or self._executor is None:
                return
            executor, self._executor = self._executor, None
        executor.shutdown()

    def _call(self, req: ChatRequest) -> dict:
        """The transport's payload for ``req``, from a thread of the current
        scope's executor; whatever the transport raised is raised here."""
        with self._lock:
            self.transport_calls += 1
            if self._executor is None:
                self._executor = ThreadPoolExecutor(self.parallelism,
                                                    thread_name_prefix="flowsra-transport")
            executor = self._executor
        return executor.submit(self.transport, req).result()

    # -- cache ----------------------------------------------------------

    def _cache_read(self, key: str) -> ChatResponse | None:
        """The cached response, or None on a miss. An entry that cannot be
        read (a directory or a named pipe at its path, say) is a miss too,
        and so is a damaged one (not UTF-8 JSON, nested too deeply to
        decode, or not a chat-completions payload), which the transport's
        reply overwrites."""
        if self._cache_prefix is None:
            return None
        try:
            # a directory at the entry's path opens, and its first read
            # fails; a named pipe opens without waiting for a writer, and
            # reads empty
            fd = os.open(f"{self._cache_prefix}{key}.json", _ENTRY_OPEN_FLAGS)
            try:
                data = os.read(fd, _READ_SIZE)
                if len(data) == _READ_SIZE:  # a shorter read ended at the end of the file
                    chunks = [data]
                    while chunks[-1]:
                        chunks.append(os.read(fd, _READ_SIZE))
                    data = b"".join(chunks)
            finally:
                os.close(fd)
            # JSONDecoder.decode's reading, without its two regex scans
            text = data.decode("utf-8").strip(_JSON_WHITESPACE)
            payload, end = _ENTRY_DECODER.raw_decode(text)
            if end != len(text):
                raise ValueError("data after the JSON value")
            return parse_provider_payload(payload, cached=True)
        except (OSError, ValueError, RecursionError, ProtocolError):
            return None

    def _cache_write(self, key: str, payload: dict) -> None:
        """Write ``payload`` as the entry for ``key``: to a temporary file
        in the cache directory, then renamed over the entry, so a reader
        sees the old entry or the new one, never a part."""
        if self._cache_prefix is None:
            return
        path = f"{self._cache_prefix}{key}.json"
        text = json.dumps(payload, ensure_ascii=False, sort_keys=True)
        data = text.encode("utf-8", "backslashreplace")  # a lone surrogate: its JSON escape
        try:
            try:
                fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
            except FileNotFoundError:
                self.cache_dir.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError as exc:
            raise CacheError(f"cannot write cache entry {path}: {exc}") from exc

    # -- completion -----------------------------------------------------

    def complete(self, req: ChatRequest) -> ChatResponse:
        """Serve from cache, otherwise call the transport with retries."""
        with self._lock:
            self.requests[req.kind] += 1
        key = cache_key(req)
        cached = self._cache_read(key)
        if cached is not None:
            return self._hit(req.kind, cached)
        if self.transport is None:
            raise TransportError("request not in cache and no transport is configured")
        if self.cache_dir is None:
            return self._fetch(key, req)
        while True:
            mine: Future[ChatResponse | None] = Future()
            with self._lock:
                flight = self._flights.setdefault(key, mine)
            if flight is not mine:
                response = flight.result()
                if response is not None:
                    return self._hit(req.kind, replace(response, cached=True))
                continue  # that flight failed: try again, perhaps leading
            response = None
            try:
                # a flight that landed after the read above has filled the cache
                response = self._cache_read(key)
                if response is None:
                    response = self._fetch(key, req)
                else:
                    self._hit(req.kind, response)
                return response
            finally:
                with self._lock:
                    del self._flights[key]
                mine.set_result(response)

    def _hit(self, kind: PromptKind | None, response: ChatResponse) -> ChatResponse:
        """Count ``response``, served without the transport, as a hit."""
        with self._lock:
            self.cache_hits[kind] += 1
        return response

    def _fetch(self, key: str, req: ChatRequest) -> ChatResponse:
        """Call the transport, retrying transient failures after the larger
        of the provider's ``Retry-After`` and a full-jitter backoff, so
        concurrent callers do not retry in lockstep; cache the reply."""
        attempt = 0
        with self:
            while True:
                try:
                    payload = self._call(req)
                    break
                except TransientError as exc:
                    attempt += 1
                    if attempt >= ATTEMPTS:
                        raise TransportError(
                            f"gave up after {attempt} attempts: {exc}") from exc
                    jitter = self._rng.uniform(0.0, BACKOFF_S * (2 ** (attempt - 1)))
                    wait = max(exc.retry_after or 0.0, jitter)
                    try:
                        self._sleep(wait)
                    except (OverflowError, OSError) as err:  # longer than the host can sleep
                        raise TransportError(
                            f"provider asked to wait {wait:.0f} s, longer than this host "
                            f"can sleep: {err}") from exc
        response = parse_provider_payload(payload)
        self._cache_write(key, payload)
        return response


T = TypeVar("T")
R = TypeVar("R")


def map_in_order(fn: Callable[[T], R], items: Iterable[T],
                 gateway: ChatGateway) -> Iterator[R]:
    """Yield ``fn(item)`` for each item, in input order.

    The whole map is one of the gateway's scopes, so its items share one
    transport executor (nested maps, such as an upgrade's edges inside an
    eval, share the outer map's).
    Items run one at a time in the caller's thread while the gateway serves
    them without its transport (cache hits): that work is CPU-bound, and
    handing it between threads would only add interpreter lock switches.
    From the first item that reached the transport on, items run on a pool
    of ``2 * gateway.parallelism`` workers: per transport slot, one waiting
    on the transport and one preparing its next request. The gateway's
    executor of ``parallelism`` threads still runs at most that many
    transport calls at once.
    Items are drawn in the caller's thread and kept submitted up to
    ``8 * gateway.parallelism`` ahead of the item being yielded, so a freed
    worker takes the next item at once, even while the head item is slow.
    An exception from ``fn`` is raised at its item's turn: the items not yet
    started are cancelled, and those already running finish first.
    """
    with gateway:
        items = iter(items)
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


def prompt_head(kind: PromptKind, **values: str) -> str:
    """``kind``'s template head formatted with ``values``, for a caller that
    memoizes one per chart."""
    return split_template(kind.value)[0].format(**values)


def prompt_request(model: str, kind: PromptKind, head: str | None = None,
                   **values: str) -> ChatRequest:
    """A request of ``kind``, with the system message and reply budget of its
    row of ``prompts.ANCHORS``: its template is the user message, ``head``
    (by default the template's own) and the rest formatted with ``values``."""
    template_head, rest = split_template(kind.value)
    head = template_head if head is None else head
    _, max_tokens, system = ANCHORS[kind.value]
    user = ChatMessage("user", head + rest.format(**values), head)
    return ChatRequest(model, (ChatMessage("system", system), user) if system else (user,),
                       max_tokens, kind)


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


def ask_twice(gateway: ChatGateway, request: ChatRequest, parse: Callable[[str], R | None],
              instruction: str) -> R | None:
    """``parse`` of the reply to ``request``. When that is None, ask once
    more under its kind's retry form, appending to the last message that the
    reply was unreadable and "Answer again " with the format ``instruction``;
    all else, the head (see ``ChatMessage``) too, stays. None when neither
    reply parses: the stage gave up after the re-ask. Every stage that
    parses a tagged line from the model's reply asks here."""
    parsed = parse(gateway.complete(request).content)
    if parsed is None:
        last = request.messages[-1]
        again = ChatMessage(last.role, f"{last.content}\n\nYour previous answer could not be "
                            f"parsed. Answer again {instruction}", last.head)
        retry = replace(request, messages=request.messages[:-1] + (again,),
                        kind=PromptKind(f"{request.kind.value}_retry"))
        parsed = parse(gateway.complete(retry).content)
    return parsed
