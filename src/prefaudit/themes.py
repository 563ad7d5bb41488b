"""Client for external text-labeling endpoints with unanimous-agreement merging.

Each prompt is labeled independently by at least three endpoints using an
identical instruction; only labels every endpoint agrees on are kept, which
trades recall for precision. Transports are pluggable so the whole module
tests against mocks; nothing here requires a live network.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, Protocol, Sequence, get_args, get_origin

from .errors import AllEndpointsFailedError, DataFormatError, ProtocolError, TransportError
from .records import Dataset, ItemMetadata, from_row, frozen_row, read_text

PROMPT_TEMPLATE = """You are an expert researcher annotating prompts using a predefined harmfulness framework.

Prompt to Annotate:
"{prompt_text}"

Task:
Select ALL categories from the list below that are directly relevant to the prompt.
If no categories apply, return an empty list.

Available Categories:
{label_list}

Rules:
Select categories only if they are explicitly relevant to the prompt.
Do not infer intent beyond the prompt text.
Do not include weak or tangential categories.

Output:
Return ONLY valid JSON with exactly these keys:
{{
"labels": ["Category A", "Category B"]
}}"""


@frozen_row
class EndpointConfig:
    endpoint_id: str
    base_url: str
    auth_env_var: str = ""
    model_name: str = ""


@dataclass(frozen=True)
class LabelRequest:
    prompt_text: str
    label_list: tuple[str, ...]
    endpoint_id: str


@dataclass(frozen=True)
class LabelResponse:
    endpoint_id: str
    labels: frozenset[str]
    raw_payload: str


class Transport(Protocol):
    def send(self, endpoint: EndpointConfig, prompt: str) -> str:
        """Return the endpoint's raw text payload for the rendered prompt."""


def render_prompt(prompt_text: str, label_list: Sequence[str]) -> str:
    """Fill the labeling instruction template.

    Quote characters and backslashes in the prompt are escaped so the quoted
    block cannot break the template structure. The label list must be
    nonempty with unique entries.
    """
    if not prompt_text:
        raise ValueError("prompt_text must be nonempty")
    labels = list(label_list)
    if not labels:
        raise ValueError("label_list must be nonempty")
    if len(set(labels)) != len(labels):
        raise ValueError("label_list entries must be unique")
    escaped = prompt_text.replace("\\", "\\\\").replace('"', '\\"')
    rendered_labels = "\n".join(f"- {label}" for label in labels)
    return PROMPT_TEMPLATE.format(prompt_text=escaped, label_list=rendered_labels)


def parse_label_payload(raw: str, label_list: Sequence[str]) -> frozenset[str]:
    """Strictly parse a labeling payload.

    Valid payloads are a single JSON object with exactly one key, "labels",
    holding a list of strings drawn from the label list. Anything else is a
    protocol violation.
    """
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"payload is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or set(obj) != {"labels"}:
        raise ProtocolError('payload must be a JSON object with exactly the key "labels"')
    labels = obj["labels"]
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ProtocolError('"labels" must be a list of strings')
    allowed = set(label_list)
    unknown = [x for x in labels if x not in allowed]
    if unknown:
        raise ProtocolError(f"labels outside the allowed list: {unknown}")
    return frozenset(labels)


@dataclass
class EndpointOutcome:
    endpoint_id: str
    labels: Optional[frozenset[str]]  # None = failed after retries
    attempts: int
    request: Optional[LabelRequest] = None
    response: Optional[LabelResponse] = None
    warning: Optional[str] = None


def label_prompt(
    prompt_text: str,
    label_list: Sequence[str],
    endpoints: Sequence[EndpointConfig],
    transport: Transport,
    max_retries: int = 2,
    backoff: float = 0.5,
) -> frozenset[str]:
    """Unanimous-agreement labels for one prompt.

    Each endpoint is queried with the identical rendered instruction; the
    result is the intersection of the per-endpoint label sets. An endpoint
    still malformed after ``max_retries`` retries contributes the empty set
    (conservative: it can only shrink the intersection). If every endpoint
    fails, the call raises instead of fabricating an empty result.
    """
    labels, _ = label_prompt_detailed(prompt_text, label_list, endpoints, transport, max_retries, backoff)
    return labels


def label_prompt_detailed(
    prompt_text: str,
    label_list: Sequence[str],
    endpoints: Sequence[EndpointConfig],
    transport: Transport,
    max_retries: int = 2,
    backoff: float = 0.5,
) -> tuple[frozenset[str], list[EndpointOutcome]]:
    if len(endpoints) < 3:
        raise ValueError(f"unanimous labeling needs >= 3 endpoints, got {len(endpoints)}")
    rendered = render_prompt(prompt_text, label_list)
    outcomes: list[EndpointOutcome] = []
    for endpoint in endpoints:
        request = LabelRequest(prompt_text, tuple(label_list), endpoint.endpoint_id)
        outcome = EndpointOutcome(endpoint.endpoint_id, None, 0, request=request)
        last_error: Optional[Exception] = None
        for attempt in range(max_retries + 1):
            outcome.attempts = attempt + 1
            try:
                raw = transport.send(endpoint, rendered)
                outcome.labels = parse_label_payload(raw, label_list)
                outcome.response = LabelResponse(endpoint.endpoint_id, outcome.labels, raw)
                break
            except (TransportError, ProtocolError) as exc:
                last_error = exc
                if attempt < max_retries and backoff > 0:
                    time.sleep(backoff * (2 ** attempt))
        if outcome.labels is None:
            outcome.warning = f"endpoint {endpoint.endpoint_id} failed after {outcome.attempts} attempts: {last_error}"
        outcomes.append(outcome)
    if all(o.labels is None for o in outcomes):
        raise AllEndpointsFailedError(f"all {len(endpoints)} endpoints failed for prompt")
    merged: Optional[frozenset[str]] = None
    for outcome in outcomes:
        contributed = outcome.labels if outcome.labels is not None else frozenset()
        merged = contributed if merged is None else merged & contributed
    return merged or frozenset(), outcomes


class LabelCache:
    """Prompt-text -> labels cache backing idempotent corpus labeling."""

    def __init__(self, entries: Optional[dict[str, frozenset[str]]] = None, path: Optional[Path] = None):
        self.entries = dict(entries or {})
        self.path = Path(path) if path else None

    @classmethod
    def load(cls, path: str | Path) -> "LabelCache":
        path = Path(path)
        entries = {}
        if path.exists():
            obj = _read_json(path, dict[str, list[str]])
            entries = {prompt: frozenset(labels) for prompt, labels in obj.items()}
        return cls(entries, path)

    def save(self) -> None:
        if self.path is None:
            return
        obj = {prompt: sorted(labels) for prompt, labels in sorted(self.entries.items())}
        self.path.write_text(json.dumps(obj, indent=0, sort_keys=True), encoding="utf-8")

    def get(self, prompt: str) -> Optional[frozenset[str]]:
        return self.entries.get(prompt)

    def put(self, prompt: str, labels: frozenset[str]) -> None:
        self.entries[prompt] = frozenset(labels)


@dataclass
class CorpusLabelReport:
    """Outcome of labeling a corpus: metadata patch plus per-prompt status."""

    patch: dict[str, frozenset[str]]  # item_id -> labels
    prompt_status: dict[str, str]  # prompt_text -> "ok" | "cached" | "failed: ..."
    n_transport_prompts: int  # prompts that actually hit the transport
    warnings: list[str] = field(default_factory=list)

    @property
    def n_failed(self) -> int:
        return sum(1 for s in self.prompt_status.values() if s.startswith("failed"))


def label_corpus(
    dataset: Dataset,
    label_list: Sequence[str],
    endpoints: Sequence[EndpointConfig],
    transport: Transport,
    concurrency_limit: int = 4,
    cache: Optional[LabelCache] = None,
    max_retries: int = 2,
    backoff: float = 0.5,
) -> CorpusLabelReport:
    """Label every distinct prompt in the dataset and patch item metadata.

    Prompts already in the cache are skipped entirely (re-running over a
    warm cache performs zero transport calls). At most
    ``concurrency_limit`` prompts are labeled in flight at once, and the
    merge is deterministic regardless of completion order. Failures are
    collected per prompt, not raised, so a partial run is usable.
    """
    from concurrent.futures import ThreadPoolExecutor

    if concurrency_limit < 1:
        raise ValueError("concurrency_limit must be >= 1")
    prompts: dict[str, list[str]] = {}
    for item_id in dataset.item_ids:
        text = dataset.item_text(item_id, "prompt_text")
        prompts.setdefault(text, []).append(item_id)

    status: dict[str, str] = {}
    warnings: list[str] = []
    resolved: dict[str, frozenset[str]] = {}
    pending: list[str] = []
    for prompt in sorted(prompts):
        cached = cache.get(prompt) if cache is not None else None
        if cached is not None:
            resolved[prompt] = cached
            status[prompt] = "cached"
        else:
            pending.append(prompt)

    def work(prompt: str):
        try:
            return label_prompt_detailed(prompt, label_list, endpoints, transport, max_retries, backoff)
        except AllEndpointsFailedError as exc:
            return exc

    if pending:
        with ThreadPoolExecutor(max_workers=concurrency_limit) as pool:
            results = list(pool.map(work, pending))
        for prompt, outcome in zip(pending, results):
            if isinstance(outcome, AllEndpointsFailedError):
                status[prompt] = f"failed: {outcome}"
                continue
            labels, endpoint_outcomes = outcome
            resolved[prompt] = labels
            status[prompt] = "ok"
            warnings.extend(eo.warning for eo in endpoint_outcomes if eo.warning)
            if cache is not None:
                cache.put(prompt, labels)
    patch = {item_id: labels for prompt, labels in resolved.items() for item_id in prompts[prompt]}
    if cache is not None:
        cache.save()
    return CorpusLabelReport(patch, status, n_transport_prompts=len(pending), warnings=warnings)


def apply_theme_patch(dataset: Dataset, patch: dict[str, frozenset[str]]) -> Dataset:
    """New dataset whose item metadata carries the patched theme labels."""
    metadata = dict(dataset.metadata)
    for item_id, labels in patch.items():
        existing = metadata.get(item_id) or ItemMetadata(item_id=item_id)
        metadata[item_id] = replace(existing, theme_labels=labels)
    return replace(dataset, metadata=metadata)


class MockTransport:
    """Canned-response transport for tests and offline runs.

    ``responder`` is a callable (endpoint, rendered_prompt) -> raw payload.
    """

    def __init__(self, responder: Callable[[EndpointConfig, str], str]):
        self.responder = responder
        self.calls: list[tuple[str, str]] = []

    def send(self, endpoint: EndpointConfig, prompt: str) -> str:
        self.calls.append((endpoint.endpoint_id, prompt))
        return self.responder(endpoint, prompt)


class FixtureTransport(MockTransport):
    """Transport reading canned payloads from a JSON file.

    The fixture maps endpoint_id -> {prompt_text -> raw payload}; prompts
    are matched by containment in the rendered instruction.
    """

    def __init__(self, fixtures: dict[str, dict[str, str]]):
        def lookup(endpoint: EndpointConfig, prompt: str) -> str:
            for marker, payload in fixtures.get(endpoint.endpoint_id, {}).items():
                if marker in prompt:
                    return payload
            raise TransportError(f"no fixture for endpoint {endpoint.endpoint_id}")

        super().__init__(lookup)

    @classmethod
    def load(cls, path: str | Path) -> "FixtureTransport":
        return cls(_read_json(path, dict[str, dict[str, str]]))


class HttpTransport:
    """Minimal chat-completion HTTP transport (bearer auth from the environment)."""

    def __init__(self, timeout: float = 60.0):
        self.timeout = timeout

    def send(self, endpoint: EndpointConfig, prompt: str) -> str:
        import os
        import urllib.error
        import urllib.request

        token = os.environ.get(endpoint.auth_env_var, "")
        body = json.dumps(
            {
                "model": endpoint.model_name,
                "messages": [{"role": "user", "content": prompt}],
                "temperature": 0,
            }
        ).encode("utf-8")
        request = urllib.request.Request(
            endpoint.base_url,
            data=body,
            headers={
                "Content-Type": "application/json",
                "Authorization": f"Bearer {token}",
            },
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                payload = json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
            raise TransportError(f"endpoint {endpoint.endpoint_id}: {exc}") from exc
        try:
            return payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"endpoint {endpoint.endpoint_id}: unexpected response shape") from exc


def _has_shape(doc, shape) -> bool:
    """Whether a decoded JSON document is a ``shape``: a type, ``list[X]`` or ``dict[str, X]``."""
    origin = get_origin(shape)
    if origin is None:
        return isinstance(doc, shape)
    values = doc.values() if isinstance(doc, dict) else doc
    return isinstance(doc, origin) and all(_has_shape(v, get_args(shape)[-1]) for v in values)


def _read_json(path: str | Path, shape):
    """The JSON document in ``path``, which must be a ``shape``; a DataFormatError
    naming the file when it is not JSON or not that shape."""
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from None
    if not _has_shape(doc, shape):
        raise DataFormatError(f"{path}: expected JSON of shape {shape}")
    return doc


def load_endpoints(path: str | Path) -> list[EndpointConfig]:
    """Endpoint configuration file: a JSON list of endpoint objects."""
    rows = _read_json(path, list[dict])
    try:
        return [from_row(EndpointConfig, row) for row in rows]
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
