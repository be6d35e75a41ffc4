"""Language-model abstraction with three implementations.

ScriptedModel answers from a rule table (exact test scenarios), NgramModel is
an order-3 add-one-smoothed model good enough to memorize a desk-scale corpus,
and RemoteModel adapts an HTTP endpoint. Constrained decoding needs the full
next-token distribution, so it only accepts local models; the remote adapter
serves the free-form reasoning steps.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import requests

from .corpus import END, SEP, Vocabulary
from .errors import (MissingEnd, NotSupported, RemoteTimeout,
                     RemoteUnavailable, UnknownToken)

FLOOR_LOGPROB = -1e9


@dataclass(frozen=True)
class GenerationRequest:
    prompt: str
    max_tokens: int = 256
    stop: tuple[str, ...] = ()
    temperature: float = 0.0

    def __post_init__(self):
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")


def _truncate(text: str, max_tokens: int, stop: tuple[str, ...]) -> str:
    for s in stop:
        idx = text.find(s)
        if idx >= 0:
            text = text[:idx]
    words = text.split()
    if len(words) > max_tokens:
        text = " ".join(words[:max_tokens])
    return text


class ScriptedModel:
    """Deterministic test double driven by a rule table.

    Generate rules: {"match": str, "match_type": exact|prefix|contains,
    "response": str}, first match wins. Distribution rules: {"context":
    [word, ...], "probs": {word: p, ...}}, matched when the context token
    words are a suffix of the running context ("<end>" names the END token);
    unlisted tokens sit at the floor log-probability. With no matching rule
    the distribution is uniform over the vocabulary minus SEP.
    """

    def __init__(self, vocab: Vocabulary,
                 generate_rules: list[dict] | None = None,
                 dist_rules: list[dict] | None = None):
        self.vocab = vocab
        self.generate_rules = generate_rules or []
        self.dist_rules = dist_rules or []

    @classmethod
    def from_file(cls, path, vocab: Vocabulary) -> "ScriptedModel":
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        if isinstance(obj, list):  # bare list of generate rules
            return cls(vocab, generate_rules=obj)
        return cls(vocab, generate_rules=obj.get("generate", []),
                   dist_rules=obj.get("distributions", []))

    def generate(self, req: GenerationRequest) -> str:
        for rule in self.generate_rules:
            match = rule["match"]
            mode = rule.get("match_type", "contains")
            hit = (req.prompt == match if mode == "exact"
                   else req.prompt.startswith(match) if mode == "prefix"
                   else match in req.prompt)
            if hit:
                return _truncate(rule["response"], req.max_tokens, req.stop)
        return ""

    def _rule_ids(self, words: list[str]) -> list[int]:
        ids = []
        for w in words:
            tid = END if w == "<end>" else SEP if w == "<sep>" else self.vocab.id_of(w)
            if tid is None:
                raise UnknownToken(-1)
            ids.append(tid)
        return ids

    def next_token_distribution(self, ctx: list[int]) -> dict[int, float]:
        v = len(self.vocab)
        for t in ctx:
            if not 0 <= t < v:
                raise UnknownToken(t)
        for rule in self.dist_rules:
            pattern = self._rule_ids(rule["context"])
            if pattern and list(ctx[-len(pattern):]) != pattern:
                continue
            dist = {t: FLOOR_LOGPROB for t in range(v)}
            for w, p in rule["probs"].items():
                tid = END if w == "<end>" else self.vocab.id_of(w)
                if tid is None:
                    raise UnknownToken(-1)
                dist[tid] = math.log(p)
            return dist
        p = 1.0 / (v - 1)  # uniform, SEP masked
        dist = {t: math.log(p) for t in range(v)}
        dist[SEP] = FLOOR_LOGPROB
        return dist


class NgramModel:
    """Order-n model with add-one smoothing, trained on prompt||target pairs."""

    def __init__(self, vocab: Vocabulary, order: int = 3):
        self.vocab = vocab
        self.order = order
        self.counts: dict[tuple[int, ...], dict[int, int]] = {}

    def train_pair(self, prompt: list[int], target: list[int]) -> None:
        """Count n-grams of prompt||target; target should end with END."""
        seq = list(prompt) + list(target)
        for i in range(len(seq)):
            ctx = tuple(seq[max(0, i - (self.order - 1)):i])
            bucket = self.counts.setdefault(ctx, {})
            bucket[seq[i]] = bucket.get(seq[i], 0) + 1

    def next_token_distribution(self, ctx: list[int]) -> dict[int, float]:
        v = len(self.vocab)
        for t in ctx:
            if not 0 <= t < v:
                raise UnknownToken(t)
        key = tuple(ctx[-(self.order - 1):])
        bucket = self.counts.get(key, {})
        total = sum(bucket.values()) + v
        return {t: math.log((bucket.get(t, 0) + 1) / total) for t in range(v)}

    def generate(self, req: GenerationRequest) -> str:
        ctx = self.vocab.encode(req.prompt, on_unknown="skip")
        out: list[int] = []
        for _ in range(req.max_tokens):
            dist = self.next_token_distribution(ctx + out)
            best = max(dist, key=lambda t: (dist[t], -t))
            if best == END:
                break
            out.append(best)
            text = self.vocab.decode(out)
            if any(s in text for s in req.stop):
                return _truncate(text, req.max_tokens, req.stop)
        return _truncate(self.vocab.decode(out), req.max_tokens, req.stop)


class RemoteModel:
    """HTTP adapter: POST {url}/generate, and {url}/logprobs when available."""

    def __init__(self, base_url: str | None = None, max_retries: int = 2,
                 timeout: float = 30.0, session=None):
        self.base_url = (base_url or os.environ.get("GENTRIEVAL_REMOTE_URL", "")
                         ).rstrip("/")
        if not self.base_url:
            raise RemoteUnavailable("no remote endpoint configured")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.max_retries = max_retries
        self.timeout = timeout
        self.session = session or requests.Session()

    def _post(self, route: str, payload: dict):
        last_exc: Exception | None = None
        for _ in range(self.max_retries + 1):
            try:
                resp = self.session.post(self.base_url + route, json=payload,
                                         timeout=self.timeout)
            except requests.Timeout as exc:
                last_exc = RemoteTimeout(str(exc))
                continue
            except requests.RequestException as exc:
                last_exc = RemoteUnavailable(str(exc))
                continue
            if resp.status_code in (404, 405):
                raise NotSupported(f"endpoint {route} not available")
            if resp.status_code >= 500:
                last_exc = RemoteUnavailable(f"HTTP {resp.status_code}")
                continue
            if resp.status_code >= 400:
                raise RemoteUnavailable(f"HTTP {resp.status_code}")
            try:
                return resp.json()
            except ValueError as exc:
                raise RemoteUnavailable(
                    f"{route} response is not JSON: {exc}") from exc
        raise last_exc

    def generate(self, req: GenerationRequest) -> str:
        obj = self._post("/generate", {
            "prompt": req.prompt, "max_tokens": req.max_tokens,
            "stop": list(req.stop), "temperature": req.temperature,
        })
        text = obj.get("text") if isinstance(obj, dict) else None
        if not isinstance(text, str):
            raise RemoteUnavailable("/generate response has no string "
                                    "'text' field")
        return text

    def next_token_distribution(self, ctx: list[int]) -> dict[int, float]:
        obj = self._post("/logprobs", {"context_ids": list(ctx)})
        return {int(k): float(v) for k, v in obj["logprobs"].items()}


def sequence_logprob(model, prompt: list[int], target: list[int]) -> float:
    """Sum of per-step log-probabilities of *target* given *prompt*.

    The target must terminate with END; the END factor is included.
    """
    if not target or target[-1] != END:
        raise MissingEnd("target must be nonempty and end with END")
    if not hasattr(model, "next_token_distribution"):
        raise NotSupported("model does not expose next-token distributions")
    total = 0.0
    ctx = list(prompt)
    for t in target:
        dist = model.next_token_distribution(ctx)
        total += dist.get(t, FLOOR_LOGPROB)
        ctx.append(t)
    return total
