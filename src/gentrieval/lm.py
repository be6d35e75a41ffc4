"""Language-model abstraction with three implementations.

ScriptedModel answers from a rule table (exact test scenarios), NgramModel is
an order-3 add-one-smoothed model trained on prompt||docid pairs, and
RemoteModel adapts an HTTP text-generation endpoint for the free-form
reasoning steps; it cannot score tokens. It is the only user of `requests`
and imports it where it is used, so local runs never load the HTTP and TLS
stacks.

A scoring model is read like a docid automaton: start(prompt_ids) returns a
state, step(state, token) the state after one more token, and
next_token_distribution(state) the next-token distribution the state reads.
A state is the tuple of trailing context tokens the distribution depends on
(at most order - 1 for NgramModel, the longest rule context for
ScriptedModel), so no call's cost grows with the prompt. start checks every
prompt id and step each token, so a state holds only known ids.

Scoring is sparse: next_token_distribution(state) returns the whole
next-token distribution as (default, overrides), where overrides maps token
-> log-probability and every other token scores default. Under add-one
smoothing every token unseen in a context shares one score, so the pair is
small, and constrained decoding can skip the default-scored tokens that
cannot survive the beam's width. NgramModel.train counts a batch of pairs
in one pass: the positions every sequence shares from its start (the fixed
retrieval template) are counted once, weighted by the number of pairs. It
then makes the pair of each context the batch counted, so a distribution
call is one table lookup.

A scoring model reads its vocabulary once, when it is built: NgramModel
takes the vocabulary size then, and ScriptedModel resolves its rule words to
ids then, so an unknown rule word fails at load. The vocabulary must not
grow under a built model; an id added afterwards raises UnknownToken. Both
models hand out shared distributions, which callers must not change.
"""

from __future__ import annotations

import math
import time
from collections import Counter

from .corpus import END, SEP, Vocabulary, read_json
from .errors import (ConfigError, MissingEnd, NotSupported, RemoteTimeout,
                     RemoteUnavailable, UnknownToken)

FLOOR_LOGPROB = -1e9

# How a ScriptedModel generate rule's "match" is compared with the prompt.
MATCH_TYPES = ("exact", "prefix", "contains")

# RemoteModel sleeps between attempts: the base delay, doubled after each
# failed retry, never more than the cap.
RETRY_BASE_DELAY_S = 0.25
RETRY_MAX_DELAY_S = 4.0


def _generate_error(rule: dict) -> str | None:
    """What is wrong with a generate rule, or None."""
    if not isinstance(rule.get("match"), str):
        return "'match' must be a string"
    if not isinstance(rule.get("response"), str):
        return "'response' must be a string"
    if rule.get("match_type", "contains") not in MATCH_TYPES:
        return f"'match_type' must be one of {', '.join(MATCH_TYPES)}"
    return None


def _dist_error(rule: dict) -> str | None:
    """What is wrong with a distribution rule, or None."""
    context, probs = rule.get("context"), rule.get("probs")
    if not (isinstance(context, list)
            and all(isinstance(w, str) for w in context)):
        return "'context' must be a list of strings"
    if not (isinstance(probs, dict) and all(
            isinstance(p, (int, float)) and not isinstance(p, bool)
            and 0 < p <= 1 for p in probs.values())):
        return "'probs' must map words to numbers in (0, 1]"
    return None


def _interior_tokens(match: str) -> list[str]:
    """The split() tokens of *match* with whitespace on both sides inside
    it: a prompt that holds *match* anywhere holds each of them as one of
    its own split() tokens. The first and last tokens may be partial words
    unless *match* starts or ends with whitespace."""
    toks = match.split()
    if toks and not match[0].isspace():
        toks = toks[1:]
    if toks and not match[-1].isspace():
        toks = toks[:-1]
    return toks


class _TrailingTokens:
    """start and step for a scoring model over *v* token ids whose
    distribution reads at most the last *keep* tokens of a context: a state
    is the tuple of those tokens. Either call raises UnknownToken for an id
    outside range(v); start names the prompt's first such id."""

    def __init__(self, v: int, keep: int):
        self._v = v
        self._tail = slice(-keep, None) if keep else slice(0)

    def start(self, prompt_ids) -> tuple[int, ...]:
        v = self._v
        if prompt_ids and not (0 <= min(prompt_ids)
                               and max(prompt_ids) < v):
            raise UnknownToken(next(t for t in prompt_ids
                                    if not 0 <= t < v))
        return tuple(prompt_ids[self._tail])

    def step(self, state: tuple[int, ...], token: int) -> tuple[int, ...]:
        if not 0 <= token < self._v:
            raise UnknownToken(token)
        return (state + (token,))[self._tail]


class ScriptedModel(_TrailingTokens):
    """Deterministic test double driven by a rule table.

    Generate rules: {"match": str, "match_type": exact|prefix|contains,
    "response": str}, first match wins. A generate call tries only the
    rules that can match: each rule is filed under the rarest of its
    interior tokens (split() tokens with whitespace on both sides inside
    the match), which every prompt holding the match under any mode has
    among its own split() tokens. Rules with no interior token are tried
    on every call. A call finds its anchors by one intersection of the
    anchor set with the prompt's split() tokens, and tries the candidates
    in table order, so the first match still wins. The index is built from
    the table at construction.

    Distribution rules: {"context": [word, ...], "probs": {word: p, ...}},
    matched when the context token words are a suffix of the running
    context ("<end>" names the END token); unlisted tokens sit at the
    floor log-probability. With no matching rule the distribution is
    uniform over the vocabulary minus SEP. A rule reads no more trailing
    tokens than its context holds, so a state is the last tokens of the
    context, as many as the longest rule context.
    Rule words are resolved to ids at construction, and one that is not in
    the vocabulary raises ConfigError.
    """

    def __init__(self, vocab: Vocabulary,
                 generate_rules: list[dict] | None = None,
                 dist_rules: list[dict] | None = None):
        self.vocab = vocab
        self.generate_rules = generate_rules or []

        def tid(word: str, rule: int) -> int:
            t = vocab.id_of(word)
            if t is None:
                raise ConfigError(f"distributions rule {rule}: {word!r} is "
                                  "not in the vocabulary")
            return t

        # Per distribution rule: its context ids and its distribution.
        self._dists = [
            (tuple(tid(w, i) for w in r["context"]),
             (FLOOR_LOGPROB, {tid(w, i): math.log(p)
                              for w, p in r["probs"].items()}))
            for i, r in enumerate(dist_rules or [])]
        super().__init__(len(vocab),
                         max((len(c) for c, _ in self._dists), default=0))
        # Uniform over the vocabulary with SEP masked.
        self._uniform = math.log(1.0 / (self._v - 1)), {SEP: FLOOR_LOGPROB}
        interiors = [_interior_tokens(r["match"]) for r in self.generate_rules]
        df = Counter(tok for toks in interiors for tok in set(toks))
        # Rule ids per anchor token, and the ids tried on every call.
        self._by_token: dict[str, list[int]] = {}
        self._always: list[int] = []
        for i, toks in enumerate(interiors):
            if toks:
                self._by_token.setdefault(min(toks, key=df.__getitem__),
                                          []).append(i)
            else:
                self._always.append(i)
        self._anchors = frozenset(self._by_token)

    @classmethod
    def from_file(cls, path, vocab: Vocabulary) -> "ScriptedModel":
        """Rules from a JSON file: a bare list of generate rules, or an
        object with "generate" and "distributions" lists. Raises ConfigError
        for a file that is not JSON, for a rule of the wrong shape and for a
        rule word outside *vocab*."""
        obj = read_json(path)
        if isinstance(obj, list):  # bare list of generate rules
            obj = {"generate": obj}
        if not isinstance(obj, dict):
            raise ConfigError(f"{path}: expected a list or an object")
        generate = obj.get("generate", [])
        dists = obj.get("distributions", [])
        for section, rules, check in (("generate", generate, _generate_error),
                                      ("distributions", dists, _dist_error)):
            if not isinstance(rules, list):
                raise ConfigError(f"{path}: {section!r} must be a list")
            for i, rule in enumerate(rules):
                problem = (check(rule) if isinstance(rule, dict)
                           else "not an object")
                if problem:
                    raise ConfigError(f"{path}: {section} rule {i}: {problem}")
        try:
            return cls(vocab, generate_rules=generate, dist_rules=dists)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None

    def generate(self, prompt: str, max_tokens: int) -> str:
        by_token = self._by_token
        ids = list(self._always)
        for tok in self._anchors.intersection(prompt.split()):
            ids += by_token[tok]
        ids.sort()
        for i in ids:
            rule = self.generate_rules[i]
            match = rule["match"]
            mode = rule.get("match_type", "contains")
            hit = (prompt == match if mode == "exact"
                   else prompt.startswith(match) if mode == "prefix"
                   else match in prompt)
            if hit:
                words = rule["response"].split()
                return (" ".join(words[:max_tokens])
                        if len(words) > max_tokens else rule["response"])
        return ""

    def next_token_distribution(self, state: tuple[int, ...]
                                ) -> tuple[float, dict[int, float]]:
        for pattern, dist in self._dists:
            if not pattern or state[-len(pattern):] == pattern:
                return dist
        return self._uniform


class NgramModel(_TrailingTokens):
    """Order-n model with add-one smoothing, trained on prompt||target pairs.

    The vocabulary size is read once, at construction. A state is the last
    order - 1 tokens of the context, which is the whole of what a
    distribution reads, and is the key of self.counts. train makes the
    distribution of every context it counts, so the table of distributions
    has exactly the keys of self.counts, and every untrained context gets
    one prebuilt uniform pair. Callers share the returned overrides dicts
    and must not change them.
    """

    def __init__(self, vocab: Vocabulary, order: int = 3):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        self.vocab = vocab
        self.order = order
        self.counts: dict[tuple[int, ...], dict[int, int]] = {}
        self._dists: dict[tuple[int, ...],
                          tuple[float, dict[int, float]]] = {}
        super().__init__(len(vocab), order - 1)
        self._unseen = math.log(1 / self._v), {}

    def train(self, pairs: list[tuple[list[int], list[int]]]) -> None:
        """Count the n-grams of prompt||target for each pair in *pairs*; each
        target should end with END. A position that every sequence shares
        from its start has the same context and token in each, so it is
        counted once, len(pairs) times over; the first sequence counts it,
        and the others start after it. Then each context the batch counted
        gets its distribution anew; the others' counts did not change."""
        seqs = [list(prompt) + list(target) for prompt, target in pairs]
        if not seqs:
            return
        # Every sequence lies between the least and the greatest, so all of
        # them share exactly the prefix those two share.
        lo, hi = min(seqs), max(seqs)
        shared = next((i for i, (a, b) in enumerate(zip(lo, hi)) if a != b),
                      len(lo))
        n, w, counts = len(seqs), self.order - 1, self.counts
        counted: dict[tuple[int, ...], dict[int, int]] = {}
        for j, seq in enumerate(seqs):
            for i in range(shared if j else 0, len(seq)):
                ctx = tuple(seq[max(0, i - w):i])
                bucket = counted[ctx] = counts.setdefault(ctx, {})
                bucket[seq[i]] = bucket.get(seq[i], 0) + (
                    n if i < shared else 1)
        for ctx, bucket in counted.items():
            total = sum(bucket.values()) + self._v
            self._dists[ctx] = math.log(1 / total), {
                t: math.log((c + 1) / total) for t, c in bucket.items()}

    def train_pair(self, prompt: list[int], target: list[int]) -> None:
        """Count n-grams of prompt||target; target should end with END."""
        self.train([(prompt, target)])

    def next_token_distribution(self, state: tuple[int, ...]
                                ) -> tuple[float, dict[int, float]]:
        return self._dists.get(state, self._unseen)

    def generate(self, prompt: str, max_tokens: int) -> str:
        state = self.start(self.vocab.encode(prompt, on_unknown="skip"))
        out: list[int] = []
        v = self._v
        for _ in range(max_tokens):
            default, overrides = self.next_token_distribution(state)
            # Highest score, ties to the smallest id: of the default-scored
            # tokens only the smallest can win.
            scores = dict(overrides)
            plain = next((t for t in range(v) if t not in overrides), None)
            if plain is not None:
                scores[plain] = default
            best = max(scores, key=lambda t: (scores[t], -t))
            if best == END:
                break
            out.append(best)
            state = self.step(state, best)
        return self.vocab.decode(out)


class RemoteModel:
    """HTTP adapter for text generation: POST {base_url}/generate.

    The caller supplies the endpoint. Timeouts, connection errors and 5xx
    responses are retried up to max_retries times with exponential backoff
    between attempts.
    """

    def __init__(self, base_url: str, max_retries: int = 2,
                 timeout: float = 30.0, session=None):
        self.base_url = base_url.rstrip("/")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.max_retries = max_retries
        self.timeout = timeout
        if session is None:
            import requests
            session = requests.Session()
        self.session = session

    def _post(self, route: str, payload: dict):
        import requests
        last_exc: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(min(RETRY_BASE_DELAY_S * 2 ** (attempt - 1),
                               RETRY_MAX_DELAY_S))
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
            except (ValueError, RecursionError) as exc:
                raise RemoteUnavailable(
                    f"{route} response is not JSON: {exc}") from exc
        raise last_exc

    def generate(self, prompt: str, max_tokens: int) -> str:
        obj = self._post("/generate", {
            "prompt": prompt, "max_tokens": max_tokens,
            "stop": [], "temperature": 0.0,
        })
        text = obj.get("text") if isinstance(obj, dict) else None
        if not isinstance(text, str):
            raise RemoteUnavailable("/generate response has no string "
                                    "'text' field")
        return text


def sequence_logprob(model, prompt: list[int], target: list[int]) -> float:
    """Sum of per-step log-probabilities of *target* given *prompt*, read
    through start, step and next_token_distribution as the beam reads them.

    The target must terminate with END; the END factor is included.
    """
    if not target or target[-1] != END:
        raise MissingEnd("target must be nonempty and end with END")
    if not hasattr(model, "next_token_distribution"):
        raise NotSupported("model does not expose next-token distributions")
    total = 0.0
    state = model.start(prompt)
    for t in target:
        default, overrides = model.next_token_distribution(state)
        total += overrides.get(t, default)
        state = model.step(state, t)
    return total
