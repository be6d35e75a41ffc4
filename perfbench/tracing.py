"""Span recorder for the traced run, and the wrappers that attach it to
gentrieval's layers from outside the library.

A span is [name, start, end, parent, query]: `parent` is the index of the
enclosing span (-1 at top level) and `query` the id of the query being
answered. Spans stay in memory; `write` dumps them as JSON lines at the
end. A span's self time is its duration minus the time its child spans
cover (the run is single-threaded, so children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import Counter
from time import perf_counter


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.query: str | None = None
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        # States returned by step() during the current beam search; kept
        # alive so their ids stay unique until the search ends.
        self._stepped: dict[int, object] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.query]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name: str, observe=None):
        """*fn* recorded as span *name*; observe(rec, parent, args, result)
        runs after a call that returned."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                observe(self, span[3], args, result)
            return result
        return traced

    def parent_is(self, parent: int, name: str) -> bool:
        return parent >= 0 and self.spans[parent][0] == name

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace owner.attr (a module function or a plain method) with a
        traced wrapper until `unpatch`."""
        # A class's own __dict__ keeps classmethods unbound.
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(original.__func__, name, observe))
        else:
            wrapped = self.wrap(original, name, observe)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, query in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "query": query}))
                fh.write("\n")


# Counters observed at layer boundaries. Only calls made directly by the
# beam search count, so FmIndexAutomaton.complete's own allowed() call and
# the checker's sequence_logprob() calls stay out of the ratios.

def _on_search(rec: Recorder, parent, args, result) -> None:
    rec._stepped.clear()


def _on_allowed(rec: Recorder, parent, args, result) -> None:
    if rec.parent_is(parent, "decode.search"):
        rec.counts["allowed.in_search"] += 1
        rec.counts["allowed.size"] += len(result[0])
        if id(args[1]) in rec._stepped:
            rec.counts["step.survived"] += 1


def _on_step(rec: Recorder, parent, args, result) -> None:
    if rec.parent_is(parent, "decode.search"):
        rec.counts["step.in_search"] += 1
        rec._stepped[id(result)] = result


def _on_complete(rec: Recorder, parent, args, result) -> None:
    if rec.parent_is(parent, "decode.search"):
        rec.counts["complete.in_search"] += 1


def _on_dist(rec: Recorder, parent, args, result) -> None:
    if rec.parent_is(parent, "decode.search"):
        rec.counts["dist.in_search"] += 1
        rec.counts["dist.entries"] += len(result)
        rec.counts["dist.ctx_tokens"] += len(args[1])


def instrument(rec: Recorder) -> None:
    """Wrap the public functions and methods of each gentrieval module.

    Module functions are patched where the caller looks them up (the
    orchestrator and evaluation namespaces import them by name).
    """
    from gentrieval import constraint, docid, evaluation, fm_index, lm
    from gentrieval import orchestrator

    rec.patch(evaluation, "load_corpus", "corpus.load")
    rec.patch(evaluation, "load_queries", "corpus.load")
    rec.patch(evaluation, "build_automaton", "constraint.build")
    rec.patch(docid.DocIdIndex, "load", "docid.load")
    rec.patch(orchestrator, "constrained_beam_search", "decode.search",
              _on_search)
    rec.patch(orchestrator, "dedup_rank", "decode.rank")
    rec.patch(orchestrator, "merge_views", "decode.rank")
    for op in ("think", "verify", "reflect"):
        rec.patch(orchestrator, op, f"reasoning.{op}")
    for model in (lm.NgramModel, lm.ScriptedModel):
        rec.patch(model, "next_token_distribution", "lm.dist", _on_dist)
        rec.patch(model, "generate", "lm.generate")
    rec.patch(lm.NgramModel, "train_pair", "lm.train")
    for automaton in (constraint.TrieAutomaton, constraint.FmIndexAutomaton,
                      constraint.TermSetAutomaton):
        rec.patch(automaton, "allowed", "constraint.allowed", _on_allowed)
        rec.patch(automaton, "step", "constraint.step", _on_step)
        rec.patch(automaton, "complete", "constraint.complete", _on_complete)
    # Only followers(): extend() and count() run once per symbol inside it,
    # and wrapping them would swamp the measurement.
    rec.patch(fm_index.SequenceFMIndex, "followers", "fm_index.followers")


def summarize(spans: list[list], first: int = 0
              ) -> tuple[Counter, Counter, Counter]:
    """Per span name, over spans[first:]: call count, total seconds and
    self seconds."""
    child = [0.0] * (len(spans) - first)
    for name, start, end, parent, _ in spans[first:]:
        if parent >= first:
            child[parent - first] += end - start
    calls: Counter = Counter()
    total: Counter = Counter()
    self_s: Counter = Counter()
    for i, (name, start, end, _, _) in enumerate(spans[first:]):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child[i]
    return calls, total, self_s


def generations_in(spans: list[list], prefix: str) -> int:
    """lm.generate calls made directly by spans whose name starts with
    *prefix*."""
    return sum(1 for name, _, _, parent, _ in spans
               if name == "lm.generate" and parent >= 0
               and spans[parent][0].startswith(prefix))
