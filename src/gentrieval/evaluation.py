"""Metrics, NLL diagnostics, termination statistics, and the batch runner.

The runner evaluates a query file through one of the three pipelines (with
optional sweeps over verify depth and round budget), writing a JSON report
and a JSONL trace. With local models and a fixed seed the artifacts are
byte-identical across runs; wall-clock fields are recorded only when timing
is explicitly enabled: then a report row's `mean_latency_ms` is the
wall-clock time of its pipeline calls per query, whatever the pipeline.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

from .constraint import STRATEGIES, build as build_automaton
from .corpus import Corpus, Query, load_corpus, load_queries
from .decode import RankedList
from .docid import DocIdIndex, DocIdRecord
from .errors import ConfigError, EmptyRuns
from .lm import NgramModel, RemoteModel, ScriptedModel, sequence_logprob
from .orchestrator import (PIPELINES, REASONS, R4RResult, RefineConfig,
                           retrieve_prompt_ids, run_direct_cot, run_r4r,
                           run_standard)
from .reasoning import PromptRegistry


@dataclass
class NllReport:
    indexing_loss: float
    retrieval_loss: float
    mode: str  # "standard" | "instruction"

    @property
    def total(self) -> float:
        return self.indexing_loss + self.retrieval_loss


def _first_relevant_rank(ranked: RankedList, relevant: frozenset[str],
                         k: int) -> int | None:
    for rank, cand in enumerate(ranked[:k], start=1):
        if cand.doc_key in relevant:
            return rank
    return None


def hits_at_k(runs: list[tuple[RankedList, frozenset[str]]], k: int) -> float:
    """Fraction of queries with a relevant doc in the top k."""
    if not runs:
        raise EmptyRuns("hits@k over zero queries")
    if k < 1:
        raise ConfigError(f"hits@k needs k >= 1, got {k}")
    hit = sum(1 for ranked, rel in runs
              if _first_relevant_rank(ranked, rel, k) is not None)
    return hit / len(runs)


def mrr_at_k(runs: list[tuple[RankedList, frozenset[str]]], k: int) -> float:
    """Mean reciprocal rank of the first relevant doc within the top k."""
    if not runs:
        raise EmptyRuns("mrr@k over zero queries")
    if k < 1:
        raise ConfigError(f"mrr@k needs k >= 1, got {k}")
    total = 0.0
    for ranked, rel in runs:
        rank = _first_relevant_rank(ranked, rel, k)
        if rank is not None:
            total += 1.0 / rank
    return total / len(runs)


def _path_record(index: DocIdIndex, doc_key: str) -> DocIdRecord | None:
    """*doc_key*'s path docid record, or None if it has none."""
    return next((r for r in index.by_doc.get(doc_key, ())
                 if r.view == "path"), None)


def nll_losses(model, corpus: Corpus, pairs: list[tuple[Query, str]],
               index: DocIdIndex, mode: str = "standard",
               reg: PromptRegistry | None = None) -> NllReport:
    """Summed negative log-likelihood of gold path docids: indexing term over
    every document, retrieval term over the (query, doc) pairs. In
    instruction mode a document is prompted with P_i, a newline and its
    text, and a query with the retrieval prompt that training and decoding
    encode (retrieve_prompt_ids); in standard mode each with its text
    alone. Diagnostic only; nothing is trained here. A model that cannot
    score tokens raises NotSupported at the first sequence scored."""
    if mode not in ("standard", "instruction"):
        raise ConfigError(f"unknown nll mode {mode!r}")
    reg = reg or PromptRegistry.default()
    vocab = index.vocab
    instruction = mode == "instruction"

    def gold_tokens(doc_key: str) -> list[int]:
        rec = _path_record(index, doc_key)
        if rec is None:
            raise ConfigError(f"no path docid for {doc_key!r}")
        return list(rec.tokens)

    indexing = 0.0
    for doc in corpus:
        text = (reg.templates["P_i"] + "\n" + doc.text if instruction
                else doc.text)
        indexing -= sequence_logprob(
            model, vocab.encode(text, on_unknown="skip"),
            gold_tokens(doc.doc_key))
    retrieval = 0.0
    for q, doc_key in pairs:
        prompt = (retrieve_prompt_ids(reg, vocab, q.text) if instruction
                  else vocab.encode(q.text, on_unknown="skip"))
        retrieval -= sequence_logprob(model, prompt, gold_tokens(doc_key))
    return NllReport(indexing_loss=indexing, retrieval_loss=retrieval, mode=mode)


def termination_stats(traces: list[dict]) -> dict[str, float]:
    """Fraction of the trace records *traces* per termination reason."""
    if not traces:
        raise EmptyRuns("termination stats over zero traces")
    counts = dict.fromkeys(REASONS, 0)
    for t in traces:
        if not isinstance(t, dict):
            raise ConfigError(f"trace record is not an object: {t!r}")
        reason = t.get("reason")
        if not isinstance(reason, str) or reason not in counts:
            raise ConfigError(f"unknown termination reason {reason!r}")
        counts[reason] += 1
    n = len(traces)
    return {k: v / n for k, v in counts.items()}


@dataclass
class ExperimentConfig:
    corpus_path: str
    queries_path: str
    index_path: str
    strategy: str = "trie"
    pipeline: str = "standard"  # standard | direct_cot | r4r
    k: int = 20
    verify_depth: int = RefineConfig.verify_depth
    round_budget: int = RefineConfig.round_budget
    t_sweep: tuple[int, ...] = ()
    T_sweep: tuple[int, ...] = ()
    ablation: frozenset[str] = frozenset()
    merge: bool = False
    hits_ks: tuple[int, ...] = (1, 5, 20)
    mrr_ks: tuple[int, ...] = (10,)
    scripted_model_path: str | None = None
    reason_model_path: str | None = None  # scripted rules or a /generate URL
    ngram_train_queries_path: str | None = None  # train an n-gram retriever
    prompts_path: str | None = None
    report_path: str | None = None
    trace_path: str | None = None
    seed: int = 0
    jobs: int = 1  # queries run in order; any other value is refused
    timing: bool = False


def make_retrieve_model(index: DocIdIndex, reg: PromptRegistry,
                        scripted_path: str | None,
                        train_queries_path: str | None):
    """The retrieval model: scripted rules from *scripted_path*, or an n-gram
    model trained on the queries in *train_queries_path*, each paired with
    the path docid of every relevant document. Training encodes the same
    retrieval prompt that decoding does."""
    if scripted_path:
        return ScriptedModel.from_file(scripted_path, index.vocab)
    if not train_queries_path:
        raise ConfigError("no model configured: need scripted rules or "
                          "n-gram training queries")
    pairs = []
    for q in load_queries(train_queries_path):
        prompt = retrieve_prompt_ids(reg, index.vocab, q.text)
        for doc_key in sorted(q.relevant_keys):
            rec = _path_record(index, doc_key)
            if rec is not None:
                pairs.append((prompt, rec.tokens))
    model = NgramModel(index.vocab)
    model.train(pairs)
    return model


def check_r4r_only(pipeline: str, **settings) -> None:
    """Raise ConfigError if one of *settings* is set but *pipeline* is not
    r4r: only the refine loop reads them."""
    used = [name for name, value in settings.items() if value]
    if used and pipeline != "r4r":
        raise ConfigError(f"{used[0]} applies only to the r4r pipeline, "
                          f"not {pipeline!r}")


def load_pipeline(index_path: str, strategy: str, pipeline: str,
                  scripted_model_path: str | None = None,
                  reason_model_path: str | None = None,
                  ngram_train_queries_path: str | None = None,
                  prompts_path: str | None = None):
    """The index, prompt registry, automaton, retrieval model and reasoning
    model a pipeline reads. The reasoning model is scripted rules, or a
    RemoteModel if *reason_model_path* is an http(s) URL, or else the
    retrieval model. Inputs that nothing would read are refused first."""
    if scripted_model_path and ngram_train_queries_path:
        raise ConfigError("training queries apply only to the n-gram model, "
                          "not to scripted rules")
    if reason_model_path and pipeline == "standard":
        raise ConfigError("a reasoning model applies only to the direct_cot "
                          "and r4r pipelines, not 'standard'")
    index = DocIdIndex.load(index_path)
    reg = PromptRegistry.load(prompts_path)
    automaton = build_automaton(strategy, index)
    retrieve = make_retrieve_model(index, reg, scripted_model_path,
                                   ngram_train_queries_path)
    if not reason_model_path:
        reason = retrieve
    elif reason_model_path.startswith(("http://", "https://")):
        reason = RemoteModel(reason_model_path)
    else:
        reason = ScriptedModel.from_file(reason_model_path, index.vocab)
    return index, reg, automaton, retrieve, reason


def run_pipeline(q: Query, pipeline: str, model, reason_model, automaton,
                 index: DocIdIndex, reg: PromptRegistry, k: int,
                 refine_cfg: RefineConfig, merge: bool = False,
                 timing: bool = False) -> tuple[RankedList, R4RResult | None]:
    """Rank the top k docids for one query through the named pipeline. The
    second item is the refine-loop result, kept for its trace (r4r only).

    *model* retrieves: it scores tokens, so it must be local. It is read
    like the automaton: start(prompt_ids) and step(state, token) give its
    states, and next_token_distribution(state) the sparse (default,
    overrides) distribution a state reads. *reason_model* only generates,
    so it may be remote; the standard pipeline does not read it. One model
    may serve both roles."""
    if pipeline == "standard":
        return run_standard(q, model, automaton, index, reg, k,
                            merge=merge), None
    if pipeline == "direct_cot":
        return run_direct_cot(q, model, reason_model, automaton, index, reg,
                              k, merge=merge), None
    if pipeline == "r4r":
        result = run_r4r(q, model, reason_model, automaton, index, reg, k,
                         refine_cfg, merge=merge, timing=timing)
        return result.ranked, result
    raise ConfigError(f"unknown pipeline {pipeline!r}")


def check_outputs(inputs: dict[str, str | None], **outputs: str | None):
    """Raise ConfigError if an output path names an input file or an
    earlier output, as os.path.realpath resolves them. *inputs* and the
    keywords map a role to its path; an unset path is skipped."""
    seen: dict[str, str] = {}
    for role, path in [*inputs.items(), *outputs.items()]:
        if path:
            other = seen.setdefault(os.path.realpath(path), role)
            if other != role and role in outputs:
                raise ConfigError(f"{other} and {role} are one file: {path}")


def check_writable(path: str | None) -> None:
    """Raise OSError unless *path* can be opened for writing. The path is
    left as it was: an existing file keeps its bytes, and a file the check
    creates is removed again."""
    if path:
        existed = os.path.exists(path)
        open(path, "a", encoding="utf-8").close()
        if not existed:
            os.remove(path)


def run_experiment(cfg: ExperimentConfig):
    """Run all queries, in order, through the configured pipeline (sweeping
    t/T when requested) and write the report and trace artifacts. The output
    paths are checked before the first query is decoded; the pipeline and
    strategy names, k, the metric cutoffs and the output paths against
    the inputs are checked, the refine configs built, and an ablation or
    sweep on a pipeline other than r4r refused, before any file is read."""
    if cfg.jobs != 1:
        raise ConfigError(f"jobs must be 1, got {cfg.jobs}")
    for name, values in (("k", (cfg.k,)), ("hits_ks", cfg.hits_ks),
                         ("mrr_ks", cfg.mrr_ks)):
        if min(values, default=1) < 1:
            raise ConfigError(f"{name} must be >= 1, got {min(values)}")
    if cfg.pipeline not in PIPELINES:
        raise ConfigError(f"unknown pipeline {cfg.pipeline!r}")
    if cfg.strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {cfg.strategy!r}")
    check_outputs({"corpus": cfg.corpus_path, "queries": cfg.queries_path,
                   "index": cfg.index_path, "model": cfg.scripted_model_path,
                   "reasoning model": cfg.reason_model_path,
                   "training queries": cfg.ngram_train_queries_path,
                   "prompts": cfg.prompts_path},
                  report=cfg.report_path, trace=cfg.trace_path)
    t_values = cfg.t_sweep or (cfg.verify_depth,)
    T_values = cfg.T_sweep or (cfg.round_budget,)
    refine_cfgs = [RefineConfig(verify_depth=t, round_budget=T,
                                ablation=cfg.ablation)
                   for t in t_values for T in T_values]
    check_r4r_only(cfg.pipeline, ablation=cfg.ablation, t_sweep=cfg.t_sweep,
                   T_sweep=cfg.T_sweep)
    load_corpus(cfg.corpus_path)  # validates the referenced corpus file
    queries = load_queries(cfg.queries_path)
    if not queries:
        raise EmptyRuns("query file is empty")
    index, reg, automaton, retrieve, reason = load_pipeline(
        cfg.index_path, cfg.strategy, cfg.pipeline, cfg.scripted_model_path,
        cfg.reason_model_path, cfg.ngram_train_queries_path,
        cfg.prompts_path)
    check_writable(cfg.report_path)
    check_writable(cfg.trace_path)

    sweep_rows = []
    all_traces: list[dict] = []
    for refine_cfg in refine_cfgs:
        start = time.perf_counter()
        outcomes = [run_pipeline(q, cfg.pipeline, retrieve, reason,
                                 automaton, index, reg, cfg.k, refine_cfg,
                                 cfg.merge, cfg.timing)
                    for q in queries]
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        runs = [(ranked, q.relevant_keys)
                for (ranked, _), q in zip(outcomes, queries)]
        traces = [{"qid": q.query_id, "reason": res.reason,
                   "rounds": res.rounds_used,
                   "shared_model": reason is retrieve,
                   "rounds_detail": res.trace}
                  for (_, res), q in zip(outcomes, queries)
                  if res is not None]
        row = {"t": refine_cfg.verify_depth, "T": refine_cfg.round_budget,
               "hits": {str(k): hits_at_k(runs, k) for k in cfg.hits_ks},
               "mrr": {str(k): mrr_at_k(runs, k) for k in cfg.mrr_ks},
               "n_queries": len(queries),
               "mean_latency_ms": (elapsed_ms / len(queries)
                                   if cfg.timing else 0.0)}
        if traces:
            row["termination"] = termination_stats(traces)
        sweep_rows.append(row)
        all_traces.extend(traces)

    report_obj = {
        "config": {
            "pipeline": cfg.pipeline, "strategy": cfg.strategy, "k": cfg.k,
            "verify_depth": cfg.verify_depth, "round_budget": cfg.round_budget,
            "t_sweep": list(t_values), "T_sweep": list(T_values),
            "ablation": sorted(cfg.ablation), "merge": cfg.merge,
            "seed": cfg.seed,
        },
        "rows": sweep_rows,
    }
    if cfg.report_path:
        with open(cfg.report_path, "w", encoding="utf-8") as fh:
            json.dump(report_obj, fh, indent=2, sort_keys=False)
            fh.write("\n")
    if cfg.trace_path:
        with open(cfg.trace_path, "w", encoding="utf-8") as fh:
            for tr in all_traces:
                fh.write(json.dumps(tr, sort_keys=False))
                fh.write("\n")
    return report_obj


__all__ = [
    "ExperimentConfig", "NllReport", "check_outputs", "check_r4r_only",
    "check_writable", "hits_at_k", "load_pipeline", "make_retrieve_model",
    "mrr_at_k", "nll_losses", "run_experiment", "run_pipeline",
    "termination_stats",
]
