"""Metrics, NLL diagnostics, termination statistics, and the batch runner.

The runner evaluates a query file through one of the three pipelines (with
optional sweeps over verify depth and round budget), writing a JSON report
and a JSONL trace. With local models and a fixed seed the artifacts are
byte-identical across runs; wall-clock fields are recorded only when timing
is explicitly enabled.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .constraint import build as build_automaton
from .corpus import Corpus, Query, load_corpus, load_queries
from .decode import BeamConfig, RankedList
from .docid import DocIdIndex
from .errors import ConfigError, EmptyRuns, NotSupported
from .lm import NgramModel, ScriptedModel, sequence_logprob
from .orchestrator import (ModelBundle, R4RResult, RefineConfig,
                           _retrieve_prompt, collect_trace,
                           default_beam_config, run_direct_cot, run_r4r,
                           run_standard)
from .reasoning import PromptRegistry


@dataclass
class MetricReport:
    hits: dict[int, float]
    mrr: dict[int, float]
    n_queries: int
    mean_latency_ms: float = 0.0


@dataclass
class NllReport:
    indexing_loss: float
    retrieval_loss: float
    mode: str  # "standard" | "instruction"

    @property
    def total(self) -> float:
        return self.indexing_loss + self.retrieval_loss


@dataclass
class TerminationStats:
    fractions: dict[str, float]


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
        raise ValueError("k must be >= 1")
    hit = sum(1 for ranked, rel in runs
              if _first_relevant_rank(ranked, rel, k) is not None)
    return hit / len(runs)


def mrr_at_k(runs: list[tuple[RankedList, frozenset[str]]], k: int) -> float:
    """Mean reciprocal rank of the first relevant doc within the top k."""
    if not runs:
        raise EmptyRuns("mrr@k over zero queries")
    if k < 1:
        raise ValueError("k must be >= 1")
    total = 0.0
    for ranked, rel in runs:
        rank = _first_relevant_rank(ranked, rel, k)
        if rank is not None:
            total += 1.0 / rank
    return total / len(runs)


def nll_losses(model, corpus: Corpus, pairs: list[tuple[Query, str]],
               index: DocIdIndex, mode: str = "standard",
               reg: PromptRegistry | None = None) -> NllReport:
    """Summed negative log-likelihood of gold path docids: indexing term over
    every document, retrieval term over the (query, doc) pairs. Diagnostic
    only; nothing is trained here."""
    if not hasattr(model, "next_token_distribution"):
        raise NotSupported("nll diagnostics need a local model")
    if mode not in ("standard", "instruction"):
        raise ConfigError(f"unknown nll mode {mode!r}")
    reg = reg or PromptRegistry.default()
    vocab = index.vocab

    def gold_record(doc_key: str):
        recs = [r for r in index.by_doc.get(doc_key, []) if r.view == "path"]
        if not recs:
            raise ConfigError(f"no path docid for {doc_key!r}")
        return recs[0]

    def prompt_ids(instruction: str, body: str) -> list[int]:
        if mode == "instruction":
            body = instruction + "\n" + body
        return vocab.encode(body, on_unknown="skip")

    indexing = 0.0
    for doc in corpus:
        rec = gold_record(doc.doc_key)
        indexing -= sequence_logprob(
            model, prompt_ids(reg.templates["P_i"], doc.text), list(rec.tokens))
    retrieval = 0.0
    for q, doc_key in pairs:
        rec = gold_record(doc_key)
        retrieval -= sequence_logprob(
            model, prompt_ids(reg.templates["P_r"], q.text), list(rec.tokens))
    return NllReport(indexing_loss=indexing, retrieval_loss=retrieval, mode=mode)


def termination_stats(traces: list[dict]) -> TerminationStats:
    if not traces:
        raise EmptyRuns("termination stats over zero traces")
    counts = {"all_relevant": 0, "budget_exhausted": 0, "parse_failure": 0}
    for t in traces:
        reason = t["reason"] if isinstance(t, dict) else t
        if reason not in counts:
            raise ConfigError(f"unknown termination reason {reason!r}")
        counts[reason] += 1
    n = len(traces)
    return TerminationStats({k: v / n for k, v in counts.items()})


@dataclass
class ExperimentConfig:
    corpus_path: str
    queries_path: str
    index_path: str
    strategy: str = "trie"
    pipeline: str = "standard"  # standard | direct_cot | r4r
    k: int = 20
    verify_depth: int = 3
    round_budget: int = 3
    t_sweep: tuple[int, ...] = ()
    T_sweep: tuple[int, ...] = ()
    ablation: frozenset[str] = frozenset()
    merge: bool = False
    hits_ks: tuple[int, ...] = (1, 5, 20)
    mrr_ks: tuple[int, ...] = (10,)
    scripted_model_path: str | None = None
    reason_model_path: str | None = None  # scripted rules for the reason role
    ngram_train_queries_path: str | None = None  # train an n-gram retriever
    prompts_path: str | None = None
    report_path: str | None = None
    trace_path: str | None = None
    seed: int = 0
    jobs: int = 1
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
    model = NgramModel(index.vocab)
    for q in load_queries(train_queries_path):
        prompt = index.vocab.encode(_retrieve_prompt(reg, q),
                                    on_unknown="skip")
        for doc_key in sorted(q.relevant_keys):
            recs = [r for r in index.by_doc.get(doc_key, [])
                    if r.view == "path"]
            if recs:
                model.train_pair(prompt, list(recs[0].tokens))
    return model


def run_pipeline(q: Query, pipeline: str, bundle: ModelBundle, automaton,
                 index: DocIdIndex, reg: PromptRegistry, beam_cfg: BeamConfig,
                 refine_cfg: RefineConfig, merge: bool = False,
                 timing: bool = False) -> tuple[RankedList, R4RResult | None]:
    """Rank docids for one query through the named pipeline. The second
    item is the refine-loop result, kept for its trace (r4r only)."""
    if pipeline == "standard":
        return run_standard(q, bundle.retrieve_model, automaton, index, reg,
                            beam_cfg, merge=merge), None
    if pipeline == "direct_cot":
        return run_direct_cot(q, bundle, automaton, index, reg, beam_cfg,
                              merge=merge), None
    if pipeline == "r4r":
        result = run_r4r(q, bundle, automaton, index, reg, beam_cfg,
                         refine_cfg, merge=merge, timing=timing)
        return result.ranked, result
    raise ConfigError(f"unknown pipeline {pipeline!r}")


def run_experiment(cfg: ExperimentConfig):
    """Run all queries through the configured pipeline (sweeping t/T when
    requested) and write the report and trace artifacts."""
    load_corpus(cfg.corpus_path)  # validates the referenced corpus file
    queries = load_queries(cfg.queries_path)
    index = DocIdIndex.load(cfg.index_path)
    if not queries:
        raise EmptyRuns("query file is empty")
    reg = PromptRegistry.load(cfg.prompts_path)
    automaton = build_automaton(cfg.strategy, index)
    retrieve = make_retrieve_model(index, reg, cfg.scripted_model_path,
                                   cfg.ngram_train_queries_path)
    reason = (ScriptedModel.from_file(cfg.reason_model_path, index.vocab)
              if cfg.reason_model_path else retrieve)
    bundle = ModelBundle(retrieve_model=retrieve, reason_model=reason)
    beam_cfg = default_beam_config(index, k=cfg.k)

    sweep_rows = []
    t_values = cfg.t_sweep or (cfg.verify_depth,)
    T_values = cfg.T_sweep or (cfg.round_budget,)
    all_traces: list[dict] = []
    for t in t_values:
        for T in T_values:
            refine_cfg = RefineConfig(verify_depth=t, round_budget=T,
                                      ablation=cfg.ablation)

            def work(q: Query):
                return run_pipeline(q, cfg.pipeline, bundle, automaton,
                                    index, reg, beam_cfg, refine_cfg,
                                    cfg.merge, cfg.timing)

            if cfg.jobs > 1:
                with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
                    outcomes = list(pool.map(work, queries))
            else:
                outcomes = [work(q) for q in queries]

            runs = [(ranked, q.relevant_keys)
                    for (ranked, _), q in zip(outcomes, queries)]
            report = MetricReport(
                hits={k: hits_at_k(runs, k) for k in cfg.hits_ks},
                mrr={k: mrr_at_k(runs, k) for k in cfg.mrr_ks},
                n_queries=len(queries))
            traces = [collect_trace(res, q.query_id)
                      for (_, res), q in zip(outcomes, queries)
                      if res is not None]
            if cfg.timing and traces:
                latencies = [rt["ms"] for tr in traces
                             for rt in tr["rounds_detail"]]
                report.mean_latency_ms = (sum(latencies) / len(latencies)
                                          if latencies else 0.0)
            row = {"t": t, "T": T,
                   "hits": {str(k): report.hits[k] for k in cfg.hits_ks},
                   "mrr": {str(k): report.mrr[k] for k in cfg.mrr_ks},
                   "n_queries": report.n_queries,
                   "mean_latency_ms": report.mean_latency_ms}
            if traces:
                row["termination"] = termination_stats(traces).fractions
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
    "ExperimentConfig", "MetricReport", "NllReport", "TerminationStats",
    "hits_at_k", "make_retrieve_model", "mrr_at_k", "nll_losses",
    "run_experiment", "run_pipeline", "termination_stats",
]
