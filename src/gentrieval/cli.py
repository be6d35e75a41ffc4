"""Command-line entry point: build-index, retrieve, run, stats.

Every failure exits nonzero with a single `error: ...` diagnostic line;
usage errors print help and exit 2 (argparse default). All randomness is
threaded from --seed for byte-reproducible artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .constraint import build as build_automaton
from .corpus import Query, load_corpus
from .docid import (VIEW_NGRAM, VIEW_PSEUDO_QUERY, VIEW_TITLE, DocIdIndex,
                    build_index)
from .errors import ConfigError, GentrievalError
from .evaluation import (ExperimentConfig, make_retrieve_model,
                         run_experiment, run_pipeline, termination_stats)
from .lm import RemoteModel
from .orchestrator import ModelBundle, RefineConfig, default_beam_config
from .reasoning import DEFAULT_PROMPTS, PromptRegistry

_STRATEGY_ALIASES = {"trie": "trie", "fm": "fm_index", "fm_index": "fm_index",
                     "termset": "term_set", "term_set": "term_set"}


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gentrieval",
        description="Generative-retrieval toolkit: textual docids, "
                    "constrained decoding, iterative reasoning retrieval.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-index", help="build a DocIdIndex file")
    p.add_argument("--corpus", required=True, help="corpus JSONL path")
    p.add_argument("--out", required=True, help="output index JSON path")
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--branching", type=int, default=8)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--views", default="",
                   help="comma list from {title,ngram,pseudo_query}")
    p.add_argument("--ngram-m", type=int, default=3)
    p.add_argument("--ngram-n", type=int, default=3)
    p.add_argument("--seed", type=int, default=0,
                   help="seed threaded through embedding and clustering")

    p = sub.add_parser("retrieve", help="rank docids for one query")
    p.add_argument("--index", required=True)
    p.add_argument("--strategy", choices=sorted(_STRATEGY_ALIASES),
                   default="trie")
    p.add_argument("--model", required=True,
                   help="scripted-model JSON path, or 'ngram'")
    p.add_argument("--train-queries",
                   help="query JSONL used to train the n-gram model")
    p.add_argument("--query", required=True)
    p.add_argument("--k", type=positive_int, default=20)
    p.add_argument("--pipeline", choices=["standard", "direct_cot", "r4r"],
                   default="standard")
    p.add_argument("--t", type=positive_int, default=3, help="verify depth")
    p.add_argument("--T", type=positive_int, default=3, help="round budget")
    p.add_argument("--prompts", help="prompt-override JSON path")
    p.add_argument("--remote-url",
                   help="reasoning endpoint; defaults to env "
                        "GENTRIEVAL_REMOTE_URL, and the flag wins when both "
                        "are set")
    p.add_argument("--merge-views", action="store_true")
    p.add_argument("--ablation", default="",
                   help="comma list from {no_context,no_explanation,"
                        "no_verification}")

    p = sub.add_parser("run", help="batch experiment over a query file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--strategy", choices=sorted(_STRATEGY_ALIASES),
                   default="trie")
    p.add_argument("--pipeline", choices=["standard", "direct_cot", "r4r"],
                   default="standard")
    p.add_argument("--model", required=True,
                   help="scripted-model JSON path, or 'ngram'")
    p.add_argument("--reason-model", help="scripted rules for the reason role")
    p.add_argument("--train-queries",
                   help="query JSONL used to train the n-gram model")
    p.add_argument("--k", type=positive_int, default=20)
    p.add_argument("--t", type=positive_int, default=3)
    p.add_argument("--T", type=positive_int, default=3)
    p.add_argument("--sweep-t", default="", help="comma list of verify depths")
    p.add_argument("--sweep-T", default="", help="comma list of round budgets")
    p.add_argument("--ablation", default="")
    p.add_argument("--merge-views", action="store_true")
    p.add_argument("--prompts")
    p.add_argument("--report", required=True, help="report JSON output path")
    p.add_argument("--trace", help="trace JSONL output path")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--timing", action="store_true",
                   help="record wall-clock latencies (breaks byte-level "
                        "reproducibility)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed recorded in the report")

    p = sub.add_parser("stats", help="termination stats from a trace file")
    p.add_argument("--trace", required=True)
    return parser


def _parse_views(spec: str) -> frozenset[str]:
    valid = {VIEW_TITLE, VIEW_NGRAM, VIEW_PSEUDO_QUERY}
    views = frozenset(v for v in spec.split(",") if v)
    bad = views - valid
    if bad:
        raise ConfigError(f"unknown views: {', '.join(sorted(bad))}")
    return views


def _parse_ablation(spec: str) -> frozenset[str]:
    valid = {"no_context", "no_explanation", "no_verification"}
    flags = frozenset(v for v in spec.split(",") if v)
    bad = flags - valid
    if bad:
        raise ConfigError(f"unknown ablation flags: {', '.join(sorted(bad))}")
    return flags


def _cmd_build_index(args) -> int:
    corpus = load_corpus(args.corpus)
    index = build_index(
        corpus, levels=args.levels, branching=args.branching, dim=args.dim,
        seed=args.seed, views=_parse_views(args.views),
        ngram_m=args.ngram_m, ngram_n=args.ngram_n,
        extra_vocab_texts=list(DEFAULT_PROMPTS.values()))
    index.save(args.out)
    n_path = sum(1 for r in index.records if r.view == "path")
    print(f"wrote {args.out}: {len(index.records)} records "
          f"({n_path} path docids), vocab {len(index.vocab)}")
    return 0


def _cmd_retrieve(args) -> int:
    index = DocIdIndex.load(args.index)
    automaton = build_automaton(_STRATEGY_ALIASES[args.strategy], index)
    reg = PromptRegistry.load(args.prompts)
    retrieve_model = make_retrieve_model(
        index, reg, None if args.model == "ngram" else args.model,
        args.train_queries)
    remote_url = args.remote_url or os.environ.get("GENTRIEVAL_REMOTE_URL")
    bundle = ModelBundle(
        retrieve_model=retrieve_model,
        reason_model=RemoteModel(remote_url) if remote_url else retrieve_model)
    refine_cfg = RefineConfig(verify_depth=args.t, round_budget=args.T,
                              ablation=_parse_ablation(args.ablation))
    ranked, _ = run_pipeline(
        Query(query_id="cli", text=args.query), args.pipeline, bundle,
        automaton, index, reg, default_beam_config(index, k=args.k),
        refine_cfg, merge=args.merge_views)
    for cand in ranked:
        print(f"{cand.record.surface}\t{cand.score:.6f}\t{cand.doc_key}")
    return 0


def _cmd_run(args) -> int:
    def ints(spec: str) -> tuple[int, ...]:
        return tuple(int(x) for x in spec.split(",") if x)

    cfg = ExperimentConfig(
        corpus_path=args.corpus, queries_path=args.queries,
        index_path=args.index, strategy=_STRATEGY_ALIASES[args.strategy],
        pipeline=args.pipeline, k=args.k, verify_depth=args.t,
        round_budget=args.T, t_sweep=ints(args.sweep_t),
        T_sweep=ints(args.sweep_T), ablation=_parse_ablation(args.ablation),
        merge=args.merge_views,
        scripted_model_path=None if args.model == "ngram" else args.model,
        reason_model_path=args.reason_model,
        ngram_train_queries_path=args.train_queries,
        prompts_path=args.prompts, report_path=args.report,
        trace_path=args.trace, seed=args.seed, jobs=args.jobs,
        timing=args.timing)
    report = run_experiment(cfg)
    for row in report["rows"]:
        hits = " ".join(f"hits@{k}={v:.4f}" for k, v in row["hits"].items())
        mrr = " ".join(f"mrr@{k}={v:.4f}" for k, v in row["mrr"].items())
        print(f"t={row['t']} T={row['T']} {hits} {mrr}")
    return 0


def _cmd_stats(args) -> int:
    traces = []
    with open(args.trace, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                traces.append(json.loads(line))
    stats = termination_stats(traces)
    for reason in ("all_relevant", "budget_exhausted", "parse_failure"):
        print(f"{reason}\t{stats.fractions[reason]:.4f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"build-index": _cmd_build_index, "retrieve": _cmd_retrieve,
                "run": _cmd_run, "stats": _cmd_stats}
    try:
        return handlers[args.command](args)
    except GentrievalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
