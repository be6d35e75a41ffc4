"""Command-line entry point: build-index, retrieve, run, stats.

`retrieve` and `run` share their set-up flags, and set up through
`evaluation.load_pipeline`.

Every failure exits nonzero with a single `error: ...` diagnostic line;
usage errors print help and exit 2 (argparse default). Nothing is random:
`build-index --seed` salts the embedding hash, and `run --seed` is only
recorded in the report, so local-model artifacts are byte-reproducible.
"""

from __future__ import annotations

import argparse
import sys

from .constraint import STRATEGIES
from .corpus import Query, load_corpus, read_jsonl
from .docid import VIEWS, build_index, check_views
from .errors import ConfigError, GentrievalError
from .evaluation import (ExperimentConfig, check_outputs, check_r4r_only,
                         check_writable, load_pipeline, run_experiment,
                         run_pipeline, termination_stats)
from .orchestrator import ABLATIONS, PIPELINES, RefineConfig
from .reasoning import DEFAULT_PROMPTS


def bounded_int(low: int, high: int | None = None):
    """Argparse type: an int no smaller than *low* and, if *high* is given,
    no larger than it."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value
    parse.__name__ = (f"int >= {low}" if high is None
                      else f"int in [{low}, {high}]")
    return parse


positive_int = bounded_int(1)
# Embedding width cap: an index holds one float per dimension for each
# document's vector while it is built, and for every centroid it stores.
MAX_DIM = 4096
# Tree depth cap: a path docid holds one label per level, and the tree is
# built and labeled one recursive call per level.
MAX_LEVELS = 64


def positive_ints(text: str) -> tuple[int, ...]:
    """Argparse type: a comma list of positive ints (empty allowed)."""
    return tuple(positive_int(x) for x in text.split(",") if x)


def names(text: str) -> frozenset[str]:
    """Argparse type: a comma list of names, checked where they are used."""
    return frozenset(x for x in text.split(",") if x)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gentrieval",
        description="Generative-retrieval toolkit: textual docids, "
                    "constrained decoding, iterative reasoning retrieval.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-index", help="build a DocIdIndex file")
    p.add_argument("--corpus", required=True, help="corpus JSONL path")
    p.add_argument("--out", required=True, help="output index JSON path")
    p.add_argument("--levels", type=bounded_int(1, MAX_LEVELS), default=2,
                   help=f"depth of the docid tree, at most {MAX_LEVELS}")
    p.add_argument("--branching", type=positive_int, default=8,
                   help="clusters per tree node, at most the group size")
    p.add_argument("--dim", type=bounded_int(2, MAX_DIM), default=64,
                   help=f"embedding width, at most {MAX_DIM}")
    p.add_argument("--views", type=names, default="",
                   help=f"comma list from {{{','.join(VIEWS)}}}")
    p.add_argument("--seed", type=bounded_int(0, 2 ** 64 - 1), default=0,
                   help="salt of the embedding hash; clustering is "
                        "deterministic given the embeddings")

    # Flags that retrieve and run share.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--index", required=True,
                        help="index JSON path, as build-index writes it")
    shared.add_argument("--strategy", choices=STRATEGIES, default="trie",
                        help="how decoding is constrained to the docids")
    shared.add_argument("--pipeline", choices=PIPELINES, default="standard",
                        help="how reasoning and retrieval are combined")
    shared.add_argument("--model", required=True,
                        help="scripted-model JSON path, or 'ngram'")
    shared.add_argument("--train-queries",
                        help="query JSONL used to train the n-gram model")
    shared.add_argument("--reason-model",
                        help="scripted-rules JSON path, or the http(s) URL "
                             "of a /generate endpoint; without it the "
                             "retrieval model also reasons")
    shared.add_argument("--k", type=positive_int, default=20,
                        help="beam width and length of the ranked list")
    shared.add_argument("--t", type=positive_int,
                        help="verify depth (r4r only; default "
                             f"{RefineConfig.verify_depth})")
    shared.add_argument("--T", type=positive_int,
                        help="round budget (r4r only; default "
                             f"{RefineConfig.round_budget})")
    shared.add_argument("--ablation", type=names, default="",
                        help=f"comma list from {{{','.join(ABLATIONS)}}}")
    shared.add_argument("--merge-views", action="store_true",
                        help="score each document by the log-sum-exp of "
                             "its hypotheses' scores, not by its best one")
    shared.add_argument("--prompts", help="prompt-override JSON path")

    p = sub.add_parser("retrieve", parents=[shared],
                       help="rank docids for one query")
    p.add_argument("--query", required=True, help="query text")

    p = sub.add_parser("run", parents=[shared],
                       help="batch experiment over a query file")
    p.add_argument("--corpus", required=True,
                   help="corpus JSONL path; it is only read to check that "
                        "it parses")
    p.add_argument("--queries", required=True,
                   help="query JSONL path, with relevant documents")
    p.add_argument("--sweep-t", type=positive_ints, default="",
                   help="comma list of verify depths")
    p.add_argument("--sweep-T", type=positive_ints, default="",
                   help="comma list of round budgets")
    p.add_argument("--report", required=True, help="report JSON output path")
    p.add_argument("--trace", help="trace JSONL output path")
    p.add_argument("--timing", action="store_true",
                   help="record wall-clock time: mean_latency_ms per query "
                        "in the report, ms per r4r round in the trace "
                        "(breaks byte-level reproducibility)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed recorded in the report")

    p = sub.add_parser("stats", help="termination stats from a trace file")
    p.add_argument("--trace", required=True,
                   help="trace JSONL path, as run --trace writes it")
    return parser


def _cmd_build_index(args) -> int:
    # Refused before the corpus is read and the index built.
    check_views(args.views)
    check_outputs({"corpus": args.corpus}, index=args.out)
    check_writable(args.out)
    corpus = load_corpus(args.corpus)
    index = build_index(
        corpus, levels=args.levels, branching=args.branching, dim=args.dim,
        seed=args.seed, views=args.views,
        extra_vocab_texts=list(DEFAULT_PROMPTS.values()))
    index.save(args.out)
    n_path = sum(1 for r in index.records if r.view == "path")
    print(f"wrote {args.out}: {len(index.records)} records "
          f"({n_path} path docids), vocab {len(index.vocab)}")
    return 0


def _refine_settings(args) -> dict:
    """verify_depth and round_budget as --t and --T set them; an unset one
    keeps its config default. Either one set is refused unless the
    pipeline is r4r."""
    settings = {name: value for name, value in (("verify_depth", args.t),
                                                ("round_budget", args.T))
                if value is not None}
    check_r4r_only(args.pipeline, **settings)
    return settings


def _pipeline_settings(args) -> dict:
    """The shared set-up flags, as load_pipeline and ExperimentConfig name
    them."""
    return dict(
        index_path=args.index, strategy=args.strategy, pipeline=args.pipeline,
        scripted_model_path=None if args.model == "ngram" else args.model,
        reason_model_path=args.reason_model,
        ngram_train_queries_path=args.train_queries, prompts_path=args.prompts)


def _cmd_retrieve(args) -> int:
    refine_cfg = RefineConfig(**_refine_settings(args),
                              ablation=args.ablation)
    check_r4r_only(args.pipeline, ablation=args.ablation)
    index, reg, automaton, retrieve_model, reason_model = load_pipeline(
        **_pipeline_settings(args))
    ranked, _ = run_pipeline(
        Query(query_id="cli", text=args.query), args.pipeline, retrieve_model,
        reason_model, automaton, index, reg, args.k, refine_cfg,
        merge=args.merge_views)
    for cand in ranked:
        print(f"{cand.record.surface}\t{cand.score:.6f}\t{cand.doc_key}")
    return 0


def _cmd_run(args) -> int:
    for flag, value, sweep in (("--t", args.t, args.sweep_t),
                               ("--T", args.T, args.sweep_T)):
        if value is not None and sweep:
            raise ConfigError(f"{flag} is not run when --sweep-{flag[2:]} "
                              "is given; pass one of them")
    cfg = ExperimentConfig(
        corpus_path=args.corpus, queries_path=args.queries,
        **_pipeline_settings(args), k=args.k, **_refine_settings(args),
        t_sweep=args.sweep_t, T_sweep=args.sweep_T,
        ablation=args.ablation, merge=args.merge_views,
        report_path=args.report, trace_path=args.trace, seed=args.seed,
        timing=args.timing)
    report = run_experiment(cfg)
    for row in report["rows"]:
        hits = " ".join(f"hits@{k}={v:.4f}" for k, v in row["hits"].items())
        mrr = " ".join(f"mrr@{k}={v:.4f}" for k, v in row["mrr"].items())
        print(f"t={row['t']} T={row['T']} {hits} {mrr}")
    return 0


def _cmd_stats(args) -> int:
    stats = termination_stats([tr for _, tr in read_jsonl(args.trace)])
    for reason, share in stats.items():
        print(f"{reason}\t{share:.4f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"build-index": _cmd_build_index, "retrieve": _cmd_retrieve,
                "run": _cmd_run, "stats": _cmd_stats}
    try:
        return handlers[args.command](args)
    except (GentrievalError, OSError, UnicodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
