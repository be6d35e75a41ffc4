#!/usr/bin/env python3
"""End-to-end toy experiment: build an index, train an n-gram retriever on
the query file, and compare the standard pipeline against the iterative
refine loop (with a verify-depth / round-budget sweep).

    python scripts/make_toy_data.py --out data/
    python scripts/run_toy_experiment.py --data data/
"""

import argparse
import pathlib

from gentrieval.corpus import load_corpus, load_queries
from gentrieval.docid import build_index
from gentrieval.evaluation import ExperimentConfig, run_experiment
from gentrieval.reasoning import DEFAULT_PROMPTS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--data", default="data", help="directory produced by "
                    "make_toy_data.py")
    ap.add_argument("--strategy", default="trie",
                    choices=["trie", "fm_index", "term_set"])
    ap.add_argument("--k", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    data = pathlib.Path(args.data)
    corpus = load_corpus(data / "corpus.jsonl")
    queries_path = data / "queries.jsonl"
    query_texts = [q.text for q in load_queries(queries_path)]

    index = build_index(
        corpus, levels=1, branching=len(corpus), dim=64, seed=args.seed,
        extra_vocab_texts=list(DEFAULT_PROMPTS.values()) + query_texts)
    index_path = data / "index.json"
    index.save(index_path)
    print(f"index: {len(index.records)} docids over {len(corpus)} docs")

    common = dict(
        corpus_path=str(data / "corpus.jsonl"),
        queries_path=str(queries_path),
        index_path=str(index_path),
        strategy=args.strategy, k=args.k,
        hits_ks=(1, 5), mrr_ks=(5,),
        ngram_train_queries_path=str(queries_path),
        reason_model_path=str(data / "reasoner.json"),
        seed=args.seed)

    for pipeline, sweeps in (("standard", {}),
                             ("r4r", {"t_sweep": (1, 3), "T_sweep": (1, 3)})):
        report = run_experiment(ExperimentConfig(
            pipeline=pipeline,
            report_path=str(data / f"report-{pipeline}.json"),
            trace_path=(str(data / "trace-r4r.jsonl")
                        if pipeline == "r4r" else None),
            **common, **sweeps))
        for row in report["rows"]:
            hits = " ".join(f"hits@{k}={v:.3f}" for k, v in row["hits"].items())
            print(f"{pipeline:9s} t={row['t']} T={row['T']} {hits} "
                  f"mrr@5={row['mrr']['5']:.3f}")
    print(f"reports written to {data}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
