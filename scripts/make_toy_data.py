#!/usr/bin/env python3
"""Generate a small synthetic corpus, query file, and scripted reasoner.

Each document is dominated by one distinctive keyword, so the residual-
quantization path docids are predictable. The emitted files plug straight
into the `gentrieval` CLI; the README's toy experiment is this sequence,
which compares the standard pipeline with the refine loop over a t/T
sweep::

    python scripts/make_toy_data.py --out data/
    gentrieval build-index --corpus data/corpus.jsonl --out data/index.json \
        --levels 1 --branching 40
    gentrieval run --index data/index.json --corpus data/corpus.jsonl \
        --queries data/queries.jsonl --model ngram \
        --train-queries data/queries.jsonl --pipeline standard \
        --report data/report-standard.json
    gentrieval run --index data/index.json --corpus data/corpus.jsonl \
        --queries data/queries.jsonl --model ngram \
        --train-queries data/queries.jsonl --pipeline r4r \
        --reason-model data/reasoner.json --sweep-t 1,3 --sweep-T 1,3 \
        --report data/report-r4r.json --trace data/trace-r4r.jsonl
    gentrieval stats --trace data/trace-r4r.jsonl
"""

import argparse
import json
import pathlib
import random

FILLER = ("report summary overview notes archive digest record entry "
          "bulletin memo").split()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="data", help="output directory")
    ap.add_argument("--docs", type=int, default=40)
    ap.add_argument("--queries", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    keywords = [f"topic{i:03d}" for i in range(args.docs)]
    with open(out / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for i, kw in enumerate(keywords):
            words = [kw] * 3 + [rng.choice(FILLER) for _ in range(5)]
            rng.shuffle(words)
            fh.write(json.dumps({"id": f"d{i:03d}",
                                 "text": " ".join(words)}) + "\n")

    with open(out / "queries.jsonl", "w", encoding="utf-8") as fh:
        for i in range(args.queries):
            doc = rng.randrange(args.docs)
            fh.write(json.dumps({
                "qid": f"q{i:03d}",
                "text": f"{keywords[doc]} {rng.choice(FILLER)}",
                "relevant": [f"d{doc:03d}"]}) + "\n")

    # A permissive scripted reasoner: every verified candidate is accepted,
    # so the refine loop terminates after its first round.
    with open(out / "reasoner.json", "w", encoding="utf-8") as fh:
        json.dump([{"match": "Candidate identifier: ",
                    "response": "relevant"}], fh, indent=2)
        fh.write("\n")

    print(f"wrote {out}/corpus.jsonl ({args.docs} docs), "
          f"{out}/queries.jsonl ({args.queries} queries), {out}/reasoner.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
