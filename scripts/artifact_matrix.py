#!/usr/bin/env python3
"""Write every CLI artifact of a fixed experiment matrix into one directory.

The matrix is {trie, fm_index, term_set} strategies x {standard, direct_cot,
r4r with an accepting reasoner, r4r with a reasoner that rejects for three
rounds, and that rejecting r4r under each of the `no_context`,
`no_explanation` and `no_verification` ablations and under all three, r4r
with a reasoner whose rules use every match mode} x
{merge, no merge} x {path-only index, `--views ngram` index}, plus
{trie, fm_index} x {standard, accepting r4r} without merge on a `--levels 8`
index, whose docids run 8 to 12 tokens and make the `fm_index` automaton
clone a quarter of its states, over `make_toy_data.py --docs 400 --queries
12 --seed 5` data. For each cell it keeps the `run` report, trace and
stdout, plus `retrieve` output for the first two queries, with the cell's
reasoner where it has one. Two checkouts that rank identically give
trees that `diff -r` finds equal, so an exactness claim is checked by
running

    python scripts/artifact_matrix.py --out /tmp/new

here and, with --out /tmp/old, in a checkout of the parent commit that has
this script copied in, then `diff -r /tmp/old /tmp/new`.

The `gentrieval` package is imported from this checkout's `src/`. Paths in
the artifacts are relative to --out, so the tree does not depend on where
it was written.
"""

import argparse
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gentrieval.cli import main as cli_main  # noqa: E402
from gentrieval.reasoning import PromptRegistry  # noqa: E402

STRATEGIES = ("trie", "fm_index", "term_set")
# Reasoner rules per r4r variant; first match wins. The accepting one has
# no think rule, so think falls back to the raw query; the rejecting one
# thinks with two different channels, so that each ablation shows.
REASONERS = {
    "r4r-accept": [{"match": "Candidate identifier: ",
                    "response": "relevant"}],
    "r4r-reject": [{"match": "naming what the query points to",
                    "response": "<context>overview digest</context>"
                                "<explanation>bulletin notes</explanation>"},
                   {"match": "Candidate identifier: ",
                    "response": "irrelevant"},
                   {"match": "Irrelevant identifier: ",
                    "response": "<context>report summary</context>"
                                "<explanation>avoid the last docid"
                                "</explanation>"}],
}
PIPELINES = {"standard": (), "direct_cot": (),
             "r4r-accept": ("--T", "3"), "r4r-reject": ("--T", "3"),
             "r4r-modes": ("--T", "3")}
# Ablation cells: the rejecting r4r with these --ablation flags.
ABLATIONS = {"r4r-no_context": "no_context",
             "r4r-no_explanation": "no_explanation",
             "r4r-no_verification": "no_verification",
             "r4r-ablate_all": "no_context,no_explanation,no_verification"}
PIPELINES.update({cell: ("--T", "3", "--ablation", flags)
                  for cell, flags in ABLATIONS.items()})
# Per index: its build-index flags, then the strategies, pipelines and
# merge settings of its cells. The deep index runs four cells only, so the
# matrix stays quick.
INDEXES = {"path": ((), STRATEGIES, tuple(PIPELINES), (False, True)),
           "ngram": (("--views", "ngram"), STRATEGIES, tuple(PIPELINES),
                     (False, True)),
           "deep": (("--levels", "8"), ("trie", "fm_index"),
                    ("standard", "r4r-accept"), (False,))}
RETRIEVED_QUERIES = 2


def modes_reasoner(texts: list[str]) -> list[dict]:
    """Reasoner rules for the r4r-modes cell, which run every match mode
    through the CLI: an exact think prompt for the first query, prefix
    rules for the other think prompts and for the verdict, and contains
    rules cut mid-word that accept the second query and reflect."""
    think = PromptRegistry.default().render("P_t", query=texts[0])
    return [{"match": think, "match_type": "exact",
             "response": "<context>report summary</context>"
                         "<explanation>bulletin notes</explanation>"},
            {"match": "You are a retrieval assistant. Read the query",
             "match_type": "prefix",
             "response": "<context>overview digest</context>"
                         "<explanation>bulletin notes</explanation>"},
            {"match": f"Query: {texts[1]}\nCandidate identif",
             "response": "relevant"},
            {"match": "You are a retrieval assistant. Judge whether",
             "match_type": "prefix", "response": "irrelevant"},
            {"match": "udged irrelevant to the qu",
             "response": "<context>report digest</context>"
                         "<explanation>avoid the last docid</explanation>"}]


def cli(argv: list[str], out: pathlib.Path) -> None:
    """Run one CLI command in this process and save its exit code, stdout
    and stderr to *out*."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    out.write_text(f"exit {code}\n--- stdout\n{stdout.getvalue()}"
                   f"--- stderr\n{stderr.getvalue()}", encoding="utf-8")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--docs", type=int, default=400,
                    help="corpus size passed to make_toy_data.py")
    args = ap.parse_args()

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    subprocess.run([sys.executable, str(ROOT / "scripts" / "make_toy_data.py"),
                    "--out", "data", "--docs", str(args.docs),
                    "--queries", "12", "--seed", "5"],
                   check=True, capture_output=True)
    with open("data/queries.jsonl", encoding="utf-8") as fh:
        texts = [json.loads(line)["text"] for line in fh]
    reasoners = {**REASONERS, "r4r-modes": modes_reasoner(texts)}
    for name, rules in reasoners.items():
        pathlib.Path("data", f"{name}.json").write_text(
            json.dumps(rules, indent=2) + "\n", encoding="utf-8")

    for index_name, (build_args, strategies, pipelines, merges) \
            in INDEXES.items():
        index = f"data/index-{index_name}.json"
        cli(["build-index", "--corpus", "data/corpus.jsonl", "--out", index,
             *build_args], pathlib.Path(f"data/build-{index_name}.txt"))
        for strategy in strategies:
            for pipeline in pipelines:
                extra = PIPELINES[pipeline]
                for merge in merges:
                    cell = pathlib.Path(index_name, strategy, pipeline
                                        + ("-merge" if merge else ""))
                    cell.mkdir(parents=True, exist_ok=True)
                    common = ["--index", index, "--strategy", strategy,
                              "--pipeline", pipeline.split("-")[0],
                              "--model", "ngram",
                              "--train-queries", "data/queries.jsonl",
                              *extra, *(["--merge-views"] if merge else [])]
                    rules = ("r4r-reject" if pipeline in ABLATIONS
                             else pipeline)
                    reasoner = ([] if rules not in reasoners else
                                ["--reason-model", f"data/{rules}.json"])
                    cli(["run", *common, *reasoner,
                         "--corpus", "data/corpus.jsonl",
                         "--queries", "data/queries.jsonl",
                         "--report", str(cell / "report.json"),
                         "--trace", str(cell / "trace.jsonl")],
                        cell / "run.txt")
                    for i, text in enumerate(texts[:RETRIEVED_QUERIES]):
                        cli(["retrieve", *common, *reasoner, "--query", text],
                            cell / f"retrieve-{i}.txt")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
