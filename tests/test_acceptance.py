"""Acceptance gate: nine end-to-end checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
"""

import functools
import json
import random

import numpy as np
import pytest

from gentrieval.cli import main as cli_main
from gentrieval.constraint import (FmIndexAutomaton, TermSetAutomaton,
                                   TrieAutomaton)
from gentrieval.corpus import END, Corpus, Document, Query
from gentrieval.decode import constrained_beam_search
from gentrieval.docid import build_index, build_rq_hierarchy
from gentrieval.errors import NotTerminal
from gentrieval.evaluation import hits_at_k, mrr_at_k, nll_losses
from gentrieval.fm_index import SequenceFMIndex
from gentrieval.lm import NgramModel, ScriptedModel, sequence_logprob
from gentrieval.orchestrator import (REASON_ALL_RELEVANT,
                                     REASON_BUDGET_EXHAUSTED,
                                     REASON_PARSE_FAILURE, RefineConfig,
                                     run_r4r, run_standard)
from gentrieval.reasoning import DEFAULT_PROMPTS, PromptRegistry

from conftest import (TOY_DIST_RULES, TOY_EXTRA_WORDS, TOY_SURFACES,
                      TableModel, enumerate_accepted, make_index,
                      random_record_index, random_text_corpus,
                      reconstruction_error, ref_path_to, sep_joined,
                      sorted_rows)


def verdict(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{label}: FAIL")
                raise
            print(f"{label}: PASS")
        return wrapper
    return deco


# --------------------------------------------------------------------------
# 1. FM-index and the fm_index automaton vs naive scans on 1,000 random docid
#    corpora.

def naive_count(seq, pattern):
    return sum(1 for i in range(len(seq) - len(pattern) + 1)
               if seq[i:i + len(pattern)] == pattern)


def naive_followers(seq, pattern):
    return {seq[i + len(pattern)] for i in range(len(seq) - len(pattern))
            if seq[i:i + len(pattern)] == pattern}


def naive_ends(seq, pattern):
    return [i + len(pattern) - 1 for i in range(len(seq) - len(pattern) + 1)
            if seq[i:i + len(pattern)] == pattern]


def naive_spans(index):
    """Every span of every body, the empty one included: the tokens that
    follow it somewhere and the records whose body it ends, in index
    order."""
    spans = {(): (set(), [])}
    for rec in index.records:
        body = rec.tokens[:-1]
        for i in range(len(body)):
            for j in range(i + 1, len(body) + 1):
                follow, ends = spans.setdefault(body[i:j], (set(), []))
                if j < len(body):
                    follow.add(body[j])
                else:
                    ends.append(rec)
        spans[()][0].update(body)
    return spans


@verdict("acceptance 1 (fm-index oracle, 1000 corpora)")
def test_acceptance_1_fm_index_oracle():
    rng = random.Random(101)
    for _ in range(1000):
        n_records = rng.randint(1, 200)
        vocab_words = rng.randint(2, 50)
        index = random_record_index(rng, n_records, vocab_words)
        joined = sep_joined(index)
        sfm = SequenceFMIndex(joined)
        patterns = []
        for _ in range(6):  # substrings guaranteed to occur
            length = rng.randint(1, 5)
            start = rng.randint(0, len(joined) - 1)
            patterns.append(joined[start:start + length])
        for _ in range(6):  # random patterns, usually absent
            length = rng.randint(1, 5)
            patterns.append([rng.randint(2, 2 + vocab_words)
                             for _ in range(length)])
        for pattern in patterns:
            assert sfm.occurrences(pattern) == naive_count(joined, pattern)
            win = sfm.start()
            for t in pattern:
                win = sfm.extend(win, t)
            if sfm.count(win) > 0:
                assert sfm.followers(win) == naive_followers(joined, pattern)
                assert sorted(sfm.locate(win)) == naive_ends(joined, pattern)
        # The automaton: at every state that some span reaches, allowed,
        # end_ok and complete equal the scan; no other emission is allowed.
        spans = naive_spans(index)
        a = FmIndexAutomaton(index)
        reached = set()
        stack = [(a.start(), ())]
        while stack:
            state, emitted = stack.pop()
            reached.add(emitted)
            follow, ends = spans[emitted]
            allowed, end_ok = a.allowed(state)
            assert list(allowed) == sorted(follow)
            assert end_ok == bool(emitted and ends)
            if end_ok:
                assert a.complete(state) == tuple(ends)
            else:
                with pytest.raises(NotTerminal):
                    a.complete(state)
            stack.extend((a.step(state, t), emitted + (t,)) for t in allowed)
        assert reached == set(spans)


# --------------------------------------------------------------------------
# 2. Beam exactness vs exhaustive enumeration for all three strategies.

@verdict("acceptance 2 (beam search equals exhaustive ranking)")
def test_acceptance_2_beam_exactness():
    rng = random.Random(202)

    def check(index, automaton, width, max_len):
        model = TableModel(len(index.vocab), seed=rng.randint(0, 10 ** 9))
        hyps = constrained_beam_search(model, [], automaton, width)
        oracle = sorted(
            ((sequence_logprob(model, [], list(seq)), seq)
             for seq, _ in enumerate_accepted(automaton, max_len)),
            key=lambda e: (-e[0], e[1]))
        assert [h.tokens for h in hyps] == [s for _, s in oracle[:width]]
        for h, (score, _) in zip(hyps, oracle):
            assert h.score == pytest.approx(score)

    # Trie: one live prefix per record per depth, so beam = record count is
    # already exhaustive.
    for _ in range(100):
        index = random_record_index(rng, rng.randint(2, 64), 8)
        check(index, TrieAutomaton(index), len(index.records), 4)
    # The other automata accept strictly more prefixes (suffix entry points,
    # permutations), so exactness is checked at unpruned width.
    for _ in range(50):
        index = random_record_index(rng, rng.randint(2, 8), 5, max_len=3)
        check(index, FmIndexAutomaton(index), 4000, 3)
    for _ in range(50):
        index = random_record_index(rng, rng.randint(2, 8), 5, max_len=3)
        check(index, TermSetAutomaton(index), 4000, 3)


# --------------------------------------------------------------------------
# 3. Residual-quantization assignments vs brute-force nearest centroid.

@verdict("acceptance 3 (rq assignments are nearest-centroid; residual monotone)")
def test_acceptance_3_rq_oracle():
    rng = np.random.default_rng(303)
    for trial in range(100):
        n = int(rng.integers(4, 40))
        dim = int(rng.integers(2, 10))
        vectors = {f"d{i:02d}": rng.normal(size=dim) for i in range(n)}
        levels = int(rng.integers(1, 4))
        branching = int(rng.integers(2, 5))
        roots = build_rq_hierarchy(*sorted_rows(vectors), levels=levels,
                                   branching=branching)
        for key, vec in vectors.items():
            residual = np.asarray(vec, dtype=float)
            siblings = roots
            for node in ref_path_to(roots, key):
                # Keyed by identity: every node is alive while d2 is.
                d2 = {id(n_): float(np.sum((residual - n_.centroid) ** 2))
                      for n_ in siblings}
                assert d2[id(node)] <= min(d2.values()) + 1e-9
                residual = residual - node.centroid
                siblings = node.children
        if trial % 5 == 0:
            rows = sorted_rows(vectors)
            errs = [reconstruction_error(
                build_rq_hierarchy(*rows, levels=lv, branching=branching),
                *rows) for lv in (1, 2, 3)]
            assert errs[0] >= errs[1] - 1e-9 >= errs[2] - 2e-9


# --------------------------------------------------------------------------
# 4. Path-surface uniqueness over 100 random builds.

@verdict("acceptance 4 (100 builds, all path surfaces distinct)")
def test_acceptance_4_docid_uniqueness():
    rng = random.Random(404)
    for _ in range(100):
        corpus = random_text_corpus(rng, rng.randint(3, 50),
                                    vocab_words=rng.randint(10, 60))
        index = build_index(corpus, levels=rng.randint(1, 3),
                            branching=rng.randint(2, 6), dim=16)
        surfaces = [r.surface for r in index.records if r.view == "path"]
        assert len(surfaces) == len(corpus)
        assert len(surfaces) == len(set(surfaces))


# --------------------------------------------------------------------------
# 5. Refine-loop conformance: all three termination categories, exact lists.

QUERY = Query(query_id="q1", text="which fruit calories",
              relevant_keys=frozenset({"d1"}))
THINK_RULE = {
    "match": "naming what the query points to",
    "response": "<context>company details</context>"
                "<explanation>sounds corporate</explanation>",
}
REFLECT_TECH_RULE = {
    "match": "Irrelevant identifier: tech-apple",
    "response": "<context>fruit calories</context>"
                "<explanation>calorie question</explanation>",
}


def run_scripted_loop(rules, verify_depth=2, round_budget=3):
    index = make_index(TOY_SURFACES, TOY_EXTRA_WORDS)
    model = ScriptedModel(index.vocab, generate_rules=rules,
                          dist_rules=TOY_DIST_RULES)
    return run_r4r(QUERY, model, model, TrieAutomaton(index),
                   index, PromptRegistry.default(),
                   3,
                   RefineConfig(verify_depth=verify_depth,
                                round_budget=round_budget))


@verdict("acceptance 5 (refine-loop termination categories)")
def test_acceptance_5_loop_conformance():
    # all_relevant: tech-apple rejected in round 1, reflected context
    # promotes food-apple, both verified slots relevant in round 2.
    result = run_scripted_loop([
        THINK_RULE,
        {"match": "Candidate identifier: tech-apple", "response": "irrelevant"},
        {"match": "Candidate identifier: ", "response": "relevant"},
        REFLECT_TECH_RULE,
    ])
    assert result.reason == REASON_ALL_RELEVANT
    assert result.rounds_used == 2
    assert result.ranked.doc_keys() == ["d1", "d3", "d2"]
    assert [e["doc"] for e in result.trace[0]["topk"]] == ["d2", "d1", "d3"]
    assert result.trace[0]["judgments"] == ["irrelevant"]  # short-circuit at 1
    assert result.trace[0]["j_hat"] == 1
    assert result.trace[1]["judgments"] == ["relevant", "relevant"]
    assert result.trace[1]["j_hat"] == 0

    # parse_failure: reflection never yields tagged blocks.
    result = run_scripted_loop([
        THINK_RULE,
        {"match": "Candidate identifier: tech-apple", "response": "irrelevant"},
        {"match": "Candidate identifier: ", "response": "relevant"},
        {"match": "Irrelevant identifier:", "response": "no tags"},
    ])
    assert result.reason == REASON_PARSE_FAILURE
    assert result.rounds_used == 1
    assert result.ranked.doc_keys() == ["d2", "d1", "d3"]

    # budget_exhausted: the verifier never accepts anything.
    result = run_scripted_loop([
        THINK_RULE,
        {"match": "Candidate identifier: ", "response": "irrelevant"},
        REFLECT_TECH_RULE,
        {"match": "Irrelevant identifier:",
         "response": "<context>fruit calories</context>"
                     "<explanation>still trying</explanation>"},
    ])
    assert result.reason == REASON_BUDGET_EXHAUSTED
    assert result.rounds_used == 3
    assert all(rt["judgments"] == ["irrelevant"] and rt["j_hat"] == 1
               for rt in result.trace)


# --------------------------------------------------------------------------
# 6. Metric oracle: 20 fixed cases plus 1,000 random monotonicity sets.

def ranked_with_relevant_at(rank):
    """Ten-candidate list with the gold doc at `rank` (None = absent)."""
    keys = [f"f{i}" for i in range(10)]
    if rank is not None:
        keys[rank - 1] = "gold"
    return make_ranked(keys)


def make_ranked(keys):
    from gentrieval.decode import Candidate, RankedList
    from gentrieval.docid import DocIdRecord
    return RankedList([
        Candidate(DocIdRecord(k, (END,), k, "path"), -float(i))
        for i, k in enumerate(keys)])


# (gold rank, hits@1, hits@5, hits@20, mrr@10) -- written out by hand.
FIXED_CASES = [
    (1, 1.0, 1.0, 1.0, 1.0),
    (2, 0.0, 1.0, 1.0, 1 / 2),
    (3, 0.0, 1.0, 1.0, 1 / 3),
    (4, 0.0, 1.0, 1.0, 1 / 4),
    (5, 0.0, 1.0, 1.0, 1 / 5),
    (6, 0.0, 0.0, 1.0, 1 / 6),
    (7, 0.0, 0.0, 1.0, 1 / 7),
    (8, 0.0, 0.0, 1.0, 1 / 8),
    (9, 0.0, 0.0, 1.0, 1 / 9),
    (10, 0.0, 0.0, 1.0, 1 / 10),
    (None, 0.0, 0.0, 0.0, 0.0),
    (1, 1.0, 1.0, 1.0, 1.0),
    (None, 0.0, 0.0, 0.0, 0.0),
    (2, 0.0, 1.0, 1.0, 1 / 2),
    (6, 0.0, 0.0, 1.0, 1 / 6),
    (None, 0.0, 0.0, 0.0, 0.0),
    (3, 0.0, 1.0, 1.0, 1 / 3),
    (10, 0.0, 0.0, 1.0, 1 / 10),
    (5, 0.0, 1.0, 1.0, 1 / 5),
    (1, 1.0, 1.0, 1.0, 1.0),
]


@verdict("acceptance 6 (metric oracle + monotonicity)")
def test_acceptance_6_metric_oracle():
    assert len(FIXED_CASES) == 20
    for rank, h1, h5, h20, m10 in FIXED_CASES:
        runs = [(ranked_with_relevant_at(rank), frozenset({"gold"}))]
        assert hits_at_k(runs, 1) == pytest.approx(h1)
        assert hits_at_k(runs, 5) == pytest.approx(h5)
        assert hits_at_k(runs, 20) == pytest.approx(h20)
        assert mrr_at_k(runs, 10) == pytest.approx(m10)
    # Aggregate over all 20 at once.
    runs = [(ranked_with_relevant_at(r), frozenset({"gold"}))
            for r, *_ in FIXED_CASES]
    assert hits_at_k(runs, 1) == pytest.approx(
        sum(c[1] for c in FIXED_CASES) / 20)
    assert mrr_at_k(runs, 10) == pytest.approx(
        sum(c[4] for c in FIXED_CASES) / 20)

    rng = random.Random(606)
    pool = [f"d{i}" for i in range(8)]
    for _ in range(1000):
        runs = []
        for _ in range(rng.randint(1, 4)):
            keys = rng.sample(pool, rng.randint(1, 8))
            rel = frozenset(rng.sample(pool, rng.randint(0, 3)))
            runs.append((make_ranked(keys), rel))
        prev = 0.0
        for k in (1, 2, 4, 8):
            cur = hits_at_k(runs, k)
            assert cur >= prev - 1e-12
            assert mrr_at_k(runs, k) <= cur + 1e-12
            prev = cur


# --------------------------------------------------------------------------
# 7. Constructed refinement gain on a 200-doc adversarial suite.

@verdict("acceptance 7 (refinement beats standard by >= 20 points)")
def test_acceptance_7_refinement_gain():
    n_docs, n_queries = 200, 50
    key_words = [f"doc{i:03d}key" for i in range(n_docs)]
    query_words = [f"ask{i:03d}word" for i in range(n_queries)]
    corpus = Corpus([Document(f"d{i:03d}", f"{key_words[i]} z{i:03d}pad")
                     for i in range(n_docs)])
    index = build_index(
        corpus, levels=1, branching=n_docs, dim=64,
        extra_vocab_texts=list(DEFAULT_PROMPTS.values()) + query_words)
    by_doc_surface = {k: recs[0].surface for k, recs in index.by_doc.items()}
    assert len(set(by_doc_surface.values())) == n_docs

    queries = [Query(f"q{i:03d}", query_words[i], frozenset({f"d{i:03d}"}))
               for i in range(n_queries)]
    reg = PromptRegistry.default()

    # n-gram retriever taught three prompt shapes per query: without the gold
    # context (or with the raw query as context) it produces a wrong docid;
    # with the gold keyword as context it produces the gold docid.
    retriever = NgramModel(index.vocab)

    def teach(prompt, surface):
        target = index.vocab.encode(surface, on_unknown="grow") + [END]
        for _ in range(3):
            retriever.train_pair(
                index.vocab.encode(prompt, on_unknown="skip"), target)

    base = reg.render("P_r") + "\nQuery: "
    for i, q in enumerate(queries):
        wrong = by_doc_surface[f"d{(i + 60) % n_docs:03d}"]
        gold = by_doc_surface[f"d{i:03d}"]
        teach(base + q.text, wrong)
        teach(base + q.text + "\nContext: " + q.text, wrong)
        teach(base + q.text + "\nContext: " + gold, gold)

    # Scripted reasoner: thinking yields nothing parseable (so the loop falls
    # back to the raw query), the verifier only accepts the gold pairing, and
    # reflection injects the gold keyword as the new context.
    rules = []
    for i, q in enumerate(queries):
        gold = by_doc_surface[f"d{i:03d}"]
        rules.append({
            "match": f"Query: {q.text}\nCandidate identifier: {gold}",
            "response": "relevant"})
        rules.append({
            "match": f"Query: {q.text}\nIrrelevant identifier:",
            "response": f"<context>{gold}</context>"
                        f"<explanation>use the document keyword</explanation>"})
    rules.append({"match": "Candidate identifier: ", "response": "irrelevant"})
    reasoner = ScriptedModel(index.vocab, generate_rules=rules)

    automaton = TrieAutomaton(index)
    refine_cfg = RefineConfig(verify_depth=1, round_budget=3)

    std_runs, r4r_runs = [], []
    for q in queries:
        std_runs.append((run_standard(q, retriever, automaton, index, reg,
                                      20), q.relevant_keys))
        result = run_r4r(q, retriever, reasoner, automaton, index, reg, 20,
                         refine_cfg, timing=False)
        assert result.reason == REASON_ALL_RELEVANT
        assert result.rounds_used == 2
        r4r_runs.append((result.ranked, q.relevant_keys))

    std_hits = hits_at_k(std_runs, 1)
    r4r_hits = hits_at_k(r4r_runs, 1)
    assert std_hits == 0.0
    assert r4r_hits == 1.0
    assert r4r_hits - std_hits >= 0.20


# --------------------------------------------------------------------------
# 8. NLL sanity: training decreases loss; instruction mode scores the prompt
# that training and decoding encode.

@verdict("acceptance 8 (nll decreases with training; instruction prefix exact)")
def test_acceptance_8_nll_sanity():
    # "phrases", P_r's last word, is in the vocabulary, so a one-word query
    # read without the prompt's "Query:" line meets a context it was never
    # trained on.
    index = make_index(TOY_SURFACES, TOY_EXTRA_WORDS + ["phrases"])
    corpus = Corpus([Document("d1", "food apple calories fruit"),
                     Document("d2", "tech apple company details"),
                     Document("d3", "food banana fruit")])
    queries = [Query("q1", "which fruit calories", frozenset({"d1"})),
               Query("q2", "company details", frozenset({"d2"})),
               Query("q3", "fruit", frozenset({"d3"}))]
    pairs = [(q, next(iter(q.relevant_keys))) for q in queries]

    untrained = NgramModel(index.vocab)
    before = nll_losses(untrained, corpus, pairs, index)
    trained = NgramModel(index.vocab)
    pr = DEFAULT_PROMPTS["P_r"]
    for q, doc_key in pairs:
        prompt = index.vocab.encode(pr + "\nQuery: " + q.text,
                                    on_unknown="skip")
        for _ in range(5):
            trained.train_pair(prompt, list(index.by_doc[doc_key][0].tokens))
    after = nll_losses(trained, corpus, pairs, index)
    assert after.retrieval_loss < before.retrieval_loss

    # Instruction mode must equal the standard computation with the template
    # token-prepended: P_i and a newline before a document, and for a query
    # the retrieval prompt, P_r + "\nQuery: " + the query.
    scripted = ScriptedModel(index.vocab, dist_rules=TOY_DIST_RULES)
    for model in (scripted, trained):
        ins = nll_losses(model, corpus, pairs, index, mode="instruction")
        manual_idx = -sum(sequence_logprob(
            model,
            index.vocab.encode(DEFAULT_PROMPTS["P_i"] + "\n" + d.text,
                               on_unknown="skip"),
            list(index.by_doc[d.doc_key][0].tokens)) for d in corpus)
        manual_ret = -sum(sequence_logprob(
            model,
            index.vocab.encode(pr + "\nQuery: " + q.text, on_unknown="skip"),
            list(index.by_doc[doc_key][0].tokens)) for q, doc_key in pairs)
        assert ins.indexing_loss == manual_idx
        assert ins.retrieval_loss == manual_ret
    for q, _ in pairs:
        with_prefix = index.vocab.encode(pr + "\nQuery: " + q.text,
                                         on_unknown="skip")
        prefix = index.vocab.encode(pr + "\nQuery: ", on_unknown="skip")
        bare = index.vocab.encode(q.text, on_unknown="skip")
        assert with_prefix == prefix + bare


# --------------------------------------------------------------------------
# 9. Byte-identical CLI artifacts.

@verdict("acceptance 9 (cli byte-determinism)")
def test_acceptance_9_cli_determinism(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w") as fh:
        for row in [{"id": "d1", "text": "food apple calories fruit"},
                    {"id": "d2", "text": "tech apple company details"},
                    {"id": "d3", "text": "food banana fruit"}]:
            fh.write(json.dumps(row) + "\n")
    queries = tmp_path / "queries.jsonl"
    with open(queries, "w") as fh:
        for row in [{"qid": "q1", "text": "which fruit calories",
                     "relevant": ["d1"]},
                    {"qid": "q2", "text": "company details",
                     "relevant": ["d2"]}]:
            fh.write(json.dumps(row) + "\n")
    index = tmp_path / "index.json"
    make_index(TOY_SURFACES, TOY_EXTRA_WORDS).save(index)
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "generate": [{"match": "Candidate identifier: ",
                      "response": "relevant"}],
        "distributions": TOY_DIST_RULES,
    }))

    built = []
    for tag in ("a", "b"):
        out = tmp_path / f"built-{tag}.json"
        assert cli_main(["build-index", "--corpus", str(corpus),
                         "--out", str(out), "--levels", "2",
                         "--branching", "2"]) == 0
        built.append(out.read_bytes())
    assert built[0] == built[1]

    artifacts = []
    for tag in ("a", "b"):
        report = tmp_path / f"report-{tag}.json"
        trace = tmp_path / f"trace-{tag}.jsonl"
        assert cli_main([
            "run", "--corpus", str(corpus), "--queries", str(queries),
            "--index", str(index), "--model", str(model),
            "--reason-model", str(model), "--pipeline", "r4r",
            "--k", "3",
            "--report", str(report), "--trace", str(trace)]) == 0
        artifacts.append((report.read_bytes(), trace.read_bytes()))
    assert artifacts[0] == artifacts[1]
