import json
import math
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, strategies as st

from gentrieval.corpus import END, SEP, Vocabulary
from gentrieval.errors import (MissingEnd, NotSupported, RemoteUnavailable,
                               UnknownToken)
from gentrieval.lm import (FLOOR_LOGPROB, GenerationRequest, NgramModel,
                           RemoteModel, ScriptedModel, sequence_logprob)

from conftest import TOY_DIST_RULES, TOY_EXTRA_WORDS, TOY_SURFACES, make_index


def toy_model():
    index = make_index(TOY_SURFACES, TOY_EXTRA_WORDS)
    return ScriptedModel(index.vocab, dist_rules=TOY_DIST_RULES), index


class TestScriptedGenerate:
    def rules_model(self, rules):
        return ScriptedModel(Vocabulary(), generate_rules=rules)

    def test_exact(self):
        m = self.rules_model([{"match": "ping", "match_type": "exact",
                               "response": "pong"}])
        assert m.generate(GenerationRequest("ping")) == "pong"
        assert m.generate(GenerationRequest("ping!")) == ""

    def test_prefix_and_contains(self):
        m = self.rules_model([
            {"match": "Q:", "match_type": "prefix", "response": "pre"},
            {"match": "needle", "match_type": "contains", "response": "found"},
        ])
        assert m.generate(GenerationRequest("Q: anything")) == "pre"
        assert m.generate(GenerationRequest("hay needle stack")) == "found"
        assert m.generate(GenerationRequest("nothing here")) == ""

    def test_first_match_wins(self):
        m = self.rules_model([
            {"match": "x", "response": "first"},
            {"match": "x", "response": "second"},
        ])
        assert m.generate(GenerationRequest("axb")) == "first"

    def test_stop_and_max_tokens(self):
        m = self.rules_model([{"match": "go", "response": "one two STOP three"}])
        assert m.generate(GenerationRequest("go", stop=("STOP",))) == "one two "
        assert m.generate(GenerationRequest("go", max_tokens=2)) == "one two"

    def test_from_file_bare_list(self, tmp_path):
        p = tmp_path / "rules.json"
        p.write_text(json.dumps([{"match": "a", "response": "b"}]))
        m = ScriptedModel.from_file(p, Vocabulary())
        assert m.generate(GenerationRequest("a")) == "b"

    def test_from_file_sections(self, tmp_path):
        p = tmp_path / "rules.json"
        p.write_text(json.dumps({
            "generate": [{"match": "a", "response": "b"}],
            "distributions": TOY_DIST_RULES,
        }))
        index = make_index(TOY_SURFACES, TOY_EXTRA_WORDS)
        m = ScriptedModel.from_file(p, index.vocab)
        assert m.generate(GenerationRequest("a")) == "b"
        assert len(m.dist_rules) == len(TOY_DIST_RULES)


class TestScriptedDistribution:
    def test_rule_probs(self):
        m, index = toy_model()
        food = index.vocab.id_of("food")
        apple = index.vocab.id_of("apple")
        banana = index.vocab.id_of("banana")
        dist = m.next_token_distribution([food])
        assert dist[apple] == pytest.approx(math.log(0.6))
        assert dist[banana] == pytest.approx(math.log(0.4))
        assert dist[food] == FLOOR_LOGPROB

    def test_end_alias(self):
        m, index = toy_model()
        apple = index.vocab.id_of("apple")
        dist = m.next_token_distribution([apple])
        assert dist[END] == pytest.approx(0.0)

    def test_suffix_match(self):
        # The ["food"] rule matches any context ending in "food".
        m, index = toy_model()
        tech = index.vocab.id_of("tech")
        food = index.vocab.id_of("food")
        apple = index.vocab.id_of("apple")
        dist = m.next_token_distribution([tech, food])
        assert dist[apple] == pytest.approx(math.log(0.6))

    def test_empty_context_rule(self):
        m, index = toy_model()
        food = index.vocab.id_of("food")
        # "which" matches no specific rule; the [] rule catches it.
        which = index.vocab.id_of("which")
        dist = m.next_token_distribution([which])
        assert dist[food] == pytest.approx(math.log(0.7))

    def test_no_rule_uniform_minus_sep(self):
        index = make_index(TOY_SURFACES)
        m = ScriptedModel(index.vocab)
        v = len(index.vocab)
        dist = m.next_token_distribution([])
        assert dist[SEP] == FLOOR_LOGPROB
        probs = [math.exp(lp) for t, lp in dist.items() if t != SEP]
        assert len(probs) == v - 1
        assert sum(probs) == pytest.approx(1.0)

    def test_unknown_context_token(self):
        m, index = toy_model()
        with pytest.raises(UnknownToken):
            m.next_token_distribution([len(index.vocab)])

    def test_unknown_rule_word(self):
        index = make_index(TOY_SURFACES)
        m = ScriptedModel(index.vocab,
                          dist_rules=[{"context": [], "probs": {"xyzzy": 1.0}}])
        with pytest.raises(UnknownToken):
            m.next_token_distribution([])


class TestNgram:
    def test_add_one_by_hand(self):
        # Vocabulary: END, SEP, food, apple (V = 4). After one training pair
        # the context (food,) has seen apple once, so P(apple | food)
        # = (1 + 1) / (1 + 4) = 2/5 and every other token gets 1/5.
        vocab = Vocabulary()
        food, apple = vocab.encode("food apple", on_unknown="grow")
        m = NgramModel(vocab, order=3)
        m.train_pair([food], [apple, END])
        dist = m.next_token_distribution([food])
        assert dist[apple] == pytest.approx(math.log(2 / 5))
        assert dist[food] == pytest.approx(math.log(1 / 5))
        assert dist[END] == pytest.approx(math.log(1 / 5))

    def test_untrained_uniform(self):
        vocab = Vocabulary()
        vocab.encode("a b c", on_unknown="grow")
        m = NgramModel(vocab)
        dist = m.next_token_distribution([])
        assert all(lp == pytest.approx(math.log(1 / 5)) for lp in dist.values())

    def test_memorizes_target(self):
        vocab = Vocabulary()
        prompt_ids = vocab.encode("query apple calories", on_unknown="grow")
        target_ids = vocab.encode("food apple", on_unknown="grow") + [END]
        vocab.encode("tech banana distractor words", on_unknown="grow")
        m = NgramModel(vocab, order=3)
        for _ in range(3):
            m.train_pair(prompt_ids, target_ids)
        out = m.generate(GenerationRequest("query apple calories"))
        assert out == "food apple"

    def test_unknown_context_token(self):
        vocab = Vocabulary()
        vocab.encode("a", on_unknown="grow")
        with pytest.raises(UnknownToken):
            NgramModel(vocab).next_token_distribution([99])

    @given(st.lists(st.integers(min_value=0, max_value=4), max_size=6),
           st.lists(st.lists(st.integers(min_value=0, max_value=4), min_size=1,
                             max_size=5), max_size=4))
    def test_distribution_normalized(self, ctx, training):
        vocab = Vocabulary()
        vocab.encode("a b c", on_unknown="grow")  # ids 0..4 valid
        m = NgramModel(vocab, order=3)
        for seq in training:
            m.train_pair(seq[:1], seq[1:] + [END])
        dist = m.next_token_distribution(ctx)
        assert sum(math.exp(lp) for lp in dist.values()) == pytest.approx(1.0)


class TestSequenceLogprob:
    def test_toy_path(self):
        # P(food) * P(apple|food) * P(end|apple) = 0.7 * 0.6 * 1.0
        m, index = toy_model()
        target = [t for t in index.by_doc["d1"][0].tokens]
        lp = sequence_logprob(m, [], target)
        assert lp == pytest.approx(math.log(0.42))

    def test_prompt_shifts_distribution(self):
        m, index = toy_model()
        calories = index.vocab.id_of("calories")
        target = list(index.by_doc["d1"][0].tokens)
        lp = sequence_logprob(m, [calories], target)
        assert lp == pytest.approx(math.log(0.9 * 0.6))

    def test_missing_end(self):
        m, index = toy_model()
        with pytest.raises(MissingEnd):
            sequence_logprob(m, [], list(index.by_doc["d1"][0].tokens)[:-1])
        with pytest.raises(MissingEnd):
            sequence_logprob(m, [], [])

    def test_model_without_distributions(self):
        class GenOnly:
            def generate(self, req):
                return ""
        with pytest.raises(NotSupported):
            sequence_logprob(GenOnly(), [], [END])

    def test_matches_stepwise_ngram(self):
        vocab = Vocabulary()
        ids = vocab.encode("u v w", on_unknown="grow")
        m = NgramModel(vocab, order=2)
        m.train_pair([ids[0]], [ids[1], ids[2], END])
        target = [ids[1], ids[2], END]
        expected = 0.0
        ctx = [ids[0]]
        for t in target:
            expected += m.next_token_distribution(ctx)[t]
            ctx.append(t)
        assert sequence_logprob(m, [ids[0]], target) == pytest.approx(expected)


class _Handler(BaseHTTPRequestHandler):
    fail_5xx = False
    reply: tuple[int, bytes] | None = None  # fixed (status, body) override

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length) or b"{}")
        if self.fail_5xx:
            self.send_response(503)
            self.end_headers()
            return
        if self.reply is not None:
            self.send_response(self.reply[0])
            self.end_headers()
            self.wfile.write(self.reply[1])
            return
        if self.path == "/generate":
            body = json.dumps({"text": "echo: " + payload.get("prompt", "")})
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(body.encode())
        else:
            self.send_response(404)
            self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture
def http_endpoint():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.fail_5xx = False
    _Handler.reply = None
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        thread.join()


class TestRemote:
    def test_generate_round_trip(self, http_endpoint):
        m = RemoteModel(base_url=http_endpoint)
        assert m.generate(GenerationRequest("hi")) == "echo: hi"

    def test_logprobs_not_supported(self, http_endpoint):
        m = RemoteModel(base_url=http_endpoint)
        with pytest.raises(NotSupported):
            m.next_token_distribution([1, 2])

    def test_server_errors_exhaust_retries(self, http_endpoint):
        _Handler.fail_5xx = True
        m = RemoteModel(base_url=http_endpoint, max_retries=1)
        with pytest.raises(RemoteUnavailable):
            m.generate(GenerationRequest("hi"))

    @pytest.mark.parametrize("reply", [
        (200, b"not json"), (200, b'{"txt": "hi"}'), (200, b"[1]"),
        (200, b'{"text": null}'), (400, b"")])
    def test_malformed_response_is_typed(self, http_endpoint, reply):
        _Handler.reply = reply
        m = RemoteModel(base_url=http_endpoint, max_retries=0)
        with pytest.raises(RemoteUnavailable):
            m.generate(GenerationRequest("hi"))

    def test_negative_retries_rejected(self, http_endpoint):
        with pytest.raises(ValueError):
            RemoteModel(base_url=http_endpoint, max_retries=-1)

    def test_no_endpoint_configured(self, monkeypatch):
        monkeypatch.delenv("GENTRIEVAL_REMOTE_URL", raising=False)
        with pytest.raises(RemoteUnavailable):
            RemoteModel()

    def test_env_fallback(self, http_endpoint, monkeypatch):
        monkeypatch.setenv("GENTRIEVAL_REMOTE_URL", http_endpoint)
        m = RemoteModel()
        assert m.base_url == http_endpoint
