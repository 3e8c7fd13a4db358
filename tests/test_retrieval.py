import math
import random
import struct

import numpy as np
import pytest

from umse.corpus import Corpus, build_vocab, gen_synthetic_corpus, make_document, tokenize
from umse.retrieval import (
    INDEX_MAGIC,
    _self_scores,
    bm25_score,
    build_index,
    load_index,
    most_similar,
    save_index,
)

import oracles


def _corpus_of(*texts):
    docs = tuple(make_document(f"d{i}", t, "") for i, t in enumerate(texts))
    return Corpus(documents=docs)


def _random_corpus(n_docs, seed, vocab_words=30, doc_len=(3, 12)):
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(vocab_words)]
    texts = [
        " ".join(rng.choice(words) for _ in range(rng.randint(*doc_len)))
        for _ in range(n_docs)
    ]
    return _corpus_of(*texts)


def _postings(index):
    """token -> [(doc ordinal, tf)], read off the index arrays."""
    return {
        int(token): [
            (int(o), int(tf))
            for o, tf in zip(index.ordinals[start:stop], index.tfs[start:stop])
        ]
        for token, start, stop in zip(index.terms, index.offsets[:-1], index.offsets[1:])
    }


def _doc_tokens(index, doc):
    """Distinct tokens of one document, ascending."""
    return sorted(t for t, plist in _postings(index).items() if any(o == doc for o, _ in plist))


class TestBuildIndex:
    def test_single_doc(self):
        corpus = _corpus_of("cat")
        index = build_index(corpus, build_vocab(corpus, 1))
        assert index.n_docs == 1
        assert index.avg_doc_len == 1.0
        assert index.doc_len == [1]

    def test_determinism(self):
        corpus = _random_corpus(20, seed=5)
        vocab = build_vocab(corpus, 1)
        a, b = build_index(corpus, vocab), build_index(corpus, vocab)
        assert _postings(a) == _postings(b) and a.doc_len == b.doc_len
        for name in ("terms", "offsets", "ordinals", "tfs", "term_idf", "norm"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.filterwarnings("error")
    def test_all_documents_empty(self):
        corpus = _corpus_of("", "")
        index = build_index(corpus, build_vocab(corpus, 1))
        assert index.avg_doc_len == 0.0 and len(index.terms) == 0
        assert most_similar(index, 0, k=1) == [1]

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_index(Corpus(documents=()), None)

    def test_document_frequencies_match_brute_force(self):
        corpus = gen_synthetic_corpus(50, 5, rng_seed=11)
        vocab = build_vocab(corpus, 1)
        index = build_index(corpus, vocab)
        token_lists = [tokenize(d.text, vocab) for d in corpus.documents]
        for token, plist in _postings(index).items():
            brute_df = sum(1 for toks in token_lists if token in toks)
            assert len(plist) == brute_df
            for ordinal, tf in plist:
                assert tf == token_lists[ordinal].count(token)

    def test_summaries_not_indexed(self):
        docs = (make_document("a", "body words here.", "summaryonlyword."),)
        corpus = Corpus(documents=docs + (make_document("b", "other text.", ""),))
        vocab = build_vocab(corpus, 1)
        index = build_index(corpus, vocab)
        assert vocab.token_to_id["summaryonlyword"] not in _postings(index)


class TestBm25Score:
    def test_absent_terms_contribute_zero(self):
        corpus = _corpus_of("cat cat dog", "bird")
        vocab = build_vocab(corpus, 1)
        index = build_index(corpus, vocab)
        assert bm25_score(index, tokenize("bird", vocab), 0) == 0.0
        assert bm25_score(index, [], 0) == 0.0

    def test_hand_derived_two_doc_example(self):
        corpus = _corpus_of("cat cat dog", "bird")
        vocab = build_vocab(corpus, 1)
        index = build_index(corpus, vocab)
        got = bm25_score(index, tokenize("cat", vocab), 0)
        # idf = ln 2; tf = 2; dl = 3; avgdl = 2; k1 = 1.2; b = 0.75
        expected = math.log(2.0) * (2 * 2.2) / (2 + 1.2 * (1 - 0.75 + 0.75 * 3 / 2))
        assert abs(got - expected) < 1e-6
        assert abs(got - 0.8355) < 5e-4

    def test_b_zero_removes_length_normalization(self):
        corpus = _corpus_of("cat cat dog dog dog dog", "cat")
        vocab = build_vocab(corpus, 1)
        index = build_index(corpus, vocab, b=0.0)
        query = tokenize("cat", vocab)
        long_doc = bm25_score(index, query, 0)
        k1 = index.k1
        idf_cat = index.idf(vocab.token_to_id["cat"])
        assert abs(long_doc - idf_cat * 2 * (k1 + 1) / (2 + k1)) < 1e-12

    def test_query_multiplicity(self):
        corpus = _corpus_of("cat dog", "bird")
        vocab = build_vocab(corpus, 1)
        index = build_index(corpus, vocab)
        one = bm25_score(index, tokenize("cat", vocab), 0)
        two = bm25_score(index, tokenize("cat cat", vocab), 0)
        assert abs(two - 2 * one) < 1e-12

    def test_matches_raw_count_oracle_on_random_corpus(self):
        corpus = _random_corpus(50, seed=13)
        vocab = build_vocab(corpus, 1)
        index = build_index(corpus, vocab)
        token_lists = [tokenize(d.text, vocab) for d in corpus.documents]
        rng = random.Random(99)
        for _ in range(40):
            q = token_lists[rng.randrange(50)]
            d = rng.randrange(50)
            got = bm25_score(index, q, d)
            want = oracles.bm25_score_from_raw_counts(token_lists, q, d)
            assert abs(got - want) < 1e-9

    def test_additive_over_disjoint_query_sets(self):
        corpus = _random_corpus(10, seed=21)
        vocab = build_vocab(corpus, 1)
        index = build_index(corpus, vocab)
        tokens = _doc_tokens(index, 0)
        half = len(tokens) // 2
        q1, q2 = tokens[:half], tokens[half:]
        total = bm25_score(index, q1 + q2, 0)
        assert abs(total - (bm25_score(index, q1, 0) + bm25_score(index, q2, 0))) < 1e-9
        assert total >= 0.0


class TestMostSimilar:
    def test_two_doc_corpus(self):
        corpus = _corpus_of("cat dog", "cat bird")
        vocab = build_vocab(corpus, 1)
        index = build_index(corpus, vocab)
        assert most_similar(index, 0, k=1) == [1]

    def test_never_returns_query_doc(self):
        corpus = _random_corpus(12, seed=3)
        vocab = build_vocab(corpus, 1)
        index = build_index(corpus, vocab)
        for d in range(12):
            assert d not in most_similar(index, d, k=11)

    def test_single_doc_corpus_has_no_neighbor(self):
        corpus = _corpus_of("alone")
        index = build_index(corpus, build_vocab(corpus, 1))
        with pytest.raises(ValueError, match="no neighbor"):
            most_similar(index, 0, k=1)

    def test_full_ranking_matches_brute_force(self):
        corpus = _random_corpus(50, seed=17)
        vocab = build_vocab(corpus, 1)
        index = build_index(corpus, vocab)
        token_lists = [tokenize(d.text, vocab) for d in corpus.documents]
        for d in range(50):
            got = most_similar(index, d, k=49)
            want = oracles.bm25_rank_all(token_lists, token_lists[d], exclude=d)
            assert got == want

    def test_k_caps_at_n_minus_one(self):
        corpus = _random_corpus(5, seed=1)
        index = build_index(corpus, build_vocab(corpus, 1))
        assert len(most_similar(index, 0, k=100)) == 4

    def test_planted_duplicates_rank_like_brute_force(self):
        rng = random.Random(31)
        texts = [d.text for d in _random_corpus(16, seed=23).documents]
        for source in (3, 3, 7, 0, 15):
            texts.insert(rng.randrange(len(texts) + 1), texts[source])
        corpus = _corpus_of(*texts)
        vocab = build_vocab(corpus, 1)
        index = build_index(corpus, vocab)
        token_lists = [tokenize(d.text, vocab) for d in corpus.documents]
        n = len(texts)
        for d in range(n):
            want = oracles.bm25_rank_all(token_lists, token_lists[d], exclude=d)
            assert most_similar(index, d, k=n - 1) == want
            # every other copy of d ties at the top, in ascending ordinal order
            twins = [o for o in range(n) if o != d and texts[o] == texts[d]]
            assert most_similar(index, d, k=len(twins) + 1)[: len(twins)] == twins


class TestAllDocumentScores:
    def test_equal_bm25_score_for_every_pair(self, tmp_path):
        corpus = gen_synthetic_corpus(40, 4, rng_seed=7)
        vocab = build_vocab(corpus, 1)
        index = build_index(corpus, vocab)
        save_index(index, tmp_path / "x.idx")
        loaded = load_index(tmp_path / "x.idx")
        token_lists = [tokenize(d.text, vocab) for d in corpus.documents]
        for q, query in enumerate(token_lists):
            scores = _self_scores(index, q)
            assert scores.tobytes() == _self_scores(loaded, q).tobytes()
            for d in range(len(token_lists)):
                assert scores[d] == bm25_score(index, query, d)

    def test_document_without_tokens_scores_zero_everywhere(self):
        corpus = _corpus_of("cat dog", "", "cat bird")
        index = build_index(corpus, build_vocab(corpus, 1))
        assert _self_scores(index, 1).tolist() == [0.0, 0.0, 0.0]
        assert most_similar(index, 1, k=2) == [0, 2]


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        corpus = _random_corpus(30, seed=8)
        vocab = build_vocab(corpus, 1)
        index = build_index(corpus, vocab)
        p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
        save_index(index, p1)
        loaded = load_index(p1)
        save_index(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert _postings(loaded) == _postings(index)
        assert loaded.doc_ids == index.doc_ids
        assert loaded.avg_doc_len == index.avg_doc_len

    def test_loaded_index_scores_bit_identically(self, tmp_path):
        corpus = _random_corpus(30, seed=8)
        vocab = build_vocab(corpus, 1)
        index = build_index(corpus, vocab)
        save_index(index, tmp_path / "x.idx")
        loaded = load_index(tmp_path / "x.idx")
        for d in range(0, 30, 7):
            q = _doc_tokens(index, d)
            assert bm25_score(index, q, d) == bm25_score(loaded, q, d)
            assert most_similar(index, d, 5) == most_similar(loaded, d, 5)

    def test_layout_matches_field_by_field_writer(self, tmp_path):
        corpus = _random_corpus(30, seed=8)
        vocab = build_vocab(corpus, 1)
        token_lists = [tokenize(d.text, vocab) for d in corpus.documents]
        want = oracles.bm25_index_bytes([d.id for d in corpus.documents], token_lists)
        save_index(build_index(corpus, vocab), tmp_path / "x.idx")
        assert (tmp_path / "x.idx").read_bytes() == want
        (tmp_path / "y.idx").write_bytes(want)
        loaded = load_index(tmp_path / "y.idx")
        for d in range(30):
            for q in range(0, 30, 3):
                got = bm25_score(loaded, token_lists[q], d)
                assert got == pytest.approx(
                    oracles.bm25_score_from_raw_counts(token_lists, token_lists[q], d), abs=1e-9
                )

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.idx"
        p.write_bytes(b"NOTANIDX" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_index(p)


class TestSyntheticTopicRetrieval:
    def test_small_scale_topic_neighbors(self):
        # Smaller stand-in for the 2000x50 check in the acceptance suite.
        corpus = gen_synthetic_corpus(200, 10, rng_seed=12)
        vocab = build_vocab(corpus, 1)
        index = build_index(corpus, vocab)
        same_topic = sum(
            1 for d in range(200) if most_similar(index, d, 1)[0] % 10 == d % 10
        )
        assert same_topic / 200 >= 0.95


def _small_index_bytes(tmp_path):
    # "dog", the last term, has postings in documents 0 and 2
    corpus = _corpus_of("cat cat dog fish", "bird fish", "dog bird fish")
    path = tmp_path / "small.idx"
    save_index(build_index(corpus, build_vocab(corpus, 1)), path)
    return path.read_bytes()


def _section_ends(data):
    """Offsets where each field of the layout ends."""
    ends = [8, 8 + struct.calcsize("<dddI")]
    (n_docs,) = struct.unpack_from("<I", data, ends[-1] - 4)
    for _ in range(n_docs):
        (id_len,) = struct.unpack_from("<H", data, ends[-1])
        ends += [ends[-1] + 2, ends[-1] + 2 + id_len, ends[-1] + 6 + id_len]
    ends.append(ends[-1] + 4)
    (n_tokens,) = struct.unpack_from("<I", data, ends[-2])
    for _ in range(n_tokens):
        (n_post,) = struct.unpack_from("<I", data, ends[-1] + 4)
        ends += [ends[-1] + 4, ends[-1] + 8]
        for _ in range(n_post):
            ends += [ends[-1] + 4, ends[-1] + 8]
    return ends


class TestTruncation:
    def test_every_section_boundary(self, tmp_path):
        data = _small_index_bytes(tmp_path)
        ends = _section_ends(data)
        assert ends[-1] == len(data)
        path = tmp_path / "cut.idx"
        for cut in ends[:-1]:
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError, match="truncated index file"):
                load_index(path)

    def test_every_offset(self, tmp_path):
        data = _small_index_bytes(tmp_path)
        path = tmp_path / "cut.idx"
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            match = "bad magic" if cut < len(INDEX_MAGIC) else "truncated index file"
            with pytest.raises(ValueError, match=match):
                load_index(path)

    def test_postings_out_of_range_or_order(self, tmp_path):
        data = bytearray(_small_index_bytes(tmp_path))
        path = tmp_path / "bad.idx"
        last_ordinal = len(data) - 8  # the final posting is (ordinal, tf)
        for ordinal in (3, 0):  # past the last document; before its predecessor
            data[last_ordinal : last_ordinal + 4] = struct.pack("<I", ordinal)
            path.write_bytes(bytes(data))
            with pytest.raises(ValueError, match="corrupt index file"):
                load_index(path)
