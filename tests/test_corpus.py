import json
import os
import re
import stat
import string
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from umse.corpus import (
    ABBREVIATIONS,
    CLS_ID,
    PAD_ID,
    SEP_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    Corpus,
    Vocabulary,
    atomic_write,
    build_vocab,
    gen_synthetic_corpus,
    make_document,
    read_corpus_jsonl,
    segment_sentences,
    tokenize,
    word_tokens,
    write_corpus_jsonl,
)

FIXTURE = json.loads((Path(__file__).parent / "data" / "sentence_fixture.json").read_text())


class TestSegmentSentences:
    def test_two_terminals(self):
        assert segment_sentences("A cat. A dog!") == ["A cat.", "A dog!"]

    def test_no_terminator_is_one_sentence(self):
        assert segment_sentences("no punctuation here") == ["no punctuation here"]

    def test_empty_input(self):
        assert segment_sentences("") == []
        assert segment_sentences("   ") == []

    def test_abbreviation_guard(self):
        assert segment_sentences("Mr. Smith left. He ran.") == ["Mr. Smith left.", "He ran."]

    def test_hand_segmented_fixture(self):
        for case in FIXTURE["cases"]:
            assert segment_sentences(case["text"]) == case["sentences"], case["text"]

    def test_fixture_holds_twenty_sentences(self):
        assert sum(len(c["sentences"]) for c in FIXTURE["cases"]) == 20

    def test_no_empty_segments_and_content_preserved(self):
        texts = [c["text"] for c in FIXTURE["cases"]] + ["  Hi.   Bye!  ", "a?b? c."]
        for text in texts:
            segs = segment_sentences(text)
            assert all(s == s.strip() and s for s in segs)
            assert "".join(segs).replace(" ", "") == text.replace(" ", "")


class TestWordTokens:
    def test_lowercase_and_punct_split(self):
        assert word_tokens("Cat cat.") == ["cat", "cat", "."]

    def test_leading_and_trailing_punct_order(self):
        assert word_tokens("(cat).") == ["(", "cat", ")", "."]

    def test_interior_punct_kept(self):
        assert word_tokens("don't stop") == ["don't", "stop"]
        assert word_tokens("the u.s. grew") == ["the", "u.s", ".", "grew"]

    def test_all_punct_chunk(self):
        assert word_tokens("...") == [".", ".", "."]


def _mixed_case(word: str):
    return st.tuples(*(st.sampled_from((c.lower(), c.upper())) for c in word)).map("".join)


# Pieces that stress the text layer: every ASCII punctuation mark, runs of
# terminals, the abbreviations in any case, whitespace that str.split()
# knows but a space test would miss, and letters whose lowercase is longer
# (U+0130) or that have no one-letter uppercase (U+00DF).
_HOSTILE_CHARS = (
    string.punctuation + "ab Z\t\n\u00a0\u2028\u3000\x1c\x1d\x1e\x1f\u0130\u00df"
)
_HOSTILE_TEXT = st.lists(
    st.one_of(
        st.text(alphabet=_HOSTILE_CHARS, max_size=4),
        st.sampled_from(["...", "!!", "?!", ".?.", " . ", "\u00a0.", ". \u3000"]),
        st.sampled_from(sorted(ABBREVIATIONS)).flatmap(_mixed_case),
    ),
    max_size=16,
).map("".join)


class TestOracleEquivalence:
    """The str-method text layer against the character loops it replaced."""

    @pytest.fixture(scope="class")
    def desk_texts(self):
        corpus = gen_synthetic_corpus(2000, 50, rng_seed=12)
        return [t for d in corpus.documents for t in (d.text, d.reference_summary)]

    def test_every_text_of_a_desk_corpus(self, desk_texts):
        for text in desk_texts:
            assert segment_sentences(text) == oracles.segment_sentences_loop(text, ABBREVIATIONS)
            assert word_tokens(text) == oracles.word_tokens_loop(text)

    @settings(derandomize=True, database=None, max_examples=1000, deadline=None)
    @given(_HOSTILE_TEXT)
    def test_hostile_strings(self, text):
        assert segment_sentences(text) == oracles.segment_sentences_loop(text, ABBREVIATIONS)
        assert word_tokens(text) == oracles.word_tokens_loop(text)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(_HOSTILE_TEXT)
    def test_document_words_are_the_body_word_tokens(self, text):
        doc = make_document("d", text, "a summary")
        assert doc.words == tuple(word_tokens(text))
        assert doc.words is doc.words

    def test_regex_whitespace_is_str_isspace(self):
        # the sentence-end pattern's lookahead uses \s where the loop used
        # str.isspace(); the two must agree on every code point
        space = re.compile(r"\s")
        for code in range(sys.maxunicode + 1):
            c = chr(code)
            assert (space.fullmatch(c) is not None) == c.isspace(), hex(code)


def detokenize(ids: list[int], vocab: Vocabulary) -> str:
    """The tokens of ``ids`` joined by single spaces."""
    return " ".join(vocab.id_to_token[i] for i in ids)


def _corpus_of(*texts, summaries=None):
    summaries = summaries or [""] * len(texts)
    docs = tuple(
        make_document(f"d{i}", t, s) for i, (t, s) in enumerate(zip(texts, summaries))
    )
    return Corpus(documents=docs)


class TestVocabulary:
    def test_min_frequency_cutoff(self):
        vocab = build_vocab(_corpus_of("a a b"), min_frequency=2)
        assert "a" in vocab and "b" not in vocab
        assert len(vocab) == len(SPECIAL_TOKENS) + 1

    def test_specials_take_lowest_ids(self):
        vocab = build_vocab(_corpus_of("z y x"), min_frequency=1)
        assert (CLS_ID, SEP_ID, PAD_ID, UNK_ID) == (0, 1, 2, 3)
        assert [vocab.token_to_id[t] for t in SPECIAL_TOKENS] == [0, 1, 2, 3]
        assert sorted(vocab.token_to_id.values()) == list(range(len(vocab)))

    def test_id_order_frequency_then_lexicographic(self):
        vocab = build_vocab(_corpus_of("b b a c c"), min_frequency=1)
        # b and c both occur twice; b < c lexicographically; a occurs once.
        assert vocab.token_to_id["b"] == 4
        assert vocab.token_to_id["c"] == 5
        assert vocab.token_to_id["a"] == 6

    def test_lowercasing_and_punct_in_counts(self):
        vocab = build_vocab(_corpus_of("Cat cat."), min_frequency=2)
        assert "cat" in vocab and "." not in vocab

    def test_determinism(self):
        a = build_vocab(_corpus_of("q w e r t y q w"), min_frequency=1)
        b = build_vocab(_corpus_of("q w e r t y q w"), min_frequency=1)
        assert a.token_to_id == b.token_to_id

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_vocab(Corpus(documents=()), 1)

    def test_save_load_roundtrip(self, tmp_path):
        vocab = build_vocab(_corpus_of("alpha beta beta gamma"), min_frequency=1)
        p = tmp_path / "vocab.txt"
        vocab.save(p)
        again = Vocabulary.load(p)
        assert again.token_to_id == vocab.token_to_id


class TestTokenize:
    def test_empty(self):
        vocab = build_vocab(_corpus_of("cat"), 1)
        assert tokenize("", vocab) == []

    def test_known_token(self):
        vocab = build_vocab(_corpus_of("cat"), 1)
        assert tokenize("cat", vocab) == [vocab.token_to_id["cat"]]

    def test_oov_maps_to_unk(self):
        vocab = build_vocab(_corpus_of("cat"), 1)
        assert tokenize("zzyx", vocab) == [UNK_ID]

    def test_roundtrip_idempotent_on_normalized_text(self):
        vocab = build_vocab(_corpus_of("the cat sat . on a mat"), 1)
        ids = tokenize("the cat sat . on a mat", vocab)
        assert tokenize(detokenize(ids, vocab), vocab) == ids


class TestSyntheticCorpus:
    def test_shape(self):
        corpus = gen_synthetic_corpus(2, 2, rng_seed=1)
        assert len(corpus) == 2
        assert len({d.id for d in corpus.documents}) == 2
        for d in corpus.documents:
            assert d.reference_summary
            assert 6 <= len(d.sentences) <= 12
            assert 2 <= len(d.reference_sentences) <= 3

    def test_determinism(self):
        a = gen_synthetic_corpus(20, 4, rng_seed=7)
        b = gen_synthetic_corpus(20, 4, rng_seed=7)
        assert a == b

    def test_invalid_sizes(self):
        with pytest.raises(ValueError, match="invalid sizes"):
            gen_synthetic_corpus(1, 2, rng_seed=0)
        with pytest.raises(ValueError, match="invalid sizes"):
            gen_synthetic_corpus(5, 1, rng_seed=0)

    def test_sentences_unique_within_doc(self):
        corpus = gen_synthetic_corpus(100, 5, rng_seed=3)
        for d in corpus.documents:
            assert len(set(d.sentences)) == len(d.sentences)
            assert len(set(d.reference_sentences)) == len(d.reference_sentences)

    def test_references_unique_across_docs(self):
        corpus = gen_synthetic_corpus(200, 10, rng_seed=3)
        seen = set()
        for d in corpus.documents:
            for s in d.reference_sentences:
                assert s not in seen
                seen.add(s)

    def test_segmentation_roundtrip(self):
        corpus = gen_synthetic_corpus(30, 3, rng_seed=9)
        for d in corpus.documents:
            assert " ".join(d.sentences) == d.text
            assert " ".join(d.reference_sentences) == d.reference_summary


class TestCorpusJsonl:
    def test_roundtrip(self, tmp_path):
        corpus = gen_synthetic_corpus(5, 2, rng_seed=4)
        p = tmp_path / "corpus.jsonl"
        write_corpus_jsonl(corpus, p)
        again = read_corpus_jsonl(p)
        assert again == corpus

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"id": "a", "text": "x.", "summary": "y."}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            read_corpus_jsonl(p)

    def test_sentences_are_segmented_on_first_read(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"id": "a", "text": "One. Two.", "summary": "Three."}\n')
        doc = read_corpus_jsonl(p)[0]
        assert "sentences" not in vars(doc)
        assert "reference_sentences" not in vars(doc)
        assert doc.sentences == ("One.", "Two.")
        assert doc.reference_sentences == ("Three.",)
        assert doc.sentences is doc.sentences

    def test_duplicate_ids_rejected(self):
        d = make_document("same", "a.", "b.")
        with pytest.raises(ValueError, match="duplicate"):
            Corpus(documents=(d, d))

    def test_ordinal_of(self):
        corpus = gen_synthetic_corpus(5, 2, rng_seed=4)
        for i, doc in enumerate(corpus.documents):
            assert corpus.ordinal_of(doc.id) == i
        with pytest.raises(ValueError, match="^unknown document id: no-such-id$"):
            corpus.ordinal_of("no-such-id")


class TestAtomicWrite:
    def test_replaces_the_file_in_one_step(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n", encoding="utf-8")
        with atomic_write(path) as fh:
            fh.write("new \u00e9\n")
            assert path.read_text(encoding="utf-8") == "old\n"
        assert path.read_bytes() == "new \u00e9\n".encode("utf-8")
        assert list(tmp_path.iterdir()) == [path]

    def test_failure_partway_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError, match="disk full"):
            with atomic_write(path, "wb") as fh:
                fh.write(b"partial")
                raise RuntimeError("disk full")
        assert path.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [path]

    def test_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "real.txt"
        target.write_text("old\n", encoding="utf-8")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        with atomic_write(link) as fh:
            fh.write("new\n")
        assert link.is_symlink()
        assert target.read_text(encoding="utf-8") == "new\n"

    def test_pipe_is_written_to_directly(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        with atomic_write(fifo, "wb") as fh:
            fh.write(b"through the pipe")
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [b"through the pipe"]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
