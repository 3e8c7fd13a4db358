"""Training-pair construction tests."""

import json
import random

import pytest

import umse.datagen as datagen

from umse.corpus import (
    Corpus,
    build_vocab,
    gen_synthetic_corpus,
    make_document,
    segment_sentences,
    tokenize,
)
from umse.datagen import (
    DOCUMENT_MATCHING,
    SUMMARY_MATCHING,
    LabeledExample,
    ScenarioExample,
    generate_dataset,
    lead3,
    make_document_matching_pair,
    make_summary_matching_pair,
    read_dataset_jsonl,
    to_scenario_examples,
    write_dataset_jsonl,
)
from umse.retrieval import build_index, most_similar

# a dataset row value that stands for a key left out of the row
ABSENT = object()

# chi-square upper critical values at significance 0.01
_CHI2_CRIT = {1: 6.635, 2: 9.210, 3: 11.345}


@pytest.fixture(scope="module")
def small():
    corpus = gen_synthetic_corpus(n_docs=30, topic_count=5, rng_seed=12)
    return corpus, build_index(corpus, build_vocab(corpus, min_frequency=1))


@pytest.fixture(scope="module")
def tiny():
    corpus = gen_synthetic_corpus(n_docs=20, topic_count=4, rng_seed=9)
    vocab = build_vocab(corpus, min_frequency=1)
    return corpus, build_index(corpus, vocab), vocab


def _two_doc_corpus():
    # all sentences distinct across the two docs so the swapped slot is
    # recoverable by diffing
    a = make_document(
        "doc-a",
        "Alpha starts here. Beta follows soon. Gamma comes third. Delta ends it.",
        "Summary alpha one. Summary alpha two. Summary alpha three.",
    )
    b = make_document(
        "doc-b",
        "Alpha starts here. Beta follows soon. Epsilon differs now.",
        "Summary beta one. Summary beta two. Summary beta three. Summary beta four.",
    )
    corpus = Corpus(documents=(a, b))
    return corpus, build_index(corpus, build_vocab(corpus, min_frequency=1))


class TestExampleChecks:
    """The field checks raise ValueError, so they hold under ``python -O``."""

    @pytest.mark.parametrize(
        "kind, label, reference, match",
        [
            (SUMMARY_MATCHING, 1, None, "summary_matching needs a reference"),
            (DOCUMENT_MATCHING, 0, (1,), "document_matching takes no reference"),
            ("other", 1, (1,), "unknown dataset kind"),
            (SUMMARY_MATCHING, 2, (1,), "label must be 0 or 1"),
            (DOCUMENT_MATCHING, True, None, "label must be 0 or 1"),
            (DOCUMENT_MATCHING, "1", None, "label must be 0 or 1"),
        ],
    )
    def test_labeled_example(self, kind, label, reference, match):
        with pytest.raises(ValueError, match=match):
            LabeledExample(kind, label, "x", reference, "d0")

    @pytest.mark.parametrize(
        "candidate, reference, doc_id, strategy, match",
        [
            ((2,), "r", "d0", None, "candidate must be a string, got \\(2,\\)"),
            ("x", 5, "d0", None, "reference must be a string, got 5"),
            ("x", "r", 7, None, "doc_id must be a string, got 7"),
            ("x", "r", "d0", 5, "negative_strategy must be a string, got 5"),
        ],
    )
    def test_text_fields_must_be_strings(self, candidate, reference, doc_id, strategy, match):
        with pytest.raises(ValueError, match=match):
            LabeledExample(SUMMARY_MATCHING, 0, candidate, reference, doc_id, strategy)

    @pytest.mark.parametrize(
        "scenario, reference, document, match",
        [
            ("SR", None, None, "SR needs a reference"),
            ("SR", (1,), (2,), "SR takes no document"),
            ("SD", (1,), (2,), "SD takes no reference"),
            ("SD", None, None, "SD needs a document"),
            ("SDR", (1,), None, "SDR needs a document"),
            ("SDR", None, (2,), "SDR needs a reference"),
        ],
    )
    def test_scenario_example(self, scenario, reference, document, match):
        with pytest.raises(ValueError, match=match):
            ScenarioExample(scenario, 1, (3,), reference=reference, document=document)


class TestLead3:
    def test_takes_first_three(self):
        doc = make_document("d", "One is here. Two is here. Three is here. Four is here.", "x.")
        assert lead3(doc) == "One is here. Two is here. Three is here."

    def test_short_document_takes_all(self):
        doc = make_document("d", "One is here. Two is here.", "x.")
        assert lead3(doc) == "One is here. Two is here."
        single = make_document("d", "Only one here.", "x.")
        assert lead3(single) == "Only one here."

    def test_empty_document_rejected(self):
        doc = make_document("d", "", "x.")
        with pytest.raises(ValueError):
            lead3(doc)


class TestSummaryMatchingPair:
    def test_pair_shape(self):
        corpus, index = _two_doc_corpus()
        pos, neg = make_summary_matching_pair(corpus, index, 0, random.Random(7))
        assert pos.kind == neg.kind == SUMMARY_MATCHING
        assert (pos.label, neg.label) == (1, 0)
        assert pos.candidate == lead3(corpus[0])
        assert pos.reference == corpus[0].reference_summary
        assert corpus.ordinal_of(pos.doc_id) == corpus.ordinal_of(neg.doc_id) == 0
        assert pos.negative_strategy is None
        assert neg.negative_strategy == "bm25_swap"
        assert neg.reference == pos.reference

    def test_negative_is_one_sentence_swap_of_neighbor_reference(self):
        corpus, index = _two_doc_corpus()
        lead_sents = set(corpus[0].sentences[:3])
        neighbor_ref = corpus[1].reference_sentences
        for seed in range(50):
            _, neg = make_summary_matching_pair(corpus, index, 0, random.Random(seed))
            got = segment_sentences(neg.candidate)
            assert len(got) == len(neighbor_ref)
            from_lead = [s for s in got if s in lead_sents]
            assert len(from_lead) == 1
            kept = [s for s in got if s not in lead_sents]
            assert all(s in neighbor_ref for s in kept)

    def test_deterministic_under_seed(self):
        corpus, index = _two_doc_corpus()
        first = make_summary_matching_pair(corpus, index, 0, random.Random(3))
        again = make_summary_matching_pair(corpus, index, 0, random.Random(3))
        assert first == again

    def test_replaced_position_uniform(self):
        # slot of the swapped-in sentence is uniform over the neighbor
        # reference's sentence positions
        corpus, index = _two_doc_corpus()
        lead_sents = set(corpus[0].sentences[:3])
        counts = [0, 0, 0, 0]
        n = 1000
        for i in range(n):
            _, neg = make_summary_matching_pair(corpus, index, 0, random.Random(i))
            got = segment_sentences(neg.candidate)
            slots = [j for j, s in enumerate(got) if s in lead_sents]
            assert len(slots) == 1
            counts[slots[0]] += 1
        expected = n / 4
        stat = sum((c - expected) ** 2 / expected for c in counts)
        assert stat < _CHI2_CRIT[3]

    def test_no_neighbor_rejected(self):
        doc = make_document("only", "Lone text here.", "Lone summary here.")
        corpus = Corpus(documents=(doc,))
        vocab = build_vocab(corpus, min_frequency=1)
        index = build_index(corpus, vocab)
        with pytest.raises(ValueError):
            make_summary_matching_pair(corpus, index, 0, random.Random(0))


class TestDocumentMatchingPair:
    def test_pair_shape(self):
        corpus, index = _two_doc_corpus()
        pos, neg = make_document_matching_pair(corpus, index, 0, random.Random(7))
        assert pos.kind == neg.kind == DOCUMENT_MATCHING
        assert (pos.label, neg.label) == (1, 0)
        assert pos.candidate == corpus[0].reference_summary
        assert pos.reference is None and neg.reference is None
        assert corpus.ordinal_of(pos.doc_id) == corpus.ordinal_of(neg.doc_id) == 0

    def test_negative_differs_in_exactly_one_slot(self):
        corpus, index = _two_doc_corpus()
        own_ref = corpus[0].reference_sentences
        neighbor_ref = set(corpus[1].reference_sentences)
        for seed in range(50):
            _, neg = make_document_matching_pair(corpus, index, 0, random.Random(seed))
            got = segment_sentences(neg.candidate)
            assert len(got) == len(own_ref)
            diff = [j for j in range(len(got)) if got[j] != own_ref[j]]
            assert len(diff) == 1
            assert got[diff[0]] in neighbor_ref

    def test_single_sentence_reference(self):
        a = make_document("a", "Alpha starts here. Beta follows soon.", "Only summary here.")
        b = make_document("b", "Alpha starts here. Gamma differs now.", "Other one. Other two.")
        corpus = Corpus(documents=(a, b))
        vocab = build_vocab(corpus, min_frequency=1)
        index = build_index(corpus, vocab)
        _, neg = make_document_matching_pair(corpus, index, 0, random.Random(1))
        assert neg.candidate in corpus[1].reference_sentences

    def test_falls_back_past_unusable_neighbor(self):
        # nearest neighbor by construction shares most body tokens but has an
        # empty reference, so the pair must draw from the next-ranked doc
        a = make_document(
            "a", "Red fox runs far. Red fox naps now.", "Summary of fox one. Summary of fox two."
        )
        twin = make_document("twin", "Red fox runs far. Red fox naps now. Red fox eats.", "")
        c = make_document("c", "Red fox sits. Blue bird sings.", "Bird note one. Bird note two.")
        corpus = Corpus(documents=(a, twin, c))
        vocab = build_vocab(corpus, min_frequency=1)
        index = build_index(corpus, vocab)
        for seed in range(20):
            _, neg = make_document_matching_pair(corpus, index, 0, random.Random(seed))
            got = segment_sentences(neg.candidate)
            swapped = [s for s in got if s not in a.reference_sentences]
            assert len(swapped) == 1
            assert swapped[0] in c.reference_sentences

    def test_skips_neighbor_with_identical_reference(self):
        a = make_document("a", "Red fox runs far.", "Shared summary here.")
        twin = make_document("twin", "Red fox runs near.", "Shared summary here.")
        c = make_document("c", "Red fox sits down.", "Bird note one. Bird note two.")
        corpus = Corpus(documents=(a, twin, c))
        vocab = build_vocab(corpus, min_frequency=1)
        index = build_index(corpus, vocab)
        _, neg = make_document_matching_pair(corpus, index, 0, random.Random(0))
        assert neg.candidate in c.reference_sentences


class TestGenerateDataset:
    def test_balance_and_interleave(self, small):
        corpus, index = small
        data = generate_dataset(corpus, index, SUMMARY_MATCHING, n_pairs=5, rng_seed=0)
        assert len(data) == 10
        assert [ex.label for ex in data] == [1, 0] * 5
        assert all(ex.kind == SUMMARY_MATCHING for ex in data)

    def test_oversampling_allows_more_pairs_than_docs(self, small):
        corpus, index = small
        data = generate_dataset(corpus, index, DOCUMENT_MATCHING, n_pairs=40, rng_seed=0)
        assert len(data) == 80
        assert sum(ex.label for ex in data) == 40

    def test_deterministic_and_byte_identical(self, small, tmp_path):
        corpus, index = small
        a = generate_dataset(corpus, index, SUMMARY_MATCHING, n_pairs=8, rng_seed=12)
        b = generate_dataset(corpus, index, SUMMARY_MATCHING, n_pairs=8, rng_seed=12)
        assert a == b
        write_dataset_jsonl(a, tmp_path / "a.jsonl")
        write_dataset_jsonl(b, tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_warm_ranking_memo_writes_identical_bytes(self, tmp_path):
        corpus = gen_synthetic_corpus(n_docs=30, topic_count=5, rng_seed=12)
        vocab = build_vocab(corpus, min_frequency=1)
        index = build_index(corpus, vocab)
        for kind in (SUMMARY_MATCHING, DOCUMENT_MATCHING):
            fresh = build_index(corpus, vocab)
            write_dataset_jsonl(
                generate_dataset(corpus, fresh, kind, 40, 12), tmp_path / "fresh.jsonl"
            )
            for run in ("cold", "warm"):
                write_dataset_jsonl(
                    generate_dataset(corpus, index, kind, 40, 12), tmp_path / "r.jsonl"
                )
                assert (tmp_path / "r.jsonl").read_bytes() == (
                    tmp_path / "fresh.jsonl"
                ).read_bytes(), run

    def test_each_document_queried_once(self, monkeypatch):
        corpus = gen_synthetic_corpus(n_docs=30, topic_count=5, rng_seed=12)
        vocab = build_vocab(corpus, min_frequency=1)
        index = build_index(corpus, vocab)
        queried = []

        def counting(index, doc, k=1):
            queried.append(doc)
            return most_similar(index, doc, k)

        monkeypatch.setattr(datagen, "most_similar", counting)
        for kind in (SUMMARY_MATCHING, DOCUMENT_MATCHING):
            generate_dataset(corpus, index, kind, n_pairs=60, rng_seed=5)
        assert len(queried) == len(set(queried)) == len(corpus)

    def test_rankings_kept_per_index(self):
        # same size, different corpora: a ranking read back for one index
        # must never come from another
        first = gen_synthetic_corpus(n_docs=30, topic_count=5, rng_seed=12)
        other = gen_synthetic_corpus(n_docs=30, topic_count=5, rng_seed=13)
        for corpus in (first, other):
            vocab = build_vocab(corpus, min_frequency=1)
            index = build_index(corpus, vocab)
            generate_dataset(corpus, index, DOCUMENT_MATCHING, n_pairs=30, rng_seed=0)
            for d in range(len(corpus)):
                usable = [
                    corpus[o]
                    for o in most_similar(index, d, k=datagen._NEIGHBOR_ATTEMPTS)
                    if corpus[o].reference_sentences
                    and corpus[o].reference_summary != corpus[d].reference_summary
                ]
                assert datagen._pick_neighbor(corpus, index, d) == (usable[0] if usable else None)

    def test_seed_changes_output(self, small):
        corpus, index = small
        a = generate_dataset(corpus, index, SUMMARY_MATCHING, n_pairs=8, rng_seed=1)
        b = generate_dataset(corpus, index, SUMMARY_MATCHING, n_pairs=8, rng_seed=2)
        assert a != b

    def test_negative_shares_exactly_one_lead3_sentence(self, small):
        corpus, index = small
        data = generate_dataset(corpus, index, SUMMARY_MATCHING, n_pairs=20, rng_seed=3)
        for ex in data:
            if ex.label == 1:
                continue
            lead_sents = set(corpus[corpus.ordinal_of(ex.doc_id)].sentences[:3])
            shared = [s for s in segment_sentences(ex.candidate) if s in lead_sents]
            assert len(shared) == 1

    def test_positive_never_equals_its_negative(self, small):
        corpus, index = small
        for kind in (SUMMARY_MATCHING, DOCUMENT_MATCHING):
            data = generate_dataset(corpus, index, kind, n_pairs=20, rng_seed=4)
            for pos, neg in zip(data[0::2], data[1::2]):
                assert pos.candidate != neg.candidate

    def test_builds_text_without_tokenizing(self, small, monkeypatch):
        corpus, index = small

        def refuse(text, vocab):
            raise AssertionError("generate_dataset tokenized a text")

        monkeypatch.setattr(datagen, "tokenize", refuse)
        for kind in (SUMMARY_MATCHING, DOCUMENT_MATCHING):
            data = generate_dataset(corpus, index, kind, n_pairs=40, rng_seed=6)
            assert len(data) == 80
            assert all(isinstance(ex.candidate, str) for ex in data)

    def test_index_of_another_corpus_rejected(self, small, tiny):
        (corpus, index), (other, other_index, _) = small, tiny
        for docs, idx in ((corpus, other_index), (other, index)):
            with pytest.raises(ValueError, match=r"^the index was built from another corpus"):
                generate_dataset(docs, idx, SUMMARY_MATCHING, n_pairs=4, rng_seed=0)

    def test_unknown_kind_rejected(self, small):
        corpus, index = small
        with pytest.raises(ValueError, match="unknown dataset kind"):
            generate_dataset(corpus, index, "other", n_pairs=1, rng_seed=0)

    @pytest.mark.parametrize("n_pairs", [0, -3])
    def test_non_positive_pair_count_rejected(self, small, n_pairs):
        corpus, index = small
        with pytest.raises(ValueError, match=r"^n_pairs must be >= 1$"):
            generate_dataset(corpus, index, SUMMARY_MATCHING, n_pairs=n_pairs, rng_seed=0)

    def test_single_doc_corpus_rejected(self):
        doc = make_document("only", "Lone text here.", "Lone summary here.")
        corpus = Corpus(documents=(doc,))
        vocab = build_vocab(corpus, min_frequency=1)
        index = build_index(corpus, vocab)
        with pytest.raises(ValueError, match="corpus too small"):
            generate_dataset(corpus, index, SUMMARY_MATCHING, n_pairs=1, rng_seed=0)

    def test_swap_position_uniform_on_synthetic_corpus(self):
        # the inserted lead sentence's slot recovers the replaced position;
        # bucket by reference length and chi-square each bucket
        corpus = gen_synthetic_corpus(n_docs=60, topic_count=6, rng_seed=5)
        vocab = build_vocab(corpus, min_frequency=1)
        index = build_index(corpus, vocab)
        counts: dict[int, list[int]] = {2: [0, 0], 3: [0, 0, 0]}
        for i in range(1000):
            ordinal = i % len(corpus)
            lead_sents = set(corpus[ordinal].sentences[:3])
            _, neg = make_summary_matching_pair(
                corpus, index, ordinal, random.Random(1000 + i)
            )
            got = segment_sentences(neg.candidate)
            slots = [j for j, s in enumerate(got) if s in lead_sents]
            assert len(slots) == 1
            counts[len(got)][slots[0]] += 1
        for size, row in counts.items():
            total = sum(row)
            if total < 50:
                continue
            expected = total / size
            stat = sum((c - expected) ** 2 / expected for c in row)
            assert stat < _CHI2_CRIT[size - 1]


class TestScenarioExamples:
    def test_summary_matching_yields_sr_and_sdr(self, tiny):
        corpus, index, vocab = tiny
        pos, _ = make_summary_matching_pair(corpus, index, 0, random.Random(0))
        out = to_scenario_examples([pos], corpus, vocab)
        assert [ex.scenario for ex in out] == ["SR", "SDR"]
        assert all(ex.label == 1 for ex in out)
        sr, sdr = out
        assert sr.candidate == sdr.candidate == tuple(tokenize(pos.candidate, vocab))
        assert sr.reference == sdr.reference == tuple(tokenize(pos.reference, vocab))
        assert sr.document is None
        assert sdr.document == tuple(tokenize(corpus[0].text, vocab))

    def test_document_matching_yields_sd(self, tiny):
        corpus, index, vocab = tiny
        _, neg = make_document_matching_pair(corpus, index, 0, random.Random(0))
        out = to_scenario_examples([neg], corpus, vocab)
        assert len(out) == 1
        assert out[0].scenario == "SD" and out[0].label == 0
        assert out[0].candidate == tuple(tokenize(neg.candidate, vocab))
        assert out[0].reference is None
        assert out[0].document == tuple(tokenize(corpus[0].text, vocab))

    def test_counts(self, tiny):
        corpus, index, vocab = tiny
        sm = generate_dataset(corpus, index, SUMMARY_MATCHING, n_pairs=4, rng_seed=0)
        dm = generate_dataset(corpus, index, DOCUMENT_MATCHING, n_pairs=4, rng_seed=0)
        out = to_scenario_examples(sm + dm, corpus, vocab)
        tally = {s: 0 for s in ("SR", "SD", "SDR")}
        for ex in out:
            tally[ex.scenario] += 1
        assert tally == {"SR": 8, "SDR": 8, "SD": 8}


class TestDatasetJsonl:
    def test_roundtrip(self, tmp_path):
        corpus = gen_synthetic_corpus(n_docs=20, topic_count=4, rng_seed=2)
        vocab = build_vocab(corpus, min_frequency=1)
        index = build_index(corpus, vocab)
        sm = generate_dataset(corpus, index, SUMMARY_MATCHING, n_pairs=3, rng_seed=1)
        dm = generate_dataset(corpus, index, DOCUMENT_MATCHING, n_pairs=3, rng_seed=1)
        for name, data in (("sm.jsonl", sm), ("dm.jsonl", dm)):
            path = tmp_path / name
            write_dataset_jsonl(data, path)
            assert read_dataset_jsonl(path) == data

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"kind": "summary_matching", "label": 1, "candidate": "a.", '
            '"reference": "b.", "doc_id": "doc-00000", "negative_strategy": null}\n'
            "not json\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="malformed dataset line 2"):
            read_dataset_jsonl(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("label", 2, "label must be 0 or 1, got 2"),
            ("label", -1, "label must be 0 or 1, got -1"),
            ("label", 1.0, "label must be 0 or 1, got 1.0"),
            ("label", "1", "label must be 0 or 1, got '1'"),
            ("label", True, "label must be 0 or 1, got True"),
            ("kind", "other", "unknown dataset kind: other"),
            ("doc_id", 5, "doc_id must be a string, got 5"),
            ("negative_strategy", 5, "negative_strategy must be a string, got 5"),
            ("candidate", None, "candidate must be a string, got None"),
            ("reference", None, "summary_matching needs a reference"),
            ("label", ABSENT, "missing field 'label'"),
            ("negative_strategy", ABSENT, "missing field 'negative_strategy'"),
        ],
    )
    def test_label_and_kind_checked_on_read(self, tmp_path, field, value, message):
        row = {
            "kind": "summary_matching", "label": 1, "candidate": "a.", "reference": "b.",
            "doc_id": "doc-00000", "negative_strategy": None,
        }
        bad = {**row, field: value}
        if value is ABSENT:
            del bad[field]
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(row) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ValueError) as err:
            read_dataset_jsonl(path)
        assert str(err.value) == f"malformed dataset line 2: {message}"

    def test_document_matching_line_with_reference_rejected(self, tmp_path):
        row = {
            "kind": "document_matching", "label": 1, "candidate": "a.", "reference": "b.",
            "doc_id": "doc-00000", "negative_strategy": None,
        }
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({**row, "reference": None}) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(ValueError) as err:
            read_dataset_jsonl(path)
        assert str(err.value) == "malformed dataset line 2: document_matching takes no reference"

    def test_keys_are_the_fields_and_extra_keys_ignored(self, tmp_path, small):
        corpus, index = small
        data = generate_dataset(corpus, index, SUMMARY_MATCHING, n_pairs=2, rng_seed=0)
        path = tmp_path / "sm.jsonl"
        write_dataset_jsonl(data, path)
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert [list(r) for r in rows] == [
            ["kind", "label", "candidate", "reference", "doc_id", "negative_strategy"]
        ] * 4
        path.write_text(
            "".join(json.dumps({**r, "note": i}) + "\n" for i, r in enumerate(rows)),
            encoding="utf-8",
        )
        assert read_dataset_jsonl(path) == data
