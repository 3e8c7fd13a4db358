"""Golden digests: the exact bytes of a small seeded pipeline's artifacts.

A ``synth`` corpus of 120 documents, with four hand-written documents
appended whose text is hostile to the text layer (abbreviations, runs of
terminals, quotes, brackets, Unicode spaces and case mappings), goes
through ``build``, ``gendata`` and ``score --metric`` for ``rouge1`` and
``rougeL``, and through ``score`` with a seeded 16-wide checkpoint in the
SR, SD and SDR scenarios and fused. A seeded annotation file with heavy ties, two-system documents
and constant-rating documents goes through ``evaluate --baseline``. Every
artifact's sha256 is pinned. A change that is meant to
keep outputs byte-identical must keep these digests; a change that moves
them changes what the pipeline computes and must say so.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from umse.cli import main
from umse.corpus import Vocabulary
from umse.model import ModelConfig, init_parameters, save_checkpoint

HOSTILE_DOCS = [
    {
        "id": "hostile-1",
        "text": (
            "Dr. Smith met Mr. O'Brien at 5 p.m. in the U.S. capital!! Then... they "
            "left?! \"Quoted,\" she said. The co-op's (big) plan: done. MRS. Jones "
            "vs. Prof. Lee -- a draw? Sen. Gov. Capt. Rev. all agreed."
        ),
        "summary": "Dr. Smith met Mr. O'Brien!! They left?! The plan: done.",
    },
    {
        "id": "hostile-2",
        "text": (
            "Straße İstanbul\u00a0café. ¿Qué? Ünïcode…  "
            "end\u3000next. Line\u2028sep. x\x1cy. Fin.\u00a0Dr.\u00a0Who? "
            "U.K.-based (Inc.) Ltd. rose. Corp.! ok."
        ),
        "summary": "Straße İstanbul. ¿Qué? Fin.",
    },
    {
        "id": "hostile-3",
        "text": (
            "no terminator at all, just words and commas, and (parens; "
            "[brackets] {braces} <angles> #hash @at $dollar %pct ^caret &amp *star "
            "~tilde `tick |pipe \\\\back /slash _under +plus =eq"
        ),
        "summary": "'single' \"double\" ((nested)) ...dots... ?!?! end",
    },
    {
        "id": "hostile-4",
        "text": (
            "St. Mt. Jr. Sr. u.n. VS. Lt. Sgt. Col. Gen. Rep. Ms. ok. "
            "a.b. c!d? e.f! g?? h... i.... j. . . k ! l ?"
        ),
        "summary": "Jr. Sr. ok. a.b. c!d? i.... j.",
    },
]

# sha256 of each artifact, taken before the text layer's str-method rewrite
GOLDEN = {
    "corpus.jsonl": "5453bd1546246f15b2b1846176865a25db13b546023c58b0c03f4a8838129617",
    "vocab.txt": "b0044794d13dafd68a6a9838ba31969bcf2c65a76c3607a92a3fc41aebcf5a92",
    "index.bin": "bb7c621bdff3b28109e1fc0b521d17f4340a73941ba132bce0c0febeca895d8d",
    "summary_matching.jsonl": "65cdd5d73665739febdb7a5a035a6e1c201ab9cb1ca8b832b68f4d0a23401358",
    "document_matching.jsonl": "c862dbf9ebaa8fd99c8120a7aac1455060fd8634e9bcd4bc05038d1514f85559",
    "rouge1.jsonl": "eb17bb3bc6a6a489b5f09e9b24488db6b6f46b9afc468287ebbe8a14312ee6ae",
    "rougeL.jsonl": "5b9e4bf5e969f70edd1428e2830aa81cccbdc3d265bf63bbd61b055dfa747b47",
}

# sha256 of ``umse score`` on an init_parameters checkpoint of
# ``CHECKPOINT_CONFIG``, per scoring mode; taken from the float32 forward
MODEL_GOLDEN = {
    "SR.jsonl": "c3692de8adf00e30607e1c1799bb3978790a5aa06d08d5a47b57aed33cfe9e52",
    "SD.jsonl": "73a2c6d4083e9ed54a3f0b6e03e38ae26d75f8ec9e6611960f3956de986d985b",
    "SDR.jsonl": "a444cc377e7784cedebf322d809ad5591b68c5a4d15a9691bce08653b5f2e5ce",
    "fused.jsonl": "63dab8d3985a3d1333036ad7d9da80322612f9cf90b54feb9727e9ce01d9fb6c",
}
MODEL_MODES = {
    "SR.jsonl": ["--scenario", "SR"],
    "SD.jsonl": ["--scenario", "SD"],
    "SDR.jsonl": ["--scenario", "SDR"],
    "fused.jsonl": ["--scenario", "SDR", "--fusion", "arithmetic_mean"],
}
# small enough that every product runs on one BLAS thread, so the bytes do
# not depend on the thread count
CHECKPOINT_CONFIG = dict(hidden_dim=16, n_layers=2, n_heads=2, ffn_dim=32, prefix_len=4,
                         max_len=128, init_seed=7)

# sha256 of the ``evaluate --baseline`` report over ``_evaluate_inputs``, as
# computed by one ``spearman()`` call per document
EVALUATE_GOLDEN = "a1b379402b4db4e2b6958d21accdb48ffcf11cd4a88873a69b9dcc1f3991ccda"


def run_ok(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([str(a) for a in argv]) == 0


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _score_inputs(corpus_lines: list[str]) -> str:
    """Three systems per document, all scored against its summary and
    text, so each reference and document repeats; the candidates are the
    summary, the first 30 words of the text, and the text's words in
    reverse order."""
    rows = []
    for line in corpus_lines:
        doc = json.loads(line)
        words = doc["text"].split()
        for system_id, candidate in (
            ("copy", doc["summary"]),
            ("lead", " ".join(words[:30])),
            ("reversed", " ".join(reversed(words))),
        ):
            rows.append(
                {
                    "doc_id": doc["id"],
                    "system_id": system_id,
                    "candidate": candidate,
                    "reference": doc["summary"],
                    "document": doc["text"],
                }
            )
    return "".join(json.dumps(row) + "\n" for row in rows)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    synth = root / "synth.jsonl"
    run_ok(["synth", "--out", synth, "--n-docs", "120", "--topic-count", "8", "--seed", "7"])
    corpus = root / "corpus.jsonl"
    lines = synth.read_text(encoding="utf-8").splitlines(keepends=True)
    lines += [json.dumps(doc) + "\n" for doc in HOSTILE_DOCS]
    corpus.write_text("".join(lines), encoding="utf-8")

    out = root / "out"
    run_ok(["build", "--corpus", corpus, "--out-dir", out])
    run_ok(
        [
            "gendata",
            "--corpus", corpus,
            "--vocab", out / "vocab.txt",
            "--index", out / "index.bin",
            "--out-dir", out,
            "--n-pairs", "150",
            "--seed", "7",
        ]
    )
    inputs = root / "inputs.jsonl"
    inputs.write_text(_score_inputs(lines), encoding="utf-8")
    for metric in ("rouge1", "rougeL"):
        run_ok(["score", "--inputs", inputs, "--metric", metric, "--out", out / f"{metric}.jsonl"])
    vocab_size = len(Vocabulary.load(out / "vocab.txt"))
    config = ModelConfig(vocab_size=vocab_size, **CHECKPOINT_CONFIG)
    checkpoint = root / "init.ckpt"
    save_checkpoint(init_parameters(config), config, checkpoint)
    for name, flags in MODEL_MODES.items():
        run_ok(["score", "--inputs", inputs, "--checkpoint", checkpoint,
                "--vocab", out / "vocab.txt", *flags, "--out", out / name])
    names = [name for name in (*GOLDEN, *MODEL_GOLDEN) if name != "corpus.jsonl"]
    return {"corpus.jsonl": synth, **{name: out / name for name in names}}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_digest(artifacts, name):
    assert _sha256(artifacts[name]) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(MODEL_GOLDEN))
def test_model_score_digest(artifacts, name):
    assert _sha256(artifacts[name]) == MODEL_GOLDEN[name]


def _evaluate_inputs(root):
    """Annotations, scores and baseline scores for 60 documents of 1 to 6
    systems each, rows shuffled so no document's rows are contiguous.
    Ratings are means of three 1-5 votes and scores are rounded to a
    quarter, so both are heavily tied; every fifth document has one
    rating for all its systems in every dimension, and every seventh has
    one baseline score for all its systems."""
    rng = np.random.default_rng(2007)
    annotations, scores, baseline = [], [], []
    for i in range(60):
        n_systems = (5, 2, 3, 1, 6)[i % 5]
        constant = rng.integers(1, 6, size=(4, 3)).mean(axis=1)
        for j in range(n_systems):
            votes = constant if i % 5 == 0 else rng.integers(1, 6, size=(4, 3)).mean(axis=1)
            ratings = dict(zip(("coherence", "consistency", "fluency", "relevance"),
                               votes.tolist()))
            annotations.append({"doc_id": f"d{i}", "system_id": f"s{j}",
                                "summary": f"summary {i} {j}", "ratings": ratings})
            scores.append({"doc_id": f"d{i}", "system_id": f"s{j}",
                           "score": round(float(rng.uniform(0, 2)) * 4) / 4})
            base = 0.5 if i % 7 == 0 else round(float(rng.uniform(0, 1)) * 4) / 4
            baseline.append({"doc_id": f"d{i}", "system_id": f"s{j}", "score": base})
    paths = {}
    for name, rows in (("annotations", annotations), ("scores", scores),
                       ("baseline", baseline)):
        order = rng.permutation(len(rows))
        lines = [json.dumps(rows[k]) for k in order]
        if name == "annotations":
            lines.insert(0, json.dumps({"rating_scale": [1.0, 5.0]}))
        paths[name] = root / f"{name}.jsonl"
        paths[name].write_text("\n".join(lines) + "\n", encoding="utf-8")
    return paths


def test_evaluate_report_digest(tmp_path):
    paths = _evaluate_inputs(tmp_path)
    out = io.StringIO()
    argv = ["evaluate", "--scores", paths["scores"], "--annotations", paths["annotations"],
            "--baseline", paths["baseline"]]
    with contextlib.redirect_stdout(out):
        assert main([str(a) for a in argv]) == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == EVALUATE_GOLDEN
