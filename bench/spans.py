"""In-memory span recording around umse's public functions.

The traced run wraps each target function at every umse module that holds a
reference to it (``from .model import forward_batch`` copies the name into
the importing module, so patching only the home module would miss calls
made through the copy). A target that no longer exists is recorded as
absent with a reason and never raises. Wrappers are installed only for the
traced passes and removed afterwards, so untraced work runs the original
functions.

A span is a list ``[name, start, end, parent, op, attrs]``: ``parent`` is the
index of the enclosing span (-1 at the top of a CLI call), ``op`` the id of
the CLI call (operation) the span belongs to, and ``attrs`` a small dict of
counts taken from the call's arguments or result, or None.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

MODULES = ("corpus", "retrieval", "datagen", "model", "training", "metaeval", "cli")

def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos]


def _tokenize_attrs(args, kwargs, out, unk_id=None):
    if unk_id is None:
        return {"tokens": len(out)}
    return {"tokens": len(out), "unk": out.count(unk_id)}


def _most_similar_attrs(args, kwargs, out):
    return {"doc": int(_arg(args, kwargs, 1, "doc"))}


def _forward_attrs(args, kwargs, out):
    layouts = _arg(args, kwargs, 2, "layouts")
    lengths = [layout.length for layout in layouts]
    scenarios = {layout.scenario for layout in layouts}
    return {
        "scenario": scenarios.pop() if len(scenarios) == 1 else "mixed",
        "rows": len(lengths),
        "tokens": sum(lengths),
        "padded": len(lengths) * max(lengths),
    }


def _assemble_attrs(args, kwargs, out):
    scenario = _arg(args, kwargs, 0, "scenario")
    candidate = _arg(args, kwargs, 1, "candidate")
    reference = _arg(args, kwargs, 2, "reference")
    document = _arg(args, kwargs, 3, "document")
    full = 1 + out.n_prefix + len(candidate)
    if scenario in ("SD", "SDR"):
        full += 1 + len(document)
    if scenario in ("SR", "SDR"):
        full += 1 + len(reference)
    return {"truncated": int(out.length < full)}


def _scenario_attrs(args, kwargs, out):
    return {"scenario": _arg(args, kwargs, 2, "scenario")}


def _backward_attrs(args, kwargs, out):
    batch = _arg(args, kwargs, 2, "batch")
    return {"scenario": batch[0].scenario, "rows": len(batch)}


def _clip_attrs(args, kwargs, out):
    return {"norm": float(out), "clipped": int(out > _arg(args, kwargs, 1, "max_norm"))}


def _eval_attrs(args, kwargs, out):
    return {"rows": len(_arg(args, kwargs, 2, "examples"))}


def _kendall_attrs(args, kwargs, out):
    return {"n": len(_arg(args, kwargs, 0, "xs"))}


def _significance_attrs(args, kwargs, out):
    scores = _arg(args, kwargs, 0, "scores")
    return {"paired": int(out[2]), "docs": len({row[0] for row in scores})}


# (module, dotted attribute path, attrs function). The span name is
# "<module>.<attribute path>".
TARGETS = (
    ("corpus", "read_corpus_jsonl", None),
    ("corpus", "tokenize", _tokenize_attrs),
    ("corpus", "Corpus.ordinal_of", None),
    ("retrieval", "build_index", None),
    ("retrieval", "save_index", None),
    ("retrieval", "load_index", None),
    ("retrieval", "most_similar", _most_similar_attrs),
    ("datagen", "make_summary_matching_pair", None),
    ("datagen", "make_document_matching_pair", None),
    ("datagen", "write_dataset_jsonl", None),
    ("datagen", "read_dataset_jsonl", None),
    ("datagen", "to_scenario_examples", None),
    ("model", "forward_batch", _forward_attrs),
    ("model", "assemble_input", _assemble_attrs),
    ("model", "score", _scenario_attrs),
    ("model", "load_checkpoint", None),
    ("model", "save_checkpoint", None),
    ("training", "backward", _backward_attrs),
    ("training", "clip_gradients", _clip_attrs),
    ("training", "adamw_step", None),
    ("training", "evaluate_accuracy", _eval_attrs),
    ("metaeval", "kendall_tau", _kendall_attrs),
    ("metaeval", "spearman", None),
    ("metaeval", "significance_against_baseline", _significance_attrs),
    ("metaeval", "read_annotations_jsonl", None),
    ("metaeval", "rouge_l", None),
    ("metaeval", "rouge_n", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self.absent: dict[str, str] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, attrs_fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[2] = clock()
                stack.pop()
                rec[5] = {"raised": 1}
                raise
            rec[2] = clock()
            stack.pop()
            if attrs_fn is not None:
                try:
                    rec[5] = attrs_fn(args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                    rec[5] = {"attrs_error": type(exc).__name__}
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every target; targets that cannot be found are recorded in
        ``absent`` instead of raising."""
        modules = {m: importlib.import_module(f"umse.{m}") for m in MODULES}
        unk_id = getattr(modules["corpus"], "UNK_ID", None)
        if unk_id is None:
            self.absent["corpus.UNK_ID"] = "umse.corpus.UNK_ID is not defined"
        for home, path, attrs_fn in TARGETS:
            if attrs_fn is _tokenize_attrs:
                attrs_fn = functools.partial(_tokenize_attrs, unk_id=unk_id)
            name = f"{home}.{path}"
            owner = modules[home]
            *outer, leaf = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except AttributeError:
                self.absent[name] = f"umse.{name} is not defined"
                continue
            if not callable(original):
                self.absent[name] = f"umse.{name} is not callable"
                continue
            wrapper = self._wrap(name, original, attrs_fn)
            holders = [owner] if outer else [
                mod for mod in modules.values() if getattr(mod, leaf, None) is original
            ]
            for holder in holders:
                setattr(holder, leaf, wrapper)
                self._patches.append((holder, leaf, original))

    def uninstall(self) -> None:
        for holder, leaf, original in reversed(self._patches):
            setattr(holder, leaf, original)
        self._patches.clear()

    def write(self, path, ops: list[dict]) -> None:
        """One JSON line per CLI call, then one per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for op_id, op in enumerate(ops):
                fh.write(json.dumps({"op": op_id, **op}) + "\n")
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent,
                         "op": op, "attrs": attrs}
                    )
                    + "\n"
                )
