"""In-memory spans around the program's public functions.

The program is not edited: `install` replaces attributes of the lexinduct
modules that call each function at run time (the pipeline's imported
names, `phrases.k_nearest`, `tuner.objective`, `decoder.decode` and
`TranslationSystem.translate`) with wrappers that record a span and,
where asked, a few counters taken from the arguments and the result.
Only the process that installed the tracer records; forked decoder
workers run the wrapped functions without recording.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "counters")

    def __init__(self, name, layer, start, parent):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.counters = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "layer": self.layer, "start": self.start,
                "end": self.end, "parent": self.parent, "counters": self.counters}


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str, layer: str) -> Span:
        span = Span(name, layer, perf_counter(), self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        span = self._open(name, layer)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, owner, attr: str, counters=None) -> None:
        """Replace `owner.attr` by a recording wrapper; `counters(args,
        kwargs, result)` returns a dict stored on the span."""
        fn = getattr(owner, attr)
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__qualname__}"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counters is not None:
                span.counters = counters(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def stop(self) -> None:
        """Stop recording; the wrappers stay in place and only pass through."""
        self.pid = -1

    def add_span(self, name: str, layer: str, start: float, end: float, parent: int | None) -> int:
        """Insert a span measured elsewhere (a pipeline stage read from the
        runner's log) and adopt the top-level spans that started inside it."""
        index = len(self.spans)
        span = Span(name, layer, start, parent)
        span.end = end
        self.spans.append(span)
        for other in self.spans[:index]:
            if other.parent == parent and start <= other.start < end:
                other.parent = index
        return index

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span durations minus the time their direct children cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.seconds
        out: dict[str, float] = {}
        for span, covered in zip(self.spans, child_time):
            out[span.layer] = out.get(span.layer, 0.0) + span.seconds - covered
        return out

    def dump(self) -> list[dict]:
        return [s.as_dict(i) for i, s in enumerate(self.spans)]


def install(tracer: Tracer) -> None:
    """Wrap every public function the pipeline, tuner and decoder call."""
    from lexinduct import decoder, phrases, pipeline, tuner

    counted = {
        "load_corpus": lambda a, k, r: {"tokens": r.token_count},
        "train_lm": lambda a, k, r: {"tokens": sum(len(s) for s in a[0]), "entries": len(r.logprob)},
        "induce_tables": lambda a, k, r: {
            "entries": sum(len(v) for t in (r.table_fwd, r.table_rev) for v in t.entries.values()),
            "tau_fwd": r.tau_fwd.tau, "tau_rev": r.tau_rev.tau,
        },
        "translate_corpus": lambda a, k, r: {"sentences": len(r)},
        "train_ibm2": lambda a, k, r: {
            "pair_iterations": len(a[0]) * len(r.log_likelihoods),
            "tension": r.diagonal_tension, "log_likelihood": r.log_likelihoods[-1],
        },
        "count_extractions": lambda a, k, r: {"occurrences": sum(r.pairs.values())},
        "dictionary_from_counts": lambda a, k, r: {"entries": len(r)},
        "precision_at_1": lambda a, k, r: {"oov_rate": r[1]},
    }
    for attr in (
        "load_corpus", "write_corpus", "count_ngrams", "sample_sentences",
        "load_embeddings", "unit_normalize", "save_cache", "load_cache",
        "build_phrase_inventory", "build_phrase_store", "induce_tables",
        "train_lm", "save_lm", "load_lm",
        "tune", "translate_corpus",
        "train_ibm2", "align_corpus", "grow_diag_final_and", "read_links", "write_links",
        "count_extractions", "write_extracted_counts", "read_extracted_counts",
        "dictionary_from_counts", "read_gold", "precision_at_1",
    ):
        tracer.wrap(pipeline, attr, counted.get(attr))
    tracer.wrap(pipeline.PhraseTable, "read")
    tracer.wrap(pipeline.InducedDictionary, "read")
    tracer.wrap(phrases, "k_nearest", lambda a, k, r: {"queries": len(r)})
    tracer.wrap(tuner, "objective")
    tracer.wrap(decoder, "decode")
    tracer.wrap(decoder.TranslationSystem, "translate")
