"""Spans around the calls into each latcensus layer, from outside the program.

``Tracer.install`` replaces each traced function in every latcensus module
namespace that holds it, so a call is caught wherever its caller looks it
up (``census`` reaches ``canonical_form`` by name, ``structure`` through
``canon.``).  ``Tracer.remove`` puts the originals back.  Spans are kept in
memory as [name, start, end, parent, run] and written out once at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# span name -> (defining module, attribute).  The two private census
# functions are the generator and the per-class analysis: there is no
# public function that covers exactly either stage.
TARGETS = {
    "cli.main": ("latcensus.cli", "main"),
    "core.from_covers": ("latcensus.core", "from_covers"),
    "core.sublattice": ("latcensus.core", "sublattice"),
    "canon.canonical_form": ("latcensus.canon", "canonical_form"),
    "census.gen": ("latcensus.census", "_census_classes"),
    "census.analyze": ("latcensus.census", "_analyze"),
    "subuniverse.count": ("latcensus.subuniverse", "count_subuniverses"),
    "subuniverse.enumerate": ("latcensus.subuniverse", "enumerate_subuniverses"),
    "structure.classify": ("latcensus.structure", "classify"),
    "structure.find_antichain": ("latcensus.structure", "find_antichain"),
    "congruence.count": ("latcensus.congruence", "count_congruences"),
    "congruence.principal": ("latcensus.congruence", "principal_congruence"),
    "congruence.ji": ("latcensus.congruence", "join_irreducible_congruences"),
}

# unit of each per-layer metric, in report order
METRICS = {
    "canon.canonical_form.calls": "count",
    "canon.canonical_form.self_s": "s",
    "canon.canonical_form.us_per_call": "us",
    "core.from_covers.calls": "count",
    "core.from_covers.self_s": "s",
    "core.sublattice.calls": "count",
    "core.sublattice.self_s": "s",
    "census.gen.children": "count",
    "census.gen.classes": "count",
    "census.gen.keep_ratio": "ratio",
    "census.gen.self_s": "s",
    "census.analyze.per_class": "ratio",
    "subuniverse.count.calls": "count",
    "subuniverse.count.self_s": "s",
    "subuniverse.count.subs_per_s": "1/s",
    "subuniverse.enumerate.self_s": "s",
    "subuniverse.enumerate.subs_per_s": "1/s",
    "structure.classify.calls": "count",
    "structure.classify.self_s": "s",
    "structure.find_antichain.self_s": "s",
    "congruence.count.self_s": "s",
    "congruence.principal.calls": "count",
    "congruence.principal.self_s": "s",
    "congruence.ji_per_cover": "ratio",
    "cli.main.self_s": "s",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run = 0
        self.patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        # facts read from arguments and results, outside the timed spans
        self.gen_classes: dict[int, int] = {}
        self.analyzed_forms: set[bytes] = set()
        self.subs_counted = 0
        self.subs_listed = 0
        self.ji_found = 0
        self.ji_covers = 0

    def _observe(self, name: str, args, result) -> None:
        if name == "census.gen":
            self.gen_classes[args[0]] = len(result)
        elif name == "census.analyze":
            self.analyzed_forms.add(args[0][0])
        elif name == "subuniverse.count":
            self.subs_counted += result
        elif name == "subuniverse.enumerate":
            self.subs_listed += len(result)
        elif name == "congruence.ji":
            self.ji_found += len(result)
            self.ji_covers += len(args[0].covers)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        # generators are drained inside the span so that it covers their work
        drain = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = list(result)
            finally:
                span[2] = clock()
                stack.pop()
            self._observe(name, args, result)
            return iter(result) if drain else result

        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if k == "latcensus" or k.startswith("latcensus.")]
        for name, (modname, attr) in TARGETS.items():
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self.patched.append((mod, key, original))

    def remove(self) -> None:
        for mod, key, original in reversed(self.patched):
            setattr(mod, key, original)
        self.patched.clear()

    def self_times(self) -> dict[str, list]:
        """Per span name: [calls, total self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            acc = out.setdefault(name, [0, 0.0])
            acc[0] += 1
            acc[1] += end - start - child[k]
        return out

    def metrics(self) -> dict[str, float]:
        st = self.self_times()

        def calls(name):
            return st.get(name, [0, 0.0])[0]

        def self_s(prefix):
            return sum(v[1] for k, v in st.items() if k == prefix or k.startswith(prefix + "."))

        def ratio(a, b):
            return a / b if b else 0.0

        in_gen = 0  # canonical forms computed inside the generator
        names = [s[0] for s in self.spans]
        for name, _, _, parent, _ in self.spans:
            if name == "canon.canonical_form" and parent >= 0 and names[parent] == "census.gen":
                in_gen += 1
        classes = sum(self.gen_classes.values())
        return {
            "canon.canonical_form.calls": calls("canon.canonical_form"),
            "canon.canonical_form.self_s": self_s("canon.canonical_form"),
            "canon.canonical_form.us_per_call": 1e6 * ratio(
                self_s("canon.canonical_form"), calls("canon.canonical_form")),
            "core.from_covers.calls": calls("core.from_covers"),
            "core.from_covers.self_s": self_s("core.from_covers"),
            "core.sublattice.calls": calls("core.sublattice"),
            "core.sublattice.self_s": self_s("core.sublattice"),
            "census.gen.children": in_gen,
            "census.gen.classes": classes,
            "census.gen.keep_ratio": ratio(classes, in_gen),
            "census.gen.self_s": self_s("census.gen"),
            "census.analyze.per_class": ratio(calls("census.analyze"), len(self.analyzed_forms)),
            "subuniverse.count.calls": calls("subuniverse.count"),
            "subuniverse.count.self_s": self_s("subuniverse.count"),
            "subuniverse.count.subs_per_s": ratio(self.subs_counted, self_s("subuniverse.count")),
            "subuniverse.enumerate.self_s": self_s("subuniverse.enumerate"),
            "subuniverse.enumerate.subs_per_s": ratio(
                self.subs_listed, self_s("subuniverse.enumerate")),
            "structure.classify.calls": calls("structure.classify"),
            "structure.classify.self_s": self_s("structure.classify"),
            "structure.find_antichain.self_s": self_s("structure.find_antichain"),
            "congruence.count.self_s": self_s("congruence.count"),
            "congruence.principal.calls": calls("congruence.principal"),
            "congruence.principal.self_s": self_s("congruence.principal"),
            "congruence.ji_per_cover": ratio(self.ji_found, self.ji_covers),
            "cli.main.self_s": self_s("cli.main"),
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps([name, start, end, parent, run]) + "\n")
