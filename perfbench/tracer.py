"""Run the connsets CLI once with every layer's public functions traced.

Usage: python3 perfbench/tracer.py SPANS_JSON <connsets arguments...>

Each public function of a layer module is replaced, at every module
attribute of the package that binds it, by a wrapper that records a span
(name, start, end, parent index, work) in memory.  Callers that import a
function by name, call it through a module attribute, or import it lazily
inside a function body all reach the wrapper.  The program's stdout and
exit code are left as they are; the spans, the canonical-form cache
statistics and any binding left unwrapped are written to SPANS_JSON when
the command ends.  The source tree is not modified.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Layer name -> (module, public functions traced).  ``graphs`` and
# ``errors`` are left out: their time sits inside their callers' spans.
LAYERS = {
    "canon": ("connsets.canon", ("canonical_certificate", "is_isomorphic")),
    "enumeration": (
        "connsets.enumeration",
        ("enumerate_bicyclic", "enumerate_trees", "extract_core", "pendant_free_core"),
    ),
    "counting": (
        "connsets.counting",
        (
            "oracle_count",
            "oracle_count_rooted",
            "oracle_count_pair",
            "smart_count",
            "tree_rooted_count",
            "combine_identified",
            "extend_pendant",
        ),
    ),
    "crosscheck": (
        "connsets.crosscheck",
        ("labeled_bicyclic_classes", "labeled_bicyclic_certificates", "labeled_tree_certificates"),
    ),
    "families": (
        "connsets.families",
        ("build", "closed_form", "parse_family_spec", "e_graph_reference"),
    ),
    "transforms": (
        "connsets.transforms",
        (
            "annotate_family",
            "cycle_to_tadpole",
            "subtree_to_star",
            "part_to_q",
            "branch_shift",
            "glue_at",
        ),
    ),
    "verify": (
        "connsets.verify",
        (
            "verify_minimum",
            "verify_maximum",
            "verify_vertex_bound",
            "verify_closed_forms",
            "verify_lemma_algebra",
            "verify_tree_bound",
            "count_stream",
        ),
    ),
    "cli": ("connsets.cli", ("main",)),
}

# Work recorded with a span, taken from the traced function's result.
WORK = {
    "counting.oracle_count": lambda r: r.total,
    "counting.oracle_count_rooted": lambda r: r.value,
    "enumeration.enumerate_bicyclic": len,
    "crosscheck.labeled_bicyclic_classes": lambda r: sum(size for _, size in r),
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, work]
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if work is not None:
                span[4] = work(result)
            return result

        return traced


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "connsets"]


def install(tracer: Tracer) -> dict[int, str]:
    """Wrap every traced function at each binding site; returns the
    originals by id so that leftover bindings can be found."""
    # Import every layer first, so that modules imported lazily by the
    # program (crosscheck, via verify) have their bindings patched too.
    modules = {layer: importlib.import_module(name) for layer, (name, _) in LAYERS.items()}
    originals: dict[int, str] = {}
    for layer, (_, names) in LAYERS.items():
        module = modules[layer]
        for fname in names:
            original = getattr(module, fname)
            originals[id(original)] = f"{layer}.{fname}"
            wrapped = tracer.wrap(f"{layer}.{fname}", original)
            for mod in _package_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
    return originals


def unwrapped_bindings(originals: dict[int, str]) -> list[str]:
    """Module attributes of the package still bound to an original."""
    return [
        f"{mod.__name__}.{attr} -> {originals[id(value)]}"
        for mod in _package_modules()
        for attr, value in vars(mod).items()
        if id(value) in originals
    ]


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    originals = install(tracer)
    leftover = unwrapped_bindings(originals)
    cache = importlib.import_module("connsets.canon").canonical_form
    cli = importlib.import_module("connsets.cli")
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        info = cache.cache_info()
        with open(spans_path, "w") as fh:
            json.dump(
                {
                    "spans": tracer.spans,
                    "canon_cache": {"hits": info.hits, "misses": info.misses},
                    "unwrapped": leftover,
                },
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
