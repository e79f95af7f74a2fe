#!/usr/bin/env python3
"""pmx-analyze: the static analyzer for the pmx codebase.

The reproduction's correctness claims rest on bit-exact determinism and a
layered architecture: gate counts, the SL fast/ref differential oracle and
the byte-identical ``--jobs N`` sweep all assume no hidden nondeterminism.
One run checks the whole contract: four cross-file passes plus the
line-local hygiene rules, behind one ``// pmx-lint: allow(<rule>)`` escape
hatch and one fingerprint-baseline format (tools/pmx_lexer.py). The passes:

1. Include-graph / layer contract (``layer-violation``, ``include-cycle``).
   src/ modules form a declared DAG:

       common -> sim -> {sched, fabric, predictor, fault}
              -> {nic, traffic, compiled} -> switching -> core

   A module may include itself and modules of strictly lower layers;
   same-layer edges are violations unless declared in INTRA_LAYER_EDGES
   (currently ``compiled -> traffic``: compiled plans are built from traffic
   programs; acyclicity of the declared edges is checked at startup). Any
   include that climbs the DAG -- e.g. a predictor reaching into the NIC, or
   the switching base including core -- is a ``layer-violation``. File-level
   include cycles (direct or transitive) are ``include-cycle`` findings.
   ``--dot FILE`` emits the module-level include graph as Graphviz DOT
   (layers as clusters, edge labels = include counts, violations in red);
   the committed snapshot lives in tests/golden/include_graph.dot.

2. Determinism taint (``ptr-order``). Pointer-keyed or pointer-ordered
   containers (``unordered_map<T*, ...>``, ``set<T*>``), ``std::hash`` over
   pointer types, and comparators that sort raw pointers by address all leak
   allocation order (ASLR makes it nondeterministic across runs) into
   iteration or event order. Key by stable ids (NodeId, MessageId, (src,dst))
   instead -- this is the cross-file generalization of the unordered-iter
   rule below.

3. Wall-clock / environment taint (``wallclock``). ``system_clock``,
   ``time()``, ``clock()``, ``clock_gettime``, ``gettimeofday``,
   ``localtime``/``gmtime``, and ``getenv`` make behavior depend on when or
   where the process runs. All simulated time flows from sim/clock.hpp; all
   configuration flows from Config/CLI. ``steady_clock`` and
   ``high_resolution_clock`` are additionally banned inside src/ (benches
   may measure their own wall time).

4. Hot-path allocation (``hot-path-alloc``). A function marked with a
   ``// pmx-hot`` comment on the line above its signature must not allocate:
   no ``new`` / ``make_unique`` / ``make_shared``, no ``std::function``
   construction, no string building (``std::string`` construction,
   ``to_string``, stringstreams, concatenation), no owning bitset
   (a by-value ``BitMatrix`` / ``BitVector`` declaration, copy or
   temporary, or a ``row_or()`` / ``col_or()`` reduction, each of which
   allocates fresh words), and no container growth (``push_back`` &
   friends, ``insert``, ``emplace``, ``try_emplace``, ``resize``) on
   containers that are never ``reserve``d in the same file or its paired
   header. A node-based container (``unordered_map`` / ``unordered_set``,
   ``map``, ``set``, ``list``, ``deque``) allocates a node per insertion,
   so a ``reserve`` or ``rehash`` of one exempts nothing. A lexer cannot see
   types: ``(a & b).any()`` or ``auto c = a ^ b`` on bitsets builds a
   temporary through an operator and passes unflagged -- the pattern
   ``TdmScheduler::advance_slot`` used before it took
   ``BitMatrix::intersects``; the pmx_alloc_tests executable counts the
   scheduler pass's allocations at run time for that reason. Annotated
   kernels: ``sl_array_pass_fast`` (the word-parallel scheduler pass),
   ``TdmScheduler::run_pass`` (one SL clock) with the helpers it calls
   (``load_effective_requests``, ``apply_toggles``, ``rebuild_b_star``)
   and ``preschedule_into`` (Table 1 a word at a time),
   ``TdmScheduler::advance_slot`` (the TDM counter), the word loops of the
   request audit (``audit_requests_fast``) and of the slot-invariant audit
   (``scan_slot``, ``union_matches``), the EventQueue's push and pop
   (``push``, ``drop_dead``, ``take_top``, ``pop_until``, over a heap,
   slab and free list reserved at construction; pmx_alloc_tests counts
   their allocations at run time too), the VOQ drain path, ``rr_pick``
   (the wormhole arbiters' round-robin pick), and the policy engine's
   ``upsert`` and ``settle_front`` (packed entries behind a pair index;
   pmx_alloc_tests counts the engine's allocations too).

5. Line-local hygiene (the lint rules, LINT_RULES):

  raw-rand       direct std::rand / srand / time() seeding / std::random_device
                 / std::mt19937 use anywhere outside src/common/rng.{hpp,cpp}.
                 All randomness must flow through pmx::Rng (xoshiro256**),
                 whose output is platform-independent.
  unordered-iter iteration over a std::unordered_map / std::unordered_set.
                 Bucket order is implementation-defined, so any loop over an
                 unordered container can leak nondeterministic ordering into
                 output or event order. Commutative folds (count, max, set
                 union) are safe: annotate them with an allow comment.
  float-accum    += / -= accumulation into float/double outside the
                 whitelisted analytic-model files. Slot and latency
                 *accounting* must stay integral (TimeNs / byte counts);
                 floating point is reserved for derived statistics.
  raw-new        raw `new` / `delete` expressions. Ownership goes through
                 containers and smart pointers; raw allocation invites leaks
                 the ASan tier then has to chase.
  raw-heap       std::priority_queue or the <algorithm> heap primitives
                 (push_heap/pop_heap/make_heap/sort_heap/is_heap) anywhere
                 outside src/predictor/policy_engine.* and
                 src/sim/event_queue.*. Priority ordering is a determinism
                 hot-spot (heaps are not stable); rank-ordered scheduling
                 must go through the PolicyEngine and event ordering through
                 the EventQueue, both of which carry total-order
                 tie-breakers.
  unbounded-queue
                 growth calls (push_back / push_front / emplace_back /
                 emplace_front / push / emplace) on std::deque / std::queue /
                 std::list typed names inside src/nic and src/switching with
                 no capacity check in sight (same line or the three preceding
                 code lines). Overload robustness rests on every NIC and
                 switch queue being bounded: growth must sit behind an
                 explicit capacity verdict (the admission controller,
                 Network::try_submit) or carry an allow comment stating the
                 structural bound.
  include-guard  headers must open with `#pragma once`.

Escape hatch: a finding on line N is suppressed by appending
``// pmx-lint: allow(<rule>)`` to line N (and only line N). Multiple rules:
``allow(rule-a, rule-b)``. For the file-level include-guard rule the allow
comment must sit on line 1.

Baselines: ``--baseline FILE`` loads a committed JSON baseline and only
*new* findings (not fingerprint-matched by the baseline) fail the run.
Fingerprints hash the rule plus the whitespace-normalized source line, so
unrelated edits moving a known finding up or down a file do not break CI.
Every entry must carry a nonempty ``"justification"``: the contract may only
be suspended with a written reason. ``--write-baseline`` emits empty
justification fields to fill in.

Exit status: 0 when no (new) findings, 1 when findings remain, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from pmx_lexer import (
    DEFAULT_ROOTS,
    EXCLUDED_PARTS,
    Finding,
    LexedFile,
    SOURCE_EXTENSIONS,
    discover,
    load_baseline,
    strip_comments_and_strings,
    subtract_baseline,
    write_baseline,
)

# --------------------------------------------------------------------------
# The architecture contract. LAYERS is the declared DAG, bottom-up: a module
# may depend on (include from) itself, any module in a strictly lower layer,
# and the explicitly declared same-layer edges below. Grow the contract here
# (and in DESIGN.md section 13) BEFORE adding a new src/ module; an
# undeclared module is itself a violation.
# --------------------------------------------------------------------------
LAYERS: tuple[tuple[str, ...], ...] = (
    ("common",),
    ("sim",),
    ("sched", "fabric", "predictor", "fault"),
    ("control",),
    ("nic", "traffic", "compiled"),
    ("switching",),
    ("core",),
)

#: Declared same-layer dependencies (includer, includee). Kept rare and
#: documented: compiled slot plans are compiled *from* traffic programs, so
#: compiled may see traffic's program model (never the reverse).
INTRA_LAYER_EDGES: frozenset[tuple[str, str]] = frozenset({
    ("compiled", "traffic"),
})

LAYER_RANK: dict[str, int] = {
    mod: rank for rank, layer in enumerate(LAYERS) for mod in layer
}

# Files allowed to touch raw randomness primitives: the Rng wrapper itself.
RAW_RAND_EXEMPT = ("src/common/rng.hpp", "src/common/rng.cpp")

# The two sanctioned priority-queue cores: the policy engine (rank-ordered
# eviction with a (rank, src, dst) total order) and the simulator's event
# queue. Everything else must route priority ordering through them.
RAW_HEAP_EXEMPT = (
    "src/predictor/policy_engine.hpp",
    "src/predictor/policy_engine.cpp",
    "src/sim/event_queue.hpp",
    "src/sim/event_queue.cpp",
)

# Analytic-model / statistics files where floating-point accumulation is the
# point (latency closed forms, derived run metrics). Slot and event
# accounting elsewhere must stay integral.
FLOAT_ACCUM_WHITELIST = (
    "src/sched/latency_model.hpp",
    "src/sched/latency_model.cpp",
    "src/core/metrics.hpp",
    "src/core/metrics.cpp",
    # Stochastic arrival-process model: continuous-time exponential draws,
    # quantized to TimeNs only at the program boundary.
    "src/traffic/arrival.hpp",
    "src/traffic/arrival.cpp",
)

# The queue-discipline layers where every queue must be bounded: the NIC
# (VOQs, admission) and the switch paradigms. Queue growth elsewhere (test
# scaffolding, tooling) is out of scope for unbounded-queue.
UNBOUNDED_QUEUE_ROOTS = ("src/nic/", "src/switching/")

RULES = {
    "layer-violation": "include edge breaks the declared layer DAG "
    "(see LAYERS in tools/pmx_analyze.py and DESIGN.md section 13)",
    "include-cycle": "file-level include cycle; break it with a forward "
    "declaration or by moving shared types down a layer",
    "ptr-order": "pointer-keyed/ordered container, pointer hash, or "
    "sort-by-address leaks allocation order (nondeterministic under ASLR); "
    "key by stable ids instead",
    "wallclock": "wall-clock/environment API; simulated time comes from "
    "sim/clock.hpp and configuration from Config/CLI",
    "hot-path-alloc": "allocating construct inside a // pmx-hot kernel; "
    "hoist the allocation out of the hot path or reserve up front",
    "raw-rand": "raw randomness primitive; use pmx::Rng from src/common/rng.hpp",
    "unordered-iter": "iteration over unordered container leaks bucket order; "
    "iterate a sorted/stable structure or allow() a commutative fold",
    "float-accum": "floating-point accumulation outside analytic-model "
    "whitelist; keep slot/latency accounting integral",
    "raw-new": "raw new/delete; use containers or smart pointers",
    "raw-heap": "raw priority queue / heap primitive outside the sanctioned "
    "cores; route rank ordering through PolicyEngine and event ordering "
    "through EventQueue",
    "unbounded-queue": "queue growth without a capacity check; gate it "
    "behind an explicit capacity verdict (the admission controller, "
    "Network::try_submit) or allow() a structurally bounded site",
    "include-guard": "header does not start with #pragma once",
}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
#: What a local include looks like after the lexer blanks the string body.
INCLUDE_STUB_RE = re.compile(r'^\s*#\s*include\s+""')

PTR_UNORDERED_KEY_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^,>;]*\*")
PTR_ORDERED_KEY_RE = re.compile(
    r"(?<![\w:])(?:std::)?(?:map|set|multimap|multiset)\s*<[^,>;]*\*")
PTR_HASH_RE = re.compile(r"\bstd::hash\s*<[^>]*\*\s*>")
SORT_CALL_RE = re.compile(r"\b(?:std::)?(?:stable_)?sort\s*\(")
LAMBDA_RE = re.compile(
    r"\[[^\]]*\]\s*\(([^)]*)\)\s*(?:->\s*[\w:<>]+\s*)?\{([^}]*)\}")
LAMBDA_PTR_PARAM_RE = re.compile(r"\*\s*(?:const\s+)?([A-Za-z_]\w*)\s*(?:[,)]|$)")

WALLCLOCK_RE = re.compile(
    r"\bsystem_clock\b"
    r"|\bgettimeofday\s*\("
    r"|\bclock_gettime\s*\("
    r"|\blocaltime(?:_r)?\s*\("
    r"|\bgmtime(?:_r)?\s*\("
    r"|(?<![\w:.>])time\s*\("
    r"|(?<![\w:.>])clock\s*\(\s*(?:void\s*)?\)"
    r"|\bgetenv\s*\("
)
#: Monotonic clocks: fine for a bench timing its own wall clock, still
#: forbidden inside the simulation library (behavior must never depend on
#: host timing).
MONOTONIC_RE = re.compile(r"\bsteady_clock\b|\bhigh_resolution_clock\b")

#: The annotation is a comment consisting of exactly `pmx-hot` -- prose
#: comments that merely mention the marker (docs, this file) do not count.
HOT_MARK_RE = re.compile(r"^\s*pmx-hot\s*$")
HOT_ALLOC_RE = re.compile(
    r"\bmake_unique\s*<|\bmake_shared\s*<|\bstd::function\s*<")
HOT_STRING_RE = re.compile(
    r"\bto_string\s*\(|\b[ois]?stringstream\b|\bstd::string\b"
    r'|""\s*\+|\+\s*""|\.append\s*\(')
#: Owning bitsets: a by-value BitMatrix/BitVector declaration, copy or
#: temporary, and the row_or()/col_or() reductions that return one. Blind to
#: bitset operators (`a & b`) and `auto` copies: the lexer has no types.
HOT_BITSET_RE = re.compile(
    r"\bBit(?:Matrix|Vector)\s*(?:[A-Za-z_]\w*\s*)?[({=;]"
    r"|\b(?:row_or|col_or)\s*\(")
HOT_GROW_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)?\.\s*"
    r"(?:push_back|push_front|emplace_back|emplace_front|emplace|try_emplace"
    r"|insert|resize)\s*\(")
RESERVE_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*(?:reserve|rehash)\s*\(")
#: Node-based containers: every insertion allocates a node, and reserve() or
#: rehash() sizes only a bucket array, so neither exempts their growth.
NODE_DECL_RE = re.compile(
    r"(?<![\w:])(?:std::)?(?:unordered_(?:map|set|multimap|multiset)"
    r"|map|set|multimap|multiset|list|forward_list|deque)"
    r"\s*<[^;{}]*?>[\s&*]*(?:const\s+)?([A-Za-z_]\w*)\s*(?:[;={,)]|$)"
)

RAW_RAND_RE = re.compile(
    r"(?<![\w:])(?:std::)?"
    r"(?:rand|srand|random_device|mt19937(?:_64)?|minstd_rand0?|default_random_engine)"
    r"(?![\w])"
    r"|(?<![\w:])(?:std::)?time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
)

UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>[\s&*]*"
    r"(?:const\s+)?([A-Za-z_]\w*)\s*(?:[;={,)]|$)"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;]*?):([^)]*)\)")
ITER_LOOP_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*(?:begin|cbegin)\s*\(\s*\)")

FLOAT_DECL_RE = re.compile(
    r"\b(?:double|float)\b[\s&*]*(?:const\s+)?([A-Za-z_]\w*)\s*(?:[;={,)]|$)"
)
COMPOUND_ASSIGN_RE = re.compile(r"(?:^|[^\w.])([A-Za-z_]\w*)\s*[+-]=")

RAW_HEAP_RE = re.compile(
    r"\b(?:std::)?priority_queue\s*<"
    r"|\b(?:std::)?(?:push_heap|pop_heap|make_heap|sort_heap"
    r"|is_heap(?:_until)?)\s*\("
)

QUEUE_DECL_RE = re.compile(
    r"\b(?:std::)?(?:deque|queue|list)\s*<[^;{}]*?>[\s&*]*"
    r"(?:const\s+)?([A-Za-z_]\w*)\s*(?:[;={,)]|$)"
)
QUEUE_GROW_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)?\.\s*"
    r"(?:push_back|push_front|emplace_back|emplace_front|push|emplace)\s*\("
)
# Capacity-verdict vocabulary: a growth call is considered guarded when one
# of these appears on the growth line or the three preceding code lines
# (comments are stripped, so prose claiming boundedness does not count).
QUEUE_GUARD_RE = re.compile(
    r"\b(?:capacity\w*|max_bytes\w*|max_msgs\w*"
    r"|admit\w*|try_submit)\b"
)
QUEUE_GUARD_WINDOW = 3

NEW_RE = re.compile(r"(?<!\boperator )\bnew\b\s*(?:\(|[A-Za-z_:<])")
DELETE_RE = re.compile(r"(?<!\boperator )(?<!=\s)(?<!= )\bdelete\b(?!\s*;)")

PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b")


def validate_contract() -> None:
    """The declared same-layer edges must not form a cycle (the inter-layer
    part is acyclic by construction: edges only point down ranks)."""
    adj: dict[str, set[str]] = {}
    for a, b in INTRA_LAYER_EDGES:
        if LAYER_RANK.get(a) != LAYER_RANK.get(b):
            raise ValueError(
                f"INTRA_LAYER_EDGES entry {a}->{b} does not connect "
                "same-layer modules")
        adj.setdefault(a, set()).add(b)
    # White/grey/black DFS: a grey->grey edge is a cycle.
    color: dict[str, int] = {}
    for start in adj:
        if color.get(start):
            continue
        stack: list[tuple[str, bool]] = [(start, False)]
        while stack:
            node, leaving = stack.pop()
            if leaving:
                color[node] = 2
                continue
            if color.get(node) == 2:
                continue
            color[node] = 1
            stack.append((node, True))
            for nxt in adj.get(node, ()):
                if color.get(nxt) == 1:
                    raise ValueError(
                        "INTRA_LAYER_EDGES contains a cycle through " + nxt)
                if not color.get(nxt):
                    stack.append((nxt, False))


# --------------------------------------------------------------------------
# Pass 1: include graph, layer contract, cycles, DOT artifact.
# --------------------------------------------------------------------------

class IncludeGraph:
    """Whole-program include graph over one src tree. Nodes are src-relative
    file paths ("sched/sl_array.hpp"); modules are their first components."""

    def __init__(self, src_root: Path):
        self.src_root = src_root
        self.files: dict[str, LexedFile] = {}
        #: file -> [(lineno, include_target)] for targets inside the tree
        self.file_edges: dict[str, list[tuple[int, str]]] = {}
        #: (src_module, dst_module) -> include count (self-edges excluded)
        self.module_edges: dict[tuple[str, str], int] = {}
        for ext in SOURCE_EXTENSIONS:
            for path in sorted(src_root.rglob(f"*{ext}")):
                # Exclusion is relative to the tree under analysis, so a
                # fixture tree that itself lives under lint_fixtures/ can
                # still be analyzed by pointing --src-root at it.
                rel_parts = path.relative_to(src_root).parts
                if any(part in EXCLUDED_PARTS for part in rel_parts):
                    continue
                rel = path.relative_to(src_root).as_posix()
                self.files[rel] = LexedFile(path, rel)
        for rel, lexed in self.files.items():
            edges: list[tuple[int, str]] = []
            # The include target is a string literal, which the lexer blanks
            # out of code lines: read it from the raw line, but only where
            # the stripped line confirms a real include directive (not one
            # quoted inside a comment or string).
            for lineno, code_line in enumerate(lexed.code, 1):
                if not INCLUDE_STUB_RE.match(code_line):
                    continue
                m = INCLUDE_RE.match(lexed.source_line(lineno))
                if not m:
                    continue
                target = m.group(1)
                if target in self.files:
                    edges.append((lineno, target))
                    src_mod = module_of(rel)
                    dst_mod = module_of(target)
                    if src_mod != dst_mod:
                        key = (src_mod, dst_mod)
                        self.module_edges[key] = self.module_edges.get(key, 0) + 1
            self.file_edges[rel] = edges

    def modules(self) -> list[str]:
        return sorted({module_of(rel) for rel in self.files})


def module_of(rel: str) -> str:
    return rel.split("/", 1)[0]


def edge_allowed(src_mod: str, dst_mod: str) -> bool:
    if src_mod == dst_mod:
        return True
    src_rank = LAYER_RANK.get(src_mod)
    dst_rank = LAYER_RANK.get(dst_mod)
    if src_rank is None or dst_rank is None:
        return False  # undeclared module: always a violation
    if dst_rank < src_rank:
        return True
    if dst_rank == src_rank:
        return (src_mod, dst_mod) in INTRA_LAYER_EDGES
    return False


def layer_pass(graph: IncludeGraph, findings: list[Finding],
               rel_prefix: str) -> None:
    for rel in sorted(graph.files):
        lexed = graph.files[rel]
        src_mod = module_of(rel)
        undeclared = src_mod not in LAYER_RANK
        if undeclared:
            lexed_rel = rel_prefix + rel
            findings.append(Finding(
                lexed_rel, 1, "layer-violation",
                f"module '{src_mod}' is not declared in the layer contract; "
                "add it to LAYERS in tools/pmx_analyze.py and DESIGN.md "
                "section 13", lexed.source_line(1)))
        for lineno, target in graph.file_edges[rel]:
            dst_mod = module_of(target)
            if src_mod == dst_mod or edge_allowed(src_mod, dst_mod):
                continue
            if undeclared and dst_mod in LAYER_RANK:
                continue  # already reported the module itself
            lexed.rel = rel_prefix + rel
            lexed.emit(findings, lineno, "layer-violation",
                       f"'{src_mod}' (layer {LAYER_RANK.get(src_mod, '?')}) "
                       f"must not include '{dst_mod}' "
                       f"(layer {LAYER_RANK.get(dst_mod, '?')}): "
                       + RULES["layer-violation"])


def cycle_pass(graph: IncludeGraph, findings: list[Finding],
               rel_prefix: str) -> None:
    """Tarjan SCCs over the file-level include graph; every SCC with more
    than one file (or a self-include) is one include-cycle finding."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = [0]

    adj = {rel: [t for _, t in edges]
           for rel, edges in graph.file_edges.items()}

    def strongconnect(root: str) -> None:
        work = [(root, iter(adj.get(root, ())))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(adj.get(nxt, ()))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.append(member)
                    if member == node:
                        break
                sccs.append(scc)

    for rel in sorted(graph.files):
        if rel not in index:
            strongconnect(rel)

    for scc in sccs:
        members = set(scc)
        cyclic = len(scc) > 1 or any(
            node in adj.get(node, ()) for node in scc)
        if not cyclic:
            continue
        anchor = min(scc)
        lexed = graph.files[anchor]
        lineno = next((ln for ln, t in graph.file_edges[anchor]
                       if t in members), 1)
        lexed.rel = rel_prefix + anchor
        lexed.emit(findings, lineno, "include-cycle",
                   "include cycle through { "
                   + ", ".join(sorted(members)) + " }: "
                   + RULES["include-cycle"])


def write_dot(graph: IncludeGraph, out_path: Path) -> None:
    """Module-level include graph, deterministic (sorted) for golden
    snapshot testing. Contract-violating edges render red and bold."""
    lines = [
        "// Generated by tools/pmx_analyze.py --dot; module-level include",
        "// graph of src/. Regenerate after any cross-module include change.",
        "digraph pmx_modules {",
        "  rankdir=BT;",
        "  node [shape=box, fontname=\"Helvetica\"];",
    ]
    by_rank: dict[int, list[str]] = {}
    for mod in graph.modules():
        by_rank.setdefault(LAYER_RANK.get(mod, -1), []).append(mod)
    for rank in sorted(by_rank):
        label = f"layer {rank}" if rank >= 0 else "undeclared"
        lines.append(f"  subgraph cluster_{max(rank, 0)}_" +
                     ("u" if rank < 0 else "d") + " {")
        lines.append(f"    label=\"{label}\";")
        lines.append("    rank=same;")
        for mod in sorted(by_rank[rank]):
            lines.append(f"    \"{mod}\";")
        lines.append("  }")
    for (src_mod, dst_mod) in sorted(graph.module_edges):
        count = graph.module_edges[(src_mod, dst_mod)]
        attrs = [f"label=\"{count}\""]
        if not edge_allowed(src_mod, dst_mod):
            attrs.append("color=red")
            attrs.append("penwidth=2.0")
        lines.append(
            f"  \"{src_mod}\" -> \"{dst_mod}\" [{', '.join(attrs)}];")
    lines.append("}")
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def render_dot(graph: IncludeGraph) -> str:
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "g.dot"
        write_dot(graph, out)
        return out.read_text(encoding="utf-8")


# --------------------------------------------------------------------------
# Pass 2+3: determinism taint (ptr-order, wallclock).
# --------------------------------------------------------------------------

def ptr_order_pass(lexed: LexedFile, findings: list[Finding]) -> None:
    for lineno, line in enumerate(lexed.code, 1):
        if (PTR_UNORDERED_KEY_RE.search(line)
                or PTR_ORDERED_KEY_RE.search(line)
                or PTR_HASH_RE.search(line)):
            lexed.emit(findings, lineno, "ptr-order", RULES["ptr-order"])
            continue
        if SORT_CALL_RE.search(line):
            for m in LAMBDA_RE.finditer(line):
                params, body = m.group(1), m.group(2)
                ptr_params = LAMBDA_PTR_PARAM_RE.findall(params)
                if len(ptr_params) < 2:
                    continue
                a, b = ptr_params[0], ptr_params[1]
                if re.search(rf"\b{a}\s*[<>]\s*{b}\b|\b{b}\s*[<>]\s*{a}\b",
                             body):
                    lexed.emit(findings, lineno, "ptr-order",
                               "comparator orders raw pointers by address: "
                               + RULES["ptr-order"])
                    break


def wallclock_pass(lexed: LexedFile, findings: list[Finding]) -> None:
    in_library = lexed.rel.replace("\\", "/").startswith("src/")
    for lineno, line in enumerate(lexed.code, 1):
        if WALLCLOCK_RE.search(line):
            lexed.emit(findings, lineno, "wallclock", RULES["wallclock"])
        elif in_library and MONOTONIC_RE.search(line):
            lexed.emit(findings, lineno, "wallclock",
                       "monotonic host clock inside the simulation library: "
                       + RULES["wallclock"])


# --------------------------------------------------------------------------
# Pass 4: // pmx-hot annotated kernels must not allocate.
# --------------------------------------------------------------------------

def hot_regions(lexed: LexedFile) -> list[tuple[int, int, int]]:
    """Return (first_line, first_col, last_line) for each region annotated
    with // pmx-hot: from the opening brace of the next function to its
    matching close. first_col is the offset just past the opening brace on
    first_line (the signature itself is not part of the region)."""
    regions: list[tuple[int, int, int]] = []
    n = len(lexed.code)
    for idx, comment in enumerate(lexed.comments):
        if not HOT_MARK_RE.search(comment):
            continue
        # Find the opening brace of the annotated function.
        line_no = idx + 1  # first code line after the annotation line
        depth = 0
        start: tuple[int, int] | None = None
        done = False
        while line_no < n and not done:
            line = lexed.code[line_no]
            for col, ch in enumerate(line):
                if ch == "{":
                    if depth == 0:
                        start = (line_no + 1, col + 1)
                    depth += 1
                elif ch == "}":
                    depth -= 1
                    if depth == 0 and start is not None:
                        regions.append((start[0], start[1], line_no + 1))
                        done = True
                        break
                elif ch == ";" and depth == 0 and start is None:
                    done = True  # declaration only: nothing to scan
                    break
            line_no += 1
    return regions


def hot_path_pass(lexed: LexedFile, extra_scope: list[str],
                  findings: list[Finding]) -> None:
    regions = hot_regions(lexed)
    if not regions:
        return
    scope = list(lexed.code) + extra_scope
    node_based = collect_names(NODE_DECL_RE, scope)
    reserved = collect_names(RESERVE_RE, scope) - node_based
    for first, first_col, last in regions:
        for lineno in range(first, last + 1):
            line = lexed.code[lineno - 1]
            if lineno == first:
                line = line[first_col:]
            if NEW_RE.search(line) or HOT_ALLOC_RE.search(line):
                lexed.emit(findings, lineno, "hot-path-alloc",
                           RULES["hot-path-alloc"])
                continue
            if HOT_STRING_RE.search(line):
                lexed.emit(findings, lineno, "hot-path-alloc",
                           "string building in a hot kernel: "
                           + RULES["hot-path-alloc"])
                continue
            if HOT_BITSET_RE.search(line):
                lexed.emit(findings, lineno, "hot-path-alloc",
                           "owning bitset copy, temporary or reduction in a "
                           "hot kernel: " + RULES["hot-path-alloc"])
                continue
            for m in HOT_GROW_RE.finditer(line):
                name = m.group(1)
                if name in reserved:
                    continue
                what = ("node-allocating growth" if name in node_based
                        else "un-reserved growth")
                lexed.emit(findings, lineno, "hot-path-alloc",
                           f"{what} of '{name}' in a hot kernel: "
                           + RULES["hot-path-alloc"])
                break


# --------------------------------------------------------------------------
# Pass 5: line-local hygiene rules.
# --------------------------------------------------------------------------

def collect_names(pattern: re.Pattern, lines) -> set[str]:
    names: set[str] = set()
    for line in lines:
        for m in pattern.finditer(line):
            names.add(m.group(1))
    return names


def paired_header_lines(path: Path) -> list[str]:
    """For foo.cpp, also scan foo.hpp so member declarations are visible."""
    if path.suffix != ".cpp":
        return []
    header = path.with_suffix(".hpp")
    if not header.is_file():
        return []
    code, _ = strip_comments_and_strings(header.read_text(encoding="utf-8"))
    return code


def range_expr_name(expr: str) -> str:
    """Final identifier of a range expression: `obj.member_` -> `member_`."""
    m = re.search(r"([A-Za-z_]\w*)\s*$", expr.strip())
    return m.group(1) if m else ""


def unbounded_queue_in_scope(rel: str) -> bool:
    """The rule polices the queue-discipline layers. Explicit file arguments
    outside the standard roots (the fixture corpus under test) are always in
    scope so the rule itself stays testable."""
    posix = rel.replace("\\", "/")
    if posix.startswith(UNBOUNDED_QUEUE_ROOTS):
        return True
    return posix.split("/", 1)[0] not in DEFAULT_ROOTS


def lint_pass(lexed: LexedFile, header: list[str], rules: set[str],
              findings: list[Finding]) -> None:
    """The LINT_RULES in `rules` over one file; `header` holds the code lines
    of its paired header."""
    rel = lexed.rel
    code_lines = lexed.code

    def emit(lineno: int, rule: str) -> None:
        lexed.emit(findings, lineno, rule, RULES[rule])

    if "raw-rand" in rules and rel not in RAW_RAND_EXEMPT:
        for idx, line in enumerate(code_lines, 1):
            if RAW_RAND_RE.search(line):
                emit(idx, "raw-rand")

    if "unordered-iter" in rules:
        unordered_names = collect_names(UNORDERED_DECL_RE, code_lines + header)
        for idx, line in enumerate(code_lines, 1):
            for m in RANGE_FOR_RE.finditer(line):
                if range_expr_name(m.group(2)) in unordered_names:
                    emit(idx, "unordered-iter")
            for m in ITER_LOOP_RE.finditer(line):
                if m.group(1) in unordered_names:
                    emit(idx, "unordered-iter")

    if "float-accum" in rules and rel not in FLOAT_ACCUM_WHITELIST:
        float_names = collect_names(FLOAT_DECL_RE, code_lines + header)
        for idx, line in enumerate(code_lines, 1):
            for m in COMPOUND_ASSIGN_RE.finditer(line):
                if m.group(1) in float_names:
                    emit(idx, "float-accum")

    if "unbounded-queue" in rules and unbounded_queue_in_scope(rel):
        queue_names = collect_names(QUEUE_DECL_RE, code_lines + header)
        for idx, line in enumerate(code_lines, 1):
            for m in QUEUE_GROW_RE.finditer(line):
                if m.group(1) not in queue_names:
                    continue
                lookback = code_lines[max(0, idx - 1 - QUEUE_GUARD_WINDOW):idx]
                if any(QUEUE_GUARD_RE.search(l) for l in lookback):
                    continue
                emit(idx, "unbounded-queue")

    if "raw-new" in rules:
        for idx, line in enumerate(code_lines, 1):
            if NEW_RE.search(line) or DELETE_RE.search(line):
                emit(idx, "raw-new")

    if "raw-heap" in rules and rel not in RAW_HEAP_EXEMPT:
        for idx, line in enumerate(code_lines, 1):
            if RAW_HEAP_RE.search(line):
                emit(idx, "raw-heap")

    if "include-guard" in rules and lexed.path.suffix == ".hpp":
        if not any(PRAGMA_ONCE_RE.match(line) for line in code_lines[:5]):
            emit(1, "include-guard")


# --------------------------------------------------------------------------
# Driver.
# --------------------------------------------------------------------------

GRAPH_RULES = ("layer-violation", "include-cycle")
ANALYZE_FILE_RULES = ("ptr-order", "wallclock", "hot-path-alloc")
LINT_RULES = ("raw-rand", "unordered-iter", "float-accum", "raw-new",
              "raw-heap", "unbounded-queue", "include-guard")


def analyze_file(path: Path, rel: str, rules: set[str]) -> list[Finding]:
    """Run the per-file rules in `rules` (everything but the include-graph
    passes) on one file."""
    lexed = LexedFile(path, rel)
    header = paired_header_lines(path)
    findings: list[Finding] = []
    if "ptr-order" in rules:
        ptr_order_pass(lexed, findings)
    if "wallclock" in rules:
        wallclock_pass(lexed, findings)
    if "hot-path-alloc" in rules:
        hot_path_pass(lexed, header, findings)
    lint_pass(lexed, header, rules, findings)
    return findings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="pmx-analyze", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*",
                        help="files or directories for the per-file passes "
                             f"(default: {', '.join(DEFAULT_ROOTS)})")
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--src-root", default="src",
                        help="tree the include-graph passes analyze, "
                             "relative to --root (default: src)")
    parser.add_argument("--rules",
                        help="comma-separated rule subset to run")
    parser.add_argument("--baseline", metavar="FILE",
                        help="JSON baseline; entries need justifications; "
                             "only new findings fail")
    parser.add_argument("--write-baseline", metavar="FILE",
                        help="write current findings as the new baseline "
                             "(with empty justification fields to fill in)")
    parser.add_argument("--dot", metavar="FILE",
                        help="write the module-level include graph as DOT")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-finding output")
    args = parser.parse_args(argv)

    validate_contract()

    if args.list_rules:
        for rule, doc in RULES.items():
            print(f"{rule:15s} {doc}")
        return 0

    active = set(RULES)
    if args.rules:
        active = {r.strip() for r in args.rules.split(",")}
        unknown = active - set(RULES)
        if unknown:
            print("pmx-analyze: unknown rule(s): "
                  + ", ".join(sorted(unknown)), file=sys.stderr)
            return 2

    root = Path(args.root).resolve()
    findings: list[Finding] = []

    # Whole-program include-graph passes over the src tree.
    src_root = (root / args.src_root
                if not Path(args.src_root).is_absolute()
                else Path(args.src_root))
    graph: IncludeGraph | None = None
    if src_root.is_dir():
        graph = IncludeGraph(src_root)
        try:
            prefix = src_root.relative_to(root).as_posix() + "/"
        except ValueError:
            prefix = str(src_root) + "/"
        if "layer-violation" in active:
            layer_pass(graph, findings, prefix)
        if "include-cycle" in active:
            cycle_pass(graph, findings, prefix)
        if args.dot:
            write_dot(graph, Path(args.dot))
    elif any(r in active for r in GRAPH_RULES):
        print(f"pmx-analyze: src root {src_root} not found; "
              "skipping include-graph passes", file=sys.stderr)

    # Per-file passes (taint, hot-path and lint rules).
    files = discover(root, args.paths)
    file_rules = active - set(GRAPH_RULES)
    for f in files:
        try:
            rel = str(f.resolve().relative_to(root))
        except ValueError:
            rel = str(f)
        if file_rules:
            findings.extend(analyze_file(f, rel, file_rules))

    findings.sort(key=lambda fi: (fi.path, fi.line, fi.rule))

    if args.write_baseline:
        write_baseline(Path(args.write_baseline), findings)
        print(f"pmx-analyze: wrote baseline with {len(findings)} finding(s) "
              f"to {args.write_baseline}; fill in the justification fields")
        return 0

    if args.baseline:
        try:
            baseline = load_baseline(Path(args.baseline))
        except ValueError as err:
            print(f"pmx-analyze: {err}", file=sys.stderr)
            return 2
        findings = subtract_baseline(findings, baseline)

    if not args.quiet:
        for fi in findings:
            print(fi)
    label = "new finding(s)" if args.baseline else "finding(s)"
    print(f"pmx-analyze: {len(findings)} {label} in {len(files)} file(s)",
          file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
