#!/usr/bin/env python3
"""Fixture-driven tests for pmx-analyze.

Each per-file rule has one bad and one good fixture under
tests/lint_fixtures/; the bad fixture must produce findings for exactly that
rule, the good fixture none. The allow_suppress fixture checks that
`// pmx-lint: allow(<rule>)` suppresses exactly one line and only for the
named rule. The include-graph rules (layer-violation, include-cycle) are
exercised on two miniature src trees, layer_tree/ (three violations and one
cycle) and layer_tree_good/ (clean, including the declared compiled->traffic
edge). The repo's own module graph is pinned by a golden DOT snapshot. Run
directly or via ctest (registered as pmx_analyze_fixtures).
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"
GOLDEN_DOT = REPO_ROOT / "tests" / "golden" / "include_graph.dot"

sys.path.insert(0, str(REPO_ROOT / "tools"))
import pmx_analyze  # noqa: E402
import pmx_lexer  # noqa: E402


def analyze(name: str, rel: str | None = None, rules=None):
    """Run one rule family on a fixture: the cross-file passes by default,
    LINT_RULES for the lint fixtures (the hot-path fixture allocates with
    raw new on purpose, which raw-new would also flag)."""
    path = FIXTURES / name
    assert path.is_file(), f"missing fixture {path}"
    return pmx_analyze.analyze_file(
        path, rel or name, set(rules or pmx_analyze.ANALYZE_FILE_RULES))


def lint(name: str):
    return analyze(name, rules=pmx_analyze.LINT_RULES)


def lint_repo_file(rel: str, rule: str, as_rel: str | None = None):
    """Run one rule on a repo file, reported under `as_rel` (default: its
    own path)."""
    return pmx_analyze.analyze_file(REPO_ROOT / rel, as_rel or rel, {rule})


def graph_findings(tree: str):
    graph = pmx_analyze.IncludeGraph(FIXTURES / tree)
    findings = []
    pmx_analyze.layer_pass(graph, findings, f"{tree}/")
    pmx_analyze.cycle_pass(graph, findings, f"{tree}/")
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return graph, findings


class RuleFixtures(unittest.TestCase):
    def assert_rule(self, bad: str, good: str, rule: str, bad_count: int):
        run = lint if rule in pmx_analyze.LINT_RULES else analyze
        bad_findings = run(bad)
        self.assertEqual(
            sorted({f.rule for f in bad_findings}), [rule],
            f"{bad} should only trip {rule}: {[str(f) for f in bad_findings]}")
        self.assertEqual(
            len(bad_findings), bad_count,
            f"{bad}: {[str(f) for f in bad_findings]}")
        good_findings = run(good)
        self.assertEqual(
            good_findings, [],
            f"{good} should be clean: {[str(f) for f in good_findings]}")

    def test_raw_rand(self):
        # Four offending lines (line 9 holds two primitives but findings are
        # line-granular, matching the allow() escape hatch).
        self.assert_rule("raw_rand_bad.cpp", "raw_rand_good.cpp",
                         "raw-rand", 4)

    def test_unordered_iter(self):
        self.assert_rule("unordered_iter_bad.cpp", "unordered_iter_good.cpp",
                         "unordered-iter", 2)

    def test_float_accum(self):
        self.assert_rule("float_accum_bad.cpp", "float_accum_good.cpp",
                         "float-accum", 2)

    def test_raw_new(self):
        self.assert_rule("raw_new_bad.cpp", "raw_new_good.cpp", "raw-new", 5)

    def test_include_guard(self):
        self.assert_rule("include_guard_bad.hpp", "include_guard_good.hpp",
                         "include-guard", 1)

    def test_unbounded_queue(self):
        # Three offending growth calls: push_back, emplace_back through a
        # vector-of-deques index, and push_front. The good fixture shows the
        # two sanctioned shapes: a capacity verdict within the guard window
        # and an allow() comment stating a structural bound.
        self.assert_rule("unbounded_queue_bad.cpp", "unbounded_queue_good.cpp",
                         "unbounded-queue", 3)

    def test_raw_heap(self):
        # Three offending lines: the priority_queue declaration, make_heap,
        # and pop_heap.
        self.assert_rule("raw_heap_bad.cpp", "raw_heap_good.cpp",
                         "raw-heap", 3)

    def test_ptr_order(self):
        # Pointer-keyed unordered_map, pointer-keyed set, std::hash of a
        # pointer type, and a sort comparator ordering raw addresses.
        self.assert_rule("ptr_order_bad.cpp", "ptr_order_good.cpp",
                         "ptr-order", 4)

    def test_wallclock(self):
        # system_clock, clock_gettime, getenv, and bare time(&now).
        self.assert_rule("wallclock_bad.cpp", "wallclock_good.cpp",
                         "wallclock", 4)

    def test_hot_path_alloc(self):
        # Inside the one pmx-hot region: raw new, std::function
        # construction, string building, un-reserved vector growth, a
        # try_emplace into an un-reserved std::map, and a try_emplace into
        # an unordered_map whose reserve() does not exempt it. The
        # un-annotated cold() function is not flagged; the good fixture's
        # reserved vectors and map lookups are clean.
        self.assert_rule("hot_path_alloc_bad.cpp", "hot_path_alloc_good.cpp",
                         "hot-path-alloc", 6)

    def test_hot_path_bitset(self):
        # Owning bitsets inside the one pmx-hot region: a by-value
        # BitMatrix, a BitVector copy, a BitVector temporary, and row_or()
        # and col_or() reductions. The un-annotated cold() twin is not
        # flagged; the good fixture's reference-and-scratch kernel is clean.
        self.assert_rule("hot_path_bitset_bad.cpp",
                         "hot_path_bitset_good.cpp", "hot-path-alloc", 5)


class MonotonicClockScope(unittest.TestCase):
    def test_steady_clock_banned_only_under_src(self):
        # The good wallclock fixture times a bench loop with steady_clock:
        # legal outside src/, but the same bytes under a library path must
        # trip the scoped monotonic-clock arm of the wallclock rule.
        findings = analyze("wallclock_good.cpp",
                           rel="src/sim/wallclock_good.cpp")
        self.assertEqual({f.rule for f in findings}, {"wallclock"})
        self.assertEqual(len(findings), 2, [str(f) for f in findings])


class AllowEscapeHatch(unittest.TestCase):
    def test_allow_suppresses_exactly_one_line(self):
        findings = lint("allow_suppress.cpp")
        # Three raw-new violations: line 6 is allowed, line 7 has no allow,
        # line 9's allow names the wrong rule. Exactly two must survive.
        self.assertEqual(len(findings), 2,
                         [str(f) for f in findings])
        self.assertEqual({f.rule for f in findings}, {"raw-new"})
        self.assertEqual(sorted(f.line for f in findings), [7, 9])

    def test_allow_comment_suppresses_analyzer_rules(self):
        # The single repo-wide suppression mechanism (// pmx-lint:
        # allow(<rule>)) applies to analyzer rules exactly as to lint rules.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "env.cpp"
            path.write_text(
                '#include <cstdlib>\n'
                'const char* a() { return std::getenv("PMX_TRACE"); }'
                '  // pmx-lint: allow(wallclock)\n'
                'const char* b() { return std::getenv("PMX_SEED"); }'
                '  // pmx-lint: allow(ptr-order)\n')
            findings = pmx_analyze.analyze_file(path, "env.cpp",
                                                {"wallclock"})
            # Line 2 is allowed; line 3's allow names the wrong rule.
            self.assertEqual([f.line for f in findings], [3],
                             [str(f) for f in findings])


class FloatAccumWhitelist(unittest.TestCase):
    def test_whitelisted_analytic_files_are_exempt(self):
        self.assertEqual(lint_repo_file("src/core/metrics.cpp",
                                        "float-accum"), [])
        # The same content linted under a non-whitelisted name must trip.
        findings = lint_repo_file("src/core/metrics.cpp", "float-accum",
                                  as_rel="src/core/metrics_copy.cpp")
        self.assertGreater(len(findings), 0)


class RawRandExemption(unittest.TestCase):
    def test_rng_wrapper_is_exempt(self):
        self.assertEqual(lint_repo_file("src/common/rng.cpp", "raw-rand"), [])


class RawHeapExemption(unittest.TestCase):
    def test_sanctioned_heap_cores_are_exempt(self):
        # The policy engine and the event queue ARE the sanctioned heaps;
        # the same content under any other path must trip.
        for rel in ("src/predictor/policy_engine.cpp",
                    "src/sim/event_queue.hpp"):
            self.assertEqual(lint_repo_file(rel, "raw-heap"), [], rel)
        findings = lint_repo_file("src/predictor/policy_engine.cpp",
                                  "raw-heap",
                                  as_rel="src/predictor/engine_copy.cpp")
        self.assertGreater(len(findings), 0)


class LayerContractFixtures(unittest.TestCase):
    def test_bad_tree_reports_violations_and_cycle(self):
        _, findings = graph_findings("layer_tree")
        by_rule = {}
        for f in findings:
            by_rule.setdefault(f.rule, []).append(f)
        self.assertEqual(sorted(by_rule), ["include-cycle",
                                           "layer-violation"])
        # One up-rank include, one undeclared sibling edge, one undeclared
        # module (reported once at line 1, not per include).
        paths = sorted(f.path for f in by_rule["layer-violation"])
        self.assertEqual(paths, ["layer_tree/nic/uses_traffic.hpp",
                                 "layer_tree/plugins/ext.hpp",
                                 "layer_tree/sched/uses_core.hpp"])
        # The a <-> b cycle is one finding anchored at the first member.
        cycles = by_rule["include-cycle"]
        self.assertEqual(len(cycles), 1, [str(f) for f in cycles])
        self.assertEqual(cycles[0].path, "layer_tree/common/a.hpp")
        self.assertIn("common/a.hpp", cycles[0].message)
        self.assertIn("common/b.hpp", cycles[0].message)

    def test_good_tree_is_clean(self):
        graph, findings = graph_findings("layer_tree_good")
        self.assertEqual(findings, [], [str(f) for f in findings])
        # The declared intra-layer edge is present and allowed, proving the
        # clean result is not vacuous.
        self.assertIn(("compiled", "traffic"), graph.module_edges)


class ContractValidation(unittest.TestCase):
    def test_declared_contract_is_acyclic(self):
        pmx_analyze.validate_contract()  # must not raise

    def test_cyclic_intra_layer_edges_rejected(self):
        original = pmx_analyze.INTRA_LAYER_EDGES
        try:
            pmx_analyze.INTRA_LAYER_EDGES = frozenset(
                {("compiled", "traffic"), ("traffic", "compiled")})
            with self.assertRaises(ValueError):
                pmx_analyze.validate_contract()
        finally:
            pmx_analyze.INTRA_LAYER_EDGES = original


class GoldenIncludeGraph(unittest.TestCase):
    def test_module_graph_matches_golden_snapshot(self):
        graph = pmx_analyze.IncludeGraph(REPO_ROOT / "src")
        self.assertEqual(
            pmx_analyze.render_dot(graph), GOLDEN_DOT.read_text(),
            "module-level include graph changed; review the new edges and "
            "regenerate with: python3 tools/pmx_analyze.py --root . "
            "--rules layer-violation,include-cycle "
            "--dot tests/golden/include_graph.dot")

    def test_repo_architecture_is_clean(self):
        graph = pmx_analyze.IncludeGraph(REPO_ROOT / "src")
        findings = []
        pmx_analyze.layer_pass(graph, findings, "src/")
        pmx_analyze.cycle_pass(graph, findings, "src/")
        self.assertEqual(findings, [], [str(f) for f in findings])


class BaselineJustification(unittest.TestCase):
    def test_analyzer_baseline_entries_require_justification(self):
        with tempfile.TemporaryDirectory() as tmp:
            baseline = Path(tmp) / "baseline.json"
            entry = {"fingerprint": "0" * 16, "rule": "wallclock",
                     "file": "x.cpp", "line": 1, "justification": ""}
            baseline.write_text(json.dumps({"findings": [entry]}))
            with self.assertRaises(ValueError):
                pmx_lexer.load_baseline(baseline)
            entry["justification"] = "host clock feeds a log banner only"
            baseline.write_text(json.dumps({"findings": [entry]}))
            loaded = pmx_lexer.load_baseline(baseline)
            self.assertEqual(len(loaded), 1)


class BaselineMode(unittest.TestCase):
    def test_baseline_masks_known_findings_only(self):
        bad = str(FIXTURES / "raw_new_bad.cpp")
        with tempfile.TemporaryDirectory() as tmp:
            baseline = Path(tmp) / "baseline.json"
            rc = pmx_analyze.main([bad, "--root", str(REPO_ROOT), "--quiet",
                                   "--write-baseline", str(baseline)])
            self.assertEqual(rc, 0)
            payload = json.loads(baseline.read_text())
            self.assertEqual(len(payload["findings"]), 5)
            for entry in payload["findings"]:
                entry["justification"] = "fixture debt, acknowledged"
            baseline.write_text(json.dumps(payload))
            # All findings known -> exit 0.
            rc = pmx_analyze.main([bad, "--root", str(REPO_ROOT), "--quiet",
                                   "--baseline", str(baseline)])
            self.assertEqual(rc, 0)
            # A new violation not in the baseline -> exit 1.
            extra = Path(tmp) / "extra.cpp"
            extra.write_text("int* fresh() { return new int; }\n")
            rc = pmx_analyze.main([bad, str(extra), "--root", str(REPO_ROOT),
                                   "--quiet", "--baseline", str(baseline)])
            self.assertEqual(rc, 1)


class CliGate(unittest.TestCase):
    def seeded_tree(self, tmp: Path) -> Path:
        (tmp / "src" / "common").mkdir(parents=True)
        (tmp / "src" / "sched").mkdir()
        (tmp / "src" / "core").mkdir()
        (tmp / "src" / "common" / "util.hpp").write_text(
            "#pragma once\n")
        (tmp / "src" / "core" / "top.hpp").write_text(
            '#pragma once\n#include "common/util.hpp"\n')
        (tmp / "src" / "sched" / "bad.hpp").write_text(
            '#pragma once\n#include "core/top.hpp"\n')
        return tmp

    def test_seeded_violation_fails_then_baselines(self):
        with tempfile.TemporaryDirectory() as tmpdir:
            root = self.seeded_tree(Path(tmpdir))
            argv = ["--root", str(root), "--quiet",
                    "--rules", "layer-violation,include-cycle"]
            self.assertEqual(pmx_analyze.main(argv), 1)
            baseline = root / "baseline.json"
            self.assertEqual(
                pmx_analyze.main(argv + ["--write-baseline", str(baseline)]),
                0)
            # Freshly written baselines carry empty justification fields and
            # are rejected until a human fills them in.
            self.assertEqual(
                pmx_analyze.main(argv + ["--baseline", str(baseline)]), 2)
            payload = json.loads(baseline.read_text())
            for entry in payload["findings"]:
                entry["justification"] = "grandfathered; tracked in ISSUE"
            baseline.write_text(json.dumps(payload))
            self.assertEqual(
                pmx_analyze.main(argv + ["--baseline", str(baseline)]), 0)


class RepoIsClean(unittest.TestCase):
    def test_full_tree_has_no_new_findings(self):
        # The committed baseline is empty: graph passes, taint passes, and
        # every lint rule must come back clean on the whole repo (fixtures
        # excluded by discovery).
        baseline = REPO_ROOT / "tools" / "pmx_analyze_baseline.json"
        rc = pmx_analyze.main(["--root", str(REPO_ROOT), "--quiet",
                               "--baseline", str(baseline)])
        self.assertEqual(rc, 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
