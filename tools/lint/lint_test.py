#!/usr/bin/env python3
"""Fixture-driven tests for determinism_lint.py (DESIGN.md §15).

Each lint rule must fire on its bad fixture and stay silent on its good
one; suppressions must silence findings only when justified, and unknown
rule names must be rejected fatally. Run directly or via ctest
(determinism_lint_selftest).
"""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
LINTER = os.path.join(HERE, "determinism_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")

sys.path.insert(0, HERE)
import determinism_lint  # noqa: E402


def lint(name):
    """Run the linter in-process on one fixture; returns (findings,
    errors, warnings)."""
    return determinism_lint.lint_file(os.path.join(FIXTURES, name))


def rules_fired(findings):
    return {f.rule for f in findings}


class RuleFixtureTests(unittest.TestCase):
    """Every rule: fires on bad, silent on good."""

    PAIRS = {
        "unordered-iter": ("unordered_iter_bad.cpp",
                           "unordered_iter_good.cpp"),
        "pointer-key": ("pointer_key_bad.cpp", "pointer_key_good.cpp"),
        "raw-entropy": ("raw_entropy_bad.cpp", "raw_entropy_good.cpp"),
        "threadpool-shared-mutation": (
            "threadpool_shared_mutation_bad.cpp",
            "threadpool_shared_mutation_good.cpp"),
        "fp-unordered-reduction": ("fp_unordered_reduction_bad.cpp",
                                   "fp_unordered_reduction_good.cpp"),
    }

    def test_rule_catalog_matches_fixture_pairs(self):
        self.assertEqual(set(self.PAIRS), set(determinism_lint.RULES))

    def test_bad_fixtures_fire(self):
        for rule, (bad, _good) in self.PAIRS.items():
            with self.subTest(rule=rule):
                findings, errors, _ = lint(bad)
                self.assertEqual(errors, [])
                self.assertIn(rule, rules_fired(findings),
                              f"{bad} did not trip {rule}")

    def test_good_fixtures_stay_silent(self):
        for rule, (_bad, good) in self.PAIRS.items():
            with self.subTest(rule=rule):
                findings, errors, _ = lint(good)
                self.assertEqual(errors, [])
                self.assertNotIn(rule, rules_fired(findings),
                                 f"{good} false-positived {rule}: "
                                 f"{[f.render() for f in findings]}")

    def test_findings_carry_file_and_line(self):
        findings, _, _ = lint("raw_entropy_bad.cpp")
        self.assertTrue(findings)
        for f in findings:
            self.assertTrue(f.path.endswith("raw_entropy_bad.cpp"))
            self.assertGreater(f.line, 0)
            self.assertIn(f"{f.path}:{f.line}: [{f.rule}]", f.render())

    def test_bad_fixture_line_numbers_point_at_constructs(self):
        findings, _, _ = lint("raw_entropy_bad.cpp")
        with open(os.path.join(FIXTURES, "raw_entropy_bad.cpp")) as fh:
            lines = fh.read().splitlines()
        for f in findings:
            text = lines[f.line - 1]
            self.assertTrue(
                any(tok in text for tok in
                    ("time", "rand", "random_device", "now")),
                f"line {f.line} ('{text}') carries no entropy construct")


class OrderedReductionTests(unittest.TestCase):
    """The gather/sort/consume idiom (collect from an unordered container,
    sort into a pinned total order, then fold or emit) is an ordered
    reduction: hash order never reaches the output, so unordered-iter
    must stay silent — but only when a sort on every sink actually
    follows."""

    GATHER = (
        "#include <algorithm>\n"
        "#include <unordered_map>\n"
        "#include <vector>\n"
        "std::vector<int> f(const std::unordered_map<int, int>& m) {\n"
        "  std::vector<int> out;\n"
        "  for (const auto& kv : m) {\n"
        "    out.push_back(kv.second);\n"
        "  }\n")

    def test_sorted_gather_fixture_stays_silent(self):
        findings, errors, _ = lint("ordered_reduction_good.cpp")
        self.assertEqual(errors, [])
        self.assertEqual(rules_fired(findings), set(),
                         [f.render() for f in findings])

    def test_gather_without_sort_still_fires(self):
        text = self.GATHER + "  return out;\n}\n"
        findings, _, _ = determinism_lint.lint_file("inline.cpp", text)
        self.assertIn("unordered-iter", rules_fired(findings))

    def test_gather_with_adjacent_sort_is_exempt(self):
        text = (self.GATHER +
                "  std::sort(out.begin(), out.end());\n"
                "  return out;\n}\n")
        findings, _, _ = determinism_lint.lint_file("inline.cpp", text)
        self.assertEqual(rules_fired(findings), set(),
                         [f.render() for f in findings])

    def test_stream_sink_disqualifies_even_with_sort(self):
        text = (
            "#include <algorithm>\n"
            "#include <cstdio>\n"
            "#include <unordered_map>\n"
            "#include <vector>\n"
            "std::vector<int> f(const std::unordered_map<int, int>& m) {\n"
            "  std::vector<int> out;\n"
            "  for (const auto& kv : m) {\n"
            "    out.push_back(kv.second);\n"
            "    printf(\"%d\\n\", kv.second);\n"
            "  }\n"
            "  std::sort(out.begin(), out.end());\n"
            "  return out;\n}\n")
        findings, _, _ = determinism_lint.lint_file("inline.cpp", text)
        self.assertIn("unordered-iter", rules_fired(findings))

    def test_distant_sort_does_not_exempt(self):
        filler = "  volatile int pad = 0; (void)pad;\n" * 80
        text = (self.GATHER + filler +
                "  std::sort(out.begin(), out.end());\n"
                "  return out;\n}\n")
        self.assertGreater(len(filler), determinism_lint.SORT_WINDOW)
        findings, _, _ = determinism_lint.lint_file("inline.cpp", text)
        self.assertIn("unordered-iter", rules_fired(findings))

    def test_fp_reduction_inside_gather_still_fires(self):
        # Sorting afterwards cannot repair a sum folded in hash order.
        text = (
            "#include <algorithm>\n"
            "#include <unordered_map>\n"
            "#include <vector>\n"
            "double f(const std::unordered_map<int, double>& m) {\n"
            "  double total = 0.0;\n"
            "  std::vector<double> out;\n"
            "  for (const auto& kv : m) {\n"
            "    out.push_back(kv.second);\n"
            "    total += kv.second;\n"
            "  }\n"
            "  std::sort(out.begin(), out.end());\n"
            "  return total;\n}\n")
        findings, _, _ = determinism_lint.lint_file("inline.cpp", text)
        self.assertIn("fp-unordered-reduction", rules_fired(findings))
        self.assertIn("unordered-iter", rules_fired(findings))


class SuppressionTests(unittest.TestCase):
    def test_justified_allow_silences(self):
        findings, errors, warnings = lint("suppression_ok.cpp")
        self.assertEqual(findings, [])
        self.assertEqual(errors, [])
        self.assertEqual(warnings, [])  # the allow is used, not stale

    def test_unknown_rule_is_fatal(self):
        _, errors, _ = lint("suppression_unknown_rule.cpp")
        self.assertTrue(errors)
        self.assertIn("no-such-rule", errors[0].render())

    def test_missing_justification_is_fatal(self):
        _, errors, _ = lint("suppression_no_justification.cpp")
        self.assertTrue(errors)
        self.assertIn("without a justification", errors[0].render())

    def test_stale_allow_warns(self):
        text = ("// mcs-lint: allow(raw-entropy) nothing here needs it\n"
                "int x = 1;\n")
        findings, errors, warnings = determinism_lint.lint_file(
            "inline.cpp", text)
        self.assertEqual(findings, [])
        self.assertEqual(errors, [])
        self.assertEqual(len(warnings), 1)
        self.assertIn("stale", warnings[0])

    def test_note_documents_without_finding_requirement(self):
        text = ("// mcs-lint: note(unordered-iter) lookup-only index\n"
                "int x = 1;\n")
        findings, errors, warnings = determinism_lint.lint_file(
            "inline.cpp", text)
        self.assertEqual((findings, errors, warnings), ([], [], []))

    def test_note_with_unknown_rule_is_fatal(self):
        text = "// mcs-lint: note(bogus) whatever\n"
        _, errors, _ = determinism_lint.lint_file("inline.cpp", text)
        self.assertTrue(errors)


class SanitizerTests(unittest.TestCase):
    """The matcher must see code, not comments/strings."""

    def test_ignores_constructs_in_comments_and_strings(self):
        text = (
            '#include <string>\n'
            '// std::rand() in a comment\n'
            '/* random_device in a block comment */\n'
            'std::string s = "time(nullptr) inside a string";\n'
            'const char* r = R"(steady_clock::now() raw string)";\n')
        findings, errors, _ = determinism_lint.lint_file("inline.cpp", text)
        self.assertEqual(findings, [])
        self.assertEqual(errors, [])

    def test_digit_separators_do_not_swallow_code(self):
        text = ("int big = 1'000'000;\n"
                "unsigned t = time(nullptr);\n")
        findings, _, _ = determinism_lint.lint_file("inline.cpp", text)
        self.assertEqual(rules_fired(findings), {"raw-entropy"})

    def test_manifest_exemption(self):
        text = "auto t = std::chrono::steady_clock::now();\n"
        findings, _, _ = determinism_lint.lint_file(
            "src/obs/manifest.cpp", text)
        self.assertEqual(findings, [])
        findings, _, _ = determinism_lint.lint_file(
            "src/sim/engine.cpp", text)
        self.assertEqual(rules_fired(findings), {"raw-entropy"})


class ExitCodeTests(unittest.TestCase):
    """Black-box: the CLI contract CI depends on."""

    def run_linter(self, *args):
        return subprocess.run(
            [sys.executable, LINTER, *args],
            capture_output=True, text=True)

    def test_clean_file_exits_zero(self):
        p = self.run_linter(os.path.join(FIXTURES, "pointer_key_good.cpp"))
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)

    def test_findings_exit_one(self):
        p = self.run_linter(os.path.join(FIXTURES, "pointer_key_bad.cpp"))
        self.assertEqual(p.returncode, 1, p.stdout + p.stderr)
        self.assertIn("[pointer-key]", p.stdout)

    def test_suppression_error_exits_two(self):
        p = self.run_linter(
            os.path.join(FIXTURES, "suppression_unknown_rule.cpp"))
        self.assertEqual(p.returncode, 2, p.stdout + p.stderr)

    def test_list_rules(self):
        p = self.run_linter("--list-rules")
        self.assertEqual(p.returncode, 0)
        for rule in determinism_lint.RULES:
            self.assertIn(rule, p.stdout)

    def test_missing_path_exits_two(self):
        p = self.run_linter("definitely/not/a/path.cpp")
        self.assertEqual(p.returncode, 2)


if __name__ == "__main__":
    unittest.main(verbosity=2)
