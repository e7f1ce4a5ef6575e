"""Crash-fuzz harness: pinned-corpus cleanliness and the shrinker."""

import pytest

import repro.testgen.fuzz as fuzz_module
from repro.crawler import CrawlerConfig
from repro.dom import hash_tree, parse_document
from repro.errors import JsRuntimeError, JsSyntaxError
from repro.testgen.noisy import VOLATILE_MARKER_SUBSTRINGS
from repro.js import Interpreter
from repro.testgen import (
    CrashReport,
    FuzzCase,
    fuzz_corpus,
    generate_case,
    run_case,
    shrink_case,
    shrink_text,
)
from repro.testgen.fuzz import CASE_KINDS, mutate_text, pipeline_for


class TestCaseGeneration:
    def test_deterministic(self):
        assert generate_case(123) == generate_case(123)

    @pytest.mark.parametrize("kind", CASE_KINDS)
    def test_all_kinds_sampled(self, kind):
        kinds = {generate_case(seed).kind for seed in range(len(CASE_KINDS))}
        assert kind in kinds

    def test_mutation_changes_text(self):
        import random

        original = generate_case(0).text
        mutated = {mutate_text(random.Random(s), original) for s in range(10)}
        assert any(text != original for text in mutated)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            pipeline_for("sql")


class TestRunCase:
    def test_valid_js_passes(self):
        case = FuzzCase(kind="js", seed=0, text="var a = 1 + 2;")
        assert run_case(case) is None

    def test_invalid_js_is_clean_rejection(self):
        case = FuzzCase(kind="js", seed=0, text="var = = ;(")
        assert run_case(case) is None

    def test_markup_soup_is_clean(self):
        case = FuzzCase(kind="markup", seed=0, text="<div><b>unclosed")
        assert run_case(case) is None

    def test_crash_is_reported(self, monkeypatch):
        import repro.testgen.fuzz as fuzz_module

        def exploding(kind):
            def pipeline(text):
                raise IndexError("boom")

            return pipeline

        monkeypatch.setattr(fuzz_module, "pipeline_for", exploding)
        report = fuzz_module.run_case(FuzzCase(kind="js", seed=7, text="x"))
        assert report is not None
        assert report.exc_type == "IndexError"
        assert "seed 7" in report.describe()


class TestSubstrateRegressions:
    """Bugs the fuzzer found; pinned so they stay fixed."""

    def test_toplevel_return_is_syntax_error(self):
        with pytest.raises(JsSyntaxError):
            Interpreter().run("return 4;")

    def test_runaway_recursion_is_runtime_error(self):
        with pytest.raises(JsRuntimeError, match="call stack"):
            Interpreter().run("function f() { return f(); } f();")

    def test_deep_but_bounded_recursion_still_works(self):
        source = (
            "function f(n) { if (n <= 0) { return 0; } return f(n - 1) + 1; }"
            " f(20);"
        )
        assert Interpreter().run(source) == 20

    @pytest.mark.parametrize(
        "source, message",
        [
            ("var x = \u00b2;", "unexpected character '\u00b2' (line 1, column 9)"),
            ("var y = 0x;", "malformed hex literal (line 1, column 11)"),
            ("var x = \u0661\u0662;", "unexpected character '\u0661' (line 1, column 9)"),
        ],
    )
    def test_numeric_literals_are_ascii_only(self, source, message):
        # These used to leak ValueError, or (Arabic-Indic digits) read as 12.
        with pytest.raises(JsSyntaxError) as info:
            Interpreter().run(source)
        assert str(info.value) == message
        assert run_case(FuzzCase(kind="js", seed=0, text=source)) is None

    @pytest.mark.parametrize(
        "reference, text",
        [
            ("&#abc;", "&#abc;"),
            ("&#99999999;", "\ufffd"),
            ("&#x110000;", "\ufffd"),
            ("&#xD800;", "\ufffd"),
            ("&#X41;&#x41;&#0065;", "AAA"),
        ],
    )
    def test_numeric_character_references_never_raise(self, reference, text):
        document = parse_document(f"<p>{reference}</p>")
        assert document.text_content == text
        hash_tree(document)  # a lone surrogate used to fail to encode here
        assert run_case(FuzzCase(kind="markup", seed=0, text=reference)) is None

    @pytest.mark.parametrize(
        "html, body",
        [
            # 'İ'.lower() is two code points: a lower()-copy index drifts.
            ("<p>\u0130\u0130\u0130\u0130</p><script>var x = 1;</script>", "var x = 1;"),
            # Only ASCII case folds: neither 'ſ' nor 'İ' matches 's'/'i'.
            ("<script>a</\u017fcript>b</SCRIPT>", "a</\u017fcript>b"),
            ("<script>a</SCR\u0130PT>b</scRipt >", "a</SCR\u0130PT>b"),
        ],
    )
    def test_raw_text_body_ends_at_its_close_tag(self, html, body):
        [script] = parse_document(html).get_elements_by_tag("script")
        assert script.children[0].data == body


class TestShrinking:
    def test_shrink_text_to_minimal_token(self):
        text = "aaaa\nbbbb\nNEEDLE stays\ncccc"
        shrunk = shrink_text(text, lambda t: "NEEDLE" in t)
        assert shrunk == "NEEDLE"

    def test_shrink_preserves_failure_predicate(self):
        text = "x" * 50 + "CRASH" + "y" * 50
        shrunk = shrink_text(text, lambda t: "CRASH" in t)
        assert "CRASH" in shrunk
        assert len(shrunk) < len(text)

    def test_shrink_case_same_exception_type(self, monkeypatch):
        import repro.testgen.fuzz as fuzz_module

        def picky(kind):
            def pipeline(text):
                if "TRIGGER" in text:
                    raise KeyError("fuzzed")

            return pipeline

        monkeypatch.setattr(fuzz_module, "pipeline_for", picky)
        case = FuzzCase(kind="js", seed=1, text="pad " * 30 + "TRIGGER" + " pad" * 30)
        report = CrashReport(case=case, exc_type="KeyError", message="fuzzed")
        minimal = fuzz_module.shrink_case(report)
        assert "TRIGGER" in minimal.text
        assert len(minimal.text) < len(case.text)


def test_fast_corpus_clean():
    summary = fuzz_corpus(range(300))
    assert summary.cases_run == 300
    assert summary.crashes == []
    # The corpus exercises both accepting and rejecting paths.
    assert summary.rejections


@pytest.mark.slow
def test_pinned_corpus_zero_crashes():
    """Acceptance gate: the full pinned corpus never escapes a raw
    Python exception from the JS or DOM pipelines."""
    summary = fuzz_corpus(range(2000))
    assert summary.cases_run == 2000
    assert [crash.describe() for crash in summary.crashes] == []


class TestPoolHygiene:
    """Fuzz vocabulary must not fabricate crawler-significant tokens.

    The fuzz pools feed generated handlers and markup; a pool entry
    containing an update-event pattern would make the crawler skip the
    handler (silently shrinking coverage), and one containing a
    volatile-region marker substring could collide with the noisy-twin
    oracles' text assertions.
    """

    POOLS = (
        fuzz_module._IDENTIFIERS,
        fuzz_module._STRINGS,
        fuzz_module._TAGS,
        fuzz_module._ATTRS,
    )

    def test_pools_avoid_update_event_patterns(self):
        patterns = CrawlerConfig().update_event_patterns
        for pool in self.POOLS:
            for entry in pool:
                assert not any(p in entry.lower() for p in patterns), entry

    def test_pools_avoid_volatile_marker_substrings(self):
        for pool in self.POOLS:
            for entry in pool:
                assert not any(
                    m in entry.lower() for m in VOLATILE_MARKER_SUBSTRINGS
                ), entry
