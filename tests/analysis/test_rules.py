"""Each rule family against its fixtures: positive hit, suppressed
hit, clean file."""

from pathlib import Path

import pytest

from repro.analysis import Analyzer, make_rules

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def run(select, *names):
    analyzer = Analyzer(make_rules(select), root=FIXTURES)
    return analyzer.run([FIXTURES / name for name in names])


# ----------------------------------------------------------------------
# LCK001 — lock coverage
# ----------------------------------------------------------------------
class TestLockCoverage:
    def test_redetects_historical_torn_read(self):
        """The pre-PR-4 unlocked ``bytes_saved`` read must be caught."""
        findings = run(["LCK001"], "lck_torn_read.py")
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "LCK001"
        assert "bytes_saved" in finding.message
        assert "_cached_bytes" in finding.message
        # Anchored at the unlocked subtraction inside the property.
        text = (FIXTURES / "lck_torn_read.py").read_text().splitlines()
        assert "_cached_bytes" in text[finding.line - 1]

    def test_inline_suppression_is_honored(self):
        assert run(["LCK001"], "lck_suppressed.py") == []

    def test_clean_idioms_produce_no_findings(self):
        """with-blocks, Condition aliasing, *_locked helpers, and
        caller-holds comments all count as holding the lock."""
        assert run(["LCK001"], "lck_clean.py") == []


# ----------------------------------------------------------------------
# WIRE001 — picklability
# ----------------------------------------------------------------------
class TestWirePicklability:
    def test_known_wire_class_with_lock_is_flagged(self):
        findings = run(["WIRE001"], "wire_bad.py")
        messages = [finding.message for finding in findings]
        assert any("BatchEnvelope" in message for message in messages)

    def test_sent_class_is_autodetected(self):
        findings = run(["WIRE001"], "wire_bad.py")
        assert any(
            "CustomPing" in finding.message and "Event" in finding.message
            for finding in findings
        )

    def test_plain_data_wire_class_is_clean(self):
        assert run(["WIRE001"], "wire_clean.py") == []


# ----------------------------------------------------------------------
# MET001/002/003 — metrics schema
# ----------------------------------------------------------------------
class TestMetricsSchema:
    def test_bad_prefix_flagged(self):
        findings = run(["MET001"], "met_bad.py")
        assert any(
            "serving_requests_total" in finding.message
            for finding in findings
        )

    def test_counter_decrement_flagged(self):
        findings = run(["MET002"], "met_bad.py")
        decrements = [f for f in findings if ".dec()" in f.message]
        assert len(decrements) == 1
        assert "'requests'" in decrements[0].message

    def test_counter_set_in_property_setter_flagged(self):
        # Only reset paths may overwrite a counter: a property setter
        # that calls .set() is flagged like any other writer.
        findings = run(["MET002"], "met_bad.py")
        assert len(findings) == 2
        (overwrite,) = [f for f in findings if ".set()" in f.message]
        assert "'requests'" in overwrite.message

    def test_label_schema_divergence_flagged(self):
        findings = run(["MET003"], "met_bad.py")
        assert len(findings) == 1
        assert "repro_host_routed_total" in findings[0].message

    def test_prefix_fstring_idiom_resolves_clean(self):
        assert run(["MET001", "MET002", "MET003"], "met_clean.py") == []


# ----------------------------------------------------------------------
# RES001 — resource lifecycle
# ----------------------------------------------------------------------
class TestResourceLifecycle:
    def test_leaky_constructions_flagged(self):
        findings = run(["RES001"], "res_bad.py")
        assert len(findings) == 3
        messages = " | ".join(finding.message for finding in findings)
        assert "SharedMemory" in messages
        assert "mkdtemp" in messages
        assert "discarded" in messages

    def test_teardown_idioms_are_clean(self):
        assert run(["RES001"], "res_clean.py") == []


# ----------------------------------------------------------------------
# TIM001 / EXC001 / ARG001 / THR001 — hygiene
# ----------------------------------------------------------------------
class TestHygiene:
    @pytest.mark.parametrize(
        "rule, fragment",
        [
            ("TIM001", "time.time()"),
            ("EXC001", "bare 'except:'"),
            ("ARG001", "mutable default"),
            ("THR001", "import "),
        ],
    )
    def test_violations_flagged(self, rule, fragment):
        findings = run([rule], "hyg_bad.py")
        assert findings, f"{rule} found nothing"
        assert all(finding.rule == rule for finding in findings)
        assert fragment in findings[0].message

    def test_time_rule_sees_subtraction_and_deadline(self):
        findings = run(["TIM001"], "hyg_bad.py")
        reasons = " | ".join(finding.message for finding in findings)
        assert "subtraction" in reasons
        assert "addition" in reasons or "comparison" in reasons
        assert "assigned to 'start'" in reasons

    def test_clean_file_is_clean(self):
        assert (
            run(["TIM001", "EXC001", "ARG001", "THR001"], "hyg_clean.py")
            == []
        )

    def test_wall_clock_timestamp_not_flagged(self):
        """``manifest["created"] = time.time()`` is a timestamp, not a
        duration — the rule must leave it alone."""
        findings = run(["TIM001"], "hyg_clean.py")
        assert findings == []


# ----------------------------------------------------------------------
# Framework behavior
# ----------------------------------------------------------------------
class TestFramework:
    def test_all_five_rule_families_registered(self):
        from repro.analysis import ALL_RULES

        families = {rule.id[:3] for rule in ALL_RULES}
        assert {"LCK", "WIRE"[:3], "MET", "RES", "TIM"} <= families

    def test_unknown_rule_id_raises(self):
        with pytest.raises(KeyError):
            make_rules(["NOPE999"])

    def test_ast_parsed_once_per_file(self):
        analyzer = Analyzer(make_rules(None), root=FIXTURES)
        analyzer.run([FIXTURES / "lck_clean.py"])
        first = analyzer.sources["lck_clean.py"]
        analyzer.run([FIXTURES / "lck_clean.py"])
        assert analyzer.sources["lck_clean.py"] is first

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        analyzer = Analyzer(make_rules(None), root=tmp_path)
        findings = analyzer.run([bad])
        assert len(findings) == 1
        assert findings[0].rule == "PARSE001"

    def test_bare_suppression_silences_all_rules(self, tmp_path):
        module = tmp_path / "module.py"
        module.write_text(
            "def swallow(fn):\n"
            "    try:\n"
            "        fn()\n"
            "    except:  # repro: ignore\n"
            "        pass\n"
        )
        analyzer = Analyzer(make_rules(["EXC001"]), root=tmp_path)
        assert analyzer.run([module]) == []

    def test_comment_line_suppression_covers_next_line(self, tmp_path):
        module = tmp_path / "module.py"
        module.write_text(
            "def swallow(fn):\n"
            "    try:\n"
            "        fn()\n"
            "    # deliberate: last-resort guard\n"
            "    # repro: ignore[EXC001]\n"
            "    except:\n"
            "        pass\n"
        )
        analyzer = Analyzer(make_rules(["EXC001"]), root=tmp_path)
        assert analyzer.run([module]) == []
