"""The ``python -m repro analyze`` subcommand and the fixture corpus."""

import json
from pathlib import Path

import pytest

from repro import kernels
from repro.analysis.cli import main
from repro.analysis.suite import iter_fixture_artifacts

FIXTURES = Path(__file__).parent / "fixtures"

#: Every error-severity corpus entry and the rule it must trip.
ERROR_FIXTURES = [
    ("oversized_image.py", "EQX201"),
    ("staging_overflow.py", "EQX104"),
    ("missing_barrier.py", "EQX205"),
    ("bad_loop.py", "EQX202"),
]


class TestFixtureCorpus:
    @pytest.mark.parametrize("name,rule_id", ERROR_FIXTURES)
    def test_broken_fixture_fails_the_gate(self, capsys, name, rule_id):
        code = main(["--fixture", str(FIXTURES / name), "--format", "json"])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        tripped = {d["rule_id"] for d in document["diagnostics"]}
        assert rule_id in tripped

    def test_dead_code_fails_only_the_warning_gate(self, capsys):
        fixture = str(FIXTURES / "dead_code.py")
        assert main(["--fixture", fixture]) == 0
        assert main(["--fixture", fixture, "--fail-on", "warning"]) == 1
        assert "EQX203" in capsys.readouterr().out

    def test_fixture_with_multiple_artifacts(self):
        pairs = list(iter_fixture_artifacts(FIXTURES / "bad_loop.py"))
        assert len(pairs) == 2

    def test_fixture_without_build_is_rejected(self, tmp_path):
        bogus = tmp_path / "nothing.py"
        bogus.write_text("VALUE = 1\n")
        with pytest.raises(ValueError, match="defines no build"):
            list(iter_fixture_artifacts(bogus))


class TestFlags:
    def test_ignore_drops_a_rule(self, capsys):
        fixture = str(FIXTURES / "staging_overflow.py")
        assert main(["--fixture", fixture, "--ignore", "EQX104"]) == 0
        capsys.readouterr()

    def test_text_report_has_summary(self, capsys):
        main(["--fixture", str(FIXTURES / "staging_overflow.py")])
        out = capsys.readouterr().out
        assert "error: EQX104" in out
        assert "analysis:" in out


class TestDefaultSuite:
    """Acceptance: the shipped tree and builtin models analyze clean."""

    def test_codebase_pass_is_clean(self, capsys):
        assert main(["--skip-programs"]) == 0
        capsys.readouterr()

    def test_full_suite_has_zero_errors(self, capsys):
        code = main(["--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert code == 0
        assert document["counts"]["error"] == 0


class TestWholeProgramMode:
    BROKEN = FIXTURES / "whole_program" / "eqx401_nondet_job"

    def test_real_tree_is_clean_with_coverage_floor(self, capsys):
        code = main([
            "whole-program", "--min-jobs", "3",
            "--min-kernels", str(len(kernels.kernel_names())),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "jobs covered:" in out
        assert "kernel pairs covered:" in out

    def test_json_document_carries_coverage(self, capsys):
        code = main(["whole-program", "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert code == 0
        assert document["schema"] == "repro.analysis/diagnostics/v1"
        coverage = document["coverage"]
        assert coverage["jobs_covered"] == len(coverage["jobs"])
        assert coverage["kernels_covered"] == len(coverage["kernels"])
        assert coverage["kernels_covered"] == len(kernels.kernel_names())

    def test_broken_fixture_fails_the_gate(self, capsys):
        code = main(["whole-program", str(self.BROKEN), "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert code == 1
        assert {d["rule_id"] for d in document["diagnostics"]} == {"EQX401"}

    def test_coverage_gate_failure_is_eqx404(self, capsys):
        code = main([
            "whole-program", str(self.BROKEN),
            "--ignore", "EQX401", "--min-jobs", "99",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "EQX404" in out
        assert "coverage gate" in out

    def test_cache_dir_round_trip(self, capsys, tmp_path):
        cache = str(tmp_path / "cg")
        assert main([
            "whole-program", str(self.BROKEN), "--cache-dir", cache,
        ]) == 1
        capsys.readouterr()
        assert main([
            "whole-program", str(self.BROKEN), "--cache-dir", cache,
        ]) == 1
        assert "cached call graph" in capsys.readouterr().out
