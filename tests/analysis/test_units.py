"""UN001: trigger/suppress fixture pairs for the unit-dimension checker."""

import textwrap

import pytest

from repro.analysis_checks import Severity
from repro.analysis_checks.index import run_program_checks
from repro.analysis_checks.units import compatible, suffix_unit


def un001(tmp_path, **modules):
    """Run UN001 over ``modules`` written as pkg/<name>.py."""
    root = tmp_path / "pkg"
    root.mkdir(exist_ok=True)
    init = root / "__init__.py"
    if not init.exists():
        init.write_text("")
    for name, source in modules.items():
        (root / f"{name}.py").write_text(textwrap.dedent(source))
    findings, _ = run_program_checks([root], only=["UN001"])
    return findings


class TestSuffixInference:
    def test_known_suffixes(self):
        assert suffix_unit("latency_ms") == "ms"
        assert suffix_unit("deadline_us") == "us"
        assert suffix_unit("bandwidth_gbs") == "GB/s"
        assert suffix_unit("bandwidth_gbps") == "GB/s"
        assert suffix_unit("cost_usd") == "USD"
        assert suffix_unit("rate_rps") == "rps"

    def test_non_units(self):
        assert suffix_unit("latency") is None
        assert suffix_unit("_us") is None          # private name, no stem
        assert suffix_unit("focus") is None        # no underscore

    def test_clock_flavours_compatible_with_plain_seconds(self):
        assert compatible("s", "s-wall")
        assert compatible("s", "s-mono")
        assert not compatible("s-wall", "s-mono")


class TestArithmeticAndCompare:
    def test_add_mix_flagged(self, tmp_path):
        (finding,) = un001(tmp_path, a="""\
            def f(slo_ms, slo_us):
                return slo_ms + slo_us
            """)
        assert finding.rule == "UN001"
        assert finding.severity is Severity.ERROR
        assert "[ms]" in finding.message and "[us]" in finding.message

    def test_same_unit_add_is_clean(self, tmp_path):
        assert un001(tmp_path, a="""\
            def f(a_us, b_us):
                return a_us + b_us
            """) == []

    def test_compare_mix_flagged(self, tmp_path):
        (finding,) = un001(tmp_path, a="""\
            def f(deadline_ms, now_us):
                return now_us > deadline_ms
            """)
        assert "comparison" in finding.message

    def test_augassign_mix_flagged(self, tmp_path):
        (finding,) = un001(tmp_path, a="""\
            def f(total_us, extra_ms):
                total_us += extra_ms
                return total_us
            """)
        assert "+=" in finding.message

    def test_conversion_by_constant_is_clean(self, tmp_path):
        assert un001(tmp_path, a="""\
            def f(slo_us):
                slo_ms = slo_us / 1e3
                back_us = slo_ms * 1000
                return slo_ms, back_us
            """) == []

    def test_derived_dimension_product_is_clean(self, tmp_path):
        # $/hour x run time is a derived quantity, not a mix
        assert un001(tmp_path, a="""\
            def f(rate_usd, run_us):
                return rate_usd * run_us
            """) == []


class TestAssignAndReturn:
    def test_assign_mix_flagged(self, tmp_path):
        (finding,) = un001(tmp_path, a="""\
            def f(latency_us):
                latency_ms = latency_us
                return latency_ms
            """)
        assert "without an explicit conversion" in finding.message

    def test_return_mismatch_flagged(self, tmp_path):
        (finding,) = un001(tmp_path, a="""\
            def percentile_us(latency_ms):
                return latency_ms
            """)
        assert "named [us]" in finding.message

    def test_converted_return_is_clean(self, tmp_path):
        assert un001(tmp_path, a="""\
            def percentile_us(latency_ms):
                return latency_ms * 1e3
            """) == []


class TestCallArguments:
    def test_keyword_argument_mix_flagged(self, tmp_path):
        (finding,) = un001(tmp_path, a="""\
            def run(until_us=None):
                return until_us


            def main(deadline_ms):
                return run(until_us=deadline_ms)
            """)
        assert "until_us=" in finding.message

    def test_cross_module_positional_mix_flagged(self, tmp_path):
        """The case a per-file linter cannot see: caller and callee two
        modules apart, argument bound by position."""
        findings = un001(
            tmp_path,
            engine="""\
                def wait(until_us):
                    return until_us
                """,
            caller="""\
                from pkg.engine import wait


                def main(deadline_ms):
                    return wait(deadline_ms)
                """)
        (finding,) = findings
        assert finding.path.endswith("caller.py")
        assert "until_us" in finding.message
        assert "[ms]" in finding.message

    def test_cross_module_same_unit_is_clean(self, tmp_path):
        assert un001(
            tmp_path,
            engine2="""\
                def wait(until_us):
                    return until_us
                """,
            caller2="""\
                from pkg.engine2 import wait


                def main(deadline_us):
                    return wait(deadline_us)
                """) == []

    def test_callee_name_suffix_propagates(self, tmp_path):
        (finding,) = un001(tmp_path, a="""\
            def percentile_us(values):
                return sorted(values)[0]


            def report(values):
                latency_ms = percentile_us(values)
                return latency_ms
            """)
        assert "[us]" in finding.message


class TestClockFlavours:
    def test_wall_minus_monotonic_flagged(self, tmp_path):
        (finding,) = un001(tmp_path, a="""\
            import time


            def elapsed():
                start_s = time.time()
                return time.monotonic() - start_s
            """)
        assert "s-mono" in finding.message
        assert "s-wall" in finding.message

    def test_matching_clock_is_clean(self, tmp_path):
        assert un001(tmp_path, a="""\
            import time


            def elapsed():
                start = time.perf_counter()
                return time.perf_counter() - start
            """) == []


class TestSuppression:
    def test_noqa_silences_the_line(self, tmp_path):
        assert un001(tmp_path, a="""\
            def f(slo_ms, slo_us):
                return slo_ms + slo_us  # repro: noqa[UN001]
            """) == []

    def test_transparent_builtins_propagate_units(self, tmp_path):
        (finding,) = un001(tmp_path, a="""\
            def f(times_us, budget_ms):
                return max(times_us) - budget_ms
            """)
        assert "[us]" in finding.message and "[ms]" in finding.message

    def test_subscript_sees_through_to_sequence_unit(self, tmp_path):
        (finding,) = un001(tmp_path, a="""\
            def f(times_us, cut_ms):
                return times_us[0] < cut_ms
            """)
        assert "comparison" in finding.message


@pytest.mark.parametrize("snippet", [
    "def f(a_us, b_us):\n    return a_us - b_us\n",
    "def f(n, k):\n    return n + k\n",
    "def f(size_gb, bw_gbs):\n    return size_gb / bw_gbs\n",
    "def f(x_ms):\n    y_ms = x_ms\n    return y_ms\n",
])
def test_clean_snippets_produce_no_findings(tmp_path, snippet):
    assert un001(tmp_path, clean=snippet) == []
