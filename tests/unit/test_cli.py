"""Unit tests for the repro-bench CLI (fast commands only)."""

import pytest

from repro.cli import EXPERIMENTS, main
from repro.errors import ReferenceBudgetExceeded


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert set(EXPERIMENTS) <= set(out)

    def test_fig2_runs_and_passes(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "shape checks: all passed" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    def test_quick_flag_accepted(self, capsys):
        assert main(["fig2", "--quick"]) == 0


class TestRobustnessFlags:
    """A failing cell surfaces as its own error, whatever ``--jobs``
    is: the serial loop and the supervised pool (which would otherwise
    default to the host's core count) must agree on the outcome."""

    @pytest.mark.parametrize("jobs", ["1", "4"])
    def test_budget_violation_aborts_without_keep_going(
        self, monkeypatch, tmp_path, jobs
    ):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        with pytest.raises(ReferenceBudgetExceeded):
            main(["fig3", "--quick", "--max-refs", "10", "--jobs", jobs])

    @pytest.mark.parametrize("jobs", ["1", "4"])
    def test_keep_going_reports_failure_and_continues(
        self, monkeypatch, tmp_path, capsys, jobs
    ):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        status = main(
            ["fig3", "--quick", "--keep-going", "--max-refs", "10",
             "--jobs", jobs]
        )
        assert status != 0
        err = capsys.readouterr().err
        assert "EXPERIMENT FAILED: fig3" in err
        assert "ReferenceBudgetExceeded" in err


@pytest.mark.faults
class TestQuickSmoke:
    def test_fig3_quick_keep_going_smoke(
        self, monkeypatch, tmp_path, capsys
    ):
        """The documented smoke invocation:
        ``REPRO_BENCH_QUICK=1 repro-bench fig3 --keep-going``."""
        monkeypatch.setenv("REPRO_BENCH_QUICK", "1")
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        # fig3 writes BENCH_figure3.json into the cwd; keep it out of
        # the repo checkout.
        monkeypatch.chdir(tmp_path)
        status = main(["fig3", "--keep-going", "--jobs", "2"])
        out = capsys.readouterr().out
        # Quick scales are too small for every paper shape check, so a
        # non-zero status is acceptable — the point is that the whole
        # matrix completes and renders rather than crashing.
        assert status in (0, 1)
        assert "Figure 3" in out
        assert "MTLB improvement at the 96-entry base:" in out


class TestRequireIdentical:
    """`repro metrics diff --require-identical` is the engine
    equivalence gate: ANY numeric delta (even below the regression
    threshold) or run-set mismatch must fail."""

    @staticmethod
    def snapshot(tmp_path, name, runs):
        from repro.obs import SCHEMA, write_snapshot

        return str(
            write_snapshot(
                {"schema": SCHEMA, "label": name, "meta": {}, "runs": runs},
                tmp_path / f"{name}.json",
            )
        )

    def test_identical_snapshots_pass(self, tmp_path, capsys):
        from repro.cli import repro_main

        runs = {"em3d|tlb96": {"metrics": {"total_cycles": 1000}}}
        a = self.snapshot(tmp_path, "a", runs)
        b = self.snapshot(tmp_path, "b", runs)
        assert repro_main(
            ["metrics", "diff", a, b, "--require-identical"]
        ) == 0
        assert "identical" in capsys.readouterr().out

    def test_sub_threshold_delta_fails_only_with_flag(
        self, tmp_path, capsys
    ):
        from repro.cli import repro_main

        a = self.snapshot(
            tmp_path, "a",
            {"em3d|tlb96": {"metrics": {"total_cycles": 100000}}},
        )
        b = self.snapshot(
            tmp_path, "b",
            {"em3d|tlb96": {"metrics": {"total_cycles": 100001}}},
        )
        # +0.001% is inside the 2% regression threshold...
        assert repro_main(["metrics", "diff", a, b]) == 0
        # ...but not bit-identical.
        assert repro_main(
            ["metrics", "diff", a, b, "--require-identical"]
        ) == 1
        assert "differ" in capsys.readouterr().err

    def test_run_set_mismatch_fails(self, tmp_path):
        from repro.cli import repro_main

        runs = {"em3d|tlb96": {"metrics": {"total_cycles": 1000}}}
        both = dict(runs)
        both["gcc|tlb96"] = {"metrics": {"total_cycles": 2000}}
        a = self.snapshot(tmp_path, "a", runs)
        b = self.snapshot(tmp_path, "b", both)
        assert repro_main(
            ["metrics", "diff", a, b, "--require-identical"]
        ) == 1


class TestEngineAndJobsFlags:
    def test_engine_flag_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["fig2", "--engine", "turbo"])

    def test_engine_choices(self):
        """``--engine`` offers the two engines and nothing else (no
        timed two-engine mode, no ``auto`` synonym)."""
        for engine in ("scalar", "vector"):
            assert main(["list", "--engine", engine]) == 0
        for engine in ("both", "auto"):
            with pytest.raises(SystemExit):
                main(["multiprog", "--engine", engine])

    def test_jobs_and_engine_accepted(self, capsys):
        # fig2 is static (no matrix), so this just checks flag parsing
        # and context construction.
        assert main(["fig2", "--jobs", "2", "--engine", "vector"]) == 0
