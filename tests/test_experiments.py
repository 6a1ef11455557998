"""Quick-run tests of every experiment driver (short durations).

Each result's ``shape_holds()`` states its figure's claims once;
``repro fig5a|fig5b|fig5c|fig5d|safety`` exits on it at full length
(CI runs them), and these assert the same checks at short length and
that the CLI fails when one of them does.
"""

import pytest

from repro.cli import main
from repro.experiments import (
    Fig5aResult,
    Fig5bResult,
    Fig5cResult,
    Fig5dResult,
    SafetyResult,
    run_fig5a,
    run_fig5b,
    run_fig5c,
    run_fig5d,
    run_safety_table,
)


class TestFig5a:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig5a(duration_s=2.0)

    def test_all_targets_met(self, result):
        """Every target met, and the targets fit the carrier (§5B)."""
        assert result.shape_holds() == {"all_targets_met": True, "targets_fit_carrier": True}

    def test_rows_structure(self, result):
        rows = result.rows()
        assert len(rows) == 3
        targets = [t for _n, t, _a, _r in rows]
        assert targets == [3.0, 12.0, 15.0]

    def test_series_nonempty(self, result):
        for sid, series in result.series.items():
            assert len(series) >= 2

    def test_custom_mvno_set(self):
        mvnos = [(1, "solo", "rr", 5e6, [(1, 28)])]
        result = run_fig5a(duration_s=1.0, mvnos=mvnos)
        assert result.rows()[0][1] == 5.0
        assert result.all_targets_met(tolerance=0.2)


class TestFig5b:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig5b(phase_duration_s=3.0)

    def test_shape_holds(self, result):
        checks = result.shape_holds()
        assert all(checks.values()), checks

    def test_mt_hits_target_on_best_ue(self, result):
        assert result.phase_means["mt"][3] == pytest.approx(22.0, rel=0.1)

    def test_swap_did_not_interrupt_service(self, result):
        total_by_ue = {ue: sum(v for _t, v in s) for ue, s in result.series.items()}
        assert all(v > 0 for v in total_by_ue.values())


class TestFig5c:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig5c(duration_s=6.0, sample_dt_s=0.5)

    def test_plugin_bounded(self, result):
        assert result.shape_holds()["plugin_bounded"]

    def test_native_linear(self, result):
        assert result.shape_holds()["native_grows_linearly"]

    def test_contrast(self, result):
        assert result.shape_holds()["native_over_4x_plugin"]


class TestFig5d:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig5d(calls=60, ue_counts=(1, 10), plugins=("mt", "pf"))

    def test_grows_with_ues(self, result):
        assert result.shape_holds()["grows_with_ues"]

    def test_p50_leaves_the_slot_free(self, result):
        checks = result.shape_holds()
        assert checks["p50_inside_slot"] and checks["p50_at_most_ues_under_half_slot"], checks

    def test_cells_complete(self, result):
        assert len(result.cells) == 4
        for cell in result.cells:
            assert cell.p50_us > 0
            assert cell.p99_us >= cell.p50_us


class TestSafety:
    def test_table(self):
        result = run_safety_table()
        assert result.shape_holds() == {
            "sandbox_always_survives": True, "native_always_dies": True,
        }
        assert {r.fault for r in result.rows} == {
            "null_deref", "oob_access", "double_free",
        }


@pytest.mark.parametrize(
    "argv, result_type",
    [
        (["fig5a", "--duration", "0.2"], Fig5aResult),
        (["fig5b", "--duration", "1"], Fig5bResult),
        (["fig5c", "--duration", "0.5"], Fig5cResult),
        (["fig5d", "--calls", "3"], Fig5dResult),
        (["safety"], SafetyResult),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_the_cli_exits_on_a_failed_shape_check(argv, result_type, monkeypatch, capsys):
    monkeypatch.setattr(result_type, "shape_holds", lambda self: {"ok": True, "planted": False})
    assert main(argv) == 1
    assert "[FAIL] planted" in capsys.readouterr().out
