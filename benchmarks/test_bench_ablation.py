"""Benchmark for the design-choice ablations (DESIGN.md section 6)."""

from repro.experiments import AblationConfig, run_ablation

from .conftest import bench_sweep


def test_bench_ablation():
    config = AblationConfig(sweep=bench_sweep(num_devices=15), damping_values=(0.25, 0.5, 0.75))
    table = run_ablation(config)
    print("\n" + table.to_markdown())

    # Every ablation axis is covered.
    assert set(table.column("variant")) == {
        "subproblem1",
        "damping_xi",
        "initialisation",
        "sp2_solver",
    }
    # The exact primal Subproblem-1 solver is never worse than the clipped
    # dual variant (it handles the frequency box exactly).
    sp1 = {row["setting"]: row["objective"] for row in table.filter(variant="subproblem1")}
    assert sp1["primal"] <= sp1["dual"] * 1.05
    # The damping base has a bounded effect on the final objective.
    damping = [row["objective"] for row in table.filter(variant="damping_xi")]
    assert max(damping) <= min(damping) * 1.25
    # The closed-form and numeric SP2_v2 solvers agree to within 50%.
    assert table.filter(variant="sp2_solver").rows[0]["objective"] < 0.5
