"""Auto-tune interleaving parameters from warm-up profiles.

The paper sizes Eq. 2/3 "empirically or experimentally from warm-up
iterations"; this example runs the :class:`~repro.tuning.AutoTuner` on
the CAN production workload and compares the tuned configuration with
the analytic plan, then renders the pipeline as an ASCII Gantt chart.

Run:  python examples/autotune_workload.py
"""

from repro.core import PicassoExecutor
from repro.data import product2
from repro.hardware import eflops_cluster
from repro.models import can
from repro.sim.export import ascii_gantt
from repro.tuning import AutoTuner


def main() -> None:
    model = can(product2(0.05))
    cluster = eflops_cluster(num_nodes=16)
    batch = 12_000

    analytic = PicassoExecutor(model, cluster)
    analytic_report = analytic.run(batch, iterations=2)
    plan = analytic.plan(batch)
    print(f"analytic plan: {plan.interleave_sets} interleave sets, "
          f"{plan.micro_batches} micro-batches "
          f"-> {analytic_report.ips:,.0f} IPS")

    tuner = AutoTuner(set_candidates=(1, 3, 5, 7),
                      micro_candidates=(1, 2, 3, 4),
                      warmup_iterations=2)
    result = tuner.tune(model, cluster, batch)
    print(f"tuned plan:    {result.interleave_sets} interleave sets, "
          f"{result.micro_batches} micro-batches "
          f"-> {result.best_ips:,.0f} IPS "
          f"({result.best_ips / analytic_report.ips - 1:+.1%})")

    print("\nprofile grid:")
    for trial in result.trials:
        print(f"  sets={trial['interleave_sets']} "
              f"micro={trial['micro_batches']}: "
              f"{trial['ips']:,.0f} IPS")

    report = PicassoExecutor(model, cluster, result.best_config).run(
        batch, iterations=2)
    print("\npipeline timeline (tuned configuration):")
    print(ascii_gantt(report.result, width=68))


if __name__ == "__main__":
    main()
