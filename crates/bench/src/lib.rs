//! The benchmark harness regenerating every table and figure of the Elan
//! paper's evaluation (§III and §VI).
//!
//! Each experiment is a pure function returning both printable output and
//! structured data, so the `repro` binary renders the paper's artifacts
//! and the integration tests assert their qualitative shapes. See
//! `EXPERIMENTS.md` at the repository root for the paper-vs-measured
//! record.

pub mod churn;
pub mod dataplane;
pub mod experiments;
pub mod naive;
pub mod table;

pub use table::Table;

/// Every experiment id, in paper order, plus the ablations.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "fig1",
    "tab1",
    "tab2",
    "fig3",
    "fig4",
    "fig5",
    "fig8",
    "fig9",
    "fig11",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "tab4",
    "fig20",
    "fig21",
    "fig22",
    "ablation-replication",
    "ablation-interval",
    "ablation-scaling",
    "spot",
    "straggler",
];

/// Runs one experiment by id and returns its rendered report.
///
/// # Errors
///
/// Returns an error naming the unknown id.
pub fn run_experiment(id: &str) -> Result<String, String> {
    match id {
        "fig1" => Ok(experiments::sched::fig1_weekly_utilization()),
        "tab1" => Ok(experiments::zoo::tab1_model_zoo()),
        "tab2" => Ok(experiments::zoo::tab2_state_characteristics()),
        "fig3" => Ok(experiments::scaling::fig3_strong_scaling()),
        "fig4" => Ok(experiments::scaling::fig4_weak_scaling()),
        "fig5" => Ok(experiments::accuracy::fig5_batch_size_accuracy()),
        "fig8" => Ok(experiments::replication::fig8_bandwidth()),
        "fig9" => Ok(experiments::replication::fig9_planner_example()),
        "fig11" => Ok(experiments::replication::fig11_snr_breakdown()),
        "fig14" => Ok(experiments::adjustment::fig14_runtime_overhead()),
        "fig15" => Ok(experiments::adjustment::fig15_adjustment_performance()),
        "fig16" => Ok(experiments::adjustment::fig16_litz_throughput()),
        "fig17" => Ok(experiments::scaling::fig17_resnet_strong_scaling()),
        "fig18" => Ok(experiments::accuracy::fig18_elastic_accuracy()),
        "tab4" | "fig19" => Ok(experiments::accuracy::tab4_time_to_solution()),
        "fig20" => Ok(experiments::sched::fig20_policy_comparison()),
        "fig21" => Ok(experiments::sched::fig21_utilization_timeline()),
        "fig22" => Ok(experiments::sched::fig22_system_comparison()),
        "ablation-replication" => Ok(experiments::ablations::ablation_replication()),
        "ablation-interval" => Ok(experiments::ablations::ablation_coordination_interval()),
        "ablation-scaling" => Ok(experiments::ablations::ablation_scaling_strategy()),
        "spot" => Ok(experiments::sched::spot_capacity()),
        "straggler" => Ok(experiments::adjustment::straggler_mitigation()),
        other => Err(format!(
            "unknown experiment '{other}'; known: {}",
            ALL_EXPERIMENTS.join(", ")
        )),
    }
}
