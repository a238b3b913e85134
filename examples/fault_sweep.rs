//! Fault injection and recovery: how Ditto's schedules hold up when
//! functions crash, straggle and whole servers die.
//!
//! Three demonstrations on Q95 against the paper's Zipf-0.9 testbed:
//!
//! 1. a deterministic fault sweep (crash + straggler rates) comparing
//!    Ditto and NIMBLE schedules under bounded retry vs retry +
//!    speculative re-execution;
//! 2. a single run dissected at the attempt level — who crashed, what
//!    was wasted, what recovery cost;
//! 3. a whole-server failure mid-job, recovered by replanning the
//!    not-yet-started suffix of the DAG on the surviving servers.
//!
//! ```sh
//! cargo run --release --example fault_sweep
//! cargo run --release --example fault_sweep -- --trace-out faults.json
//! ```
//!
//! With `--trace-out <path>` the attempt-level run (§2 below) executes
//! with telemetry enabled and its full stream — scheduler decisions,
//! per-attempt task spans, fault events, storage byte counters — is
//! written as a Chrome trace_event file for <https://ui.perfetto.dev>.

use ditto::cluster::{Cluster, ResourceManager, ServerId, SlotDistribution};
use ditto::core::{DittoScheduler, JointOptions, Objective, Scheduler, SchedulingContext};
use ditto::core::baselines::NimbleScheduler;
use ditto::exec::{
    profile_job, run, simulate, ExecConfig, FaultPlan, FaultRates, GroundTruth, RecoveryPolicy,
    Replan, ReschedulingContext, RunSpec,
};
use ditto::obs::{critical_path, summary_table, to_chrome_trace, Recorder};
use ditto::sql::queries::Query;
use ditto::sql::{Database, ScaleConfig};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace_out = match args.iter().position(|a| a == "--trace-out") {
        Some(i) => {
            args.remove(i);
            assert!(i < args.len(), "--trace-out needs a path argument");
            Some(args.remove(i))
        }
        None => None,
    };
    let db = Database::generate(ScaleConfig::with_sf(0.5));
    let mut plan = Query::Q95.prepared_plan(&db);
    plan.scale_volumes(40_000.0);
    let gt = GroundTruth::new(ExecConfig::default());
    let profile = profile_job(&plan.dag, &gt, &[10, 20, 40, 80, 120]);
    let (model, _) = profile.build_model(&plan.dag);
    let rm = ResourceManager::snapshot(&Cluster::paper_testbed(&SlotDistribution::zipf_09()));

    // ---- 1. fault sweep: Ditto vs NIMBLE, retry vs retry+speculation ----
    println!("== fault sweep (crash+straggler rate -> JCT degradation) ==");
    println!(
        "{:<8} {:<12} {:>6} {:>12} {:>10} {:>9} {:>12}",
        "sched", "policy", "rate", "jct (s)", "degrade", "attempts", "wasted GB*s"
    );
    let ditto = DittoScheduler::new();
    let nimble = NimbleScheduler::default();
    let schedulers: [(&dyn Scheduler, &str); 2] = [(&ditto, "ditto"), (&nimble, "nimble")];
    for (scheduler, name) in schedulers {
        let schedule = scheduler.schedule(&SchedulingContext {
            dag: &plan.dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        });
        let (_, base) = simulate(&plan.dag, &schedule, &gt);
        for rate in [0.02, 0.05, 0.1, 0.2] {
            for (policy_name, policy) in [
                ("retry", RecoveryPolicy { max_retries: 16, ..RecoveryPolicy::retry_only() }),
                ("retry+spec", RecoveryPolicy { max_retries: 16, ..RecoveryPolicy::default() }),
            ] {
                let faults = FaultPlan::from_rates(FaultRates {
                    crash_prob: rate,
                    straggler_prob: rate,
                    straggler_slowdown: 4.0,
                    ..FaultRates::none(17)
                });
                let spec = RunSpec { faults, recovery: policy, ..RunSpec::default() };
                let (_, m) = run(&plan.dag, &schedule, &gt, spec).expect("recoverable");
                println!(
                    "{:<8} {:<12} {:>6.2} {:>12.1} {:>9.2}x {:>9} {:>12.0}",
                    name,
                    policy_name,
                    rate,
                    m.jct,
                    m.jct / base.jct,
                    m.faults.extra_attempts,
                    m.faults.wasted_gb_s,
                );
            }
        }
    }

    // ---- 2. one run under the microscope ----
    println!("\n== attempt-level accounting (rate 0.1, ditto, retry+spec) ==");
    let obs = if trace_out.is_some() { Recorder::new() } else { Recorder::disabled() };
    let schedule = ditto.schedule_traced(
        &SchedulingContext {
            dag: &plan.dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        },
        &obs,
    );
    let faults = FaultPlan::from_rates(FaultRates {
        crash_prob: 0.1,
        straggler_prob: 0.1,
        straggler_slowdown: 4.0,
        ..FaultRates::none(17)
    });
    let recovery = RecoveryPolicy { max_retries: 16, ..RecoveryPolicy::default() };
    let spec = RunSpec { faults, recovery, recorder: Some(&obs), ..RunSpec::default() };
    let (trace, m) = run(&plan.dag, &schedule, &gt, spec).expect("recoverable");
    for a in trace.attempts.iter().take(12) {
        println!(
            "  stage {:>2} task {:>3} attempt {} on {}: {:>7.1}s..{:<7.1}s {:?} (wasted {:.0} GB*s)",
            a.stage, a.task, a.attempt, a.server, a.start, a.end, a.outcome, a.wasted_gb_s
        );
    }
    if trace.attempts.len() > 12 {
        println!("  ... {} more attempt records", trace.attempts.len() - 12);
    }
    println!(
        "  total: {} extra attempts, {:.0} GB*s wasted, {:.1}s recovery delay, {} speculative copies",
        m.faults.extra_attempts, m.faults.wasted_gb_s, m.faults.recovery_delay_s,
        m.faults.speculative_copies,
    );
    if let Some(path) = &trace_out {
        let data = obs.finish();
        let chrome = to_chrome_trace(&data);
        std::fs::write(path, &chrome).expect("write trace file");
        println!(
            "\n  wrote {path} ({} bytes, {} spans, {} events) — load in https://ui.perfetto.dev",
            chrome.len(),
            data.spans.len(),
            data.events.len(),
        );
        println!("{}", summary_table(&data));
        println!("{}", critical_path(&data).render());
    }

    // ---- 3. whole-server failure with suffix rescheduling ----
    let (_, base) = simulate(&plan.dag, &schedule, &gt);
    let t_fail = base.jct * 0.3;
    println!("\n== server 0 fails at t={t_fail:.1}s (30% into the job) ==");
    let faults = FaultPlan::none().and_server_failure(ServerId(0), t_fail);
    let ctx = ReschedulingContext {
        model: &model,
        resources: &rm,
        objective: Objective::Jct,
        options: JointOptions::default(),
    };
    let spec = RunSpec {
        faults,
        recovery: RecoveryPolicy::default(),
        replan: Replan::OnServerFailure(ctx),
        ..RunSpec::default()
    };
    let (trace, m) = run(&plan.dag, &schedule, &gt, spec).expect("job survives a single server failure");
    println!("  fault-free JCT {:.1}s -> {:.1}s under failure", base.jct, m.jct);
    println!(
        "  {} stages replanned on the surviving servers, {} attempts killed with the server",
        m.faults.rescheduled_stages,
        trace
            .attempts
            .iter()
            .filter(|a| a.outcome == ditto::exec::AttemptOutcome::ServerLost)
            .count(),
    );
    let on_failed_after = trace
        .tasks
        .iter()
        .filter(|t| t.launch >= t_fail && t.server == ServerId(0))
        .count();
    println!("  tasks placed on the dead server after the failure: {on_failed_after}");
}
