//! Race-freedom certification sweep (`figures -- race` / `race-smoke`).
//!
//! Two halves, matching the race checker's two tools:
//!
//! * [`race_certify`] — fixed-seed traced runs of the engines' hairiest
//!   paths (fault ladder, aggressive speculation, whole-server failover
//!   with suffix rescheduling, adaptive drift replanning, an applied
//!   replan splice with seam edges), each fed to
//!   [`ditto_audit::check_trace`] with the scenario's *real* per-server
//!   slot capacities. Every row must certify clean; a finding here means
//!   an engine change broke an ordering invariant the checker encodes.
//! * [`race_explore`] — the small-scope model checker
//!   ([`ditto_exec::explore_random_dags`]): every tie-break interleaving
//!   of simultaneous-event batches on small random DAGs with faults and
//!   adaptive replanning must produce bit-identical metrics.
//!
//! Deterministic: fixed seeds name fixed fault histories, so the sweep
//! is a regression gate, not a fuzzer.

use crate::adapt::traced_adapt_pair;
use crate::setup::prepare;
use ditto_audit::{check_trace, RaceOptions, RaceReport};
use ditto_cluster::{ResourceManager, ServerId};
use ditto_core::{
    DittoScheduler, JointOptions, Objective, Schedule, Scheduler, SchedulingContext,
};
use ditto_dag::generators::{random_dag, RandomDagConfig};
use ditto_dag::JobDag;
use ditto_exec::{
    explore_random_dags, run, simulate, AdaptiveConfig, ExecConfig, ExecError, ExploreConfig,
    FaultPlan, FaultRates, GroundTruth, RecoveryPolicy, Replan, ReschedulingContext, RunSpec,
};
use ditto_obs::{Recorder, TraceData};
use ditto_timemodel::model::RateConfig;
use ditto_timemodel::JobTimeModel;
use ditto_sql::queries::Query;
use ditto_storage::Medium;
use serde::Serialize;

/// The certification cluster: same slot-constrained shape as the
/// adaptive sweep, so replanning actually moves placements around.
const RACE_SLOTS: [u32; 2] = [24, 16];

/// Seed naming every scenario's fault history.
pub const RACE_SEED: u64 = 41;

/// One certified trace.
#[derive(Debug, Clone, Serialize)]
pub struct RaceSweepRow {
    /// Scenario name (fixed-seed engine configuration).
    pub scenario: String,
    /// Engine that produced the trace ("frozen" / "adaptive").
    pub engine: String,
    /// Happens-before ops parsed from the trace.
    pub ops: usize,
    /// Happens-before edges built over them.
    pub hb_edges: usize,
    /// Error-severity race findings (must be 0).
    pub errors: usize,
    /// Warning-severity findings (model simplifications, allowed).
    pub warnings: usize,
    /// True iff the trace certified race-free.
    pub clean: bool,
}

fn row(scenario: &str, engine: &str, report: &RaceReport) -> RaceSweepRow {
    RaceSweepRow {
        scenario: scenario.to_string(),
        engine: engine.to_string(),
        ops: report.ops,
        hb_edges: report.hb_edges,
        errors: report.error_count(),
        warnings: report.warning_count(),
        clean: report.is_clean(),
    }
}

fn certify(trace: &TraceData) -> RaceReport {
    check_trace(
        trace,
        &RaceOptions {
            capacities: Some(RACE_SLOTS.to_vec()),
            ..RaceOptions::default()
        },
    )
}

/// Certify the fixed-seed scenario set race-free. Every row's trace goes
/// through the full happens-before checker with real slot capacities.
pub fn race_certify() -> Vec<RaceSweepRow> {
    let p = prepare(Query::Q95, Medium::S3);
    let rm = ResourceManager::from_free_slots(RACE_SLOTS.to_vec());
    let schedule = p.schedule(&DittoScheduler::new(), &rm, Objective::Jct);
    let ctx = ReschedulingContext {
        model: &p.model,
        resources: &rm,
        objective: Objective::Jct,
        options: JointOptions::default(),
    };
    let mut rows = Vec::new();

    // 1. The fault ladder end to end: crashes, stragglers, object
    // loss/corruption with lineage re-execution, speculation enabled.
    let plan = FaultPlan::from_rates(FaultRates {
        crash_prob: 0.05,
        straggler_prob: 0.05,
        straggler_slowdown: 4.0,
        loss_prob: 0.05,
        corruption_prob: 0.02,
        ..FaultRates::none(RACE_SEED)
    });
    let policy = RecoveryPolicy {
        max_retries: 16,
        ..RecoveryPolicy::default()
    };
    let trace = record(&p.plan.dag, &schedule, &p.gt, plan, policy, Replan::Off)
        .expect("fault ladder recovers within policy bounds");
    rows.push(row("faults", "frozen", &certify(&trace)));

    // 2. Aggressive speculation: a quarter of tasks straggle 6×, the
    // policy speculates early — spec slot intervals must stay warnings,
    // never capacity errors.
    let plan = FaultPlan::from_rates(FaultRates {
        straggler_prob: 0.25,
        straggler_slowdown: 6.0,
        ..FaultRates::none(RACE_SEED + 1)
    });
    let policy = RecoveryPolicy {
        max_retries: 16,
        speculation: true,
        speculation_quantile: 0.5,
        speculation_factor: 1.2,
        ..RecoveryPolicy::default()
    };
    let trace = record(&p.plan.dag, &schedule, &p.gt, plan, policy, Replan::Off)
        .expect("speculation recovers within policy bounds");
    rows.push(row("speculation", "frozen", &certify(&trace)));

    // 3. Whole-server failover with suffix rescheduling: server 0 dies a
    // third of the way in; survivors repack (post-failover occupancy is
    // graded leniently, but ordering rules still apply in full).
    let (_, base) = simulate(&p.plan.dag, &schedule, &p.gt);
    let plan = FaultPlan::none().and_server_failure(ServerId(0), base.jct * 0.3);
    let policy = RecoveryPolicy {
        max_retries: 16,
        ..RecoveryPolicy::default()
    };
    let replan = Replan::OnServerFailure(ctx);
    let trace = record(&p.plan.dag, &schedule, &p.gt, plan, policy, replan)
        .expect("failover recovers within policy bounds");
    rows.push(row("failover", "frozen", &certify(&trace)));

    // 4. The adaptive 2×-drift exemplar pair (same fixed-seed pair the
    // cross-run diff quick-start traces): both the frozen baseline and
    // the replanning engine — applied splice, seam edges and all — must
    // certify.
    let (frozen, adaptive) = traced_adapt_pair();
    rows.push(row("adapt-2x-drift", "frozen", &certify(&frozen)));
    rows.push(row("adapt-2x-drift", "adaptive", &certify(&adaptive)));

    // 5. An applied replan splice on a *random* DAG shape (not the Q95
    // plan the other scenarios share): 2× drift plus object loss makes
    // the re-optimized suffix win mid-run, so seam edges and the
    // splice's retroactive grace bound are exercised on an irregular
    // topology too.
    let dag = random_dag(13, &RandomDagConfig::sized(7));
    let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
    let splice_schedule = DittoScheduler::new().schedule(&SchedulingContext {
        dag: &dag,
        model: &model,
        resources: &rm,
        objective: Objective::Jct,
    });
    let plan = FaultPlan::from_rates(FaultRates {
        loss_prob: 0.1,
        ..FaultRates::none(RACE_SEED)
    })
    .with_drift(2.0);
    let splice_ctx = ReschedulingContext {
        model: &model,
        resources: &rm,
        objective: Objective::Jct,
        options: JointOptions::default(),
    };
    let policy = RecoveryPolicy {
        max_retries: 16,
        ..RecoveryPolicy::default()
    };
    let gt = GroundTruth::new(ExecConfig::default());
    let replan = Replan::Adaptive(splice_ctx, AdaptiveConfig::default());
    let trace = record(&dag, &splice_schedule, &gt, plan, policy, replan)
        .expect("drift replan recovers within policy bounds");
    assert!(
        trace.events.iter().any(|e| e.name == "hb.seam"),
        "the replan-splice scenario must actually splice (seam edges emitted)"
    );
    rows.push(row("replan-splice", "adaptive", &certify(&trace)));

    rows
}

/// One recorded run of `schedule` on `dag`; returns its telemetry.
fn record(
    dag: &JobDag,
    schedule: &Schedule,
    gt: &GroundTruth,
    faults: FaultPlan,
    recovery: RecoveryPolicy,
    replan: Replan<'_>,
) -> Result<TraceData, ExecError> {
    let obs = Recorder::new();
    let spec = RunSpec {
        faults,
        recovery,
        replan,
        recorder: Some(&obs),
        journal: None,
    };
    run(dag, schedule, gt, spec)?;
    Ok(obs.finish())
}

/// One model-checked DAG.
#[derive(Debug, Clone, Serialize)]
pub struct RaceExploreRow {
    /// Index in the seeded DAG sequence.
    pub dag: usize,
    /// Interleavings actually run (canonical + enumerated + sampled).
    pub interleavings: usize,
    /// Tie-break decision points in the canonical run.
    pub decision_points: usize,
    /// Whole decision trie enumerated (no budget cut-off).
    pub exhaustive: bool,
    /// A diverging interleaving was found (must be false).
    pub divergent: bool,
    /// Shrunk minimal witness decision vector, if divergent.
    pub witness: String,
}

/// Model-check tie-break invariance on `n` seeded random DAGs with
/// faults and adaptive replanning (the ISSUE's ≥ 16-DAG acceptance bar
/// for `figures -- race`; the smoke tier runs fewer).
pub fn race_explore(n: usize) -> Vec<RaceExploreRow> {
    explore_random_dags(n, &ExploreConfig::default())
        .expect("seeded fault rates recover within policy bounds")
        .into_iter()
        .enumerate()
        .map(|(i, o)| RaceExploreRow {
            dag: i,
            interleavings: o.interleavings,
            decision_points: o.decision_points,
            exhaustive: o.exhaustive,
            divergent: o.divergence.is_some(),
            witness: o
                .divergence
                .map(|d| format!("{:?}: {}", d.witness_decisions, d.detail))
                .unwrap_or_default(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn certification_sweep_is_clean() {
        let rows = race_certify();
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.clean, "scenario {} ({}) raced: {} errors", r.scenario, r.engine, r.errors);
            assert!(r.ops > 0 && r.hb_edges > 0, "scenario {} traced nothing", r.scenario);
        }
        // The scenarios must actually exercise distinct machinery —
        // including an applied splice (race_certify asserts seam edges
        // were emitted before certifying the replan-splice row).
        assert!(rows.iter().any(|r| r.engine == "adaptive"));
        assert!(rows.iter().any(|r| r.scenario == "replan-splice"));
    }

    #[test]
    fn explore_smoke_has_no_divergence() {
        let rows = race_explore(2);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(!r.divergent, "dag {} diverged: {}", r.dag, r.witness);
            assert!(r.interleavings >= 1);
        }
    }
}
