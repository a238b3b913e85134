//! Discrete-event simulation of a scheduled job.
//!
//! Dependencies are stage-granular: a stage's tasks may start once every
//! upstream stage finished writing (intra-stage pipelining is modeled at
//! the time-model level via pipelining annotations, §4.5, not replayed
//! here). Task launch follows the NIMBLE just-in-time policy the paper
//! adopts for both systems (§5 "Task launch time"): containers start
//! `setup` seconds before their inputs are ready, so setup overlaps the
//! upstream tail and idle waiting is avoided — which is exactly what makes
//! late launching cost-neutral.

use crate::adaptive::{simulate_adaptive, AdaptiveConfig};
use crate::error::ExecError;
use crate::faults::{simulate_frozen, FaultPlan, RecoveryPolicy, ReschedulingContext};
use crate::groundtruth::GroundTruth;
use crate::journal::{EngineKind, JournalSession};
use crate::metrics::JobMetrics;
use crate::queue::TieBreak;
use crate::trace::ExecutionTrace;
use ditto_core::Schedule;
use ditto_dag::JobDag;
use ditto_obs::Recorder;

/// What a run replans, and against which model and resources.
#[derive(Debug, Clone, Default)]
pub enum Replan<'a> {
    /// Play the schedule as committed (server failures still kill and
    /// re-execute attempts; nothing is re-optimized).
    #[default]
    Off,
    /// On a whole-server failure, re-optimize the not-yet-launched suffix
    /// against the shrunk snapshot (when
    /// [`RecoveryPolicy::reschedule_on_server_failure`] is set).
    OnServerFailure(ReschedulingContext<'a>),
    /// Online drift detection and elastic suffix re-optimization
    /// ([`crate::adaptive`]); server failures are handled by the same
    /// loop.
    Adaptive(ReschedulingContext<'a>, AdaptiveConfig),
}

impl Replan<'_> {
    /// The engine this mode runs on, as a journal records it.
    fn engine(&self) -> EngineKind {
        match self {
            Replan::Adaptive(..) => EngineKind::Adaptive,
            _ => EngineKind::Frozen,
        }
    }
}

/// Everything [`run`] plays a schedule under besides the job itself.
/// Each field is optional: [`RunSpec::default`] is a plain, fault-free,
/// untraced, unjournaled run.
pub struct RunSpec<'a> {
    /// Injected faults (default: none).
    pub faults: FaultPlan,
    /// How the run reacts to them (default: [`RecoveryPolicy::none`]).
    pub recovery: RecoveryPolicy,
    /// Replanning mode (default: [`Replan::Off`]).
    pub replan: Replan<'a>,
    /// Telemetry sink: task/stage/attempt spans, fault events, storage
    /// counters and scheduler decisions land here with sim-clock
    /// timestamps. Telemetry never changes the result.
    pub recorder: Option<&'a Recorder>,
    /// Write-ahead journal: admission, schedule commit, per-stage object
    /// commits and checkpoints, and every replan or failover decision
    /// journal through it before taking effect. A session armed with a
    /// coordinator crash fails with [`ExecError::CoordinatorCrash`] at the
    /// armed record; resume by passing [`JournalSession::resume`]'s
    /// session back in with identical inputs.
    pub journal: Option<&'a mut JournalSession>,
}

impl Default for RunSpec<'_> {
    fn default() -> Self {
        RunSpec {
            faults: FaultPlan::none(),
            recovery: RecoveryPolicy::none(),
            replan: Replan::Off,
            recorder: None,
            journal: None,
        }
    }
}

/// Simulate `schedule` on `dag` under the ground truth and `spec`: the
/// one simulator entry point. Returns the full trace plus job metrics.
///
/// The schedule must pass the auditor's structural certificate first, so
/// an unsound schedule is refused with stage/edge-attributed findings
/// instead of a mid-run panic. Debug builds record every run the caller
/// does not trace and gate its event stream through the race checker, so
/// an ordering hazard a refactor introduces fails loudly in every debug
/// test run (telemetry never changes the result).
pub fn run(
    dag: &JobDag,
    schedule: &Schedule,
    gt: &GroundTruth,
    mut spec: RunSpec<'_>,
) -> Result<(ExecutionTrace, JobMetrics), ExecError> {
    let report = ditto_audit::audit_structure(dag, schedule);
    if !report.is_clean() {
        return Err(ExecError::InvalidSchedule(report.render()));
    }
    schedule.validate(dag).map_err(ExecError::InvalidSchedule)?;
    let self_check = cfg!(debug_assertions) && spec.recorder.is_none();
    let own;
    let obs = match spec.recorder {
        Some(obs) => obs,
        None => {
            own = if self_check { Recorder::new() } else { Recorder::disabled() };
            &own
        }
    };
    if let Some(j) = spec.journal.as_deref_mut() {
        j.begin(
            dag.num_stages() as u32,
            dag.num_edges() as u32,
            spec.replan.engine(),
            schedule,
            obs,
        )?;
    }
    let out = run_with_tie(dag, schedule, gt, &mut spec, obs, &mut TieBreak::canonical())?;
    if let Some(j) = spec.journal {
        j.finish(&out.1)?;
    }
    if self_check {
        let race = ditto_audit::check_trace(&obs.finish(), &ditto_audit::RaceOptions::default());
        debug_assert!(
            race.is_clean(),
            "race checker rejected the run's own trace:\n{}",
            race.render()
        );
    }
    Ok(out)
}

/// [`run`]'s engine dispatch under an explicit tie-break controller and an
/// already-resolved recorder (`spec.recorder` is not consulted). Skips
/// the certificate gate, validation, journal bracket and race self-check:
/// the model checker (`crate::explore`) validates once and then drives
/// this with scripted and random controllers.
pub(crate) fn run_with_tie(
    dag: &JobDag,
    schedule: &Schedule,
    gt: &GroundTruth,
    spec: &mut RunSpec<'_>,
    obs: &Recorder,
    tie: &mut TieBreak,
) -> Result<(ExecutionTrace, JobMetrics), ExecError> {
    let (plan, policy, jr) = (&spec.faults, &spec.recovery, spec.journal.as_deref_mut());
    match &spec.replan {
        Replan::Off => simulate_frozen(dag, schedule, gt, plan, policy, None, obs, tie, jr),
        Replan::OnServerFailure(ctx) => {
            simulate_frozen(dag, schedule, gt, plan, policy, Some(ctx), obs, tie, jr)
        }
        Replan::Adaptive(ctx, cfg) => {
            simulate_adaptive(dag, schedule, gt, plan, policy, ctx, cfg, obs, tie, jr)
        }
    }
}

/// Simulate `schedule` on `dag` under the ground truth: a plain run.
/// Returns the full trace plus job metrics.
///
/// ```
/// use ditto_core::{DittoScheduler, Objective, Scheduler, SchedulingContext};
/// use ditto_exec::{profile_job, simulate, ExecConfig, GroundTruth};
///
/// let dag = ditto_dag::generators::fig1_join();
/// let gt = GroundTruth::new(ExecConfig::default());
/// // Profile at a few DoPs, fit the model the scheduler will consume.
/// let (model, _) = profile_job(&dag, &gt, &[2, 4, 8]).build_model(&dag);
/// let rm = ditto_cluster::ResourceManager::from_free_slots(vec![10, 10]);
/// let schedule = DittoScheduler::new().schedule(&SchedulingContext {
///     dag: &dag, model: &model, resources: &rm, objective: Objective::Jct,
/// });
/// let (trace, metrics) = simulate(&dag, &schedule, &gt);
/// assert!(metrics.jct > 0.0);
/// assert_eq!(metrics.jct, trace.jct());
/// ```
pub fn simulate(dag: &JobDag, schedule: &Schedule, gt: &GroundTruth) -> (ExecutionTrace, JobMetrics) {
    try_simulate(dag, schedule, gt).expect("schedule must be valid for its DAG")
}

/// Fallible variant of [`simulate`]: returns [`ExecError`] instead of
/// panicking on an invalid schedule or cyclic DAG.
pub fn try_simulate(
    dag: &JobDag,
    schedule: &Schedule,
    gt: &GroundTruth,
) -> Result<(ExecutionTrace, JobMetrics), ExecError> {
    run(dag, schedule, gt, RunSpec::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groundtruth::ExecConfig;
    use ditto_cluster::ResourceManager;
    use ditto_core::baselines::{EvenSplitScheduler, NimbleScheduler};
    use ditto_core::{DittoScheduler, Objective, Scheduler, SchedulingContext};
    use ditto_storage::Medium;
    use ditto_timemodel::model::RateConfig;
    use ditto_timemodel::JobTimeModel;

    fn run(
        dag: &JobDag,
        scheduler: &dyn Scheduler,
        free: &[u32],
        cfg: ExecConfig,
    ) -> (ExecutionTrace, JobMetrics) {
        let model = JobTimeModel::from_rates(dag, &RateConfig::default());
        let rm = ResourceManager::from_free_slots(free.to_vec());
        let schedule = scheduler.schedule(&SchedulingContext {
            dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        });
        simulate(dag, &schedule, &GroundTruth::new(cfg))
    }

    #[test]
    fn dependencies_are_respected() {
        let dag = ditto_dag::generators::q95_shape();
        let (trace, m) = run(
            &dag,
            &EvenSplitScheduler,
            &[96; 8],
            ExecConfig::default(),
        );
        assert!(m.jct > 0.0);
        // Every task of a downstream stage starts reading after all its
        // (non-pipelined) upstream stages' ends.
        for e in dag.edges().iter().filter(|e| !e.pipelined) {
            let src_end = trace.stage_end(e.src.0);
            for t in trace.tasks.iter().filter(|t| t.stage == e.dst.0) {
                assert!(
                    t.read_start >= src_end - 1e-9,
                    "task of stage {} reads at {} before upstream {} ends at {}",
                    e.dst,
                    t.read_start,
                    e.src,
                    src_end
                );
            }
        }
    }

    #[test]
    fn setup_overlaps_wait() {
        let dag = ditto_dag::generators::chain(2, 1 << 30, 0.5);
        let (trace, _) = run(&dag, &EvenSplitScheduler, &[32], ExecConfig::default());
        // Downstream tasks launch before their read_start by exactly setup.
        let down: Vec<_> = trace.tasks.iter().filter(|t| t.stage == 1).collect();
        for t in down {
            assert!(t.launch < t.read_start);
            assert!(t.read_start - t.launch <= ExecConfig::default().task_overhead + 1e-9);
        }
    }

    #[test]
    fn ditto_beats_nimble_on_q95_sim() {
        let dag = ditto_dag::generators::q95_shape();
        let free = [96, 48, 24, 18, 12, 10, 8, 6];
        let cfg = ExecConfig::default();
        let (_, nimble) = run(&dag, &NimbleScheduler::default(), &free, cfg.clone());
        let (_, ditto) = run(&dag, &DittoScheduler::new(), &free, cfg);
        let (speedup, _) = ditto.vs(&nimble);
        assert!(
            speedup > 1.0,
            "ditto JCT {} should beat nimble {}",
            ditto.jct,
            nimble.jct
        );
    }

    #[test]
    fn redis_faster_than_s3() {
        let dag = ditto_dag::generators::q95_shape();
        let (_, s3) = run(
            &dag,
            &EvenSplitScheduler,
            &[96; 8],
            ExecConfig {
                external: Medium::S3,
                ..Default::default()
            },
        );
        let (_, redis) = run(
            &dag,
            &EvenSplitScheduler,
            &[96; 8],
            ExecConfig {
                external: Medium::Redis,
                ..Default::default()
            },
        );
        assert!(redis.jct < s3.jct);
        // But Redis persistence is priced while S3's is not.
        assert!(redis.storage_cost > s3.storage_cost);
    }

    #[test]
    fn metrics_consistent_with_trace() {
        let dag = ditto_dag::generators::fig1_join();
        let (trace, m) = run(&dag, &EvenSplitScheduler, &[30, 30], ExecConfig::default());
        assert!((m.jct - trace.jct()).abs() < 1e-12);
        assert!((m.compute_cost - trace.compute_cost()).abs() < 1e-12);
        assert!(m.total_cost() >= m.compute_cost);
    }

    #[test]
    fn pipelining_overlaps_and_never_hurts() {
        let mut dag = ditto_dag::generators::chain(3, 8 << 30, 0.8);
        let cfg = ExecConfig {
            skew: 0.0,
            straggler_prob: 0.0,
            jitter: 0.0,
            ..Default::default()
        };
        let (_, plain) = run(&dag, &EvenSplitScheduler, &[48], cfg.clone());
        dag.set_pipelined(ditto_dag::EdgeId(0), true);
        dag.set_pipelined(ditto_dag::EdgeId(1), true);
        let (trace, piped) = run(&dag, &EvenSplitScheduler, &[48], cfg);
        assert!(
            piped.jct < plain.jct,
            "pipelining should shorten the chain: {} vs {}",
            piped.jct,
            plain.jct
        );
        // Consumers may start early, but cannot finish reading before the
        // producer finishes writing.
        for e in dag.edges() {
            let src_end = trace.stage_end(e.src.0);
            for t in trace.tasks.iter().filter(|t| t.stage == e.dst.0) {
                assert!(t.read_start < src_end, "reads overlap the producer");
                assert!(t.compute_start >= src_end - 1e-9, "but cannot outrun it");
            }
        }
    }

    #[test]
    fn placement_capacity_never_exceeded() {
        // No server hosts more concurrent tasks than it had free slots —
        // for any scheduler, at any point in simulated time.
        let free = [96u32, 48, 24, 18, 12, 10, 8, 6];
        let dag = ditto_dag::generators::q95_shape();
        for scheduler in [
            &DittoScheduler::new() as &dyn Scheduler,
            &NimbleScheduler::default(),
            &EvenSplitScheduler,
        ] {
            let (trace, _) = run(&dag, scheduler, &free, ExecConfig::default());
            for (server, peak) in trace.peak_server_occupancy() {
                assert!(
                    peak <= free[server as usize],
                    "{}: server {server} peaked at {peak} > {} free slots",
                    scheduler.name(),
                    free[server as usize]
                );
            }
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let dag = ditto_dag::generators::q95_shape();
        let a = run(&dag, &DittoScheduler::new(), &[96; 8], ExecConfig::default());
        let b = run(&dag, &DittoScheduler::new(), &[96; 8], ExecConfig::default());
        assert_eq!(a.1, b.1);
    }
}
