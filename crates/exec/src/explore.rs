//! Small-scope model checking of the simulators' schedule space.
//!
//! The discrete-event engines ([`crate::faults`], [`crate::adaptive`])
//! execute stages through a ready queue; stages with **bit-equal** ready
//! times are simultaneous events with no physical ordering, so the
//! simulation result must not depend on how their tie is broken. This
//! module *checks* that claim the loom way: it re-runs the same job under
//! every tie-break interleaving (exhaustively up to a budget, then
//! seeded-sampled), asserting bit-identical [`JobMetrics`] and
//! structurally identical traces. Any divergence is shrunk to a minimal
//! witness decision vector — the smallest set of flipped tie-breaks that
//! reproduces the difference — which is what goes into a regression test.
//!
//! The tie-break decision tree is *dynamic*: flipping an early decision
//! can change which later batches form. Enumeration therefore walks the
//! tree odometer-style — after each run, the realized `(decisions,
//! arity)` vectors name the path taken and its branching, and the next
//! script increments the last incrementable position and truncates the
//! tail (depth-first over the trie of schedules).

use crate::adaptive::AdaptiveConfig;
use crate::error::ExecError;
use crate::faults::{FaultPlan, FaultRates, RecoveryPolicy, ReschedulingContext};
use crate::groundtruth::{ExecConfig, GroundTruth};
use crate::metrics::JobMetrics;
use crate::queue::TieBreak;
use crate::sim::{run_with_tie, Replan, RunSpec};
use crate::trace::ExecutionTrace;
use ditto_cluster::ResourceManager;
use ditto_core::{DittoScheduler, JointOptions, Objective, Schedule, Scheduler, SchedulingContext};
use ditto_dag::generators::{random_dag, RandomDagConfig};
use ditto_dag::{JobDag, StageKind};
use ditto_obs::Recorder;
use ditto_timemodel::model::RateConfig;
use ditto_timemodel::JobTimeModel;

/// Exploration budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExploreConfig {
    /// Interleavings to enumerate exhaustively (depth-first over the
    /// decision trie, canonical run included). Small DAGs usually have
    /// fewer total interleavings than this and are covered completely.
    pub max_enumerated: usize,
    /// Seeded-random interleavings sampled after the enumeration budget
    /// is spent (0 = none).
    pub samples: u64,
    /// Seed for the sampling phase.
    pub seed: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_enumerated: 128,
            samples: 16,
            seed: 0,
        }
    }
}

/// A tie-break interleaving whose result differs from the canonical one,
/// shrunk to a minimal witness.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// The canonical run's realized decision vector (all zeros).
    pub canonical_decisions: Vec<u32>,
    /// Minimal diverging decision vector (greedily shrunk: no single
    /// decision in it can be reset to canonical without the divergence
    /// disappearing).
    pub witness_decisions: Vec<u32>,
    /// What differed (first mismatching field, rendered).
    pub detail: String,
}

/// Result of exploring one job's schedule space.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreOutcome {
    /// Interleavings actually run (canonical + enumerated + sampled).
    pub interleavings: usize,
    /// Tie-break decision points in the canonical run.
    pub decision_points: usize,
    /// Whether enumeration covered the whole decision trie (no budget
    /// cut-off; sampling adds nothing when this is true).
    pub exhaustive: bool,
    /// The first divergence found, if any, shrunk to a minimal witness.
    pub divergence: Option<Divergence>,
}

/// One run's comparable result: metrics bit-compared, traces compared
/// structurally (both are canonically (stage, task)-sorted by the engine).
struct RunResult {
    metrics: JobMetrics,
    trace: ExecutionTrace,
    decisions: Vec<u32>,
    arity: Vec<u32>,
}

/// First difference between two runs, if any.
fn diff(canon: &RunResult, other: &RunResult) -> Option<String> {
    if canon.metrics != other.metrics {
        return Some(format!(
            "JobMetrics diverge: canonical {:?} vs witness {:?}",
            canon.metrics, other.metrics
        ));
    }
    if canon.trace.tasks != other.trace.tasks {
        let i = canon
            .trace
            .tasks
            .iter()
            .zip(&other.trace.tasks)
            .position(|(a, b)| a != b)
            .unwrap_or(canon.trace.tasks.len().min(other.trace.tasks.len()));
        return Some(format!("task timelines diverge at index {i}"));
    }
    if canon.trace.attempts != other.trace.attempts {
        return Some("attempt histories diverge".to_string());
    }
    if canon.trace.replans != other.trace.replans {
        return Some("replan records diverge".to_string());
    }
    None
}

/// Depth-first successor of a realized `(decisions, arity)` path in the
/// decision trie: increment the last incrementable position, drop the
/// tail. `None` when the trie is exhausted.
fn next_script(decisions: &[u32], arity: &[u32]) -> Option<Vec<u32>> {
    let mut i = decisions.len();
    while i > 0 {
        i -= 1;
        if decisions[i] + 1 < arity[i] {
            let mut s = decisions[..i].to_vec();
            s.push(decisions[i] + 1);
            return Some(s);
        }
    }
    None
}

/// Explore every tie-break interleaving of one simulated job, frozen or
/// adaptive. `adaptive` switches the engine:
/// `Some((ctx, cfg))` runs under [`Replan::Adaptive`] (replans enabled),
/// `None` under [`Replan::Off`]. Returns the outcome with any divergence
/// shrunk to a minimal witness; engine-level errors (retries exhausted,
/// infeasible splice) propagate.
pub fn explore_schedule(
    dag: &JobDag,
    schedule: &Schedule,
    gt: &GroundTruth,
    plan: &FaultPlan,
    policy: &RecoveryPolicy,
    adaptive: Option<(&ReschedulingContext<'_>, &AdaptiveConfig)>,
    cfg: &ExploreConfig,
) -> Result<ExploreOutcome, ExecError> {
    schedule.validate(dag).map_err(ExecError::InvalidSchedule)?;
    let muted = Recorder::disabled();
    let mut spec = RunSpec {
        faults: plan.clone(),
        recovery: policy.clone(),
        replan: adaptive.map_or(Replan::Off, |(ctx, acfg)| Replan::Adaptive(ctx.clone(), *acfg)),
        ..RunSpec::default()
    };
    let mut run = |mut tie: TieBreak| -> Result<RunResult, ExecError> {
        let (trace, metrics) = run_with_tie(dag, schedule, gt, &mut spec, &muted, &mut tie)?;
        Ok(RunResult {
            metrics,
            trace,
            decisions: tie.decisions,
            arity: tie.arity,
        })
    };

    let canon = run(TieBreak::canonical())?;
    let mut interleavings = 1usize;
    let mut exhaustive = true;
    let mut first_divergence: Option<(Vec<u32>, String)> = None;

    // Exhaustive phase: depth-first over the trie.
    let mut cursor = next_script(&canon.decisions, &canon.arity);
    while let Some(script) = cursor {
        if interleavings >= cfg.max_enumerated {
            exhaustive = false;
            break;
        }
        let r = run(TieBreak::scripted(script))?;
        interleavings += 1;
        if let Some(detail) = diff(&canon, &r) {
            first_divergence = Some((r.decisions.clone(), detail));
            break;
        }
        cursor = next_script(&r.decisions, &r.arity);
    }

    // Sampling phase: only when the trie was too big to enumerate.
    if first_divergence.is_none() && !exhaustive {
        for k in 0..cfg.samples {
            let r = run(TieBreak::random(cfg.seed.wrapping_add(k)))?;
            interleavings += 1;
            if let Some(detail) = diff(&canon, &r) {
                first_divergence = Some((r.decisions.clone(), detail));
                break;
            }
        }
    }

    // Shrink: greedily reset decisions to canonical (0), left to right,
    // keeping any reset that preserves the divergence; repeat to a
    // fixpoint. The result is 1-minimal — no single remaining flip can
    // be dropped.
    let divergence = match first_divergence {
        None => None,
        Some((mut witness, mut detail)) => {
            loop {
                let mut shrunk = false;
                let mut i = 0;
                while i < witness.len() {
                    if witness[i] == 0 {
                        i += 1;
                        continue;
                    }
                    let mut candidate = witness.clone();
                    candidate[i] = 0;
                    let r = run(TieBreak::scripted(candidate))?;
                    interleavings += 1;
                    if let Some(d) = diff(&canon, &r) {
                        witness = r.decisions;
                        detail = d;
                        shrunk = true;
                        // restart the left-to-right pass on the new path
                        break;
                    }
                    i += 1;
                }
                if !shrunk {
                    break;
                }
            }
            Some(Divergence {
                canonical_decisions: canon.decisions.clone(),
                witness_decisions: witness,
                detail,
            })
        }
    };

    Ok(ExploreOutcome {
        interleavings,
        decision_points: canon.decisions.len(),
        exhaustive,
        divergence,
    })
}

/// Model-check tie-break invariance on `n` small random DAGs with faults
/// *and* adaptive replanning enabled — the acceptance sweep behind
/// `figures -- race`. Deterministic in `(n, cfg.seed)`. Returns one
/// outcome per DAG; the caller fails on any `divergence`.
pub fn explore_random_dags(n: usize, cfg: &ExploreConfig) -> Result<Vec<ExploreOutcome>, ExecError> {
    let gt = GroundTruth::new(ExecConfig::default());
    let mut outcomes = Vec::with_capacity(n);
    for i in 0..n as u64 {
        // Small DAGs keep full enumeration feasible; sources share ready
        // time 0.0, so every multi-source DAG has at least one batch.
        let stages = 5 + (i % 4) as usize;
        let dag = random_dag(1000 + i, &RandomDagConfig::sized(stages));
        let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let rm = ResourceManager::from_free_slots(vec![12, 10]);
        let schedule = DittoScheduler::new().schedule(&SchedulingContext {
            dag: &dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        });
        // Faults: seeded crashes/stragglers/object loss, plus kind drift
        // strong enough to trip the adaptive detector into replanning.
        let plan = FaultPlan::from_rates(FaultRates {
            crash_prob: 0.1,
            straggler_prob: 0.1,
            straggler_slowdown: 3.0,
            loss_prob: 0.15,
            corruption_prob: 0.05,
            ..FaultRates::none(2000 + i)
        })
        .with_kind_drift(StageKind::Map, 2.0)
        .with_kind_drift(StageKind::Reduce, 2.0);
        let policy = RecoveryPolicy {
            max_retries: 16,
            ..Default::default()
        };
        let ctx = ReschedulingContext {
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
            options: JointOptions::default(),
        };
        let acfg = AdaptiveConfig::default();
        outcomes.push(explore_schedule(
            &dag,
            &schedule,
            &gt,
            &plan,
            &policy,
            Some((&ctx, &acfg)),
            cfg,
        )?);
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trie_successor_walks_depth_first() {
        // arity [2, 3]: canonical [0,0] → [0,1] → [0,2] → [1] (tail
        // truncated) → after realizing [1,0]: [1,1] → [1,2] → done.
        assert_eq!(next_script(&[0, 0], &[2, 3]), Some(vec![0, 1]));
        assert_eq!(next_script(&[0, 1], &[2, 3]), Some(vec![0, 2]));
        assert_eq!(next_script(&[0, 2], &[2, 3]), Some(vec![1]));
        assert_eq!(next_script(&[1, 0], &[2, 3]), Some(vec![1, 1]));
        assert_eq!(next_script(&[1, 2], &[2, 3]), None);
        assert_eq!(next_script(&[], &[]), None);
    }

    #[test]
    fn frozen_engine_is_tie_invariant_on_a_faulted_diamond() {
        let dag = ditto_dag::generators::diamond(1 << 30);
        let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let rm = ResourceManager::from_free_slots(vec![8, 8]);
        let schedule = DittoScheduler::new().schedule(&SchedulingContext {
            dag: &dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        });
        let gt = GroundTruth::new(ExecConfig::default());
        let plan = FaultPlan::from_rates(FaultRates {
            crash_prob: 0.2,
            loss_prob: 0.3,
            ..FaultRates::none(11)
        });
        let policy = RecoveryPolicy {
            max_retries: 16,
            ..Default::default()
        };
        let out = explore_schedule(
            &dag,
            &schedule,
            &gt,
            &plan,
            &policy,
            None,
            &ExploreConfig::default(),
        )
        .unwrap();
        assert!(out.exhaustive, "a diamond's trie fits any budget");
        assert!(
            out.divergence.is_none(),
            "frozen engine diverged: {:?}",
            out.divergence
        );
        assert!(out.interleavings >= 1);
    }

    #[test]
    fn sixteen_random_dags_with_faults_and_replanning_are_invariant() {
        // The ISSUE's acceptance bar, in-tree: ≥ 16 small random DAGs,
        // faults and adaptive replanning enabled, bit-identical metrics
        // across every explored interleaving.
        let outcomes = explore_random_dags(16, &ExploreConfig::default()).unwrap();
        assert_eq!(outcomes.len(), 16);
        let mut with_ties = 0;
        for (i, o) in outcomes.iter().enumerate() {
            assert!(
                o.divergence.is_none(),
                "dag {i} diverged: {:?}",
                o.divergence
            );
            if o.decision_points > 0 {
                with_ties += 1;
            }
        }
        assert!(
            with_ties > 0,
            "sweep must actually exercise simultaneous-event batches"
        );
    }
}
