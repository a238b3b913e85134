//! The control-plane workload: a seeded stream of 256-stage random DAGs,
//! each profiled, fitted, scheduled for JCT and simulated on 8 servers ×
//! 64 slots — the per-job model-build and scheduling path of the paper's
//! Table 2. It never enters the runtime, the SQL kernels or storage.
//!
//! Set-up generates the DAGs and warms up on the first few. A job takes
//! ~0.2 s, so a validated set-up pass would cost as much as the
//! measurement. Instead the first run of each DAG is certified with
//! `ditto_audit::audit` after the timed region, and any later run of the
//! same DAG must reproduce its schedule and simulated metrics bit for bit.

use crate::joint_probe;
use crate::layers::Layers;
use crate::tpcds::PROFILE_DOPS;
use crate::trace::{self, Tracer};
use crate::workload::{JobOutcome, Workload};
use ditto_cluster::ResourceManager;
use ditto_core::{joint_optimize_with_stats, JointOptions, JointStats, Objective, Schedule};
use ditto_dag::generators::{random_dag, RandomDagConfig};
use ditto_dag::JobDag;
use ditto_exec::{
    profile_job, schedule_fingerprint, try_simulate, ExecConfig, GroundTruth, JobMetrics,
};
use ditto_obs::{Recorder, SpanId};
use ditto_timemodel::JobTimeModel;
use std::time::Instant;

/// Stages per DAG.
pub const STAGES: usize = 256;
/// DAGs in the fixed sequence: p90 needs at least 100 samples per run.
pub const JOBS: usize = 100;
/// Jobs set-up runs as its warm-up (code and allocator; the stream has
/// no cache to fill).
const WARM_UP_JOBS: usize = 3;
/// DAGs the traced run's joint-optimizer probe uses.
const PROBE_DAGS: usize = 8;

/// Set-up parameters.
#[derive(Debug, Clone, Copy)]
pub struct SchedConfig {
    /// Stages per DAG.
    pub stages: usize,
    /// DAGs in the sequence.
    pub jobs: usize,
    /// Job `j` schedules `random_dag(seed + j)`.
    pub seed: u64,
}

/// One job's pipeline, with the time spent in each layer.
struct Pipeline {
    model: JobTimeModel,
    schedule: Schedule,
    stats: JointStats,
    sim: Result<JobMetrics, String>,
    fit_ms: f64,
    joint_ms: f64,
    sim_ms: f64,
}

impl Pipeline {
    /// The schedule and simulated metrics, as later runs must reproduce them.
    fn same_answer(&self, other: &Pipeline) -> bool {
        let bits = |p: &Pipeline| {
            p.sim
                .as_ref()
                .map(|m| (m.jct.to_bits(), m.total_cost().to_bits()))
                .ok()
        };
        schedule_fingerprint(&self.schedule) == schedule_fingerprint(&other.schedule)
            && bits(self).is_some()
            && bits(self) == bits(other)
    }
}

/// A set-up control-plane workload.
pub struct Sched {
    dags: Vec<JobDag>,
    /// The first run of each DAG: what is certified and reproduced.
    first: Vec<Option<Pipeline>>,
    rm: ResourceManager,
    gt: GroundTruth,
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

impl Sched {
    /// Generate the DAG stream and run its first jobs.
    pub fn setup(cfg: SchedConfig, tr: &Tracer) -> Sched {
        let dags: Vec<JobDag> = tr.scope("dag.random_dag", trace::setup(), SpanId::NONE, || {
            (0..cfg.jobs as u64)
                .map(|j| {
                    random_dag(
                        cfg.seed.wrapping_add(j),
                        &RandomDagConfig::sized(cfg.stages),
                    )
                })
                .collect()
        });
        let mut w = Sched {
            first: dags.iter().map(|_| None).collect(),
            dags,
            rm: ResourceManager::from_free_slots(vec![64; 8]),
            gt: GroundTruth::new(ExecConfig::default()),
        };
        for i in 0..WARM_UP_JOBS.min(w.dags.len()) {
            w.run_job(i, tr, None);
        }
        w
    }

    /// Profile + fit, schedule, simulate — the job itself.
    fn pipeline(&self, dag: &JobDag, tr: &Tracer, parent: SpanId) -> Pipeline {
        let t = Instant::now();
        let model = tr.scope(
            "exec.profile_job+build_model",
            trace::client(1),
            parent,
            || profile_job(dag, &self.gt, &PROFILE_DOPS).build_model(dag).0,
        );
        let fit_ms = ms_since(t);
        let t = Instant::now();
        let (schedule, stats) = tr.scope("core.joint_optimize", trace::client(1), parent, || {
            joint_optimize_with_stats(
                dag,
                &model,
                &self.rm,
                Objective::Jct,
                &JointOptions::default(),
                &Recorder::disabled(),
            )
        });
        let joint_ms = ms_since(t);
        let t = Instant::now();
        let sim = tr.scope("exec.simulate", trace::client(1), parent, || {
            try_simulate(dag, &schedule, &self.gt)
                .map(|(_, m)| m)
                .map_err(|e| e.to_string())
        });
        let sim_ms = ms_since(t);
        Pipeline {
            model,
            schedule,
            stats,
            sim,
            fit_ms,
            joint_ms,
            sim_ms,
        }
    }
}

impl Workload for Sched {
    fn jobs(&self) -> usize {
        self.dags.len()
    }

    fn spawns_threads(&self) -> bool {
        false
    }

    fn run_job(&mut self, i: usize, tr: &Tracer, layers: Option<&mut Layers>) -> JobOutcome {
        let i = i % self.dags.len();
        let dag = &self.dags[i];
        let job = tr.begin(
            "job",
            trace::client(0),
            SpanId::NONE,
            vec![("dag", dag.name().to_string().into())],
        );
        let t0 = Instant::now();
        let p = self.pipeline(dag, tr, job);
        let latency_s = t0.elapsed().as_secs_f64();
        tr.end(job);

        if let Some(layers) = layers {
            layers.push("timemodel.profile_fit_ms", p.fit_ms);
            layers.push("core.joint_ms", p.joint_ms);
            layers.push("core.rounds", p.stats.rounds as f64);
            layers.push("core.candidates", p.stats.candidates as f64);
            layers.push("core.commits", p.stats.commits as f64);
            layers.push("core.dop_memo_hits", p.stats.dop_memo_hits as f64);
            layers.push(
                "core.us_per_candidate",
                p.joint_ms * 1e3 / p.stats.candidates.max(1) as f64,
            );
            layers.push("sim.ms", p.sim_ms);
            let t = Instant::now();
            std::hint::black_box(ditto_audit::audit_structure(dag, &p.schedule));
            layers.push("audit.structure_ms", ms_since(t));
        }
        let ok = match &self.first[i] {
            Some(first) => p.same_answer(first),
            None => {
                let ok = p.sim.is_ok();
                self.first[i] = Some(p);
                ok
            }
        };
        JobOutcome { latency_s, ok }
    }

    fn sim(&self) -> (f64, f64) {
        let n = self.dags.len() as f64;
        let ms: Vec<&JobMetrics> = self
            .first
            .iter()
            .flatten()
            .filter_map(|p| p.sim.as_ref().ok())
            .collect();
        (
            ms.iter().map(|m| m.jct).sum::<f64>() / n,
            ms.iter().map(|m| m.total_cost()).sum::<f64>() / n,
        )
    }

    fn checks(&self) -> (u64, Vec<String>) {
        let mut mismatches = Vec::new();
        for (j, (dag, p)) in self.dags.iter().zip(&self.first).enumerate() {
            match p {
                None => mismatches.push(format!("dag {j}: never ran")),
                Some(p) => {
                    if let Err(e) = &p.sim {
                        mismatches.push(format!("dag {j}: simulate: {e}"));
                    }
                    let report = ditto_audit::audit(dag, &p.model, &self.rm, &p.schedule);
                    if !report.is_clean() {
                        mismatches.push(format!(
                            "dag {j}: schedule fails audit:\n{}",
                            report.render()
                        ));
                    }
                }
            }
        }
        (self.dags.len() as u64, mismatches)
    }

    fn probe_joint(&self, tr: &Tracer, layers: &mut Layers) {
        let cases: Vec<(&JobDag, &JobTimeModel)> = self
            .dags
            .iter()
            .zip(&self.first)
            .filter_map(|(d, p)| p.as_ref().map(|p| (d, &p.model)))
            .take(PROBE_DAGS)
            .collect();
        joint_probe::probe(&cases, &self.rm, 3, tr, layers);
    }
}
