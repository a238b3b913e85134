//! The TPC-DS runtime workloads: five queries run round-robin through
//! `LocalRuntime` under Ditto's JCT schedules.
//!
//! * [`Layout::Colocated`] — 2 servers × 8 slots through `try_run`: most
//!   shuffle bytes take the zero-copy shared-memory bus; no object store
//!   round trips beyond what placement forces, no journal.
//! * [`Layout::RemoteJournaled`] — the same slot budget as 16 servers ×
//!   1 slot through `try_run_journaled` with a fresh in-memory
//!   `JournalSession` per job: shuffles go through the object store and
//!   every stage barrier appends to the write-ahead journal.
//!
//! Set-up generates the database, schedules and simulates each query at
//! paper scale, certifies each schedule, and runs each query once — the
//! warm-up pass — to check it against the independent `q*::reference`
//! oracle. That run's encoded answer is what every later job is
//! byte-compared with.

use crate::joint_probe;
use crate::layers::{Layers, RunnerSplit};
use crate::trace::{self, Tracer};
use crate::workload::{JobOutcome, Workload};
use ditto_cluster::{ResourceManager, TaskRecord};
use ditto_core::{joint_optimize_with_stats, JointOptions, Objective, Schedule};
use ditto_dag::JobDag;
use ditto_exec::runner::RunOutput;
use ditto_exec::{
    profile_job, try_simulate, ExecConfig, GroundTruth, JournalSession, LocalRuntime,
};
use ditto_obs::{Recorder, SpanId, Track};
use ditto_sql::queries::{q1, q16, q3, q94, q95, Query};
use ditto_sql::{Database, QueryPlan, ScaleConfig, Table};
use ditto_storage::{DataPlane, Medium};
use ditto_timemodel::JobTimeModel;
use std::time::Instant;

/// Scale factor of the generated database.
pub const SF: f64 = 0.5;
/// Multiplier from the generated volumes to the paper's TB-scale inputs,
/// applied to the DAG that is profiled, scheduled and simulated.
pub const VOLUME_SCALE: f64 = 40_000.0;
/// The five profiled degrees of parallelism (§6.5).
pub const PROFILE_DOPS: [u32; 5] = [10, 20, 40, 80, 120];

/// Where the runtime's tasks live and how jobs are submitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// 2 servers × 8 slots, `LocalRuntime::try_run`.
    Colocated,
    /// 16 servers × 1 slot, `LocalRuntime::try_run_journaled`.
    RemoteJournaled,
}

impl Layout {
    /// Free slots per server.
    pub fn free_slots(self) -> Vec<u32> {
        match self {
            Layout::Colocated => vec![8; 2],
            Layout::RemoteJournaled => vec![1; 16],
        }
    }
}

/// Set-up parameters.
#[derive(Debug, Clone, Copy)]
pub struct TpcdsConfig {
    /// Server layout and submission path.
    pub layout: Layout,
    /// Database scale factor.
    pub sf: f64,
    /// `ScaleConfig::seed` of the generated database.
    pub seed: u64,
}

struct Prepared {
    query: Query,
    /// Plan with measured volumes: what the runtime executes.
    plan: QueryPlan,
    /// The plan's DAG at paper scale: what is profiled and simulated.
    dag: JobDag,
    model: JobTimeModel,
    schedule: Schedule,
    /// Encoded answer of the oracle-checked set-up run.
    golden: Vec<u8>,
    sim_jct: f64,
    sim_cost: f64,
}

/// A set-up TPC-DS workload.
pub struct Tpcds {
    layout: Layout,
    db: Database,
    rm: ResourceManager,
    runtime: LocalRuntime,
    queries: Vec<Prepared>,
    layers: Layers,
    mismatches: Vec<String>,
}

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() < 1e-6 * want.abs().max(1.0)
}

/// Check an answer against the query's independent oracle.
fn check_oracle(q: Query, db: &Database, t: &Table) -> Result<(), String> {
    let triple = |got: (i64, f64, f64), want: (i64, f64, f64)| {
        if got.0 == want.0 && close(got.1, want.1) && close(got.2, want.2) {
            Ok(())
        } else {
            Err(format!("{q}: {got:?} != oracle {want:?}"))
        }
    };
    match q {
        Query::Q1 => {
            let mut got = q1::result_customers(t);
            let mut want = q1::reference(db);
            got.sort_unstable();
            want.sort_unstable();
            if got == want {
                Ok(())
            } else {
                Err(format!(
                    "q1: {} customers != oracle {}",
                    got.len(),
                    want.len()
                ))
            }
        }
        Query::Q3 => {
            let mut got = q3::result_rows(t);
            let mut want = q3::reference(db);
            got.sort_by_key(|r| r.0);
            want.sort_by_key(|r| r.0);
            let same = got.len() == want.len()
                && got
                    .iter()
                    .zip(&want)
                    .all(|(g, w)| g.0 == w.0 && close(g.1, w.1));
            if same {
                Ok(())
            } else {
                Err(format!("q3: {got:?} != oracle {want:?}"))
            }
        }
        Query::Q16 => triple(q16::result_triple(t), q16::reference(db)),
        Query::Q94 => triple(q94::result_triple(t), q94::reference(db)),
        Query::Q95 => triple(q95::result_triple(t), q95::reference(db)),
    }
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

impl Tpcds {
    /// Generate, schedule, certify and oracle-check. Mismatches are
    /// recorded, not fatal: the client counts them as failed jobs.
    pub fn setup(cfg: TpcdsConfig, tr: &Tracer) -> Tpcds {
        let mut layers = Layers::default();
        let mut mismatches = Vec::new();
        let t0 = Instant::now();
        let db = tr.scope("sql.datagen", trace::setup(), SpanId::NONE, || {
            Database::generate(ScaleConfig {
                sf: cfg.sf,
                seed: cfg.seed,
                ..ScaleConfig::default()
            })
        });
        layers.push("sql.datagen_s", t0.elapsed().as_secs_f64());

        let gt = GroundTruth::new(ExecConfig {
            external: Medium::S3,
            ..ExecConfig::default()
        });
        let rm = ResourceManager::from_free_slots(cfg.layout.free_slots());
        let (mut profile_ms, mut schedule_ms) = (0.0, 0.0);
        let mut w = Tpcds {
            layout: cfg.layout,
            db,
            rm,
            runtime: LocalRuntime::new(),
            queries: Vec::new(),
            layers: Layers::default(),
            mismatches: Vec::new(),
        };
        for query in Query::all_extended() {
            let span = tr.begin(
                "setup.query",
                trace::setup(),
                SpanId::NONE,
                vec![("query", query.name().into())],
            );
            let plan = query.prepared_plan(&w.db);
            let mut scaled = plan.clone();
            scaled.scale_volumes(VOLUME_SCALE);
            let dag = scaled.dag;

            let t = Instant::now();
            let model = tr.scope("exec.profile_job+build_model", trace::setup(), span, || {
                profile_job(&dag, &gt, &PROFILE_DOPS).build_model(&dag).0
            });
            let fit = ms_since(t);
            let t = Instant::now();
            let (schedule, stats) = tr.scope("core.joint_optimize", trace::setup(), span, || {
                joint_optimize_with_stats(
                    &dag,
                    &model,
                    &w.rm,
                    Objective::Jct,
                    &JointOptions::default(),
                    &Recorder::disabled(),
                )
            });
            let joint = ms_since(t);
            profile_ms += fit;
            schedule_ms += joint;
            layers.push("timemodel.profile_fit_ms", fit);
            layers.push("core.joint_ms", joint);
            layers.push("core.rounds", stats.rounds as f64);
            layers.push("core.candidates", stats.candidates as f64);
            layers.push("core.commits", stats.commits as f64);
            layers.push("core.dop_memo_hits", stats.dop_memo_hits as f64);
            layers.push(
                "core.us_per_candidate",
                joint * 1e3 / stats.candidates.max(1) as f64,
            );

            let report = ditto_audit::audit(&dag, &model, &w.rm, &schedule);
            if !report.is_clean() {
                mismatches.push(format!(
                    "{query}: schedule fails audit:\n{}",
                    report.render()
                ));
            }
            let t = Instant::now();
            std::hint::black_box(ditto_audit::audit_structure(&dag, &schedule));
            layers.push("audit.structure_ms", ms_since(t));
            let t = Instant::now();
            let sim = tr.scope("exec.simulate", trace::setup(), span, || {
                try_simulate(&dag, &schedule, &gt)
            });
            layers.push("sim.ms", ms_since(t));
            let (sim_jct, sim_cost) = match sim {
                Ok((_, m)) => (m.jct, m.total_cost()),
                Err(e) => {
                    mismatches.push(format!("{query}: simulate: {e}"));
                    (0.0, 0.0)
                }
            };

            let mut p = Prepared {
                query,
                plan,
                dag,
                model,
                schedule,
                golden: Vec::new(),
                sim_jct,
                sim_cost,
            };
            match w.execute(&p).0 {
                Ok(out) => {
                    if let Err(e) = check_oracle(query, &w.db, &out.result) {
                        mismatches.push(e);
                    }
                    p.golden = out.result.encode().to_vec();
                }
                Err(e) => mismatches.push(format!("{query}: {e}")),
            }
            w.queries.push(p);
            tr.end(span);
        }
        layers.push("setup.profile_ms", profile_ms);
        layers.push("setup.schedule_ms", schedule_ms);
        w.layers = layers;
        w.mismatches = mismatches;
        w
    }

    /// One submission: a fresh data plane (and journal session) per job.
    fn execute(
        &self,
        p: &Prepared,
    ) -> (
        Result<RunOutput, ditto_exec::ExecError>,
        Option<JournalSession>,
    ) {
        let dp = DataPlane::new(Medium::S3, self.rm.num_servers());
        match self.layout {
            Layout::Colocated => (
                self.runtime.try_run(&p.plan, &self.db, &p.schedule, &dp),
                None,
            ),
            Layout::RemoteJournaled => {
                let mut session = JournalSession::fresh(None);
                let out = self.runtime.try_run_journaled(
                    &p.plan,
                    &self.db,
                    &p.schedule,
                    &dp,
                    &mut session,
                );
                (out, Some(session))
            }
        }
    }
}

/// Per-layer samples of one returned job.
fn record(
    p: &Prepared,
    out: &RunOutput,
    records: &[TaskRecord],
    session: Option<&JournalSession>,
    layers: &mut Layers,
) {
    RunnerSplit::from_records(records, out.wall_seconds).push_into(layers);
    layers.push("runner.tasks", records.len() as f64);
    layers.push(
        "runner.max_dop",
        p.schedule.dop.iter().copied().max().unwrap_or(0) as f64,
    );
    let sum = |f: fn(&ditto_obs::StepTimings) -> f64| {
        records.iter().map(|r| f(&r.steps)).sum::<f64>() * 1e3
    };
    layers.push("sql.compute_ms", sum(|s| s.compute));
    layers.push("runner.read_ms", sum(|s| s.read));
    layers.push("runner.write_ms", sum(|s| s.write));

    let l = &out.ledger;
    layers.push("storage.shm_bytes", l.shared_memory.bytes_in as f64);
    layers.push(
        "storage.ext_bytes",
        (l.s3.bytes_in + l.redis.bytes_in) as f64,
    );
    layers.push(
        "storage.ext_objects",
        (l.s3.transfers + l.redis.transfers) as f64,
    );
    let media = [l.shared_memory, l.redis, l.s3];
    let wire: u64 = media.iter().map(|m| m.bytes_in).sum();
    let logical: u64 = media.iter().map(|m| m.logical_bytes).sum();
    layers.push(
        "storage.wire_per_logical",
        wire as f64 / logical.max(1) as f64,
    );

    if let Some(s) = session {
        layers.push("journal.records", s.records_written() as f64);
        layers.push("journal.bytes", s.durable_bytes().len() as f64);
        let t = Instant::now();
        let resumed = JournalSession::resume(s.durable_bytes());
        layers.push("journal.recover_ms", ms_since(t));
        std::hint::black_box(resumed.is_ok());
    }
}

/// The job's tasks as spans on their servers' tracks. Task times are
/// relative to the runtime's own start, a few µs after `run_start`.
fn task_spans(tr: &Tracer, job: SpanId, run_start: f64, records: &[TaskRecord]) {
    for r in records {
        tr.span(
            "runner.task",
            Track::server(r.server.0, r.task),
            run_start + r.start,
            run_start + r.end,
            job,
            vec![
                ("stage", u64::from(r.stage).into()),
                ("task", u64::from(r.task).into()),
                ("read_ms", (r.steps.read * 1e3).into()),
                ("compute_ms", (r.steps.compute * 1e3).into()),
                ("write_ms", (r.steps.write * 1e3).into()),
            ],
        );
    }
}

impl Workload for Tpcds {
    fn jobs(&self) -> usize {
        self.queries.len()
    }

    fn spawns_threads(&self) -> bool {
        true
    }

    fn run_job(&mut self, i: usize, tr: &Tracer, layers: Option<&mut Layers>) -> JobOutcome {
        let p = &self.queries[i % self.queries.len()];
        let job = tr.begin(
            "job",
            trace::client(0),
            SpanId::NONE,
            vec![("query", p.query.name().into())],
        );
        let call = tr.begin("runner.run", trace::client(1), job, Vec::new());
        let run_start = tr.now();
        let t0 = Instant::now();
        let (out, session) = self.execute(p);
        let latency_s = t0.elapsed().as_secs_f64();
        tr.end(call);
        tr.end(job);

        let check = tr.begin("client.check", trace::client(1), job, Vec::new());
        let ok = matches!(&out, Ok(o) if *o.result.encode() == p.golden[..]);
        tr.end(check);
        if let (Some(layers), Ok(out)) = (layers, &out) {
            let records = out.monitor.records();
            let span = tr.begin("client.layers", trace::client(1), job, Vec::new());
            record(p, out, &records, session.as_ref(), layers);
            tr.end(span);
            task_spans(tr, job, run_start, &records);
        }
        JobOutcome { latency_s, ok }
    }

    fn sim(&self) -> (f64, f64) {
        let n = self.queries.len() as f64;
        (
            self.queries.iter().map(|p| p.sim_jct).sum::<f64>() / n,
            self.queries.iter().map(|p| p.sim_cost).sum::<f64>() / n,
        )
    }

    fn checks(&self) -> (u64, Vec<String>) {
        (self.queries.len() as u64, self.mismatches.clone())
    }

    fn setup_layers(&self) -> Layers {
        self.layers.clone()
    }

    fn probe_joint(&self, tr: &Tracer, layers: &mut Layers) {
        let cases: Vec<(&JobDag, &JobTimeModel)> =
            self.queries.iter().map(|p| (&p.dag, &p.model)).collect();
        joint_probe::probe(&cases, &self.rm, 15, tr, layers);
    }
}
