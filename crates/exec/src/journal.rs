//! Control-plane write-ahead journal and crash recovery.
//!
//! Ditto's scheduler (§4) is a single coordinator: every schedule commit,
//! replan splice, failover and object commit is one process's decision,
//! and losing that process loses the job. This module makes the control
//! plane durable: both engines (the frozen fault engine and the adaptive
//! engine) write an append-only, CRC-checksummed, length-prefixed journal
//! of their decisions through one batched [`JournalWriter`], and
//! [`recover`] / [`JournalSession::resume`] rebuild engine state from the
//! durable prefix so a crashed job *resumes* from its last completed
//! stage instead of restarting.
//!
//! Format: a 9-byte header (`DITTOWAL` + version) followed by frames of
//! `[len: u32 LE][crc64: u64 LE][payload]`, where `crc64` is
//! [`checksum64`] of the payload. A coordinator crash can tear the tail
//! mid-frame; [`decode_journal`] detects the torn tail (truncation, bad
//! length, or checksum mismatch) with exact record-index provenance and
//! truncates recovery to the durable prefix.
//!
//! Recovery invariants (DESIGN.md §6k):
//!
//! * **exactly-once commits** — re-execution after a crash is
//!   at-least-once; the [`CommitLedger`] keyed by `(object,
//!   attempt_epoch)` deduplicates re-delivered commits and hard-fails on
//!   value conflicts;
//! * **bit-identical results** — restored stages replay absolute
//!   checkpointed state ([`StageCheckpoint`]) and re-simulated suffix
//!   stages run the same deterministic engine, so final metrics, task
//!   timelines and replan decisions equal the crash-free run bit for bit;
//! * **replayed decisions, re-run gates** — on resume the adaptive engine
//!   re-runs its drift gates deterministically and substitutes journaled
//!   [`ReplanRecord`]s for the optimizer calls they gate, so a replayed
//!   splice is applied without re-optimizing (bounded recovery work) and
//!   any divergence from the journal is a hard [`ExecError::Journal`].

use crate::adaptive::{ReplanRecord, ReplanTrigger};
use crate::error::ExecError;
use crate::faults::{
    emit_stage, AttemptOutcome, AttemptRecord, FaultPlan, FaultStats, SimState,
};
use crate::groundtruth::GroundTruth;
use crate::metrics::JobMetrics;
use crate::trace::TaskTrace;
use ditto_cluster::ServerId;
use ditto_core::{Schedule, TaskPlacement};
use ditto_dag::{JobDag, StageId};
use ditto_obs::{Recorder, StepTimings, TraceData, Track};
use ditto_storage::{checksum64, CommitLedger, CommitOutcome, Medium};
use ditto_timemodel::StepCorrections;
use std::collections::{BTreeMap, VecDeque};

/// Journal file magic: the first 8 bytes of every journal.
pub const JOURNAL_MAGIC: [u8; 8] = *b"DITTOWAL";
/// Journal format version (header byte 9).
pub const JOURNAL_VERSION: u8 = 1;
/// Header length: magic + version byte.
pub const JOURNAL_HEADER_LEN: usize = 9;
/// Seed for the per-frame payload checksum.
pub const JOURNAL_SEED: u64 = 0xD177_0A11_0F4A_C0DE;
/// Seed for the schedule fingerprint recorded by `ScheduleCommit`.
pub const SCHEDULE_FP_SEED: u64 = 0x00D1_7705_C4ED;
/// Maximum frame payload size accepted by the decoder.
pub const MAX_FRAME: usize = 64 << 20;

// ---------------------------------------------------------------------
// Little-endian put/take codec helpers
// ---------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    put_u8(buf, v as u8);
}

fn put_str(buf: &mut Vec<u8>, v: &str) {
    put_u32(buf, v.len() as u32);
    buf.extend_from_slice(v.as_bytes());
}

/// Cursor-based payload decoder; every taker errors on underrun.
struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(data: &'a [u8]) -> Self {
        Dec { data, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.data.len() {
            return Err(format!(
                "payload underrun: need {n} bytes at offset {}, have {}",
                self.pos,
                self.data.len() - self.pos
            ));
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn boolean(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("bad bool byte {b}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        let n = self.u32()? as usize;
        let raw = self.bytes(n)?;
        String::from_utf8(raw.to_vec()).map_err(|e| format!("bad utf8 string: {e}"))
    }

    fn finished(&self) -> bool {
        self.pos == self.data.len()
    }

    /// Preallocation for `count` elements of at least `min_size` encoded
    /// bytes each: never more than the remaining payload can hold, so a
    /// forged length prefix fails as an underrun instead of an
    /// allocation the size of the prefix.
    fn capacity(&self, count: u32, min_size: usize) -> usize {
        (count as usize).min((self.data.len() - self.pos) / min_size)
    }
}

// ---------------------------------------------------------------------
// Record types
// ---------------------------------------------------------------------

/// Which engine wrote a journal (recorded in `JobAdmit` so recovery
/// resumes with the same engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The frozen-schedule fault engine ([`crate::Replan::Off`] or
    /// [`crate::Replan::OnServerFailure`]).
    Frozen,
    /// The adaptive engine ([`crate::Replan::Adaptive`]).
    Adaptive,
    /// The physical thread-pool runtime (`crate::runner`).
    Runner,
}

impl EngineKind {
    fn to_u8(self) -> u8 {
        match self {
            EngineKind::Frozen => 0,
            EngineKind::Adaptive => 1,
            EngineKind::Runner => 2,
        }
    }

    fn from_u8(v: u8) -> Result<Self, String> {
        match v {
            0 => Ok(EngineKind::Frozen),
            1 => Ok(EngineKind::Adaptive),
            2 => Ok(EngineKind::Runner),
            b => Err(format!("bad engine kind {b}")),
        }
    }

    /// Human-readable engine label.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Frozen => "frozen",
            EngineKind::Adaptive => "adaptive",
            EngineKind::Runner => "runner",
        }
    }
}

/// One lineage re-execution paid by a reader stage: recorded in the
/// reader's [`StageCheckpoint`] so a restored stage re-emits the same
/// fault/recovery telemetry the live simulation produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineageHit {
    /// Stage whose read detected the fault and paid the wait.
    pub reader_stage: u32,
    /// Producer stage of the lost/corrupt object.
    pub src_stage: u32,
    /// Producer task of the lost/corrupt object.
    pub src_task: u32,
    /// `true` for a checksum corruption, `false` for a loss.
    pub corrupt: bool,
    /// Sim time the fault was detected (the reader's pre-recovery ready).
    pub detect_at: f64,
    /// Re-execution time of the producing task, seconds.
    pub reexec_s: f64,
}

/// Why [`decode_journal`] stopped before the end of the byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornReason {
    /// The remaining bytes are shorter than the frame they announce (the
    /// classic torn tail of a crash mid-append).
    Truncated,
    /// A full frame was present but its payload failed the CRC check.
    ChecksumMismatch,
    /// The frame length field is zero or beyond [`MAX_FRAME`].
    BadLength,
}

impl TornReason {
    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            TornReason::Truncated => "truncated",
            TornReason::ChecksumMismatch => "checksum-mismatch",
            TornReason::BadLength => "bad-length",
        }
    }
}

/// Exact provenance of a torn or corrupt journal tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornTail {
    /// Index of the first unreadable record (== count of durable records).
    pub at_record: u64,
    /// Byte length of the durable prefix (header + intact frames).
    pub byte_offset: usize,
    /// What was wrong with the tail.
    pub reason: TornReason,
}

/// A decoded journal: the durable record prefix plus tail provenance.
#[derive(Debug, Clone)]
pub struct DecodedJournal {
    /// All intact records, in append order.
    pub records: Vec<JournalRecord>,
    /// Present iff the byte stream did not end exactly on a frame
    /// boundary.
    pub torn: Option<TornTail>,
    /// Byte length of the durable prefix (equals the input length when
    /// the journal is clean).
    pub durable_len: usize,
}

/// Absolute post-state of one completed stage: everything the simulator
/// wrote into its `SimState` while running it, so recovery can restore the
/// stage wholesale instead of re-simulating it. Checkpoints form a strict
/// prefix of the deterministic stage pop order, so whole-vector restores
/// (fault buckets, edge media, heal map) are safe: every restore happens
/// before any re-simulation.
#[derive(Debug, Clone)]
pub struct StageCheckpoint {
    /// Stage index.
    pub stage: u32,
    /// Stage end (latest task end).
    pub end: f64,
    /// Earliest task write start (the pipelining gate).
    pub write_start: f64,
    /// Latest task compute start (end of reads).
    pub read_end: f64,
    /// Stage container launch (earliest attempt launch).
    pub launch: f64,
    /// Mean as-executed step durations (drift-detector food).
    pub observed: StepTimings,
    /// Mean clean step durations (the detector's expected side).
    pub clean: StepTimings,
    /// Clean single-attempt duration per task (lineage re-execution cost).
    pub task_clean: Vec<f64>,
    /// The *whole* per-edge medium vector at stage completion
    /// (`medium_code`-encoded, 255 = unset).
    pub edge_medium: Vec<u8>,
    /// The whole lineage-healing map: `(stage, task, heal_end)`.
    pub heal_end: Vec<(u32, u32, f64)>,
    /// All per-stage fault buckets, absolute (lineage charges hit the
    /// *producer* stage's bucket, so this stage's completion can mutate
    /// any earlier bucket).
    pub buckets: Vec<FaultStats>,
    /// Lineage re-executions this stage paid for as a reader.
    pub lineage: Vec<LineageHit>,
    /// Winning task timelines of this stage.
    pub tasks: Vec<TaskTrace>,
    /// Attempt history of this stage (empty per task when fault-free).
    pub attempts: Vec<AttemptRecord>,
}

/// One journaled control-plane decision.
///
/// No `PartialEq`: [`Schedule`] does not compare; tests compare encoded
/// bytes instead, which is the stronger statement anyway.
#[derive(Debug, Clone)]
pub enum JournalRecord {
    /// Job admission: DAG shape and the engine that will run it.
    JobAdmit {
        /// Number of DAG stages.
        stages: u32,
        /// Number of DAG edges.
        edges: u32,
        /// Engine writing this journal.
        engine: EngineKind,
        /// Scheduler name of the committed schedule.
        scheduler: String,
    },
    /// The initial schedule commit (decision 0 of every run).
    ScheduleCommit {
        /// Monotonic decision sequence number (always 0 here).
        decision_seq: u64,
        /// [`checksum64`] fingerprint of the encoded schedule.
        schedule_fp: u64,
    },
    /// One object commit: a task's surviving output became durable.
    ObjectCommit {
        /// Producer stage.
        stage: u32,
        /// Producer task.
        task: u32,
        /// Attempt epoch of the surviving execution.
        attempt_epoch: u32,
        /// Value fingerprint (sim: commit-instant bits; runner: output
        /// table checksum).
        value: u64,
    },
    /// A stage completed; carries its full restore checkpoint.
    StageComplete(Box<StageCheckpoint>),
    /// An adaptive suffix replan decision (applied or rejected).
    Replan {
        /// The decision record, as it lands on the execution trace.
        record: ReplanRecord,
        /// Suffix mask at the decision (`true` = stage not yet started).
        suffix: Vec<bool>,
        /// The spliced schedule, present iff the replan was applied.
        schedule: Option<Schedule>,
    },
    /// A failure-aware failover reschedule (frozen engine).
    Failover {
        /// Monotonic decision sequence number.
        decision_seq: u64,
        /// Failed server index.
        failed_server: u32,
        /// Failure instant, sim seconds.
        at_time: f64,
        /// Suffix mask (`true` = stage had not launched at the failure).
        suffix: Vec<bool>,
        /// The spliced hybrid schedule the suffix runs under.
        schedule: Schedule,
    },
    /// One physical task attempt (runner engine; wall-clock times).
    TaskAttempt {
        /// Stage index.
        stage: u32,
        /// Task index.
        task: u32,
        /// Attempt number.
        attempt: u32,
        /// Outcome code (see [`AttemptOutcome`] codec).
        outcome: u8,
        /// Attempt start, wall seconds since run start.
        start: f64,
        /// Attempt end, wall seconds since run start.
        end: f64,
    },
    /// The job finished with these final metrics.
    JobComplete {
        /// Final metrics of the run.
        metrics: JobMetrics,
    },
    /// A compaction snapshot: the entire durable prefix folded into one
    /// record (see [`compact_journal`]).
    Snapshot(Vec<JournalRecord>),
}

// ---------------------------------------------------------------------
// Sub-codecs
// ---------------------------------------------------------------------

fn medium_code(m: Option<Medium>) -> u8 {
    match m {
        Some(Medium::SharedMemory) => 0,
        Some(Medium::Redis) => 1,
        Some(Medium::S3) => 2,
        None => 255,
    }
}

fn medium_from_code(c: u8) -> Result<Option<Medium>, String> {
    match c {
        0 => Ok(Some(Medium::SharedMemory)),
        1 => Ok(Some(Medium::Redis)),
        2 => Ok(Some(Medium::S3)),
        255 => Ok(None),
        b => Err(format!("bad medium code {b}")),
    }
}

fn outcome_code(o: AttemptOutcome) -> u8 {
    match o {
        AttemptOutcome::Completed => 0,
        AttemptOutcome::Crashed => 1,
        AttemptOutcome::ServerLost => 2,
        AttemptOutcome::Superseded => 3,
    }
}

fn outcome_from_code(c: u8) -> Result<AttemptOutcome, String> {
    match c {
        0 => Ok(AttemptOutcome::Completed),
        1 => Ok(AttemptOutcome::Crashed),
        2 => Ok(AttemptOutcome::ServerLost),
        3 => Ok(AttemptOutcome::Superseded),
        b => Err(format!("bad outcome code {b}")),
    }
}

fn enc_timings(buf: &mut Vec<u8>, t: &StepTimings) {
    put_f64(buf, t.setup);
    put_f64(buf, t.read);
    put_f64(buf, t.compute);
    put_f64(buf, t.write);
}

fn dec_timings(d: &mut Dec<'_>) -> Result<StepTimings, String> {
    Ok(StepTimings {
        setup: d.f64()?,
        read: d.f64()?,
        compute: d.f64()?,
        write: d.f64()?,
    })
}

fn enc_stats(buf: &mut Vec<u8>, s: &FaultStats) {
    put_u32(buf, s.extra_attempts);
    put_f64(buf, s.wasted_gb_s);
    put_f64(buf, s.recovery_delay_s);
    put_u32(buf, s.server_failures);
    put_u32(buf, s.rescheduled_stages);
    put_u32(buf, s.speculative_copies);
    put_u32(buf, s.object_losses);
    put_u32(buf, s.object_corruptions);
    put_u32(buf, s.lineage_reexecs);
    put_u64(buf, s.storage_retries);
}

fn dec_stats(d: &mut Dec<'_>) -> Result<FaultStats, String> {
    Ok(FaultStats {
        extra_attempts: d.u32()?,
        wasted_gb_s: d.f64()?,
        recovery_delay_s: d.f64()?,
        server_failures: d.u32()?,
        rescheduled_stages: d.u32()?,
        speculative_copies: d.u32()?,
        object_losses: d.u32()?,
        object_corruptions: d.u32()?,
        lineage_reexecs: d.u32()?,
        storage_retries: d.u64()?,
    })
}

fn enc_metrics(buf: &mut Vec<u8>, m: &JobMetrics) {
    put_f64(buf, m.jct);
    put_f64(buf, m.compute_cost);
    put_f64(buf, m.storage_cost);
    enc_stats(buf, &m.faults);
}

fn dec_metrics(d: &mut Dec<'_>) -> Result<JobMetrics, String> {
    Ok(JobMetrics {
        jct: d.f64()?,
        compute_cost: d.f64()?,
        storage_cost: d.f64()?,
        faults: dec_stats(d)?,
    })
}

fn enc_attempt(buf: &mut Vec<u8>, a: &AttemptRecord) {
    put_u32(buf, a.stage);
    put_u32(buf, a.task);
    put_u32(buf, a.attempt);
    put_u32(buf, a.server.0);
    put_f64(buf, a.start);
    put_f64(buf, a.end);
    put_u8(buf, outcome_code(a.outcome));
    put_f64(buf, a.wasted_gb_s);
    put_bool(buf, a.speculative);
}

fn dec_attempt(d: &mut Dec<'_>) -> Result<AttemptRecord, String> {
    Ok(AttemptRecord {
        stage: d.u32()?,
        task: d.u32()?,
        attempt: d.u32()?,
        server: ServerId(d.u32()?),
        start: d.f64()?,
        end: d.f64()?,
        outcome: outcome_from_code(d.u8()?)?,
        wasted_gb_s: d.f64()?,
        speculative: d.boolean()?,
    })
}

fn enc_task(buf: &mut Vec<u8>, t: &TaskTrace) {
    put_u32(buf, t.stage);
    put_u32(buf, t.task);
    put_u32(buf, t.server.0);
    put_f64(buf, t.launch);
    put_f64(buf, t.read_start);
    put_f64(buf, t.compute_start);
    put_f64(buf, t.write_start);
    put_f64(buf, t.end);
    put_f64(buf, t.memory_gb);
}

fn dec_task(d: &mut Dec<'_>) -> Result<TaskTrace, String> {
    Ok(TaskTrace {
        stage: d.u32()?,
        task: d.u32()?,
        server: ServerId(d.u32()?),
        launch: d.f64()?,
        read_start: d.f64()?,
        compute_start: d.f64()?,
        write_start: d.f64()?,
        end: d.f64()?,
        memory_gb: d.f64()?,
    })
}

fn enc_lineage(buf: &mut Vec<u8>, h: &LineageHit) {
    put_u32(buf, h.reader_stage);
    put_u32(buf, h.src_stage);
    put_u32(buf, h.src_task);
    put_bool(buf, h.corrupt);
    put_f64(buf, h.detect_at);
    put_f64(buf, h.reexec_s);
}

fn dec_lineage(d: &mut Dec<'_>) -> Result<LineageHit, String> {
    Ok(LineageHit {
        reader_stage: d.u32()?,
        src_stage: d.u32()?,
        src_task: d.u32()?,
        corrupt: d.boolean()?,
        detect_at: d.f64()?,
        reexec_s: d.f64()?,
    })
}

/// Encode a [`Schedule`] (also the `ScheduleCommit` fingerprint domain).
fn enc_schedule(buf: &mut Vec<u8>, s: &Schedule) {
    put_str(buf, &s.scheduler);
    put_u32(buf, s.dop.len() as u32);
    for &d in &s.dop {
        put_u32(buf, d);
    }
    put_u32(buf, s.groups.len() as u32);
    for g in &s.groups {
        put_u32(buf, g.len() as u32);
        for &st in g {
            put_u32(buf, st.0);
        }
    }
    put_u32(buf, s.group_of.len() as u32);
    for &g in &s.group_of {
        put_u32(buf, g as u32);
    }
    put_u32(buf, s.colocated.len() as u32);
    for &c in &s.colocated {
        put_bool(buf, c);
    }
    put_u32(buf, s.placement.len() as u32);
    for p in &s.placement {
        match p {
            TaskPlacement::Single(srv) => {
                put_u8(buf, 0);
                put_u32(buf, srv.0);
            }
            TaskPlacement::Spread(parts) => {
                put_u8(buf, 1);
                put_u32(buf, parts.len() as u32);
                for &(srv, count) in parts {
                    put_u32(buf, srv.0);
                    put_u32(buf, count);
                }
            }
        }
    }
}

fn dec_schedule(d: &mut Dec<'_>) -> Result<Schedule, String> {
    let scheduler = d.string()?;
    let dop = (0..d.u32()?).map(|_| d.u32()).collect::<Result<_, _>>()?;
    let n_groups = d.u32()?;
    let mut groups = Vec::with_capacity(d.capacity(n_groups, 4));
    for _ in 0..n_groups {
        let len = d.u32()?;
        let mut g = Vec::with_capacity(d.capacity(len, 4));
        for _ in 0..len {
            g.push(StageId(d.u32()?));
        }
        groups.push(g);
    }
    let group_of = (0..d.u32()?)
        .map(|_| d.u32().map(|v| v as usize))
        .collect::<Result<_, _>>()?;
    let colocated = (0..d.u32()?).map(|_| d.boolean()).collect::<Result<_, _>>()?;
    let n_place = d.u32()?;
    let mut placement = Vec::with_capacity(d.capacity(n_place, 5));
    for _ in 0..n_place {
        placement.push(match d.u8()? {
            0 => TaskPlacement::Single(ServerId(d.u32()?)),
            1 => {
                let len = d.u32()?;
                let mut parts = Vec::with_capacity(d.capacity(len, 8));
                for _ in 0..len {
                    parts.push((ServerId(d.u32()?), d.u32()?));
                }
                TaskPlacement::Spread(parts)
            }
            b => return Err(format!("bad placement tag {b}")),
        });
    }
    Ok(Schedule {
        scheduler,
        dop,
        groups,
        group_of,
        colocated,
        placement,
    })
}

/// The `ScheduleCommit` fingerprint of a schedule.
pub fn schedule_fingerprint(s: &Schedule) -> u64 {
    let mut buf = Vec::new();
    enc_schedule(&mut buf, s);
    checksum64(&buf, SCHEDULE_FP_SEED)
}

fn trigger_code(t: ReplanTrigger) -> u8 {
    match t {
        ReplanTrigger::Drift => 0,
        ReplanTrigger::ObjectRecovery => 1,
    }
}

fn trigger_from_code(c: u8) -> Result<ReplanTrigger, String> {
    match c {
        0 => Ok(ReplanTrigger::Drift),
        1 => Ok(ReplanTrigger::ObjectRecovery),
        b => Err(format!("bad replan trigger {b}")),
    }
}

fn enc_replan(buf: &mut Vec<u8>, r: &ReplanRecord) {
    put_u8(buf, trigger_code(r.trigger));
    put_u32(buf, r.at_stage);
    put_f64(buf, r.sim_time);
    put_f64(buf, r.factor);
    put_f64(buf, r.corrections.read);
    put_f64(buf, r.corrections.compute);
    put_f64(buf, r.corrections.write);
    put_u32(buf, r.suffix_stages);
    put_f64(buf, r.old_predicted_jct);
    put_f64(buf, r.new_predicted_jct);
    put_f64(buf, r.risk_penalty);
    put_bool(buf, r.audit_clean);
    put_bool(buf, r.applied);
    put_u64(buf, r.decision_seq);
}

fn dec_replan(d: &mut Dec<'_>) -> Result<ReplanRecord, String> {
    Ok(ReplanRecord {
        trigger: trigger_from_code(d.u8()?)?,
        at_stage: d.u32()?,
        sim_time: d.f64()?,
        factor: d.f64()?,
        corrections: StepCorrections {
            read: d.f64()?,
            compute: d.f64()?,
            write: d.f64()?,
        },
        suffix_stages: d.u32()?,
        old_predicted_jct: d.f64()?,
        new_predicted_jct: d.f64()?,
        risk_penalty: d.f64()?,
        audit_clean: d.boolean()?,
        applied: d.boolean()?,
        decision_seq: d.u64()?,
    })
}

fn enc_bools(buf: &mut Vec<u8>, v: &[bool]) {
    put_u32(buf, v.len() as u32);
    for &b in v {
        put_bool(buf, b);
    }
}

fn dec_bools(d: &mut Dec<'_>) -> Result<Vec<bool>, String> {
    (0..d.u32()?).map(|_| d.boolean()).collect()
}

fn enc_checkpoint(buf: &mut Vec<u8>, cp: &StageCheckpoint) {
    put_u32(buf, cp.stage);
    put_f64(buf, cp.end);
    put_f64(buf, cp.write_start);
    put_f64(buf, cp.read_end);
    put_f64(buf, cp.launch);
    enc_timings(buf, &cp.observed);
    enc_timings(buf, &cp.clean);
    put_u32(buf, cp.task_clean.len() as u32);
    for &t in &cp.task_clean {
        put_f64(buf, t);
    }
    put_u32(buf, cp.edge_medium.len() as u32);
    buf.extend_from_slice(&cp.edge_medium);
    put_u32(buf, cp.heal_end.len() as u32);
    for &(s, t, h) in &cp.heal_end {
        put_u32(buf, s);
        put_u32(buf, t);
        put_f64(buf, h);
    }
    put_u32(buf, cp.buckets.len() as u32);
    for b in &cp.buckets {
        enc_stats(buf, b);
    }
    put_u32(buf, cp.lineage.len() as u32);
    for h in &cp.lineage {
        enc_lineage(buf, h);
    }
    put_u32(buf, cp.tasks.len() as u32);
    for t in &cp.tasks {
        enc_task(buf, t);
    }
    put_u32(buf, cp.attempts.len() as u32);
    for a in &cp.attempts {
        enc_attempt(buf, a);
    }
}

fn dec_checkpoint(d: &mut Dec<'_>) -> Result<StageCheckpoint, String> {
    let stage = d.u32()?;
    let end = d.f64()?;
    let write_start = d.f64()?;
    let read_end = d.f64()?;
    let launch = d.f64()?;
    let observed = dec_timings(d)?;
    let clean = dec_timings(d)?;
    let task_clean = (0..d.u32()?).map(|_| d.f64()).collect::<Result<_, _>>()?;
    let n_media = d.u32()? as usize;
    let edge_medium = d.bytes(n_media)?.to_vec();
    for &c in &edge_medium {
        medium_from_code(c)?;
    }
    let n_heal = d.u32()?;
    let mut heal_end = Vec::with_capacity(d.capacity(n_heal, 16));
    for _ in 0..n_heal {
        heal_end.push((d.u32()?, d.u32()?, d.f64()?));
    }
    let buckets = (0..d.u32()?).map(|_| dec_stats(d)).collect::<Result<_, _>>()?;
    let lineage = (0..d.u32()?).map(|_| dec_lineage(d)).collect::<Result<_, _>>()?;
    let tasks = (0..d.u32()?).map(|_| dec_task(d)).collect::<Result<_, _>>()?;
    let attempts = (0..d.u32()?).map(|_| dec_attempt(d)).collect::<Result<_, _>>()?;
    Ok(StageCheckpoint {
        stage,
        end,
        write_start,
        read_end,
        launch,
        observed,
        clean,
        task_clean,
        edge_medium,
        heal_end,
        buckets,
        lineage,
        tasks,
        attempts,
    })
}

// ---------------------------------------------------------------------
// Record codec + framing
// ---------------------------------------------------------------------

/// Encode one record's frame payload (tag byte + fields).
pub fn encode_record(rec: &JournalRecord) -> Vec<u8> {
    let mut buf = Vec::new();
    match rec {
        JournalRecord::JobAdmit {
            stages,
            edges,
            engine,
            scheduler,
        } => {
            put_u8(&mut buf, 1);
            put_u32(&mut buf, *stages);
            put_u32(&mut buf, *edges);
            put_u8(&mut buf, engine.to_u8());
            put_str(&mut buf, scheduler);
        }
        JournalRecord::ScheduleCommit {
            decision_seq,
            schedule_fp,
        } => {
            put_u8(&mut buf, 2);
            put_u64(&mut buf, *decision_seq);
            put_u64(&mut buf, *schedule_fp);
        }
        JournalRecord::ObjectCommit {
            stage,
            task,
            attempt_epoch,
            value,
        } => {
            put_u8(&mut buf, 3);
            put_u32(&mut buf, *stage);
            put_u32(&mut buf, *task);
            put_u32(&mut buf, *attempt_epoch);
            put_u64(&mut buf, *value);
        }
        JournalRecord::StageComplete(cp) => {
            put_u8(&mut buf, 4);
            enc_checkpoint(&mut buf, cp);
        }
        JournalRecord::Replan {
            record,
            suffix,
            schedule,
        } => {
            put_u8(&mut buf, 5);
            enc_replan(&mut buf, record);
            enc_bools(&mut buf, suffix);
            match schedule {
                None => put_u8(&mut buf, 0),
                Some(s) => {
                    put_u8(&mut buf, 1);
                    enc_schedule(&mut buf, s);
                }
            }
        }
        JournalRecord::Failover {
            decision_seq,
            failed_server,
            at_time,
            suffix,
            schedule,
        } => {
            put_u8(&mut buf, 6);
            put_u64(&mut buf, *decision_seq);
            put_u32(&mut buf, *failed_server);
            put_f64(&mut buf, *at_time);
            enc_bools(&mut buf, suffix);
            enc_schedule(&mut buf, schedule);
        }
        JournalRecord::TaskAttempt {
            stage,
            task,
            attempt,
            outcome,
            start,
            end,
        } => {
            put_u8(&mut buf, 7);
            put_u32(&mut buf, *stage);
            put_u32(&mut buf, *task);
            put_u32(&mut buf, *attempt);
            put_u8(&mut buf, *outcome);
            put_f64(&mut buf, *start);
            put_f64(&mut buf, *end);
        }
        JournalRecord::JobComplete { metrics } => {
            put_u8(&mut buf, 8);
            enc_metrics(&mut buf, metrics);
        }
        JournalRecord::Snapshot(inner) => {
            put_u8(&mut buf, 9);
            put_u32(&mut buf, inner.len() as u32);
            for rec in inner {
                let payload = encode_record(rec);
                put_u32(&mut buf, payload.len() as u32);
                buf.extend_from_slice(&payload);
            }
        }
    }
    buf
}

/// Decode one frame payload back into a record. Errors (including
/// trailing garbage after a well-formed record) mean an encoder bug or
/// memory corruption *inside* a CRC-valid frame — callers treat that as a
/// hard journal error, not a torn tail.
pub fn decode_record(payload: &[u8]) -> Result<JournalRecord, String> {
    let mut d = Dec::new(payload);
    let rec = decode_record_inner(&mut d)?;
    if !d.finished() {
        return Err(format!(
            "{} trailing bytes after record",
            payload.len() - d.pos
        ));
    }
    Ok(rec)
}

fn decode_record_inner(d: &mut Dec<'_>) -> Result<JournalRecord, String> {
    match d.u8()? {
        1 => Ok(JournalRecord::JobAdmit {
            stages: d.u32()?,
            edges: d.u32()?,
            engine: EngineKind::from_u8(d.u8()?)?,
            scheduler: d.string()?,
        }),
        2 => Ok(JournalRecord::ScheduleCommit {
            decision_seq: d.u64()?,
            schedule_fp: d.u64()?,
        }),
        3 => Ok(JournalRecord::ObjectCommit {
            stage: d.u32()?,
            task: d.u32()?,
            attempt_epoch: d.u32()?,
            value: d.u64()?,
        }),
        4 => Ok(JournalRecord::StageComplete(Box::new(dec_checkpoint(d)?))),
        5 => {
            let record = dec_replan(d)?;
            let suffix = dec_bools(d)?;
            let schedule = match d.u8()? {
                0 => None,
                1 => Some(dec_schedule(d)?),
                b => return Err(format!("bad option tag {b}")),
            };
            Ok(JournalRecord::Replan {
                record,
                suffix,
                schedule,
            })
        }
        6 => Ok(JournalRecord::Failover {
            decision_seq: d.u64()?,
            failed_server: d.u32()?,
            at_time: d.f64()?,
            suffix: dec_bools(d)?,
            schedule: dec_schedule(d)?,
        }),
        7 => Ok(JournalRecord::TaskAttempt {
            stage: d.u32()?,
            task: d.u32()?,
            attempt: d.u32()?,
            outcome: d.u8()?,
            start: d.f64()?,
            end: d.f64()?,
        }),
        8 => Ok(JournalRecord::JobComplete {
            metrics: dec_metrics(d)?,
        }),
        9 => {
            let count = d.u32()?;
            let mut inner = Vec::with_capacity(d.capacity(count, 5));
            for _ in 0..count {
                let len = d.u32()? as usize;
                let raw = d.bytes(len)?;
                inner.push(decode_record(raw)?);
            }
            Ok(JournalRecord::Snapshot(inner))
        }
        b => Err(format!("unknown record tag {b}")),
    }
}

fn frame_into(buf: &mut Vec<u8>, payload: &[u8]) {
    put_u32(buf, payload.len() as u32);
    put_u64(buf, checksum64(payload, JOURNAL_SEED));
    buf.extend_from_slice(payload);
}

/// Decode a journal byte stream: header check, then frames until the end
/// or the first torn/corrupt frame. A bad header is a hard error; a bad
/// *tail* is expected after a crash and reported as [`TornTail`] with the
/// exact record index and durable byte offset.
pub fn decode_journal(bytes: &[u8]) -> Result<DecodedJournal, ExecError> {
    if bytes.len() < JOURNAL_HEADER_LEN || bytes[..8] != JOURNAL_MAGIC {
        return Err(ExecError::Journal("missing DITTOWAL header".into()));
    }
    if bytes[8] != JOURNAL_VERSION {
        return Err(ExecError::Journal(format!(
            "unsupported journal version {}",
            bytes[8]
        )));
    }
    let mut records = Vec::new();
    let mut pos = JOURNAL_HEADER_LEN;
    let mut torn = None;
    while pos < bytes.len() {
        let rem = bytes.len() - pos;
        let tear = |reason| TornTail {
            at_record: records.len() as u64,
            byte_offset: pos,
            reason,
        };
        if rem < 12 {
            torn = Some(tear(TornReason::Truncated));
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if len == 0 || len > MAX_FRAME {
            torn = Some(tear(TornReason::BadLength));
            break;
        }
        if len > rem - 12 {
            torn = Some(tear(TornReason::Truncated));
            break;
        }
        let crc = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
        let payload = &bytes[pos + 12..pos + 12 + len];
        if checksum64(payload, JOURNAL_SEED) != crc {
            torn = Some(tear(TornReason::ChecksumMismatch));
            break;
        }
        let rec = decode_record(payload).map_err(|e| {
            ExecError::Journal(format!("record {} is CRC-valid but malformed: {e}", records.len()))
        })?;
        records.push(rec);
        pos += 12 + len;
    }
    let durable_len = torn.map_or(bytes.len(), |t| t.byte_offset);
    Ok(DecodedJournal {
        records,
        torn,
        durable_len,
    })
}

/// Flatten a record stream: compaction snapshots expand in place.
fn flatten(records: &[JournalRecord]) -> Vec<JournalRecord> {
    let mut out = Vec::with_capacity(records.len());
    for rec in records {
        match rec {
            JournalRecord::Snapshot(inner) => out.extend(inner.iter().cloned()),
            other => out.push(other.clone()),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Validation and cross-checking (`ditto-audit journal`)
// ---------------------------------------------------------------------

/// Structural validation of a decoded record stream. Returns
/// human-readable findings (empty = clean). Checks admission/commit
/// ordering, exactly-once object commits, per-stage completion, and the
/// monotonic decision sequence shared by replans and failovers.
pub fn validate_journal(records: &[JournalRecord]) -> Vec<String> {
    let mut findings = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        if let JournalRecord::Snapshot(inner) = rec {
            if i != 0 {
                findings.push(format!("record {i}: snapshot not at journal head"));
            }
            if inner.iter().any(|r| matches!(r, JournalRecord::Snapshot(_))) {
                findings.push(format!("record {i}: nested snapshot"));
            }
        }
    }
    let flat = flatten(records);
    if flat.is_empty() {
        findings.push("journal holds no records".into());
        return findings;
    }
    if !matches!(flat[0], JournalRecord::JobAdmit { .. }) {
        findings.push("record 0 is not job-admit".into());
    }
    let mut admits = 0u32;
    let mut schedule_commits = 0u32;
    let mut schedule_committed_at: Option<usize> = None;
    let mut commits: BTreeMap<(u32, u32, u32), u64> = BTreeMap::new();
    let mut commits_per_stage: BTreeMap<u32, u32> = BTreeMap::new();
    let mut completed: BTreeMap<u32, (usize, usize)> = BTreeMap::new(); // stage -> (index, tasks)
    let mut last_seq = 0u64;
    let mut complete_at: Option<usize> = None;
    for (i, rec) in flat.iter().enumerate() {
        let needs_schedule = matches!(
            rec,
            JournalRecord::ObjectCommit { .. }
                | JournalRecord::StageComplete(_)
                | JournalRecord::Replan { .. }
                | JournalRecord::Failover { .. }
        );
        if needs_schedule && schedule_committed_at.is_none() {
            findings.push(format!("record {i}: precedes the schedule commit"));
        }
        match rec {
            JournalRecord::JobAdmit { .. } => {
                admits += 1;
                if i != 0 {
                    findings.push(format!("record {i}: duplicate job-admit"));
                }
            }
            JournalRecord::ScheduleCommit { decision_seq, .. } => {
                schedule_commits += 1;
                schedule_committed_at = Some(i);
                if *decision_seq != 0 {
                    findings.push(format!(
                        "record {i}: schedule commit has decision_seq {decision_seq}, expected 0"
                    ));
                }
            }
            JournalRecord::ObjectCommit {
                stage,
                task,
                attempt_epoch,
                value,
            } => {
                if let Some((at, _)) = completed.get(stage) {
                    findings.push(format!(
                        "record {i}: object commit s{stage}.t{task} after its stage completed (record {at})"
                    ));
                }
                match commits.get(&(*stage, *task, *attempt_epoch)) {
                    Some(v) if v == value => findings.push(format!(
                        "record {i}: duplicated object-commit record s{stage}.t{task}@{attempt_epoch}"
                    )),
                    Some(v) => findings.push(format!(
                        "record {i}: conflicting object commit s{stage}.t{task}@{attempt_epoch}: {v:#x} vs {value:#x}"
                    )),
                    None => {
                        commits.insert((*stage, *task, *attempt_epoch), *value);
                        *commits_per_stage.entry(*stage).or_insert(0) += 1;
                    }
                }
            }
            JournalRecord::StageComplete(cp) => {
                if completed.insert(cp.stage, (i, cp.tasks.len())).is_some() {
                    findings.push(format!("record {i}: stage {} completed twice", cp.stage));
                }
            }
            JournalRecord::Replan { record, .. } => {
                if record.decision_seq <= last_seq {
                    findings.push(format!(
                        "record {i}: replan decision_seq {} not above {last_seq}",
                        record.decision_seq
                    ));
                }
                last_seq = last_seq.max(record.decision_seq);
            }
            JournalRecord::Failover { decision_seq, .. } => {
                if *decision_seq <= last_seq {
                    findings.push(format!(
                        "record {i}: failover decision_seq {decision_seq} not above {last_seq}"
                    ));
                }
                last_seq = last_seq.max(*decision_seq);
            }
            JournalRecord::JobComplete { .. } => {
                if complete_at.is_some() {
                    findings.push(format!("record {i}: duplicate job-complete"));
                }
                complete_at = Some(i);
            }
            JournalRecord::TaskAttempt { .. } | JournalRecord::Snapshot(_) => {}
        }
    }
    if admits > 1 {
        findings.push(format!("{admits} job-admit records (expected 1)"));
    }
    if schedule_commits > 1 {
        findings.push(format!("{schedule_commits} schedule commits (expected 1)"));
    }
    if let Some(at) = complete_at {
        if at != flat.len() - 1 {
            findings.push(format!(
                "job-complete at record {at} is not the last record"
            ));
        }
    }
    for (stage, (_, tasks)) in &completed {
        let got = commits_per_stage.get(stage).copied().unwrap_or(0);
        if got as usize != *tasks {
            findings.push(format!(
                "stage {stage}: {got} object commits for {tasks} tasks"
            ));
        }
    }
    findings
}

/// Cross-check a journal against the recovered run's trace: every
/// journaled object commit of a completed stage must have a matching
/// `hb.write` at the committed instant, and the journal's decision
/// sequence must align with the `sched.replan` / `sched.failover` events
/// in emission order. Returns findings (empty = consistent).
pub fn cross_check(records: &[JournalRecord], trace: &TraceData) -> Vec<String> {
    let mut findings = Vec::new();
    let flat = flatten(records);
    let completed: std::collections::BTreeSet<u32> = flat
        .iter()
        .filter_map(|r| match r {
            JournalRecord::StageComplete(cp) => Some(cp.stage),
            _ => None,
        })
        .collect();
    for (i, rec) in flat.iter().enumerate() {
        if let JournalRecord::ObjectCommit {
            stage,
            task,
            value,
            ..
        } = rec
        {
            if !completed.contains(stage) {
                continue; // runner-style commit without sim checkpoint
            }
            let committed = f64::from_bits(*value);
            let hit = trace.events.iter().any(|e| {
                e.name == "hb.write"
                    && event_u64(e, "stage") == Some(*stage as u64)
                    && event_u64(e, "task") == Some(*task as u64)
                    && instants_match(e.ts, committed)
            });
            if !hit {
                findings.push(format!(
                    "record {i}: committed object s{stage}.t{task} has no hb.write at its committed instant"
                ));
            }
        }
    }
    let journal_replans: Vec<u64> = flat
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Replan { record, .. } => Some(record.decision_seq),
            _ => None,
        })
        .collect();
    let trace_replans: Vec<Option<u64>> = trace
        .events
        .iter()
        .filter(|e| e.name == "sched.replan")
        .map(|e| match e.attr("decision_seq") {
            Some(ditto_obs::AttrValue::U64(v)) => Some(*v),
            _ => None,
        })
        .collect();
    align_seqs(&mut findings, "sched.replan", &journal_replans, &trace_replans);
    let journal_failovers: Vec<u64> = flat
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Failover { decision_seq, .. } => Some(*decision_seq),
            _ => None,
        })
        .collect();
    let trace_failovers: Vec<Option<u64>> = trace
        .events
        .iter()
        .filter(|e| e.name == "sched.failover")
        .map(|e| match e.attr("decision_seq") {
            Some(ditto_obs::AttrValue::U64(v)) => Some(*v),
            _ => None,
        })
        .collect();
    align_seqs(
        &mut findings,
        "sched.failover",
        &journal_failovers,
        &trace_failovers,
    );
    findings
}

/// Exact bit equality on a live trace; on a trace re-imported from a
/// Chrome artifact — recognizable because its timestamps are exactly
/// integral microseconds — equality at that quantization. A tampered
/// commit value in a full-precision trace still misses by ulps, so the
/// relaxation never weakens the in-memory cross-check.
fn instants_match(trace_ts: f64, committed: f64) -> bool {
    if trace_ts.to_bits() == committed.to_bits() {
        return true;
    }
    let micros = (trace_ts * 1e6).round();
    (micros / 1e6).to_bits() == trace_ts.to_bits() && micros == (committed * 1e6).round()
}

fn event_u64(e: &ditto_obs::EventRecord, key: &str) -> Option<u64> {
    match e.attr(key) {
        Some(ditto_obs::AttrValue::U64(v)) => Some(*v),
        _ => None,
    }
}

fn align_seqs(findings: &mut Vec<String>, what: &str, journal: &[u64], trace: &[Option<u64>]) {
    if journal.len() != trace.len() {
        findings.push(format!(
            "{what}: journal has {} decisions, trace has {} events",
            journal.len(),
            trace.len()
        ));
        return;
    }
    for (i, (j, t)) in journal.iter().zip(trace).enumerate() {
        match t {
            None => findings.push(format!("{what} event {i}: missing decision_seq attr")),
            Some(t) if t != j => findings.push(format!(
                "{what} event {i}: decision_seq {t} but journal says {j}"
            )),
            _ => {}
        }
    }
}

/// Compact a journal: fold everything up to (and including) the last
/// `StageComplete` into one `Snapshot` record and keep the tail verbatim,
/// bounding replay work without losing any decision. Recovery from the
/// compacted journal is byte-for-byte equivalent to recovery from the
/// full one (`snapshot_tail_recovery_equals_full` pins it). Errors on a
/// torn journal — compact only after clean decode.
pub fn compact_journal(bytes: &[u8]) -> Result<Vec<u8>, ExecError> {
    let decoded = decode_journal(bytes)?;
    if let Some(t) = decoded.torn {
        return Err(ExecError::Journal(format!(
            "cannot compact a torn journal ({} at record {})",
            t.reason.label(),
            t.at_record
        )));
    }
    let flat = flatten(&decoded.records);
    let Some(last_cp) = flat
        .iter()
        .rposition(|r| matches!(r, JournalRecord::StageComplete(_)))
    else {
        return Ok(bytes.to_vec());
    };
    let mut out = Vec::with_capacity(bytes.len());
    out.extend_from_slice(&JOURNAL_MAGIC);
    out.push(JOURNAL_VERSION);
    let snapshot = JournalRecord::Snapshot(flat[..=last_cp].to_vec());
    frame_into(&mut out, &encode_record(&snapshot));
    for rec in &flat[last_cp + 1..] {
        frame_into(&mut out, &encode_record(rec));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Batched crash-armed writer
// ---------------------------------------------------------------------

/// The single batched journal writer both engines append through.
///
/// In-memory durable buffer standing in for an fsync'd file (the crate
/// has no I/O); `crash_at` arms a seeded coordinator crash that kills the
/// append of record `n` half-way through its frame — the torn tail
/// [`decode_journal`] must detect and truncate.
#[derive(Debug)]
pub struct JournalWriter {
    buf: Vec<u8>,
    records_written: u64,
    crash_at: Option<u64>,
}

impl JournalWriter {
    /// Fresh journal (header only), optionally armed to crash at the
    /// `crash_at`-th appended record (0-based).
    pub fn new(crash_at: Option<u64>) -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&JOURNAL_MAGIC);
        buf.push(JOURNAL_VERSION);
        JournalWriter {
            buf,
            records_written: 0,
            crash_at,
        }
    }

    /// Resume appending to a durable prefix of `records` intact records.
    /// Deliberately *not* re-armed: a recovered coordinator crashing at
    /// the same record forever would never finish.
    pub fn from_durable(bytes: Vec<u8>, records: u64) -> Self {
        JournalWriter {
            buf: bytes,
            records_written: records,
            crash_at: None,
        }
    }

    /// Append one record. If the armed crash point is this record, half
    /// of its frame is written (a torn tail) and the append fails with
    /// [`ExecError::CoordinatorCrash`].
    pub fn append(&mut self, rec: &JournalRecord) -> Result<(), ExecError> {
        let payload = encode_record(rec);
        if self.crash_at == Some(self.records_written) {
            let mut frame = Vec::with_capacity(12 + payload.len());
            frame_into(&mut frame, &payload);
            self.buf.extend_from_slice(&frame[..frame.len() / 2]);
            return Err(ExecError::CoordinatorCrash {
                at_record: self.records_written,
            });
        }
        frame_into(&mut self.buf, &payload);
        self.records_written += 1;
        Ok(())
    }

    /// The journal bytes, including any torn tail after a crash.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Records successfully appended (a `Snapshot` counts as one).
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Arm (or re-arm) a crash at appended-record index `at`.
    pub fn arm_crash(&mut self, at: u64) {
        self.crash_at = Some(at);
    }
}

// ---------------------------------------------------------------------
// Journal session: write-ahead on the way out, replay on the way back
// ---------------------------------------------------------------------

/// One job's journal session: wraps the [`JournalWriter`] with the replay
/// state decoded from a durable prefix. A fresh session journals every
/// decision as it happens; a resumed session restores checkpointed
/// stages, deduplicates re-delivered object commits through the
/// [`CommitLedger`], and substitutes journaled replan/failover decisions
/// for the optimizer calls they gate.
#[derive(Debug)]
pub struct JournalSession {
    writer: JournalWriter,
    resumed: bool,
    admit: Option<(u32, u32, EngineKind, String)>,
    schedule_fp: Option<u64>,
    checkpoints: BTreeMap<u32, StageCheckpoint>,
    replans: VecDeque<(ReplanRecord, Vec<bool>, Option<Schedule>)>,
    failover: Option<(u64, u32, f64, Vec<bool>, Schedule)>,
    completed: Option<JobMetrics>,
    ledger: CommitLedger,
    torn: Option<TornTail>,
    deduped: u64,
    restored_stages: u32,
    replayed_commits: u64,
    replay_total: usize,
}

impl JournalSession {
    /// Fresh session (empty journal), optionally armed to crash at
    /// appended-record index `crash_at`.
    pub fn fresh(crash_at: Option<u64>) -> Self {
        JournalSession {
            writer: JournalWriter::new(crash_at),
            resumed: false,
            admit: None,
            schedule_fp: None,
            checkpoints: BTreeMap::new(),
            replans: VecDeque::new(),
            failover: None,
            completed: None,
            ledger: CommitLedger::new(),
            torn: None,
            deduped: 0,
            restored_stages: 0,
            replayed_commits: 0,
            replay_total: 0,
        }
    }

    /// Fresh session armed from the fault plan's seeded
    /// `CoordinatorCrash`, if any.
    pub fn fresh_from_plan(plan: &FaultPlan) -> Self {
        Self::fresh(plan.coordinator_crash())
    }

    /// Resume from journal bytes: decode the durable prefix (truncating
    /// any torn tail), replay object commits into the ledger, and stage
    /// checkpoints / replans / failover for replay. The crash arming is
    /// deliberately *not* restored.
    pub fn resume(bytes: &[u8]) -> Result<Self, ExecError> {
        let decoded = decode_journal(bytes)?;
        let flat = flatten(&decoded.records);
        let mut session = JournalSession {
            writer: JournalWriter::from_durable(
                bytes[..decoded.durable_len].to_vec(),
                decoded.records.len() as u64,
            ),
            resumed: true,
            admit: None,
            schedule_fp: None,
            checkpoints: BTreeMap::new(),
            replans: VecDeque::new(),
            failover: None,
            completed: None,
            ledger: CommitLedger::new(),
            torn: decoded.torn,
            deduped: 0,
            restored_stages: 0,
            replayed_commits: 0,
            replay_total: 0,
        };
        for rec in flat {
            match rec {
                JournalRecord::JobAdmit {
                    stages,
                    edges,
                    engine,
                    scheduler,
                } => session.admit = Some((stages, edges, engine, scheduler)),
                JournalRecord::ScheduleCommit { schedule_fp, .. } => {
                    session.schedule_fp = Some(schedule_fp)
                }
                JournalRecord::ObjectCommit {
                    stage,
                    task,
                    attempt_epoch,
                    value,
                } => {
                    let key = format!("s{stage}.t{task}");
                    match session.ledger.commit(&key, attempt_epoch, value) {
                        CommitOutcome::Committed => session.replayed_commits += 1,
                        CommitOutcome::Duplicate => {}
                        CommitOutcome::Conflict { expected, actual } => {
                            return Err(ExecError::Journal(format!(
                                "journal commits {key}@{attempt_epoch} twice with different values ({expected:#x} vs {actual:#x})"
                            )));
                        }
                    }
                }
                JournalRecord::StageComplete(cp) => {
                    session.checkpoints.insert(cp.stage, *cp);
                }
                JournalRecord::Replan {
                    record,
                    suffix,
                    schedule,
                } => session.replans.push_back((record, suffix, schedule)),
                JournalRecord::Failover {
                    decision_seq,
                    failed_server,
                    at_time,
                    suffix,
                    schedule,
                } => {
                    session.failover =
                        Some((decision_seq, failed_server, at_time, suffix, schedule))
                }
                JournalRecord::JobComplete { metrics } => session.completed = Some(metrics),
                JournalRecord::TaskAttempt { .. } | JournalRecord::Snapshot(_) => {}
            }
        }
        session.replay_total = session.replans.len();
        Ok(session)
    }

    /// The journal bytes as durable so far (torn tail included on a fresh
    /// crashed session; truncated to the durable prefix on resume).
    pub fn durable_bytes(&self) -> &[u8] {
        self.writer.bytes()
    }

    /// Records successfully appended to the journal.
    pub fn records_written(&self) -> u64 {
        self.writer.records_written()
    }

    /// Re-delivered object commits deduplicated during re-execution.
    pub fn deduped(&self) -> u64 {
        self.deduped
    }

    /// Stages restored from checkpoints instead of re-simulated.
    pub fn restored_stages(&self) -> u32 {
        self.restored_stages
    }

    /// Torn-tail provenance of the resumed journal, if any.
    pub fn torn(&self) -> Option<TornTail> {
        self.torn
    }

    /// Object commits replayed from the durable prefix on resume.
    pub fn replayed_commits(&self) -> u64 {
        self.replayed_commits
    }

    /// Arm a coordinator crash at appended-record index `at` (tests use
    /// this to exercise double crashes on a resumed session).
    pub fn arm_crash(&mut self, at: u64) {
        self.writer.arm_crash(at);
    }

    /// Open (or verify) the job: journals `JobAdmit` + `ScheduleCommit`
    /// on a fresh session, verifies DAG shape / engine / schedule
    /// fingerprint against the journal on a resumed one, and announces
    /// the resume on the scheduler track. Call once per run, before any
    /// stage executes.
    pub fn begin(
        &mut self,
        stages: u32,
        edges: u32,
        engine: EngineKind,
        schedule: &Schedule,
        obs: &Recorder,
    ) -> Result<(), ExecError> {
        match &self.admit {
            Some((s0, e0, k0, name)) => {
                if *s0 != stages || *e0 != edges || *k0 != engine || name != &schedule.scheduler {
                    return Err(ExecError::Journal(format!(
                        "journal admitted a different job: {} stages / {} edges / {} engine / scheduler {:?}, resume offered {} / {} / {} / {:?}",
                        s0, e0, k0.label(), name, stages, edges, engine.label(), schedule.scheduler
                    )));
                }
            }
            None => {
                self.writer.append(&JournalRecord::JobAdmit {
                    stages,
                    edges,
                    engine,
                    scheduler: schedule.scheduler.clone(),
                })?;
                self.admit = Some((stages, edges, engine, schedule.scheduler.clone()));
            }
        }
        let fp = schedule_fingerprint(schedule);
        match self.schedule_fp {
            Some(stored) if stored != fp => {
                return Err(ExecError::Journal(format!(
                    "schedule fingerprint mismatch: journal committed {stored:#018x}, resume offered {fp:#018x}"
                )));
            }
            Some(_) => {}
            None => {
                self.writer.append(&JournalRecord::ScheduleCommit {
                    decision_seq: 0,
                    schedule_fp: fp,
                })?;
                self.schedule_fp = Some(fp);
            }
        }
        if self.resumed && obs.is_enabled() {
            obs.event(
                "recovery.resume",
                Track::scheduler(0),
                0.0,
                vec![
                    ("resumed_stages", (self.checkpoints.len() as u64).into()),
                    ("replayed_commits", self.replayed_commits.into()),
                    ("replayed_replans", (self.replay_total as u64).into()),
                    ("torn", (self.torn.is_some() as u64).into()),
                    ("torn_at", self.torn.map_or(0, |t| t.at_record).into()),
                ],
            );
        }
        Ok(())
    }

    /// If stage `s` has a journaled checkpoint, restore it into `state`
    /// wholesale (timeline gates, fault buckets, edge media, heal map,
    /// trace rows), re-emit its telemetry, and return `true`; otherwise
    /// return `false` and the caller re-simulates.
    pub(crate) fn try_restore(
        &mut self,
        s: StageId,
        state: &mut SimState,
        dag: &JobDag,
        gt: &GroundTruth,
        obs: &Recorder,
    ) -> bool {
        let Some(cp) = self.checkpoints.remove(&s.0) else {
            return false;
        };
        let i = s.index();
        state.stage_end[i] = cp.end;
        state.stage_write_start[i] = cp.write_start;
        state.stage_read_end[i] = cp.read_end;
        state.stage_launch[i] = cp.launch;
        state.stage_observed[i] = cp.observed;
        state.stage_clean[i] = cp.clean;
        state.task_clean_time[i] = cp.task_clean.clone();
        state.edge_medium = cp
            .edge_medium
            .iter()
            .map(|&c| medium_from_code(c).unwrap_or(None))
            .collect();
        state.heal_end = cp.heal_end.iter().map(|&(a, b, h)| ((a, b), h)).collect();
        state.stage_stats = cp.buckets.clone();
        state.lineage_log.extend(cp.lineage.iter().copied());
        self.emit_restored_stage(obs, dag, s, &cp, state, gt.config().external);
        state.trace.tasks.extend(cp.tasks.iter().cloned());
        state.trace.attempts.extend(cp.attempts.iter().cloned());
        self.restored_stages += 1;
        true
    }

    /// Re-emit a restored stage's telemetry: its lineage recoveries, then
    /// what `sim_stage` emits for it ([`emit_stage`]).
    fn emit_restored_stage(
        &self,
        obs: &Recorder,
        dag: &JobDag,
        s: StageId,
        cp: &StageCheckpoint,
        state: &SimState,
        external: Medium,
    ) {
        if !obs.is_enabled() {
            return;
        }
        for h in &cp.lineage {
            let name = if h.corrupt {
                "fault.object_corrupt"
            } else {
                "fault.object_lost"
            };
            obs.event(
                name,
                Track::storage(),
                h.detect_at,
                vec![
                    ("stage", h.src_stage.into()),
                    ("task", h.src_task.into()),
                    ("reader_stage", h.reader_stage.into()),
                ],
            );
            obs.event(
                "recovery.lineage_reexec",
                Track::storage(),
                h.detect_at + h.reexec_s,
                vec![
                    ("stage", h.src_stage.into()),
                    ("task", h.src_task.into()),
                    ("reexec_s", h.reexec_s.into()),
                ],
            );
        }
        emit_stage(obs, dag, state, s, &cp.tasks, &cp.attempts, external);
    }

    /// Journal a just-simulated stage: one exactly-once `ObjectCommit`
    /// per task (re-deliveries against the ledger are deduplicated, value
    /// conflicts are hard errors) followed by its `StageComplete`
    /// checkpoint. Write-ahead: appends happen before the engine
    /// proceeds, so a crash can tear at any decision boundary.
    pub(crate) fn record_stage(
        &mut self,
        s: StageId,
        state: &SimState,
        _dag: &JobDag,
    ) -> Result<(), ExecError> {
        let tasks: Vec<TaskTrace> = state
            .trace
            .tasks
            .iter()
            .filter(|t| t.stage == s.0)
            .cloned()
            .collect();
        let attempts: Vec<AttemptRecord> = state
            .trace
            .attempts
            .iter()
            .filter(|a| a.stage == s.0)
            .copied()
            .collect();
        for tt in &tasks {
            let epoch = attempts
                .iter()
                .filter(|a| a.task == tt.task && a.outcome == AttemptOutcome::Completed)
                .map(|a| a.attempt)
                .next_back()
                .unwrap_or(0);
            let value = tt.end.to_bits();
            let key = format!("s{}.t{}", s.0, tt.task);
            match self.ledger.commit(&key, epoch, value) {
                CommitOutcome::Committed => {
                    self.writer.append(&JournalRecord::ObjectCommit {
                        stage: s.0,
                        task: tt.task,
                        attempt_epoch: epoch,
                        value,
                    })?;
                }
                CommitOutcome::Duplicate => self.deduped += 1,
                CommitOutcome::Conflict { expected, actual } => {
                    return Err(ExecError::Journal(format!(
                        "re-executed {key}@{epoch} produced {actual:#x}, journal committed {expected:#x}"
                    )));
                }
            }
        }
        let i = s.index();
        let cp = StageCheckpoint {
            stage: s.0,
            end: state.stage_end[i],
            write_start: state.stage_write_start[i],
            read_end: state.stage_read_end[i],
            launch: state.stage_launch[i],
            observed: state.stage_observed[i],
            clean: state.stage_clean[i],
            task_clean: state.task_clean_time[i].clone(),
            edge_medium: state.edge_medium.iter().map(|&m| medium_code(m)).collect(),
            heal_end: state
                .heal_end
                .iter()
                .map(|(&(a, b), &h)| (a, b, h))
                .collect(),
            buckets: state.stage_stats.clone(),
            lineage: state
                .lineage_log
                .iter()
                .filter(|h| h.reader_stage == s.0)
                .copied()
                .collect(),
            tasks,
            attempts,
        };
        self.writer
            .append(&JournalRecord::StageComplete(Box::new(cp)))
    }

    /// Journal one *physical* task's outcome (the runner engine): its
    /// faulted-attempt history plus the object commit of its output
    /// checksum, deduplicated through the ledger. Returns whether the
    /// commit was fresh — `false` means the durable journal already holds
    /// this task's output (re-execution after a crash) and nothing was
    /// appended. A same-epoch commit with a different checksum is a hard
    /// exactly-once violation.
    pub fn record_physical_task(
        &mut self,
        stage: u32,
        task: u32,
        attempt_epoch: u32,
        value: u64,
        attempts: &[AttemptRecord],
    ) -> Result<bool, ExecError> {
        let key = format!("s{stage}.t{task}");
        match self.ledger.commit(&key, attempt_epoch, value) {
            CommitOutcome::Duplicate => {
                self.deduped += 1;
                return Ok(false);
            }
            CommitOutcome::Conflict { expected, actual } => {
                return Err(ExecError::Journal(format!(
                    "re-executed {key}@{attempt_epoch} produced {actual:#x}, journal committed {expected:#x}"
                )));
            }
            CommitOutcome::Committed => {}
        }
        for a in attempts.iter().filter(|a| a.stage == stage && a.task == task) {
            self.writer.append(&JournalRecord::TaskAttempt {
                stage,
                task,
                attempt: a.attempt,
                outcome: outcome_code(a.outcome),
                start: a.start,
                end: a.end,
            })?;
        }
        self.writer.append(&JournalRecord::ObjectCommit {
            stage,
            task,
            attempt_epoch,
            value,
        })?;
        Ok(true)
    }

    /// If the front of the replay queue is a replan decided at exactly
    /// this `(stage, bit-exact sim time)` decision point, pop and return
    /// it for substitution.
    pub(crate) fn next_replan_for(
        &mut self,
        at_stage: u32,
        now: f64,
    ) -> Option<(ReplanRecord, Vec<bool>, Option<Schedule>)> {
        let front = self.replans.front()?;
        if front.0.at_stage == at_stage && front.0.sim_time.to_bits() == now.to_bits() {
            self.replans.pop_front()
        } else {
            None
        }
    }

    /// Journal a live replan decision. Erroring while journaled replans
    /// remain unreplayed means the resumed run diverged from the journal.
    pub(crate) fn append_replan(
        &mut self,
        record: &ReplanRecord,
        suffix: &[bool],
        schedule: Option<&Schedule>,
    ) -> Result<(), ExecError> {
        if !self.replans.is_empty() {
            return Err(ExecError::Journal(format!(
                "resumed run diverged: new replan at stage {} while {} journaled replans remain unreplayed",
                record.at_stage,
                self.replans.len()
            )));
        }
        self.writer.append(&JournalRecord::Replan {
            record: *record,
            suffix: suffix.to_vec(),
            schedule: schedule.cloned(),
        })
    }

    /// Take the journaled failover decision for replay, if any.
    pub(crate) fn take_failover(&mut self) -> Option<(u64, u32, f64, Vec<bool>, Schedule)> {
        self.failover.take()
    }

    /// Journal a live failover decision (frozen engine).
    pub(crate) fn append_failover(
        &mut self,
        decision_seq: u64,
        failed_server: u32,
        at_time: f64,
        suffix: Vec<bool>,
        schedule: Schedule,
    ) -> Result<(), ExecError> {
        if self.failover.is_some() {
            return Err(ExecError::Journal(
                "resumed run diverged: live failover while a journaled one is unreplayed".into(),
            ));
        }
        self.writer.append(&JournalRecord::Failover {
            decision_seq,
            failed_server,
            at_time,
            suffix,
            schedule,
        })
    }

    /// Close the job: journals `JobComplete` on a fresh run; on a resumed
    /// run that already completed, verifies the recomputed metrics equal
    /// the journaled ones bit for bit.
    pub fn finish(&mut self, metrics: &JobMetrics) -> Result<(), ExecError> {
        if let Some(done) = self.completed {
            if done != *metrics {
                return Err(ExecError::Journal(
                    "recovered final metrics differ from the journaled job-complete record".into(),
                ));
            }
            return Ok(());
        }
        self.writer
            .append(&JournalRecord::JobComplete { metrics: *metrics })?;
        self.completed = Some(*metrics);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Recovery surface
// ---------------------------------------------------------------------

/// What [`recover`] rebuilt from a journal: resume the job by handing
/// `session` back to [`crate::run`] as its journal, with a
/// [`crate::Replan`] of the matching engine.
#[derive(Debug)]
pub struct ResumedJob {
    /// Engine that wrote the journal (resume with the same one).
    pub engine: EngineKind,
    /// DAG stage count recorded at admission.
    pub stages: u32,
    /// Stages with durable checkpoints (restored, not re-simulated).
    pub completed_stages: Vec<u32>,
    /// Journaled replan decisions staged for replay.
    pub replans_recorded: u64,
    /// Whether a journaled failover decision is staged for replay.
    pub has_failover: bool,
    /// Whether the job already completed (recovery is then a no-op
    /// verification run).
    pub finished: bool,
    /// Torn-tail provenance, if the journal ended mid-frame.
    pub torn: Option<TornTail>,
    /// The resumed session to drive the journaled engine with.
    pub session: JournalSession,
}

/// Rebuild engine state from journal bytes. Fails on a journal without a
/// durable job-admit record (nothing to resume).
pub fn recover(journal: &[u8]) -> Result<ResumedJob, ExecError> {
    let session = JournalSession::resume(journal)?;
    let Some((stages, _, engine, _)) = session.admit.clone() else {
        return Err(ExecError::Journal(
            "journal has no durable job-admit record".into(),
        ));
    };
    Ok(ResumedJob {
        engine,
        stages,
        completed_stages: session.checkpoints.keys().copied().collect(),
        replans_recorded: session.replay_total as u64,
        has_failover: session.failover.is_some(),
        finished: session.completed.is_some(),
        torn: session.torn(),
        session,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveConfig;
    use crate::faults::{RecoveryPolicy, ReschedulingContext};
    use crate::groundtruth::ExecConfig;
    use crate::sim::{run, Replan, RunSpec};
    use crate::trace::ExecutionTrace;
    use ditto_cluster::ResourceManager;
    use ditto_core::{DittoScheduler, JointOptions, Objective, Scheduler, SchedulingContext};
    use ditto_timemodel::model::RateConfig;
    use ditto_timemodel::JobTimeModel;

    fn fixture(
        free: &[u32],
    ) -> (
        JobDag,
        JobTimeModel,
        ResourceManager,
        Schedule,
        GroundTruth,
    ) {
        let dag = ditto_dag::generators::q95_shape();
        let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
        let rm = ResourceManager::from_free_slots(free.to_vec());
        let schedule = DittoScheduler::new().schedule(&SchedulingContext {
            dag: &dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        });
        (dag, model, rm, schedule, GroundTruth::new(ExecConfig::default()))
    }

    fn ctx<'a>(model: &'a JobTimeModel, rm: &'a ResourceManager) -> ReschedulingContext<'a> {
        ReschedulingContext {
            model,
            resources: rm,
            objective: Objective::Jct,
            options: JointOptions::default(),
        }
    }

    fn sample_checkpoint() -> StageCheckpoint {
        StageCheckpoint {
            stage: 3,
            end: 12.5,
            write_start: 10.0,
            read_end: 4.5,
            launch: 1.25,
            observed: StepTimings {
                setup: 0.5,
                read: 1.0,
                compute: 2.0,
                write: 0.75,
            },
            clean: StepTimings {
                setup: 0.5,
                read: 0.9,
                compute: 1.8,
                write: 0.7,
            },
            task_clean: vec![3.0, 3.5],
            edge_medium: vec![0, 2, 255],
            heal_end: vec![(1, 0, 9.5)],
            buckets: vec![FaultStats::default(); 4],
            lineage: vec![LineageHit {
                reader_stage: 3,
                src_stage: 1,
                src_task: 0,
                corrupt: true,
                detect_at: 4.0,
                reexec_s: 1.5,
            }],
            tasks: vec![TaskTrace {
                stage: 3,
                task: 0,
                server: ServerId(1),
                launch: 1.25,
                read_start: 1.5,
                compute_start: 2.5,
                write_start: 10.0,
                end: 12.5,
                memory_gb: 2.0,
            }],
            attempts: vec![AttemptRecord {
                stage: 3,
                task: 0,
                attempt: 1,
                server: ServerId(1),
                start: 1.25,
                end: 12.5,
                outcome: AttemptOutcome::Completed,
                wasted_gb_s: 0.25,
                speculative: false,
            }],
        }
    }

    fn sample_records(schedule: &Schedule) -> Vec<JournalRecord> {
        vec![
            JournalRecord::JobAdmit {
                stages: 8,
                edges: 7,
                engine: EngineKind::Adaptive,
                scheduler: "ditto".into(),
            },
            JournalRecord::ScheduleCommit {
                decision_seq: 0,
                schedule_fp: schedule_fingerprint(schedule),
            },
            JournalRecord::ObjectCommit {
                stage: 0,
                task: 1,
                attempt_epoch: 2,
                value: 0xDEAD_BEEF,
            },
            JournalRecord::StageComplete(Box::new(sample_checkpoint())),
            JournalRecord::Replan {
                record: ReplanRecord {
                    trigger: ReplanTrigger::Drift,
                    at_stage: 2,
                    sim_time: 7.5,
                    factor: 1.8,
                    corrections: StepCorrections {
                        read: 1.0,
                        compute: 1.9,
                        write: 1.1,
                    },
                    suffix_stages: 3,
                    old_predicted_jct: 20.0,
                    new_predicted_jct: 15.0,
                    risk_penalty: 0.4,
                    audit_clean: true,
                    applied: true,
                    decision_seq: 1,
                },
                suffix: vec![false, false, true, true],
                schedule: Some(schedule.clone()),
            },
            JournalRecord::Failover {
                decision_seq: 2,
                failed_server: 1,
                at_time: 3.25,
                suffix: vec![false, true],
                schedule: schedule.clone(),
            },
            JournalRecord::TaskAttempt {
                stage: 1,
                task: 0,
                attempt: 0,
                outcome: outcome_code(AttemptOutcome::Crashed),
                start: 0.5,
                end: 1.5,
            },
            JournalRecord::JobComplete {
                metrics: JobMetrics {
                    jct: 42.0,
                    compute_cost: 1.5,
                    storage_cost: 0.25,
                    faults: FaultStats::default(),
                },
            },
        ]
    }

    // -- codec ---------------------------------------------------------

    #[test]
    fn record_codec_roundtrips_every_variant() {
        let (_, _, _, schedule, _) = fixture(&[12, 10]);
        let mut records = sample_records(&schedule);
        // A snapshot wrapping everything exercises the nested codec too.
        let snap = JournalRecord::Snapshot(records.clone());
        records.push(snap);
        for rec in &records {
            let bytes = encode_record(rec);
            let back = decode_record(&bytes).expect("roundtrip decode");
            assert_eq!(
                bytes,
                encode_record(&back),
                "re-encode must be byte-identical for {rec:?}"
            );
        }
    }

    #[test]
    fn decoder_rejects_trailing_garbage_and_bad_bool() {
        let rec = JournalRecord::ObjectCommit {
            stage: 0,
            task: 0,
            attempt_epoch: 0,
            value: 1,
        };
        let mut bytes = encode_record(&rec);
        bytes.push(0xAB);
        assert!(
            decode_record(&bytes).is_err(),
            "trailing garbage must be a hard decode error"
        );
        // A bool byte outside {0, 1} is rejected, not coerced.
        let rep = JournalRecord::Replan {
            record: ReplanRecord {
                trigger: ReplanTrigger::Drift,
                at_stage: 0,
                sim_time: 0.0,
                factor: 1.0,
                corrections: StepCorrections {
                    read: 1.0,
                    compute: 1.0,
                    write: 1.0,
                },
                suffix_stages: 1,
                old_predicted_jct: 1.0,
                new_predicted_jct: 1.0,
                risk_penalty: 0.0,
                audit_clean: true,
                applied: false,
                decision_seq: 1,
            },
            suffix: vec![true],
            schedule: None,
        };
        let good = encode_record(&rep);
        for (i, b) in good.iter().enumerate() {
            if *b == 1u8 {
                let mut bad = good.clone();
                bad[i] = 7;
                // Either a decode error or a re-encode difference: a
                // flipped byte can never round-trip silently.
                if let Ok(back) = decode_record(&bad) {
                    assert_ne!(encode_record(&back), good);
                }
            }
        }
    }

    // -- torn-tail classification -------------------------------------

    fn journal_with(records: &[JournalRecord]) -> Vec<u8> {
        let mut w = JournalWriter::new(None);
        for r in records {
            w.append(r).unwrap();
        }
        w.bytes().to_vec()
    }

    #[test]
    fn torn_tail_truncation_classified_with_provenance() {
        let (_, _, _, schedule, _) = fixture(&[12, 10]);
        let records = sample_records(&schedule);
        let full = journal_with(&records);
        let durable = journal_with(&records[..2]);
        // Cut inside the third frame: header-only and mid-payload cuts.
        for cut in [durable.len() + 6, durable.len() + 14] {
            let decoded = decode_journal(&full[..cut]).unwrap();
            assert_eq!(decoded.records.len(), 2);
            let torn = decoded.torn.expect("cut mid-frame is torn");
            assert_eq!(torn.at_record, 2, "provenance is the record index");
            assert_eq!(torn.byte_offset, durable.len(), "durable prefix length");
            assert_eq!(torn.reason, TornReason::Truncated);
            assert_eq!(decoded.durable_len, durable.len());
        }
    }

    #[test]
    fn torn_tail_checksum_mismatch_classified() {
        let (_, _, _, schedule, _) = fixture(&[12, 10]);
        let records = sample_records(&schedule);
        let durable = journal_with(&records[..3]);
        let mut bytes = journal_with(&records[..4]);
        // Flip one byte of the last frame's stored CRC.
        bytes[durable.len() + 4] ^= 0xFF;
        let decoded = decode_journal(&bytes).unwrap();
        assert_eq!(decoded.records.len(), 3);
        let torn = decoded.torn.unwrap();
        assert_eq!(torn.at_record, 3);
        assert_eq!(torn.byte_offset, durable.len());
        assert_eq!(torn.reason, TornReason::ChecksumMismatch);
    }

    #[test]
    fn torn_tail_bad_length_classified() {
        let (_, _, _, schedule, _) = fixture(&[12, 10]);
        let records = sample_records(&schedule);
        let durable = journal_with(&records[..2]);
        for bad_len in [0u32, (MAX_FRAME as u32) + 1] {
            let mut bytes = durable.clone();
            bytes.extend_from_slice(&bad_len.to_le_bytes());
            bytes.extend_from_slice(&[0u8; 16]);
            let decoded = decode_journal(&bytes).unwrap();
            assert_eq!(decoded.records.len(), 2);
            let torn = decoded.torn.unwrap();
            assert_eq!(torn.at_record, 2);
            assert_eq!(torn.byte_offset, durable.len());
            assert_eq!(torn.reason, TornReason::BadLength);
        }
    }

    #[test]
    fn bad_header_is_a_hard_error() {
        assert!(decode_journal(b"NOTAWAL!x").is_err());
        let mut bytes = journal_with(&[]);
        bytes[8] = 99; // unknown version
        assert!(decode_journal(&bytes).is_err());
        assert!(decode_journal(&bytes[..4]).is_err(), "short header");
    }

    #[test]
    fn valid_frame_with_malformed_payload_is_a_hard_error() {
        // CRC-valid garbage payload: the checksum passes, decode must not.
        let mut bytes = journal_with(&[]);
        frame_into(&mut bytes, &[0xFFu8; 5]);
        assert!(matches!(
            decode_journal(&bytes),
            Err(ExecError::Journal(_))
        ));
    }

    // -- forged length prefixes ----------------------------------------

    /// Payloads whose element counts claim far more elements than the
    /// bytes that follow can hold.
    fn forged_payloads() -> Vec<(&'static str, Vec<u8>)> {
        const HUGE: u32 = u32::MAX;
        // A failover record up to its schedule's group count.
        let failover = |tail: &[u32]| {
            let mut p = vec![6];
            put_u64(&mut p, 1);
            put_u32(&mut p, 0);
            put_f64(&mut p, 1.0);
            enc_bools(&mut p, &[]);
            put_str(&mut p, "ditto");
            put_u32(&mut p, 0); // dop
            for &v in tail {
                put_u32(&mut p, v);
            }
            p
        };
        let mut snapshot = vec![9];
        put_u32(&mut snapshot, HUGE);
        let mut checkpoint = vec![4];
        put_u32(&mut checkpoint, 0); // stage
        for _ in 0..12 {
            put_f64(&mut checkpoint, 0.0); // four gates, two timing sets
        }
        put_u32(&mut checkpoint, 0); // task_clean
        put_u32(&mut checkpoint, 0); // edge media
        put_u32(&mut checkpoint, HUGE); // heal_end
        let mut spread = failover(&[0, 0, 0, 1]); // groups, group_of, colocated, placements
        put_u8(&mut spread, 1);
        put_u32(&mut spread, HUGE);
        vec![
            ("snapshot", snapshot),
            ("schedule groups", failover(&[HUGE])),
            ("group members", failover(&[1, HUGE])),
            ("placements", failover(&[0, 0, 0, HUGE])),
            ("spread parts", spread),
            ("checkpoint heal_end", checkpoint),
        ]
    }

    #[test]
    fn forged_length_prefixes_fail_typed() {
        for (what, payload) in forged_payloads() {
            let err = decode_record(&payload).expect_err(what);
            assert!(err.contains("underrun"), "{what}: {err}");
            let mut journal = journal_with(&[]);
            frame_into(&mut journal, &payload);
            assert!(
                matches!(decode_journal(&journal), Err(ExecError::Journal(_))),
                "{what}: a CRC-valid forged frame must be a typed error"
            );
        }
    }

    // -- validate: duplicated frame -----------------------------------

    #[test]
    fn validate_flags_a_duplicated_commit_frame() {
        let (_, _, _, schedule, _) = fixture(&[12, 10]);
        let mut records = sample_records(&schedule)[..3].to_vec();
        records.push(records[2].clone()); // replayed frame: same commit twice
        let bytes = journal_with(&records);
        let decoded = decode_journal(&bytes).unwrap();
        assert!(decoded.torn.is_none(), "a duplicated frame is CRC-valid");
        let findings = validate_journal(&decoded.records);
        assert!(
            findings.iter().any(|f| f.contains("duplicated object-commit")),
            "findings: {findings:?}"
        );
    }

    // -- frozen engine: crash / resume bit-identity -------------------

    fn run_frozen(
        dag: &JobDag,
        schedule: &Schedule,
        gt: &GroundTruth,
        plan: &FaultPlan,
        resched: Option<&ReschedulingContext<'_>>,
        session: &mut JournalSession,
    ) -> Result<(ExecutionTrace, JobMetrics), ExecError> {
        let spec = RunSpec {
            faults: plan.clone(),
            recovery: RecoveryPolicy::default(),
            replan: resched.map_or(Replan::Off, |c| Replan::OnServerFailure(c.clone())),
            journal: Some(session),
            ..RunSpec::default()
        };
        run(dag, schedule, gt, spec)
    }

    #[test]
    fn frozen_crash_resume_is_bit_identical_at_every_record() {
        let (dag, model, rm, schedule, gt) = fixture(&[48; 4]);
        let (_, base) = crate::sim::simulate(&dag, &schedule, &gt);
        let plan = FaultPlan::none()
            .and_object_loss(StageId(0), 1)
            .and_server_failure(ServerId(0), base.jct * 0.3);
        let ctx = ctx(&model, &rm);
        let mut clean = JournalSession::fresh(None);
        let (bt, bm) = run_frozen(&dag, &schedule, &gt, &plan, Some(&ctx), &mut clean).unwrap();
        let total = clean.records_written();
        assert!(total > 4, "journal must hold admission + stages + failover");
        let v = validate_journal(&decode_journal(clean.durable_bytes()).unwrap().records);
        assert!(v.is_empty(), "crash-free journal validates clean: {v:?}");
        // Crash at every journal record index; resume must reproduce the
        // crash-free run bit for bit.
        for k in 0..total {
            let mut armed = JournalSession::fresh(Some(k));
            let err = run_frozen(&dag, &schedule, &gt, &plan, Some(&ctx), &mut armed)
                .expect_err("armed crash must kill the run");
            assert!(
                matches!(err, ExecError::CoordinatorCrash { at_record } if at_record == k),
                "crash point {k}: {err}"
            );
            let mut resumed = JournalSession::resume(armed.durable_bytes()).unwrap();
            assert_eq!(resumed.torn().map(|t| t.at_record), Some(k));
            let (rt, rm2) =
                run_frozen(&dag, &schedule, &gt, &plan, Some(&ctx), &mut resumed).unwrap();
            assert_eq!(rm2, bm, "crash at record {k}: metrics must be bit-identical");
            assert_eq!(rt.tasks, bt.tasks, "crash at record {k}");
            assert_eq!(rt.attempts, bt.attempts, "crash at record {k}");
            let decoded = decode_journal(resumed.durable_bytes()).unwrap();
            assert!(decoded.torn.is_none(), "resumed journal has no torn tail");
            let v = validate_journal(&decoded.records);
            assert!(v.is_empty(), "crash at record {k}: {v:?}");
        }
    }

    #[test]
    fn resume_deduplicates_torn_commit_batches() {
        let (dag, _, _, schedule, gt) = fixture(&[48; 4]);
        let plan = FaultPlan::none();
        let mut clean = JournalSession::fresh(None);
        run_frozen(&dag, &schedule, &gt, &plan, None, &mut clean).unwrap();
        // Find a crash point *inside* a stage's commit batch: right
        // before its StageComplete record.
        let records = decode_journal(clean.durable_bytes()).unwrap().records;
        let cp_at = records
            .iter()
            .position(|r| matches!(r, JournalRecord::StageComplete(_)))
            .expect("a stage checkpoint exists") as u64;
        assert!(cp_at > 2, "commits precede the checkpoint");
        let mut armed = JournalSession::fresh(Some(cp_at));
        run_frozen(&dag, &schedule, &gt, &plan, None, &mut armed).unwrap_err();
        let mut resumed = JournalSession::resume(armed.durable_bytes()).unwrap();
        assert!(resumed.replayed_commits() > 0, "durable commits replayed");
        run_frozen(&dag, &schedule, &gt, &plan, None, &mut resumed).unwrap();
        assert!(
            resumed.deduped() > 0,
            "re-simulating the torn stage re-delivers its durable commits"
        );
        let decoded = decode_journal(resumed.durable_bytes()).unwrap();
        let v = validate_journal(&decoded.records);
        assert!(v.is_empty(), "dedup keeps the journal clean: {v:?}");
    }

    #[test]
    fn double_crash_then_resume_still_bit_identical() {
        let (dag, _, _, schedule, gt) = fixture(&[48; 4]);
        let plan = FaultPlan::none().and_object_loss(StageId(1), 0);
        let mut clean = JournalSession::fresh(None);
        let (_, bm) = run_frozen(&dag, &schedule, &gt, &plan, None, &mut clean).unwrap();
        let total = clean.records_written();
        let mut armed = JournalSession::fresh(Some(2));
        run_frozen(&dag, &schedule, &gt, &plan, None, &mut armed).unwrap_err();
        let mut second = JournalSession::resume(armed.durable_bytes()).unwrap();
        second.arm_crash(total - 2);
        run_frozen(&dag, &schedule, &gt, &plan, None, &mut second).unwrap_err();
        let mut third = JournalSession::resume(second.durable_bytes()).unwrap();
        let (_, m) = run_frozen(&dag, &schedule, &gt, &plan, None, &mut third).unwrap();
        assert_eq!(m, bm, "two crashes deep, still bit-identical");
    }

    #[test]
    fn recover_reports_the_resumable_surface() {
        let (dag, _, _, schedule, gt) = fixture(&[48; 4]);
        let plan = FaultPlan::none();
        let mut clean = JournalSession::fresh(None);
        run_frozen(&dag, &schedule, &gt, &plan, None, &mut clean).unwrap();
        let total = clean.records_written();
        let mut armed = JournalSession::fresh(Some(total - 1));
        run_frozen(&dag, &schedule, &gt, &plan, None, &mut armed).unwrap_err();
        let job = recover(armed.durable_bytes()).unwrap();
        assert_eq!(job.engine, EngineKind::Frozen);
        assert_eq!(job.stages, dag.num_stages() as u32);
        assert!(!job.finished);
        assert_eq!(job.torn.map(|t| t.at_record), Some(total - 1));
        assert!(!job.completed_stages.is_empty());
        // An empty journal is not resumable.
        assert!(recover(&journal_with(&[])).is_err());
    }

    #[test]
    fn resume_rejects_a_different_schedule() {
        let (dag, model, rm, schedule, gt) = fixture(&[48; 4]);
        let plan = FaultPlan::none();
        let mut armed = JournalSession::fresh(Some(3));
        run_frozen(&dag, &schedule, &gt, &plan, None, &mut armed).unwrap_err();
        let mut resumed = JournalSession::resume(armed.durable_bytes()).unwrap();
        // Re-plan under different capacity: different schedule, different
        // fingerprint — resume must refuse, not silently mix timelines.
        let rm2 = ResourceManager::from_free_slots(vec![6, 6, 6]);
        let other = DittoScheduler::new().schedule(&SchedulingContext {
            dag: &dag,
            model: &model,
            resources: &rm2,
            objective: Objective::Jct,
        });
        assert_ne!(
            schedule_fingerprint(&schedule),
            schedule_fingerprint(&other),
            "fixture sanity: the schedules differ"
        );
        let err = run_frozen(&dag, &other, &gt, &plan, None, &mut resumed).unwrap_err();
        assert!(matches!(err, ExecError::Journal(_)), "{err}");
        let _ = rm;
    }

    // -- compaction ----------------------------------------------------

    #[test]
    fn snapshot_plus_tail_recovery_equals_full_journal_recovery() {
        let (dag, model, rm, schedule, gt) = fixture(&[48; 4]);
        let (_, base) = crate::sim::simulate(&dag, &schedule, &gt);
        let plan = FaultPlan::none()
            .and_object_loss(StageId(0), 0)
            .and_server_failure(ServerId(1), base.jct * 0.4);
        let ctx = ctx(&model, &rm);
        let mut clean = JournalSession::fresh(None);
        let (_, bm) = run_frozen(&dag, &schedule, &gt, &plan, Some(&ctx), &mut clean).unwrap();
        let total = clean.records_written();
        for k in 2..total {
            let mut armed = JournalSession::fresh(Some(k));
            run_frozen(&dag, &schedule, &gt, &plan, Some(&ctx), &mut armed).unwrap_err();
            let compacted = compact_journal(
                &armed.durable_bytes()[..decode_journal(armed.durable_bytes())
                    .unwrap()
                    .durable_len],
            )
            .unwrap();
            let mut from_full = JournalSession::resume(armed.durable_bytes()).unwrap();
            let mut from_snap = JournalSession::resume(&compacted).unwrap();
            assert_eq!(
                from_full.replayed_commits(),
                from_snap.replayed_commits(),
                "crash {k}: the snapshot preserves the commit ledger"
            );
            let (ft, fm) =
                run_frozen(&dag, &schedule, &gt, &plan, Some(&ctx), &mut from_full).unwrap();
            let (st, sm) =
                run_frozen(&dag, &schedule, &gt, &plan, Some(&ctx), &mut from_snap).unwrap();
            assert_eq!(fm, bm, "crash {k}: full-journal recovery");
            assert_eq!(sm, bm, "crash {k}: snapshot+tail recovery");
            assert_eq!(ft.tasks, st.tasks, "crash {k}");
            assert_eq!(ft.attempts, st.attempts, "crash {k}");
        }
        // Compacting a checkpoint-free journal is the identity.
        let head = journal_with(&decode_journal(clean.durable_bytes()).unwrap().records[..2]);
        assert_eq!(compact_journal(&head).unwrap(), head);
    }

    #[test]
    fn compaction_folds_the_prefix_into_one_snapshot() {
        let (dag, _, _, schedule, gt) = fixture(&[48; 4]);
        let plan = FaultPlan::none();
        let mut clean = JournalSession::fresh(None);
        run_frozen(&dag, &schedule, &gt, &plan, None, &mut clean).unwrap();
        let compacted = compact_journal(clean.durable_bytes()).unwrap();
        let decoded = decode_journal(&compacted).unwrap();
        assert!(decoded.torn.is_none());
        assert!(
            matches!(&decoded.records[0], JournalRecord::Snapshot(inner)
                if matches!(inner.first(), Some(JournalRecord::JobAdmit { .. }))),
            "first record is the snapshot, starting at admission"
        );
        // Flattened content is byte-identical to the original records.
        let flat = flatten(&decoded.records);
        let orig = decode_journal(clean.durable_bytes()).unwrap().records;
        assert_eq!(flat.len(), orig.len());
        for (a, b) in flat.iter().zip(orig.iter()) {
            assert_eq!(encode_record(a), encode_record(b));
        }
        let v = validate_journal(&decoded.records);
        assert!(v.is_empty(), "compacted journal validates clean: {v:?}");
        // Compacting a torn journal is refused.
        let mut torn = clean.durable_bytes().to_vec();
        torn.extend_from_slice(&[9, 9, 9]);
        assert!(compact_journal(&torn).is_err());
    }

    // -- adaptive engine: crash / resume ------------------------------

    fn run_adaptive(
        dag: &JobDag,
        schedule: &Schedule,
        gt: &GroundTruth,
        plan: &FaultPlan,
        ctx: &ReschedulingContext<'_>,
        session: &mut JournalSession,
    ) -> Result<(ExecutionTrace, JobMetrics), ExecError> {
        let spec = RunSpec {
            faults: plan.clone(),
            recovery: RecoveryPolicy::default(),
            replan: Replan::Adaptive(ctx.clone(), AdaptiveConfig::default()),
            journal: Some(session),
            ..RunSpec::default()
        };
        run(dag, schedule, gt, spec)
    }

    #[test]
    fn adaptive_crash_resume_replays_replans_bit_identically() {
        let (dag, model, rm, schedule, gt) = fixture(&[24, 16]);
        let plan = FaultPlan::none().with_drift(2.0).and_object_loss(StageId(2), 0);
        let ctx = ctx(&model, &rm);
        let mut clean = JournalSession::fresh(None);
        let (bt, bm) = run_adaptive(&dag, &schedule, &gt, &plan, &ctx, &mut clean).unwrap();
        assert!(!bt.replans.is_empty(), "2x drift must fire a replan");
        let total = clean.records_written();
        let v = validate_journal(&decode_journal(clean.durable_bytes()).unwrap().records);
        assert!(v.is_empty(), "{v:?}");
        // Replan decision sequence numbers are monotonic from 1.
        for (i, r) in bt.replans.iter().enumerate() {
            assert_eq!(r.decision_seq, i as u64 + 1);
        }
        for k in (0..total).step_by(3) {
            let mut armed = JournalSession::fresh(Some(k));
            let err = run_adaptive(&dag, &schedule, &gt, &plan, &ctx, &mut armed)
                .expect_err("armed crash must kill the run");
            assert!(matches!(err, ExecError::CoordinatorCrash { at_record } if at_record == k));
            let mut resumed = JournalSession::resume(armed.durable_bytes()).unwrap();
            let (rt, rm2) = run_adaptive(&dag, &schedule, &gt, &plan, &ctx, &mut resumed).unwrap();
            assert_eq!(rm2, bm, "crash at record {k}");
            assert_eq!(rt.tasks, bt.tasks, "crash at record {k}");
            assert_eq!(rt.attempts, bt.attempts, "crash at record {k}");
            assert_eq!(rt.replans, bt.replans, "crash at record {k}: replayed splices");
            let v = validate_journal(&decode_journal(resumed.durable_bytes()).unwrap().records);
            assert!(v.is_empty(), "crash at record {k}: {v:?}");
        }
    }

    #[test]
    fn adaptive_resume_bounds_recovery_work() {
        // Recovery must restore checkpointed stages instead of
        // re-simulating them: crash late, resume, and count.
        let (dag, model, rm, schedule, gt) = fixture(&[24, 16]);
        let plan = FaultPlan::none().with_drift(2.0);
        let ctx = ctx(&model, &rm);
        let mut clean = JournalSession::fresh(None);
        run_adaptive(&dag, &schedule, &gt, &plan, &ctx, &mut clean).unwrap();
        let total = clean.records_written();
        let mut armed = JournalSession::fresh(Some(total - 1));
        run_adaptive(&dag, &schedule, &gt, &plan, &ctx, &mut armed).unwrap_err();
        let mut resumed = JournalSession::resume(armed.durable_bytes()).unwrap();
        run_adaptive(&dag, &schedule, &gt, &plan, &ctx, &mut resumed).unwrap();
        assert!(
            resumed.restored_stages() as usize >= dag.num_stages() - 2,
            "a last-record crash restores nearly every stage: {} of {}",
            resumed.restored_stages(),
            dag.num_stages()
        );
    }

    // -- cross-check: journal vs trace --------------------------------

    #[test]
    fn cross_check_certifies_a_recorded_run_and_catches_tampering() {
        let (dag, model, rm, schedule, gt) = fixture(&[24, 16]);
        let plan = FaultPlan::none().with_drift(2.0);
        let ctx = ctx(&model, &rm);
        let obs = Recorder::new();
        let mut session = JournalSession::fresh(None);
        let spec = RunSpec {
            faults: plan,
            recovery: RecoveryPolicy::default(),
            replan: Replan::Adaptive(ctx, AdaptiveConfig::default()),
            recorder: Some(&obs),
            journal: Some(&mut session),
        };
        run(&dag, &schedule, &gt, spec).unwrap();
        let trace = obs.finish();
        let records = decode_journal(session.durable_bytes()).unwrap().records;
        let findings = cross_check(&records, &trace);
        assert!(findings.is_empty(), "journal and trace agree: {findings:?}");
        // Tamper: shift one journaled commit value; the hb.write event it
        // maps to no longer matches.
        let mut tampered = records.clone();
        let pos = tampered
            .iter()
            .position(|r| matches!(r, JournalRecord::ObjectCommit { .. }))
            .unwrap();
        if let JournalRecord::ObjectCommit { value, .. } = &mut tampered[pos] {
            *value ^= 1;
        }
        assert!(!cross_check(&tampered, &trace).is_empty());
    }
}
