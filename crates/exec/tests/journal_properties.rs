//! Property tests for the control-plane write-ahead journal.
//!
//! Two families:
//!
//! * **Crash/recovery** — for random DAGs, fault histories and crash
//!   record indices, on both engines: the armed run dies exactly at the
//!   requested record, recovery terminates, the recovered run is
//!   bit-identical to the crash-free run (metrics, task timelines,
//!   attempt history, replan decisions), its telemetry certifies
//!   race-free, and the resumed journal re-validates clean.
//! * **Spec matrix** — every replan mode × recorder × journal (none,
//!   fresh, resumed from a crash-free journal) on faulted random DAGs
//!   yields bit-identical metrics and task timelines.
//! * **Corruption** — a journal with a mid-frame truncation, a flipped
//!   CRC byte, or a duplicated commit frame is detected with *exact*
//!   record-index provenance, checked against an independent re-scan of
//!   the frame layout.

use ditto_audit::RaceOptions;
use ditto_cluster::{ResourceManager, ServerId};
use ditto_core::{
    DittoScheduler, JointOptions, Objective, Schedule, Scheduler, SchedulingContext,
};
use ditto_dag::generators::{random_dag, RandomDagConfig};
use ditto_dag::JobDag;
use ditto_exec::{
    decode_journal, validate_journal, AdaptiveConfig, ExecConfig, ExecError, ExecutionTrace,
    FaultPlan, FaultRates, GroundTruth, JobMetrics, JournalRecord, JournalSession,
    RecoveryPolicy, Replan, ReschedulingContext, RunSpec,
};
use ditto_obs::Recorder;
use ditto_timemodel::model::RateConfig;
use ditto_timemodel::JobTimeModel;
use proptest::prelude::*;

/// Two-server slot capacities shared by the schedule and the race check.
const SLOTS: &[u32] = &[12, 10];

fn setup(dag_seed: u64, stages: usize) -> (JobDag, JobTimeModel, ResourceManager, Schedule) {
    let dag = random_dag(dag_seed, &RandomDagConfig::sized(stages));
    let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
    let rm = ResourceManager::from_free_slots(SLOTS.to_vec());
    let schedule = DittoScheduler::new().schedule(&SchedulingContext {
        dag: &dag,
        model: &model,
        resources: &rm,
        objective: Objective::Jct,
    });
    (dag, model, rm, schedule)
}

fn policy() -> RecoveryPolicy {
    RecoveryPolicy {
        max_retries: 16,
        ..RecoveryPolicy::default()
    }
}

/// One journaled run: the adaptive engine, or the frozen one with
/// failover rescheduling.
#[allow(clippy::too_many_arguments)]
fn run(
    adaptive: bool,
    dag: &JobDag,
    schedule: &Schedule,
    gt: &GroundTruth,
    plan: &FaultPlan,
    model: &JobTimeModel,
    rm: &ResourceManager,
    recorder: Option<&Recorder>,
    session: &mut JournalSession,
) -> Result<(ExecutionTrace, JobMetrics), ExecError> {
    let mode = if adaptive { Mode::Adaptive } else { Mode::Failover };
    ditto_exec::run(dag, schedule, gt, spec(mode, plan, model, rm, recorder, Some(session)))
}

#[derive(Clone, Copy, Debug)]
enum Mode {
    Off,
    Failover,
    Adaptive,
}

/// `plan` under [`policy`], replanning per `mode` against `model`/`rm`.
fn spec<'a>(
    mode: Mode,
    plan: &FaultPlan,
    model: &'a JobTimeModel,
    rm: &'a ResourceManager,
    recorder: Option<&'a Recorder>,
    journal: Option<&'a mut JournalSession>,
) -> RunSpec<'a> {
    let ctx = ReschedulingContext {
        model,
        resources: rm,
        objective: Objective::Jct,
        options: JointOptions::default(),
    };
    RunSpec {
        faults: plan.clone(),
        recovery: policy(),
        replan: match mode {
            Mode::Off => Replan::Off,
            Mode::Failover => Replan::OnServerFailure(ctx),
            Mode::Adaptive => Replan::Adaptive(ctx, AdaptiveConfig::default()),
        },
        recorder,
        journal,
    }
}

/// A crash-free journal of a random run, for the corruption properties.
fn sample_journal(dag_seed: u64) -> Vec<u8> {
    let (dag, model, rm, schedule) = setup(dag_seed, 6);
    let gt = GroundTruth::new(ExecConfig::default());
    let plan = FaultPlan::from_rates(FaultRates {
        loss_prob: 0.03,
        ..FaultRates::none(dag_seed.wrapping_add(7))
    });
    let mut session = JournalSession::fresh(None);
    run(
        false,
        &dag,
        &schedule,
        &gt,
        &plan,
        &model,
        &rm,
        None,
        &mut session,
    )
    .expect("crash-free journaled run");
    session.durable_bytes().to_vec()
}

/// Independent re-scan of the frame layout: 9-byte header
/// (`DITTOWAL` + version), then `[len u32][crc u64][payload]` frames.
/// Returns each frame's start offset. Deliberately NOT built on the
/// journal decoder — provenance assertions below compare the decoder's
/// claims against this second opinion.
fn frame_starts(bytes: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut pos = 9;
    while pos + 12 <= bytes.len() {
        starts.push(pos);
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 12 + len;
    }
    assert_eq!(pos, bytes.len(), "sample journal must end on a frame boundary");
    starts
}

/// Map a fraction in [0, 1) onto an index of `len` items.
fn pick(frac: f64, len: usize) -> usize {
    ((frac * len as f64) as usize).min(len - 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Crash at a random journal record of a random DAG's run, on either
    /// engine: recovery terminates and is bit-identical, the recovered
    /// telemetry is race-free, and the resumed journal validates clean.
    #[test]
    fn crash_resume_is_bit_identical_on_random_dags(
        dag_seed in 0u64..512,
        stages in 5usize..9,
        loss in 0.0f64..0.10,
        fault_seed in 0u64..1024,
        crash_frac in 0.0f64..1.0,
        engine_bit in 0u64..2,
    ) {
        let adaptive = engine_bit == 1;
        let (dag, model, rm, schedule) = setup(dag_seed, stages);
        let gt = GroundTruth::new(ExecConfig::default());
        let mut plan = FaultPlan::from_rates(FaultRates {
            loss_prob: loss,
            ..FaultRates::none(fault_seed)
        });
        if adaptive {
            // Give the adaptive engine a reason to replan, so recovery
            // also exercises journaled replan splices.
            plan = plan.with_drift(2.0);
        }

        let mut clean = JournalSession::fresh(None);
        let (bt, bm) = run(
            adaptive, &dag, &schedule, &gt, &plan, &model, &rm,
            None, &mut clean,
        ).expect("crash-free journaled run");
        let total = clean.records_written();
        let k = pick(crash_frac, total as usize) as u64;

        let mut armed = JournalSession::fresh(Some(k));
        let err = run(
            adaptive, &dag, &schedule, &gt, &plan, &model, &rm,
            None, &mut armed,
        ).expect_err("armed crash must kill the run");
        prop_assert!(
            matches!(err, ExecError::CoordinatorCrash { at_record } if at_record == k),
            "crash at {k} surfaced {err}"
        );

        let mut resumed = JournalSession::resume(armed.durable_bytes())
            .expect("torn journal must resume");
        let obs = Recorder::new();
        let (rt, rmx) = run(
            adaptive, &dag, &schedule, &gt, &plan, &model, &rm, Some(&obs), &mut resumed,
        ).expect("recovery must terminate");

        prop_assert_eq!(rmx.jct.to_bits(), bm.jct.to_bits(), "JCT must be bit-identical");
        prop_assert!(rmx == bm, "recovered metrics diverged");
        prop_assert!(rt.tasks == bt.tasks, "recovered task timelines diverged");
        prop_assert!(rt.attempts == bt.attempts, "recovered attempt history diverged");
        prop_assert!(rt.replans == bt.replans, "recovered replan decisions diverged");

        let race = ditto_audit::check_trace(&obs.finish(), &RaceOptions {
            capacities: Some(SLOTS.to_vec()),
            ..Default::default()
        });
        prop_assert!(race.is_clean(), "recovered run races:\n{}", race.render());

        let decoded = decode_journal(resumed.durable_bytes()).expect("resumed journal decodes");
        prop_assert!(decoded.torn.is_none(), "resumed journal still torn");
        let findings = validate_journal(&decoded.records);
        prop_assert!(findings.is_empty(), "resumed journal dirty: {findings:?}");
    }

    /// The run spec's fields are orthogonal: on faulted random DAGs (task
    /// crashes, object loss, drift and a server failure), under each
    /// replan mode, a recorder and a journal — fresh, or resumed from a
    /// complete crash-free journal so every stage restores and every
    /// decision replays — leave metrics and task timelines bit-identical
    /// to the plain run.
    #[test]
    fn run_spec_fields_leave_the_result_bit_identical(
        dag_seed in 0u64..512,
        stages in 5usize..9,
        crash in 0.0f64..0.10,
        loss in 0.0f64..0.10,
        fail_frac in 0.05f64..0.6,
        fault_seed in 0u64..1024,
    ) {
        let (dag, model, rm, schedule) = setup(dag_seed, stages);
        let gt = GroundTruth::new(ExecConfig::default());
        let (_, base) = ditto_exec::simulate(&dag, &schedule, &gt);
        let plan = FaultPlan::from_rates(FaultRates {
            crash_prob: crash,
            loss_prob: loss,
            ..FaultRates::none(fault_seed)
        })
        .with_drift(2.0)
        .and_server_failure(ServerId(0), base.jct * fail_frac);
        for mode in [Mode::Off, Mode::Failover, Mode::Adaptive] {
            let plain = spec(mode, &plan, &model, &rm, None, None);
            let (bt, bm) = ditto_exec::run(&dag, &schedule, &gt, plain).expect("plain run");
            for traced in [false, true] {
                let obs = Recorder::new();
                let recorder = traced.then_some(&obs);
                let mut fresh = JournalSession::fresh(None);
                let mut outs = Vec::new();
                for journal in [None, Some(&mut fresh)] {
                    let s = spec(mode, &plan, &model, &rm, recorder, journal);
                    outs.push(ditto_exec::run(&dag, &schedule, &gt, s));
                }
                let mut resumed = JournalSession::resume(fresh.durable_bytes())
                    .expect("a complete journal resumes");
                let s = spec(mode, &plan, &model, &rm, recorder, Some(&mut resumed));
                outs.push(ditto_exec::run(&dag, &schedule, &gt, s));
                for (i, out) in outs.into_iter().enumerate() {
                    let (t, m) = out.expect("bounded fault rates must recover");
                    prop_assert!(
                        m == bm && t.tasks == bt.tasks,
                        "{mode:?}, traced {traced}, journal variant {i} diverged from the plain run"
                    );
                }
            }
        }
    }

    /// Cutting a journal anywhere strictly inside frame `r` is reported
    /// as a torn tail at record `r`, at that frame's byte offset.
    #[test]
    fn truncation_mid_frame_is_detected_with_provenance(
        dag_seed in 0u64..64,
        rec_frac in 0.0f64..1.0,
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = sample_journal(dag_seed);
        let starts = frame_starts(&bytes);
        let r = pick(rec_frac, starts.len());
        let start = starts[r];
        let end = starts.get(r + 1).copied().unwrap_or(bytes.len());
        let cut = start + 1 + pick(cut_frac, end - start - 1);
        prop_assert!(cut > start && cut < end);

        let d = decode_journal(&bytes[..cut]).expect("a torn tail is not a hard error");
        prop_assert_eq!(d.records.len(), r, "records before the cut survive");
        let torn = d.torn.expect("mid-frame cut must be flagged");
        prop_assert_eq!(torn.at_record, r as u64);
        prop_assert_eq!(torn.byte_offset, start);
        prop_assert_eq!(torn.reason.label(), "truncated");
    }

    /// Flipping any byte of frame `r`'s checksum is reported as a
    /// checksum mismatch at record `r`; the prefix still decodes.
    #[test]
    fn flipped_crc_byte_is_detected_with_provenance(
        dag_seed in 0u64..64,
        rec_frac in 0.0f64..1.0,
        crc_byte in 0usize..8,
    ) {
        let mut bytes = sample_journal(dag_seed);
        let starts = frame_starts(&bytes);
        let r = pick(rec_frac, starts.len());
        bytes[starts[r] + 4 + crc_byte] ^= 0x40;

        let d = decode_journal(&bytes).expect("a corrupt frame is not a hard error");
        prop_assert_eq!(d.records.len(), r, "records before the corruption survive");
        let torn = d.torn.expect("flipped CRC byte must be flagged");
        prop_assert_eq!(torn.at_record, r as u64);
        prop_assert_eq!(torn.byte_offset, starts[r]);
        prop_assert_eq!(torn.reason.label(), "checksum-mismatch");
    }

    /// Splicing a copy of an object-commit frame after itself decodes
    /// fine (the copy is CRC-valid) but the validator names the copy's
    /// record index as a duplicated commit.
    #[test]
    fn duplicated_commit_frame_is_flagged_with_index(
        dag_seed in 0u64..64,
        pick_frac in 0.0f64..1.0,
    ) {
        let bytes = sample_journal(dag_seed);
        let starts = frame_starts(&bytes);
        let d = decode_journal(&bytes).expect("sample journal decodes");
        let commits: Vec<usize> = d.records.iter().enumerate()
            .filter(|(_, rec)| matches!(rec, JournalRecord::ObjectCommit { .. }))
            .map(|(i, _)| i)
            .collect();
        prop_assert!(!commits.is_empty(), "sample run must commit objects");
        let r = commits[pick(pick_frac, commits.len())];
        let start = starts[r];
        let end = starts.get(r + 1).copied().unwrap_or(bytes.len());

        let mut dup = bytes[..end].to_vec();
        dup.extend_from_slice(&bytes[start..end]);
        dup.extend_from_slice(&bytes[end..]);

        let dd = decode_journal(&dup).expect("duplicated frame is CRC-valid");
        prop_assert!(dd.torn.is_none());
        prop_assert_eq!(dd.records.len(), d.records.len() + 1);
        let findings = validate_journal(&dd.records);
        let expected = format!("record {}: duplicated object-commit", r + 1);
        prop_assert!(
            findings.iter().any(|f| f.starts_with(&expected)),
            "expected {expected:?} among {findings:?}"
        );
    }
}
