//! Corruption suite for the happens-before race checker: take a real
//! executor trace (which certifies clean), apply one targeted corruption
//! per case — delete a write, swap a read before its write, double-book
//! a slot, forge a cross-server shared-memory edge — and pin the exact
//! finding each corruption must produce, down to its (stage, task,
//! server, edge) provenance. This is the negative half of the checker's
//! contract: the property tests prove clean runs certify clean; this
//! file proves corrupted runs do not, and that the report names the
//! culprit rather than merely going red.

use ditto_audit::{check_trace, RaceOptions, RaceRule};
use ditto_cluster::ResourceManager;
use ditto_core::{DittoScheduler, Objective, Scheduler, SchedulingContext};
use ditto_exec::{run, ExecConfig, GroundTruth, RecoveryPolicy, RunSpec};
use ditto_obs::{AttrValue, EventRecord, Recorder, TraceData};
use ditto_timemodel::model::RateConfig;
use ditto_timemodel::JobTimeModel;

const SLOTS: [u32; 2] = [8, 8];

/// One clean traced run of a diamond DAG (0 → {1, 2} → 3).
fn traced_run() -> TraceData {
    let dag = ditto_dag::generators::diamond(1 << 30);
    let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
    let rm = ResourceManager::from_free_slots(SLOTS.to_vec());
    let schedule = DittoScheduler::new().schedule(&SchedulingContext {
        dag: &dag,
        model: &model,
        resources: &rm,
        objective: Objective::Jct,
    });
    let gt = GroundTruth::new(ExecConfig::default());
    let obs = Recorder::new();
    let spec = RunSpec {
        recovery: RecoveryPolicy::default(),
        recorder: Some(&obs),
        ..RunSpec::default()
    };
    run(&dag, &schedule, &gt, spec).expect("fault-free run cannot fail");
    obs.finish()
}

fn opts() -> RaceOptions {
    RaceOptions {
        capacities: Some(SLOTS.to_vec()),
        ..RaceOptions::default()
    }
}

fn attr_u64(ev: &EventRecord, key: &str) -> Option<u64> {
    match ev.attr(key) {
        Some(AttrValue::U64(v)) => Some(*v),
        _ => None,
    }
}

fn set_attr(ev: &mut EventRecord, key: &str, value: AttrValue) {
    let slot = ev
        .attrs
        .iter_mut()
        .find(|(k, _)| *k == key)
        .unwrap_or_else(|| panic!("event {} has no attr {key}", ev.name));
    slot.1 = value;
}

#[test]
fn uncorrupted_baseline_certifies_clean() {
    let report = check_trace(&traced_run(), &opts());
    assert!(report.is_clean(), "{}", report.render());
    assert!(report.ops > 0 && report.hb_edges > 0);
}

/// Case 1: delete the committed write of stage 0, task 0. The write
/// roster must flag the launched-but-never-committed task on every edge
/// that consumes stage 0 — not any other rule, not any other task.
#[test]
fn deleting_a_write_pins_missing_write_at_stage_and_task() {
    let mut trace = traced_run();
    let idx = trace
        .events
        .iter()
        .position(|e| {
            e.name == "hb.write" && attr_u64(e, "stage") == Some(0) && attr_u64(e, "task") == Some(0)
        })
        .expect("stage 0 task 0 committed a write");
    trace.events.remove(idx);

    let report = check_trace(&trace, &opts());
    assert!(!report.is_clean());
    let missing: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == RaceRule::MissingWrite)
        .collect();
    assert!(
        !missing.is_empty(),
        "deleted write must surface as missing-write:\n{}",
        report.render()
    );
    for f in &missing {
        assert_eq!(f.stage, Some(0), "wrong stage pinned: {f}");
        assert_eq!(f.task, Some(0), "wrong task pinned: {f}");
        assert!(f.edge.is_some(), "consuming edge must be named: {f}");
    }
}

/// Case 2: move one read of stage 0's output to before every commit of
/// stage 0. The commit→read rule must flag exactly that reader, with
/// the edge it read over.
#[test]
fn swapping_a_read_before_its_write_pins_read_before_write() {
    let mut trace = traced_run();
    let earliest_commit = trace
        .events
        .iter()
        .filter(|e| e.name == "hb.write" && attr_u64(e, "stage") == Some(0))
        .map(|e| e.ts)
        .fold(f64::INFINITY, f64::min);
    assert!(earliest_commit.is_finite(), "stage 0 committed writes");
    let idx = trace
        .events
        .iter()
        .position(|e| e.name == "hb.read" && attr_u64(e, "src_stage") == Some(0))
        .expect("something reads stage 0");
    let (stage, task, edge) = {
        let ev = &mut trace.events[idx];
        ev.ts = earliest_commit - 1.0;
        // Keep the op internally consistent: compute follows the read.
        set_attr(ev, "compute_start", AttrValue::F64(earliest_commit - 0.5));
        (
            attr_u64(ev, "stage").unwrap(),
            attr_u64(ev, "task").unwrap(),
            attr_u64(ev, "edge").unwrap(),
        )
    };

    let report = check_trace(&trace, &opts());
    assert!(!report.is_clean());
    let hit = report
        .findings
        .iter()
        .find(|f| f.rule == RaceRule::ReadBeforeWrite)
        .unwrap_or_else(|| panic!("swapped read must surface:\n{}", report.render()));
    assert_eq!(hit.stage, Some(stage as u32), "wrong reader stage: {hit}");
    assert_eq!(hit.task, Some(task as u32), "wrong reader task: {hit}");
    assert_eq!(hit.edge, Some(edge as u32), "wrong edge: {hit}");
}

/// Case 3: double-book server 0 by cloning one sink-stage slot interval
/// until occupancy exceeds capacity. The sweep must flag server 0 as an
/// error (no failover or replan happened, so no grace applies), naming
/// the acquire that tipped it over.
#[test]
fn double_booking_a_slot_pins_oversubscription_at_the_server() {
    let mut trace = traced_run();
    // The diamond's sink (stage 3) is consumed by nobody, so cloned
    // holds cannot trip the write roster — the oversubscription must be
    // the only finding. Book against whichever server ran sink task 0.
    let template = trace
        .events
        .iter()
        .find(|e| {
            e.name == "hb.slot_acquire"
                && attr_u64(e, "stage") == Some(3)
                && attr_u64(e, "task") == Some(0)
        })
        .expect("sink task 0 acquired a slot")
        .clone();
    let server = attr_u64(&template, "server").unwrap() as u32;
    let pair: Vec<EventRecord> = trace
        .events
        .iter()
        .filter(|e| {
            (e.name == "hb.slot_acquire" || e.name == "hb.slot_release")
                && attr_u64(e, "stage") == Some(3)
                && attr_u64(e, "task") == Some(0)
        })
        .cloned()
        .collect();
    assert_eq!(pair.len(), 2, "sink task 0 holds one slot interval");
    for k in 0..u64::from(SLOTS[server as usize]) {
        for ev in &pair {
            let mut clone = ev.clone();
            set_attr(&mut clone, "task", AttrValue::U64(1000 + k));
            trace.events.push(clone);
        }
    }

    let report = check_trace(&trace, &opts());
    let hit = report
        .findings
        .iter()
        .find(|f| f.rule == RaceRule::SlotOversubscription)
        .unwrap_or_else(|| panic!("double-booked slot must surface:\n{}", report.render()));
    assert!(report.error_count() >= 1, "no grace applies on a clean run");
    assert_eq!(hit.server, Some(server), "wrong server pinned: {hit}");
    assert_eq!(hit.stage, Some(3), "tipping acquire's stage: {hit}");
}

/// Case 4: forge a shared-memory read placed on a server where the
/// producer stage never wrote. The cross-server rule must flag exactly
/// that server and edge as an error — shared memory does not travel.
#[test]
fn forging_a_cross_server_shm_read_pins_the_foreign_server() {
    let mut trace = traced_run();
    let idx = trace
        .events
        .iter()
        .position(|e| e.name == "hb.read" && attr_u64(e, "src_stage") == Some(0))
        .expect("something reads stage 0");
    let edge = {
        let ev = &mut trace.events[idx];
        set_attr(ev, "medium", AttrValue::Str("shared-memory"));
        set_attr(ev, "server", AttrValue::U64(7));
        attr_u64(ev, "edge").unwrap()
    };

    let report = check_trace(&trace, &opts());
    let hit = report
        .findings
        .iter()
        .find(|f| f.rule == RaceRule::CrossServerShm)
        .unwrap_or_else(|| panic!("forged shm edge must surface:\n{}", report.render()));
    assert_eq!(hit.severity, ditto_audit::Severity::Error, "{hit}");
    assert_eq!(hit.server, Some(7), "foreign server pinned: {hit}");
    assert_eq!(hit.edge, Some(edge as u32), "edge pinned: {hit}");
}
