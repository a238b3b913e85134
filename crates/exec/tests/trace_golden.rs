//! Golden-file test: a fixed two-stage simulation must export a
//! byte-identical Chrome trace, run after run, build after build.
//!
//! Only sim-clock spans land in the export (timestamps are integral
//! microseconds of simulated time), so the bytes are fully determined by
//! the DAG, the schedule and the ground truth. Regenerate the golden
//! file after an intentional format change with:
//!
//! ```sh
//! DITTO_UPDATE_GOLDEN=1 cargo test -p ditto-exec --test trace_golden
//! ```

use ditto_cluster::ResourceManager;
use ditto_core::baselines::EvenSplitScheduler;
use ditto_core::{Objective, Scheduler, SchedulingContext};
use ditto_exec::{run, ExecConfig, GroundTruth, RunSpec};
use ditto_obs::{to_chrome_trace, validate_chrome_trace, Recorder};
use ditto_timemodel::model::RateConfig;
use ditto_timemodel::JobTimeModel;
use std::path::PathBuf;

fn two_stage_chrome_trace() -> String {
    let dag = ditto_dag::generators::chain(2, 1 << 30, 0.5);
    let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
    let rm = ResourceManager::from_free_slots(vec![8, 8]);
    let schedule = EvenSplitScheduler.schedule(&SchedulingContext {
        dag: &dag,
        model: &model,
        resources: &rm,
        objective: Objective::Jct,
    });
    let obs = Recorder::new();
    let spec = RunSpec {
        recorder: Some(&obs),
        ..RunSpec::default()
    };
    let (_, m) = run(&dag, &schedule, &GroundTruth::new(ExecConfig::default()), spec).unwrap();
    assert!(m.jct > 0.0);
    to_chrome_trace(&obs.finish())
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("two_stage_trace.json")
}

#[test]
fn export_is_byte_stable() {
    let a = two_stage_chrome_trace();
    let b = two_stage_chrome_trace();
    assert_eq!(a, b, "two identical runs exported different bytes");
}

#[test]
fn export_matches_golden_file() {
    let json = two_stage_chrome_trace();
    validate_chrome_trace(&json).expect("golden trace must be schema-valid");
    let path = golden_path();
    if std::env::var_os("DITTO_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &json).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e}); regenerate with DITTO_UPDATE_GOLDEN=1", path.display()));
    assert_eq!(
        json, golden,
        "Chrome export drifted from the golden file; if intentional, regenerate with DITTO_UPDATE_GOLDEN=1"
    );
}
