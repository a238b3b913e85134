//! Property tests over the telemetry stream: for arbitrary chain jobs
//! and fault seeds, recorded spans are well-formed — every closed span
//! has `end >= start`, every child nests inside its parent, and
//! cumulative counters never decrease.

use ditto_cluster::ResourceManager;
use ditto_core::{DittoScheduler, Objective, SchedulingContext};
use ditto_exec::{run, ExecConfig, FaultPlan, FaultRates, GroundTruth, RecoveryPolicy, RunSpec};
use ditto_obs::{Recorder, TraceData};
use ditto_timemodel::model::RateConfig;
use ditto_timemodel::JobTimeModel;
use proptest::prelude::*;
use std::collections::HashMap;

const EPS: f64 = 1e-9;

fn traced_chain_run(stages: u32, gb: u64, selectivity: f64, rate: f64, seed: u64) -> TraceData {
    let dag = ditto_dag::generators::chain(stages as usize, gb << 30, selectivity);
    let model = JobTimeModel::from_rates(&dag, &RateConfig::default());
    let rm = ResourceManager::from_free_slots(vec![24, 24, 24]);
    let obs = Recorder::new();
    let schedule = DittoScheduler::new().schedule_traced(
        &SchedulingContext {
            dag: &dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        },
        &obs,
    );
    let plan = FaultPlan::from_rates(FaultRates {
        crash_prob: rate,
        straggler_prob: rate,
        straggler_slowdown: 3.0,
        ..FaultRates::none(seed)
    });
    let policy = RecoveryPolicy {
        max_retries: 16,
        ..RecoveryPolicy::default()
    };
    let gt = GroundTruth::new(ExecConfig::default());
    let spec = RunSpec {
        faults: plan,
        recovery: policy,
        recorder: Some(&obs),
        ..RunSpec::default()
    };
    run(&dag, &schedule, &gt, spec).expect("bounded fault rates recover");
    obs.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn spans_are_well_formed(
        stages in 2u32..5,
        gb in 1u64..4,
        selectivity in 0.3f64..1.0,
        rate in 0.0f64..0.12,
        seed in 0u64..u64::MAX,
    ) {
        let data = traced_chain_run(stages, gb, selectivity, rate, seed);
        prop_assert!(!data.spans.is_empty());

        let by_id: HashMap<u32, _> = data.spans.iter().map(|s| (s.id, s)).collect();
        for s in &data.spans {
            // Every span in this pipeline is closed, and runs forward.
            prop_assert!(s.end.is_finite(), "span {} left open", s.name);
            prop_assert!(s.end >= s.start - EPS, "span {} ends before it starts", s.name);
            // Children nest within their parents.
            if s.parent != 0 {
                let p = by_id.get(&s.parent).expect("parent span exists");
                prop_assert!(
                    s.start >= p.start - EPS && s.end <= p.end + EPS,
                    "span {} [{}, {}] escapes parent {} [{}, {}]",
                    s.name, s.start, s.end, p.name, p.start, p.end
                );
            }
        }

        // Cumulative storage counters never decrease per series.
        let mut last: HashMap<&str, f64> = HashMap::new();
        for c in &data.samples {
            let prev = last.insert(c.series.as_str(), c.total).unwrap_or(0.0);
            prop_assert!(c.total >= prev - EPS, "counter {} went backwards", c.series);
        }
    }
}
