//! Off-path timings of `ditto-core::joint` on a workload's DAGs.

use crate::layers::Layers;
use crate::stats;
use crate::trace::{self, Tracer};
use ditto_cluster::ResourceManager;
use ditto_core::{joint_optimize_with_stats, JointOptions, Objective};
use ditto_dag::JobDag;
use ditto_obs::{Recorder, SpanId};
use ditto_timemodel::JobTimeModel;
use std::time::Instant;

fn joint_ms(
    dag: &JobDag,
    model: &JobTimeModel,
    rm: &ResourceManager,
    objective: Objective,
    obs: &Recorder,
) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(joint_optimize_with_stats(
        dag,
        model,
        rm,
        objective,
        &JointOptions::default(),
        obs,
    ));
    t0.elapsed().as_secs_f64() * 1e3
}

/// For each `(dag, model)`: `reps` alternating JCT-objective calls with a
/// disabled and an enabled recorder (`obs.joint_overhead_pct` is the
/// median over DAGs of the per-DAG overhead of the medians), and `reps`
/// cost-objective calls (`core.joint_cost_obj_ms`, one sample per call).
pub fn probe(
    cases: &[(&JobDag, &JobTimeModel)],
    rm: &ResourceManager,
    reps: usize,
    tr: &Tracer,
    layers: &mut Layers,
) {
    let span = tr.begin(
        "bench.joint_probe",
        trace::client(0),
        SpanId::NONE,
        Vec::new(),
    );
    let off = Recorder::disabled();
    for &(dag, model) in cases {
        let (mut plain, mut traced) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
        for _ in 0..reps {
            plain.push(joint_ms(dag, model, rm, Objective::Jct, &off));
            traced.push(joint_ms(dag, model, rm, Objective::Jct, &Recorder::new()));
            layers.push(
                "core.joint_cost_obj_ms",
                joint_ms(dag, model, rm, Objective::Cost, &off),
            );
        }
        let base = stats::median(&plain);
        layers.push(
            "obs.joint_overhead_pct",
            (stats::median(&traced) - base) / base * 100.0,
        );
    }
    tr.end(span);
}
