//! What the closed-loop client drives: a fixed sequence of jobs.

use crate::layers::Layers;
use crate::trace::Tracer;

/// The client's view of one finished job.
#[derive(Debug, Clone, Copy)]
pub struct JobOutcome {
    /// Submission to return, seconds. Excludes the client's answer check
    /// and any per-layer measurement made after the job returned.
    pub latency_s: f64,
    /// The job returned and its answer matched the validated one.
    pub ok: bool,
}

/// A workload after set-up: a fixed job sequence with validated answers.
pub trait Workload {
    /// Jobs in one pass of the fixed sequence.
    fn jobs(&self) -> usize;

    /// Whether a job spawns threads, which picks the host reference its
    /// times are normalized by (see `host`).
    fn spawns_threads(&self) -> bool;

    /// Run job `i` of the sequence and check its answer. With `layers`,
    /// also record the job's per-layer samples (outside its latency).
    fn run_job(&mut self, i: usize, tr: &Tracer, layers: Option<&mut Layers>) -> JobOutcome;

    /// Mean simulated JCT (s) and cost (GB-s) at paper scale of the
    /// schedules one pass runs. Deterministic.
    fn sim(&self) -> (f64, f64);

    /// Checks made outside the timed region — oracle answers at set-up,
    /// schedule certificates after the timed passes: how many were made,
    /// and the mismatches found.
    fn checks(&self) -> (u64, Vec<String>);

    /// Samples of the layers set-up exercised.
    fn setup_layers(&self) -> Layers {
        Layers::default()
    }

    /// Off-path probes for the traced run: the joint optimizer with an
    /// enabled vs a disabled `Recorder`, and under `Objective::Cost`, on
    /// this workload's DAGs.
    fn probe_joint(&self, tr: &Tracer, layers: &mut Layers);
}
