//! Per-layer metrics: their definitions, per-job samples and the runner
//! wall-time decomposition.
//!
//! Every number here is measured from outside its layer, by timing calls
//! into the layer's public functions or by reading the public records a
//! call returns (`RunOutput`, `RuntimeMonitor`, `TransferLedger`,
//! `JournalSession`, `JointStats`).

use crate::stats;
use ditto_cluster::TaskRecord;
use std::collections::BTreeMap;

/// How a metric's per-job samples reduce to one value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Median over jobs (times).
    Median,
    /// Mean over jobs: counts, which repeat exactly from run to run over
    /// the fixed sequence, and the runner split, whose parts must add up
    /// to its wall time (means add; medians do not).
    Mean,
}

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct LayerDef {
    /// Metric name, `<layer>.<quantity>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Reduction over jobs.
    pub agg: Agg,
    /// Whether the metric goes into the result line (`per_layer` in
    /// `BENCHMARK.json`). Times that only the TPC-DS workloads exercise
    /// are printed in the layer table but kept out of the result line,
    /// where they would read a constant 0 on `sched-256`.
    pub in_result: bool,
}

const fn def(name: &'static str, unit: &'static str, agg: Agg, in_result: bool) -> LayerDef {
    LayerDef {
        name,
        unit,
        agg,
        in_result,
    }
}

use Agg::{Mean, Median};

/// Every per-layer metric, in print order.
pub const LAYERS: &[LayerDef] = &[
    // ditto-exec::runner
    def("runner.wall_ms", "ms", Mean, false),
    def("runner.stage_crit_ms", "ms", Mean, false),
    def("runner.stage_gap_ms", "ms", Mean, false),
    def("runner.launch_skew_ms", "ms", Mean, false),
    def("runner.tail_ms", "ms", Mean, false),
    def("runner.coord_ms", "ms", Mean, false),
    def("runner.tasks", "count", Mean, true),
    def("runner.max_dop", "count", Mean, true),
    // ditto-sql kernels, codec and ditto-storage::dataplane
    def("sql.compute_ms", "ms", Median, false),
    def("runner.read_ms", "ms", Median, false),
    def("runner.write_ms", "ms", Median, false),
    def("storage.shm_bytes", "bytes", Mean, true),
    def("storage.ext_bytes", "bytes", Mean, true),
    def("storage.ext_objects", "count", Mean, true),
    def("storage.wire_per_logical", "ratio", Mean, true),
    // ditto-exec::journal
    def("journal.records", "count", Mean, true),
    def("journal.bytes", "bytes", Mean, true),
    def("journal.recover_ms", "ms", Median, false),
    // ditto-sql::datagen and set-up
    def("sql.datagen_s", "s", Median, false),
    def("setup.schedule_ms", "ms", Median, false),
    def("setup.profile_ms", "ms", Median, false),
    // ditto-exec::profile + ditto-timemodel
    def("timemodel.profile_fit_ms", "ms", Median, true),
    // ditto-core::joint
    def("core.joint_ms", "ms", Median, true),
    def("core.rounds", "count", Mean, true),
    def("core.candidates", "count", Mean, true),
    def("core.commits", "count", Mean, true),
    def("core.dop_memo_hits", "count", Mean, true),
    def("core.us_per_candidate", "us", Median, true),
    def("core.joint_cost_obj_ms", "ms", Median, true),
    // ditto-exec::sim, ditto-audit
    def("sim.ms", "ms", Median, true),
    def("audit.structure_ms", "ms", Median, true),
    // ditto-obs
    def("obs.joint_overhead_pct", "%", Median, true),
    def("bench.trace_overhead_pct", "%", Median, true),
    // the host itself
    def("host.compute_ms", "ms", Median, true),
    def("host.spawn_ms", "ms", Median, true),
];

/// Per-job samples of every layer metric.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Record one sample of metric `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            LAYERS.iter().any(|d| d.name == name),
            "unknown metric {name}"
        );
        self.samples.entry(name).or_default().push(value);
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &Layers) {
        for (name, v) in &other.samples {
            self.samples.entry(name).or_default().extend_from_slice(v);
        }
    }

    /// Samples recorded for `name`.
    pub fn count(&self, name: &str) -> usize {
        self.samples.get(name).map_or(0, Vec::len)
    }

    /// The metric's value: its samples reduced by the metric's [`Agg`];
    /// 0 for a layer this workload never enters.
    pub fn value(&self, def: &LayerDef) -> f64 {
        let v = self.samples.get(def.name).map_or(&[][..], Vec::as_slice);
        match def.agg {
            Agg::Median => stats::median(v),
            Agg::Mean => stats::mean(v),
        }
    }
}

/// One job's runner wall time split into parts that sum to it exactly.
///
/// Stages run one after another behind a barrier. For stage `s` with
/// first task start `f`, last task end `e` and slowest task duration `c`:
/// `gap = f − e(previous stage)` (thread spawn, join, barrier, journal
/// append), `crit = c`, `skew = (e − f) − c` (how late the slowest task
/// launched). `tail` is what follows the last stage (combining partials).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunnerSplit {
    /// `RunOutput::wall_seconds`, ms.
    pub wall_ms: f64,
    /// Sum over stages of the slowest task, ms.
    pub crit_ms: f64,
    /// Sum over stages of the gap before the stage's first launch, ms.
    pub gap_ms: f64,
    /// Sum over stages of launch skew, ms.
    pub skew_ms: f64,
    /// Wall time after the last stage ended: the stated residual, ms.
    pub tail_ms: f64,
}

impl RunnerSplit {
    /// Decompose a run from its task records (times relative to job start).
    pub fn from_records(records: &[TaskRecord], wall_s: f64) -> RunnerSplit {
        let mut by_stage: BTreeMap<u32, (f64, f64, f64)> = BTreeMap::new();
        for r in records {
            let e = by_stage
                .entry(r.stage)
                .or_insert((f64::INFINITY, f64::NEG_INFINITY, 0.0));
            e.0 = e.0.min(r.start);
            e.1 = e.1.max(r.end);
            e.2 = f64::max(e.2, r.duration());
        }
        // Stages execute in sequence; order them by first launch.
        let mut stages: Vec<(f64, f64, f64)> = by_stage.into_values().collect();
        stages.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut split = RunnerSplit {
            wall_ms: wall_s * 1e3,
            ..RunnerSplit::default()
        };
        let mut prev_end = 0.0;
        for (first, last_end, crit) in stages {
            split.gap_ms += (first - prev_end) * 1e3;
            split.crit_ms += crit * 1e3;
            split.skew_ms += (last_end - first - crit) * 1e3;
            prev_end = last_end;
        }
        split.tail_ms = (wall_s - prev_end) * 1e3;
        split
    }

    /// `wall − crit`: everything in the run that is not the slowest task
    /// of a stage.
    pub fn coord_ms(&self) -> f64 {
        self.wall_ms - self.crit_ms
    }

    /// Record the split's parts as samples.
    pub fn push_into(&self, layers: &mut Layers) {
        layers.push("runner.wall_ms", self.wall_ms);
        layers.push("runner.stage_crit_ms", self.crit_ms);
        layers.push("runner.stage_gap_ms", self.gap_ms);
        layers.push("runner.launch_skew_ms", self.skew_ms);
        layers.push("runner.tail_ms", self.tail_ms);
        layers.push("runner.coord_ms", self.coord_ms());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ditto_cluster::ServerId;
    use ditto_obs::StepTimings;

    fn rec(stage: u32, start: f64, end: f64) -> TaskRecord {
        TaskRecord {
            stage,
            task: 0,
            server: ServerId(0),
            start,
            end,
            steps: StepTimings::default(),
            bytes_read: 0,
            bytes_written: 0,
        }
    }

    #[test]
    fn split_parts_sum_to_wall() {
        let recs = [
            rec(0, 0.001, 0.004),
            rec(0, 0.002, 0.004),
            rec(1, 0.005, 0.009),
            rec(1, 0.006, 0.008),
        ];
        let s = RunnerSplit::from_records(&recs, 0.010);
        let sum = s.crit_ms + s.gap_ms + s.skew_ms + s.tail_ms;
        assert!((sum - s.wall_ms).abs() < 1e-9, "{s:?}");
        assert!((s.crit_ms - 7.0).abs() < 1e-9);
        assert!((s.gap_ms - 2.0).abs() < 1e-9);
        assert!((s.tail_ms - 1.0).abs() < 1e-9);
        assert!((s.coord_ms() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn every_metric_is_defined_once() {
        let mut names: Vec<&str> = LAYERS.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LAYERS.len());
    }
}
