//! End-to-end and per-layer benchmark of the Ditto reproduction.
//!
//! One closed-loop client in one process: a single job is outstanding at
//! a time and the next is submitted when the previous one returns. Every
//! run executes the same fixed job sequence in whole passes — set-up ends
//! in a warm-up, then passes run until the time budget is spent — so the
//! deterministic figures (simulated JCT and cost, byte and record counts,
//! optimizer counters) compare bit for bit between runs.
//!
//! The untraced run gives the end-to-end metrics, raw and normalized to
//! the host's speed (see [`host`]). The traced run
//! alternates untraced and traced passes, records spans around every
//! layer call into an in-memory `ditto-obs` recorder, and reports the
//! per-layer metrics, the tracing overhead and a validated Chrome trace.
//! See `README.md` beside this crate for the workloads and the metric map.

pub mod host;
pub mod joint_probe;
pub mod layers;
pub mod sched;
pub mod stats;
pub mod tpcds;
pub mod trace;
pub mod workload;

use host::{Calibrator, Reading};
use layers::{Layers, RunnerSplit, LAYERS};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::Workload;

/// Set-ups per run; `setup_s` is their median time, host-normalized.
pub const SETUPS: usize = 3;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// TPC-DS mix, 2 × 8 slots, mostly shared-memory shuffles.
    TpcdsColocated,
    /// TPC-DS mix, 16 × 1 slot, object-store shuffles and a journal.
    TpcdsRemoteJournaled,
    /// 256-stage control-plane stream.
    Sched256,
}

impl WorkloadName {
    /// Every workload.
    pub const ALL: [WorkloadName; 3] = [
        WorkloadName::TpcdsColocated,
        WorkloadName::TpcdsRemoteJournaled,
        WorkloadName::Sched256,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadName::TpcdsColocated => "tpcds-colocated",
            WorkloadName::TpcdsRemoteJournaled => "tpcds-remote-journaled",
            WorkloadName::Sched256 => "sched-256",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<WorkloadName> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Set the workload up from `seed` at its benchmark size.
    pub fn setup(self, seed: u64, tr: &Tracer) -> Box<dyn Workload> {
        let tpcds = |layout| {
            let cfg = tpcds::TpcdsConfig {
                layout,
                sf: tpcds::SF,
                seed,
            };
            Box::new(tpcds::Tpcds::setup(cfg, tr)) as Box<dyn Workload>
        };
        match self {
            WorkloadName::TpcdsColocated => tpcds(tpcds::Layout::Colocated),
            WorkloadName::TpcdsRemoteJournaled => tpcds(tpcds::Layout::RemoteJournaled),
            WorkloadName::Sched256 => Box::new(sched::Sched::setup(
                sched::SchedConfig {
                    stages: sched::STAGES,
                    jobs: sched::JOBS,
                    // Seeds `n` and `n + 1` draw disjoint DAG sets.
                    seed: seed.wrapping_mul(1000),
                },
                tr,
            )),
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: WorkloadName,
    /// Workload seed.
    pub seed: u64,
    /// Time budget of the measured passes.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Where the traced run writes its Chrome trace and layer table.
    pub out_dir: PathBuf,
}

/// A finished run: what the client counted and what it prints.
#[derive(Debug, Clone)]
pub struct Report {
    /// Timed jobs plus the checks made outside the timed region.
    pub attempted: u64,
    /// Jobs that errored or answered wrong, plus failed checks.
    pub failed: u64,
    /// Whether every check passed.
    pub correct: bool,
    /// Result-line metrics: `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable report.
    pub text: String,
}

impl Report {
    /// The result line: one JSON object.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// What one pass or loop of passes measured.
#[derive(Debug, Default)]
struct Tally {
    latencies_ms: Vec<f64>,
    failed: u64,
}

impl Tally {
    fn pass(
        &mut self,
        w: &mut dyn Workload,
        tr: &Tracer,
        cal: &mut Calibrator,
        mut layers: Option<&mut Layers>,
    ) {
        for i in 0..w.jobs() {
            cal.maybe_sample();
            let out = w.run_job(i, tr, layers.as_deref_mut());
            self.latencies_ms.push(out.latency_s * 1e3);
            self.failed += u64::from(!out.ok);
        }
    }
}

/// What the set-ups left: the kept workload, each set-up's time, the
/// host kernel's reading around them, and the layers they exercised.
struct SetUp {
    workload: Box<dyn Workload>,
    times: Vec<f64>,
    host: Reading,
    layers: Layers,
}

/// `SETUPS` set-ups, each ending in a warm-up; the last one is kept. The
/// host kernel is sampled twice before each set-up and after the last.
fn set_up(args: &Args, tr: &Tracer, cal: &mut Calibrator) -> SetUp {
    let mut times = Vec::with_capacity(SETUPS);
    let mut layers = Layers::default();
    let mut kept: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        cal.sample();
        cal.sample();
        let t0 = Instant::now();
        let w = args.workload.setup(args.seed, tr);
        times.push(t0.elapsed().as_secs_f64());
        layers.merge(&w.setup_layers());
        kept = Some(w);
    }
    cal.sample();
    cal.sample();
    SetUp {
        workload: kept.expect("SETUPS > 0"),
        times,
        host: cal.finish_phase(),
        layers,
    }
}

/// Fold the checks made outside the timed region into the counts.
fn check(w: &dyn Workload, tallies: &[&Tally], text: &mut String) -> (u64, u64) {
    let (checked, mismatches) = w.checks();
    for m in &mismatches {
        let _ = writeln!(text, "MISMATCH: {m}");
    }
    let mut attempted = checked;
    let mut failed = mismatches.len() as u64;
    for t in tallies {
        attempted += t.latencies_ms.len() as u64;
        failed += t.failed;
    }
    (attempted, failed)
}

fn header(args: &Args, w: &dyn Workload) -> String {
    format!(
        "workload {}  seed {}  jobs/pass {}  host cores {}\n",
        args.workload.name(),
        args.seed,
        w.jobs(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    )
}

/// The end-to-end run.
pub fn run_untraced(args: &Args) -> Report {
    let tr = Tracer::off();
    let mut cal = Calibrator::default();
    let SetUp {
        workload: mut w,
        times: setup_times,
        host: setup_host,
        ..
    } = set_up(args, &tr, &mut cal);
    let mut text = header(args, w.as_ref());

    let budget = Duration::from_secs_f64(args.seconds);
    let mut tally = Tally::default();
    let mut passes = 0;
    let t0 = Instant::now();
    while passes == 0 || t0.elapsed() < budget {
        tally.pass(w.as_mut(), &tr, &mut cal, None);
        passes += 1;
    }
    let host = cal.finish_phase();
    let elapsed = t0.elapsed().as_secs_f64() - host.spent_s;
    let rss = stats::peak_rss_mb();
    let n = tally.latencies_ms.len();
    let (attempted, failed) = check(w.as_ref(), &[&tally], &mut text);

    let setup_raw = stats::median(&setup_times);
    let jobs_per_s = n as f64 / elapsed;
    let p50 = stats::quantile(&tally.latencies_ms, 0.5);
    let p90 = stats::quantile(&tally.latencies_ms, 0.9);
    let (sim_jct, sim_cost) = w.sim();
    let fail_frac = failed as f64 / attempted.max(1) as f64;

    let _ = writeln!(
        text,
        "end-to-end, untraced: {passes} passes, {n} timed jobs in {elapsed:.3} s\nraw:"
    );
    let row = |text: &mut String, name: &str, v: f64, unit: &str, note: &str| {
        let _ = writeln!(text, "  {name:<19} {v:>16.6} {unit:<6} {note}");
    };
    let setups: Vec<String> = setup_times.iter().map(|t| format!("{t:.3}")).collect();
    let setup_note = format!("median of {SETUPS} set-ups [{}]", setups.join(", "));
    row(&mut text, "setup_raw_s", setup_raw, "s", &setup_note);
    let n_note = format!("n={n}");
    row(&mut text, "jobs_per_s", jobs_per_s, "1/s", &n_note);
    let beyond = |q: usize| n - (n * q).div_ceil(10);
    let p50_note = format!("n={n}, {} beyond", beyond(5));
    row(&mut text, "latency_p50_ms", p50, "ms", &p50_note);
    let p90_note = format!("n={n}, {} beyond", beyond(9));
    row(&mut text, "latency_p90_ms", p90, "ms", &p90_note);
    let sim_note = format!(
        "mean over the {} schedules of a pass (deterministic)",
        w.jobs()
    );
    row(&mut text, "sim_jct_s", sim_jct, "s", &sim_note);
    row(
        &mut text,
        "sim_cost",
        sim_cost,
        "GB-s",
        "mean over the same schedules (deterministic)",
    );
    row(&mut text, "peak_rss_mb", rss, "MiB", "VmHWM");
    let fail_note = format!("{failed} of {attempted} jobs and checks");
    row(&mut text, "fail_frac", fail_frac, "", &fail_note);

    // Set-up runs on one thread; jobs may spawn threads.
    let (ks, k) = (setup_host.factor(false), host.factor(w.spawns_threads()));
    for (phase, r, f) in [("set-up", setup_host, ks), ("timed passes", host, k)] {
        let _ = writeln!(
            text,
            "host kernel over the {phase}: compute {:.4} ms, spawn {:.4} ms (medians of {}) -> x {f:.4}",
            r.compute_ms, r.spawn_ms, r.samples
        );
    }
    let _ = writeln!(
        text,
        "host-normalized (reference: compute {} ms, spawn {} ms):",
        host::COMPUTE_REFERENCE_MS,
        host::SPAWN_REFERENCE_MS
    );
    let metrics = vec![
        ("setup_s", setup_raw * ks, "s"),
        ("norm_jobs_per_s", jobs_per_s / k, "1/s"),
        ("norm_latency_p50_ms", p50 * k, "ms"),
        ("norm_latency_p90_ms", p90 * k, "ms"),
        ("peak_rss_mb", rss, "MiB"),
    ];
    let notes = [setup_note.as_str(), &n_note, &p50_note, &p90_note];
    for (&(name, v, unit), note) in metrics.iter().zip(notes) {
        row(&mut text, name, v, unit, note);
    }
    finish(attempted, failed, metrics, text)
}

/// The traced run: per-layer metrics, tracing overhead, Chrome trace.
pub fn run_traced(args: &Args) -> Report {
    let tr = Tracer::on();
    let mut cal = Calibrator::default();
    let SetUp {
        workload: mut w,
        mut layers,
        ..
    } = set_up(args, &tr, &mut cal);
    let mut text = header(args, w.as_ref());

    // Alternate untraced and traced passes so host drift hits both alike.
    let off = Tracer::off();
    let budget = Duration::from_secs_f64(args.seconds);
    let (mut plain, mut traced) = (Tally::default(), Tally::default());
    let t0 = Instant::now();
    while traced.latencies_ms.is_empty() || t0.elapsed() < budget {
        plain.pass(w.as_mut(), &off, &mut cal, None);
        traced.pass(w.as_mut(), &tr, &mut cal, Some(&mut layers));
    }
    let host = cal.finish_phase();
    layers.push("host.compute_ms", host.compute_ms);
    layers.push("host.spawn_ms", host.spawn_ms);
    let (attempted, failed) = check(w.as_ref(), &[&plain, &traced], &mut text);
    w.probe_joint(&tr, &mut layers);
    let (base, with) = (
        stats::median(&plain.latencies_ms),
        stats::median(&traced.latencies_ms),
    );
    layers.push("bench.trace_overhead_pct", (with - base) / base * 100.0);

    let _ = writeln!(
        text,
        "per-layer, traced: {} untraced + {} traced jobs; p50 {base:.4} ms untraced vs {with:.4} ms traced",
        plain.latencies_ms.len(),
        traced.latencies_ms.len()
    );
    let mut table = String::from("{\n");
    for (k, d) in LAYERS.iter().enumerate() {
        let v = layers.value(d);
        let n = layers.count(d.name);
        let _ = writeln!(
            text,
            "  {:<26} {v:>16.6} {:<6} n={n}{}",
            d.name,
            d.unit,
            if d.in_result { "" } else { "  (printed only)" }
        );
        let comma = if k + 1 < LAYERS.len() { "," } else { "" };
        let _ = writeln!(
            table,
            "  \"{}\": {{\"value\": {v:?}, \"unit\": \"{}\", \"samples\": {n}}}{comma}",
            d.name, d.unit
        );
    }
    table.push_str("}\n");

    // The runner split's parts are per-job means, so they add up exactly.
    let part = |name: &str| layers.value(LAYERS.iter().find(|d| d.name == name).expect("defined"));
    let split = RunnerSplit {
        wall_ms: part("runner.wall_ms"),
        crit_ms: part("runner.stage_crit_ms"),
        gap_ms: part("runner.stage_gap_ms"),
        skew_ms: part("runner.launch_skew_ms"),
        tail_ms: part("runner.tail_ms"),
    };
    if split.wall_ms > 0.0 {
        let _ = writeln!(
            text,
            "runner split (mean per job): wall {:.4} ms = stage_crit {:.4} + stage_gap {:.4} + launch_skew {:.4} + residual {:.4} (after the last stage); coord = wall - stage_crit = {:.4} ms",
            split.wall_ms, split.crit_ms, split.gap_ms, split.skew_ms, split.tail_ms, split.coord_ms()
        );
    }

    let mut correct_trace = true;
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    let written = std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))
        .and_then(|()| {
            std::fs::write(args.out_dir.join(format!("{stem}.layers.json")), &table)
                .map_err(|e| e.to_string())
        })
        .and_then(|()| tr.write_chrome(&args.out_dir.join(format!("{stem}.trace.json"))));
    match written {
        Ok((st, recorded)) => {
            let _ = writeln!(
                text,
                "chrome trace: {} events (first {} of {recorded} spans), schema-valid; written to {}",
                st.events,
                st.durations,
                args.out_dir.join(format!("{stem}.trace.json")).display()
            );
        }
        Err(e) => {
            correct_trace = false;
            let _ = writeln!(text, "TRACE ERROR: {e}");
        }
    }

    let metrics = LAYERS
        .iter()
        .filter(|d| d.in_result)
        .map(|d| (d.name, layers.value(d), d.unit))
        .collect();
    let mut report = finish(attempted, failed, metrics, text);
    report.correct &= correct_trace;
    report
}

fn finish(
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    text: String,
) -> Report {
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    Report {
        attempted,
        failed,
        correct: failed == 0 && finite,
        metrics: metrics
            .into_iter()
            .map(|(n, v, u)| (n, if v.is_finite() { v } else { 0.0 }, u))
            .collect(),
        text,
    }
}
