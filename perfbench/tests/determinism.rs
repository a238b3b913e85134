//! Two runs of the same seed agree bit for bit on every deterministic
//! figure: simulated JCT and cost, the storage and journal byte and
//! record counts, and the joint optimizer's counters.

use ditto_perfbench::layers::{Layers, LAYERS};
use ditto_perfbench::sched::{Sched, SchedConfig};
use ditto_perfbench::tpcds::{Layout, Tpcds, TpcdsConfig};
use ditto_perfbench::trace::Tracer;
use ditto_perfbench::workload::Workload;

/// The metrics that must repeat exactly.
const DETERMINISTIC: &[&str] = &[
    "runner.tasks",
    "runner.max_dop",
    "storage.shm_bytes",
    "storage.ext_bytes",
    "storage.ext_objects",
    "storage.wire_per_logical",
    "journal.records",
    "journal.bytes",
    "core.rounds",
    "core.candidates",
    "core.commits",
    "core.dop_memo_hits",
];

/// One set-up plus one pass with per-layer samples; the deterministic
/// figures as bit patterns.
fn fingerprint(mut w: Box<dyn Workload>) -> Vec<(&'static str, u64)> {
    let tr = Tracer::off();
    let mut layers = Layers::default();
    layers.merge(&w.setup_layers());
    for i in 0..w.jobs() {
        assert!(
            w.run_job(i, &tr, Some(&mut layers)).ok,
            "job {i} answered wrong"
        );
    }
    let (checked, mismatches) = w.checks();
    assert!(checked > 0 && mismatches.is_empty(), "{mismatches:?}");
    let (jct, cost) = w.sim();
    assert!(jct > 0.0 && cost > 0.0);
    let mut out = vec![("sim_jct_s", jct.to_bits()), ("sim_cost", cost.to_bits())];
    for d in LAYERS.iter().filter(|d| DETERMINISTIC.contains(&d.name)) {
        out.push((d.name, layers.value(d).to_bits()));
    }
    out
}

fn tpcds(layout: Layout, seed: u64) -> Box<dyn Workload> {
    Box::new(Tpcds::setup(
        TpcdsConfig {
            layout,
            sf: 0.1,
            seed,
        },
        &Tracer::off(),
    ))
}

fn sched(seed: u64) -> Box<dyn Workload> {
    Box::new(Sched::setup(
        SchedConfig {
            stages: 64,
            jobs: 4,
            seed,
        },
        &Tracer::off(),
    ))
}

#[test]
fn tpcds_colocated_repeats_exactly() {
    let a = fingerprint(tpcds(Layout::Colocated, 7));
    assert_eq!(a, fingerprint(tpcds(Layout::Colocated, 7)));
}

#[test]
fn tpcds_remote_journaled_repeats_exactly() {
    let a = fingerprint(tpcds(Layout::RemoteJournaled, 7));
    assert_eq!(a, fingerprint(tpcds(Layout::RemoteJournaled, 7)));
    // Every shuffle crosses servers, and every job journals.
    let get = |k: &str| f64::from_bits(a.iter().find(|(n, _)| *n == k).expect("metric").1);
    assert_eq!(get("storage.shm_bytes"), 0.0);
    assert!(get("journal.records") > 0.0 && get("journal.bytes") > 0.0);
}

#[test]
fn sched_repeats_exactly() {
    let a = fingerprint(sched(3000));
    assert_eq!(a, fingerprint(sched(3000)));
}

#[test]
fn seeds_change_the_inputs() {
    assert_ne!(fingerprint(sched(3000)), fingerprint(sched(4000)));
}
