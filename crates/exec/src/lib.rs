#![warn(missing_docs)]

//! # ditto-exec — execution engines for scheduled jobs
//!
//! Two execution paths, sharing the `Schedule` produced by `ditto-core`:
//!
//! * **Simulation** ([`sim`]): a discrete-event simulator that plays a
//!   schedule against a *ground-truth* performance model
//!   ([`groundtruth`]) — per-task data skew, deterministic straggler
//!   noise, medium-dependent transfer times (shared memory / Redis / S3).
//!   The ground truth deliberately differs from the scheduler's fitted
//!   `α/d + β` model the way reality differs from a regression: that gap
//!   is what the paper's Fig. 11 measures. The simulator yields the JCT,
//!   cost and per-task timeline ([`trace`]) behind every evaluation
//!   figure. [`run`] is its one entry point: a [`RunSpec`] adds faults
//!   and recovery, replanning ([`Replan`]: failover or adaptive), a
//!   telemetry recorder and a write-ahead journal ([`journal`]), each
//!   optional; [`simulate`] and [`try_simulate`] are the plain run.
//! * **Local runtime** ([`runner`]): a real multi-threaded executor that
//!   physically runs a `ditto-sql` query plan under a schedule — tasks on
//!   worker threads, intermediate tables encoded through the
//!   `ditto-storage` data plane (zero-copy shared-memory bus when the
//!   schedule co-locates, object store otherwise). It exists to prove the
//!   scheduling machinery drives a working analytics system, and to
//!   cross-check distributed results against single-threaded references.
//!
//! Both engines consume the same fault vocabulary ([`faults`]): a
//! deterministic seed-driven [`FaultPlan`] (task crashes, stragglers,
//! whole-server failures) plus a [`RecoveryPolicy`] (bounded retry with
//! backoff, speculative re-execution, failure-aware rescheduling through
//! the joint optimizer). Typed failures are [`error::ExecError`].
//!
//! [`profile`] generates recurring-job profiles by "running" stages at a
//! few DoPs in the simulator — the input to `ditto-timemodel`'s fitting
//! (Table 2) and the accuracy experiment (Fig. 11).

pub mod adaptive;
pub mod error;
pub mod explore;
pub mod faults;
pub mod groundtruth;
pub mod journal;
pub mod metrics;
pub mod multi;
pub mod profile;
pub(crate) mod queue;
pub mod runner;
pub mod sim;
pub mod trace;

pub use adaptive::{AdaptiveConfig, ReplanRecord, ReplanTrigger};
pub use error::ExecError;
pub use explore::{explore_random_dags, explore_schedule, Divergence, ExploreConfig, ExploreOutcome};
pub use faults::{
    AttemptOutcome, AttemptRecord, FaultEvent, FaultPlan, FaultRates, FaultStats, RecoveryPolicy,
    ReschedulingContext,
};
pub use groundtruth::{ExecConfig, GroundTruth};
pub use journal::{
    compact_journal, cross_check, decode_journal, recover, schedule_fingerprint, validate_journal,
    DecodedJournal, EngineKind, JournalRecord, JournalSession, JournalWriter, LineageHit,
    ResumedJob, StageCheckpoint, TornReason, TornTail,
};
pub use metrics::JobMetrics;
pub use profile::profile_job;
pub use runner::LocalRuntime;
pub use sim::{run, simulate, try_simulate, Replan, RunSpec};
pub use trace::{ExecutionTrace, StageBreakdown, TaskTrace};
