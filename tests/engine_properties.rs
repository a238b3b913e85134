//! Property-based tests of the SQL engine and the simulator.

use ditto::exec::{simulate, ExecConfig, GroundTruth};
use ditto::sql::ops::{distinct, group_by, hash_join, sort_limit, AggSpec, JoinKind, SortOrder};
use ditto::sql::ops::group_by::AggFunc;
use ditto::sql::{Column, Table};
use ditto::sql::table::Schema;
use ditto::sql::column::DataType;
use proptest::prelude::*;

fn arb_table() -> impl Strategy<Value = Table> {
    (1usize..60).prop_flat_map(|n| {
        (
            proptest::collection::vec(0i64..20, n),
            proptest::collection::vec(-100.0f64..100.0, n),
        )
            .prop_map(|(keys, vals)| {
                Table::new(
                    Schema::new(&[("k", DataType::I64), ("v", DataType::F64)]),
                    vec![Column::I64(keys), Column::F64(vals)],
                )
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Codec roundtrip: encode/decode is the identity.
    #[test]
    fn codec_roundtrip(t in arb_table()) {
        prop_assert_eq!(Table::decode(t.encode()), t);
    }

    /// Hash partitioning is a partition: no row lost, none duplicated,
    /// and equal keys land together.
    #[test]
    fn hash_partition_is_partition(t in arb_table(), parts in 1usize..8) {
        let buckets = t.hash_partition("k", parts);
        let total: usize = buckets.iter().map(|b| b.num_rows()).sum();
        prop_assert_eq!(total, t.num_rows());
        // Each key appears in exactly one bucket.
        for key in 0i64..20 {
            let holders = buckets
                .iter()
                .filter(|b| b.column_req("k").as_i64().contains(&key))
                .count();
            prop_assert!(holders <= 1, "key {key} in {holders} buckets");
        }
    }

    /// Distributed group-by (partition → local group-by → concat) equals
    /// the single-shot group-by, up to row order.
    #[test]
    fn distributed_group_by_equals_local(t in arb_table(), parts in 1usize..6) {
        let whole = group_by(&t, &["k"], &[AggSpec::new(AggFunc::Sum, "v", "s")], None);
        let buckets = t.hash_partition("k", parts);
        let partials: Vec<Table> = buckets
            .iter()
            .map(|b| group_by(b, &["k"], &[AggSpec::new(AggFunc::Sum, "v", "s")], None))
            .collect();
        let merged = Table::concat(&partials).unwrap();
        // Compare as key → sum maps.
        let to_map = |t: &Table| -> std::collections::HashMap<i64, f64> {
            t.column_req("k")
                .as_i64()
                .iter()
                .copied()
                .zip(t.column_req("s").as_f64().iter().copied())
                .collect()
        };
        let (a, b) = (to_map(&whole), to_map(&merged));
        prop_assert_eq!(a.len(), b.len());
        for (k, v) in a {
            let w = b[&k];
            prop_assert!((v - w).abs() < 1e-9 * v.abs().max(1.0));
        }
    }

    /// Semi + anti join partition the left side.
    #[test]
    fn semi_anti_partition_left(l in arb_table(), r in arb_table()) {
        let semi = hash_join(&l, &r, "k", "k", JoinKind::LeftSemi);
        let anti = hash_join(&l, &r, "k", "k", JoinKind::LeftAnti);
        prop_assert_eq!(semi.num_rows() + anti.num_rows(), l.num_rows());
    }

    /// Inner join row count equals the Σ over keys of count products.
    #[test]
    fn inner_join_cardinality(l in arb_table(), r in arb_table()) {
        let j = hash_join(&l, &r, "k", "k", JoinKind::Inner);
        let count = |t: &Table, key: i64| t.column_req("k").as_i64().iter().filter(|&&x| x == key).count();
        let expect: usize = (0i64..20).map(|k| count(&l, k) * count(&r, k)).sum();
        prop_assert_eq!(j.num_rows(), expect);
    }

    /// sort_limit returns a sorted prefix of the right length.
    #[test]
    fn sort_limit_sorted_prefix(t in arb_table(), limit in 0usize..80) {
        let s = sort_limit(&t, "v", SortOrder::Asc, limit);
        prop_assert_eq!(s.num_rows(), limit.min(t.num_rows()));
        let vals = s.column_req("v").as_f64();
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    /// distinct yields unique rows covering every input key.
    #[test]
    fn distinct_covers_keys(t in arb_table()) {
        let d = distinct(&t, &["k"]);
        let keys = d.column_req("k").as_i64();
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), keys.len(), "no duplicates");
        for k in t.column_req("k").as_i64() {
            prop_assert!(keys.contains(k));
        }
    }

    /// Simulation invariants over random DAGs: tasks respect stage
    /// dependencies; JCT equals the latest task end; cost is positive.
    #[test]
    fn simulation_respects_dependencies(seed in 0u64..200, stages in 3usize..12) {
        use ditto::core::baselines::EvenSplitScheduler;
        use ditto::core::{Objective, Scheduler, SchedulingContext};
        let dag = ditto::dag::generators::random_dag(
            seed,
            &ditto::dag::generators::RandomDagConfig { stages, layers: 3, ..Default::default() },
        );
        let model = ditto::timemodel::JobTimeModel::from_rates(
            &dag,
            &ditto::timemodel::model::RateConfig::default(),
        );
        let rm = ditto::cluster::ResourceManager::from_free_slots(vec![24, 24, 24]);
        let schedule = EvenSplitScheduler.schedule(&SchedulingContext {
            dag: &dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        });
        let (trace, metrics) = simulate(&dag, &schedule, &GroundTruth::new(ExecConfig::default()));
        for e in dag.edges() {
            let src_end = trace.stage_end(e.src.0);
            for t in trace.tasks.iter().filter(|t| t.stage == e.dst.0) {
                prop_assert!(t.read_start >= src_end - 1e-9);
            }
        }
        prop_assert!((metrics.jct - trace.jct()).abs() < 1e-9);
        prop_assert!(metrics.compute_cost > 0.0);
    }
}

// Fault-injection properties run the physical executor, so they use far
// fewer cases than the pure-engine block above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any recoverable fault plan (a crash + a straggler, arbitrary
    /// placement) leaves the local runner's final table byte-identical to
    /// the fault-free run.
    #[test]
    fn recovered_run_is_byte_identical(
        crash_stage in 0u32..4,
        crash_task in 0u32..3,
        slow_stage in 0u32..4,
        slowdown in 2.0f64..8.0,
    ) {
        use ditto::core::baselines::EvenSplitScheduler;
        use ditto::core::{Objective, Scheduler, SchedulingContext};
        use ditto::exec::{FaultEvent, FaultPlan, LocalRuntime, RecoveryPolicy};
        use ditto::sql::queries::Query;
        use ditto::sql::{Database, ScaleConfig};
        use ditto::storage::{DataPlane, Medium};
        let db = Database::generate(ScaleConfig::with_sf(0.1));
        let plan = Query::Q1.prepared_plan(&db);
        let model = ditto::timemodel::JobTimeModel::from_rates(
            &plan.dag,
            &ditto::timemodel::model::RateConfig::default(),
        );
        let rm = ditto::cluster::ResourceManager::from_free_slots(vec![8, 8]);
        let schedule = EvenSplitScheduler.schedule(&SchedulingContext {
            dag: &plan.dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        });
        let clean = LocalRuntime::new()
            .try_run(&plan, &db, &schedule, &DataPlane::new(Medium::S3, 2))
            .unwrap();
        // Fault targets wrap into the DAG; events naming a task index
        // beyond a stage's DoP simply never fire, which must also be safe.
        let stages = plan.dag.num_stages() as u32;
        let faulty = LocalRuntime {
            faults: FaultPlan::from_events(vec![
                FaultEvent::TaskCrash {
                    stage: ditto::dag::StageId(crash_stage % stages),
                    task: crash_task,
                    attempt: 0,
                    at_fraction: 0.5,
                },
                FaultEvent::Straggler {
                    stage: ditto::dag::StageId(slow_stage % stages),
                    task: 0,
                    slowdown,
                },
            ]),
            recovery: RecoveryPolicy::default(),
            ..Default::default()
        }
        .try_run(&plan, &db, &schedule, &DataPlane::new(Medium::S3, 2))
        .unwrap();
        prop_assert_eq!(faulty.result.encode(), clean.result.encode());
    }

    /// Simulated JCT is monotonically non-decreasing in the number of
    /// injected task crashes (under plain bounded retry).
    #[test]
    fn sim_jct_monotone_in_fault_count(
        fracs in proptest::collection::vec(0.05f64..0.95, 6),
    ) {
        use ditto::core::baselines::EvenSplitScheduler;
        use ditto::core::{Objective, Scheduler, SchedulingContext};
        use ditto::exec::{run, FaultEvent, FaultPlan, RecoveryPolicy, RunSpec};
        let dag = ditto::dag::generators::fig1_join();
        let model = ditto::timemodel::JobTimeModel::from_rates(
            &dag,
            &ditto::timemodel::model::RateConfig::default(),
        );
        let rm = ditto::cluster::ResourceManager::from_free_slots(vec![16, 16]);
        let schedule = EvenSplitScheduler.schedule(&SchedulingContext {
            dag: &dag,
            model: &model,
            resources: &rm,
            objective: Objective::Jct,
        });
        let gt = GroundTruth::new(ExecConfig::default());
        let pool: Vec<FaultEvent> = fracs
            .iter()
            .enumerate()
            .map(|(i, &at_fraction)| FaultEvent::TaskCrash {
                stage: ditto::dag::StageId(i as u32 / 2),
                task: i as u32 % 2,
                attempt: 0,
                at_fraction,
            })
            .collect();
        let mut last = 0.0_f64;
        for k in 0..=pool.len() {
            let spec = RunSpec {
                faults: FaultPlan::from_events(pool[..k].to_vec()),
                recovery: RecoveryPolicy::retry_only(),
                ..RunSpec::default()
            };
            let (_, m) = run(&dag, &schedule, &gt, spec).unwrap();
            prop_assert!(
                m.jct >= last - 1e-9,
                "jct dropped from {} to {} at {} crashes",
                last,
                m.jct,
                k
            );
            last = m.jct;
        }
    }
}
