//! Synthetic TPC-DS-like database generator.
//!
//! The paper runs TPC-DS at scale factor 1000 (≈1 TB). Neither the data
//! nor a cluster that could hold it is available here, so this generator
//! produces a *scaled-down structural equivalent*: the same tables the four
//! evaluated queries touch, with
//!
//! * the benchmark's **relative table sizes** (fact tables ≫ dimensions),
//! * **skewed foreign keys** (Zipf-distributed warehouse/store/address
//!   references — the data skew the paper's straggler scaling factor
//!   exists for), and
//! * the **selectivity structure** the queries exploit (date ranges that
//!   keep a few percent of a fact table, states that keep ~1/20 of
//!   addresses, multi-warehouse orders for Q95's `ws_wh`).
//!
//! Absolute row counts are laptop-scale: `sf = 1.0` yields ~130k fact rows,
//! generated in tens of milliseconds. The simulator scales *byte volumes*
//! up to paper magnitudes separately (see `QueryPlan::scale_volumes`), so
//! scheduling behaves as if the data were TB-sized while execution stays
//! testable.

use crate::column::{Column, DataType};
use crate::table::{Schema, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Zipf};
use std::collections::HashMap;

/// US state mnemonics used for dimension attributes.
const STATES: &[&str] = &[
    "TN", "CA", "NY", "GA", "TX", "WA", "OR", "IL", "OH", "FL", "PA", "MI", "NC", "VA", "NJ",
    "MA", "AZ", "CO", "MN", "WI",
];

const COUNTIES: &[&str] = &[
    "Williamson County",
    "Ziebach County",
    "Walker County",
    "Daviess County",
    "Barrow County",
    "Luce County",
    "Richland County",
    "Oglethorpe County",
];

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// Scale factor: 1.0 ≈ 130k fact rows total.
    pub sf: f64,
    /// RNG seed; identical configs generate identical databases.
    pub seed: u64,
    /// Zipf exponent for foreign-key skew (≈1.1 matches retail data).
    pub skew: f64,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            sf: 1.0,
            seed: 20230910, // SIGCOMM '23 started Sept 10
            skew: 1.1,
        }
    }
}

impl ScaleConfig {
    /// A config with the given scale factor and default seed/skew.
    pub fn with_sf(sf: f64) -> Self {
        ScaleConfig {
            sf,
            ..Default::default()
        }
    }

    fn rows(&self, base: usize) -> usize {
        ((base as f64 * self.sf).round() as usize).max(8)
    }
}

/// The generated database: named tables.
#[derive(Debug, Clone)]
pub struct Database {
    tables: HashMap<String, Table>,
    /// The config used to generate it.
    pub config: ScaleConfig,
}

impl Database {
    /// Generate the full database.
    pub fn generate(config: ScaleConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut tables = HashMap::new();

        // ---- dimensions (unscaled or lightly scaled) ----
        let n_dates = 2000usize; // ~5.5 years of days
        tables.insert("date_dim".into(), gen_date_dim(n_dates));

        let n_addr = config.rows(5000);
        tables.insert("customer_address".into(), gen_addresses(n_addr, &mut rng));

        let n_cust = config.rows(10_000);
        tables.insert("customer".into(), gen_customers(n_cust, n_addr, &mut rng));

        tables.insert("store".into(), gen_stores(20, &mut rng));
        tables.insert("call_center".into(), gen_call_centers(8, &mut rng));
        tables.insert("web_site".into(), gen_web_sites(12, &mut rng));
        tables.insert("warehouse".into(), gen_warehouses(10, &mut rng));

        let n_items = config.rows(1000);
        tables.insert("item".into(), gen_items(n_items, &mut rng));

        // ---- facts ----
        let cfg = &config;
        let ws = gen_web_sales(cfg.rows(30_000), n_dates, n_addr, 12, 10, cfg.skew, &mut rng);
        let wr = gen_returns("wr_order_number", &ws, "ws_order_number", 0.10, &mut rng);
        tables.insert("web_sales".into(), ws);
        tables.insert("web_returns".into(), wr);

        let cs = gen_catalog_sales(cfg.rows(40_000), n_dates, n_addr, 8, 10, cfg.skew, &mut rng);
        let cr = gen_returns("cr_order_number", &cs, "cs_order_number", 0.08, &mut rng);
        tables.insert("catalog_sales".into(), cs);
        tables.insert("catalog_returns".into(), cr);

        tables.insert(
            "store_sales".into(),
            gen_store_sales(cfg.rows(60_000), n_dates, n_cust, 20, n_items, cfg.skew, &mut rng),
        );
        tables.insert(
            "store_returns".into(),
            gen_store_returns(cfg.rows(6_000), n_dates, n_cust, 20, cfg.skew, &mut rng),
        );

        Database {
            tables,
            config,
        }
    }

    /// A table by name.
    ///
    /// # Panics
    /// Panics on unknown table names (generation is total over the schema).
    pub fn table(&self, name: &str) -> &Table {
        self.tables
            .get(name)
            .unwrap_or_else(|| panic!("unknown table {name:?}"))
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.tables.keys().map(|s| s.as_str()).collect();
        v.sort_unstable();
        v
    }

    /// Total bytes across all tables.
    pub fn total_bytes(&self) -> u64 {
        self.tables.values().map(|t| t.byte_size()).sum()
    }
}

/// Zipf over keys `1..=n`. Building one costs an O(n) CDF, so each table
/// generator builds its distributions once; construction draws no
/// randomness, so sharing them leaves the sample stream unchanged.
fn zipf(n: usize, skew: f64) -> Zipf {
    Zipf::new(n as u64, skew).expect("valid zipf")
}

fn zipf_key(rng: &mut StdRng, z: &Zipf) -> i64 {
    z.sample(rng) as i64
}

fn gen_date_dim(n: usize) -> Table {
    // Day i: year 1998 + i/365, month 1 + (i/30)%12.
    let sk: Vec<i64> = (1..=n as i64).collect();
    let year: Vec<i64> = (0..n).map(|i| 1998 + (i / 365) as i64).collect();
    let moy: Vec<i64> = (0..n).map(|i| 1 + ((i / 30) % 12) as i64).collect();
    Table::new(
        Schema::new(&[
            ("d_date_sk", DataType::I64),
            ("d_year", DataType::I64),
            ("d_moy", DataType::I64),
        ]),
        vec![Column::I64(sk), Column::I64(year), Column::I64(moy)],
    )
}

fn gen_addresses(n: usize, rng: &mut StdRng) -> Table {
    let sk: Vec<i64> = (1..=n as i64).collect();
    let state: Vec<String> = (0..n)
        .map(|_| STATES[rng.gen_range(0..STATES.len())].to_string())
        .collect();
    Table::new(
        Schema::new(&[("ca_address_sk", DataType::I64), ("ca_state", DataType::Str)]),
        vec![Column::I64(sk), Column::Str(state)],
    )
}

fn gen_customers(n: usize, n_addr: usize, rng: &mut StdRng) -> Table {
    let sk: Vec<i64> = (1..=n as i64).collect();
    let addr: Vec<i64> = (0..n).map(|_| rng.gen_range(1..=n_addr as i64)).collect();
    Table::new(
        Schema::new(&[
            ("c_customer_sk", DataType::I64),
            ("c_current_addr_sk", DataType::I64),
        ]),
        vec![Column::I64(sk), Column::I64(addr)],
    )
}

fn gen_stores(n: usize, rng: &mut StdRng) -> Table {
    let sk: Vec<i64> = (1..=n as i64).collect();
    let state: Vec<String> = (0..n)
        .map(|i| {
            // Guarantee several TN stores (Q1 filters on TN).
            if i % 4 == 0 {
                "TN".to_string()
            } else {
                STATES[rng.gen_range(0..STATES.len())].to_string()
            }
        })
        .collect();
    Table::new(
        Schema::new(&[("s_store_sk", DataType::I64), ("s_state", DataType::Str)]),
        vec![Column::I64(sk), Column::Str(state)],
    )
}

fn gen_call_centers(n: usize, rng: &mut StdRng) -> Table {
    let sk: Vec<i64> = (1..=n as i64).collect();
    let county: Vec<String> = (0..n)
        .map(|_| COUNTIES[rng.gen_range(0..COUNTIES.len())].to_string())
        .collect();
    Table::new(
        Schema::new(&[
            ("cc_call_center_sk", DataType::I64),
            ("cc_county", DataType::Str),
        ]),
        vec![Column::I64(sk), Column::Str(county)],
    )
}

fn gen_web_sites(n: usize, rng: &mut StdRng) -> Table {
    let sk: Vec<i64> = (1..=n as i64).collect();
    let company: Vec<String> = (0..n).map(|_| format!("pri-{}", rng.gen_range(0..4))).collect();
    Table::new(
        Schema::new(&[
            ("web_site_sk", DataType::I64),
            ("web_company_name", DataType::Str),
        ]),
        vec![Column::I64(sk), Column::Str(company)],
    )
}

fn gen_warehouses(n: usize, rng: &mut StdRng) -> Table {
    let sk: Vec<i64> = (1..=n as i64).collect();
    let state: Vec<String> = (0..n)
        .map(|_| STATES[rng.gen_range(0..STATES.len())].to_string())
        .collect();
    Table::new(
        Schema::new(&[("w_warehouse_sk", DataType::I64), ("w_state", DataType::Str)]),
        vec![Column::I64(sk), Column::Str(state)],
    )
}

/// Web sales: several line items per order; ~15 % of orders ship from more
/// than one warehouse (Q95's `ws_wh` population).
fn gen_web_sales(
    n: usize,
    n_dates: usize,
    n_addr: usize,
    n_sites: usize,
    n_wh: usize,
    skew: f64,
    rng: &mut StdRng,
) -> Table {
    let mut order = Vec::with_capacity(n);
    let mut wh = Vec::with_capacity(n);
    let mut date = Vec::with_capacity(n);
    let mut addr = Vec::with_capacity(n);
    let mut site = Vec::with_capacity(n);
    let mut cost = Vec::with_capacity(n);
    let mut profit = Vec::with_capacity(n);
    let (wh_keys, addr_keys) = (zipf(n_wh, skew), zipf(n_addr, skew));
    let mut next_order = 1i64;
    while order.len() < n {
        let items = rng.gen_range(1..=6).min(n - order.len());
        let multi_wh = rng.gen_bool(0.25);
        let base_wh = zipf_key(rng, &wh_keys);
        let o_date = rng.gen_range(1..=n_dates as i64);
        let o_addr = zipf_key(rng, &addr_keys);
        let o_site = rng.gen_range(1..=n_sites as i64);
        for item in 0..items {
            order.push(next_order);
            wh.push(if multi_wh && item > 0 && rng.gen_bool(0.5) {
                // a different warehouse than the order's base
                1 + (base_wh % n_wh as i64)
            } else {
                base_wh
            });
            date.push(o_date);
            addr.push(o_addr);
            site.push(o_site);
            cost.push(rng.gen_range(1.0..500.0));
            profit.push(rng.gen_range(-100.0..400.0));
        }
        next_order += 1;
    }
    Table::new(
        Schema::new(&[
            ("ws_order_number", DataType::I64),
            ("ws_warehouse_sk", DataType::I64),
            ("ws_ship_date_sk", DataType::I64),
            ("ws_ship_addr_sk", DataType::I64),
            ("ws_web_site_sk", DataType::I64),
            ("ws_ext_ship_cost", DataType::F64),
            ("ws_net_profit", DataType::F64),
        ]),
        vec![
            Column::I64(order),
            Column::I64(wh),
            Column::I64(date),
            Column::I64(addr),
            Column::I64(site),
            Column::F64(cost),
            Column::F64(profit),
        ],
    )
}

fn gen_catalog_sales(
    n: usize,
    n_dates: usize,
    n_addr: usize,
    n_cc: usize,
    n_wh: usize,
    skew: f64,
    rng: &mut StdRng,
) -> Table {
    let mut order = Vec::with_capacity(n);
    let mut date = Vec::with_capacity(n);
    let mut addr = Vec::with_capacity(n);
    let mut cc = Vec::with_capacity(n);
    let mut wh = Vec::with_capacity(n);
    let mut cost = Vec::with_capacity(n);
    let mut profit = Vec::with_capacity(n);
    let (wh_keys, addr_keys) = (zipf(n_wh, skew), zipf(n_addr, skew));
    let mut next_order = 1i64;
    while order.len() < n {
        let items = rng.gen_range(1..=4).min(n - order.len());
        let o_date = rng.gen_range(1..=n_dates as i64);
        let o_addr = zipf_key(rng, &addr_keys);
        let o_cc = rng.gen_range(1..=n_cc as i64);
        for _ in 0..items {
            order.push(next_order);
            date.push(o_date);
            addr.push(o_addr);
            cc.push(o_cc);
            wh.push(zipf_key(rng, &wh_keys));
            cost.push(rng.gen_range(1.0..400.0));
            profit.push(rng.gen_range(-80.0..300.0));
        }
        next_order += 1;
    }
    Table::new(
        Schema::new(&[
            ("cs_order_number", DataType::I64),
            ("cs_ship_date_sk", DataType::I64),
            ("cs_ship_addr_sk", DataType::I64),
            ("cs_call_center_sk", DataType::I64),
            ("cs_warehouse_sk", DataType::I64),
            ("cs_ext_ship_cost", DataType::F64),
            ("cs_net_profit", DataType::F64),
        ]),
        vec![
            Column::I64(order),
            Column::I64(date),
            Column::I64(addr),
            Column::I64(cc),
            Column::I64(wh),
            Column::F64(cost),
            Column::F64(profit),
        ],
    )
}

/// Returns for a fraction of the sales orders.
fn gen_returns(
    out_col: &str,
    sales: &Table,
    order_col: &str,
    fraction: f64,
    rng: &mut StdRng,
) -> Table {
    let orders = sales.column_req(order_col).as_i64();
    let max_order = orders.iter().copied().max().unwrap_or(0);
    let returned: Vec<i64> = (1..=max_order)
        .filter(|_| rng.gen_bool(fraction))
        .collect();
    Table::new(
        Schema::new(&[(out_col, DataType::I64)]),
        vec![Column::I64(returned)],
    )
}

fn gen_store_sales(
    n: usize,
    n_dates: usize,
    n_cust: usize,
    n_stores: usize,
    n_items: usize,
    skew: f64,
    rng: &mut StdRng,
) -> Table {
    let date: Vec<i64> = (0..n).map(|_| rng.gen_range(1..=n_dates as i64)).collect();
    let cust_keys = zipf(n_cust, skew);
    let cust: Vec<i64> = (0..n).map(|_| zipf_key(rng, &cust_keys)).collect();
    let store_keys = zipf(n_stores, skew);
    let store: Vec<i64> = (0..n).map(|_| zipf_key(rng, &store_keys)).collect();
    let item_keys = zipf(n_items, skew);
    let item: Vec<i64> = (0..n).map(|_| zipf_key(rng, &item_keys)).collect();
    let paid: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..300.0)).collect();
    Table::new(
        Schema::new(&[
            ("ss_sold_date_sk", DataType::I64),
            ("ss_customer_sk", DataType::I64),
            ("ss_store_sk", DataType::I64),
            ("ss_item_sk", DataType::I64),
            ("ss_net_paid", DataType::F64),
        ]),
        vec![
            Column::I64(date),
            Column::I64(cust),
            Column::I64(store),
            Column::I64(item),
            Column::F64(paid),
        ],
    )
}

/// Item dimension: surrogate key, brand id, category.
fn gen_items(n: usize, rng: &mut StdRng) -> Table {
    const CATEGORIES: &[&str] = &["Books", "Electronics", "Home", "Music", "Sports", "Shoes"];
    let sk: Vec<i64> = (1..=n as i64).collect();
    let brand: Vec<i64> = (0..n).map(|_| rng.gen_range(1..=50)).collect();
    let category: Vec<String> = (0..n)
        .map(|_| CATEGORIES[rng.gen_range(0..CATEGORIES.len())].to_string())
        .collect();
    Table::new(
        Schema::new(&[
            ("i_item_sk", DataType::I64),
            ("i_brand_id", DataType::I64),
            ("i_category", DataType::Str),
        ]),
        vec![Column::I64(sk), Column::I64(brand), Column::Str(category)],
    )
}

fn gen_store_returns(
    n: usize,
    n_dates: usize,
    n_cust: usize,
    n_stores: usize,
    skew: f64,
    rng: &mut StdRng,
) -> Table {
    let date: Vec<i64> = (0..n).map(|_| rng.gen_range(1..=n_dates as i64)).collect();
    let cust_keys = zipf(n_cust, skew);
    let cust: Vec<i64> = (0..n).map(|_| zipf_key(rng, &cust_keys)).collect();
    let store_keys = zipf(n_stores, skew);
    let store: Vec<i64> = (0..n).map(|_| zipf_key(rng, &store_keys)).collect();
    let amt: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..200.0)).collect();
    Table::new(
        Schema::new(&[
            ("sr_returned_date_sk", DataType::I64),
            ("sr_customer_sk", DataType::I64),
            ("sr_store_sk", DataType::I64),
            ("sr_return_amt", DataType::F64),
        ]),
        vec![
            Column::I64(date),
            Column::I64(cust),
            Column::I64(store),
            Column::F64(amt),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_all_tables() {
        let db = Database::generate(ScaleConfig::with_sf(0.05));
        let names = db.table_names();
        for expect in [
            "call_center",
            "catalog_returns",
            "catalog_sales",
            "customer",
            "customer_address",
            "date_dim",
            "store",
            "store_returns",
            "store_sales",
            "warehouse",
            "web_returns",
            "web_sales",
            "web_site",
        ] {
            assert!(names.contains(&expect), "missing {expect}");
        }
        assert!(db.total_bytes() > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Database::generate(ScaleConfig::with_sf(0.05));
        let b = Database::generate(ScaleConfig::with_sf(0.05));
        assert_eq!(a.table("web_sales"), b.table("web_sales"));
        let c = Database::generate(ScaleConfig {
            seed: 1,
            ..ScaleConfig::with_sf(0.05)
        });
        assert_ne!(a.table("web_sales"), c.table("web_sales"));
    }

    #[test]
    fn fact_tables_dominate() {
        let db = Database::generate(ScaleConfig::with_sf(0.2));
        let facts = db.table("web_sales").num_rows()
            + db.table("catalog_sales").num_rows()
            + db.table("store_sales").num_rows();
        let dims = db.table("store").num_rows()
            + db.table("call_center").num_rows()
            + db.table("web_site").num_rows()
            + db.table("warehouse").num_rows();
        assert!(facts > 50 * dims, "facts={facts} dims={dims}");
    }

    #[test]
    fn scale_factor_scales_rows() {
        let small = Database::generate(ScaleConfig::with_sf(0.1));
        let big = Database::generate(ScaleConfig::with_sf(0.4));
        let r = big.table("web_sales").num_rows() as f64
            / small.table("web_sales").num_rows() as f64;
        assert!((r - 4.0).abs() < 0.3, "ratio={r}");
    }

    #[test]
    fn q95_premise_holds_multi_warehouse_orders_exist() {
        let db = Database::generate(ScaleConfig::with_sf(0.2));
        let ws = db.table("web_sales");
        let g = crate::ops::group_by(
            ws,
            &["ws_order_number"],
            &[crate::ops::AggSpec::new(
                crate::ops::group_by::AggFunc::CountDistinct,
                "ws_warehouse_sk",
                "wh",
            )],
            None,
        );
        let multi = g.column_req("wh").as_i64().iter().filter(|&&c| c > 1).count();
        let frac = multi as f64 / g.num_rows() as f64;
        assert!(frac > 0.02 && frac < 0.4, "multi-warehouse fraction {frac}");
    }

    #[test]
    fn q1_premise_holds_tn_stores_exist() {
        let db = Database::generate(ScaleConfig::with_sf(0.05));
        let tn = db
            .table("store")
            .column_req("s_state")
            .as_str()
            .iter()
            .filter(|s| s.as_str() == "TN")
            .count();
        assert!(tn >= 3);
    }

    #[test]
    fn foreign_keys_in_range() {
        let db = Database::generate(ScaleConfig::with_sf(0.05));
        let n_addr = db.table("customer_address").num_rows() as i64;
        for &a in db.table("web_sales").column_req("ws_ship_addr_sk").as_i64() {
            assert!(a >= 1 && a <= n_addr);
        }
        let n_dates = db.table("date_dim").num_rows() as i64;
        for &d in db.table("web_sales").column_req("ws_ship_date_sk").as_i64() {
            assert!(d >= 1 && d <= n_dates);
        }
    }

    #[test]
    fn keys_are_skewed() {
        // Zipf skew: the most popular warehouse gets far more than 1/n of
        // the rows.
        let db = Database::generate(ScaleConfig::with_sf(0.2));
        let wh = db.table("web_sales").column_req("ws_warehouse_sk").as_i64();
        let mut counts = HashMap::new();
        for &w in wh {
            *counts.entry(w).or_insert(0usize) += 1;
        }
        let max = *counts.values().max().unwrap();
        assert!(max as f64 > 2.0 * wh.len() as f64 / 10.0, "no skew detected");
    }

    #[test]
    fn generated_tables_are_pinned() {
        // FNV-1a over every table's name and encoded bytes, in name order.
        // A change here means the generator's sample stream moved, and
        // every answer and benchmark figure built on it moved with it.
        let db = Database::generate(ScaleConfig::with_sf(0.05));
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for name in db.table_names() {
            for &b in name.as_bytes().iter().chain(db.table(name).encode().iter()) {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
        assert_eq!(h, 0x828a_4b7f_34de_d4b0);
    }

    #[test]
    #[should_panic(expected = "unknown table")]
    fn unknown_table_panics() {
        Database::generate(ScaleConfig::with_sf(0.05)).table("nope");
    }
}
