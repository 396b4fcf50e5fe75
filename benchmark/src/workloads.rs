//! The five workloads: their constants, tables, plans and exact truths.

use std::time::Instant;

use aqp_core::Contract;
use aqp_engine::{execute_with, AggExpr, ExecOptions, LogicalPlan, Query};
use aqp_expr::{col, lit};
use aqp_storage::{Catalog, Table, Value};
use aqp_workload::{build_star_schema, skewed_table, uniform_table, StarScale};

use crate::rng::{derive, Stream};
use crate::stats::Truth;

/// One workload's fixed constants. `BENCHMARK.json` lists the same names
/// and reasons (`manifest::benchmark_json` is generated from this table).
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Final name; later PRs cite it.
    pub name: &'static str,
    /// Why the workload exists: the layer it loads and the one it bypasses.
    pub why: &'static str,
    /// `false`: one client. `true`: `T` concurrent clients.
    pub concurrent: bool,
    /// The untraced pass never stops before this many queries, so p95 has
    /// its samples beyond and the graded prefix is the same on every run.
    pub min_queries: usize,
    /// `--trace 1`: queries in the untraced reference pass.
    pub ref_queries: usize,
    /// `--trace 1`: queries replayed with spans.
    pub trace_queries: usize,
}

/// The workload table.
pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "adhoc_single",
        why: "no synopsis: all work is pilot, rate plan, block sample and accumulate in online (rewrite on tight contracts); offline is bypassed; approximate loses to exact here",
        concurrent: false,
        min_queries: 240,
        ref_queries: 96,
        trace_queries: 48,
    },
    Spec {
        name: "adhoc_join",
        why: "lineitem join orders under contracts online's rate cap cannot meet: every query falls to rewrite (5 % block sample through the engine's hash join) after online's declined pilot; offline is bypassed",
        concurrent: false,
        min_queries: 240,
        ref_queries: 96,
        trace_queries: 48,
    },
    Spec {
        name: "dashboard_synopsis",
        why: "8 anticipated plans on a stratified synopsis with a warm plan cache: offline's synopsis scan and the service cache carry the run; online, rewrite and the fact scan are bypassed",
        concurrent: false,
        min_queries: 400,
        ref_queries: 400,
        trace_queries: 200,
    },
    Spec {
        name: "exact_fallback",
        why: "MIN/MAX queries no AQP family accepts: engine kernels do all the work, so answer minus exact time is the pure cost of the front door; every AQP layer only lints and probes",
        concurrent: false,
        min_queries: 240,
        ref_queries: 96,
        trace_queries: 48,
    },
    Spec {
        name: "dashboard_append",
        why: "the dashboard plans from T clients while 1 % appends, maintain_synopses and epoch bumps stale the plan cache: writes beside reads, invalidation beside hits, admission under load",
        concurrent: true,
        min_queries: 2000,
        ref_queries: 2000,
        trace_queries: 200,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Table sizes and cadences; the smoke scale shrinks every one of them.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Rows of the single fact tables `t` and `u`.
    pub rows: usize,
    /// `orders` rows of the star schema (`lineitem` averages 4x that).
    pub orders: usize,
    /// Row budget of the stratified synopsis on `t.g`.
    pub synopsis_budget: usize,
    /// `dashboard_append`: completed queries between two appends.
    pub append_every: usize,
    /// `dashboard_append`: table versions beyond the base, each +1 % rows.
    pub appends: usize,
    /// Untimed warm-up queries per pass.
    pub warmup: usize,
}

/// The scale every reported number uses.
pub const FULL: Scale = Scale {
    rows: 2_000_000,
    orders: 100_000,
    synopsis_budget: 10_000,
    append_every: 200,
    appends: 24,
    warmup: 20,
};

/// `--smoke`: seconds, not minutes; numbers mean nothing.
pub const SMOKE: Scale = Scale {
    rows: 20_000,
    orders: 5_000,
    synopsis_budget: 2_000,
    append_every: 8,
    appends: 4,
    warmup: 4,
};

const GROUPS: usize = 12;
const ZIPF: f64 = 1.0;
const BLOCK: usize = 1024;
const THETAS: [f64; 3] = [0.8, 0.6, 0.4];

/// The two ad-hoc contracts, loose then tight.
const ADHOC_CONTRACTS: [(f64, f64); 2] = [(0.15, 0.90), (0.05, 0.95)];
/// The join's contracts: tighter than `online` can plan under its 20 % rate
/// cap on a 390-block fact table, so it declines after its pilot and the
/// router falls through to `rewrite`.
const JOIN_CONTRACTS: [(f64, f64); 2] = [(0.002, 0.95), (0.001, 0.99)];
/// The dashboards' contract.
const DASHBOARD_CONTRACT: (f64, f64) = (0.15, 0.95);

/// One distinct plan.
pub struct PlanInfo {
    /// The plan handed to the program.
    pub plan: LogicalPlan,
    /// The table sampling would draw from.
    pub fact_table: &'static str,
    /// Whether the plan has a GROUP BY.
    pub grouped: bool,
}

/// One entry of the query cycle: query `i` runs `cases[i % cases.len()]`.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    /// Index into [`Data::plans`].
    pub plan: usize,
    /// What the user asked for.
    pub contract: Contract,
}

/// A synopsis to build when a service is opened.
#[derive(Debug, Clone, Copy)]
pub struct Synopsis {
    /// Table the stratified sample is drawn from.
    pub table: &'static str,
    /// Stratification column.
    pub column: &'static str,
    /// Row budget.
    pub budget: usize,
}

/// What set-up spent on storage, for the `storage.*` layer metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildCost {
    /// Wall of table generation.
    pub tables_s: f64,
    /// Rows generated.
    pub rows: u64,
    /// `Table::approx_bytes` over the generated tables.
    pub bytes: u64,
}

/// Everything a workload needs before a service is opened.
pub struct Data {
    /// The tables, at version 0.
    pub catalog: Catalog,
    /// Distinct plans.
    pub plans: Vec<PlanInfo>,
    /// The query cycle.
    pub cases: Vec<Case>,
    /// `dashboard_append`: every version of `t`, base first; else empty.
    pub versions: Vec<Table>,
    /// Exact answers: `truths[version][plan]` (one version unless appending).
    pub truths: Vec<Vec<Truth>>,
    /// The synopsis opening a service builds.
    pub synopsis: Option<Synopsis>,
    /// Storage cost of generation.
    pub cost: BuildCost,
}

fn grouped(table: &str, theta: f64, agg: AggExpr) -> LogicalPlan {
    let scan = Query::scan(table);
    let scan = if theta < 1.0 {
        scan.filter(col("sel").lt(lit(theta)))
    } else {
        scan
    };
    scan.aggregate(vec![(col("g"), "g".to_string())], vec![agg])
        .build()
}

fn ungrouped(table: &str, theta: f64, agg: AggExpr) -> LogicalPlan {
    Query::scan(table)
        .filter(col("sel").lt(lit(theta)))
        .aggregate(vec![], vec![agg])
        .build()
}

fn star_plan(theta: f64, by_priority: bool, agg: AggExpr) -> LogicalPlan {
    let group_by = if by_priority {
        vec![(col("o_priority"), "priority".to_string())]
    } else {
        vec![]
    };
    Query::scan("lineitem")
        .join(Query::scan("orders"), col("l_orderkey"), col("o_key"))
        .filter(col("l_sel").lt(lit(theta)))
        .aggregate(group_by, vec![agg])
        .build()
}

fn info(plan: LogicalPlan, fact_table: &'static str, grouped: bool) -> PlanInfo {
    PlanInfo {
        plan,
        fact_table,
        grouped,
    }
}

/// The aggregates an ad-hoc or dashboard query asks for, in cycle order.
fn linear_aggs(value: &str) -> [AggExpr; 3] {
    [
        AggExpr::sum(col(value), "s"),
        AggExpr::avg(col(value), "a"),
        AggExpr::count_star("n"),
    ]
}

/// 9 grouped + 3 ungrouped plans on `t`, cycled 3:1, once per contract.
fn adhoc_single_cases() -> (Vec<PlanInfo>, Vec<Case>) {
    let mut plans = Vec::new();
    for theta in THETAS {
        for agg in linear_aggs("v") {
            plans.push(info(grouped("t", theta, agg), "t", true));
        }
        let agg = AggExpr::sum(col("v"), "s");
        plans.push(info(ungrouped("t", theta, agg), "t", false));
    }
    (plans, cycle_per_contract(12, &ADHOC_CONTRACTS))
}

/// `lineitem ⋈ orders`: per θ, three grouped by `o_priority`, one ungrouped.
fn adhoc_join_cases() -> (Vec<PlanInfo>, Vec<Case>) {
    let mut plans = Vec::new();
    for theta in THETAS {
        let [sum, avg, count] = [
            AggExpr::sum(col("l_price"), "s"),
            AggExpr::avg(col("l_quantity"), "a"),
            AggExpr::count_star("n"),
        ];
        plans.push(info(star_plan(theta, true, sum.clone()), "lineitem", true));
        plans.push(info(star_plan(theta, true, avg), "lineitem", true));
        plans.push(info(star_plan(theta, true, count), "lineitem", true));
        plans.push(info(star_plan(theta, false, sum), "lineitem", false));
    }
    (plans, cycle_per_contract(12, &JOIN_CONTRACTS))
}

/// The 8 anticipated dashboard tiles, all grouped by the stratification
/// column: SUM and AVG at θ ∈ {1.0, 0.8, 0.4}, COUNT(*) at θ ∈ {0.8, 0.4}.
fn dashboard_cases() -> (Vec<PlanInfo>, Vec<Case>) {
    let mut plans = Vec::new();
    for theta in [1.0, 0.8, 0.4] {
        let [sum, avg, count] = linear_aggs("v");
        plans.push(info(grouped("t", theta, sum), "t", true));
        plans.push(info(grouped("t", theta, avg), "t", true));
        if theta < 1.0 {
            plans.push(info(grouped("t", theta, count), "t", true));
        }
    }
    let cases = cycle_per_contract(plans.len(), &[DASHBOARD_CONTRACT]);
    (plans, cases)
}

/// MIN/MAX: nothing linear, so no AQP family is eligible.
fn exact_fallback_cases() -> (Vec<PlanInfo>, Vec<Case>) {
    let mut plans = Vec::new();
    for theta in THETAS {
        plans.push(info(
            ungrouped("u", theta, AggExpr::min(col("v"), "lo")),
            "u",
            false,
        ));
        plans.push(info(
            ungrouped("u", theta, AggExpr::max(col("v"), "hi")),
            "u",
            false,
        ));
    }
    plans.push(info(
        grouped("t", 1.0, AggExpr::max(col("v"), "hi")),
        "t",
        true,
    ));
    plans.push(info(
        grouped("t", 1.0, AggExpr::min(col("v"), "lo")),
        "t",
        true,
    ));
    let cases = cycle_per_contract(plans.len(), &[ADHOC_CONTRACTS[0]]);
    (plans, cases)
}

fn cycle_per_contract(plans: usize, contracts: &[(f64, f64)]) -> Vec<Case> {
    contracts
        .iter()
        .flat_map(|&(err, conf)| {
            (0..plans).map(move |plan| Case {
                plan,
                contract: Contract::new(err, conf),
            })
        })
        .collect()
}

/// The text a group key is matched by, on both sides of the grader.
pub fn key_text(key: &[Value]) -> String {
    format!("{key:?}")
}

/// Exact answer of one plan, keyed for the grader.
pub fn truth_of(plan: &LogicalPlan, catalog: &Catalog, threads: usize) -> Truth {
    let result = execute_with(plan, catalog, ExecOptions::with_threads(threads))
        .expect("a generated plan runs on its generated tables");
    let key_len = match plan {
        LogicalPlan::Aggregate { group_by, .. } => group_by.len(),
        _ => 0,
    };
    result
        .rows()
        .into_iter()
        .map(|row| {
            let values = row[key_len..]
                .iter()
                .map(|v| v.as_f64().unwrap_or(0.0))
                .collect();
            (key_text(&row[..key_len]), values)
        })
        .collect()
}

impl Data {
    /// What query `index` of a pass runs: its cycle entry and its plan.
    pub fn query(&self, index: usize) -> (Case, &PlanInfo) {
        let case = self.cases[index % self.cases.len()];
        (case, &self.plans[case.plan])
    }

    /// Generates the tables of `spec` from `seed` and computes exact truth
    /// once per distinct (plan, table version) with `threads` workers.
    pub fn build(spec: &Spec, scale: &Scale, seed: u64, threads: usize) -> Data {
        let table_seed = |i| derive(seed, Stream::Data, i);
        let catalog = Catalog::new();
        let start = Instant::now();
        let mut generated: Vec<Table> = Vec::new();
        let mut versions = Vec::new();
        let mut synopsis = None;
        let (plans, cases) = match spec.name {
            "adhoc_single" => {
                generated.push(skewed_t(scale, table_seed(0)));
                adhoc_single_cases()
            }
            "adhoc_join" => {
                let star = StarScale {
                    customers: scale.orders / 5,
                    parts: scale.orders / 25,
                    orders: scale.orders,
                    ..StarScale::small()
                };
                build_star_schema(&catalog, &star, table_seed(0)).expect("fresh catalog");
                adhoc_join_cases()
            }
            "dashboard_synopsis" | "dashboard_append" => {
                let base = skewed_t(scale, table_seed(0));
                if spec.name == "dashboard_append" {
                    versions = append_versions(&base, scale, &table_seed);
                }
                generated.push(base);
                synopsis = Some(Synopsis {
                    table: "t",
                    column: "g",
                    budget: scale.synopsis_budget,
                });
                dashboard_cases()
            }
            "exact_fallback" => {
                generated.push(uniform_table("u", scale.rows, BLOCK, table_seed(0)));
                generated.push(skewed_t(scale, table_seed(1)));
                exact_fallback_cases()
            }
            other => panic!("no such workload: {other}"),
        };
        for table in generated {
            catalog.register(table).expect("fresh catalog");
        }
        let tables_s = start.elapsed().as_secs_f64();
        // The last version holds every generated row of `t`, shared blocks
        // counted once; without versions the catalog holds everything.
        let mut cost = BuildCost {
            tables_s,
            ..BuildCost::default()
        };
        let mut count = |table: &Table| {
            cost.rows += table.row_count() as u64;
            cost.bytes += table.approx_bytes() as u64;
        };
        match versions.last() {
            Some(last) => count(last),
            None => {
                for name in catalog.table_names() {
                    count(&catalog.get(&name).expect("just registered"));
                }
            }
        }

        let truths_on = |catalog: &Catalog| -> Vec<Truth> {
            plans
                .iter()
                .map(|p| truth_of(&p.plan, catalog, threads))
                .collect()
        };
        let truths = if versions.is_empty() {
            vec![truths_on(&catalog)]
        } else {
            let all = versions
                .iter()
                .map(|v| {
                    catalog.replace(v.clone());
                    truths_on(&catalog)
                })
                .collect();
            catalog.replace(versions[0].clone());
            all
        };
        Data {
            catalog,
            plans,
            cases,
            versions,
            truths,
            synopsis,
            cost,
        }
    }
}

fn skewed_t(scale: &Scale, seed: u64) -> Table {
    skewed_table("t", scale.rows, GROUPS, ZIPF, BLOCK, seed)
}

/// `base` plus `scale.appends` versions, each 1 % of the base longer than
/// the last and sharing every earlier block.
fn append_versions(base: &Table, scale: &Scale, table_seed: &dyn Fn(u64) -> u64) -> Vec<Table> {
    let mut blocks = base.blocks().to_vec();
    let mut versions = vec![base.clone()];
    for k in 1..=scale.appends {
        let delta = skewed_table(
            "t",
            scale.rows / 100,
            GROUPS,
            ZIPF,
            BLOCK,
            table_seed(k as u64),
        );
        blocks.extend(delta.blocks().iter().cloned());
        versions.push(Table::from_blocks(
            "t",
            base.schema().clone(),
            blocks.clone(),
            BLOCK,
        ));
    }
    versions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adhoc_cycle_is_three_grouped_to_one_ungrouped() {
        let (plans, cases) = adhoc_single_cases();
        assert_eq!(plans.len(), 12);
        assert_eq!(cases.len(), 24);
        for (i, case) in cases.iter().enumerate() {
            assert_eq!(plans[case.plan].grouped, i % 4 != 3, "cycle slot {i}");
        }
        assert_eq!(cases[0].contract.max_rel_err, 0.15);
        assert_eq!(cases[12].contract.max_rel_err, 0.05);
    }

    #[test]
    fn every_workload_builds_at_smoke_scale_with_one_truth_per_plan() {
        for spec in &WORKLOADS {
            let data = Data::build(spec, &SMOKE, 1, 1);
            let versions = data.versions.len().max(1);
            assert_eq!(data.truths.len(), versions, "{}", spec.name);
            for truths in &data.truths {
                assert_eq!(truths.len(), data.plans.len(), "{}", spec.name);
                assert!(truths.iter().all(|t| !t.is_empty()), "{}", spec.name);
            }
            assert!(data.cases.iter().all(|c| c.plan < data.plans.len()));
            assert!(data.cost.rows > 0 && data.cost.bytes > 0);
        }
    }

    #[test]
    fn append_versions_grow_by_one_percent_and_share_blocks() {
        let data = Data::build(spec("dashboard_append").unwrap(), &SMOKE, 3, 1);
        assert_eq!(data.versions.len(), SMOKE.appends + 1);
        for (k, v) in data.versions.iter().enumerate() {
            assert_eq!(v.row_count(), SMOKE.rows + k * SMOKE.rows / 100);
        }
        assert!(std::sync::Arc::ptr_eq(
            data.versions[0].block(0),
            data.versions[SMOKE.appends].block(0)
        ));
        assert_eq!(data.catalog.get("t").unwrap().row_count(), SMOKE.rows);
    }
}
