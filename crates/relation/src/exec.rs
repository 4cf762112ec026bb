//! Physical execution.
//!
//! One production executor and one reference share this module:
//!
//! * The **vectorized executor** (`batch_size > 0`, the default): operators
//!   exchange columnar [`Batch`]es. Scans hand out the table's cached
//!   columnar image ([`Table::columnar`], `Arc`-shared, rebuilt only after
//!   a mutation), pushed-down filters set the batch's *selection vector*
//!   instead of copying rows, and projections evaluate expression kernels
//!   ([`Expr::eval_batch`]) only over selected slots — so a
//!   scan→filter→project chain is one fused pass with no per-row
//!   dispatch. Joins build/probe over column views, aggregation feeds
//!   column slices into the shared [`AggState`] machinery, sort and limit
//!   permute/truncate the selection vector. A single walker serves both
//!   plain and profiled runs: profiling (EXPLAIN ANALYZE, operator spans,
//!   slow-query capture) is an optional sink, and without it the walker
//!   reads no clock and formats nothing per node.
//!
//! * The **row executor** (`batch_size == 0`): the original serial pull
//!   pipeline of `Vec<Row>` operators, kept as the differential reference
//!   (see `tests/batch_differential.rs`). It is never profiled or traced.
//!
//! Both paths produce byte-identical results. Scans pick an **access
//! path** at runtime: if the pushed-down predicate contains an equality
//! (or range) conjunct on the primary key or an indexed column, the
//! matching index serves the lookup and only the residual predicate is
//! evaluated per row. This is what makes FlexRecs' compiled per-user
//! queries cheap on paper-scale data.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt::{self, Write as _};
use std::ops::Bound;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::batch::{Batch, Column as BatchColumn, ColumnBuilder, EvalCol};
use crate::catalog::Catalog;
use crate::error::{RelError, RelResult};
use crate::expr::{BinOp, Expr};
use crate::plan::{AggExpr, AggFn, JoinKind, LogicalPlan, RecAggPlan, RecMethod, RecSpec, SortKey};
use crate::profile::OpProfile;
use crate::row::Row;
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Value;

// ---------------------------------------------------------------------
// Metrics (handles resolved once; recording is relaxed atomics only)
// ---------------------------------------------------------------------

struct RelMetrics {
    queries: Arc<cr_obs::Counter>,
    query_ns: Arc<cr_obs::Histogram>,
    rows_out: Arc<cr_obs::Counter>,
    scan_seq: Arc<cr_obs::Counter>,
    scan_pk: Arc<cr_obs::Counter>,
    scan_index_eq: Arc<cr_obs::Counter>,
    scan_index_range: Arc<cr_obs::Counter>,
    // Per-operator-kind latency histograms (`relation.op.<kind>_ns`),
    // pre-resolved so a profiled run never takes the registry
    // lock per node — it already measured the elapsed time, recording
    // is one atomic bump.
    op_scan_ns: Arc<cr_obs::Histogram>,
    op_filter_ns: Arc<cr_obs::Histogram>,
    op_project_ns: Arc<cr_obs::Histogram>,
    op_join_ns: Arc<cr_obs::Histogram>,
    op_aggregate_ns: Arc<cr_obs::Histogram>,
    op_sort_ns: Arc<cr_obs::Histogram>,
    op_limit_ns: Arc<cr_obs::Histogram>,
    op_values_ns: Arc<cr_obs::Histogram>,
    op_union_ns: Arc<cr_obs::Histogram>,
    op_extend_ns: Arc<cr_obs::Histogram>,
    op_recommend_ns: Arc<cr_obs::Histogram>,
}

impl RelMetrics {
    /// The pre-resolved histogram for one plan operator.
    fn op_hist(&self, plan: &LogicalPlan) -> &Arc<cr_obs::Histogram> {
        match plan {
            LogicalPlan::Scan { .. } => &self.op_scan_ns,
            LogicalPlan::Filter { .. } => &self.op_filter_ns,
            LogicalPlan::Project { .. } => &self.op_project_ns,
            LogicalPlan::Join { .. } => &self.op_join_ns,
            LogicalPlan::Aggregate { .. } => &self.op_aggregate_ns,
            LogicalPlan::Sort { .. } => &self.op_sort_ns,
            LogicalPlan::Limit { .. } => &self.op_limit_ns,
            LogicalPlan::Values { .. } => &self.op_values_ns,
            LogicalPlan::Union { .. } => &self.op_union_ns,
            LogicalPlan::Extend { .. } => &self.op_extend_ns,
            LogicalPlan::Recommend { .. } => &self.op_recommend_ns,
        }
    }
}

fn metrics() -> &'static RelMetrics {
    static M: OnceLock<RelMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = cr_obs::Registry::global();
        RelMetrics {
            queries: r.counter("relation.queries"),
            query_ns: r.histogram("relation.query_ns"),
            rows_out: r.counter("relation.rows_out"),
            scan_seq: r.counter("relation.scan.seq_scan"),
            scan_pk: r.counter("relation.scan.pk_lookup"),
            scan_index_eq: r.counter("relation.scan.index_eq"),
            scan_index_range: r.counter("relation.scan.index_range"),
            op_scan_ns: r.histogram("relation.op.scan_ns"),
            op_filter_ns: r.histogram("relation.op.filter_ns"),
            op_project_ns: r.histogram("relation.op.project_ns"),
            op_join_ns: r.histogram("relation.op.join_ns"),
            op_aggregate_ns: r.histogram("relation.op.aggregate_ns"),
            op_sort_ns: r.histogram("relation.op.sort_ns"),
            op_limit_ns: r.histogram("relation.op.limit_ns"),
            op_values_ns: r.histogram("relation.op.values_ns"),
            op_union_ns: r.histogram("relation.op.union_ns"),
            op_extend_ns: r.histogram("relation.op.extend_ns"),
            op_recommend_ns: r.histogram("relation.op.recommend_ns"),
        }
    })
}

// ---------------------------------------------------------------------
// Execution options
// ---------------------------------------------------------------------

/// Knobs for physical execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Rows per expression-kernel invocation on the vectorized executor
    /// (the default path). `0` selects the serial row-at-a-time
    /// executor, the differential reference.
    pub batch_size: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions { batch_size: 1024 }
    }
}

/// A fully materialized query result.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    pub schema: Schema,
    pub rows: Vec<Row>,
}

impl ResultSet {
    /// Empty result with a schema.
    pub fn empty(schema: Schema) -> Self {
        ResultSet {
            schema,
            rows: Vec::new(),
        }
    }

    /// Column index by (unqualified) name.
    pub fn column_index(&self, name: &str) -> RelResult<usize> {
        self.schema.index_of(name)
    }

    /// Iterate a single column's values.
    pub fn column_values(&self, name: &str) -> RelResult<Vec<&Value>> {
        let i = self.column_index(name)?;
        Ok(self.rows.iter().map(|r| &r[i]).collect())
    }

    /// First row, first column — for scalar queries (`SELECT COUNT(*) ...`).
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().and_then(|r| r.first())
    }

    /// Render as an aligned text table (used by the example binaries to
    /// reproduce the paper's screenshots in terminal form).
    pub fn to_text_table(&self) -> String {
        let headers: Vec<String> = self
            .schema
            .columns()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .map(|(i, v)| {
                        let s = v.to_string();
                        if s.len() > widths[i] {
                            widths[i] = s.len();
                        }
                        s
                    })
                    .collect()
            })
            .collect();
        let mut out = String::new();
        let sep = |out: &mut String| {
            for w in &widths {
                let _ = write!(out, "+-{}-", "-".repeat(*w));
            }
            out.push_str("+\n");
        };
        sep(&mut out);
        for (i, h) in headers.iter().enumerate() {
            let _ = write!(out, "| {h:<width$} ", width = widths[i]);
        }
        out.push_str("|\n");
        sep(&mut out);
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                let _ = write!(out, "| {c:<width$} ", width = widths[i]);
            }
            out.push_str("|\n");
        }
        sep(&mut out);
        out
    }
}

/// Execute a logical plan against a catalog, materializing the result.
///
/// Every call records the query counter, the rows-out counter and the
/// latency histogram (one clock read pair and three relaxed atomics).
pub fn execute(plan: &LogicalPlan, catalog: &Catalog) -> RelResult<ResultSet> {
    execute_with(plan, catalog, &ExecOptions::default())
}

/// [`execute`] with explicit [`ExecOptions`]. Results are row-for-row
/// identical whichever executor the options select.
pub fn execute_with(
    plan: &LogicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
) -> RelResult<ResultSet> {
    // Tracing and slow-query capture need per-node profiles (spans and
    // EXPLAIN ANALYZE trees); route through the profiled run when either
    // is armed. Both checks are one relaxed load.
    if opts.batch_size > 0
        && (cr_obs::trace::enabled() || cr_obs::trace::slow_query_threshold_ns().is_some())
    {
        return execute_instrumented_with(plan, catalog, opts).map(|(rs, _)| rs);
    }
    let started = Instant::now();
    let rows = if opts.batch_size > 0 {
        run_batched(plan, catalog, opts, None)?.to_rows()
    } else {
        run(plan, catalog)?.into_owned()
    };
    let m = metrics();
    m.queries.inc();
    m.rows_out.add(rows.len() as u64);
    m.query_ns.record_duration(started.elapsed());
    Ok(ResultSet {
        schema: plan.schema().clone(),
        rows,
    })
}

/// Capture a slow request into the flight recorder's slow-query log if
/// the configured threshold is set and exceeded.
fn maybe_capture_slow(label: &str, fingerprint: u64, elapsed_ns: u64, profile: &OpProfile) {
    if let Some(threshold) = cr_obs::trace::slow_query_threshold_ns() {
        if elapsed_ns >= threshold {
            cr_obs::trace::capture_slow_query(label, fingerprint, elapsed_ns, profile.render());
        }
    }
}

/// Execute a plan with per-operator profiling: every physical operator is
/// wrapped with rows-out/elapsed accounting and the access path it chose,
/// yielding an `EXPLAIN ANALYZE`-style [`OpProfile`] tree next to the
/// normal [`ResultSet`]. Profiling cost is per plan *node* (one clock read
/// each), not per row, so it stays within a few percent of [`execute`] —
/// the `instrumentation_overhead` bench pins this down.
pub fn execute_instrumented(
    plan: &LogicalPlan,
    catalog: &Catalog,
) -> RelResult<(ResultSet, OpProfile)> {
    execute_instrumented_with(plan, catalog, &ExecOptions::default())
}

/// [`execute_instrumented`] with explicit [`ExecOptions`], under one
/// `relation.query` span (operator spans nest below it) plus slow-query
/// capture with the plan fingerprint and the full EXPLAIN ANALYZE tree.
///
/// Profiling instruments the vectorized walker only: the row reference
/// has no profiled form, so a `batch_size` of 0 here runs the vectorized
/// walker in one-row chunks.
pub fn execute_instrumented_with(
    plan: &LogicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
) -> RelResult<(ResultSet, OpProfile)> {
    let mut span = cr_obs::trace::TraceSpan::child("relation.query");
    let started = Instant::now();
    let mut profiles = Vec::with_capacity(1);
    let rows = run_batched(plan, catalog, opts, Some(&mut profiles))?.to_rows();
    let profile = profiles.pop().expect("the root operator records a profile");
    let elapsed = started.elapsed();
    let m = metrics();
    m.queries.inc();
    m.rows_out.add(rows.len() as u64);
    m.query_ns.record_duration(elapsed);
    let fingerprint = plan.fingerprint();
    if span.is_recording() {
        span.attr("rows_out", rows.len().to_string());
        span.attr("fingerprint", format!("{fingerprint:016x}"));
    }
    maybe_capture_slow(
        "relation.query",
        fingerprint,
        elapsed.as_nanos().min(u64::MAX as u128) as u64,
        &profile,
    );
    Ok((
        ResultSet {
            schema: plan.schema().clone(),
            rows,
        },
        profile,
    ))
}

/// The serial row-at-a-time walker: the differential reference for the
/// vectorized executor. Returns `Cow` so `LogicalPlan::Values` lends its
/// literal rows instead of cloning them on every run — copies happen only
/// when an ancestor operator actually consumes owned rows.
fn run<'p>(plan: &'p LogicalPlan, catalog: &Catalog) -> RelResult<Cow<'p, [Row]>> {
    match plan {
        LogicalPlan::Scan {
            table,
            projection,
            filter,
            ..
        } => Ok(Cow::Owned(
            catalog
                .with_table(table, |t| scan_table(t, projection, filter))??
                .0,
        )),

        LogicalPlan::Filter { input, predicate } => Ok(Cow::Owned(filter_rows(
            run(input, catalog)?.into_owned(),
            predicate,
        )?)),

        LogicalPlan::Project { input, exprs, .. } => Ok(Cow::Owned(project_rows(
            run(input, catalog)?.into_owned(),
            exprs,
        )?)),

        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            ..
        } => {
            let left_rows = run(left, catalog)?.into_owned();
            let right_rows = run(right, catalog)?.into_owned();
            let (rows, _) = join_rows(
                left_rows,
                right_rows,
                left.schema().len(),
                right.schema().len(),
                *kind,
                on,
            )?;
            Ok(Cow::Owned(rows))
        }

        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            ..
        } => Ok(Cow::Owned(aggregate_rows(
            &run(input, catalog)?,
            group_by,
            aggs,
        )?)),

        LogicalPlan::Sort { input, keys } => Ok(Cow::Owned(sort_rows(
            run(input, catalog)?.into_owned(),
            keys,
        )?)),

        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => Ok(Cow::Owned(limit_rows(
            run(input, catalog)?.into_owned(),
            *limit,
            *offset,
        ))),

        LogicalPlan::Values { rows, .. } => Ok(Cow::Borrowed(rows.as_slice())),

        LogicalPlan::Union { left, right } => {
            let mut rows = run(left, catalog)?.into_owned();
            match run(right, catalog)? {
                Cow::Owned(mut r) => rows.append(&mut r),
                Cow::Borrowed(r) => rows.extend_from_slice(r),
            }
            Ok(Cow::Owned(rows))
        }

        LogicalPlan::Extend {
            input,
            related,
            key_col,
            rating,
            ..
        } => {
            let input_rows = run(input, catalog)?.into_owned();
            let related_rows = run(related, catalog)?;
            Ok(Cow::Owned(extend_rows(
                input_rows,
                &related_rows,
                *key_col,
                *rating,
            )?))
        }

        LogicalPlan::Recommend {
            target,
            comparator,
            spec,
            ..
        } => {
            let target_rows = run(target, catalog)?.into_owned();
            let comparator_rows = run(comparator, catalog)?;
            Ok(Cow::Owned(recommend_rows(
                target_rows,
                &comparator_rows,
                spec,
            )?))
        }
    }
}

// ---------------------------------------------------------------------
// Row-level operator implementations: the reference walker's operators,
// also reused by the vectorized path where it transposes to rows.
// ---------------------------------------------------------------------

fn filter_rows(rows: Vec<Row>, predicate: &Expr) -> RelResult<Vec<Row>> {
    let mut out = Vec::with_capacity(rows.len() / 2);
    for r in rows {
        if predicate.eval_predicate(&r)? {
            out.push(r);
        }
    }
    Ok(out)
}

fn project_rows(rows: Vec<Row>, exprs: &[(Expr, String)]) -> RelResult<Vec<Row>> {
    let mut out = Vec::with_capacity(rows.len());
    for r in rows {
        let mut projected = Vec::with_capacity(exprs.len());
        for (e, _) in exprs {
            projected.push(e.eval(&r)?);
        }
        out.push(projected);
    }
    Ok(out)
}

fn limit_rows(rows: Vec<Row>, limit: Option<usize>, offset: usize) -> Vec<Row> {
    let it = rows.into_iter().skip(offset);
    match limit {
        Some(n) => it.take(n).collect(),
        None => it.collect(),
    }
}

// ---------------------------------------------------------------------
// FlexRecs operators: Extend (ε) and Recommend (▷)
// ---------------------------------------------------------------------

/// Treat a value as a scalar for the FlexRecs operators: nested
/// Set/Ratings values are not scalars; everything else (including NULL)
/// is. Mirrors the workflow layer's `Datum::as_scalar`.
fn as_rec_scalar(v: &Value) -> Option<&Value> {
    if v.is_nested() {
        None
    } else {
        Some(v)
    }
}

/// Build the fk → nested-attribute map from an iterator of related-side
/// triples `(fk, key, rating)` — `rating` is `None` in Set mode. The
/// shared core of the row and batched Extend implementations: related
/// entries are consumed in input order, so the float accumulation order of
/// duplicate-key rating averages is deterministic on both paths; set
/// elements are sorted and deduplicated, ratings sorted by key.
fn build_nest_map_core(
    related: impl Iterator<Item = (Value, Value, Option<Value>)>,
    rating: bool,
) -> RelResult<HashMap<Value, Value>> {
    let mut map: HashMap<Value, Value> = HashMap::new();
    if rating {
        let mut acc: HashMap<Value, HashMap<Value, (f64, usize)>> = HashMap::new();
        for (fk, key, rv) in related {
            let rv = rv.unwrap_or(Value::Null);
            if fk.is_null() || rv.is_null() {
                continue;
            }
            let r = rv.as_float()?;
            let e = acc.entry(fk).or_default().entry(key).or_insert((0.0, 0));
            e.0 += r;
            e.1 += 1;
        }
        for (fk, per_key) in acc {
            let mut v: Vec<(Value, f64)> = per_key
                .into_iter()
                .map(|(k, (sum, n))| (k, sum / n as f64))
                .collect();
            v.sort_by(|a, b| a.0.total_cmp(&b.0));
            map.insert(fk, Value::Ratings(v));
        }
    } else {
        let mut acc: HashMap<Value, Vec<Value>> = HashMap::new();
        for (fk, key, _) in related {
            if fk.is_null() {
                continue;
            }
            acc.entry(fk).or_default().push(key);
        }
        for (fk, mut v) in acc {
            v.sort();
            v.dedup();
            map.insert(fk, Value::Set(v));
        }
    }
    Ok(map)
}

/// [`build_nest_map_core`] over materialized rows (`[fk, key]` for Set,
/// `[fk, key, rating]` for Ratings).
fn build_nest_map(related_rows: &[Row], rating: bool) -> RelResult<HashMap<Value, Value>> {
    build_nest_map_core(
        related_rows.iter().map(|row| {
            (
                row[0].clone(),
                row[1].clone(),
                if rating { Some(row[2].clone()) } else { None },
            )
        }),
        rating,
    )
}

/// Append the nested attribute to each input row by probing the nest map
/// built from the related rows.
fn extend_rows(
    input_rows: Vec<Row>,
    related_rows: &[Row],
    key_col: usize,
    rating: bool,
) -> RelResult<Vec<Row>> {
    let map = build_nest_map(related_rows, rating)?;
    let mut out = Vec::with_capacity(input_rows.len());
    for mut row in input_rows {
        let key = as_rec_scalar(&row[key_col])
            .ok_or_else(|| RelError::Invalid("extend key not scalar".into()))?;
        let nested = match map.get(key) {
            Some(v) => v.clone(),
            None if rating => Value::Ratings(Vec::new()),
            None => Value::Set(Vec::new()),
        };
        row.push(nested);
        out.push(row);
    }
    Ok(out)
}

/// Precomputed per-run state for the recommend operator: the exclusion
/// key set and (for `RatingLookup`) one key → rating map per comparator.
struct RecContext<'a> {
    seen: HashSet<&'a Value>,
    lookup: Vec<HashMap<&'a Value, f64>>,
}

fn build_rec_context<'a>(comparator_rows: &'a [Row], spec: &RecSpec) -> RecContext<'a> {
    let mut seen: HashSet<&Value> = HashSet::new();
    if let Some((_, c_idx)) = spec.exclude_seen {
        for c in comparator_rows {
            match &c[c_idx] {
                Value::Set(items) => seen.extend(items.iter()),
                Value::Ratings(r) => seen.extend(r.iter().map(|(k, _)| k)),
                _ => {}
            }
        }
    }
    let lookup = if matches!(spec.method, RecMethod::RatingLookup) {
        comparator_rows
            .iter()
            .map(|c| {
                c[spec.comparator_col]
                    .as_ratings()
                    .map(|r| r.iter().map(|(k, v)| (k, *v)).collect())
                    .unwrap_or_default()
            })
            .collect()
    } else {
        Vec::new()
    };
    RecContext { seen, lookup }
}

/// Score one target row against every comparator row. Returns `None` when
/// the target is excluded, matched no comparator, or scored ≤ 0.
fn score_target(
    mut t: Row,
    comparator_rows: &[Row],
    spec: &RecSpec,
    ctx: &RecContext<'_>,
) -> Option<(f64, Row)> {
    if let Some((t_idx, _)) = spec.exclude_seen {
        if let Some(v) = as_rec_scalar(&t[t_idx]) {
            if ctx.seen.contains(v) {
                return None;
            }
        }
    }
    let mut acc_sum = 0.0;
    let mut acc_weight = 0.0;
    let mut acc_n = 0usize;
    let mut acc_max = f64::NEG_INFINITY;
    for (i, c) in comparator_rows.iter().enumerate() {
        let score: Option<f64> = match &spec.method {
            RecMethod::Text(sim) => match (
                as_rec_scalar(&t[spec.target_col]),
                as_rec_scalar(&c[spec.comparator_col]),
            ) {
                (Some(Value::Text(a)), Some(Value::Text(b))) => Some(sim.score(a, b)),
                _ => None,
            },
            RecMethod::Set(sim) => {
                match (t[spec.target_col].as_set(), c[spec.comparator_col].as_set()) {
                    (Some(a), Some(b)) => Some(sim.score(a, b)),
                    _ => None,
                }
            }
            RecMethod::Ratings { sim, min_common } => match (
                t[spec.target_col].as_ratings(),
                c[spec.comparator_col].as_ratings(),
            ) {
                (Some(a), Some(b)) => Some(sim.score(a, b, *min_common)),
                _ => None,
            },
            RecMethod::RatingLookup => {
                as_rec_scalar(&t[spec.target_col]).and_then(|key| ctx.lookup[i].get(key).copied())
            }
        };
        let weight = match spec.agg {
            RecAggPlan::WeightedAvg { weight_col } => match as_rec_scalar(&c[weight_col]) {
                Some(Value::Float(f)) => *f,
                Some(Value::Int(n)) => *n as f64,
                _ => 0.0,
            },
            _ => 1.0,
        };
        if let Some(s) = score {
            acc_sum += s * weight;
            acc_weight += weight;
            acc_n += 1;
            acc_max = acc_max.max(s);
        }
    }
    if acc_n == 0 {
        return None;
    }
    let final_score = match spec.agg {
        RecAggPlan::Avg => acc_sum / acc_n as f64,
        RecAggPlan::Sum => acc_sum,
        RecAggPlan::Max => acc_max,
        RecAggPlan::WeightedAvg { .. } => {
            if acc_weight <= 0.0 {
                return None;
            }
            acc_sum / acc_weight
        }
    };
    if final_score <= 0.0 {
        return None;
    }
    t.push(Value::float(final_score));
    Some((final_score, t))
}

/// Sort scored targets by score descending (stable; ties broken by the
/// first column when scalar) and apply top-k.
fn finish_recommend(mut scored: Vec<(f64, Row)>, spec: &RecSpec) -> Vec<Row> {
    use std::cmp::Ordering;
    scored.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(Ordering::Equal)
            .then_with(|| {
                match (
                    a.1.first().and_then(as_rec_scalar),
                    b.1.first().and_then(as_rec_scalar),
                ) {
                    (Some(x), Some(y)) => x.total_cmp(y),
                    _ => Ordering::Equal,
                }
            })
    });
    if let Some(k) = spec.k {
        scored.truncate(k);
    }
    scored.into_iter().map(|(_, r)| r).collect()
}

fn recommend_rows(
    target_rows: Vec<Row>,
    comparator_rows: &[Row],
    spec: &RecSpec,
) -> RelResult<Vec<Row>> {
    let ctx = build_rec_context(comparator_rows, spec);
    let mut scored = Vec::new();
    for t in target_rows {
        if let Some(s) = score_target(t, comparator_rows, spec, &ctx) {
            scored.push(s);
        }
    }
    Ok(finish_recommend(scored, spec))
}

// ---------------------------------------------------------------------
// Scan + access-path selection
// ---------------------------------------------------------------------

/// How a scan will fetch rows.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    SeqScan,
    /// Primary-key point lookup with the given key.
    PkLookup(Vec<Value>),
    /// Secondary-index equality lookup: (index name, key).
    IndexEq(String, Vec<Value>),
    /// Secondary B-tree index range scan on its leading column.
    IndexRange {
        index: String,
        lower: Bound<Value>,
        upper: Bound<Value>,
    },
}

impl fmt::Display for AccessPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn key(vals: &[Value]) -> String {
            vals.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        }
        fn bound(b: &Bound<Value>, open: &str, close: &str) -> String {
            match b {
                Bound::Included(v) => format!("{open}={v}"),
                Bound::Excluded(v) => format!("{open}{v}"),
                Bound::Unbounded => close.to_owned(),
            }
        }
        match self {
            AccessPath::SeqScan => write!(f, "SeqScan"),
            AccessPath::PkLookup(k) => write!(f, "PkLookup[{}]", key(k)),
            AccessPath::IndexEq(name, k) => write!(f, "IndexEq({name})[{}]", key(k)),
            AccessPath::IndexRange {
                index,
                lower,
                upper,
            } => write!(
                f,
                "IndexRange({index})[{}..{}]",
                bound(lower, ">", ""),
                bound(upper, "<", "")
            ),
        }
    }
}

/// Decide the access path for a scan's pushed-down filter. Public so that
/// benches and tests can assert index usage (ablation A3 in DESIGN.md).
pub fn choose_access_path(table: &Table, filter: &Option<Expr>) -> AccessPath {
    let Some(filter) = filter else {
        return AccessPath::SeqScan;
    };
    let conjuncts = filter.split_conjunction();

    // 1. Full primary-key equality?
    let pk = table.pk_columns();
    if !pk.is_empty() {
        let mut key: Vec<Option<Value>> = vec![None; pk.len()];
        for c in &conjuncts {
            if let Some((col, v)) = as_col_eq_literal(c) {
                if let Some(pos) = pk.iter().position(|&p| p == col) {
                    key[pos] = Some(v);
                }
            }
        }
        if key.iter().all(Option::is_some) {
            return AccessPath::PkLookup(key.into_iter().map(Option::unwrap).collect());
        }
    }

    // 2. Single-column secondary index equality?
    for c in &conjuncts {
        if let Some((col, v)) = as_col_eq_literal(c) {
            if let Some(idx) = table.index_on_column(col) {
                if idx.columns.len() == 1 {
                    return AccessPath::IndexEq(idx.name.clone(), vec![v]);
                }
            }
        }
    }

    // 3. Range on a B-tree index's leading column?
    let mut range: HashMap<usize, (Bound<Value>, Bound<Value>)> = HashMap::new();
    for c in &conjuncts {
        if let Some((col, op, v)) = as_col_cmp_literal(c) {
            let entry = range
                .entry(col)
                .or_insert((Bound::Unbounded, Bound::Unbounded));
            match op {
                BinOp::Gt => entry.0 = Bound::Excluded(v),
                BinOp::GtEq => entry.0 = Bound::Included(v),
                BinOp::Lt => entry.1 = Bound::Excluded(v),
                BinOp::LtEq => entry.1 = Bound::Included(v),
                _ => {}
            }
        }
    }
    for (col, (lo, hi)) in range {
        if matches!((&lo, &hi), (Bound::Unbounded, Bound::Unbounded)) {
            continue;
        }
        if let Some(idx) = table.index_on_column(col) {
            if idx.kind() == crate::index::IndexKind::BTree && idx.columns.len() == 1 {
                return AccessPath::IndexRange {
                    index: idx.name.clone(),
                    lower: lo,
                    upper: hi,
                };
            }
        }
    }

    AccessPath::SeqScan
}

fn as_col_eq_literal(e: &Expr) -> Option<(usize, Value)> {
    if let Expr::Binary {
        op: BinOp::Eq,
        left,
        right,
    } = e
    {
        match (&**left, &**right) {
            (Expr::Column(c), Expr::Literal(v)) | (Expr::Literal(v), Expr::Column(c)) => {
                return Some((*c, v.clone()))
            }
            _ => {}
        }
    }
    None
}

fn as_col_cmp_literal(e: &Expr) -> Option<(usize, BinOp, Value)> {
    if let Expr::Binary { op, left, right } = e {
        if !op.is_comparison() {
            return None;
        }
        match (&**left, &**right) {
            (Expr::Column(c), Expr::Literal(v)) => return Some((*c, *op, v.clone())),
            (Expr::Literal(v), Expr::Column(c)) => {
                // Flip the comparison: v < col  ≡  col > v.
                let flipped = match op {
                    BinOp::Lt => BinOp::Gt,
                    BinOp::LtEq => BinOp::GtEq,
                    BinOp::Gt => BinOp::Lt,
                    BinOp::GtEq => BinOp::LtEq,
                    other => *other,
                };
                return Some((*c, flipped, v.clone()));
            }
            _ => {}
        }
    }
    None
}

/// Scan a table, returning the matching rows and the access path that
/// served them (surfaced in EXPLAIN ANALYZE output).
fn scan_table(
    table: &Table,
    projection: &Option<Vec<usize>>,
    filter: &Option<Expr>,
) -> RelResult<(Vec<Row>, AccessPath)> {
    let path = choose_access_path(table, filter);
    let m = metrics();
    match &path {
        AccessPath::SeqScan => m.scan_seq.inc(),
        AccessPath::PkLookup(_) => m.scan_pk.inc(),
        AccessPath::IndexEq(..) => m.scan_index_eq.inc(),
        AccessPath::IndexRange { .. } => m.scan_index_range.inc(),
    }
    let project = |r: &Row| -> Row {
        match projection {
            None => r.clone(),
            Some(cols) => cols.iter().map(|&i| r[i].clone()).collect(),
        }
    };
    let passes = |r: &Row| -> RelResult<bool> {
        match filter {
            Some(f) => f.eval_predicate(r),
            None => Ok(true),
        }
    };
    let mut out = Vec::new();
    match &path {
        AccessPath::SeqScan => {
            for (_, r) in table.scan() {
                if passes(r)? {
                    out.push(project(r));
                }
            }
        }
        AccessPath::PkLookup(key) => {
            if let Some(r) = table.get_by_pk(key) {
                if passes(r)? {
                    out.push(project(r));
                }
            }
        }
        AccessPath::IndexEq(name, key) => {
            let idx = table
                .index(name)
                .ok_or_else(|| RelError::UnknownIndex(name.clone()))?;
            if let Some(rids) = idx.get(key) {
                for &rid in rids {
                    if let Some(r) = table.get(rid) {
                        if passes(r)? {
                            out.push(project(r));
                        }
                    }
                }
            }
        }
        AccessPath::IndexRange {
            index,
            lower,
            upper,
        } => {
            let idx = table
                .index(index)
                .ok_or_else(|| RelError::UnknownIndex(index.clone()))?;
            let lo_key = match &lower {
                Bound::Included(v) => Bound::Included(vec![v.clone()]),
                Bound::Excluded(v) => Bound::Excluded(vec![v.clone()]),
                Bound::Unbounded => Bound::Unbounded,
            };
            let hi_key = match &upper {
                Bound::Included(v) => Bound::Included(vec![v.clone()]),
                Bound::Excluded(v) => Bound::Excluded(vec![v.clone()]),
                Bound::Unbounded => Bound::Unbounded,
            };
            let lo_ref = match &lo_key {
                Bound::Included(k) => Bound::Included(k),
                Bound::Excluded(k) => Bound::Excluded(k),
                Bound::Unbounded => Bound::Unbounded,
            };
            let hi_ref = match &hi_key {
                Bound::Included(k) => Bound::Included(k),
                Bound::Excluded(k) => Bound::Excluded(k),
                Bound::Unbounded => Bound::Unbounded,
            };
            for rid in idx.range(lo_ref, hi_ref) {
                if let Some(r) = table.get(rid) {
                    if passes(r)? {
                        out.push(project(r));
                    }
                }
            }
        }
    }
    Ok((out, path))
}

// ---------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------

/// Extract equi-join keys from a join predicate bound over the concatenated
/// schema: conjuncts of the form `left_col = right_col`. Returns
/// `(left_keys, right_keys_relative, residual)`.
fn extract_equi_keys(on: &Expr, left_width: usize) -> (Vec<usize>, Vec<usize>, Vec<Expr>) {
    let mut lk = Vec::new();
    let mut rk = Vec::new();
    let mut residual = Vec::new();
    for c in on.split_conjunction() {
        if let Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = &c
        {
            if let (Expr::Column(a), Expr::Column(b)) = (&**left, &**right) {
                let (a, b) = (*a, *b);
                if a < left_width && b >= left_width {
                    lk.push(a);
                    rk.push(b - left_width);
                    continue;
                }
                if b < left_width && a >= left_width {
                    lk.push(b);
                    rk.push(a - left_width);
                    continue;
                }
            }
        }
        residual.push(c);
    }
    (lk, rk, residual)
}

/// Which algorithm a join used (EXPLAIN ANALYZE annotation).
struct JoinInfo {
    hash: bool,
    keys: usize,
}

fn join_rows(
    left_rows: Vec<Row>,
    right_rows: Vec<Row>,
    left_width: usize,
    right_width: usize,
    kind: JoinKind,
    on: &Expr,
) -> RelResult<(Vec<Row>, JoinInfo)> {
    let (lk, rk, residual) = extract_equi_keys(on, left_width);
    let residual = if residual.is_empty() {
        None
    } else {
        Some(Expr::conjoin(residual))
    };

    let mut out = Vec::new();
    if lk.is_empty() {
        // Nested-loop join on the full predicate.
        for l in &left_rows {
            let mut matched = false;
            for r in &right_rows {
                let mut combined = Vec::with_capacity(left_width + right_width);
                combined.extend_from_slice(l);
                combined.extend_from_slice(r);
                if on.eval_predicate(&combined)? {
                    matched = true;
                    out.push(combined);
                }
            }
            if !matched && kind == JoinKind::LeftOuter {
                let mut combined = Vec::with_capacity(left_width + right_width);
                combined.extend_from_slice(l);
                combined.extend(std::iter::repeat_n(Value::Null, right_width));
                out.push(combined);
            }
        }
    } else {
        // Hash join: build on the right, probe from the left.
        let mut build: HashMap<Vec<Value>, Vec<usize>> = HashMap::with_capacity(right_rows.len());
        for (i, r) in right_rows.iter().enumerate() {
            let key: Vec<Value> = rk.iter().map(|&k| r[k].clone()).collect();
            if key.iter().any(Value::is_null) {
                continue; // NULL keys never join
            }
            build.entry(key).or_default().push(i);
        }
        for l in &left_rows {
            let key: Vec<Value> = lk.iter().map(|&k| l[k].clone()).collect();
            let mut matched = false;
            if !key.iter().any(Value::is_null) {
                if let Some(idxs) = build.get(&key) {
                    for &i in idxs {
                        let mut combined = Vec::with_capacity(left_width + right_width);
                        combined.extend_from_slice(l);
                        combined.extend_from_slice(&right_rows[i]);
                        let ok = match &residual {
                            Some(p) => p.eval_predicate(&combined)?,
                            None => true,
                        };
                        if ok {
                            matched = true;
                            out.push(combined);
                        }
                    }
                }
            }
            if !matched && kind == JoinKind::LeftOuter {
                let mut combined = Vec::with_capacity(left_width + right_width);
                combined.extend_from_slice(l);
                combined.extend(std::iter::repeat_n(Value::Null, right_width));
                out.push(combined);
            }
        }
    }
    Ok((
        out,
        JoinInfo {
            hash: !lk.is_empty(),
            keys: lk.len(),
        },
    ))
}

// ---------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    Sum(SumAcc),
    Avg {
        total: f64,
        n: i64,
    },
    Min(Option<Value>),
    Max(Option<Value>),
    /// DISTINCT wrapper: collected values, finished by the inner fn.
    Distinct(Vec<Value>, AggFn),
}

/// SUM's running total: exact `i64` while every input is INT (overflow
/// is an error, never a silent wrap), `f64` from the first FLOAT on.
#[derive(Debug, Clone, Copy)]
enum SumAcc {
    /// No non-NULL input yet (SUM is NULL).
    Empty,
    Int(i64),
    Float(f64),
}

impl AggState {
    fn new(a: &AggExpr) -> AggState {
        if a.distinct {
            return AggState::Distinct(Vec::new(), a.func);
        }
        match a.func {
            AggFn::Count | AggFn::CountStar => AggState::Count(0),
            AggFn::Sum => AggState::Sum(SumAcc::Empty),
            AggFn::Avg => AggState::Avg { total: 0.0, n: 0 },
            AggFn::Min => AggState::Min(None),
            AggFn::Max => AggState::Max(None),
        }
    }

    fn update(&mut self, v: Value, is_star: bool) -> RelResult<()> {
        match self {
            AggState::Count(n) => {
                if is_star || !v.is_null() {
                    *n += 1;
                }
            }
            AggState::Sum(acc) => {
                *acc = match (*acc, &v) {
                    (_, Value::Null) => *acc,
                    (SumAcc::Empty, Value::Int(n)) => SumAcc::Int(*n),
                    (SumAcc::Int(total), Value::Int(n)) => {
                        SumAcc::Int(total.checked_add(*n).ok_or_else(|| {
                            RelError::Arithmetic("integer overflow in SUM".into())
                        })?)
                    }
                    (SumAcc::Empty, _) => SumAcc::Float(0.0 + v.as_float()?),
                    (SumAcc::Int(total), _) => SumAcc::Float(total as f64 + v.as_float()?),
                    (SumAcc::Float(total), _) => SumAcc::Float(total + v.as_float()?),
                };
            }
            AggState::Avg { total, n } => {
                if !v.is_null() {
                    *total += v.as_float()?;
                    *n += 1;
                }
            }
            AggState::Min(cur) => {
                if !v.is_null() && cur.as_ref().is_none_or(|c| v < *c) {
                    *cur = Some(v);
                }
            }
            AggState::Max(cur) => {
                if !v.is_null() && cur.as_ref().is_none_or(|c| v > *c) {
                    *cur = Some(v);
                }
            }
            AggState::Distinct(vals, _) => {
                if is_star || !v.is_null() {
                    vals.push(v);
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> RelResult<Value> {
        Ok(match self {
            AggState::Count(n) => Value::Int(n),
            AggState::Sum(SumAcc::Empty) => Value::Null,
            AggState::Sum(SumAcc::Int(total)) => Value::Int(total),
            AggState::Sum(SumAcc::Float(total)) => Value::float(total),
            AggState::Avg { total, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::float(total / n as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
            AggState::Distinct(mut vals, func) => {
                vals.sort();
                vals.dedup();
                let mut inner = AggState::new(&AggExpr {
                    func,
                    arg: Expr::lit(0i64),
                    distinct: false,
                    name: String::new(),
                });
                for v in vals {
                    inner.update(v, false)?;
                }
                inner.finish()?
            }
        })
    }
}

fn aggregate_rows(rows: &[Row], group_by: &[Expr], aggs: &[AggExpr]) -> RelResult<Vec<Row>> {
    let mut groups: HashMap<Vec<Value>, Vec<AggState>> = HashMap::new();
    // Preserve first-seen group order for deterministic output.
    let mut order: Vec<Vec<Value>> = Vec::new();
    for r in rows {
        let mut key = Vec::with_capacity(group_by.len());
        for g in group_by {
            key.push(g.eval(r)?);
        }
        let states = match groups.get_mut(&key) {
            Some(s) => s,
            None => {
                order.push(key.clone());
                groups
                    .entry(key.clone())
                    .or_insert_with(|| aggs.iter().map(AggState::new).collect())
            }
        };
        for (state, a) in states.iter_mut().zip(aggs) {
            let is_star = a.func == AggFn::CountStar;
            let v = if is_star {
                Value::Int(1)
            } else {
                a.arg.eval(r)?
            };
            state.update(v, is_star)?;
        }
    }
    aggregate_finish(groups, order, group_by, aggs)
}

/// Finish accumulated groups into output rows (first-seen group order).
fn aggregate_finish(
    mut groups: HashMap<Vec<Value>, Vec<AggState>>,
    order: Vec<Vec<Value>>,
    group_by: &[Expr],
    aggs: &[AggExpr],
) -> RelResult<Vec<Row>> {
    // Global aggregate over empty input still yields one row.
    if groups.is_empty() && group_by.is_empty() {
        let states: Vec<AggState> = aggs.iter().map(AggState::new).collect();
        let mut row = Vec::with_capacity(aggs.len());
        for s in states {
            row.push(s.finish()?);
        }
        return Ok(vec![row]);
    }
    let mut out = Vec::with_capacity(groups.len());
    for key in order {
        let states = groups.remove(&key).expect("group recorded in order");
        let mut row = key;
        for s in states {
            row.push(s.finish()?);
        }
        out.push(row);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------

fn sort_rows(mut rows: Vec<Row>, keys: &[SortKey]) -> RelResult<Vec<Row>> {
    // Pre-compute key tuples so expression evaluation happens O(n), not
    // O(n log n); then sort indices and gather.
    let mut keyed: Vec<(Vec<Value>, usize)> = Vec::with_capacity(rows.len());
    for (i, r) in rows.iter().enumerate() {
        let mut k = Vec::with_capacity(keys.len());
        for sk in keys {
            k.push(sk.expr.eval(r)?);
        }
        keyed.push((k, i));
    }
    keyed.sort_by(|(a, ai), (b, bi)| {
        for (i, sk) in keys.iter().enumerate() {
            let ord = a[i].total_cmp(&b[i]);
            let ord = if sk.desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        ai.cmp(bi) // stable tiebreak
    });
    let mut out = Vec::with_capacity(rows.len());
    for (_, i) in keyed {
        out.push(std::mem::take(&mut rows[i]));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Vectorized (batch-at-a-time) operators
//
// Operators exchange `Batch`es: `Arc`-shared typed columns plus a
// selection vector. Filters narrow the selection instead of copying
// rows; projections run `Expr::eval_batch` kernels over the selected
// slots only. Row materialization happens once, at the `ResultSet`
// boundary. Results are byte-identical to the row executor above (the
// differential oracle) — `tests/batch_differential.rs` holds the line.
// ---------------------------------------------------------------------

/// Evaluate `predicate` over the batch's live rows in `batch_size`-row
/// chunks; returns the surviving *view* positions plus the chunk count.
/// SQL WHERE semantics: NULL and false both drop the row, a non-boolean
/// result is a type error (exactly [`Expr::eval_predicate`]).
fn filter_selection(
    batch: &Batch,
    predicate: &Expr,
    batch_size: usize,
) -> RelResult<(Vec<u32>, usize)> {
    let sel = batch.selection();
    let cols = batch.columns();
    let chunk = batch_size.max(1);
    let mut keep = Vec::new();
    let mut batches = 0usize;
    for part in sel.chunks(chunk) {
        let base = batches * chunk;
        batches += 1;
        let ec = predicate.eval_batch(cols, part)?;
        for k in 0..part.len() {
            match ec.value_at(k) {
                Value::Bool(true) => keep.push((base + k) as u32),
                Value::Bool(false) | Value::Null => {}
                other => {
                    return Err(RelError::TypeMismatch {
                        expected: "Bool".into(),
                        found: other.type_name().into(),
                    })
                }
            }
        }
    }
    Ok((keep, batches))
}

/// Evaluate the projection kernels over the selected slots, producing a
/// dense batch. Column-picking projections over a dense input reuse the
/// input column `Arc` outright.
fn project_batched(
    batch: &Batch,
    exprs: &[(Expr, String)],
    batch_size: usize,
) -> RelResult<(Batch, usize)> {
    let sel = batch.selection();
    let n = sel.len();
    let cols = batch.columns();
    let chunk = batch_size.max(1);
    let batches = n.div_ceil(chunk);
    let mut out: Vec<Arc<BatchColumn>> = Vec::with_capacity(exprs.len());
    for (e, _) in exprs {
        if let Expr::Column(i) = e {
            if *i < cols.len() && !batch.has_selection() {
                out.push(Arc::clone(&cols[*i]));
                continue;
            }
        }
        if n <= chunk {
            out.push(Arc::new(e.eval_batch(cols, &sel)?.into_column(n)));
        } else {
            let mut b = ColumnBuilder::with_capacity(n);
            for part in sel.chunks(chunk) {
                let ec = e.eval_batch(cols, part)?;
                for k in 0..part.len() {
                    b.push(ec.value_at(k));
                }
            }
            out.push(Arc::new(b.finish()));
        }
    }
    Ok((Batch::new(out, n), batches))
}

/// Batched scan. Sequential scans serve the table's cached columnar image
/// ([`Table::columnar`]) and fuse the pushed-down filter (selection
/// vector) and projection (column picking) into it without copying a
/// single row. Index-served paths touch few rows, so they reuse the row
/// machinery and transpose.
fn scan_batched(
    t: &Table,
    projection: &Option<Vec<usize>>,
    filter: &Option<Expr>,
    opts: &ExecOptions,
) -> RelResult<(Batch, AccessPath, usize)> {
    let path = choose_access_path(t, filter);
    if matches!(path, AccessPath::SeqScan) {
        metrics().scan_seq.inc();
        let cols = t.columnar();
        let mut batch = Batch::new((*cols).clone(), t.len());
        let mut batches = 1;
        if let Some(f) = filter {
            let (keep, nb) = filter_selection(&batch, f, opts.batch_size)?;
            batches = nb;
            batch = batch.select(keep);
        }
        if let Some(idx) = projection {
            let projected = idx.iter().map(|&i| Arc::clone(batch.column(i))).collect();
            batch = batch.with_columns(projected);
        }
        Ok((batch, path, batches))
    } else {
        let (rows, path) = scan_table(t, projection, filter)?;
        let width = projection
            .as_ref()
            .map_or(t.schema().columns().len(), Vec::len);
        Ok((Batch::from_rows(&rows, width), path, 1))
    }
}

/// Batched hash join: build over the right columns, probe the left view
/// in order, then gather both sides' output columns by match index (typed
/// gathers; NULL-extension for LEFT OUTER falls back to a builder).
/// Non-equi predicates use the row nested-loop join and transpose.
fn join_batched(
    left: &Batch,
    right: &Batch,
    kind: JoinKind,
    on: &Expr,
) -> RelResult<(Batch, JoinInfo)> {
    let (left_width, right_width) = (left.width(), right.width());
    let (lk, rk, residual) = extract_equi_keys(on, left_width);
    if lk.is_empty() {
        let (rows, info) = join_rows(
            left.to_rows(),
            right.to_rows(),
            left_width,
            right_width,
            kind,
            on,
        )?;
        return Ok((Batch::from_rows(&rows, left_width + right_width), info));
    }
    let residual = if residual.is_empty() {
        None
    } else {
        Some(Expr::conjoin(residual))
    };
    let mut build: HashMap<Vec<Value>, Vec<u32>> = HashMap::with_capacity(right.len());
    for j in 0..right.len() {
        let key: Vec<Value> = rk.iter().map(|&k| right.value(k, j)).collect();
        if key.iter().any(Value::is_null) {
            continue; // NULL keys never join
        }
        build.entry(key).or_default().push(j as u32);
    }
    let mut pairs: Vec<(u32, Option<u32>)> = Vec::new();
    for j in 0..left.len() {
        let key: Vec<Value> = lk.iter().map(|&k| left.value(k, j)).collect();
        let mut matched = false;
        if !key.iter().any(Value::is_null) {
            if let Some(idxs) = build.get(&key) {
                for &i in idxs {
                    let ok = match &residual {
                        Some(p) => {
                            let mut combined = left.row(j);
                            combined.extend(right.row(i as usize));
                            p.eval_predicate(&combined)?
                        }
                        None => true,
                    };
                    if ok {
                        matched = true;
                        pairs.push((j as u32, Some(i)));
                    }
                }
            }
        }
        if !matched && kind == JoinKind::LeftOuter {
            pairs.push((j as u32, None));
        }
    }
    let lidx: Vec<u32> = pairs
        .iter()
        .map(|&(j, _)| left.base_index(j as usize) as u32)
        .collect();
    let mut out: Vec<Arc<BatchColumn>> = Vec::with_capacity(left_width + right_width);
    for c in 0..left_width {
        out.push(Arc::new(left.column(c).gather(&lidx)));
    }
    if pairs.iter().all(|&(_, r)| r.is_some()) {
        let ridx: Vec<u32> = pairs
            .iter()
            .filter_map(|&(_, r)| r.map(|i| right.base_index(i as usize) as u32))
            .collect();
        for c in 0..right_width {
            out.push(Arc::new(right.column(c).gather(&ridx)));
        }
    } else {
        for c in 0..right_width {
            let col = right.column(c);
            let mut b = ColumnBuilder::with_capacity(pairs.len());
            for &(_, r) in &pairs {
                match r {
                    Some(i) => b.push(col.value(right.base_index(i as usize))),
                    None => b.push(Value::Null),
                }
            }
            out.push(Arc::new(b.finish()));
        }
    }
    Ok((
        Batch::new(out, pairs.len()),
        JoinInfo {
            hash: true,
            keys: lk.len(),
        },
    ))
}

/// Batched aggregation: group keys and aggregate arguments evaluate as
/// kernels over the full selection, then feed the shared [`AggState`]
/// machinery — so grouping/accumulation semantics (including first-seen
/// group order) are the row path's by construction.
fn aggregate_batched(batch: &Batch, group_by: &[Expr], aggs: &[AggExpr]) -> RelResult<Vec<Row>> {
    let sel = batch.selection();
    let n = sel.len();
    let cols = batch.columns();
    let gcols: Vec<EvalCol> = group_by
        .iter()
        .map(|g| g.eval_batch(cols, &sel))
        .collect::<RelResult<Vec<_>>>()?;
    let acols: Vec<Option<EvalCol>> = aggs
        .iter()
        .map(|a| {
            if a.func == AggFn::CountStar {
                Ok(None) // COUNT(*): the argument is never evaluated
            } else {
                a.arg.eval_batch(cols, &sel).map(Some)
            }
        })
        .collect::<RelResult<Vec<_>>>()?;
    let mut groups: HashMap<Vec<Value>, Vec<AggState>> = HashMap::new();
    let mut order: Vec<Vec<Value>> = Vec::new();
    for j in 0..n {
        let key: Vec<Value> = gcols.iter().map(|g| g.value_at(j)).collect();
        let states = match groups.get_mut(&key) {
            Some(s) => s,
            None => {
                order.push(key.clone());
                groups
                    .entry(key.clone())
                    .or_insert_with(|| aggs.iter().map(AggState::new).collect())
            }
        };
        for ((state, a), ac) in states.iter_mut().zip(aggs).zip(&acols) {
            let is_star = a.func == AggFn::CountStar;
            let v = match ac {
                None => Value::Int(1),
                Some(c) => c.value_at(j),
            };
            state.update(v, is_star)?;
        }
    }
    aggregate_finish(groups, order, group_by, aggs)
}

/// Batched sort: key expressions evaluate as kernels, then only the
/// selection vector is permuted — column data never moves.
fn sort_batched(batch: Batch, keys: &[SortKey]) -> RelResult<Batch> {
    let n = batch.len();
    let kcols: Vec<EvalCol> = {
        let sel = batch.selection();
        keys.iter()
            .map(|sk| sk.expr.eval_batch(batch.columns(), &sel))
            .collect::<RelResult<Vec<_>>>()?
    };
    let keyed: Vec<Vec<Value>> = (0..n)
        .map(|j| kcols.iter().map(|k| k.value_at(j)).collect())
        .collect();
    let mut idx: Vec<u32> = (0..n as u32).collect();
    idx.sort_by(|&a, &b| {
        for (i, sk) in keys.iter().enumerate() {
            let ord = keyed[a as usize][i].total_cmp(&keyed[b as usize][i]);
            let ord = if sk.desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        a.cmp(&b) // stable tiebreak
    });
    Ok(batch.select(idx))
}

/// Batched limit/offset: a selection-vector slice; no data moves.
fn limit_batched(batch: Batch, limit: Option<usize>, offset: usize) -> Batch {
    let n = batch.len();
    let start = offset.min(n);
    let end = match limit {
        Some(l) => start.saturating_add(l).min(n),
        None => n,
    };
    if start == 0 && end == n {
        return batch;
    }
    batch.select((start as u32..end as u32).collect())
}

/// Concatenate two batches (UNION ALL).
fn union_batched(left: &Batch, right: &Batch) -> Batch {
    let width = left.width();
    let n = left.len() + right.len();
    let mut cols = Vec::with_capacity(width);
    for c in 0..width {
        let mut b = ColumnBuilder::with_capacity(n);
        for j in 0..left.len() {
            b.push(left.value(c, j));
        }
        for j in 0..right.len() {
            b.push(right.value(c, j));
        }
        cols.push(Arc::new(b.finish()));
    }
    Batch::new(cols, n)
}

/// Batched Extend: the nest map builds straight from the related batch's
/// columns (shared [`build_nest_map_core`]), the probe appends one nested
/// column to the compacted input.
fn extend_batched(input: Batch, related: &Batch, key_col: usize, rating: bool) -> RelResult<Batch> {
    let map = build_nest_map_core(
        (0..related.len()).map(|j| {
            (
                related.value(0, j),
                related.value(1, j),
                if rating {
                    Some(related.value(2, j))
                } else {
                    None
                },
            )
        }),
        rating,
    )?;
    let input = input.compact();
    let n = input.len();
    let mut b = ColumnBuilder::with_capacity(n);
    for j in 0..n {
        let keyv = input.value(key_col, j);
        let key = as_rec_scalar(&keyv)
            .ok_or_else(|| RelError::Invalid("extend key not scalar".into()))?;
        let nested = match map.get(key) {
            Some(v) => v.clone(),
            None if rating => Value::Ratings(Vec::new()),
            None => Value::Set(Vec::new()),
        };
        b.push(nested);
    }
    let mut cols = input.columns().to_vec();
    cols.push(Arc::new(b.finish()));
    Ok(Batch::new(cols, n))
}

/// Batched Recommend. Scoring is O(targets × comparators) over nested
/// Set/Ratings values — compute-bound, not dispatch-bound — so both sides
/// materialize once and the scoring core runs unchanged (shared with the
/// oracle by construction).
fn recommend_batched(target: &Batch, comparator: &Batch, spec: &RecSpec) -> RelResult<Batch> {
    let width = target.width() + 1;
    let rows = recommend_rows(target.to_rows(), &comparator.to_rows(), spec)?;
    Ok(Batch::from_rows(&rows, width))
}

/// What an operator observed while running, kept as plain values so the
/// unprofiled walk formats nothing; [`describe`] renders it into the
/// EXPLAIN ANALYZE detail only when a profile is being recorded.
enum OpFacts {
    None,
    /// Access path and kernel-invocation count of a scan.
    Scan(AccessPath, usize),
    /// Kernel-invocation count of a filter or projection.
    Batches(usize),
    Join(JoinInfo),
}

/// The vectorized walker (the default execution path). With `sink` set,
/// the node times itself, opens an operator span, and pushes its
/// [`OpProfile`] (children nested) into `sink`; without it the walk takes
/// no clock reads, opens no spans and formats no strings.
fn run_batched(
    plan: &LogicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
    sink: Option<&mut Vec<OpProfile>>,
) -> RelResult<Batch> {
    let Some(sink) = sink else {
        return Ok(run_node(plan, catalog, opts, None)?.0);
    };
    // Opened before recursing so child operators nest under this node in
    // the trace; the operator name is only known afterwards, hence the
    // rename below.
    let mut span = cr_obs::trace::TraceSpan::child("op");
    let t0 = Instant::now();
    let mut children = Vec::new();
    let (batch, facts) = run_node(plan, catalog, opts, Some(&mut children))?;
    let elapsed = t0.elapsed();
    // Pre-resolved per-kind histogram: elapsed is already measured,
    // recording is one atomic bump (no registry lock).
    metrics().op_hist(plan).record_duration(elapsed);
    let (op, detail) = describe(plan, facts, batch.len());
    if span.is_recording() {
        span.set_name(&op);
        span.attr("rows_out", batch.len().to_string());
        if !detail.is_empty() {
            span.attr("detail", detail.join(" "));
        }
    }
    sink.push(OpProfile {
        op,
        detail,
        rows_out: batch.len(),
        elapsed,
        children,
    });
    Ok(batch)
}

/// Run one plan node's batched operator over its children's output,
/// passing the profile sink (if any) down to the children.
fn run_node(
    plan: &LogicalPlan,
    catalog: &Catalog,
    opts: &ExecOptions,
    mut children: Option<&mut Vec<OpProfile>>,
) -> RelResult<(Batch, OpFacts)> {
    let mut child = |p: &LogicalPlan| run_batched(p, catalog, opts, children.as_deref_mut());
    Ok(match plan {
        LogicalPlan::Scan {
            table,
            projection,
            filter,
            ..
        } => {
            let (batch, path, batches) =
                catalog.with_table(table, |t| scan_batched(t, projection, filter, opts))??;
            (batch, OpFacts::Scan(path, batches))
        }

        LogicalPlan::Filter { input, predicate } => {
            let batch = child(input)?;
            let (keep, batches) = filter_selection(&batch, predicate, opts.batch_size)?;
            (batch.select(keep), OpFacts::Batches(batches))
        }

        LogicalPlan::Project { input, exprs, .. } => {
            let (batch, batches) = project_batched(&child(input)?, exprs, opts.batch_size)?;
            (batch, OpFacts::Batches(batches))
        }

        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            ..
        } => {
            let l = child(left)?;
            let r = child(right)?;
            let (batch, info) = join_batched(&l, &r, *kind, on)?;
            (batch, OpFacts::Join(info))
        }

        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            ..
        } => {
            let rows = aggregate_batched(&child(input)?, group_by, aggs)?;
            (
                Batch::from_rows(&rows, group_by.len() + aggs.len()),
                OpFacts::None,
            )
        }

        LogicalPlan::Sort { input, keys } => (sort_batched(child(input)?, keys)?, OpFacts::None),

        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => (limit_batched(child(input)?, *limit, *offset), OpFacts::None),

        LogicalPlan::Values { rows, .. } => {
            (Batch::from_rows(rows, plan.schema().len()), OpFacts::None)
        }

        LogicalPlan::Union { left, right } => {
            let l = child(left)?;
            let r = child(right)?;
            (union_batched(&l, &r), OpFacts::None)
        }

        LogicalPlan::Extend {
            input,
            related,
            key_col,
            rating,
            ..
        } => {
            let i = child(input)?;
            let r = child(related)?;
            (extend_batched(i, &r, *key_col, *rating)?, OpFacts::None)
        }

        LogicalPlan::Recommend {
            target,
            comparator,
            spec,
            ..
        } => {
            let t = child(target)?;
            let c = child(comparator)?;
            (recommend_batched(&t, &c, spec)?, OpFacts::None)
        }
    })
}

/// The EXPLAIN ANALYZE operator name and detail fields for one node that
/// produced `rows_out` rows.
fn describe(plan: &LogicalPlan, facts: OpFacts, rows_out: usize) -> (String, Vec<String>) {
    let mut detail = Vec::new();
    let op = match plan {
        LogicalPlan::Scan {
            table,
            alias,
            filter,
            ..
        } => {
            if let OpFacts::Scan(path, batches) = facts {
                detail.push(format!("access={path}"));
                if let Some(f) = filter {
                    detail.push(format!("filter={f}"));
                }
                detail.push(format!("batches={batches}"));
                detail.push(format!("selected={rows_out}"));
            }
            match alias {
                Some(a) if a != table => format!("Scan {table} AS {a}"),
                _ => format!("Scan {table}"),
            }
        }

        LogicalPlan::Filter { predicate, .. } => {
            detail.push(format!("predicate={predicate}"));
            if let OpFacts::Batches(batches) = facts {
                detail.push(format!("batches={batches}"));
            }
            detail.push(format!("selected={rows_out}"));
            "Filter".to_owned()
        }

        LogicalPlan::Project { exprs, .. } => {
            detail.push(format!("exprs={}", exprs.len()));
            if let OpFacts::Batches(batches) = facts {
                detail.push(format!("batches={batches}"));
            }
            "Project".to_owned()
        }

        LogicalPlan::Join { kind, .. } => {
            detail.push(format!("kind={kind:?}"));
            match facts {
                OpFacts::Join(info) if info.hash => {
                    detail.push(format!("keys={}", info.keys));
                    detail.push("build=right".to_owned());
                    "HashJoin".to_owned()
                }
                _ => "NestedLoopJoin".to_owned(),
            }
        }

        LogicalPlan::Aggregate { group_by, aggs, .. } => {
            detail.push(format!("group_by={}", group_by.len()));
            detail.push(format!("aggs={}", aggs.len()));
            "Aggregate".to_owned()
        }

        LogicalPlan::Sort { keys, .. } => {
            detail.push(format!("keys={}", keys.len()));
            "Sort".to_owned()
        }

        LogicalPlan::Limit { limit, offset, .. } => {
            if let Some(n) = limit {
                detail.push(format!("limit={n}"));
            }
            if *offset > 0 {
                detail.push(format!("offset={offset}"));
            }
            "Limit".to_owned()
        }

        LogicalPlan::Values { .. } => "Values".to_owned(),

        LogicalPlan::Union { .. } => "Union".to_owned(),

        LogicalPlan::Extend {
            key_col,
            rating,
            as_name,
            ..
        } => {
            detail.push(format!("kind={}", if *rating { "ratings" } else { "set" }));
            detail.push(format!("key=#{key_col}"));
            detail.push(format!("as={as_name}"));
            "Extend".to_owned()
        }

        LogicalPlan::Recommend { spec, .. } => {
            detail.push(format!("method={}", spec.method.name()));
            detail.push(format!("agg={}", spec.agg));
            if let Some(k) = spec.k {
                detail.push(format!("top={k}"));
            }
            if spec.exclude_seen.is_some() {
                detail.push("exclude_seen".to_owned());
            }
            "Recommend".to_owned()
        }
    };
    (op, detail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::plan::PlanBuilder;
    use crate::schema::DataType;

    fn db() -> Database {
        let db = Database::new();
        db.execute_sql(
            "CREATE TABLE courses (id INT PRIMARY KEY, dep TEXT, units INT, rating FLOAT)",
        )
        .unwrap();
        db.execute_sql(
            "INSERT INTO courses VALUES \
             (1,'CS',5,4.5),(2,'CS',3,3.0),(3,'HIST',4,4.0),(4,'HIST',4,NULL),(5,'MATH',3,2.5)",
        )
        .unwrap();
        db.execute_sql("CREATE TABLE comments (cid INT PRIMARY KEY, course_id INT, text TEXT)")
            .unwrap();
        db.execute_sql("INSERT INTO comments VALUES (10,1,'great'),(11,1,'hard'),(12,3,'fun')")
            .unwrap();
        db
    }

    #[test]
    fn seq_scan_all() {
        let db = db();
        let rs = db.query_sql("SELECT * FROM courses").unwrap();
        assert_eq!(rs.rows.len(), 5);
        assert_eq!(rs.schema.len(), 4);
    }

    #[test]
    fn queries_record_metrics_without_setup() {
        let r = cr_obs::Registry::global();
        let (queries, rows_out) = (
            r.counter("relation.queries"),
            r.counter("relation.rows_out"),
        );
        let (q0, r0) = (queries.get(), rows_out.get());
        let db = db();
        let rs = db.query_sql("SELECT * FROM courses").unwrap();
        assert_eq!(rs.rows.len(), 5);
        assert!(queries.get() > q0);
        assert!(rows_out.get() >= r0 + 5);
    }

    #[test]
    fn pk_lookup_path_chosen() {
        let db = db();
        db.catalog()
            .with_table("courses", |t| {
                let filter = Some(Expr::col_idx(0).eq(Expr::lit(3i64)));
                assert_eq!(
                    choose_access_path(t, &filter),
                    AccessPath::PkLookup(vec![Value::Int(3)])
                );
            })
            .unwrap();
    }

    #[test]
    fn secondary_index_path_chosen_and_correct() {
        let db = db();
        db.create_index("courses", "by_dep", &["dep"], false)
            .unwrap();
        db.catalog()
            .with_table("courses", |t| {
                let filter = Some(Expr::col_idx(1).eq(Expr::lit("CS")));
                assert_eq!(
                    choose_access_path(t, &filter),
                    AccessPath::IndexEq("by_dep".into(), vec![Value::text("CS")])
                );
            })
            .unwrap();
        let rs = db
            .query_sql("SELECT id FROM courses WHERE dep = 'CS'")
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn btree_range_path() {
        let db = db();
        db.create_btree_index("courses", "by_units", &["units"], false)
            .unwrap();
        let rs = db
            .query_sql("SELECT id FROM courses WHERE units >= 4 AND units <= 5")
            .unwrap();
        let mut ids: Vec<i64> = rs.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        ids.sort();
        assert_eq!(ids, vec![1, 3, 4]);
        db.catalog()
            .with_table("courses", |t| {
                let filter = Some(
                    Expr::col_idx(2)
                        .gt_eq(Expr::lit(4i64))
                        .and(Expr::col_idx(2).lt_eq(Expr::lit(5i64))),
                );
                assert!(matches!(
                    choose_access_path(t, &filter),
                    AccessPath::IndexRange { .. }
                ));
            })
            .unwrap();
    }

    #[test]
    fn hash_join_inner() {
        let db = db();
        let rs = db
            .query_sql(
                "SELECT courses.id, comments.text FROM courses \
                 JOIN comments ON courses.id = comments.course_id",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn left_outer_join_extends_with_nulls() {
        let db = db();
        let rs = db
            .query_sql(
                "SELECT courses.id, comments.text FROM courses \
                 LEFT JOIN comments ON courses.id = comments.course_id \
                 ORDER BY courses.id",
            )
            .unwrap();
        // 1 has two comments, 3 has one, 2/4/5 null-extended: 6 rows.
        assert_eq!(rs.rows.len(), 6);
        let null_rows = rs.rows.iter().filter(|r| r[1].is_null()).count();
        assert_eq!(null_rows, 3);
    }

    #[test]
    fn nested_loop_for_non_equi_join() {
        let db = db();
        let rs = db
            .query_sql("SELECT a.id, b.id FROM courses a JOIN courses b ON a.units < b.units")
            .unwrap();
        // pairs with strictly smaller units: units are [5,3,4,4,3]
        // 3<4 (2 with id3), 3<4(id4), 3<5; two rows with units 3 → 2*3=6, 4<5 ×2 → 8
        assert_eq!(rs.rows.len(), 8);
    }

    #[test]
    fn aggregate_groups_and_nulls() {
        let db = db();
        let rs = db
            .query_sql(
                "SELECT dep, COUNT(*) AS n, AVG(rating) AS avg_r, SUM(units) AS su \
                 FROM courses GROUP BY dep ORDER BY dep",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 3);
        // CS: n=2, avg=(4.5+3)/2=3.75
        assert_eq!(rs.rows[0][0], Value::text("CS"));
        assert_eq!(rs.rows[0][1], Value::Int(2));
        assert_eq!(rs.rows[0][2], Value::Float(3.75));
        // HIST: one NULL rating → avg over non-null only = 4.0
        assert_eq!(rs.rows[1][2], Value::Float(4.0));
    }

    #[test]
    fn count_ignores_null_countstar_does_not() {
        let db = db();
        let rs = db
            .query_sql("SELECT COUNT(rating) AS c, COUNT(*) AS cs FROM courses")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(4));
        assert_eq!(rs.rows[0][1], Value::Int(5));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let db = db();
        let rs = db
            .query_sql("SELECT COUNT(*) AS c, MAX(units) AS m FROM courses WHERE id > 999")
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int(0));
        assert!(rs.rows[0][1].is_null());
    }

    #[test]
    fn distinct_count() {
        let db = db();
        let rs = db
            .query_sql("SELECT COUNT(DISTINCT dep) AS d FROM courses")
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Int(3));
    }

    #[test]
    fn sort_asc_desc_with_nulls_first() {
        let db = db();
        let rs = db
            .query_sql("SELECT id, rating FROM courses ORDER BY rating DESC, id")
            .unwrap();
        // DESC: NULL sorts first ascending → last descending? Our total
        // order puts NULL lowest, so DESC puts it last.
        let ids: Vec<i64> = rs.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![1, 3, 2, 5, 4]);
    }

    #[test]
    fn limit_offset() {
        let db = db();
        let rs = db
            .query_sql("SELECT id FROM courses ORDER BY id LIMIT 2 OFFSET 1")
            .unwrap();
        let ids: Vec<i64> = rs.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![2, 3]);
    }

    #[test]
    fn union_appends() {
        let db = db();
        let rs = db
            .query_sql(
                "SELECT id FROM courses WHERE dep = 'CS' \
                 UNION ALL SELECT id FROM courses WHERE dep = 'MATH'",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn result_set_helpers() {
        let db = db();
        let rs = db.query_sql("SELECT COUNT(*) AS n FROM courses").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(5)));
        let table = rs.to_text_table();
        assert!(table.contains("| n "));
        assert!(table.contains("| 5 "));
    }

    #[test]
    fn programmatic_plan_matches_sql() {
        let db = db();
        let plan = PlanBuilder::scan(&db.catalog(), "courses")
            .unwrap()
            .filter(Expr::col("units").gt_eq(Expr::lit(4i64)))
            .unwrap()
            .select_columns(&["id"])
            .unwrap()
            .sort_by("id", false)
            .unwrap()
            .build();
        let a = db.run_plan(&plan).unwrap();
        let b = db
            .query_sql("SELECT id FROM courses WHERE units >= 4 ORDER BY id")
            .unwrap();
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn instrumented_matches_plain_and_annotates() {
        let db = db();
        let sql = "SELECT courses.id, comments.text FROM courses \
                   JOIN comments ON courses.id = comments.course_id \
                   WHERE courses.units >= 3 ORDER BY courses.id";
        let plain = db.query_sql(sql).unwrap();
        let (rs, profile) = db.explain_analyze_sql(sql).unwrap();
        assert_eq!(rs.rows, plain.rows);
        // Root operator's row count equals the result set's.
        assert_eq!(profile.rows_out, rs.rows.len());
        // The join and both scans are in the tree, scans annotated with
        // their access path.
        let join = profile.find("HashJoin").expect("join profiled");
        assert_eq!(join.children.len(), 2);
        let scan = profile.find("Scan courses").expect("scan profiled");
        assert!(scan.detail.iter().any(|d| d.starts_with("access=")));
        let text = profile.render();
        assert!(text.contains("rows="));
        assert!(text.contains("time="));
    }

    #[test]
    fn instrumented_reports_pk_lookup_access_path() {
        let db = db();
        let (rs, profile) = db
            .explain_analyze_sql("SELECT id FROM courses WHERE id = 3")
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
        let scan = profile.find("Scan courses").expect("scan profiled");
        assert!(
            scan.detail.iter().any(|d| d.contains("PkLookup")),
            "detail: {:?}",
            scan.detail
        );
    }

    #[test]
    fn join_null_keys_never_match() {
        let db = Database::new();
        db.execute_sql("CREATE TABLE a (x INT)").unwrap();
        db.execute_sql("CREATE TABLE b (y INT)").unwrap();
        db.execute_sql("INSERT INTO a VALUES (NULL),(1)").unwrap();
        db.execute_sql("INSERT INTO b VALUES (NULL),(1)").unwrap();
        let rs = db.query_sql("SELECT * FROM a JOIN b ON a.x = b.y").unwrap();
        assert_eq!(rs.rows.len(), 1);
    }

    /// Fixture for the FlexRecs operators: students and the courses they
    /// took, with ratings (one NULL, one duplicate enrollment).
    fn nest_db() -> Database {
        let db = Database::new();
        db.execute_sql("CREATE TABLE students (sid INT PRIMARY KEY, name TEXT)")
            .unwrap();
        db.execute_sql("INSERT INTO students VALUES (1,'ann'),(2,'bob'),(3,'cat')")
            .unwrap();
        db.execute_sql(
            "CREATE TABLE taken (tid INT PRIMARY KEY, sid INT, course INT, rating FLOAT)",
        )
        .unwrap();
        db.execute_sql(
            "INSERT INTO taken VALUES \
             (1,1,101,5.0),(2,1,102,3.0),(3,2,101,4.0),(4,2,103,2.0),\
             (5,3,102,NULL),(6,1,101,3.0)",
        )
        .unwrap();
        db
    }

    fn extend_students(db: &Database, rating: bool) -> crate::plan::LogicalPlan {
        let cols: &[&str] = if rating {
            &["sid", "course", "rating"]
        } else {
            &["sid", "course"]
        };
        let related = PlanBuilder::scan(&db.catalog(), "taken")
            .unwrap()
            .select_columns(cols)
            .unwrap();
        PlanBuilder::scan(&db.catalog(), "students")
            .unwrap()
            .extend(related, "sid", rating, "courses")
            .unwrap()
            .build()
    }

    #[test]
    fn extend_set_nests_sorted_deduped() {
        let db = nest_db();
        let rs = db.run_plan(&extend_students(&db, false)).unwrap();
        assert_eq!(rs.schema.column(2).name, "courses");
        assert_eq!(rs.schema.column(2).data_type, DataType::Set);
        // ann took 101 twice + 102 → deduped sorted {101, 102}.
        assert_eq!(
            rs.rows[0][2],
            Value::Set(vec![Value::Int(101), Value::Int(102)])
        );
        assert_eq!(
            rs.rows[1][2],
            Value::Set(vec![Value::Int(101), Value::Int(103)])
        );
        // cat's only enrollment has NULL rating but the course id exists.
        assert_eq!(rs.rows[2][2], Value::Set(vec![Value::Int(102)]));
    }

    #[test]
    fn extend_ratings_averages_and_skips_nulls() {
        let db = nest_db();
        let rs = db.run_plan(&extend_students(&db, true)).unwrap();
        assert_eq!(rs.schema.column(2).data_type, DataType::Ratings);
        // ann rated 101 twice (5.0, 3.0) → avg 4.0.
        assert_eq!(
            rs.rows[0][2],
            Value::Ratings(vec![(Value::Int(101), 4.0), (Value::Int(102), 3.0)])
        );
        // cat's single enrollment has a NULL rating → empty ratings.
        assert_eq!(rs.rows[2][2], Value::Ratings(vec![]));
    }

    #[test]
    fn recommend_set_similarity_ranks_peers() {
        let db = nest_db();
        let targets = PlanBuilder::from_plan(extend_students(&db, false));
        let comparators = PlanBuilder::from_plan(extend_students(&db, false))
            .filter(Expr::col("name").eq(Expr::lit("ann")))
            .unwrap();
        let spec = RecSpec {
            target_col: 2,
            comparator_col: 2,
            method: RecMethod::Set(crate::similarity::SetSim::Jaccard),
            agg: RecAggPlan::Max,
            k: None,
            unbounded_ok: false,
            score_name: "score".into(),
            exclude_seen: None,
        };
        let plan = targets.recommend(comparators, spec).unwrap().build();
        let rs = db.run_plan(&plan).unwrap();
        assert_eq!(rs.schema.column(3).name, "score");
        // ann vs ann: jaccard 1.0; bob {101,103} vs {101,102}: 1/3;
        // cat {102}: 1/2. Sorted descending: ann, cat, bob.
        let names: Vec<&str> = rs.rows.iter().map(|r| r[1].as_text().unwrap()).collect();
        assert_eq!(names, vec!["ann", "cat", "bob"]);
        assert_eq!(rs.rows[0][3], Value::Float(1.0));
    }

    #[test]
    fn recommend_rating_lookup_with_exclude_seen() {
        let db = nest_db();
        // Targets: the courses themselves; comparators: ann's ratings row.
        let targets = PlanBuilder::scan(&db.catalog(), "taken")
            .unwrap()
            .select_columns(&["course"])
            .unwrap();
        let ann = PlanBuilder::from_plan(extend_students(&db, true))
            .filter(Expr::col("name").eq(Expr::lit("ann")))
            .unwrap();
        let spec = RecSpec {
            target_col: 0,
            comparator_col: 2,
            method: RecMethod::RatingLookup,
            agg: RecAggPlan::Avg,
            k: Some(10),
            unbounded_ok: false,
            score_name: "score".into(),
            exclude_seen: None,
        };
        let rs = db
            .run_plan(&targets.recommend(ann, spec).unwrap().build())
            .unwrap();
        // Courses ann rated: 101→4.0, 102→3.0; 103 has no lookup → dropped.
        // Every `taken` row for 101/102 scores; 101 appears 3×, 102 2×.
        assert_eq!(rs.rows.len(), 5);
        assert_eq!(rs.rows[0][0], Value::Int(101));
        assert_eq!(rs.rows[0][1], Value::Float(4.0));
        // exclude_seen against ann's ratings drops 101 and 102 entirely.
        let targets2 = PlanBuilder::scan(&db.catalog(), "taken")
            .unwrap()
            .select_columns(&["course"])
            .unwrap();
        let ann2 = PlanBuilder::from_plan(extend_students(&db, true))
            .filter(Expr::col("name").eq(Expr::lit("ann")))
            .unwrap();
        let spec2 = RecSpec {
            target_col: 0,
            comparator_col: 2,
            method: RecMethod::RatingLookup,
            agg: RecAggPlan::Avg,
            k: None,
            unbounded_ok: false,
            score_name: "score".into(),
            exclude_seen: Some((0, 2)),
        };
        let rs2 = db
            .run_plan(&targets2.recommend(ann2, spec2).unwrap().build())
            .unwrap();
        assert!(rs2.rows.is_empty(), "all rated courses excluded: {rs2:?}");
    }

    #[test]
    fn recommend_weighted_avg_and_nonpositive_dropped() {
        let db = nest_db();
        // Score students against each other by ratings similarity, weighting
        // by sid (a stand-in for an upstream score column).
        let targets = PlanBuilder::from_plan(extend_students(&db, true));
        let comparators = PlanBuilder::from_plan(extend_students(&db, true));
        let spec = RecSpec {
            target_col: 2,
            comparator_col: 2,
            method: RecMethod::Ratings {
                sim: crate::similarity::RatingsSim::InverseEuclidean,
                min_common: 1,
            },
            agg: RecAggPlan::WeightedAvg { weight_col: 0 },
            k: None,
            unbounded_ok: false,
            score_name: "s".into(),
            exclude_seen: None,
        };
        let rs = db
            .run_plan(&targets.recommend(comparators, spec).unwrap().build())
            .unwrap();
        // cat has an empty ratings attr: inverse-euclidean with no common
        // keys scores 0 against everyone → dropped (score <= 0).
        assert!(rs.rows.iter().all(|r| r[1] != Value::text("cat")));
        assert!(!rs.rows.is_empty());
        for r in &rs.rows {
            assert!(r[3].as_float().unwrap() > 0.0);
        }
    }

    #[test]
    fn extend_key_must_be_scalar() {
        let db = nest_db();
        // Extending on the nested column itself errors.
        let base = PlanBuilder::from_plan(extend_students(&db, false));
        let related = PlanBuilder::scan(&db.catalog(), "taken")
            .unwrap()
            .select_columns(&["sid", "course"])
            .unwrap();
        let plan = base
            .extend(related, "courses", false, "again")
            .unwrap()
            .build();
        let err = db.run_plan(&plan).unwrap_err();
        assert!(err.to_string().contains("not scalar"), "{err}");
    }

    #[test]
    fn extend_recommend_profiled_render() {
        let db = nest_db();
        let targets = PlanBuilder::from_plan(extend_students(&db, true));
        let comparators = PlanBuilder::from_plan(extend_students(&db, true));
        let spec = RecSpec {
            target_col: 2,
            comparator_col: 2,
            method: RecMethod::Ratings {
                sim: crate::similarity::RatingsSim::Pearson,
                min_common: 2,
            },
            agg: RecAggPlan::Max,
            k: Some(3),
            unbounded_ok: false,
            score_name: "score".into(),
            exclude_seen: None,
        };
        let plan = targets.recommend(comparators, spec).unwrap().build();
        let (rs, profile) = db.run_plan_instrumented(&plan).unwrap();
        assert_eq!(profile.rows_out, rs.rows.len());
        let rec = profile.find("Recommend").expect("recommend profiled");
        assert_eq!(rec.children.len(), 2);
        assert!(
            rec.detail.iter().any(|d| d.contains("ratings:pearson")),
            "detail: {:?}",
            rec.detail
        );
        assert!(rec.detail.iter().any(|d| d == "top=3"), "{:?}", rec.detail);
        let ext = profile.find("Extend").expect("extend profiled");
        assert!(
            ext.detail.iter().any(|d| d == "kind=ratings"),
            "detail: {:?}",
            ext.detail
        );
    }

    /// SUM over one column under both executors (they share `AggState`).
    fn sum_both(db: &Database, sql: &str) -> RelResult<Value> {
        let reference = db.query_sql_with(sql, &ExecOptions { batch_size: 0 });
        let batched = db.query_sql(sql);
        assert_eq!(reference, batched, "{sql}");
        Ok(batched?.rows[0][0].clone())
    }

    #[test]
    fn int_sum_is_exact_past_2_pow_53() {
        let db = Database::new();
        db.execute_sql("CREATE TABLE n (x INT)").unwrap();
        db.execute_sql("INSERT INTO n VALUES (9007199254740993),(0),(NULL)")
            .unwrap();
        let sum = sum_both(&db, "SELECT SUM(x) AS s FROM n").unwrap();
        assert_eq!(sum, Value::Int(9_007_199_254_740_993));
    }

    #[test]
    fn int_sum_overflow_is_an_error() {
        let db = Database::new();
        db.execute_sql("CREATE TABLE n (x INT)").unwrap();
        db.execute_sql("INSERT INTO n VALUES (9223372036854775807),(1)")
            .unwrap();
        let err = sum_both(&db, "SELECT SUM(x) AS s FROM n").unwrap_err();
        assert!(matches!(err, RelError::Arithmetic(_)), "{err:?}");
    }

    #[test]
    fn sum_switches_to_float_at_the_first_float() {
        let sum = |vals: Vec<Value>| {
            let mut state = AggState::new(&AggExpr {
                func: AggFn::Sum,
                arg: Expr::lit(0i64),
                distinct: false,
                name: String::new(),
            });
            for v in vals {
                state.update(v, false).unwrap();
            }
            state.finish().unwrap()
        };
        assert_eq!(
            sum(vec![Value::Int(3), Value::Float(0.5), Value::Int(2)]),
            Value::Float(5.5)
        );
        assert_eq!(sum(vec![Value::Int(3), Value::Null]), Value::Int(3));
        assert!(sum(vec![Value::Null]).is_null());
    }
}
