//! A7 — instrumentation overhead. Three variants of the same join +
//! aggregate query:
//!
//! * `execute`         — the production path: counters and latency
//!   histograms always record;
//! * `explain_analyze` — full per-operator profiling (one clock read per
//!   plan node, not per row);
//! * `execute_traced`  — flight recorder on: a span per plan operator
//!   recorded into the ring (see `tracing_overhead` for its gate).

// Benches are measurement harnesses, not library code: aborting on a
// broken fixture is the right behavior.
#![allow(clippy::unwrap_used)]

use cr_bench::fixtures::observe;
use cr_relation::row::row;
use cr_relation::Database;
use criterion::{criterion_group, criterion_main, Criterion};

const N_ROWS: i64 = 50_000;

fn setup() -> Database {
    let db = Database::new();
    db.execute_sql(
        "CREATE TABLE ratings (id INT PRIMARY KEY, student INT, course INT, score FLOAT)",
    )
    .unwrap();
    db.execute_sql("CREATE TABLE courses (course INT PRIMARY KEY, dep INT)")
        .unwrap();
    let mut rows = Vec::with_capacity(N_ROWS as usize);
    for i in 0..N_ROWS {
        rows.push(row![
            i,
            i % 9_000,
            (i * 7) % 2_000,
            ((i % 9) + 1) as f64 / 2.0
        ]);
    }
    db.insert_many("ratings", rows).unwrap();
    let mut courses = Vec::with_capacity(2_000);
    for c in 0..2_000i64 {
        courses.push(row![c, c % 60]);
    }
    db.insert_many("courses", courses).unwrap();
    db
}

const QUERY: &str = "SELECT c.dep, AVG(r.score) AS s FROM ratings r \
                     JOIN courses c ON r.course = c.course \
                     WHERE r.score >= 2.0 GROUP BY c.dep";

fn bench_obs_overhead(c: &mut Criterion) {
    let db = setup();
    observe(
        "A7",
        &format!("join+aggregate over {N_ROWS} ratings x 2000 courses"),
    );

    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(20);

    group.bench_function("execute", |b| b.iter(|| db.query_sql(QUERY).unwrap()));

    group.bench_function("explain_analyze", |b| {
        b.iter(|| db.explain_analyze_sql(QUERY).unwrap())
    });

    cr_obs::trace::enable();
    group.bench_function("execute_traced", |b| {
        b.iter(|| db.query_sql(QUERY).unwrap())
    });
    cr_obs::trace::disable();

    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
