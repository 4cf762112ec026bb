//! Observability tour: exercise the always-on metrics registry through
//! the instrumented services (search, recommendations, planner), then print
//!
//! 1. the step-by-step timing breakdown of a FlexRecs workflow compiled
//!    to SQL (each compiled step is a span),
//! 2. an EXPLAIN ANALYZE tree for the first compiled SQL step —
//!    per-operator row counts, elapsed/self time, and access paths,
//! 3. the process-wide metrics snapshot as a table, as JSON, and in
//!    Prometheus text exposition format.
//!
//! ```sh
//! cargo run --example observability
//! ```

use courserank::services::recs::RecOptions;
use courserank::CourseRank;
use cr_datagen::ScaleConfig;
use cr_flexrecs::compile_and_run;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (db, stats) = cr_datagen::generate(&ScaleConfig::scaled(0.05))?;
    let app = CourseRank::assemble(db)?;
    println!("== campus: {} ==\n", stats.summary());

    // Exercise the instrumented services.
    let (hits, results, _cloud) = app
        .search()
        .search_with_cloud("american history", None, 10)?;
    println!(
        "search \"american history\": {} matches, top hit {:?}",
        results.total,
        hits.first().map(|h| h.title.as_str()).unwrap_or("-")
    );
    let opts = RecOptions {
        min_common: 1, // the 5% campus is ratings-sparse
        ..RecOptions::default()
    };
    let recs = app.recs().recommend_courses(1, &opts)?;
    println!("recommendations for student 1: {}", recs.len());
    let report = app.planner().report(1)?;
    println!("planner report: {} quarters\n", report.quarters.len());

    // A FlexRecs workflow compiled onto the plan pipeline, with one span
    // per phase.
    let wf = app.recs().course_workflow(1, &opts);
    let run = compile_and_run(&wf, &app.db().catalog())?;
    println!("== compiled workflow `{}` phase timings ==", wf.name);
    println!("{}", run.timing_breakdown());

    // EXPLAIN ANALYZE the workflow — the same per-operator renderer SQL
    // queries use, now over Extend/Recommend nodes too.
    let rendered = app.recs().explain_analyze_workflow(&wf)?;
    println!("== EXPLAIN ANALYZE (workflow) ==");
    println!("{rendered}");

    // The process-wide snapshot: every service counter and histogram.
    let snap = app.metrics_snapshot();
    println!("== metrics snapshot ==");
    println!("{}", snap.to_text());
    println!("== snapshot as JSON (first 200 chars) ==");
    let json = snap.to_json();
    println!("{}...\n", &json[..json.len().min(200)]);
    println!("== Prometheus exposition (courserank.* series) ==");
    for line in snap.to_prometheus().lines() {
        if line.contains("courserank_") {
            println!("{line}");
        }
    }
    Ok(())
}
