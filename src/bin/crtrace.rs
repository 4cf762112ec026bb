//! `crtrace` — dump and export the flight recorder.
//!
//! Runs a representative CourseRank workload (search, recommendations,
//! SQL) with tracing enabled, then prints the recorded span trees and,
//! on request, the telemetry system tables, the slow-query log, or a
//! Chrome trace-event export loadable in `chrome://tracing` / Perfetto.
//!
//! ```text
//! crtrace                      # run workload, print span trees
//! crtrace --smoke              # tiny dataset (CI)
//! crtrace --threshold-ms 5     # slow-query capture threshold (default 10)
//! crtrace --filter relation.   # only spans whose name contains SUBSTR
//! crtrace --chrome out.json    # write Chrome trace-event JSON
//! crtrace --tables             # SELECT * from each cr_stat_* table
//! crtrace --slow               # print the slow-query log
//! ```

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use courserank::services::recs::RecOptions;
use courserank::CourseRank;
use cr_obs::trace::{self, SpanId, SpanRecord, TraceId};
use cr_relation::telemetry::SYSTEM_TABLES;

struct Args {
    smoke: bool,
    threshold_ms: u64,
    filter: Option<String>,
    chrome: Option<String>,
    tables: bool,
    slow: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        threshold_ms: 10,
        filter: None,
        chrome: None,
        tables: false,
        slow: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--tables" => args.tables = true,
            "--slow" => args.slow = true,
            "--threshold-ms" => {
                let v = it.next().ok_or("--threshold-ms needs a value")?;
                args.threshold_ms = v.parse().map_err(|e| format!("--threshold-ms {v}: {e}"))?;
            }
            "--filter" => {
                args.filter = Some(it.next().ok_or("--filter needs a value")?);
            }
            "--chrome" => {
                args.chrome = Some(it.next().ok_or("--chrome needs a path")?);
            }
            "--help" | "-h" => {
                println!(
                    "crtrace [--smoke] [--threshold-ms N] [--filter SUBSTR] \
                     [--chrome PATH] [--tables] [--slow]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

/// Run a small multi-service workload with tracing on, so the flight
/// recorder holds spans from every tier (service, FlexRecs, plan
/// operators, storage is exercised only by durable opens).
fn run_workload(smoke: bool) -> Result<CourseRank, String> {
    let cfg = if smoke {
        cr_datagen::ScaleConfig::tiny()
    } else {
        cr_datagen::ScaleConfig::scaled(0.02)
    };
    let (db, _) = cr_datagen::generate(&cfg).map_err(|e| format!("datagen: {e}"))?;
    let app = CourseRank::assemble(db).map_err(|e| format!("assemble: {e}"))?;

    // Generated student ids are 1..=students (gen.rs); 1 always exists.
    let student = 1;
    app.search()
        .search("introduction", 10)
        .map_err(|e| format!("search: {e}"))?;
    app.recs()
        .recommend_courses(student, &RecOptions::default())
        .map_err(|e| format!("recommend: {e}"))?;
    app.planner()
        .report(student)
        .map_err(|e| format!("planner: {e}"))?;
    app.db()
        .database()
        .query_sql(
            "SELECT DepID, COUNT(*) AS n FROM Courses GROUP BY DepID ORDER BY n DESC LIMIT 5",
        )
        .map_err(|e| format!("sql: {e}"))?;
    Ok(app)
}

/// Print one trace as an indented tree: children group under parents,
/// siblings in start order.
fn print_trace(trace: TraceId, records: &[&SpanRecord], filter: Option<&str>) {
    let mut children: BTreeMap<Option<SpanId>, Vec<&SpanRecord>> = BTreeMap::new();
    for r in records {
        children.entry(r.parent).or_default().push(r);
    }
    for v in children.values_mut() {
        v.sort_by_key(|r| (r.start_ns, r.seq));
    }
    // Parents may have been evicted from the ring; treat orphans as roots.
    let known: std::collections::BTreeSet<SpanId> = records.iter().map(|r| r.span).collect();
    let mut roots: Vec<&SpanRecord> = records
        .iter()
        .filter(|r| r.parent.is_none() || !known.contains(&r.parent.expect("checked")))
        .copied()
        .collect();
    roots.sort_by_key(|r| (r.start_ns, r.seq));

    println!("trace {:#x}", trace.0);
    let mut stack: Vec<(&SpanRecord, usize)> = roots.into_iter().rev().map(|r| (r, 1)).collect();
    while let Some((r, depth)) = stack.pop() {
        if filter.is_none_or(|f| r.name.contains(f)) {
            let attrs: Vec<String> = r.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            println!(
                "{}{} {:>10}ns thread={}{}{}",
                "  ".repeat(depth),
                r.name,
                r.dur_ns,
                r.thread,
                if attrs.is_empty() { "" } else { " " },
                attrs.join(" "),
            );
            for (ts, msg) in &r.events {
                println!("{}@{}ns: {}", "  ".repeat(depth + 1), ts, msg);
            }
        }
        if let Some(kids) = children.get(&Some(r.span)) {
            for k in kids.iter().rev() {
                stack.push((k, depth + 1));
            }
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;

    trace::enable();
    trace::set_slow_query_threshold(Some(Duration::from_millis(args.threshold_ms)));
    let app = run_workload(args.smoke)?;
    trace::disable();
    trace::set_slow_query_threshold(None);

    let recorder = trace::recorder();
    let records = recorder.snapshot();
    println!(
        "flight recorder: {} spans held (capacity {}, {} recorded, {} dropped)",
        records.len(),
        recorder.capacity(),
        recorder.recorded(),
        recorder.dropped(),
    );

    let mut by_trace: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for r in &records {
        by_trace.entry(r.trace.0).or_default().push(r);
    }
    for (trace, spans) in &by_trace {
        print_trace(TraceId(*trace), spans, args.filter.as_deref());
    }

    if let Some(path) = &args.chrome {
        let json = trace::export_chrome_trace(&records);
        std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
        println!(
            "wrote {} bytes of Chrome trace events to {path}",
            json.len()
        );
    }

    if args.slow {
        let slow = trace::slow_queries();
        println!(
            "\nslow queries (threshold {} ms): {}",
            args.threshold_ms,
            slow.len()
        );
        for q in &slow {
            println!(
                "#{} fingerprint={:016x} label={} total={}ns",
                q.seq, q.fingerprint, q.label, q.total_ns
            );
            for line in q.tree.lines() {
                println!("    {line}");
            }
        }
    }

    if args.tables {
        let db = app.db().database();
        for table in SYSTEM_TABLES {
            let rs = db
                .query_sql(&format!("SELECT * FROM {table}"))
                .map_err(|e| format!("SELECT * FROM {table}: {e}"))?;
            println!("\n-- {table} ({} rows)", rs.rows.len());
            print!("{}", rs.to_text_table());
        }
    }

    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("crtrace: {e}");
            ExitCode::FAILURE
        }
    }
}
