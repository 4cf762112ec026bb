//! `crserve` — serve CourseRank over TCP.
//!
//! ```text
//! crserve [--addr HOST:PORT] [--scale tiny|paper] [--dir PATH]
//!         [--readers N] [--writers N] [--queue N] [--staleness-ms N]
//!         [--smoke]
//! ```
//!
//! Without `--dir`, a synthetic campus is generated at `--scale` and
//! served from memory. With `--dir`, the durable store there is opened
//! (recovering from snapshot + WAL) and every write is logged —
//! restart-safe. `--smoke` skips TCP entirely: it drives a scripted
//! client over the in-process transport and exits nonzero on any
//! mismatch, which is what CI runs.

use std::process::ExitCode;
use std::sync::Arc;

use cr_server::client::Client;
use cr_server::protocol::Response;
use cr_server::server::{Server, ServerConfig};
use cr_server::transport;
use cr_server::AdmissionConfig;

struct Args {
    addr: String,
    scale: String,
    dir: Option<String>,
    readers: u64,
    writers: u64,
    queue: u64,
    staleness_ms: u64,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_owned(),
        scale: "tiny".to_owned(),
        dir: None,
        readers: 32,
        writers: 4,
        queue: 64,
        staleness_ms: 8,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match a.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--scale" => args.scale = value("--scale")?,
            "--dir" => args.dir = Some(value("--dir")?),
            "--readers" => {
                args.readers = value("--readers")?
                    .parse()
                    .map_err(|e| format!("--readers: {e}"))?
            }
            "--writers" => {
                args.writers = value("--writers")?
                    .parse()
                    .map_err(|e| format!("--writers: {e}"))?
            }
            "--queue" => {
                args.queue = value("--queue")?
                    .parse()
                    .map_err(|e| format!("--queue: {e}"))?
            }
            "--staleness-ms" => {
                args.staleness_ms = value("--staleness-ms")?
                    .parse()
                    .map_err(|e| format!("--staleness-ms: {e}"))?
            }
            "--smoke" => args.smoke = true,
            "--help" | "-h" => {
                return Err(
                    "usage: crserve [--addr HOST:PORT] [--scale tiny|paper] [--dir PATH] \
                     [--readers N] [--writers N] [--queue N] [--staleness-ms N] [--smoke]"
                        .to_owned(),
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn build_app(args: &Args) -> Result<courserank::CourseRank, String> {
    if let Some(dir) = &args.dir {
        let (app, report) = courserank::CourseRank::open(dir).map_err(|e| e.to_string())?;
        eprintln!(
            "crserve: recovered from {dir}: snapshot={:?} replayed={} truncated={}",
            report.snapshot_seq, report.replayed_records, report.truncated_bytes
        );
        return Ok(app);
    }
    let scale = match args.scale.as_str() {
        "tiny" => cr_datagen::ScaleConfig::tiny(),
        "paper" => cr_datagen::ScaleConfig::paper_scale(),
        other => return Err(format!("unknown --scale {other} (tiny|paper)")),
    };
    let (db, stats) = cr_datagen::generate(&scale).map_err(|e| e.to_string())?;
    eprintln!(
        "crserve: generated campus: {} courses, {} students, {} comments",
        stats.courses, stats.students, stats.comments
    );
    courserank::CourseRank::assemble(db).map_err(|e| e.to_string())
}

fn smoke(server: &Arc<Server>) -> Result<(), String> {
    let (local, remote) = transport::pipe();
    let srv = std::thread::spawn({
        let server = Arc::clone(server);
        move || server.handle_conn(remote)
    });
    let run = || -> Result<(), String> {
        let mut c = Client::handshake(local, "crserve-smoke").map_err(|e| e.to_string())?;
        match c.ping().map_err(|e| e.to_string())? {
            Response::Pong => {}
            other => return Err(format!("ping: unexpected {other:?}")),
        }
        match c.search("theory", 5).map_err(|e| e.to_string())? {
            Response::SearchResults { total, .. } => {
                eprintln!("crserve-smoke: search ok ({total} results)")
            }
            other => return Err(format!("search: unexpected {other:?}")),
        }
        match c
            .counts(&["Courses", "Students", "Comments"])
            .map_err(|e| e.to_string())?
        {
            Response::CountsResult { counts, .. } => {
                if counts.iter().any(|&n| n <= 0) {
                    return Err(format!("counts: empty table in {counts:?}"));
                }
                eprintln!("crserve-smoke: counts ok {counts:?}");
            }
            other => return Err(format!("counts: unexpected {other:?}")),
        }
        // Warm the transcript-similarity recommendation cache: its
        // Comments dependency is key-gated on the student's neighbors,
        // so the comment below (by the requesting student, never their
        // own neighbor) must be SPARED, not invalidated.
        match c
            .recommend_with_basis(1, 5, "taken")
            .map_err(|e| e.to_string())?
        {
            Response::Recommendations { recs } => {
                eprintln!("crserve-smoke: recommend ok ({} recs)", recs.len())
            }
            other => return Err(format!("recommend: unexpected {other:?}")),
        }
        match c
            .add_comment(1, 1, 2009, "Aut", "smoke-test comment", 4.0)
            .map_err(|e| e.to_string())?
        {
            Response::CommentAdded { id } => eprintln!("crserve-smoke: write ok (comment {id})"),
            other => return Err(format!("add_comment: unexpected {other:?}")),
        }
        match c
            .recommend_with_basis(1, 5, "taken")
            .map_err(|e| e.to_string())?
        {
            Response::Recommendations { .. } => {}
            other => return Err(format!("recommend (warm): unexpected {other:?}")),
        }
        match c
            .sql(
                "SELECT value FROM cr_stat_counters \
                 WHERE name = 'courserank.reccache.spared'",
            )
            .map_err(|e| e.to_string())?
        {
            Response::Rows { rows, .. } => {
                let spared = rows
                    .first()
                    .and_then(|r| r.first())
                    .and_then(|v| v.as_int().ok())
                    .unwrap_or(0);
                if spared <= 0 {
                    return Err(format!(
                        "expected a spared (push-advanced) cache entry after the \
                         disjoint write, got counter {spared}"
                    ));
                }
                eprintln!("crserve-smoke: cache survival ok ({spared} spared)");
            }
            other => return Err(format!("cr_stat_counters: unexpected {other:?}")),
        }
        match c
            .sql("SELECT cache, entry, deps, spared FROM cr_stat_cache WHERE spared > 0")
            .map_err(|e| e.to_string())?
        {
            Response::Rows { rows, .. } => {
                if rows.is_empty() {
                    return Err("cr_stat_cache: no entry with spared > 0".to_owned());
                }
                eprintln!(
                    "crserve-smoke: cr_stat_cache ok ({} surviving rows)",
                    rows.len()
                );
            }
            other => return Err(format!("cr_stat_cache: unexpected {other:?}")),
        }
        match c
            .sql("SELECT Class, Admitted FROM cr_stat_admission")
            .map_err(|e| e.to_string())?
        {
            Response::Rows { rows, .. } => {
                if rows.len() != 3 {
                    return Err(format!("cr_stat_admission: expected 3 rows, got {rows:?}"));
                }
                eprintln!("crserve-smoke: admission telemetry ok");
            }
            other => return Err(format!("cr_stat_admission: unexpected {other:?}")),
        }
        c.goodbye().map_err(|e| e.to_string())
    };
    let result = run();
    let _ = srv.join();
    result
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let app = match build_app(&args) {
        Ok(app) => app,
        Err(msg) => {
            eprintln!("crserve: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = ServerConfig {
        name: "crserve".to_owned(),
        admission: AdmissionConfig {
            max_in_flight: [args.readers, args.writers, 2],
            max_queue: args.queue,
            ..Default::default()
        },
        snapshot_max_staleness: std::time::Duration::from_millis(args.staleness_ms),
    };
    let server = match Server::new(app, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("crserve: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.smoke {
        return match smoke(&server) {
            Ok(()) => {
                eprintln!("crserve-smoke: PASS");
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("crserve-smoke: FAIL: {msg}");
                ExitCode::FAILURE
            }
        };
    }

    match server.serve_tcp(&args.addr) {
        Ok(handle) => {
            eprintln!("crserve: listening on {}", handle.local_addr());
            // Serve until killed.
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
        Err(e) => {
            eprintln!("crserve: bind {}: {e}", args.addr);
            ExitCode::FAILURE
        }
    }
}
