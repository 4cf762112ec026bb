//! `perfbench` — the crserve benchmark runner.
//!
//! ```text
//! perfbench workloads
//! perfbench fixture --work DIR --key DIGEST
//! perfbench run --workload browse|social|analytics --seed N --seconds S
//!               --trace 0|1 --work DIR --key DIGEST
//! ```
//!
//! `workloads` lists the traffic mixes. `fixture` builds the durable
//! campus under `DIR` (once per source digest `DIGEST`).
//! `run` serves a fresh copy of it and prints, as its last stdout line,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `perfbench/run.py` builds this binary and drives both commands.

mod check;
mod fixture;
mod gen;
mod load;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use courserank::db::CourseRankDb;
use courserank::CourseRank;
use cr_obs::MetricsSnapshot;
use cr_server::protocol::{Request, Response};
use cr_server::server::TcpHandle;
use cr_server::{Client, Server, ServerConfig};

use gen::{Expect, Facts, Generator, Kind, Op, Workload, LIMIT};
use load::{Conn, Sample};

/// Set-ups per run; the run reports their median.
const SETUPS: usize = 5;
/// Warm-up windows of closed-loop traffic, after the cache sweep.
const WARM_WINDOW: Duration = Duration::from_millis(1000);
const WARM_MIN: usize = 2;
const WARM_MAX: usize = 10;
/// The rec-cache hit rate has stopped rising once a window gains less.
const WARM_EPSILON: f64 = 0.005;
/// Connections of the closed loop: one per CPU of the reference host.
const CONNECTIONS: usize = 2;
/// The measured window is cut into this many slices, and the end-to-end
/// figures are medians over slices, so that a burst of load from outside
/// the benchmark in one slice does not move them.
const SLICES: u32 = 5;
/// Closed-loop window of a traced run in which the server's own
/// snapshot republications are counted.
const REPUBLISH_WINDOW: Duration = Duration::from_secs(2);

struct Args {
    cmd: String,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    work: PathBuf,
    key: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let cmd = it
        .next()
        .ok_or("usage: perfbench fixture|run --seed N --work DIR ...")?;
    let mut args = Args {
        cmd,
        workload: Workload::Browse,
        seed: 1,
        seconds: 10,
        trace: false,
        work: PathBuf::from("perfbench-work"),
        key: String::new(),
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value == "1",
            "--work" => args.work = PathBuf::from(value),
            "--key" => args.key = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.cmd.as_str() {
        "workloads" => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            println!("{}", names.join(" "));
            Ok(())
        }
        "fixture" => fixture::ensure(&args.work, &args.key).map(|_| ()),
        "run" => run(&args),
        other => Err(format!("unknown command {other}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

/// One set-up, timed by stage.
struct Setup {
    server: Arc<Server>,
    handle: TcpHandle,
    recovery_s: f64,
    assemble_s: f64,
    total_s: f64,
}

/// Recover, assemble, wrap in a server and serve until the first `Ping`
/// answers over TCP, as `crserve --dir` starts.
fn set_up(dir: &Path) -> Result<Setup, String> {
    let t0 = Instant::now();
    let (db, _) = CourseRankDb::open(dir).map_err(|e| format!("recover: {e}"))?;
    let recovery_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let app = CourseRank::assemble(db).map_err(|e| format!("assemble: {e}"))?;
    let assemble_s = t1.elapsed().as_secs_f64();
    let server = Server::new(app, ServerConfig::default()).map_err(|e| e.to_string())?;
    let handle = server
        .serve_tcp("127.0.0.1:0")
        .map_err(|e| format!("bind: {e}"))?;
    let mut client = Client::connect(&handle.local_addr().to_string(), "perfbench-setup")
        .map_err(|e| format!("connect: {e}"))?;
    match client.ping() {
        Ok(Response::Pong) => {}
        other => return Err(format!("first ping: {other:?}")),
    }
    let total_s = t0.elapsed().as_secs_f64();
    client.goodbye().map_err(|e| e.to_string())?;
    Ok(Setup {
        server,
        handle,
        recovery_s,
        assemble_s,
        total_s,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of latencies in ns, as ms.
fn percentile_ms(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted_ns.len() as f64).ceil() as usize;
    sorted_ns[rank.clamp(1, sorted_ns.len()) - 1] as f64 / 1e6
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

/// Metrics by name, as `(value, unit)`.
type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

struct Outcome {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Metrics,
}

/// Writes the closed loop had acknowledged, for the durability check.
#[derive(Default)]
struct Acked {
    /// `(CommentID, Text)`.
    comments: Vec<(i64, String)>,
    /// `(SuID, CourseID, Year, Term)`.
    enrollments: Vec<(i64, i64, i64, String)>,
}

fn run(args: &Args) -> Result<(), String> {
    cr_obs::install();
    let fixture_dir = fixture::ensure(&args.work, &args.key)?;
    let run_dir = args.work.join(format!("run-{}", std::process::id()));
    fixture::fresh_copy(&fixture_dir, &run_dir).map_err(|e| format!("copy fixture: {e}"))?;
    let result = run_in(args, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    let out = result?;
    for f in &out.failures {
        eprintln!("perfbench: failure: {f}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    Ok(())
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn run_in(args: &Args, run_dir: &Path) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut setup = None;
    for _ in 0..SETUPS {
        if let Some(prev) = setup.take() {
            tear_down(prev);
        }
        let s = set_up(run_dir)?;
        setups.push((s.total_s, s.recovery_s, s.assemble_s));
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    let setup_s = median(setups.iter().map(|s| s.0).collect());
    let recovery_s = median(setups.iter().map(|s| s.1).collect());
    let assemble_s = median(setups.iter().map(|s| s.2).collect());
    println!(
        "# setup: median {setup_s:.3} s of {SETUPS} (recovery {recovery_s:.3} s, assemble {assemble_s:.3} s)"
    );

    let facts = Facts::load(setup.server.app().db())?;
    let gen = Generator::new(args.seed, args.workload, &facts);
    let seconds = Duration::from_secs(args.seconds);
    let out = if args.trace {
        let mut out = traced(&setup, &facts, &gen, seconds)?;
        tear_down(setup);
        out.metrics.insert("storage.recovery_s", (recovery_s, "s"));
        out.metrics.insert("core.assemble_s", (assemble_s, "s"));
        out
    } else {
        let (mut out, acked) = closed_loop(&setup, &facts, &gen, seconds)?;
        tear_down(setup);
        out.metrics.insert("setup_s", (setup_s, "s"));
        out.metrics.insert("rss_mb", (peak_rss_mb(), "MB"));
        if args.workload == Workload::Social {
            durability(run_dir, &acked, &mut out)?;
        }
        out
    };
    Ok(out)
}

fn tear_down(s: Setup) {
    s.handle.shutdown();
    drop(s.server);
}

/// Requests that put every key of the versioned caches' (recommendations,
/// plan reports) and the cloud cache's working sets into them once.
fn sweep_ops(gen: &Generator) -> Vec<Op> {
    let w = gen.workload();
    let mut ops = Vec::new();
    if w.sends(Kind::Recommend) {
        ops.extend(gen.students().iter().map(|&student| Op {
            kind: Kind::Recommend,
            req: Request::Recommend {
                student,
                limit: LIMIT,
                basis: None,
            },
            expect: Expect::Recs,
        }));
    }
    if w.sends(Kind::PlanReport) {
        ops.extend(gen.students().iter().map(|&student| Op {
            kind: Kind::PlanReport,
            req: Request::PlanReport { student },
            expect: Expect::Plan,
        }));
    }
    if w.sends(Kind::Search) {
        ops.extend(gen.queries().iter().map(|q| Op {
            kind: Kind::Search,
            req: Request::Search {
                query: q.clone(),
                refine: None,
                limit: LIMIT,
            },
            expect: Expect::Hits,
        }));
    }
    ops
}

fn rec_counts(snap: &MetricsSnapshot) -> (u64, u64) {
    (
        snap.counter("courserank.reccache.hits").unwrap_or(0),
        snap.counter("courserank.reccache.misses").unwrap_or(0),
    )
}

/// Warm up in windows until the hit rate of the versioned caches (the
/// `courserank.reccache.*` counters) stops rising.
fn warm_up(mut window: impl FnMut()) -> (usize, f64) {
    let reg = cr_obs::Registry::global();
    let mut prev: Option<f64> = None;
    let mut windows = 0;
    loop {
        let (h0, m0) = rec_counts(&reg.snapshot());
        window();
        windows += 1;
        let (h1, m1) = rec_counts(&reg.snapshot());
        let lookups = (h1 - h0) + (m1 - m0);
        let rate = if lookups == 0 {
            1.0
        } else {
            (h1 - h0) as f64 / lookups as f64
        };
        let rising = prev.is_none_or(|p| rate > p + WARM_EPSILON);
        prev = Some(rate);
        if windows >= WARM_MAX || (windows >= WARM_MIN && !rising) {
            return (windows, rate);
        }
    }
}

/// Open the closed loop's connections, sweep the cache working sets and
/// warm up.
fn warm_conns<'g>(
    setup: &Setup,
    facts: &Facts,
    gen: &'g Generator,
) -> Result<Vec<Conn<'g>>, String> {
    let addr = setup.handle.local_addr().to_string();
    let mut conns = (0..CONNECTIONS)
        .map(|c| Conn::connect(&addr, &gen.principal(c), gen.stream(c)))
        .collect::<Result<Vec<_>, _>>()?;
    load::sweep(&mut conns, facts, &sweep_ops(gen));
    let (windows, rate) = warm_up(|| {
        load::run_window(&mut conns, facts, WARM_WINDOW);
    });
    println!("# warm-up: {windows} windows, last rec-cache hit rate {rate:.4}");
    Ok(conns)
}

fn closed_loop(
    setup: &Setup,
    facts: &Facts,
    gen: &Generator,
    seconds: Duration,
) -> Result<(Outcome, Acked), String> {
    let mut conns = warm_conns(setup, facts, gen)?;
    let mut samples = Vec::new();
    let (mut rps, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    for _ in 0..SLICES {
        let ts = Instant::now();
        let slice = load::run_window(&mut conns, facts, seconds / SLICES);
        let secs = ts.elapsed().as_secs_f64();
        let mut reads: Vec<u64> = slice.iter().filter(|s| !s.write).map(|s| s.ns).collect();
        reads.sort_unstable();
        rps.push(slice.len() as f64 / secs);
        p50.push(percentile_ms(&reads, 50.0));
        p99.push(percentile_ms(&reads, 99.0));
        println!(
            "# slice {}: {:.1} rps, read p50 {:.3} ms, read p99 {:.3} ms",
            rps.len(),
            rps[rps.len() - 1],
            p50[p50.len() - 1],
            p99[p99.len() - 1]
        );
        samples.extend(slice);
    }
    let elapsed = t0.elapsed().as_secs_f64();

    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        metrics: Metrics::new(),
    };
    let mut acked = Acked::default();
    for c in conns {
        out.attempted += c.attempted;
        out.failed += c.failed;
        out.failures.extend(c.failures.iter().cloned());
        acked.comments.extend(c.comments.iter().cloned());
        acked.enrollments.extend(c.enrollments.iter().cloned());
        c.close()?;
    }
    report_latencies(&samples, elapsed);

    let m = &mut out.metrics;
    m.insert("throughput_rps", (median(rps), "1/s"));
    m.insert("read_p50_ms", (median(p50), "ms"));
    m.insert("read_p99_ms", (median(p99), "ms"));
    Ok((out, acked))
}

/// Print p50/p99 over the whole window with sample counts for every
/// request kind and every class.
fn report_latencies(samples: &[Sample], elapsed: f64) {
    let mut groups: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for s in samples {
        let class = if s.write { "write" } else { "read" };
        groups
            .entry(format!("{:?}", s.kind))
            .or_default()
            .push(s.ns);
        groups
            .entry(format!("class:{class}"))
            .or_default()
            .push(s.ns);
    }
    println!(
        "# measured {} requests in {elapsed:.2} s over {CONNECTIONS} connections",
        samples.len()
    );
    for (name, mut v) in groups {
        v.sort_unstable();
        println!(
            "# latency {name}: p50 {:.3} ms, p99 {:.3} ms, n {}",
            percentile_ms(&v, 50.0),
            percentile_ms(&v, 99.0),
            v.len()
        );
    }
}

/// Reopen the run directory and confirm every acknowledged comment and
/// enrollment survived.
fn durability(run_dir: &Path, acked: &Acked, out: &mut Outcome) -> Result<(), String> {
    let Acked {
        comments,
        enrollments,
    } = acked;
    let (app, report) = CourseRank::open(run_dir).map_err(|e| format!("reopen: {e}"))?;
    let db = app.db().database();
    let mut missing = 0u64;
    for (id, text) in comments {
        let rs = db
            .query_sql(&format!("SELECT Text FROM Comments WHERE CommentID = {id}"))
            .map_err(|e| e.to_string())?;
        if rs.rows.len() != 1 || rs.rows[0][0].as_text().ok() != Some(text.as_str()) {
            missing += 1;
        }
    }
    for (student, course, year, term) in enrollments {
        let rs = db
            .query_sql(&format!(
                "SELECT Status FROM Enrollments WHERE SuID = {student} AND CourseID = {course} \
                 AND Year = {year} AND Term = '{term}'"
            ))
            .map_err(|e| e.to_string())?;
        if rs.rows.len() != 1 {
            missing += 1;
        }
    }
    println!(
        "# durability: reopened after {} WAL records; {} comments and {} enrollments acknowledged, {missing} missing",
        report.replayed_records,
        comments.len(),
        enrollments.len()
    );
    if missing > 0 {
        out.failed += missing;
        out.failures.push(format!(
            "durability: {missing} acknowledged writes missing after reopen"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

fn traced(
    setup: &Setup,
    facts: &Facts,
    gen: &Generator,
    seconds: Duration,
) -> Result<Outcome, String> {
    // Warm up through the server, then count its own republications over
    // one more closed-loop window.
    let reg = cr_obs::Registry::global();
    let mut conns = warm_conns(setup, facts, gen)?;
    let republished = reg.counter("server.snapshot.republished");
    let before = republished.get();
    let samples = load::run_window(&mut conns, facts, REPUBLISH_WINDOW);
    let republishes = (republished.get() - before) as f64;
    let loop_reads = samples.iter().filter(|s| !s.write).count() as f64;
    let (mut attempted, mut failed) = (0, 0);
    let mut failures = Vec::new();
    let mut next_comment = facts.comments.last().copied().unwrap_or(0) + 1;
    let mut streams = Vec::new();
    for c in conns {
        attempted += c.attempted;
        failed += c.failed;
        failures.extend(c.failures.iter().cloned());
        if let Some(&(id, _)) = c.comments.iter().max_by_key(|(id, _)| *id) {
            next_comment = next_comment.max(id + 1);
        }
        streams.push(c.close()?);
    }

    // The replay goes on with connection 0's stream, so its writes stay
    // valid: enrollment keys are unique per stream.
    let mut stream = streams.swap_remove(0);
    let mut replay =
        trace::Replay::new(setup.server.app(), facts, &gen.principal(0), next_comment)?;
    let before = reg.snapshot();
    let t = replay.run(&mut stream, seconds);
    let after = reg.snapshot();

    let d = |name: &str| {
        after.counter(name).unwrap_or(0) as f64 - before.counter(name).unwrap_or(0) as f64
    };
    let hsum = |name: &str| {
        after.histogram(name).map_or(0, |h| h.sum) as f64
            - before.histogram(name).map_or(0, |h| h.sum) as f64
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let on = t.on_requests.max(1) as f64;
    let requests = (t.on_requests + t.off_requests) as f64;
    let writes = t.writes as f64;

    let mut m = Metrics::new();
    let mut layer_ns = 0.0;
    for layer in trace::Layer::ALL {
        let ns = t.self_ns.get(&layer).copied().unwrap_or(0) as f64;
        if layer.in_request() {
            layer_ns += ns;
        }
        m.insert(layer.metric(), (ns / on, "ns/req"));
    }
    m.insert("trace.request_ns", (t.on_ns as f64 / on, "ns/req"));
    m.insert(
        "trace.coverage_pct",
        (100.0 * ratio(layer_ns, t.on_ns as f64), "%"),
    );
    m.insert("trace.overhead_pct", (t.overhead_pct(), "%"));
    m.insert(
        "server.protocol.response_bytes",
        (ratio(t.response_bytes as f64, requests), "B"),
    );
    m.insert("server.admission.shed", (t.shed as f64, "count"));
    m.insert(
        "server.snapshot.republish_per_1k_reads",
        (1000.0 * ratio(republishes, loop_reads), "count"),
    );
    m.insert(
        "relation.exec.rows_out_per_query",
        (
            ratio(d("relation.rows_out"), d("relation.queries")),
            "count",
        ),
    );
    let scans = d("relation.scan.seq_scan")
        + d("relation.scan.index_eq")
        + d("relation.scan.index_range")
        + d("relation.scan.pk_lookup");
    m.insert(
        "relation.scan.seq_scan_share",
        (ratio(d("relation.scan.seq_scan"), scans), "ratio"),
    );
    let queries = d("textsearch.queries");
    m.insert(
        "textsearch.postings_per_query",
        (ratio(d("textsearch.postings_lookups"), queries), "count"),
    );
    m.insert(
        "textsearch.topk_skipped_per_query",
        (ratio(d("textsearch.topk.docs_skipped"), queries), "count"),
    );
    let hit_rate = |cache: &str| {
        let hits = d(&format!("courserank.{cache}.hits"));
        ratio(hits, hits + d(&format!("courserank.{cache}.misses")))
    };
    m.insert("core.cache.rec_hit_rate", (hit_rate("reccache"), "ratio"));
    m.insert(
        "core.cache.cloud_hit_rate",
        (hit_rate("cloudcache"), "ratio"),
    );
    let both = |what: &str| {
        d(&format!("courserank.reccache.{what}")) + d(&format!("courserank.cloudcache.{what}"))
    };
    m.insert(
        "core.cache.spared_per_write",
        (ratio(both("spared"), writes), "count"),
    );
    m.insert(
        "core.cache.delta_applied_per_write",
        (ratio(both("delta_applied"), writes), "count"),
    );
    m.insert(
        "core.cache.invalidations_per_write",
        (ratio(both("invalidations"), writes), "count"),
    );
    m.insert(
        "storage.wal.fsyncs_per_write",
        (ratio(d("storage.wal.fsyncs"), writes), "count"),
    );
    m.insert(
        "storage.wal.bytes_per_write",
        (ratio(d("storage.wal.bytes"), writes), "B"),
    );
    m.insert(
        "storage.wal.fsync_ns",
        (ratio(hsum("storage.wal.fsync_ns"), requests), "ns/req"),
    );
    report_breakdown(&m);

    Ok(Outcome {
        attempted: attempted + t.attempted,
        failed: failed + t.failed,
        failures: failures.into_iter().chain(t.failures).collect(),
        metrics: m,
    })
}

/// Print the layers by self time, largest first.
fn report_breakdown(m: &Metrics) {
    let mut layers: Vec<(&str, f64)> = trace::Layer::ALL
        .iter()
        .filter(|l| l.in_request())
        .map(|l| (l.metric(), m[l.metric()].0))
        .collect();
    layers.sort_by(|a, b| b.1.total_cmp(&a.1));
    let total = m["trace.request_ns"].0;
    for (name, ns) in layers.iter().filter(|l| l.1 > 0.0) {
        println!(
            "# layer {name}: {:.0} ns/req ({:.1}% of traced request time)",
            ns,
            100.0 * ns / total.max(1.0)
        );
    }
}
