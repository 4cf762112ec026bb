//! PR8 load harness: the "million-user day" against cr-server.
//!
//! Three questions, answered with numbers on stdout (`[PR8] scenario=…`
//! lines, parsed by `scripts/bench_pr8.py`):
//!
//! 1. **Do readers scale past a writer?** A writer thread sustains a
//!    write storm while 1 and then 4 reader threads hammer the server;
//!    reads/sec is compared against a fully serialized baseline (one
//!    thread alternating write → read, i.e. the pre-MVCC architecture
//!    where reads queue behind writes).
//! 2. **Are reads snapshot-consistent?** The writer maintains an
//!    invariant — it inserts a `CommentVotes` row *before* its matching
//!    `Comments` row, so at every whole-mutation boundary
//!    `count(CommentVotes) >= count(Comments)`. Readers probe both
//!    counts in the hazardous order (votes first, then comments): a
//!    non-snapshot read interleaved with the writer can observe
//!    `comments > votes`; a pinned snapshot never can. Every probe
//!    asserts the invariant and that table versions never move backwards.
//! 3. **What does a mixed day look like?** An open-loop, Zipf-skewed
//!    day-in-the-life mix (search, course pages, recs, plans, comments,
//!    votes, enrollments) is replayed at a fixed arrival rate; latency is
//!    measured from *scheduled arrival* to completion, so queueing delay
//!    is charged to the server (no coordinated omission).

#![allow(clippy::unwrap_used)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cr_server::protocol::{Request, Response};
use cr_server::server::{Server, ServerConfig};
use cr_server::AdmissionConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Voter id reserved for the invariant-maintaining write storm.
const STORM_VOTER: i64 = 9_000_000;
/// Comment/vote ids minted by the storm start here, clear of datagen's.
const STORM_BASE: i64 = 6_000_000;

// ---------------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------------

fn build_server() -> Arc<Server> {
    let (db, _) = cr_datagen::generate(&cr_datagen::ScaleConfig::tiny()).unwrap();
    let app = courserank::CourseRank::assemble(db).unwrap();
    Server::new(
        app,
        ServerConfig {
            name: "bench".to_owned(),
            admission: AdmissionConfig {
                // Generous budgets: this harness measures the engine, not
                // the shed path (admission behavior has its own tests).
                max_in_flight: [64, 8, 4],
                max_queue: 1024,
                queue_timeout: Duration::from_secs(5),
            },
            snapshot_max_staleness: Duration::from_millis(8),
        },
    )
    .unwrap()
}

/// Establish the global invariant `count(CommentVotes) >= count(Comments)`
/// before the storm starts: datagen seeds comments but few votes, so top
/// the votes table up with filler rows under the storm voter id.
fn seed_invariant(server: &Server) {
    let db = server.app().db();
    let comments = db.count("Comments").unwrap();
    let votes = db.count("CommentVotes").unwrap();
    for i in 0..(comments - votes).max(0) {
        db.database()
            .insert(
                "CommentVotes",
                cr_relation::row::row![STORM_BASE - 1 - i, STORM_VOTER, true],
            )
            .unwrap();
    }
}

fn course_ids(server: &Arc<Server>, session: u64) -> Vec<i64> {
    match server.dispatch(
        session,
        &Request::SqlRead {
            query: "SELECT CourseID FROM Courses".to_owned(),
        },
    ) {
        Response::Rows { rows, .. } => rows.iter().map(|r| r[0].as_int().unwrap()).collect(),
        other => panic!("course id fetch: {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Zipf sampler (popularity skew: rank 1 is the hot course)
// ---------------------------------------------------------------------------

struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    /// Returns a 0-based index with Zipf(s) popularity.
    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        let i = match self.cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) | Err(i) => i,
        };
        i.min(self.cdf.len() - 1)
    }
}

// ---------------------------------------------------------------------------
// Workload pieces
// ---------------------------------------------------------------------------

/// One whole writer mutation through the server: vote row first, then
/// its comment. Keeps `count(CommentVotes) >= count(Comments)` true at
/// every whole-request boundary.
fn storm_pair(server: &Arc<Server>, session: u64, n: i64) {
    let resp = server.dispatch(
        session,
        &Request::Vote {
            comment: STORM_BASE + n,
            voter: STORM_VOTER,
            helpful: true,
        },
    );
    assert!(matches!(resp, Response::Written), "storm vote: {resp:?}");
    let resp = server.dispatch(
        session,
        &Request::AddComment {
            student: 1 + (n % 100),
            course: 1 + (n % 50),
            year: 2009,
            term: "Aut".to_owned(),
            text: "storm comment".to_owned(),
            rating: 3.0 + (n % 3) as f64 / 2.0,
        },
    );
    assert!(
        matches!(resp, Response::CommentAdded { .. }),
        "storm comment: {resp:?}"
    );
}

/// Per-reader state for the consistency probe: last versions seen, so we
/// can also assert snapshots never travel backwards in time.
struct ProbeState {
    last_versions: Vec<u64>,
    probes: u64,
    violations: u64,
}

impl ProbeState {
    fn new() -> Self {
        ProbeState {
            last_versions: Vec::new(),
            probes: 0,
            violations: 0,
        }
    }

    /// Hazardous-order counts probe: CommentVotes before Comments. On a
    /// torn (non-snapshot) read the writer can slip comment inserts in
    /// between, making comments exceed votes.
    fn probe(&mut self, server: &Arc<Server>, session: u64) {
        let req = Request::Counts {
            tables: vec!["CommentVotes".to_owned(), "Comments".to_owned()],
        };
        match server.dispatch(session, &req) {
            Response::CountsResult { counts, versions } => {
                self.probes += 1;
                if counts[1] > counts[0] {
                    self.violations += 1;
                }
                if !self.last_versions.is_empty()
                    && versions
                        .iter()
                        .zip(&self.last_versions)
                        .any(|(now, before)| now < before)
                {
                    self.violations += 1;
                }
                self.last_versions = versions;
            }
            other => panic!("counts probe: {other:?}"),
        }
    }
}

/// One read "op" for the scaling scenarios: mostly consistency probes,
/// with Zipf-hot course pages mixed in for realistic read weight.
fn read_op(
    server: &Arc<Server>,
    session: u64,
    rng: &mut StdRng,
    zipf: &Zipf,
    courses: &[i64],
    probe: &mut ProbeState,
) {
    if rng.gen_range(0u32..10) < 6 {
        probe.probe(server, session);
    } else {
        let course = courses[zipf.sample(rng)];
        let resp = server.dispatch(session, &Request::CoursePage { course });
        assert!(
            matches!(resp, Response::Page { .. }),
            "course page: {resp:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Scenario: read throughput, serialized vs. concurrent
// ---------------------------------------------------------------------------

struct ScalingResult {
    reads_per_sec: f64,
    probes: u64,
    violations: u64,
}

/// The pre-MVCC world: one thread, reads queue behind writes.
fn serial_baseline(server: &Arc<Server>, courses: &[i64], window: Duration) -> ScalingResult {
    let session = server
        .sessions()
        .open("bench", "serial", cr_relation::plan::Principal::Staff);
    let mut rng = StdRng::seed_from_u64(11);
    let zipf = Zipf::new(courses.len(), 1.0);
    let mut probe = ProbeState::new();
    let mut reads = 0u64;
    let mut storm_n = 0i64;
    let start = Instant::now();
    while start.elapsed() < window {
        storm_pair(server, session, storm_n);
        storm_n += 1;
        read_op(server, session, &mut rng, &zipf, courses, &mut probe);
        reads += 1;
    }
    server.sessions().close(session);
    ScalingResult {
        reads_per_sec: reads as f64 / start.elapsed().as_secs_f64(),
        probes: probe.probes,
        violations: probe.violations,
    }
}

/// MVCC world: `readers` threads read freely while one writer storms.
fn concurrent_reads(
    server: &Arc<Server>,
    courses: &[i64],
    readers: usize,
    window: Duration,
    storm_n: &AtomicU64,
) -> ScalingResult {
    let stop = AtomicBool::new(false);
    let total_reads = AtomicU64::new(0);
    let total_probes = AtomicU64::new(0);
    let total_violations = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| {
            // Sustained write storm until the readers are done. Ids
            // continue across scenario runs via the shared counter.
            let session =
                server
                    .sessions()
                    .open("bench", "storm", cr_relation::plan::Principal::Staff);
            while !stop.load(Ordering::Relaxed) {
                let n = storm_n.fetch_add(1, Ordering::Relaxed);
                storm_pair(server, session, n as i64);
            }
            server.sessions().close(session);
        });
        for r in 0..readers {
            let (total_reads, total_probes, total_violations) =
                (&total_reads, &total_probes, &total_violations);
            s.spawn(move || {
                let session =
                    server
                        .sessions()
                        .open("bench", "reader", cr_relation::plan::Principal::Staff);
                let mut rng = StdRng::seed_from_u64(100 + r as u64);
                let zipf = Zipf::new(courses.len(), 1.0);
                let mut probe = ProbeState::new();
                let mut reads = 0u64;
                while start.elapsed() < window {
                    read_op(server, session, &mut rng, &zipf, courses, &mut probe);
                    reads += 1;
                }
                server.sessions().close(session);
                total_reads.fetch_add(reads, Ordering::Relaxed);
                total_probes.fetch_add(probe.probes, Ordering::Relaxed);
                total_violations.fetch_add(probe.violations, Ordering::Relaxed);
            });
        }
        // Readers exit on the window; then release the writer.
        while start.elapsed() < window {
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
    });
    ScalingResult {
        reads_per_sec: total_reads.load(Ordering::Relaxed) as f64 / window.as_secs_f64(),
        probes: total_probes.load(Ordering::Relaxed),
        violations: total_violations.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------------
// Scenario: open-loop day-in-the-life mix
// ---------------------------------------------------------------------------

fn zipf_request(rng: &mut StdRng, zipf: &Zipf, courses: &[i64], students: i64) -> Request {
    const TERMS: [&str; 4] = ["Aut", "Win", "Spr", "Sum"];
    const QUERIES: [&str; 6] = ["theory", "systems", "history", "analysis", "design", "art"];
    let course = courses[zipf.sample(rng)];
    let student = 1 + rng.gen_range(0..students);
    match rng.gen_range(0u32..100) {
        // The paper's traffic is read-heavy: browsing and search dominate.
        0..=34 => Request::CoursePage { course },
        35..=54 => Request::Search {
            query: QUERIES[rng.gen_range(0..QUERIES.len())].to_owned(),
            refine: None,
            limit: 10,
        },
        55..=69 => Request::Counts {
            tables: vec!["CommentVotes".to_owned(), "Comments".to_owned()],
        },
        70..=79 => Request::Recommend {
            student,
            limit: 5,
            basis: None,
        },
        80..=84 => Request::PlanReport { student },
        85..=92 => Request::AddComment {
            student,
            course,
            year: 2009,
            term: TERMS[rng.gen_range(0..TERMS.len())].to_owned(),
            text: "open-loop day traffic".to_owned(),
            rating: 1.0 + rng.gen_range(0..8) as f64 / 2.0,
        },
        93..=96 => Request::Vote {
            comment: 1 + rng.gen_range(0i64..400),
            voter: student,
            helpful: rng.gen_range(0u32..4) > 0,
        },
        _ => Request::Enroll {
            student,
            course,
            year: 2009,
            term: "Win".to_owned(),
            planned: true,
        },
    }
}

struct DayResult {
    ops: u64,
    errors: u64,
    shed: u64,
    read_latencies_ns: Vec<u64>,
    write_latencies_ns: Vec<u64>,
}

/// Open loop: each op has a fixed scheduled arrival; latency runs from
/// that arrival, not from when the (possibly backed-up) thread got to it.
fn day_in_the_life(
    server: &Arc<Server>,
    courses: &[i64],
    threads: usize,
    ops_per_thread: u64,
    interval: Duration,
) -> DayResult {
    let students = server.app().db().count("Students").unwrap();
    let results: Vec<DayResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let session =
                        server
                            .sessions()
                            .open("bench", "day", cr_relation::plan::Principal::Staff);
                    let mut rng = StdRng::seed_from_u64(7_000 + t as u64);
                    let zipf = Zipf::new(courses.len(), 1.0);
                    let mut out = DayResult {
                        ops: 0,
                        errors: 0,
                        shed: 0,
                        read_latencies_ns: Vec::with_capacity(ops_per_thread as usize),
                        write_latencies_ns: Vec::with_capacity(ops_per_thread as usize),
                    };
                    let start = Instant::now();
                    for i in 0..ops_per_thread {
                        let arrival = interval * i as u32;
                        if let Some(wait) = arrival.checked_sub(start.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        let req = zipf_request(&mut rng, &zipf, courses, students);
                        let is_write = matches!(
                            req,
                            Request::AddComment { .. }
                                | Request::Vote { .. }
                                | Request::Enroll { .. }
                        );
                        let resp = server.dispatch(session, &req);
                        let latency = (start.elapsed() - arrival).as_nanos() as u64;
                        out.ops += 1;
                        match resp {
                            Response::Overloaded { .. } => out.shed += 1,
                            Response::Error { .. } => out.errors += 1,
                            _ => {}
                        }
                        if is_write {
                            out.write_latencies_ns.push(latency);
                        } else {
                            out.read_latencies_ns.push(latency);
                        }
                    }
                    server.sessions().close(session);
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut merged = DayResult {
        ops: 0,
        errors: 0,
        shed: 0,
        read_latencies_ns: Vec::new(),
        write_latencies_ns: Vec::new(),
    };
    for r in results {
        merged.ops += r.ops;
        merged.errors += r.errors;
        merged.shed += r.shed;
        merged.read_latencies_ns.extend(r.read_latencies_ns);
        merged.write_latencies_ns.extend(r.write_latencies_ns);
    }
    merged
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    let server = build_server();
    seed_invariant(&server);
    let setup_session =
        server
            .sessions()
            .open("bench", "setup", cr_relation::plan::Principal::Staff);
    let courses = course_ids(&server, setup_session);
    server.sessions().close(setup_session);

    // How hard the snapshot machinery itself costs: pin + release a view.
    let pin_iters = if smoke { 50 } else { 2_000 };
    let mut pin_samples: Vec<u64> = (0..pin_iters)
        .map(|_| {
            let t = Instant::now();
            let (view, cut) = server.app().read_view();
            let ns = t.elapsed().as_nanos() as u64;
            std::hint::black_box((&view, &cut));
            ns
        })
        .collect();
    pin_samples.sort_unstable();
    println!(
        "[PR8] scenario=snapshot_pin median_ns={}",
        pin_samples[pin_samples.len() / 2]
    );

    // Read throughput: serialized vs. concurrent-under-write-storm.
    let window = if smoke {
        Duration::from_millis(150)
    } else {
        Duration::from_millis(900)
    };
    let serial = serial_baseline(&server, &courses, window);
    println!(
        "[PR8] scenario=serial_baseline reads_per_sec={:.0}",
        serial.reads_per_sec
    );

    let storm_n = AtomicU64::new(1_000_000); // clear of serial_baseline's ids
    let mut probes = serial.probes;
    let mut violations = serial.violations;
    for readers in [1usize, 4] {
        let res = concurrent_reads(&server, &courses, readers, window, &storm_n);
        probes += res.probes;
        violations += res.violations;
        println!(
            "[PR8] scenario=concurrent_r{readers} reads_per_sec={:.0}",
            res.reads_per_sec
        );
    }

    // Open-loop mixed day.
    let (threads, ops, interval) = if smoke {
        (2usize, 40u64, Duration::from_millis(2))
    } else {
        (2usize, 400u64, Duration::from_millis(2))
    };
    let day = day_in_the_life(&server, &courses, threads, ops, interval);
    let mut reads = day.read_latencies_ns;
    let mut writes = day.write_latencies_ns;
    reads.sort_unstable();
    writes.sort_unstable();
    println!(
        "[PR8] scenario=day_in_the_life ops={} errors={} shed={}",
        day.ops, day.errors, day.shed
    );
    println!(
        "[PR8] scenario=day_in_the_life read_p50_ns={} read_p95_ns={} read_p99_ns={}",
        percentile(&reads, 0.50),
        percentile(&reads, 0.95),
        percentile(&reads, 0.99)
    );
    println!(
        "[PR8] scenario=day_in_the_life write_p50_ns={} write_p95_ns={} write_p99_ns={}",
        percentile(&writes, 0.50),
        percentile(&writes, 0.95),
        percentile(&writes, 0.99)
    );

    // Every probe across every scenario saw a consistent snapshot, or we
    // fail loudly right here — the python gate double-checks the line.
    println!("[PR8] scenario=consistency probes={probes} violations={violations}");
    assert_eq!(violations, 0, "snapshot consistency violated");
}
