//! The traced replay: the same seeded stream, sent on one thread
//! straight into each layer's public entry point in the order
//! `Server::execute` calls them, with a span around every call.
//!
//! Spans are recorded here, in the benchmark, not inside the program.
//! A request span encloses its layer spans; a layer's self time is its
//! span's duration (the benchmark opens no span inside another layer
//! span), and what the request span holds beyond its layers is the
//! replay's own glue. Requests alternate in chunks between spans on and
//! spans off; the difference in mean request time is the overhead of
//! recording.
//!
//! `Server::execute` pins its read view through a private, session-shared
//! view cache, so the replay pins through its own copy of that rule
//! (`Replay::pinned`): the pin span times the benchmark's copy, not the
//! server's code. The server's own republication count is taken from its
//! counter over a closed-loop window instead (`main.rs`).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use courserank::db::{Comment, EnrollStatus, Enrollment};
use courserank::model::{Quarter, Term};
use courserank::services::recs::RecOptions;
use courserank::CourseRank;
use cr_relation::plan::flow::{check_disclosure_sql, Principal};
use cr_relation::sql::{ast::Statement, binder, parse};
use cr_relation::{plan::optimizer, ExecOptions, RelError};
use cr_server::protocol::{
    error_response, read_frame, write_frame, CloudTermDto, ErrorCode, HitDto, RecDto, Request,
    Response,
};
use cr_server::{Admission, AdmissionConfig, RequestClass, ServerConfig};

use crate::check::check;
use crate::gen::{probe_after, Facts, Kind, Op, KEEP_FAILURES};

/// Requests per on/off chunk.
const CHUNK: u64 = 4;

/// Every layer a span can be recorded for. The names are the per-layer
/// metric names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Decode,
    Admission,
    Pin,
    Flow,
    Parse,
    Plan,
    Execute,
    Search,
    Cloud,
    CoursePage,
    RecsHit,
    RecsMiss,
    Planner,
    AddComment,
    Vote,
    Enroll,
    Encode,
    /// Side probes on rec-cache misses, outside any request span.
    FlexCompile,
    FlexExec,
}

impl Layer {
    pub const ALL: [Layer; 19] = [
        Layer::Decode,
        Layer::Admission,
        Layer::Pin,
        Layer::Flow,
        Layer::Parse,
        Layer::Plan,
        Layer::Execute,
        Layer::Search,
        Layer::Cloud,
        Layer::CoursePage,
        Layer::RecsHit,
        Layer::RecsMiss,
        Layer::Planner,
        Layer::AddComment,
        Layer::Vote,
        Layer::Enroll,
        Layer::Encode,
        Layer::FlexCompile,
        Layer::FlexExec,
    ];

    pub fn metric(self) -> &'static str {
        match self {
            Layer::Decode => "server.protocol.decode_ns",
            Layer::Admission => "server.admission.wait_ns",
            Layer::Pin => "server.snapshot.pin_ns",
            Layer::Flow => "relation.flow.check_ns",
            Layer::Parse => "relation.sql.parse_ns",
            Layer::Plan => "relation.sql.plan_ns",
            Layer::Execute => "relation.exec.execute_ns",
            Layer::Search => "textsearch.search_ns",
            Layer::Cloud => "textsearch.cloud_ns",
            Layer::CoursePage => "core.course_page_ns",
            Layer::RecsHit => "core.recs.hit_ns",
            Layer::RecsMiss => "core.recs.miss_ns",
            Layer::Planner => "core.planner.report_ns",
            Layer::AddComment => "core.write.add_comment_ns",
            Layer::Vote => "core.write.vote_ns",
            Layer::Enroll => "core.write.enroll_ns",
            Layer::Encode => "server.protocol.encode_ns",
            Layer::FlexCompile => "flexrecs.compile_ns",
            Layer::FlexExec => "flexrecs.exec_ns",
        }
    }

    /// Side probes are not part of any request.
    pub fn in_request(self) -> bool {
        !matches!(self, Layer::FlexCompile | Layer::FlexExec)
    }
}

/// What a traced replay measured.
#[derive(Debug, Default)]
pub struct Traced {
    /// Requests replayed with spans on, and their summed duration.
    pub on_requests: u64,
    pub on_ns: u64,
    /// Requests replayed with spans off.
    pub off_requests: u64,
    /// Per request kind: `(on count, on ns, off count, off ns)`.
    pub by_kind: BTreeMap<Kind, (u64, u64, u64, u64)>,
    /// Self time per layer over the spans-on requests.
    pub self_ns: BTreeMap<Layer, u64>,
    pub writes: u64,
    pub shed: u64,
    pub response_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

pub struct Replay<'a> {
    app: &'a CourseRank,
    facts: &'a Facts,
    admission: Arc<Admission>,
    principal: Principal,
    staleness: Duration,
    view: Option<(CourseRank, Instant)>,
    wrote_since_view: bool,
    next_comment: i64,
    added: u64,
    rec_misses: Arc<cr_obs::Counter>,
    /// Whether the current request's recommendation missed the rec cache.
    rec_missed: bool,
    on: bool,
    request: u64,
    out: Traced,
}

impl<'a> Replay<'a> {
    /// A replay whose first new comment gets id `next_comment`.
    pub fn new(
        app: &'a CourseRank,
        facts: &'a Facts,
        principal: &str,
        next_comment: i64,
    ) -> Result<Self, String> {
        let cfg = ServerConfig::default();
        Ok(Replay {
            app,
            facts,
            admission: Admission::new(AdmissionConfig::default()),
            principal: Principal::parse(principal)
                .ok_or_else(|| format!("bad principal {principal}"))?,
            staleness: cfg.snapshot_max_staleness,
            view: None,
            wrote_since_view: false,
            next_comment,
            added: 0,
            rec_misses: cr_obs::Registry::global().counter("courserank.reccache.misses"),
            rec_missed: false,
            on: false,
            request: 0,
            out: Traced::default(),
        })
    }

    /// Add `elapsed` to `layer`'s self time when spans are on.
    fn record(&mut self, layer: Layer, elapsed: Duration) {
        if self.on {
            *self.out.self_ns.entry(layer).or_default() += elapsed.as_nanos() as u64;
        }
    }

    /// Time `f` as a span of `layer` when spans are on.
    fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(layer, start.elapsed());
        out
    }

    /// Replay `ops` until `window` is over, with chunks of requests
    /// alternating between spans on and spans off.
    pub fn run(&mut self, ops: &mut impl Iterator<Item = Op>, window: Duration) -> Traced {
        let deadline = Instant::now() + window;
        let mut pending: Option<Op> = None;
        self.out = Traced::default();
        while Instant::now() < deadline {
            let Some(op) = pending.take().or_else(|| ops.next()) else {
                break;
            };
            self.request += 1;
            self.on = (self.request / CHUNK).is_multiple_of(2);
            self.rec_missed = false;
            // The client's encode is not the server's work.
            let mut frame = Vec::new();
            write_frame(&mut frame, &op.req).expect("requests encode");
            let start = Instant::now();
            let resp = self.serve(&frame);
            let ns = start.elapsed().as_nanos() as u64;
            let kind = self.out.by_kind.entry(op.kind).or_default();
            if self.on {
                self.out.on_requests += 1;
                self.out.on_ns += ns;
                kind.0 += 1;
                kind.1 += ns;
            } else {
                self.out.off_requests += 1;
                kind.2 += 1;
                kind.3 += ns;
            }
            self.out.attempted += 1;
            match resp.and_then(|r| check(&op.expect, &r, self.facts).map(|()| r)) {
                Ok(Response::CommentAdded { id }) => {
                    self.added += 1;
                    pending = probe_after(self.added, id);
                }
                Ok(_) => {}
                Err(why) => {
                    self.out.failed += 1;
                    if self.out.failures.len() < KEEP_FAILURES {
                        self.out.failures.push(format!("{:?}: {why}", op.kind));
                    }
                }
            }
            if self.on && self.rec_missed {
                self.probe_flexrecs(&op.req);
            }
        }
        std::mem::take(&mut self.out)
    }

    /// Decode, admit, execute and encode one request frame, as
    /// `Server::dispatch` does.
    fn serve(&mut self, frame: &[u8]) -> Result<Response, String> {
        let req: Request = self
            .span(Layer::Decode, || read_frame(&mut &frame[..]))
            .map_err(|e| format!("decode: {e}"))?
            .ok_or("empty frame")?;
        let class = req.class();
        let admission = Arc::clone(&self.admission);
        let permit = match self.span(Layer::Admission, || admission.admit(class)) {
            Ok(p) => p,
            Err(_) => {
                self.out.shed += 1;
                return Err("shed".to_owned());
            }
        };
        let resp = match class {
            RequestClass::Read => self.read(&req),
            RequestClass::Write => {
                self.out.writes += 1;
                let resp = self.write(&req);
                if !matches!(resp, Response::Error { .. }) {
                    self.wrote_since_view = true;
                }
                resp
            }
            RequestClass::Admin => return Err("admin requests are not replayed".to_owned()),
        };
        let mut out = Vec::new();
        self.span(Layer::Encode, || {
            drop(permit);
            write_frame(&mut out, &resp)
        })
        .map_err(|e| format!("encode: {e}"))?;
        self.out.response_bytes += out.len() as u64;
        Ok(resp)
    }

    /// The shared view, republished under the benchmark's copy of the
    /// server's rules: when it is older than the staleness bound or
    /// predates this session's write. Dropping the view it replaces is part of the pin: the last
    /// holder of a snapshot frees the table images writers copied.
    fn pinned(&mut self) -> CourseRank {
        let app = self.app;
        let staleness = self.staleness;
        let wrote = self.wrote_since_view;
        let mut view = self.view.take();
        let (pinned, republished) = self.span(Layer::Pin, || {
            let fresh = view
                .as_ref()
                .is_some_and(|(_, taken)| !wrote && taken.elapsed() <= staleness);
            if !fresh {
                drop(view.take());
                view = Some((app.read_view().0, Instant::now()));
            }
            let pinned = view.as_ref().expect("just published").0.clone();
            (pinned, !fresh)
        });
        self.view = view;
        if republished {
            self.wrote_since_view = false;
        }
        pinned
    }

    fn read(&mut self, req: &Request) -> Response {
        let view = self.pinned();
        match req {
            Request::CoursePage { course } => {
                match self.span(Layer::CoursePage, || view.course_page(*course)) {
                    Ok(text) => Response::Page { text },
                    Err(e) => error_response(&e),
                }
            }
            Request::Search { query, limit, .. } => {
                let k = (*limit).clamp(1, 100) as usize;
                let search = view.search();
                let (hits, results) = match self.span(Layer::Search, || search.search(query, k)) {
                    Ok(r) => r,
                    Err(e) => return error_response(&e),
                };
                let cloud = self.span(Layer::Cloud, || search.cloud(&results));
                self.span(Layer::Encode, || Response::SearchResults {
                    hits: hits
                        .into_iter()
                        .map(|h| HitDto {
                            course: h.course,
                            title: h.title,
                            dep: h.dep,
                            score: h.score,
                            snippet: h.snippet,
                        })
                        .collect(),
                    total: results.total as u64,
                    cloud: cloud
                        .terms
                        .into_iter()
                        .map(|t| CloudTermDto {
                            term: t.term,
                            display: t.display,
                            score: t.score,
                        })
                        .collect(),
                })
            }
            Request::Recommend { student, limit, .. } => {
                let opts = rec_options(*limit);
                let misses = self.rec_misses.get();
                let start = Instant::now();
                let recs = view.recs().recommend_courses(*student, &opts);
                let elapsed = start.elapsed();
                self.rec_missed = self.rec_misses.get() > misses;
                let layer = if self.rec_missed {
                    Layer::RecsMiss
                } else {
                    Layer::RecsHit
                };
                self.record(layer, elapsed);
                match recs {
                    Ok(recs) => self.span(Layer::Encode, || Response::Recommendations {
                        recs: recs
                            .into_iter()
                            .map(|r| RecDto {
                                course: r.course,
                                title: r.title,
                                score: r.score,
                            })
                            .collect(),
                    }),
                    Err(e) => error_response(&e),
                }
            }
            Request::PlanReport { student } => {
                match self.span(Layer::Planner, || view.planner().report(*student)) {
                    Ok(report) => Response::PlanSummary {
                        quarters: report.quarters.len() as u64,
                        conflicts: report.conflicts.len() as u64,
                        prereq_violations: report.prereq_violations.len() as u64,
                        total_units: report.total_units,
                    },
                    Err(e) => error_response(&e),
                }
            }
            Request::SqlRead { query } => self.sql(&view, query),
            other => Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("{} is not replayed", other.kind()),
            },
        }
    }

    fn sql(&mut self, view: &CourseRank, query: &str) -> Response {
        let catalog = view.db().catalog();
        let principal = self.principal.clone();
        let report = self.span(Layer::Flow, || {
            check_disclosure_sql(query, &catalog, &principal)
        });
        if let Some(first) = report.as_ref().and_then(|r| r.first_error()) {
            return Response::Error {
                code: ErrorCode::PolicyDenied,
                message: first.to_string(),
            };
        }
        let stmts = match self.span(Layer::Parse, || parse(query)) {
            Ok(s) => s,
            Err(e) => return error_response(&e),
        };
        let [Statement::Select(select)] = stmts.as_slice() else {
            return Response::Error {
                code: ErrorCode::BadRequest,
                message: "replay sends only single SELECTs".to_owned(),
            };
        };
        let plan = match self.span(Layer::Plan, || {
            binder::bind_select(select, &catalog).map(optimizer::optimize)
        }) {
            Ok(p) => p,
            Err(e) => return error_response(&e),
        };
        match self.span(Layer::Execute, || {
            cr_relation::exec::execute_with(&plan, &catalog, &ExecOptions::default())
        }) {
            Ok(rs) => self.span(Layer::Encode, || Response::Rows {
                columns: rs.schema.columns().iter().map(|c| c.name.clone()).collect(),
                rows: rs.rows,
            }),
            Err(e) => error_response(&e),
        }
    }

    fn write(&mut self, req: &Request) -> Response {
        let db = self.app.db();
        let result = match req {
            Request::AddComment {
                student,
                course,
                year,
                term,
                text,
                rating,
            } => {
                let Some(term) = Term::parse(term) else {
                    return bad_term(term);
                };
                let id = self.next_comment;
                self.next_comment += 1;
                let comment = Comment {
                    id,
                    student: *student,
                    course: *course,
                    quarter: Quarter::new(*year as i32, term),
                    text: text.clone(),
                    rating: *rating,
                    date: 0,
                };
                self.span(Layer::AddComment, || db.insert_comment(&comment))
                    .map(|()| Response::CommentAdded { id })
            }
            Request::Vote {
                comment,
                voter,
                helpful,
            } => {
                let comments = self.app.comments();
                self.span(Layer::Vote, || comments.vote(*comment, *voter, *helpful))
                    .map(|()| Response::Written)
            }
            Request::Enroll {
                student,
                course,
                year,
                term,
                planned,
            } => {
                let Some(term) = Term::parse(term) else {
                    return bad_term(term);
                };
                let e = Enrollment {
                    student: *student,
                    course: *course,
                    quarter: Quarter::new(*year as i32, term),
                    grade: None,
                    status: if *planned {
                        EnrollStatus::Planned
                    } else {
                        EnrollStatus::Taken
                    },
                };
                self.span(Layer::Enroll, || db.insert_enrollment(&e))
                    .map(|()| Response::Written)
            }
            other => Err(RelError::Invalid(format!(
                "{} is not a write",
                other.kind()
            ))),
        };
        result.unwrap_or_else(|e| error_response(&e))
    }

    /// Time the FlexRecs compile and execute of the workflow a
    /// recommendation request lowers to; called when that request missed
    /// the rec cache.
    fn probe_flexrecs(&mut self, req: &Request) {
        let Request::Recommend { student, limit, .. } = req else {
            return;
        };
        let Some((view, _)) = self.view.as_ref() else {
            return;
        };
        let view = view.clone();
        let catalog = view.db().catalog();
        let wf = view.recs().course_workflow(*student, &rec_options(*limit));
        let plan = self.span(Layer::FlexCompile, || {
            cr_flexrecs::compile::compile(&wf, &catalog).map(optimizer::optimize)
        });
        if let Ok(plan) = plan {
            let _ = self.span(Layer::FlexExec, || {
                cr_relation::exec::execute_with(&plan, &catalog, &ExecOptions::default())
            });
        }
    }
}

fn rec_options(limit: u32) -> RecOptions {
    RecOptions {
        k_courses: limit.clamp(1, 100) as usize,
        ..RecOptions::default()
    }
}

fn bad_term(term: &str) -> Response {
    Response::Error {
        code: ErrorCode::BadRequest,
        message: format!("unknown term {term:?}"),
    }
}

impl Traced {
    /// Recording overhead in percent: spans-on against spans-off mean
    /// request time, per request kind, weighted by how often each kind
    /// was sent, so that the mix of the two halves does not count.
    pub fn overhead_pct(&self) -> f64 {
        let (mut on, mut off) = (0.0, 0.0);
        for &(on_n, on_ns, off_n, off_ns) in self.by_kind.values() {
            if on_n > 0 && off_n > 0 {
                let weight = (on_n + off_n) as f64;
                on += weight * on_ns as f64 / on_n as f64;
                off += weight * off_ns as f64 / off_n as f64;
            }
        }
        if off > 0.0 {
            100.0 * (on / off - 1.0)
        } else {
            0.0
        }
    }
}
