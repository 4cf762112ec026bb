//! The seeded request generator.
//!
//! A [`Generator`] is built from the seed and from [`Facts`] read out of
//! the fixed campus, so one seed fixes every byte a run sends. Which ids
//! are hot is part of the workload and fixed; the seed draws the sample
//! path through that model. Each connection draws its own stream; the
//! streams are valid by construction: enrollments use keys no campus row
//! and no other request holds, votes go to comments that exist, terms
//! parse, and every SQL text clears a student principal's disclosure
//! check. A request that fails is therefore a defect, never noise.

use std::collections::{BTreeMap, HashSet};

use courserank::db::CourseRankDb;
use cr_server::protocol::Request;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Zipf skew for courses, students and query words.
const ZIPF_S: f64 = 1.0;
/// Result size asked of searches and recommendations.
pub const LIMIT: u32 = 10;
/// Distinct search queries: below the 256-entry cloud cache, so that on
/// `browse` the cache holds the whole query working set.
const QUERY_WORDS: usize = 200;
/// Every this many acknowledged comments, a connection reads its latest
/// one back before its next generated request.
const PROBE_EVERY: u64 = 4;
/// Seeds which id is how popular. Fixed, so that every benchmark seed
/// samples the same popularity model.
const POPULARITY_SEED: u64 = 0x5EED_C0DE;
/// Failures kept verbatim for the report.
pub const KEEP_FAILURES: usize = 5;
/// Smallest owner count the flow check accepts for a grade aggregate.
pub const K_MIN: i64 = 5;

/// The traffic mixes, as `(kind, weight)` pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-only student traffic whose working set fits the caches.
    Browse,
    /// Writes beside reads on the same hot keys.
    Social,
    /// SQL only, with more distinct texts than the flow-decision memo.
    Analytics,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Browse, Workload::Social, Workload::Analytics];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Browse => "browse",
            Workload::Social => "social",
            Workload::Analytics => "analytics",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    fn mix(self) -> &'static [(Kind, u32)] {
        match self {
            Workload::Browse => &[
                (Kind::CoursePage, 35),
                (Kind::Search, 25),
                (Kind::Recommend, 20),
                (Kind::PlanReport, 10),
                (Kind::SqlPoint, 10),
            ],
            Workload::Social => &[
                (Kind::AddComment, 15),
                (Kind::Vote, 10),
                (Kind::Enroll, 5),
                (Kind::Recommend, 25),
                (Kind::CoursePage, 30),
                (Kind::Search, 15),
            ],
            // Weights keep the median inside one shape's latency range
            // (the range aggregates), not on the gap between two shapes,
            // where it would jump with the sample path.
            Workload::Analytics => &[
                (Kind::SqlGradeAgg, 25),
                (Kind::SqlCommentJoin, 20),
                (Kind::SqlRangeAgg, 40),
                (Kind::SqlPoint, 15),
            ],
        }
    }

    /// True when the mix sends this kind of request.
    pub fn sends(self, kind: Kind) -> bool {
        self.mix().iter().any(|&(k, _)| k == kind)
    }
}

/// What the generator chose to send; finer than [`Request::kind`] for
/// the SQL shapes, which need different output checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    CoursePage,
    Search,
    Recommend,
    PlanReport,
    SqlPoint,
    SqlGradeAgg,
    SqlCommentJoin,
    SqlRangeAgg,
    AddComment,
    Vote,
    Enroll,
}

/// The checks a response must pass (see `check.rs`).
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// A page that names the course title.
    Page(String),
    /// Search hits: existing courses, at most `LIMIT`.
    Hits,
    /// Recommendations: unique courses, at most `LIMIT`.
    Recs,
    Plan,
    /// A point lookup returning exactly this title.
    Title(String),
    /// A k-guarded aggregate: every group counts at least `K_MIN`.
    KAggregate,
    /// Any rows.
    Rows,
    /// Exactly this comment id: the read-your-writes probe.
    Comment(i64),
    CommentAdded,
    Written,
}

/// One generated request with the checks its response must pass.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: Kind,
    pub req: Request,
    pub expect: Expect,
}

/// What the generator needs to know about the campus.
#[derive(Debug, Clone)]
pub struct Facts {
    /// `(CourseID, Title)`, by id.
    pub courses: Vec<(i64, String)>,
    pub students: Vec<i64>,
    pub comments: Vec<i64>,
    /// Search vocabulary, most frequent title word first.
    pub words: Vec<String>,
    /// First year after every enrollment in the campus.
    pub free_year: i64,
}

fn ints(db: &CourseRankDb, sql: &str) -> Result<Vec<i64>, String> {
    let rs = db.database().query_sql(sql).map_err(|e| e.to_string())?;
    rs.rows
        .iter()
        .map(|r| r[0].as_int().map_err(|e| e.to_string()))
        .collect()
}

impl Facts {
    pub fn load(db: &CourseRankDb) -> Result<Facts, String> {
        let mut courses: Vec<(i64, String)> = db
            .database()
            .query_sql("SELECT CourseID, Title FROM Courses")
            .map_err(|e| e.to_string())?
            .rows
            .iter()
            .map(|r| Ok((r[0].as_int()?, r[1].as_text()?.to_owned())))
            .collect::<Result<_, cr_relation::RelError>>()
            .map_err(|e| e.to_string())?;
        courses.sort();
        let mut students = ints(db, "SELECT SuID FROM Students")?;
        students.sort_unstable();
        let mut comments = ints(db, "SELECT CommentID FROM Comments")?;
        comments.sort_unstable();
        let max_year = ints(db, "SELECT MAX(Year) AS y FROM Enrollments")?;
        let mut freq: BTreeMap<String, usize> = BTreeMap::new();
        for (_, title) in &courses {
            for w in title.split(|c: char| !c.is_ascii_alphabetic()) {
                if w.len() >= 4 {
                    *freq.entry(w.to_ascii_lowercase()).or_default() += 1;
                }
            }
        }
        let mut words: Vec<(usize, String)> = freq.into_iter().map(|(w, n)| (n, w)).collect();
        words.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        words.truncate(QUERY_WORDS);
        if courses.is_empty() || students.is_empty() || comments.is_empty() || words.is_empty() {
            return Err("campus has no courses, students, comments or title words".to_owned());
        }
        Ok(Facts {
            courses,
            students,
            comments,
            words: words.into_iter().map(|(_, w)| w).collect(),
            free_year: max_year.first().copied().unwrap_or(2008) + 1,
        })
    }

    pub fn title_of(&self, course: i64) -> Option<&str> {
        self.courses
            .binary_search_by_key(&course, |(id, _)| *id)
            .ok()
            .map(|i| self.courses[i].1.as_str())
    }
}

/// Inverse-CDF Zipf sampler over ranks `0..n`.
#[derive(Debug, Clone)]
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A Zipf-popular permutation of ids: rank 0 is the hottest id.
#[derive(Debug, Clone)]
struct Hot<T> {
    by_rank: Vec<T>,
    zipf: Zipf,
}

impl<T: Clone> Hot<T> {
    fn new(mut items: Vec<T>, rng: &mut StdRng) -> Hot<T> {
        items.shuffle(rng);
        let zipf = Zipf::new(items.len());
        Hot {
            by_rank: items,
            zipf,
        }
    }

    fn pick(&self, rng: &mut StdRng) -> T {
        self.by_rank[self.zipf.sample(rng)].clone()
    }
}

/// The popularity model shared by every connection of one run.
#[derive(Debug, Clone)]
pub struct Generator {
    seed: u64,
    workload: Workload,
    courses: Hot<(i64, String)>,
    students: Hot<i64>,
    comments: Hot<i64>,
    words: Hot<String>,
    free_year: i64,
    /// Highest course id, for range predicates.
    max_course: i64,
}

/// Terms new enrollments use, split between connections so that two
/// streams can never pick the same enrollment key.
const ENROLL_TERMS: [&str; 4] = ["Aut", "Win", "Spr", "Sum"];

impl Generator {
    pub fn new(seed: u64, workload: Workload, facts: &Facts) -> Generator {
        let mut rng = StdRng::seed_from_u64(POPULARITY_SEED);
        let courses = Hot::new(facts.courses.clone(), &mut rng);
        let students = Hot::new(facts.students.clone(), &mut rng);
        let comments = Hot::new(facts.comments.clone(), &mut rng);
        // Words keep their frequency order: common words are also the
        // common queries.
        let words = Hot {
            zipf: Zipf::new(facts.words.len()),
            by_rank: facts.words.clone(),
        };
        Generator {
            seed,
            workload,
            courses,
            students,
            comments,
            words,
            free_year: facts.free_year,
            max_course: facts.courses.last().map_or(1, |c| c.0),
        }
    }

    /// The request stream of connection `conn` (0 or 1).
    pub fn stream(&self, conn: usize) -> Stream<'_> {
        assert!(
            conn < 2,
            "enrollment terms are split between two connections"
        );
        let weights = self.workload.mix();
        Stream {
            gen: self,
            conn,
            rng: StdRng::seed_from_u64(
                self.seed ^ (conn as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            total: weights.iter().map(|&(_, w)| w).sum(),
            enrolled: HashSet::new(),
            n: 0,
        }
    }

    /// The principal a connection signs in as.
    pub fn principal(&self, conn: usize) -> String {
        format!(
            "student:{}",
            self.students.by_rank[conn % self.students.by_rank.len()]
        )
    }

    /// Every student a `Recommend` or `PlanReport` may name.
    pub fn students(&self) -> &[i64] {
        &self.students.by_rank
    }

    /// Every query a `Search` may send (the cloud-cache working set).
    pub fn queries(&self) -> &[String] {
        &self.words.by_rank
    }

    pub fn workload(&self) -> Workload {
        self.workload
    }
}

/// One connection's infinite, deterministic request sequence.
#[derive(Debug)]
pub struct Stream<'g> {
    gen: &'g Generator,
    conn: usize,
    rng: StdRng,
    total: u32,
    enrolled: HashSet<(i64, i64, i64, usize)>,
    n: u64,
}

impl Stream<'_> {
    fn kind(&mut self) -> Kind {
        let mut x = self.rng.gen_range(0..self.total);
        for &(kind, w) in self.gen.workload.mix() {
            if x < w {
                return kind;
            }
            x -= w;
        }
        unreachable!("weights sum to total")
    }

    fn comment_text(&mut self) -> String {
        let a = self.gen.words.pick(&mut self.rng);
        let b = self.gen.words.pick(&mut self.rng);
        format!(
            "bench c{} n{}: {a} and {b} were worth it",
            self.conn, self.n
        )
    }
}

impl Iterator for Stream<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        self.n += 1;
        let g = self.gen;
        let kind = self.kind();
        let (req, expect) = match kind {
            Kind::CoursePage => {
                let (course, title) = g.courses.pick(&mut self.rng);
                (Request::CoursePage { course }, Expect::Page(title))
            }
            Kind::Search => (
                Request::Search {
                    query: g.words.pick(&mut self.rng),
                    refine: None,
                    limit: LIMIT,
                },
                Expect::Hits,
            ),
            Kind::Recommend => (
                Request::Recommend {
                    student: g.students.pick(&mut self.rng),
                    limit: LIMIT,
                    basis: None,
                },
                Expect::Recs,
            ),
            Kind::PlanReport => (
                Request::PlanReport {
                    student: g.students.pick(&mut self.rng),
                },
                Expect::Plan,
            ),
            Kind::SqlPoint => {
                let (course, title) = g.courses.pick(&mut self.rng);
                (
                    Request::SqlRead {
                        query: format!("SELECT Title FROM Courses WHERE CourseID = {course}"),
                    },
                    Expect::Title(title),
                )
            }
            Kind::SqlGradeAgg => {
                let (course, _) = g.courses.pick(&mut self.rng);
                let lo = course.max(1);
                let hi = (lo + self.rng.gen_range(20i64..200)).min(g.max_course);
                (
                    Request::SqlRead {
                        query: format!(
                            "SELECT Grade, COUNT(DISTINCT SuID) AS n FROM Enrollments \
                             WHERE CourseID >= {lo} AND CourseID <= {hi} GROUP BY Grade \
                             HAVING COUNT(DISTINCT SuID) >= {K_MIN}"
                        ),
                    },
                    Expect::KAggregate,
                )
            }
            Kind::SqlCommentJoin => {
                let (course, _) = g.courses.pick(&mut self.rng);
                (
                    Request::SqlRead {
                        query: format!(
                            "SELECT c.CommentID, c.Rating, s.Name FROM Comments c \
                             JOIN Students s ON c.SuID = s.SuID WHERE c.CourseID = {course}"
                        ),
                    },
                    Expect::Rows,
                )
            }
            Kind::SqlRangeAgg => {
                let (course, _) = g.courses.pick(&mut self.rng);
                let hi = (course + self.rng.gen_range(10i64..100)).min(g.max_course);
                (
                    Request::SqlRead {
                        query: format!(
                            "SELECT CourseID, COUNT(*) AS n, AVG(Rating) AS r FROM Comments \
                             WHERE CourseID >= {course} AND CourseID <= {hi} GROUP BY CourseID"
                        ),
                    },
                    Expect::Rows,
                )
            }
            Kind::AddComment => {
                let (course, _) = g.courses.pick(&mut self.rng);
                let student = g.students.pick(&mut self.rng);
                let rating = f64::from(self.rng.gen_range(1u32..=5));
                (
                    Request::AddComment {
                        student,
                        course,
                        year: g.free_year,
                        term: "Aut".to_owned(),
                        text: self.comment_text(),
                        rating,
                    },
                    Expect::CommentAdded,
                )
            }
            Kind::Vote => (
                Request::Vote {
                    comment: g.comments.pick(&mut self.rng),
                    voter: g.students.pick(&mut self.rng),
                    helpful: self.rng.gen_bool(0.7),
                },
                Expect::Written,
            ),
            Kind::Enroll => loop {
                let student = g.students.pick(&mut self.rng);
                let (course, _) = g.courses.pick(&mut self.rng);
                let year = g.free_year + self.rng.gen_range(0i64..4);
                let term = 2 * self.conn + self.rng.gen_range(0usize..2);
                if self.enrolled.insert((student, course, year, term)) {
                    break (
                        Request::Enroll {
                            student,
                            course,
                            year,
                            term: ENROLL_TERMS[term].to_owned(),
                            planned: true,
                        },
                        Expect::Written,
                    );
                }
            },
        };
        Some(Op { kind, req, expect })
    }
}

/// The read-your-writes probe a connection sends after its `added`-th
/// acknowledged comment, `comment`: every [`PROBE_EVERY`]-th one.
pub fn probe_after(added: u64, comment: i64) -> Option<Op> {
    added.is_multiple_of(PROBE_EVERY).then(|| Op {
        kind: Kind::SqlPoint,
        req: Request::SqlRead {
            query: format!("SELECT CommentID FROM Comments WHERE CommentID = {comment}"),
        },
        expect: Expect::Comment(comment),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts() -> Facts {
        let (db, _) = cr_datagen::generate(&cr_datagen::ScaleConfig::tiny()).unwrap();
        Facts::load(&db).unwrap()
    }

    fn bytes(gen: &Generator, conn: usize, n: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for op in gen.stream(conn).take(n) {
            cr_server::protocol::write_frame(&mut out, &op.req).unwrap();
        }
        out
    }

    #[test]
    fn same_seed_same_bytes() {
        let facts = facts();
        for w in Workload::ALL {
            let a = Generator::new(7, w, &facts);
            let b = Generator::new(7, w, &facts);
            for conn in 0..2 {
                assert_eq!(bytes(&a, conn, 2000), bytes(&b, conn, 2000), "{w:?}");
            }
            let c = Generator::new(8, w, &facts);
            assert_ne!(bytes(&a, 0, 2000), bytes(&c, 0, 2000), "{w:?}");
        }
    }

    #[test]
    fn writes_are_valid_by_construction() {
        let facts = facts();
        let gen = Generator::new(3, Workload::Social, &facts);
        let mut keys = HashSet::new();
        for conn in 0..2 {
            for op in gen.stream(conn).take(20_000) {
                match op.req {
                    Request::Enroll {
                        student,
                        course,
                        year,
                        term,
                        ..
                    } => {
                        assert!(year >= facts.free_year);
                        assert!(courserank::model::Term::parse(&term).is_some());
                        assert!(keys.insert((student, course, year, term)), "duplicate key");
                    }
                    Request::Vote { comment, .. } => {
                        assert!(facts.comments.binary_search(&comment).is_ok())
                    }
                    Request::AddComment { term, .. } => {
                        assert!(courserank::model::Term::parse(&term).is_some())
                    }
                    _ => {}
                }
            }
        }
        assert!(!keys.is_empty());
    }
}
