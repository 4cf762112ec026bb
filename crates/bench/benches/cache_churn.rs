//! PR9 — cache-churn benchmark: transcript-similarity (CoursesTaken)
//! recommendations under a write storm. A Zipf-skewed mix of comment
//! inserts (mostly by students outside any cached neighborhood — spared
//! by the key gate), occasional enrollments (whole-table dependency —
//! dropped), and timed lookups runs against push-advance maintenance:
//! entries survive disjoint writes and neighbor comments fold in place.
//! Emits a `[PR9] scenario=churn_push key=value …` line for
//! `scripts/bench_pr9.py`.

// Benches are measurement harnesses, not library code: aborting on a
// broken fixture is the right behavior.
#![allow(clippy::unwrap_used)]

use std::time::Instant;

use courserank::db::{Comment, EnrollStatus, Enrollment};
use courserank::model::{Quarter, Term};
use courserank::services::recs::{RecOptions, SimilarityBasis};
use cr_bench::fixtures::system;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Zipf-ish skew: cubing a uniform draw concentrates mass on the low
/// indices (the head of the popularity distribution).
fn zipf(rng: &mut StdRng, n: usize) -> usize {
    let u: f64 = rng.gen::<f64>();
    ((u * u * u) * n as f64) as usize % n.max(1)
}

fn counter(name: &str) -> u64 {
    cr_obs::Registry::global().counter(name).get()
}

struct ChurnReport {
    lookups: usize,
    hits: u64,
    misses: u64,
    spared: u64,
    delta_applied: u64,
    invalidations: u64,
    p95_ns: u128,
}

fn run_churn(fraction: f64, ops: usize, seed: u64) -> ChurnReport {
    let (app, stats) = system(fraction);
    let mut rng = StdRng::seed_from_u64(seed);
    let opts = RecOptions {
        basis: SimilarityBasis::CoursesTaken,
        min_common: 1,
        ..RecOptions::default()
    };
    let working_set: Vec<i64> = (1..=stats.students.min(24) as i64).collect();

    // Prime every working-set entry so the storm hits warm state.
    for &s in &working_set {
        app.recs().recommend_courses(s, &opts).unwrap();
    }

    let (h0, m0) = (
        counter("courserank.reccache.hits"),
        counter("courserank.reccache.misses"),
    );
    let (sp0, da0, inv0) = (
        counter("courserank.reccache.spared"),
        counter("courserank.reccache.delta_applied"),
        counter("courserank.reccache.invalidations"),
    );

    let mut next_comment = 9_000_000i64;
    let mut quarter = 0i32;
    let mut latencies: Vec<u128> = Vec::new();
    for _ in 0..ops {
        let dice = rng.gen_range(0..1000);
        if dice < 500 {
            // Storm write: a comment by a Zipf-random student anywhere
            // on campus. Most are outside any cached neighborhood.
            next_comment += 1;
            app.db()
                .insert_comment(&Comment {
                    id: next_comment,
                    student: zipf(&mut rng, stats.students) as i64 + 1,
                    course: rng.gen_range(1..=stats.courses as i64),
                    quarter: Quarter::new(2009, Term::Spring),
                    text: "churn".into(),
                    rating: f64::from(rng.gen_range(2..=10)) / 2.0,
                    date: 0,
                })
                .unwrap();
        } else if dice < 510 {
            // Rare transcript change: Enrollments is a whole-table
            // dependency, so every CT entry drops.
            quarter += 1;
            let _ = app.db().insert_enrollment(&Enrollment {
                student: zipf(&mut rng, stats.students) as i64 + 1,
                course: rng.gen_range(1..=stats.courses as i64),
                quarter: Quarter::new(2012 + quarter, Term::Winter),
                grade: None,
                status: EnrollStatus::Taken,
            });
        } else {
            let student = working_set[zipf(&mut rng, working_set.len())];
            let t0 = Instant::now();
            app.recs().recommend_courses(student, &opts).unwrap();
            latencies.push(t0.elapsed().as_nanos());
        }
    }

    latencies.sort_unstable();
    let p95_ns = latencies
        .get(
            latencies
                .len()
                .saturating_sub(1)
                .min(latencies.len() * 95 / 100),
        )
        .copied()
        .unwrap_or(0);
    ChurnReport {
        lookups: latencies.len(),
        hits: counter("courserank.reccache.hits") - h0,
        misses: counter("courserank.reccache.misses") - m0,
        spared: counter("courserank.reccache.spared") - sp0,
        delta_applied: counter("courserank.reccache.delta_applied") - da0,
        invalidations: counter("courserank.reccache.invalidations") - inv0,
        p95_ns,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let fraction = if smoke { 0.02 } else { 0.1 };
    let ops = if smoke { 400 } else { 4000 };

    let r = run_churn(fraction, ops, 0x9a5e);
    let rate = if r.hits + r.misses > 0 {
        100.0 * r.hits as f64 / (r.hits + r.misses) as f64
    } else {
        0.0
    };
    println!(
        "[PR9] scenario=churn_push lookups={} hits={} misses={} \
         hit_rate_pct={rate:.1} p95_ns={} spared={} delta_applied={} \
         invalidations={}",
        r.lookups, r.hits, r.misses, r.p95_ns, r.spared, r.delta_applied, r.invalidations,
    );
}
