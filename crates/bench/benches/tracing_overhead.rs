//! PR6 — flight-recorder overhead: the same compiled workflows timed
//! plain (tracer off; metrics are always on) and with the tracer
//! recording every plan operator into the ring; plus the per-span idle
//! cost of a disabled tracer. Variants are sampled interleaved
//! (round-robin) so clock drift and cache warmth hit every variant
//! equally. Emits `[PR6] scenario=… median_ns=…` lines for
//! `scripts/bench_pr6.py`.

// Benches are measurement harnesses, not library code: aborting on a
// broken fixture is the right behavior.
#![allow(clippy::unwrap_used)]

use std::time::Instant;

use cr_bench::fixtures::campus;
use cr_flexrecs::compile::compile_and_run;
use cr_flexrecs::templates::{self, SchemaMap};
use cr_obs::trace;

/// Median per-span cost of opening+dropping a child span, over `rounds`
/// batches of `batch` spans.
fn span_cost_ns(rounds: usize, batch: usize) -> u128 {
    let mut per_span = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..batch {
            let span = trace::TraceSpan::child("bench.idle");
            std::hint::black_box(&span);
        }
        per_span.push(t0.elapsed().as_nanos() / batch as u128);
    }
    per_span.sort_unstable();
    per_span[per_span.len() / 2]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iters = if smoke { 1 } else { 9 };

    let (db, stats) = campus(if smoke { 0.02 } else { 0.1 });
    println!("[PR6] corpus {}", stats.summary());
    let catalog = db.catalog();
    let map = SchemaMap::default();

    let workflows = [
        ("user_cf", templates::user_cf(&map, 1, 10, 20, 2, true)),
        (
            "user_cf_weighted",
            templates::user_cf_weighted(&map, 1, 10, 20, 2),
        ),
        (
            "item_item_cf_ratings",
            templates::item_item_cf_ratings(&map, 1, 10),
        ),
    ];

    for (name, wf) in &workflows {
        // --- tracing overhead: plain vs traced, interleaved.
        trace::disable();
        trace::set_slow_query_threshold(None);

        let run = || {
            std::hint::black_box(compile_and_run(wf, &catalog).unwrap());
        };
        // Interleave manually: the gate flips are part of each sample's
        // setup, outside the timed region.
        let mut samples: [Vec<u128>; 2] = std::array::from_fn(|_| Vec::with_capacity(iters));
        run(); // warmup, untimed (tracer off)
        for _ in 0..iters {
            trace::disable();
            let t0 = Instant::now();
            run();
            samples[0].push(t0.elapsed().as_nanos());

            trace::enable();
            let t0 = Instant::now();
            run();
            samples[1].push(t0.elapsed().as_nanos());
        }
        trace::disable();
        let med = |mut v: Vec<u128>| {
            v.sort_unstable();
            v[v.len() / 2]
        };
        let [p, t] = samples.map(med);
        println!("[PR6] scenario=workflow_exec_{name}_plain median_ns={p}");
        println!("[PR6] scenario=workflow_exec_{name}_traced median_ns={t}");
    }

    // --- idle span cost: a disabled tracer must be near-free.
    let (rounds, batch) = if smoke { (3, 10_000) } else { (9, 100_000) };
    trace::disable();
    let idle_off = span_cost_ns(rounds, batch);
    trace::enable();
    let idle_on = span_cost_ns(rounds, batch);
    trace::disable();
    println!("[PR6] scenario=idle_disabled_span_ns median_ns={idle_off}");
    println!("[PR6] scenario=idle_enabled_span_ns median_ns={idle_on}");
}
