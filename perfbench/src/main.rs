//! End-to-end and per-layer benchmark of the jdvs serving stack.
//!
//! ```text
//! perfbench --workload <fanout-wide|catalog-scan|realtime-churn>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its workload's world from the seed, drives it over the
//! real TCP tiers ([`jdvs_search::NetServing`]) through six phases — set-up,
//! warm-up, open-loop queries with the update stream live, closed-loop
//! queries, an update burst, drain and verification against an independent
//! oracle — and prints one JSON line last. With `--trace 0` it carries the
//! end-to-end metrics; with `--trace 1` the run replays a sample of the
//! workload through each layer's public entry point and carries the
//! per-layer metrics instead. See `README.md` beside this package.

mod oracle;
mod phases;
mod queries;
#[cfg(test)]
mod selftest;
mod trace;
mod util;
mod world;

use std::path::PathBuf;

use jdvs_workload::events::{DailyPlan, DailyPlanConfig};

use oracle::Oracle;
use util::{metric, Metric};
use world::{Spec, World};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Open-loop and closed-loop windows alternate this many times.
const ROUNDS: usize = 16;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(spec) = world::spec(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    let (correct, attempted, failed, metrics) = run(&spec, &args);
    println!(
        "{}",
        util::result_json(correct, attempted, failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Scratch space inside the checkout: the cargo target directory when set,
/// else the package's own `target/`.
fn work_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"))
}

fn run(spec: &Spec, args: &Args) -> (bool, u64, u64, Vec<Metric>) {
    let data_dir =
        work_dir()
            .join("perfbench-data")
            .join(format!("{}-{}", spec.name, std::process::id()));

    // 1. Set-up, repeated; the last world is kept.
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::with_capacity(repeats);
    let mut world = None;
    for _ in 0..repeats {
        drop(world.take());
        let (w, took) = World::build(spec, args.seed, &data_dir);
        setups.push(took.as_secs_f64());
        world = Some(w);
    }
    let mut world = world.expect("at least one set-up");
    let setup_s = util::median(&mut setups.clone());
    println!(
        "# {} seed {}: set-up {:?} s (median {setup_s:.3} s); kernels {}; {} processors",
        spec.name,
        args.seed,
        setups,
        jdvs_vector::simd::active().name(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    // Inputs: the day's event stream, the oracle and the query lists.
    let seconds = args.seconds;
    let warm_s = 0.1 * seconds;
    let open_s = 0.6 * seconds;
    let closed_s = 0.3 * seconds;
    let stream_events = (spec.event_rate * open_s / ROUNDS as f64).floor() as usize * ROUNDS;
    let measured_events = stream_events + world::BURST_EVENTS;
    let replay_events = if args.trace { trace::APPLY_SAMPLE } else { 0 };
    let plan_events = measured_events + replay_events;

    let mut oracle = Oracle::new(
        world::feature_extractor(spec.dim),
        world.topology.partition_map(),
    );
    for event in world.catalog.bootstrap_events() {
        oracle.apply(&event);
    }
    let images = std::sync::Arc::clone(&world.images);
    let plan = DailyPlan::generate(
        &mut world.catalog,
        &images,
        &DailyPlanConfig {
            total_events: plan_events,
            seed: args.seed ^ 0xDA7,
            predelisted_frac: spec.predelisted,
            ..DailyPlanConfig::default()
        },
    );
    let events: Vec<_> = plan.events().iter().map(|t| t.event.clone()).collect();
    // Products that start the day delisted are taken down before the
    // timed phases, so re-listings take the reuse path.
    let delisted: Vec<_> = plan
        .predelisted()
        .iter()
        .map(|id| world.catalog.products()[id.0 as usize - 1].remove_event())
        .collect();
    for event in &delisted {
        world.publish(event.clone());
        oracle.apply(event);
    }

    let mut maker = queries::QueryMaker::new(spec, args.seed, &world.catalog, &world.images);
    let warm_queries = maker.take((world::QUERY_RATE * warm_s).ceil() as usize, &world.images);
    let open_queries = maker.take(
        (world::QUERY_RATE * open_s / ROUNDS as f64).floor() as usize * ROUNDS,
        &world.images,
    );
    let closed_queries = maker.take(2_000, &world.images);
    let verify_queries = maker.take(queries::VERIFY_QUERIES, &world.images);

    let mut attempted = 0u64;
    let mut failed = 0u64;

    phases::settle(&world);

    // 2. Warm-up (not measured).
    let warm = phases::open_loop(&world, &warm_queries, world::QUERY_RATE);
    attempted += warm.attempted;
    failed += warm.failed;

    // 3 and 4. Open loop at the fixed rate with the update stream live,
    // interleaved with closed-loop windows.
    let snapshot_before = world.topology.durability_snapshot().unwrap_or_default();
    let measured = phases::rounds(
        &world,
        ROUNDS,
        &open_queries,
        &events[..stream_events],
        &closed_queries,
        closed_s,
    );
    attempted += measured.attempted;
    failed += measured.failed;
    let (open, stream) = (&measured.open, &measured.stream);

    // 5. Update burst, in rounds.
    let burst = phases::burst(&world, &events[stream_events..measured_events], ROUNDS);
    attempted += burst.attempted;
    failed += burst.failed;

    let snapshot_after = world.topology.durability_snapshot().unwrap_or_default();

    // 6. Drain and verify.
    phases::settle(&world);
    for event in &events[..measured_events] {
        oracle.apply(event);
    }
    let rss_mb = util::peak_rss_mb();
    oracle.prepare(&world.images);
    let verify_start = std::time::Instant::now();
    let verification = phases::verify(&world, &oracle, &verify_queries);
    println!(
        "# verification took {:.2} s",
        verify_start.elapsed().as_secs_f64()
    );
    attempted += verification.attempted;
    failed += verification.failed;
    for line in verification.mismatches.iter().take(10) {
        println!("# mismatch: {line}");
    }
    let correct = verification.mismatches.is_empty();

    let round_list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut search_ms = open.latency_ms.clone();
    let n = search_ms.len();
    let p50_all = util::median(&mut search_ms);
    let tail = util::tail_percent(n);
    let p_tail = tail.map_or(0.0, |p| {
        util::quantile(&mut search_ms, f64::from(p) / 100.0)
    });
    let mut fresh = stream.freshness_ms.clone();
    let fresh_tail = util::tail_percent(fresh.len())
        .map_or(0.0, |p| util::quantile(&mut fresh, f64::from(p) / 100.0));
    // Each timing is the quartile of its rounds on the quiet side: the
    // lower quartile of times, the upper quartile of rates.
    let quiet = |v: &[f64], q: f64| util::quantile(&mut v.to_vec(), q);
    let p50 = quiet(&measured.p50_ms, 0.25);
    let fresh_p50 = quiet(&measured.freshness_ms, 0.25);
    let qps = quiet(&measured.qps, 0.75);
    let cpu_per_query = quiet(&measured.cpu_ms_per_query, 0.25);
    let ingest = burst.attempted as f64 / burst.seconds;
    println!(
        "# open loop: {n} queries at {}/s: p50 {p50_all:.3} ms, p{} {p_tail:.3} ms; per-round p50 [{}] ms",
        world::QUERY_RATE,
        tail.unwrap_or(0),
        round_list(&measured.p50_ms),
    );
    println!(
        "# update stream: {} events at {}/s: p{} freshness {fresh_tail:.3} ms; per-round p50 [{}] ms",
        fresh.len(),
        spec.event_rate,
        util::tail_percent(fresh.len()).unwrap_or(0),
        round_list(&measured.freshness_ms),
    );
    println!(
        "# closed loop: {} queries on {} clients: per-round q/s [{}], cpu ms/query [{}]",
        measured.closed_completed,
        std::thread::available_parallelism().map_or(2, |n| n.get()),
        round_list(&measured.qps),
        round_list(&measured.cpu_ms_per_query),
    );
    println!(
        "# burst: {} events in {:.3} s: per-round events/s [{}]; recall {}/{}",
        burst.attempted,
        burst.seconds,
        round_list(&burst.eps),
        verification.recall_hits,
        verification.recall_total,
    );
    println!(
        "# attempted: warm-up {} open loop {} stream {} closed loop {} burst {} verify {}; failed {failed}",
        warm.attempted,
        open.attempted,
        stream.attempted,
        measured.attempted - open.attempted - stream.attempted,
        burst.attempted,
        verification.attempted
    );

    let metrics = if args.trace {
        let replay = trace::replay(
            &world,
            &verify_queries,
            &events[measured_events..],
            &work_dir().join("perfbench-trace"),
            args.seed,
        );
        attempted += replay.attempted;
        failed += replay.failed;
        let mut m = replay.metrics;
        let net = &world.net;
        let serving = [
            net.blender_serving(),
            net.broker_serving(),
            net.searcher_serving(),
        ];
        m.push(metric(
            "admission.max_queue_depth",
            serving.iter().map(|s| s.max_queue_depth).max().unwrap_or(0) as f64,
            "count",
        ));
        m.push(metric(
            "batch.depth_mean",
            serving[2].batch_depth.mean_us(),
            "count",
        ));
        let appends = snapshot_after.log_appends - snapshot_before.log_appends;
        m.push(metric(
            "durability.bytes_per_event",
            (snapshot_after.log_bytes - snapshot_before.log_bytes) as f64 / appends.max(1) as f64,
            "B",
        ));
        let ops = world.topology.ops_report();
        m.push(metric(
            "inverted.expansions",
            ops.partitions.iter().map(|p| p.expansions).sum::<u64>() as f64,
            "count",
        ));
        let mut publish_us = stream.publish_us.clone();
        m.push(metric(
            "queue.publish_us",
            util::median(&mut publish_us),
            "us",
        ));
        m.push(metric("queue.lag_max", stream.lag_max as f64, "count"));
        let mut late = open.late_ms.clone();
        m.push(metric(
            "loadgen.late_p99_ms",
            util::quantile(&mut late, 0.99),
            "ms",
        ));
        let traced_p50 = m
            .iter()
            .find(|x| x.name == "trace.e2e_p50_us")
            .map_or(0.0, |x| x.value);
        println!(
            "# trace overhead: traced e2e p50 {traced_p50:.1} us vs untraced open-loop p50 {:.1} us",
            p50 * 1e3
        );
        m.push(metric(
            "trace.overhead_ratio",
            traced_p50 / (p50 * 1e3),
            "ratio",
        ));
        m
    } else {
        // Printed, not gated: on the reference host their run-to-run spread
        // is wider than any bound that would still catch a regression.
        println!(
            "# not gated: search_p{}_ms {p_tail:.4} ms, ingest_eps {ingest:.1} 1/s, \
             freshness_p50_ms {fresh_p50:.4} ms",
            tail.unwrap_or(0)
        );
        vec![
            metric("setup_s", setup_s, "s"),
            metric("search_p50_ms", p50, "ms"),
            metric("throughput_qps", qps, "1/s"),
            metric("cpu_ms_per_query", cpu_per_query, "ms"),
            metric(
                "recall_at_10",
                verification.recall_hits as f64 / verification.recall_total.max(1) as f64,
                "ratio",
            ),
            metric("rss_mb", rss_mb, "MiB"),
        ]
    };
    drop(world);
    let _ = std::fs::remove_dir(work_dir().join("perfbench-data"));
    (correct, attempted, failed, metrics)
}
