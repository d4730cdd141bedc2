//! The timed phases of a run and the verification that follows them.

use std::time::{Duration, Instant};

use jdvs_search::protocol::{FanoutQuery, QueryInput, SearchResponse};
use jdvs_search::searcher::SearcherService;
use jdvs_search::serving::NetClient;
use jdvs_search::SearchQuery;
use jdvs_storage::model::{ImageKey, ProductEvent};

use crate::oracle::Oracle;
use crate::world::{World, K};

/// How often the publisher looks for applied events between publishes.
const APPLY_POLL: Duration = Duration::from_micros(100);
/// An event not applied by every owner within this long counts as failed.
const APPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// A complete, fully accounted answer: every partition answered and the
/// coverage identity holds.
pub fn complete(resp: &SearchResponse, partitions: usize) -> bool {
    resp.partitions_total == partitions
        && resp.partitions_ok == resp.partitions_total
        && resp.partitions_ok
            + resp.partitions_timed_out
            + resp.partitions_failed
            + resp.partitions_shed
            == resp.partitions_total
        && !resp.results.is_empty()
}

fn sleep_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        std::thread::sleep(due - now);
    }
}

#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Completion minus due instant, per query.
    pub latency_ms: Vec<f64>,
    /// Send minus due instant, per query (how late the generator ran).
    pub late_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// Sends `queries` on one connection at a fixed `rate`, query `i` due at
/// `start + i / rate`. Each is timed from its due instant, so a stall also
/// charges the wait it imposes on the queries due behind it.
pub fn open_loop(world: &World, queries: &[SearchQuery], rate: f64) -> OpenLoop {
    let partitions = world.spec.partitions;
    let mut out = OpenLoop::default();
    let start = Instant::now() + Duration::from_millis(1);
    for (i, query) in queries.iter().enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        sleep_until(due);
        let sent = Instant::now();
        let ok = world
            .client
            .search(query.clone())
            .is_ok_and(|r| complete(&r, partitions));
        let done = Instant::now();
        out.attempted += 1;
        if ok {
            out.latency_ms.push((done - due).as_secs_f64() * 1e3);
        } else {
            out.failed += 1;
        }
        out.late_ms.push((sent - due).as_secs_f64() * 1e3);
    }
    out
}

#[derive(Debug, Default)]
pub struct Stream {
    /// Scheduled publish to applied by every owning replica, per event.
    pub freshness_ms: Vec<f64>,
    /// Duration of each publish call (queue append plus the log tee).
    pub publish_us: Vec<f64>,
    /// Largest indexer lag seen (events).
    pub lag_max: u64,
    pub attempted: u64,
    pub failed: u64,
}

fn event_urls(event: &ProductEvent) -> Vec<&str> {
    match event {
        ProductEvent::AddProduct { images, .. } => images.iter().map(|a| a.url.as_str()).collect(),
        ProductEvent::RemoveProduct { urls, .. } | ProductEvent::UpdateAttributes { urls, .. } => {
            urls.iter().map(String::as_str).collect()
        }
    }
}

/// Partitions owning at least one image an event touches.
pub fn owners(world: &World, event: &ProductEvent) -> Vec<usize> {
    let map = world.topology.partition_map();
    let mut parts: Vec<usize> = event_urls(event)
        .into_iter()
        .map(|u| map.partition_of(ImageKey::from_url(u)))
        .collect();
    parts.sort_unstable();
    parts.dedup();
    parts
}

fn applied(world: &World, partition: usize) -> u64 {
    world
        .topology
        .index(partition, 0)
        .stats()
        .applied_offset
        .get()
}

/// Publishes `events` at a fixed `rate` and records, per event, the time
/// from its scheduled publish until every owning replica's applied-offset
/// watermark has passed it.
pub fn update_stream(world: &World, events: &[ProductEvent], rate: f64) -> Stream {
    let mut out = Stream::default();
    let owners: Vec<Vec<usize>> = events.iter().map(|e| owners(world, e)).collect();
    let start = Instant::now() + Duration::from_millis(1);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let mut pending: Vec<(u64, Instant, usize)> = Vec::new();
    let mut next = 0;
    loop {
        let now = Instant::now();
        while next < events.len() && due(next) <= now {
            let t = Instant::now();
            let offset = world.publish(events[next].clone());
            out.publish_us.push(t.elapsed().as_secs_f64() * 1e6);
            pending.push((offset, due(next), next));
            next += 1;
        }
        let now = Instant::now();
        pending.retain(|&(offset, due, i)| {
            let done = owners[i].iter().all(|&p| applied(world, p) > offset);
            if done {
                out.freshness_ms.push((now - due).as_secs_f64() * 1e3);
            } else if now - due > APPLY_TIMEOUT {
                out.failed += 1;
                return false;
            }
            !done
        });
        out.lag_max = out.lag_max.max(world.topology.max_indexer_lag());
        if next == events.len() && pending.is_empty() {
            break;
        }
        let wait = if next < events.len() {
            due(next).saturating_duration_since(Instant::now())
        } else {
            APPLY_POLL
        };
        std::thread::sleep(if pending.is_empty() {
            wait
        } else {
            wait.min(APPLY_POLL)
        });
    }
    out.attempted = events.len() as u64;
    out
}

#[derive(Debug, Default)]
pub struct ClosedLoop {
    pub completed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub seconds: f64,
    /// Process CPU (user + system) over the window, in milliseconds.
    pub cpu_ms: f64,
}

/// One closed-loop window: each client on its own connection sends its
/// next query as soon as the previous one returns, for `seconds`.
pub fn closed_loop(
    world: &World,
    clients: &[NetClient],
    queries: &[SearchQuery],
    seconds: f64,
) -> ClosedLoop {
    let partitions = world.spec.partitions;
    let threads = clients.len();
    let cpu0 = crate::util::process_cpu_ms();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let counts: Vec<(u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(t, client)| {
                s.spawn(move || {
                    let (mut ok, mut bad) = (0u64, 0u64);
                    let mut i = t;
                    while Instant::now() < end {
                        let query = queries[i % queries.len()].clone();
                        if client.search(query).is_ok_and(|r| complete(&r, partitions)) {
                            ok += 1;
                        } else {
                            bad += 1;
                        }
                        i += threads;
                    }
                    (ok, bad)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let completed: u64 = counts.iter().map(|c| c.0).sum();
    let failed: u64 = counts.iter().map(|c| c.1).sum();
    ClosedLoop {
        completed,
        attempted: completed + failed,
        failed,
        seconds: start.elapsed().as_secs_f64(),
        cpu_ms: crate::util::process_cpu_ms() - cpu0,
    }
}

/// Everything the interleaved rounds measured.
#[derive(Debug, Default)]
pub struct Rounds {
    pub open: OpenLoop,
    pub stream: Stream,
    /// Per round: open-loop median latency (ms).
    pub p50_ms: Vec<f64>,
    /// Per round: median freshness (ms).
    pub freshness_ms: Vec<f64>,
    /// Per round: closed-loop queries per second.
    pub qps: Vec<f64>,
    /// Per round: process CPU per closed-loop query (ms).
    pub cpu_ms_per_query: Vec<f64>,

    pub closed_completed: u64,
    pub attempted: u64,
    pub failed: u64,
}

/// Phases 3 and 4, interleaved: `rounds` times an open-loop window (fixed
/// query rate, an equal share of `events` published at the stream rate)
/// followed by a closed-loop window (one client per processor, stream
/// paused). One unmeasured closed-loop window on the fresh connections
/// comes first: the first window runs at about half the rate of the rest.
/// Spreading both phases over the whole run lets each metric be taken from
/// the quiet quartile of its rounds: on a shared host, interference from
/// other tenants only ever adds time, and it comes and goes over seconds.
pub fn rounds(
    world: &World,
    rounds: usize,
    open_queries: &[SearchQuery],
    events: &[ProductEvent],
    closed_queries: &[SearchQuery],
    closed_s: f64,
) -> Rounds {
    let spec = &world.spec;
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    let clients: Vec<NetClient> = (0..threads).map(|_| world.net.client()).collect();
    let mut out = Rounds::default();
    let queries_per_round = open_queries.len() / rounds;
    let events_per_round = events.len() / rounds;
    let warm = closed_loop(world, &clients, closed_queries, closed_s / rounds as f64);
    out.attempted += warm.attempted;
    out.failed += warm.failed;
    for r in 0..rounds {
        let queries = &open_queries[r * queries_per_round..(r + 1) * queries_per_round];
        let stream = &events[r * events_per_round..(r + 1) * events_per_round];
        let (open, published) = std::thread::scope(|s| {
            let publisher = s.spawn(|| update_stream(world, stream, spec.event_rate));
            let open = open_loop(world, queries, crate::world::QUERY_RATE);
            (open, publisher.join().expect("publisher thread"))
        });
        out.p50_ms
            .push(crate::util::median(&mut open.latency_ms.clone()));
        out.freshness_ms
            .push(crate::util::median(&mut published.freshness_ms.clone()));
        out.open.latency_ms.extend(open.latency_ms);
        out.open.late_ms.extend(open.late_ms);
        out.open.attempted += open.attempted;
        out.open.failed += open.failed;
        out.stream.freshness_ms.extend(published.freshness_ms);
        out.stream.publish_us.extend(published.publish_us);
        out.stream.lag_max = out.stream.lag_max.max(published.lag_max);
        out.stream.attempted += published.attempted;
        out.stream.failed += published.failed;

        settle(world);
        let closed = closed_loop(world, &clients, closed_queries, closed_s / rounds as f64);
        out.qps.push(closed.completed as f64 / closed.seconds);
        out.cpu_ms_per_query
            .push(closed.cpu_ms / closed.completed.max(1) as f64);
        out.closed_completed += closed.completed;
        out.attempted += closed.attempted;
        out.failed += closed.failed;
    }
    out.attempted += out.open.attempted + out.stream.attempted;
    out.failed += out.open.failed + out.stream.failed;
    out
}

/// Lets the previous phase's after-effects finish before the next one is
/// timed: indexers caught up (in-flight list expansions flushed) and no
/// checkpoint or log compaction started by the background scheduler for
/// a few of its polling periods.
pub fn settle(world: &World) {
    let topology = &world.topology;
    topology.wait_for_freshness(APPLY_TIMEOUT);
    let marks = || {
        topology
            .durability_snapshot()
            .map_or((0, 0), |d| (d.checkpoints_written, d.log_compactions))
    };
    let mut seen = marks();
    let mut quiet = 0;
    while quiet < 4 {
        std::thread::sleep(Duration::from_millis(25));
        let now = marks();
        quiet = if now == seen { quiet + 1 } else { 0 };
        seen = now;
    }
}

#[derive(Debug, Default)]
pub struct Burst {
    /// Events applied per second, per round.
    pub eps: Vec<f64>,
    pub seconds: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// Phase 5: `events` in `rounds` equal rounds. Each round is published back
/// to back after the previous one's after-effects settle, and its clock
/// stops when every partition's applied-offset watermark has passed its
/// last event.
pub fn burst(world: &World, events: &[ProductEvent], rounds: usize) -> Burst {
    let partitions = world.topology.partition_map().num_partitions();
    let mut out = Burst::default();
    for round in events.chunks(events.len().div_ceil(rounds).max(1)) {
        settle(world);
        let start = Instant::now();
        let mut last = 0;
        for event in round {
            last = world.publish(event.clone());
        }
        while (0..partitions).any(|p| applied(world, p) <= last) {
            if start.elapsed() > APPLY_TIMEOUT {
                out.failed += round.len() as u64;
                break;
            }
            std::thread::sleep(APPLY_POLL);
        }
        let took = start.elapsed().as_secs_f64();
        out.eps.push(round.len() as f64 / took);
        out.seconds += took;
        out.attempted += round.len() as u64;
    }
    out
}

#[derive(Debug, Default)]
pub struct Verification {
    pub recall_hits: usize,
    pub recall_total: usize,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
}

/// Checks served answers against the oracle, with updates stopped and
/// drained:
/// - every response is complete and satisfies the coverage identity;
/// - every hit is a live image carrying the oracle's latest attributes,
///   and satisfies the query's filter by the oracle's attributes;
/// - recall@10 against the exhaustive answer is accumulated;
/// - on workloads with the update stream as their main load, every live
///   image is the top-1 answer for its own exact-image query at its
///   owning searcher.
pub fn verify(world: &World, oracle: &Oracle, queries: &[SearchQuery]) -> Verification {
    let mut out = Verification::default();
    let partitions = world.spec.partitions;
    for query in queries {
        out.attempted += 1;
        let QueryInput::ImageUrl(url) = &query.input else {
            unreachable!("benchmark queries are by image URL")
        };
        let resp = match world.client.search(query.clone()) {
            Ok(r) => r,
            Err(e) => {
                out.failed += 1;
                out.mismatches.push(format!("query {url} failed: {e:?}"));
                continue;
            }
        };
        let mut bad = Vec::new();
        if !complete(&resp, partitions) {
            bad.push(format!(
                "incomplete coverage {}/{}",
                resp.partitions_ok, resp.partitions_total
            ));
        }
        for r in &resp.results {
            if !oracle.hit_matches(&r.hit) {
                bad.push(format!("hit {} disagrees with the oracle", r.hit.url));
            } else if let Some(f) = &query.filter {
                let image = oracle.lookup(&r.hit.url).expect("matched above");
                if !Oracle::admits(image, Some(f)) {
                    bad.push(format!("hit {} fails the filter", r.hit.url));
                }
            }
        }
        let features = oracle.extract(&world.images, url);
        let exact = oracle.top_k(&features, K, query.filter.as_ref());
        let hits: Vec<_> = resp.results.iter().map(|r| r.hit.clone()).collect();
        let (h, t) = oracle.overlap(&exact, &hits);
        out.recall_hits += h;
        out.recall_total += t;
        if !bad.is_empty() {
            out.failed += 1;
            out.mismatches
                .push(format!("query {url}: {}", bad.join("; ")));
        }
    }
    if world.spec.maintenance {
        exact_image_checks(world, oracle, &mut out);
    }
    out
}

/// Every live image must come back first for a query with its own
/// features, with the oracle's attributes. A dead-lettered add or update
/// shows up here as a mismatch.
fn exact_image_checks(world: &World, oracle: &Oracle, out: &mut Verification) {
    let live: Vec<usize> = oracle.live_images().collect();
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    let chunk = live.len().div_ceil(threads).max(1);
    let bad: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = live
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let searchers: Vec<SearcherService> = (0..world.spec.partitions)
                        .map(|p| {
                            SearcherService::new(
                                p,
                                std::sync::Arc::clone(world.topology.handle(p, 0)),
                            )
                        })
                        .collect();
                    let mut bad = Vec::new();
                    for &i in part {
                        let image = &oracle.images[i];
                        let resp = searchers[image.partition].execute(&FanoutQuery {
                            features: oracle.features(i).to_vec(),
                            k: 1,
                            nprobe: None,
                            // The raw scan: the check is about what the
                            // index holds, not about PQ ranking error.
                            compressed: false,
                            budget: None,
                            filter: None,
                        });
                        let ok = resp
                            .hits
                            .first()
                            .is_some_and(|h| h.url == image.url && oracle.hit_matches(h));
                        if !ok {
                            bad.push(format!(
                                "live image {} is not the top-1 answer to its own features",
                                image.url
                            ));
                        }
                    }
                    bad
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check thread"))
            .collect()
    });
    out.attempted += live.len() as u64;
    out.failed += bad.len() as u64;
    out.mismatches.extend(bad);
}
