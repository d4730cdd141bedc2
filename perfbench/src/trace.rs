//! The traced run: per-layer self times from outside the program.
//!
//! A sample of the workload's queries is replayed through each layer's
//! public entry point, one query at a time, on warm state and in a fixed
//! order:
//!
//! ```text
//! e2e             NetClient::search over TCP (client → blender hop and on down)
//! └ blender       in-process BlenderService::execute over TCP broker channels
//!   ├ extract     ImageStore::get + FeatureExtractor::extract
//!   ├ broker[g]   TCP call to broker group g
//!   │ └ searcher.call[p]   TCP call to the searcher of partition p
//!   │   ├ codec[p]         wire encode + decode of the hop's two messages
//!   │   └ searcher[p]      in-process SearcherService::execute
//!   │     └ engine[p]      VisualIndex search (the searcher's engine call)
//!   │       └ assign[p]    Kmeans::assign_multi
//!   └ rank        RankingPolicy::rank over the groups' hits
//! ```
//!
//! Every span (name, start, end, parent, query id) is kept in memory and
//! written out at the end. Self times follow the critical path: the
//! slowest broker group, and in it the slowest searcher call. The residue
//! is the end-to-end time minus the sum of the self times along that path
//! (the client → blender hop, which no layer call isolates).
//!
//! The write path is measured the same way: a sample of the day's next
//! events is applied through `RealtimeIndexer::apply` to a copy of
//! partition 0 (loaded from its snapshot bytes), timed per event kind, and
//! every partition is checkpointed once through the topology.

use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use jdvs_core::realtime::RealtimeIndexer;
use jdvs_core::{persist, FilterSpec, ListId, VisualIndex};
use jdvs_net::balancer::Balancer;
use jdvs_net::rpc::CallTarget;
use jdvs_net::tcp::TcpChannel;
use jdvs_search::blender::BlenderService;
use jdvs_search::protocol::{FanoutQuery, PartialResponse, QueryInput, SearchQuery};
use jdvs_search::searcher::SearcherService;
use jdvs_search::{wire, RankingPolicy};
use jdvs_storage::model::{ImageKey, ProductEvent};
use jdvs_vector::simd::{self, FASTSCAN_LANES};

use crate::phases::complete;
use crate::util::{mean, median, metric, Metric};
use crate::world::World;

/// Events of the day applied to the partition copy.
pub const APPLY_SAMPLE: usize = 4_000;
/// Queries replayed untimed first (warm connections, caches, pages).
const WARM_QUERIES: usize = 10;
const DEADLINE: Duration = Duration::from_secs(10);

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub query: usize,
    pub name: String,
    pub start_ns: u128,
    pub end_ns: u128,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    pub recording: bool,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            recording: true,
        }
    }

    /// Runs `f` as one span; returns its result and span id.
    pub fn span<R>(
        &mut self,
        name: impl Into<String>,
        query: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = self.origin.elapsed().as_nanos();
        let out = f();
        let end = self.origin.elapsed().as_nanos();
        let id = self.spans.len();
        if self.recording {
            self.spans.push(Span {
                id,
                parent,
                query,
                name: name.into(),
                start_ns: start,
                end_ns: end,
            });
        }
        (out, id)
    }

    fn dur(&self, id: usize) -> f64 {
        self.spans.get(id).map_or(0.0, Span::micros)
    }

    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "id\tparent\tquery\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                f,
                "{}\t{parent}\t{}\t{}\t{}\t{}",
                s.id, s.query, s.name, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}

/// Self times of one replayed query, in microseconds, along its
/// critical path.
#[derive(Debug, Default, Clone)]
pub struct QueryLayers {
    pub e2e: f64,
    pub blender_self: f64,
    pub extract: f64,
    pub rank: f64,
    pub broker_self: f64,
    pub searcher_hop: f64,
    pub partial_build: f64,
    pub engine: f64,
    pub assign: f64,
    pub searcher_execute: f64,
    pub codec: f64,
    pub filtered_engine: f64,
    pub candidates: Option<u64>,
    pub partial_bytes: usize,
    pub response_bytes: usize,
    pub cache_hit: bool,
}

impl QueryLayers {
    /// Sum of the self times along the critical path.
    pub fn self_sum(&self) -> f64 {
        self.blender_self
            + self.extract
            + self.rank
            + self.broker_self
            + self.searcher_hop
            + self.partial_build
            + self.engine
    }

    pub fn residue(&self) -> f64 {
        self.e2e - self.self_sum()
    }
}

type FanoutChannel = TcpChannel<FanoutQuery, PartialResponse>;

fn fanout_channel(name: String, addr: std::net::SocketAddr) -> FanoutChannel {
    TcpChannel::new(name, addr, wire::encode_fanout_query, |b: &[u8]| {
        wire::decode_partial_response(b).ok()
    })
}

/// One engine call the way `SearcherService::execute` makes it.
fn engine_call(index: &VisualIndex, q: &FanoutQuery, nprobe: usize) -> usize {
    let k = q.k.max(1);
    let hits = if q.compressed && index.has_pq() {
        let rerank = index.config().rerank_factor;
        match &q.filter {
            Some(f) => index.search_compressed_filtered_with_budget(
                &q.features,
                k,
                nprobe,
                rerank,
                f,
                None,
            ),
            None => index.search_compressed(&q.features, k, nprobe, rerank),
        }
    } else {
        match &q.filter {
            Some(f) => index.search_filtered_with_budget(&q.features, k, nprobe, f, None),
            None => index.search(&q.features, k, nprobe),
        }
    };
    hits.len()
}

/// The replay harness over a built world.
struct Replayer<'a> {
    world: &'a World,
    blender: BlenderService<FanoutChannel>,
    brokers: Vec<FanoutChannel>,
    searchers: Vec<FanoutChannel>,
    services: Vec<SearcherService>,
    groups: Vec<Vec<usize>>,
    /// Filter applied to every sampled query for `engine.filtered_us`.
    probe_filter: FilterSpec,
}

impl<'a> Replayer<'a> {
    fn new(world: &'a World, probe_filter: FilterSpec) -> Self {
        let net = &world.net;
        let map = world.topology.partition_map();
        let groups: Vec<Vec<usize>> = (0..map.num_broker_groups())
            .map(|g| map.partitions_of_group(g))
            .collect();
        let brokers: Vec<FanoutChannel> = (0..groups.len())
            .map(|g| fanout_channel(format!("trace-broker-{g}"), net.broker_addrs(g)[0]))
            .collect();
        let blender_groups = (0..groups.len())
            .map(|g| {
                Balancer::new(vec![fanout_channel(
                    format!("trace-blender-{g}"),
                    net.broker_addrs(g)[0],
                )])
            })
            .collect();
        let tc = world.topology.config();
        let blender = BlenderService::new(
            blender_groups,
            Arc::clone(&world.extractor),
            Arc::clone(&world.images),
            RankingPolicy::similarity_only(),
            tc.broker_deadline,
        )
        .with_group_partitions(groups.iter().map(Vec::len).collect());
        let partitions = map.num_partitions();
        let searchers = (0..partitions)
            .map(|p| fanout_channel(format!("trace-searcher-{p}"), net.searcher_addrs(p)[0]))
            .collect();
        let services = (0..partitions)
            .map(|p| SearcherService::new(p, Arc::clone(world.topology.handle(p, 0))))
            .collect();
        Self {
            world,
            blender,
            brokers,
            searchers,
            services,
            groups,
            probe_filter,
        }
    }

    /// Replays one query through every layer; `None` if any call failed.
    fn query(&self, tr: &mut Tracer, qid: usize, query: &SearchQuery) -> Option<QueryLayers> {
        let world = self.world;
        let partitions = world.spec.partitions;
        let QueryInput::ImageUrl(url) = &query.input else {
            return None;
        };
        let charges = world.extractor.cost().charge_count();
        let (resp, e2e) = tr.span("e2e", qid, None, || world.client.search(query.clone()));
        let resp = resp.ok().filter(|r| complete(r, partitions))?;
        let cache_hit = world.extractor.cost().charge_count() == charges;

        let (bl, blender) = tr.span("blender", qid, Some(e2e), || self.blender.execute(query));
        if !complete(&bl, partitions) {
            return None;
        }
        let (features, extract) = tr.span("extract", qid, Some(blender), || {
            let blob = world.images.get(ImageKey::from_url(url))?;
            Some(world.extractor.extractor().extract(&blob).into_inner())
        });
        let fanout = FanoutQuery {
            features: features?,
            k: query.k,
            nprobe: query.nprobe,
            compressed: query.compressed,
            budget: Some(DEADLINE),
            filter: query.filter.clone(),
        };

        let mut group_hits = Vec::new();
        let mut broker_spans = Vec::new();
        for (g, channel) in self.brokers.iter().enumerate() {
            let (partial, id) = tr.span(format!("broker[{g}]"), qid, Some(blender), || {
                channel.call(fanout.clone(), DEADLINE)
            });
            let partial = partial.ok().filter(PartialResponse::is_complete)?;
            group_hits.extend(partial.hits);
            broker_spans.push(id);
        }
        let (_, rank) = tr.span("rank", qid, Some(blender), || {
            RankingPolicy::similarity_only().rank(group_hits.clone(), query.k)
        });

        // Critical broker group, then its searchers.
        let g_star = (0..self.groups.len())
            .max_by(|&a, &b| tr.dur(broker_spans[a]).total_cmp(&tr.dur(broker_spans[b])))?;
        let mut per_partition = Vec::new();
        for &p in &self.groups[g_star] {
            let parent = Some(broker_spans[g_star]);
            let (partial, call) = tr.span(format!("searcher.call[{p}]"), qid, parent, || {
                self.searchers[p].call(fanout.clone(), DEADLINE)
            });
            let partial = partial.ok().filter(PartialResponse::is_complete)?;
            let (_, exec) = tr.span(format!("searcher[{p}]"), qid, Some(call), || {
                self.services[p].execute(&fanout)
            });
            let index = self.services[p].index();
            let nprobe = fanout.nprobe.unwrap_or(index.config().nprobe);
            let (_, engine) = tr.span(format!("engine[{p}]"), qid, Some(exec), || {
                engine_call(&index, &fanout, nprobe)
            });
            let (lists, assign) = tr.span(format!("assign[{p}]"), qid, Some(engine), || {
                index.quantizer().assign_multi(&fanout.features, nprobe)
            });
            let (partial_bytes, codec) = tr.span(format!("codec[{p}]"), qid, Some(call), || {
                let q = wire::encode_fanout_query(&fanout);
                let r = wire::encode_partial_response(&partial);
                let ok = wire::decode_fanout_query(&q).is_ok()
                    && wire::decode_partial_response(&r).is_ok();
                ok.then_some(r.len())
            });
            let filtered = FanoutQuery {
                filter: Some(self.probe_filter.clone()),
                ..fanout.clone()
            };
            let (_, filtered_id) = tr.span(format!("engine.filtered[{p}]"), qid, None, || {
                engine_call(&index, &filtered, nprobe)
            });
            let candidates = fanout.filter.is_none().then(|| {
                lists
                    .iter()
                    .map(|&l| index.inverted().list(ListId(l as u32)).len() as u64)
                    .sum::<u64>()
            });
            per_partition.push((
                call,
                exec,
                engine,
                assign,
                codec,
                filtered_id,
                partial_bytes?,
                candidates,
            ));
        }
        let &(call, exec, engine, assign, codec, filtered_id, partial_bytes, candidates) =
            per_partition
                .iter()
                .max_by(|a, b| tr.dur(a.0).total_cmp(&tr.dur(b.0)))?;

        let broker_us = tr.dur(broker_spans[g_star]);
        Some(QueryLayers {
            e2e: tr.dur(e2e),
            blender_self: tr.dur(blender) - tr.dur(extract) - broker_us - tr.dur(rank),
            extract: tr.dur(extract),
            rank: tr.dur(rank),
            broker_self: broker_us - tr.dur(call),
            searcher_hop: tr.dur(call) - tr.dur(exec),
            partial_build: tr.dur(exec) - tr.dur(engine),
            engine: tr.dur(engine),
            assign: tr.dur(assign),
            searcher_execute: tr.dur(exec),
            codec: tr.dur(codec),
            filtered_engine: tr.dur(filtered_id),
            candidates,
            partial_bytes,
            response_bytes: wire::encode_search_response(&resp).len(),
            cache_hit,
        })
    }
}

/// Per-kind apply timings on a copy of partition 0.
#[derive(Debug, Default)]
pub struct ApplyTimes {
    pub update_us: Vec<f64>,
    pub add_us: Vec<f64>,
    pub relist_us: Vec<f64>,
    pub delete_us: Vec<f64>,
    pub revalidated: u64,
    pub inserted: u64,
    pub failed: u64,
}

pub fn apply_replay(world: &World, events: &[ProductEvent]) -> ApplyTimes {
    let copy =
        persist::load(&persist::save(&world.topology.index(0, 0))).expect("snapshot round trip");
    let map = world.topology.partition_map();
    let indexer = RealtimeIndexer::for_index(
        Arc::new(copy),
        Arc::clone(&world.extractor),
        Arc::clone(&world.images),
        Arc::clone(&world.feature_db),
    )
    .with_filter(Arc::new(move |key: ImageKey| map.partition_of(key) == 0));
    let mut out = ApplyTimes::default();
    for event in events {
        let t = Instant::now();
        let report = indexer.apply(event);
        let us = t.elapsed().as_secs_f64() * 1e6;
        out.failed += report.failed;
        if report.touched() == 0 {
            continue;
        }
        out.revalidated += report.revalidated;
        out.inserted += report.inserted;
        match event {
            ProductEvent::AddProduct { .. } if report.revalidated > 0 => out.relist_us.push(us),
            ProductEvent::AddProduct { .. } => out.add_us.push(us),
            ProductEvent::RemoveProduct { .. } => out.delete_us.push(us),
            ProductEvent::UpdateAttributes { .. } => out.update_us.push(us),
        }
    }
    out
}

/// Nanoseconds per call of the active squared-L2 kernel at `dim`, and of
/// the 4-bit fast-scan kernel over one `m`-subspace block.
pub fn kernel_ns(dim: usize, m: usize) -> (f64, f64) {
    let kernels = simd::active();
    let a: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin()).collect();
    let b: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.11).cos()).collect();
    const CALLS: u32 = 200_000;
    let mut acc = 0.0f32;
    let t = Instant::now();
    for _ in 0..CALLS {
        acc += kernels.squared_l2(std::hint::black_box(&a), std::hint::black_box(&b));
    }
    let l2 = t.elapsed().as_nanos() as f64 / f64::from(CALLS);
    std::hint::black_box(acc);

    let block: Vec<u8> = (0..m * 16).map(|i| (i * 37 % 251) as u8).collect();
    let luts: Vec<u8> = (0..m * 16).map(|i| (i * 11 % 13) as u8).collect();
    let mut lanes = [0u16; FASTSCAN_LANES];
    let t = Instant::now();
    for _ in 0..CALLS {
        kernels.fastscan16(
            std::hint::black_box(&block),
            std::hint::black_box(&luts),
            &mut lanes,
        );
        std::hint::black_box(&lanes);
    }
    let fastscan = t.elapsed().as_nanos() as f64 / f64::from(CALLS);
    (l2, fastscan)
}

#[derive(Debug, Default)]
pub struct Replay {
    pub metrics: Vec<Metric>,
    pub layers: Vec<QueryLayers>,
    pub attempted: u64,
    pub failed: u64,
}

/// The traced run's replay; writes its spans to `out_dir` and returns the
/// per-layer metrics.
pub fn replay(
    world: &World,
    queries: &[SearchQuery],
    next_events: &[ProductEvent],
    out_dir: &Path,
    seed: u64,
) -> Replay {
    let spec = &world.spec;
    let replayer = Replayer::new(world, crate::queries::one_percent_filter(&world.catalog));
    let mut tracer = Tracer::new();
    let mut out = Replay::default();

    tracer.recording = false;
    for (i, q) in queries.iter().take(WARM_QUERIES).enumerate() {
        let _ = replayer.query(&mut tracer, i, q);
    }
    tracer.recording = true;
    for (i, q) in queries.iter().enumerate() {
        out.attempted += 1;
        match replayer.query(&mut tracer, i, q) {
            Some(layers) => out.layers.push(layers),
            None => out.failed += 1,
        }
    }

    let apply = apply_replay(world, next_events);
    out.failed += apply.failed;
    out.attempted += next_events.len() as u64;

    let mut checkpoint_ms = Vec::new();
    for p in 0..spec.partitions {
        let (report, _) = tracer.span(format!("checkpoint[{p}]"), usize::MAX, None, || {
            world.topology.checkpoint_partition(p)
        });
        out.attempted += 1;
        if report.is_err() {
            out.failed += 1;
        }
        checkpoint_ms.push(tracer.spans.last().map_or(0.0, Span::micros) / 1e3);
    }
    let checkpoints = world
        .topology
        .durability_snapshot()
        .map_or(0, |s| s.checkpoints_written);

    let (l2_ns, fastscan_ns) = kernel_ns(spec.dim, spec.pq.map_or(16, |(m, _)| m));

    let path = out_dir.join(format!("{}-seed{seed}.tsv", spec.name));
    match tracer.write_tsv(&path) {
        Ok(()) => println!(
            "# spans: {} written to {}",
            tracer.spans.len(),
            path.display()
        ),
        Err(e) => println!("# spans: could not write {}: {e}", path.display()),
    }

    let layers = &out.layers;
    let avg = |f: fn(&QueryLayers) -> f64| mean(&layers.iter().map(f).collect::<Vec<_>>());
    let candidates: Vec<f64> = layers
        .iter()
        .filter_map(|l| l.candidates.map(|c| c as f64))
        .collect();
    let mut e2e: Vec<f64> = layers.iter().map(|l| l.e2e).collect();
    let e2e_p50 = median(&mut e2e);
    let rows: [(&str, f64); 8] = [
        ("blender.self", avg(|l| l.blender_self)),
        ("blender.extract", avg(|l| l.extract)),
        ("blender.rank", avg(|l| l.rank)),
        ("broker.self", avg(|l| l.broker_self)),
        ("net.searcher_hop", avg(|l| l.searcher_hop)),
        ("searcher.partial_build", avg(|l| l.partial_build)),
        ("engine.search", avg(|l| l.engine)),
        ("residue", avg(QueryLayers::residue)),
    ];
    println!(
        "# layer self times, mean over {} queries (us), {}:",
        layers.len(),
        spec.name
    );
    for (name, v) in rows {
        println!("#   {name:<24} {v:>10.1}");
    }
    println!("#   {:<24} {:>10.1}", "e2e", avg(|l| l.e2e));
    println!(
        "# write path on a copy of partition 0: update {:.1} us ({}), add {:.1} us ({}), \
         relist {:.1} us ({}), delete {:.1} us ({})",
        mean(&apply.update_us),
        apply.update_us.len(),
        mean(&apply.add_us),
        apply.add_us.len(),
        mean(&apply.relist_us),
        apply.relist_us.len(),
        mean(&apply.delete_us),
        apply.delete_us.len(),
    );

    out.metrics = vec![
        metric("blender.self_us", rows[0].1, "us"),
        metric("blender.extract_us", rows[1].1, "us"),
        metric("blender.rank_us", rows[2].1, "us"),
        metric(
            "blender.cache_hits",
            layers.iter().filter(|l| l.cache_hit).count() as f64,
            "count",
        ),
        metric("broker.self_us", rows[3].1, "us"),
        metric("net.searcher_hop_us", rows[4].1, "us"),
        metric("wire.partial_bytes", avg(|l| l.partial_bytes as f64), "B"),
        metric("wire.response_bytes", avg(|l| l.response_bytes as f64), "B"),
        metric("wire.codec_us", avg(|l| l.codec), "us"),
        metric("searcher.execute_us", avg(|l| l.searcher_execute), "us"),
        metric("searcher.partial_build_us", rows[5].1, "us"),
        metric("engine.search_us", rows[6].1, "us"),
        metric("engine.assign_us", avg(|l| l.assign), "us"),
        metric("engine.scan_us", avg(|l| l.engine - l.assign), "us"),
        metric("engine.candidates", mean(&candidates), "count"),
        metric("engine.filtered_us", avg(|l| l.filtered_engine), "us"),
        metric("kernel.squared_l2_ns", l2_ns, "ns"),
        metric("kernel.fastscan16_ns", fastscan_ns, "ns"),
        metric("realtime.apply_update_us", mean(&apply.update_us), "us"),
        metric("realtime.apply_add_us", mean(&apply.add_us), "us"),
        metric("realtime.apply_relist_us", mean(&apply.relist_us), "us"),
        metric("realtime.apply_delete_us", mean(&apply.delete_us), "us"),
        metric(
            "realtime.reuse_ratio",
            apply.revalidated as f64 / (apply.revalidated + apply.inserted).max(1) as f64,
            "ratio",
        ),
        metric("durability.checkpoint_ms", mean(&checkpoint_ms), "ms"),
        metric("durability.checkpoints", checkpoints as f64, "count"),
        metric("residue_us", rows[7].1, "us"),
        metric("trace.e2e_p50_us", e2e_p50, "us"),
    ];
    out
}
