//! The three benchmark worlds and their set-up.
//!
//! A [`Spec`] fixes a world's shape (catalog, index, topology, serving
//! pools) and its load (rates, repeats, filters, update mix). The seed
//! only changes the inputs: catalog contents, query images and the event
//! stream. [`World::build`] is the timed set-up: catalog extraction,
//! quantizer training, bulk load, bootstrap replay through the durable
//! queue, binding the TCP tiers and serving the first query.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use jdvs_core::IndexConfig;
use jdvs_durability::log::FsyncPolicy;
use jdvs_features::cost::CostModel;
use jdvs_features::{CachingExtractor, ExtractorConfig, FeatureExtractor};
use jdvs_net::admission::AdmissionConfig;
use jdvs_search::batch::BatchConfig;
use jdvs_search::serving::{NetClient, NetServing, NetServingConfig};
use jdvs_search::topology::{DurabilityOptions, SearchTopology, TopologyConfig};
use jdvs_search::{RankingPolicy, SearchQuery};
use jdvs_storage::model::ProductEvent;
use jdvs_storage::{FeatureDb, ImageStore};
use jdvs_vector::Vector;
use jdvs_workload::catalog::{Catalog, CatalogConfig};

/// Results asked of every query.
pub const K: usize = 10;
/// Concurrency cap of every tier's admission controller.
const TIER_WORKERS: usize = 2;
/// Open-loop query rate (1/s): low enough that the one open-loop
/// connection rarely queues behind itself, high enough that every run
/// measures over a thousand requests.
pub const QUERY_RATE: f64 = 170.0;
/// Events published at once in the update-burst phase.
pub const BURST_EVENTS: usize = 60_000;
/// Images the coarse quantizer (and PQ codebooks) train on.
const TRAIN_SAMPLE: usize = 8_000;

/// One workload's world and load shape.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// Products in the catalog (1–3 images each, 2 on average).
    pub products: usize,
    /// Visual clusters (product families).
    pub clusters: usize,
    pub dim: usize,
    pub num_lists: usize,
    pub nprobe: usize,
    /// Centroid-graph beam; 0 keeps the flat centroid scan.
    pub coarse_beam: usize,
    /// `(subspaces, bits)` of the PQ fast-scan path; queries then ask for
    /// the compressed scan with exact re-rank.
    pub pq: Option<(usize, u8)>,
    pub kmeans_iters: usize,
    pub partitions: usize,
    pub groups: usize,
    /// Searcher micro-batching window (zero disables batching).
    pub batch_window: Duration,
    /// Update-stream rate during the open-loop phase (1/s).
    pub event_rate: f64,
    /// Share of queries that repeat an image from a small popular pool.
    pub repeat_share: f64,
    /// Every `filter_every`-th query carries a `min_sales` filter
    /// (0 = no filtered queries).
    pub filter_every: usize,
    /// Share of the catalog delisted before the day starts: the pool that
    /// re-listings draw from, sized so they stay the bulk of additions.
    pub predelisted: f64,
    /// Arm the checkpoint-exposure scheduler and log compaction.
    pub maintenance: bool,
}

pub fn spec(name: &str) -> Option<Spec> {
    let base = Spec {
        name: "",
        products: 0,
        clusters: 0,
        dim: 64,
        num_lists: 64,
        nprobe: 4,
        coarse_beam: 0,
        pq: None,
        kmeans_iters: 10,
        partitions: 2,
        groups: 1,
        batch_window: Duration::ZERO,
        event_rate: 50.0,
        repeat_share: 0.0,
        filter_every: 0,
        predelisted: 0.5,
        maintenance: false,
    };
    let s = match name {
        "fanout-wide" => Spec {
            name: "fanout-wide",
            products: 40_000,
            clusters: 400,
            dim: 64,
            num_lists: 64,
            nprobe: 4,
            pq: Some((16, 4)),
            partitions: 8,
            groups: 2,
            batch_window: Duration::from_micros(200),
            event_rate: 50.0,
            repeat_share: 1.0 / 3.0,
            ..base
        },
        "catalog-scan" => Spec {
            name: "catalog-scan",
            products: 45_000,
            clusters: 1_000,
            dim: 128,
            num_lists: 1_024,
            nprobe: 128,
            coarse_beam: 16,
            kmeans_iters: 6,
            partitions: 2,
            groups: 1,
            event_rate: 50.0,
            filter_every: 4,
            ..base
        },
        "realtime-churn" => Spec {
            name: "realtime-churn",
            products: 45_000,
            clusters: 450,
            dim: 64,
            num_lists: 256,
            nprobe: 8,
            pq: Some((16, 4)),
            partitions: 4,
            groups: 2,
            event_rate: 4_000.0,
            predelisted: 0.9,
            maintenance: true,
            ..base
        },
        _ => return None,
    };
    Some(s)
}

/// A running world: stores, extractor, durable topology and its TCP tiers.
pub struct World {
    pub spec: Spec,
    pub catalog: Catalog,
    pub images: Arc<ImageStore>,
    pub feature_db: Arc<FeatureDb>,
    pub extractor: Arc<CachingExtractor>,
    pub topology: SearchTopology,
    pub net: NetServing,
    pub client: NetClient,
    dir: PathBuf,
}

fn extractor_config(dim: usize) -> ExtractorConfig {
    ExtractorConfig {
        dim,
        ..ExtractorConfig::default()
    }
}

/// A stand-alone extractor with the worlds' settings (the oracle makes its
/// own copy of the features with it).
pub fn feature_extractor(dim: usize) -> FeatureExtractor {
    FeatureExtractor::new(extractor_config(dim))
}

pub fn catalog_config(spec: &Spec, seed: u64) -> CatalogConfig {
    CatalogConfig {
        num_products: spec.products,
        max_images_per_product: 3,
        num_clusters: spec.clusters,
        seed: seed ^ 0xCA7A_1060,
    }
}

impl World {
    /// Builds and binds the world; returns it with its set-up time (up to
    /// and including the first served query).
    pub fn build(spec: &Spec, seed: u64, dir: &Path) -> (World, Duration) {
        let start = Instant::now();
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("creating the durable data directory");

        let images = Arc::new(ImageStore::with_blob_len(256));
        let feature_db = Arc::new(FeatureDb::new());
        let extractor = Arc::new(CachingExtractor::new(
            feature_extractor(spec.dim),
            CostModel::free(),
        ));
        let catalog = Catalog::generate(&catalog_config(spec, seed));
        catalog.materialize(&images);

        let mut training: Vec<Vector> = Vec::with_capacity(TRAIN_SAMPLE);
        for product in catalog.products() {
            for attrs in product.image_attributes() {
                let blob = images.get(attrs.image_key()).expect("materialized");
                let f = extractor.extractor().extract(&blob);
                feature_db.insert(f.clone(), attrs);
                if training.len() < TRAIN_SAMPLE {
                    training.push(f);
                }
            }
        }

        let topology_config = TopologyConfig {
            index: IndexConfig {
                dim: spec.dim,
                num_lists: spec.num_lists,
                nprobe: spec.nprobe,
                initial_list_capacity: 64,
                kmeans_iters: spec.kmeans_iters,
                train_sample: TRAIN_SAMPLE,
                pq_subspaces: spec.pq.map(|(m, _)| m),
                pq_bits: spec.pq.map_or(8, |(_, b)| b),
                rerank_factor: 4,
                nprobe_escalation: if spec.filter_every > 0 {
                    spec.num_lists
                } else {
                    0
                },
                coarse_beam_width: spec.coarse_beam,
                ..IndexConfig::default()
            },
            num_partitions: spec.partitions,
            replicas_per_partition: 1,
            num_broker_groups: spec.groups,
            broker_replicas: 1,
            num_blenders: 1,
            searcher_workers: 1,
            broker_workers: 1,
            blender_workers: 1,
            ranking: RankingPolicy::similarity_only(),
            seed: 0x70B0,
            ..TopologyConfig::default()
        };
        let mut options = DurabilityOptions::new(dir);
        options.fsync = FsyncPolicy::Os;
        if spec.maintenance {
            options = options
                .with_checkpoint_exposure(20_000)
                .with_log_compaction(0.5);
        }
        let topology = SearchTopology::build_durable(
            topology_config,
            Arc::clone(&extractor),
            Arc::clone(&images),
            Arc::clone(&feature_db),
            &training,
            options,
        )
        .expect("building the durable topology");
        drop(training);

        // Bulk load (the state a full index build would ship), then the
        // bootstrap adds through the durable queue so the log is the
        // catalog's source of truth.
        let map = topology.partition_map();
        let indexes = topology.indexes();
        for product in catalog.products() {
            for attrs in product.image_attributes() {
                let key = attrs.image_key();
                let features = feature_db.features(key).expect("extracted above");
                for index in &indexes[map.partition_of(key)] {
                    index
                        .insert(features.clone(), attrs.clone())
                        .expect("bulk load");
                }
            }
        }
        drop(indexes);
        for event in catalog.bootstrap_events() {
            topology.publish(event);
        }
        topology.wait_for_freshness(Duration::from_secs(120));

        let net = NetServing::over(&topology, serving_config(spec)).expect("binding the tiers");
        let client = net.client();
        let probe = &catalog.products()[0].urls[0];
        client
            .search(SearchQuery::by_image_url(probe.clone(), K))
            .expect("first query");
        let elapsed = start.elapsed();
        (
            World {
                spec: spec.clone(),
                catalog,
                images,
                feature_db,
                extractor,
                topology,
                net,
                client,
                dir: dir.to_path_buf(),
            },
            elapsed,
        )
    }

    /// Publishes one event through the durable queue; returns its offset.
    pub fn publish(&self, event: ProductEvent) -> u64 {
        self.topology.queue().publish(event)
    }
}

impl Drop for World {
    fn drop(&mut self) {
        self.net.drain(Duration::from_secs(5));
        self.topology.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn serving_config(spec: &Spec) -> NetServingConfig {
    let tier = |workers: usize| AdmissionConfig {
        max_concurrency: workers,
        queue_capacity: 256,
        ..AdmissionConfig::default()
    };
    NetServingConfig {
        blender_admission: tier(TIER_WORKERS),
        broker_admission: tier(TIER_WORKERS),
        searcher_admission: tier(TIER_WORKERS),
        searcher_batch: if spec.batch_window.is_zero() {
            BatchConfig::disabled()
        } else {
            BatchConfig {
                window: spec.batch_window,
                max_batch: 8,
                min_hold_budget: Duration::from_millis(2),
            }
        },
        client_deadline: Duration::from_secs(10),
        hedge_after: None,
    }
}
