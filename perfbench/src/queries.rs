//! Query inputs made from the seed.
//!
//! A query is a fresh photo of one of the catalog's visual clusters (a new
//! synthetic image registered in the image store, so the blender fetches
//! and extracts it), or — with the workload's repeat share — one of a small
//! pool of popular images asked again and again. Every `filter_every`-th
//! query carries a `min_sales` filter admitting 1% of the catalog's
//! images.

use jdvs_core::FilterSpec;
use jdvs_search::SearchQuery;
use jdvs_storage::ImageStore;
use jdvs_vector::rng::Xoshiro256;
use jdvs_workload::catalog::Catalog;
use jdvs_workload::queries::FilteredQueryGenerator;

use crate::world::{Spec, K};

/// Queries checked against the oracle after the timed phases.
pub const VERIFY_QUERIES: usize = 200;

/// Popular images the repeated queries draw from.
const POOL: usize = 16;

#[derive(Debug)]
pub struct QueryMaker {
    rng: Xoshiro256,
    seed: u64,
    clusters: u64,
    pool: Vec<String>,
    repeat_share: f64,
    filter_every: usize,
    filter: FilterSpec,
    compressed: bool,
    made: usize,
}

/// The filter the filtered queries carry: a `min_sales` threshold
/// admitting 1% of the catalog's images.
pub fn one_percent_filter(catalog: &Catalog) -> FilterSpec {
    let min_sales = FilteredQueryGenerator::new(catalog, 0).min_sales_for_selectivity(0.01);
    FilterSpec::none().with_min_sales(min_sales)
}

impl QueryMaker {
    pub fn new(spec: &Spec, seed: u64, catalog: &Catalog, images: &ImageStore) -> Self {
        let mut rng = Xoshiro256::seed_from(seed ^ 0x9E57);
        let clusters = catalog.num_clusters() as u64;
        let pool = (0..POOL)
            .map(|i| {
                let url = format!("https://img.jd.test/popular/{seed}/{i}.jpg");
                images.put_synthetic(&url, rng.next_bounded(clusters));
                url
            })
            .collect();
        Self {
            rng,
            seed,
            clusters,
            pool,
            repeat_share: spec.repeat_share,
            filter_every: spec.filter_every,
            filter: one_percent_filter(catalog),
            compressed: spec.pq.is_some(),
            made: 0,
        }
    }

    /// The next query; its image is registered in `images`.
    pub fn next(&mut self, images: &ImageStore) -> SearchQuery {
        let i = self.made;
        self.made += 1;
        let url = if self.rng.next_bool(self.repeat_share) {
            self.pool[self.rng.next_index(self.pool.len())].clone()
        } else {
            let url = format!("https://img.jd.test/query/{}/{i}.jpg", self.seed);
            images.put_synthetic(&url, self.rng.next_bounded(self.clusters));
            url
        };
        let mut query = SearchQuery::by_image_url(url, K);
        query.compressed = self.compressed;
        if self.filter_every > 0 && i % self.filter_every == self.filter_every - 1 {
            query = query.with_filter(self.filter.clone());
        }
        query
    }

    pub fn take(&mut self, n: usize, images: &ImageStore) -> Vec<SearchQuery> {
        (0..n).map(|_| self.next(images)).collect()
    }
}
