//! An independent reference for every answer the serving stack gives.
//!
//! The oracle keeps its own copy of the features, attributes and validity
//! of every image, applies the same event stream to that copy, and answers
//! queries with a plain scalar L2 loop over every live image. It shares no
//! index, list, kernel or merge code with the program: only the partition
//! layout (which partition and broker group own an image), because the
//! exhaustive answer it computes follows the system's documented merge —
//! per-partition top-k images, per-group top-k, union over groups, ranked
//! by distance and deduplicated by product.

use std::collections::HashMap;

use jdvs_core::FilterSpec;
use jdvs_features::FeatureExtractor;
use jdvs_search::partition::PartitionMap;
use jdvs_search::protocol::PartialHit;
use jdvs_storage::model::{ImageKey, ProductAttributes, ProductEvent, ProductId};
use jdvs_storage::ImageStore;

/// The oracle's record of one image (its features live in
/// [`Oracle::features`]).
#[derive(Debug, Clone)]
pub struct Image {
    pub url: String,
    pub product: ProductId,
    pub sales: u64,
    pub price: u64,
    pub praise: u64,
    pub category: u32,
    pub in_stock: bool,
    pub valid: bool,
    /// Broker group owning the image's partition.
    pub group: usize,
    pub partition: usize,
}

/// One exact answer entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exact {
    pub image: usize,
    pub distance: f32,
}

#[derive(Debug)]
pub struct Oracle {
    dim: usize,
    extractor: FeatureExtractor,
    layout: PartitionMap,
    group_of: Vec<usize>,
    by_url: HashMap<String, usize>,
    features: Vec<f32>,
    pub images: Vec<Image>,
}

impl Oracle {
    pub fn new(extractor: FeatureExtractor, layout: PartitionMap) -> Self {
        let mut group_of = vec![0; layout.num_partitions()];
        for g in 0..layout.num_broker_groups() {
            for p in layout.partitions_of_group(g) {
                group_of[p] = g;
            }
        }
        Self {
            dim: extractor.config().dim,
            extractor,
            layout,
            group_of,
            by_url: HashMap::new(),
            features: Vec::new(),
            images: Vec::new(),
        }
    }

    /// Features of the stored image behind `url`, extracted by the
    /// oracle's own extractor.
    pub fn extract(&self, store: &ImageStore, url: &str) -> Vec<f32> {
        let blob = store.get_by_url(url).expect("every image has a blob");
        self.extractor.extract(&blob).into_inner()
    }

    pub fn lookup(&self, url: &str) -> Option<&Image> {
        self.by_url.get(url).map(|&i| &self.images[i])
    }

    pub fn features(&self, image: usize) -> &[f32] {
        &self.features[image * self.dim..(image + 1) * self.dim]
    }

    pub fn live_images(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.images.len()).filter(|&i| self.images[i].valid)
    }

    /// Extracts the features of every image listed since the last call.
    /// Kept apart from event application so the copy is made only when the
    /// verification phase needs it, after peak RSS has been read.
    pub fn prepare(&mut self, store: &ImageStore) {
        for i in self.features.len() / self.dim..self.images.len() {
            let features = self.extract(store, &self.images[i].url);
            self.features.extend_from_slice(&features);
        }
    }

    fn list(&mut self, attrs: &ProductAttributes) {
        let slot = match self.by_url.get(&attrs.url) {
            Some(&i) => i,
            None => {
                let partition = self.layout.partition_of(ImageKey::from_url(&attrs.url));
                self.images.push(Image {
                    url: attrs.url.clone(),
                    product: attrs.product_id,
                    sales: 0,
                    price: 0,
                    praise: 0,
                    category: 0,
                    in_stock: true,
                    valid: false,
                    group: self.group_of[partition],
                    partition,
                });
                self.by_url.insert(attrs.url.clone(), self.images.len() - 1);
                self.images.len() - 1
            }
        };
        let image = &mut self.images[slot];
        image.product = attrs.product_id;
        image.sales = attrs.sales;
        image.price = attrs.price;
        image.praise = attrs.praise;
        image.category = attrs.category;
        image.in_stock = attrs.in_stock;
        image.valid = true;
    }

    /// Applies one catalog event: additions list (or re-list) images with
    /// the event's attributes, removals clear validity, updates overwrite
    /// the attributes they carry.
    pub fn apply(&mut self, event: &ProductEvent) {
        match event {
            ProductEvent::AddProduct { images, .. } => {
                for attrs in images {
                    self.list(attrs);
                }
            }
            ProductEvent::RemoveProduct { urls, .. } => {
                for url in urls {
                    if let Some(&i) = self.by_url.get(url) {
                        self.images[i].valid = false;
                    }
                }
            }
            ProductEvent::UpdateAttributes {
                urls,
                sales,
                price,
                praise,
                ..
            } => {
                for url in urls {
                    if let Some(&i) = self.by_url.get(url) {
                        let image = &mut self.images[i];
                        image.sales = sales.unwrap_or(image.sales);
                        image.price = price.unwrap_or(image.price);
                        image.praise = praise.unwrap_or(image.praise);
                    }
                }
            }
        }
    }

    pub fn admits(image: &Image, filter: Option<&FilterSpec>) -> bool {
        let Some(f) = filter else { return true };
        f.category.is_none_or(|c| image.category == c)
            && (!f.in_stock_only || image.in_stock)
            && f.price_min.is_none_or(|m| image.price >= m)
            && f.price_max.is_none_or(|m| image.price <= m)
            && f.min_sales.is_none_or(|m| image.sales >= m)
    }

    /// The exhaustive answer: each broker group's `k` nearest admitted live
    /// images, unioned, ordered by distance and deduplicated by product,
    /// first `k` products. (Per-partition top-k then per-group top-k is the
    /// same set as the group's top-k over all its images.)
    pub fn top_k(&self, query: &[f32], k: usize, filter: Option<&FilterSpec>) -> Vec<Exact> {
        assert_eq!(
            self.features.len(),
            self.images.len() * self.dim,
            "prepare() first"
        );
        let groups = self.layout.num_broker_groups();
        let mut per_group: Vec<Vec<Exact>> = vec![Vec::new(); groups];
        for (i, image) in self.images.iter().enumerate() {
            if !image.valid || !Self::admits(image, filter) {
                continue;
            }
            let distance = squared_l2(query, self.features(i));
            let best = &mut per_group[image.group];
            if best.len() == k && distance >= best[k - 1].distance {
                continue;
            }
            let pos = best.partition_point(|e| e.distance <= distance);
            best.insert(pos, Exact { image: i, distance });
            best.truncate(k);
        }
        let mut all: Vec<Exact> = per_group.into_iter().flatten().collect();
        all.sort_by(|a, b| {
            a.distance
                .total_cmp(&b.distance)
                .then_with(|| self.images[a.image].url.cmp(&self.images[b.image].url))
        });
        let mut seen = std::collections::HashSet::new();
        all.retain(|e| seen.insert(self.images[e.image].product));
        all.truncate(k);
        all
    }

    /// Products of `returned` that the exact answer holds, out of the exact
    /// answer's size. A returned product missing from the exact set counts
    /// when its distance ties the exact set's last one (float rounding of
    /// the SIMD kernels).
    pub fn overlap(&self, exact: &[Exact], returned: &[PartialHit]) -> (usize, usize) {
        let products: std::collections::HashSet<ProductId> =
            exact.iter().map(|e| self.images[e.image].product).collect();
        let edge = exact.last().map_or(0.0, |e| e.distance);
        let tie = |d: f32| d <= edge + 1e-5 * (1.0 + edge.abs());
        let hits = returned
            .iter()
            .take(exact.len())
            .filter(|h| products.contains(&h.product_id) || tie(h.distance))
            .count();
        (hits, exact.len())
    }

    /// Whether a returned hit agrees with the oracle: the image is live and
    /// carries the oracle's latest attributes.
    pub fn hit_matches(&self, hit: &PartialHit) -> bool {
        self.lookup(&hit.url).is_some_and(|image| {
            image.valid
                && image.product == hit.product_id
                && image.sales == hit.sales
                && image.price == hit.price
                && image.praise == hit.praise
        })
    }
}

/// Plain scalar squared Euclidean distance.
pub fn squared_l2(a: &[f32], b: &[f32]) -> f32 {
    let mut sum = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        sum += d * d;
    }
    sum
}
