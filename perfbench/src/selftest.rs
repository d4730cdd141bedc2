//! The benchmark's own checks: the oracle agrees with an exhaustive
//! search, and the traced decomposition never claims more time than the
//! end-to-end call took.

use std::path::PathBuf;
use std::time::Duration;

use jdvs_search::protocol::QueryInput;

use crate::oracle::Oracle;
use crate::queries::QueryMaker;
use crate::world::{self, Spec, World, K};

fn tiny(name: &'static str) -> Spec {
    Spec {
        name,
        products: 600,
        clusters: 12,
        dim: 16,
        num_lists: 8,
        nprobe: 2,
        partitions: 2,
        groups: 2,
        ..world::spec("catalog-scan").expect("catalog-scan spec")
    }
}

fn data_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("selftest")
        .join(format!("{name}-{}", std::process::id()))
}

fn oracle_for(world: &World) -> Oracle {
    let mut oracle = Oracle::new(
        world::feature_extractor(world.spec.dim),
        world.topology.partition_map(),
    );
    for event in world.catalog.bootstrap_events() {
        oracle.apply(&event);
    }
    oracle.prepare(&world.images);
    oracle
}

/// Exhaustive IVF (every list probed, raw scan) must return exactly the
/// oracle's answer, filtered queries included.
#[test]
fn exhaustive_raw_scan_has_full_recall() {
    let spec = tiny("selftest-recall");
    let (world, _) = World::build(&spec, 7, &data_dir(spec.name));
    let oracle = oracle_for(&world);
    let mut maker = QueryMaker::new(&spec, 7, &world.catalog, &world.images);
    let (mut hits, mut total) = (0, 0);
    for query in maker.take(40, &world.images) {
        let query = query.with_nprobe(spec.num_lists);
        let resp = world.client.search(query.clone()).expect("query served");
        let QueryInput::ImageUrl(url) = &query.input else {
            unreachable!()
        };
        let exact = oracle.top_k(
            &oracle.extract(&world.images, url),
            K,
            query.filter.as_ref(),
        );
        let returned: Vec<_> = resp.results.iter().map(|r| r.hit.clone()).collect();
        let (h, t) = oracle.overlap(&exact, &returned);
        hits += h;
        total += t;
        assert!(returned.iter().all(|h| oracle.hit_matches(h)));
    }
    assert!(total > 0);
    assert_eq!(hits, total, "exhaustive search must match the oracle");
}

/// The critical-path self times of the traced replay sum to no more than
/// the end-to-end time, on average over the sample.
#[test]
fn traced_self_times_never_exceed_end_to_end() {
    let spec = Spec {
        pq: Some((4, 4)),
        batch_window: Duration::from_micros(100),
        ..tiny("selftest-trace")
    };
    let (world, _) = World::build(&spec, 3, &data_dir(spec.name));
    let mut maker = QueryMaker::new(&spec, 3, &world.catalog, &world.images);
    let queries = maker.take(60, &world.images);
    let out = data_dir("selftest-spans");
    let replay = crate::trace::replay(&world, &queries, &[], &out, 3);
    let _ = std::fs::remove_dir_all(&out);
    assert_eq!(replay.failed, 0);
    assert_eq!(replay.layers.len(), queries.len());
    let n = replay.layers.len() as f64;
    let e2e: f64 = replay.layers.iter().map(|l| l.e2e).sum::<f64>() / n;
    let sum: f64 = replay.layers.iter().map(|l| l.self_sum()).sum::<f64>() / n;
    assert!(sum > 0.0);
    assert!(
        sum <= e2e,
        "self times {sum:.1} us exceed end to end {e2e:.1} us"
    );
}
