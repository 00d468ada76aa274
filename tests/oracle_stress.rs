//! Heavy randomized sweep of the RTNN-vs-brute-force equivalence: 300 random
//! clouds × both modes × all four opt levels (2400 engine runs). Ignored by
//! default because it takes a while in debug builds; run with
//!
//! ```text
//! cargo test --release --test oracle_stress -- --ignored
//! ```

mod common;

use common::fresh_search_at;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rtnn::verify::check_all;
use rtnn::{EngineConfig, OptLevel, SearchMode, SearchParams};
use rtnn_gpusim::Device;
use rtnn_math::Vec3;

fn cloud(rng: &mut ChaCha8Rng, half: f32, max_len: usize) -> Vec<Vec3> {
    let len = rng.gen_range(1..max_len);
    (0..len)
        .map(|_| {
            Vec3::new(
                rng.gen_range(-half..half),
                rng.gen_range(-half..half),
                rng.gen_range(-half..half),
            )
        })
        .collect()
}

#[test]
#[ignore = "2400-run stress sweep; run explicitly with -- --ignored"]
fn rtnn_agrees_with_brute_force_on_many_random_instances() {
    let device = Device::rtx_2080();
    for case in 0..300u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5EED ^ (case << 24));
        let points = cloud(&mut rng, 10.0, 200);
        // Queries deliberately overflow the point bounds to exercise the
        // out-of-grid megacell fallback.
        let queries = cloud(&mut rng, 13.0, 50);
        let radius = rng.gen_range(0.3f32..7.0);
        let k = rng.gen_range(1usize..24);
        for mode in [SearchMode::Range, SearchMode::Knn] {
            let params = SearchParams { radius, k, mode };
            for opt in OptLevel::all() {
                let config = EngineConfig::default();
                let results = fresh_search_at(&device, config, opt, params, &points, &queries);
                if let Err((q, e)) = check_all(&points, &queries, &params, &results.neighbors) {
                    panic!(
                        "case {case} {mode:?} {opt:?} r={radius} k={k} n={} query {q}: {e}",
                        points.len()
                    );
                }
            }
        }
    }
}
