//! Answer checks against the brute-force oracle and exact-clock
//! signatures. Everything here runs outside the timers.

use rtnn::{Index, QueryPlan, SearchResults};
use rtnn_math::Vec3;

/// SplitMix64: the seeded stream behind every sample the benchmark draws.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `count` distinct indices in `0..n`, sorted.
    pub fn sample(&mut self, n: usize, count: usize) -> Vec<usize> {
        let mut picked: Vec<usize> = (0..count.min(n) * 2).map(|_| self.below(n)).collect();
        picked.sort_unstable();
        picked.dedup();
        picked.truncate(count);
        picked
    }
}

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Relative tolerance for [`ClockSig::summed`]: far above the last-bit
/// differences of a reordered sum, far below any change in the model.
const SUM_TOLERANCE: f64 = 1e-9;

/// The simulated-clock outputs of one execution.
///
/// `rtnn-gpusim` adds its per-SM cycle totals (and the two sums behind
/// SIMT efficiency) in the order the worker threads finish, so with more
/// than one thread those sums can differ in their last bits between runs.
/// They are compared to [`SUM_TOLERANCE`]; everything else, the time
/// breakdown included, must repeat bit for bit. `full` also covers the
/// reordered sums' exact bits, so the drift stays visible.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockSig {
    /// FNV-1a over every output that must repeat bit for bit. Debug
    /// formatting prints each `f64` in its shortest round-trip form, so
    /// equal text means bit-equal values.
    pub exact: u64,
    /// Total, RT-core, SM and memory-stall cycles and SIMT efficiency of
    /// the search launch, then of the first-hit launch.
    pub summed: Vec<f64>,
    /// FNV-1a over all of it, the reordered sums' exact bits included.
    pub full: u64,
}

impl ClockSig {
    pub fn new(res: &SearchResults) -> Self {
        let mut exact = format!(
            "{:?}|{}|{}",
            res.breakdown, res.num_partitions, res.num_bundles
        );
        let mut summed = Vec::new();
        for m in [&res.search_metrics, &res.fs_metrics] {
            let k = &m.kernel;
            exact.push_str(&format!(
                "|{:?}|{:?}|{}|{}|{:?}|{}|{}|{}|{}|{}|{}",
                k.time_ms,
                k.critical_path_cycles,
                k.warps,
                k.threads,
                k.memory,
                m.active_rays,
                m.node_visits,
                m.prim_tests,
                m.is_calls,
                m.terminated_rays,
                m.hit_rays
            ));
            summed.extend([
                k.total_cycles,
                k.rt_core_cycles,
                k.sm_cycles,
                k.mem_stall_cycles,
                k.simt_efficiency,
            ]);
        }
        let full = format!("{exact}|{summed:?}");
        ClockSig {
            exact: fnv1a(exact.as_bytes()),
            summed,
            full: fnv1a(full.as_bytes()),
        }
    }

    /// Same simulated clock: `exact` bit-equal, the reordered sums within
    /// [`SUM_TOLERANCE`].
    pub fn matches(&self, other: &ClockSig) -> bool {
        self.exact == other.exact
            && self.summed.len() == other.summed.len()
            && self
                .summed
                .iter()
                .zip(&other.summed)
                .all(|(a, b)| (a - b).abs() <= SUM_TOLERANCE * a.abs().max(b.abs()))
    }

    /// One line of text that [`ClockSig::parse`] reads back exactly.
    pub fn to_line(&self) -> String {
        let sums: Vec<String> = self.summed.iter().map(|v| format!("{v:?}")).collect();
        format!("{:016x} {:016x} {}", self.exact, self.full, sums.join(" "))
    }

    pub fn parse(line: &str) -> Option<Self> {
        let mut fields = line.split_whitespace();
        let exact = u64::from_str_radix(fields.next()?, 16).ok()?;
        let full = u64::from_str_radix(fields.next()?, 16).ok()?;
        let summed = fields.map(|f| f.parse().ok()).collect::<Option<_>>()?;
        Some(ClockSig {
            exact,
            summed,
            full,
        })
    }
}

/// The first simulated clock seen for each key (the one batch of
/// `kitti-knn`, each frame of `nbody-drift`) and how often a repeat broke
/// or only reordered it.
#[derive(Debug, Default)]
pub struct ClockLog {
    first: Vec<Option<(ClockSig, f64)>>,
    /// Repeats that did not match their first execution.
    pub violations: u64,
    /// Repeats that matched but whose reordered sums differed in the last
    /// bits.
    pub sum_drift: u64,
}

impl ClockLog {
    pub fn new(keys: usize) -> Self {
        ClockLog {
            first: vec![None; keys],
            ..ClockLog::default()
        }
    }

    /// Record execution `res` under `key`; false if it broke the clock.
    pub fn record(&mut self, key: usize, res: &SearchResults) -> bool {
        let sig = ClockSig::new(res);
        match &self.first[key] {
            None => {
                self.first[key] = Some((sig, res.total_time_ms()));
                true
            }
            Some((first, _)) if !first.matches(&sig) => {
                self.violations += 1;
                false
            }
            Some((first, _)) => {
                if first.full != sig.full {
                    self.sum_drift += 1;
                }
                true
            }
        }
    }

    /// The first signature of every key seen, in key order.
    pub fn signatures(&self) -> Vec<ClockSig> {
        self.first
            .iter()
            .flatten()
            .map(|(s, _)| s.clone())
            .collect()
    }

    /// Mean simulated device ms over the keys seen (each key once).
    pub fn device_ms(&self) -> f64 {
        let ms: Vec<f64> = self.first.iter().flatten().map(|(_, ms)| *ms).collect();
        crate::stats::mean(&ms)
    }

    pub fn notes(&self, notes: &mut Vec<(&'static str, String)>) {
        notes.push(("exact_clock.violations", self.violations.to_string()));
        notes.push(("exact_clock.sum_drift", self.sum_drift.to_string()));
    }
}

/// Compare k-NN answers with the oracle index's: lists must be bit-equal.
/// Returns how many queries answered wrongly.
pub fn knn_mismatches(
    oracle: &mut Index<'_>,
    queries: &[Vec3],
    got: &[Vec<u32>],
    r: f32,
    k: usize,
) -> Result<usize, String> {
    let want = oracle
        .query(queries, &QueryPlan::knn(r, k))
        .map_err(|e| format!("oracle k-NN query failed: {e:?}"))?;
    Ok(want
        .neighbors
        .iter()
        .zip(got)
        .filter(|(w, g)| w != g)
        .count())
}

/// Check capped range answers: ids are distinct, each lies within `r` of
/// its query (the shader's strict `d² < r²` in `f32`) and in the oracle's
/// uncapped answer, and the count is `min(cap, oracle count)`. Returns how
/// many queries answered wrongly.
pub fn range_mismatches(
    oracle: &mut Index<'_>,
    queries: &[Vec3],
    got: &[Vec<u32>],
    r: f32,
    cap: usize,
) -> Result<usize, String> {
    let want = oracle
        .query(queries, &QueryPlan::range_unbounded(r))
        .map_err(|e| format!("oracle range query failed: {e:?}"))?;
    let points = oracle.points();
    let mut wrong = 0;
    for ((q, w), g) in queries.iter().zip(&want.neighbors).zip(got) {
        let mut ids = g.clone();
        ids.sort_unstable();
        ids.dedup();
        let mut all = w.clone();
        all.sort_unstable();
        let ok = ids.len() == g.len()
            && g.len() == cap.min(w.len())
            && ids.iter().all(|&id| {
                all.binary_search(&id).is_ok()
                    && points
                        .get(id as usize)
                        .is_some_and(|p| q.distance_squared(*p) < r * r)
            });
        if !ok {
            wrong += 1;
        }
    }
    Ok(wrong)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_signatures_round_trip_and_tolerate_only_reordered_sums() {
        let sig = ClockSig {
            exact: 7,
            summed: vec![99_664_361.2, 0.277],
            full: 9,
        };
        assert_eq!(ClockSig::parse(&sig.to_line()), Some(sig.clone()));
        let reordered = ClockSig {
            summed: vec![99_664_361.200_000_02, 0.277],
            full: 10,
            ..sig.clone()
        };
        assert!(sig.matches(&reordered));
        let changed = ClockSig {
            summed: vec![99_664_362.2, 0.277],
            ..sig.clone()
        };
        assert!(!sig.matches(&changed));
        assert!(!sig.matches(&ClockSig {
            exact: 8,
            ..sig.clone()
        }));
    }

    #[test]
    fn samples_are_distinct_sorted_and_in_range() {
        let picked = SplitMix::new(3).sample(100, 32);
        assert!(picked.len() <= 32 && !picked.is_empty());
        assert!(picked.windows(2).all(|w| w[0] < w[1]));
        assert!(picked.iter().all(|&i| i < 100));
        assert_eq!(picked, SplitMix::new(3).sample(100, 32));
    }
}
