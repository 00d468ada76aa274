//! Host wall figures taken while the machine was quiet.
//!
//! The benchmark shares a two-vCPU virtual machine with other tenants.
//! While the hypervisor steals CPU time, host wall grows by two to three
//! times the stolen share, and sets of runs a few minutes apart differ by
//! more than any regression bound (op_ms_p50 of one seed set spread 0.35
//! of its median through a 26% steal burst). The end-to-end host-wall
//! metrics therefore use the set-ups and operations during which at most
//! [`QUIET_STEAL_PCT`] of the machine's CPU time was stolen; when fewer
//! than [`MIN_SHARE`] of them qualify, the quietest [`MIN_SHARE`] are used
//! instead. The diagnostics keep the unfiltered figures beside the
//! filtered ones.

use crate::host::{steal_pct_between, StealSample};
use std::time::Instant;

/// Most steal, in % of the machine's CPU time, around a quiet item.
pub const QUIET_STEAL_PCT: f64 = 5.0;
/// Least share of the items that is kept.
pub const MIN_SHARE: f64 = 0.25;

pub fn ms(span: &(Instant, Instant)) -> f64 {
    span.1.duration_since(span.0).as_secs_f64() * 1e3
}

/// The items whose steal is at most [`QUIET_STEAL_PCT`], or the quietest
/// [`MIN_SHARE`] of them when too few are.
fn quietest<T: Copy>(items: &[(T, f64)]) -> Vec<T> {
    let keep = (MIN_SHARE * items.len() as f64).ceil() as usize;
    let quiet: Vec<T> = items
        .iter()
        .filter(|(_, steal)| *steal <= QUIET_STEAL_PCT)
        .map(|(item, _)| *item)
        .collect();
    if quiet.len() >= keep {
        return quiet;
    }
    let mut by_steal = items.to_vec();
    by_steal.sort_by(|a, b| a.1.total_cmp(&b.1));
    by_steal
        .into_iter()
        .take(keep)
        .map(|(item, _)| item)
        .collect()
}

/// Host wall figures of one run, over its quiet part.
#[derive(Debug, Default)]
pub struct Quiet {
    pub setup_s: Vec<f64>,
    pub op_ms: Vec<f64>,
    /// Operations completed per second: the kept gaps between consecutive
    /// completions, each gap judged by the steal around the operation that
    /// ended it.
    pub req_per_s: f64,
    /// Share of the operations kept.
    pub op_share: f64,
}

/// Select the quiet set-ups and operations, given the machine's steal
/// counters sampled through the run.
pub fn select(
    setups: &[(Instant, Instant)],
    ops: &[(Instant, Instant)],
    samples: &[StealSample],
) -> Quiet {
    let steal = |&(a, b): &(Instant, Instant)| steal_pct_between(samples, a, b);
    let setups: Vec<_> = setups.iter().map(|s| (ms(s) / 1e3, steal(s))).collect();
    let ops: Vec<_> = ops.iter().map(|o| (*o, steal(o))).collect();
    let kept_ops = quietest(&ops);

    let mut by_end = ops.clone();
    by_end.sort_by_key(|(o, _)| o.1);
    let gaps: Vec<(f64, f64)> = by_end
        .windows(2)
        .map(|w| (ms(&(w[0].0 .1, w[1].0 .1)), w[1].1))
        .collect();
    let kept_gaps = quietest(&gaps);
    let gap_ms: f64 = kept_gaps.iter().sum();
    Quiet {
        setup_s: quietest(&setups),
        op_ms: kept_ops.iter().map(ms).collect(),
        req_per_s: if gap_ms > 0.0 {
            1e3 * kept_gaps.len() as f64 / gap_ms
        } else {
            0.0
        },
        op_share: kept_ops.len() as f64 / ops.len().max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_quiet_items_or_the_quietest_quarter() {
        let items: Vec<(u32, f64)> = (0..8)
            .map(|i| (i, if i < 3 { 1.0 } else { 20.0 }))
            .collect();
        assert_eq!(quietest(&items), vec![0, 1, 2]);
        let noisy: Vec<(u32, f64)> = (0..8).map(|i| (i, 30.0 - i as f64)).collect();
        assert_eq!(quietest(&noisy), vec![7, 6]);
    }
}
