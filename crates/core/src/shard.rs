//! Shard layout and coverage accounting for sharded multi-pair queries.
//!
//! The execution layer (csj-shard + the engine) partitions a registry
//! into *shards* so one slow or poisoned community can only hurt its own
//! shard. Two pieces live here, in core, because both the engine and the
//! service reason about them:
//!
//! * [`plan_shards`] — the skew-aware layout. Placement is driven by
//!   **part-sum mass** (a community's aggregate counter footprint plus
//!   its row count), not by community count, so a few giant communities
//!   don't land on the same shard and serialize the tail (the LSF-Join
//!   observation: under skew, balanced *cardinality* is not balanced
//!   *work*).
//! * [`Coverage`] — the typed completeness report attached to partial
//!   results: how many shards resolved each way and how many work units
//!   (candidate communities, or candidate pairs for all-pairs sweeps)
//!   were actually screened. Shard failures degrade a query's
//!   *completeness*, never its correctness — `Coverage` is how callers
//!   see exactly how much completeness was lost.

use crate::community::Community;

/// Completeness report of a sharded multi-pair query. Attached to
/// `Partial` results, surfaced in `csj explain`, spans, and the
/// `csj_shard_*` metrics.
///
/// The shard counts satisfy the fate identity
/// `dispatched == completed + failed + cancelled` (checked by
/// [`Coverage::identity_holds`] and lint-checked in the invariant
/// suite, like the service's four fates). Each shard runs once, so a
/// failed shard's units stay unscreened: the loss shows here, and a
/// sweep's resume cursor points at it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Coverage {
    /// Shard tasks handed to the executor.
    pub dispatched: u64,
    /// Shards that returned a usable value.
    pub completed: u64,
    /// Shards lost to a panic or a worker death.
    pub failed: u64,
    /// Shards never started because the query was cancelled first.
    pub cancelled: u64,
    /// Work units (candidate communities, or pairs for all-pairs
    /// sweeps) actually screened across surviving shards.
    pub units_screened: u64,
    /// Work units never screened: members of failed/cancelled shards
    /// plus units a surviving shard skipped under budget pressure.
    pub units_skipped: u64,
}

impl Coverage {
    /// The shard-fate identity: every dispatched shard resolved to
    /// exactly one of completed / failed / cancelled.
    pub fn identity_holds(&self) -> bool {
        self.dispatched == self.completed + self.failed + self.cancelled
    }

    /// Whether any completeness was lost (a shard failed or was
    /// cancelled, or some unit went unscreened).
    pub fn is_partial(&self) -> bool {
        self.failed > 0 || self.cancelled > 0 || self.units_skipped > 0
    }

    /// Fraction of work units screened, in `[0, 1]`; 1.0 when there was
    /// nothing to do.
    pub fn unit_fraction(&self) -> f64 {
        let total = self.units_screened + self.units_skipped;
        if total == 0 {
            1.0
        } else {
            self.units_screened as f64 / total as f64
        }
    }
}

impl std::fmt::Display for Coverage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shards {}/{} completed ({} failed, {} cancelled), \
             units {}/{} screened",
            self.completed,
            self.dispatched,
            self.failed,
            self.cancelled,
            self.units_screened,
            self.units_screened + self.units_skipped,
        )
    }
}

/// The placement mass of one community: its part-sum footprint (sum of
/// all counters) plus its row count, plus one so even an all-zero
/// community carries weight. Join cost grows with both the row count
/// and the counter magnitudes that defeat MIN/MAX pruning, so this is
/// the skew signal the layout balances.
pub fn community_mass(c: &Community) -> u64 {
    let part_sum: u64 = c.dimension_totals().iter().sum();
    part_sum + c.len() as u64 + 1
}

/// A planned shard layout: `shards[s]` holds the *original indices* of
/// the items placed on shard `s`, each sorted ascending so every shard
/// processes its members in canonical input order (this is what makes
/// sharded results independent of shard count and dispatch order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLayout {
    /// Member indices per shard, each ascending.
    pub shards: Vec<Vec<usize>>,
    /// Total placed mass per shard (same length as `shards`).
    pub masses: Vec<u64>,
}

impl ShardLayout {
    /// Largest shard mass divided by the ideal (total/shards) — 1.0 is
    /// perfect balance. Diagnostic only.
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.masses.iter().sum();
        let max = self.masses.iter().copied().max().unwrap_or(0);
        if total == 0 || self.masses.is_empty() {
            return 1.0;
        }
        let ideal = total as f64 / self.masses.len() as f64;
        if ideal == 0.0 {
            1.0
        } else {
            max as f64 / ideal
        }
    }
}

/// Plan a size-balanced, skew-aware layout of `masses.len()` items onto
/// at most `shard_count` shards with the greedy LPT heuristic: place
/// heaviest-first onto the currently lightest shard. LPT is within 4/3
/// of the optimal makespan, which is all the balance the executor needs.
///
/// Deterministic: ties in mass break on the lower original index, ties
/// in shard load break on the lower shard id. Empty shards are dropped,
/// so every returned shard has at least one member (the returned layout
/// may have fewer shards than requested).
pub fn plan_shards(masses: &[u64], shard_count: usize) -> ShardLayout {
    let shard_count = shard_count.max(1).min(masses.len().max(1));
    let mut order: Vec<usize> = (0..masses.len()).collect();
    // Heaviest first; equal masses keep input order (sort is stable).
    order.sort_by(|&i, &j| masses[j].cmp(&masses[i]));
    let mut shards: Vec<Vec<usize>> = vec![Vec::new(); shard_count];
    let mut loads = vec![0u64; shard_count];
    for idx in order {
        let lightest = (0..shard_count)
            .min_by_key(|&s| (loads[s], s))
            .expect("at least one shard");
        shards[lightest].push(idx);
        loads[lightest] += masses[idx];
    }
    let mut kept: Vec<(Vec<usize>, u64)> = shards
        .into_iter()
        .zip(loads)
        .filter(|(members, _)| !members.is_empty())
        .collect();
    for (members, _) in &mut kept {
        members.sort_unstable();
    }
    let (shards, masses) = kept.into_iter().unzip();
    ShardLayout { shards, masses }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_partial_flags() {
        let full = Coverage {
            dispatched: 4,
            completed: 4,
            units_screened: 40,
            ..Coverage::default()
        };
        assert!(full.identity_holds());
        assert!(!full.is_partial());
        assert_eq!(full.unit_fraction(), 1.0);

        let lossy = Coverage {
            dispatched: 4,
            completed: 2,
            failed: 1,
            cancelled: 1,
            units_screened: 30,
            units_skipped: 10,
        };
        assert!(lossy.identity_holds());
        assert!(lossy.is_partial());
        assert!((lossy.unit_fraction() - 0.75).abs() < 1e-12);

        let broken = Coverage {
            dispatched: 4,
            completed: 2,
            ..Coverage::default()
        };
        assert!(!broken.identity_holds());
    }

    #[test]
    fn display_is_compact() {
        let c = Coverage {
            dispatched: 4,
            completed: 3,
            failed: 1,
            units_screened: 9,
            units_skipped: 3,
            ..Coverage::default()
        };
        let s = c.to_string();
        assert!(s.contains("3/4 completed"), "got: {s}");
        assert!(s.contains("9/12 screened"), "got: {s}");
    }

    #[test]
    fn mass_weights_counters_and_rows() {
        let mut heavy = Community::new("heavy", 2);
        heavy.push(1, &[100, 100]).unwrap();
        let mut wide = Community::new("wide", 2);
        for u in 0..10u64 {
            wide.push(u, &[1, 1]).unwrap();
        }
        assert_eq!(community_mass(&heavy), 200 + 1 + 1);
        assert_eq!(community_mass(&wide), 20 + 10 + 1);
        // An empty community still has nonzero mass.
        assert_eq!(community_mass(&Community::new("empty", 2)), 1);
    }

    #[test]
    fn giants_are_spread_apart() {
        // Two giants among eight midgets on four shards: LPT must not
        // co-locate the giants.
        let masses = [1000, 1000, 10, 10, 10, 10, 10, 10, 10, 10];
        let layout = plan_shards(&masses, 4);
        assert_eq!(layout.shards.len(), 4);
        let giant_shards: Vec<usize> = layout
            .shards
            .iter()
            .enumerate()
            .filter(|(_, m)| m.contains(&0) || m.contains(&1))
            .map(|(s, _)| s)
            .collect();
        assert_eq!(giant_shards.len(), 2, "giants on distinct shards");
        // Every item placed exactly once.
        let mut seen: Vec<usize> = layout.shards.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..masses.len()).collect::<Vec<_>>());
        // Mass-balanced, not count-balanced: giant shards hold 1 item.
        for s in &giant_shards {
            assert_eq!(layout.shards[*s].len(), 1);
        }
        // LPT is within 4/3 of the optimal makespan, which is bounded
        // below by both the heaviest item and the ideal average.
        let total: u64 = masses.iter().sum();
        let heaviest = *masses.iter().max().unwrap();
        let optimum = heaviest.max(total.div_ceil(4)) as f64;
        let max_load = *layout.masses.iter().max().unwrap() as f64;
        assert!(max_load <= optimum * 4.0 / 3.0 + 1e-9);
    }

    #[test]
    fn layout_is_deterministic_and_canonical() {
        let masses = [5, 5, 5, 5, 5, 5];
        let a = plan_shards(&masses, 3);
        let b = plan_shards(&masses, 3);
        assert_eq!(a, b);
        for members in &a.shards {
            let mut sorted = members.clone();
            sorted.sort_unstable();
            assert_eq!(*members, sorted, "members ascend");
        }
    }

    #[test]
    fn degenerate_shapes() {
        // More shards than items: empties dropped.
        let layout = plan_shards(&[7, 3], 8);
        assert_eq!(layout.shards.len(), 2);
        // Zero items: one empty layout, no panic.
        let empty = plan_shards(&[], 4);
        assert!(empty.shards.is_empty());
        assert_eq!(empty.imbalance(), 1.0);
        // One shard takes everything in input order.
        let one = plan_shards(&[1, 2, 3], 1);
        assert_eq!(one.shards, vec![vec![0, 1, 2]]);
        assert_eq!(one.masses, vec![6]);
    }
}
