//! The correctness gates every run passes through.
//!
//! Two kinds of failure: *counted* ones (an op the engine rejects, skips
//! or leaves unapplied, and a checkpoint below the declared floor) go
//! into the run's `failed` count against `attempted`; *fatal* ones (an
//! invalid final matching, a surviving short augmentation, a recovery
//! that is not bit-identical, a round or thread count that changes the
//! committed state) abort the run without metrics.

use wmatch_dynamic::DynamicCounters;
use wmatch_graph::aug_search::AugSearcher;
use wmatch_graph::{Edge, Graph, Matching};

/// A fatal check failure: the run prints no metrics and exits non-zero.
pub type Fatal = String;

/// What an engine has committed: matching weight, lifetime recourse,
/// and the sorted matching edges. Two digests are equal exactly when
/// the committed states are bit-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    /// Matching weight.
    pub weight: i128,
    /// `counters().recourse_total`.
    pub recourse_total: u64,
    /// Matching edges, sorted.
    pub edges: Vec<Edge>,
}

impl Digest {
    /// An empty digest whose edge buffer holds `cap` edges without
    /// reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        Digest {
            weight: 0,
            recourse_total: 0,
            edges: Vec::with_capacity(cap),
        }
    }

    /// Refills the digest from an engine's matching and counters,
    /// reusing the edge buffer.
    pub fn capture(&mut self, m: &Matching, counters: &DynamicCounters) {
        self.weight = m.weight();
        self.recourse_total = counters.recourse_total;
        self.edges.clear();
        self.edges.extend(m.iter());
        self.edges.sort_unstable_by_key(|e| (e.key(), e.weight));
    }
}

/// Checks that `after` equals `before`, naming `what` differed.
pub fn same_state(what: &str, before: &Digest, after: &Digest) -> Result<(), Fatal> {
    if before == after {
        return Ok(());
    }
    let first_diff = before
        .edges
        .iter()
        .zip(&after.edges)
        .position(|(a, b)| a != b)
        .unwrap_or(before.edges.len().min(after.edges.len()));
    Err(format!(
        "{what}: committed state differs (weight {} vs {}, recourse {} vs {}, {} vs {} edges, first differing edge #{first_diff})",
        before.weight,
        after.weight,
        before.recourse_total,
        after.recourse_total,
        before.edges.len(),
        after.edges.len()
    ))
}

/// Checks a recovery: matching edges and the full `counters()` must
/// both equal their values before the crash.
pub fn same_recovery(
    before: &Digest,
    before_counters: &DynamicCounters,
    after: &Digest,
    after_counters: &DynamicCounters,
) -> Result<(), Fatal> {
    same_state("recover", before, after)?;
    if before_counters != after_counters {
        return Err(format!(
            "recover: counters differ ({before_counters:?} vs {after_counters:?})"
        ));
    }
    Ok(())
}

/// The Fact 1.3 gate on a snapshot: the matching is valid against the
/// live graph and admits no positive augmentation of at most `max_len`
/// edges (the invariant the ½ floor rests on).
pub fn fact13(
    what: &str,
    g: &Graph,
    m: &Matching,
    max_len: usize,
    searcher: &mut AugSearcher,
) -> Result<(), Fatal> {
    m.validate(Some(g))
        .map_err(|e| format!("{what}: invalid matching: {e}"))?;
    if let Some(aug) = searcher.best_augmentation(g, m, max_len) {
        return Err(format!(
            "{what}: a positive augmentation of at most {max_len} edges survives (gain {})",
            aug.gain()
        ));
    }
    Ok(())
}

/// Checkpoint bookkeeping: the worst ratio seen and how many fell below
/// the declared floor.
#[derive(Debug, Clone, Copy)]
pub struct Checkpoints {
    /// The declared approximation floor.
    pub floor: f64,
    /// Checkpoints certified.
    pub count: u64,
    /// Checkpoints below the floor.
    pub below_floor: u64,
    /// Worst ratio seen (1.0 before any checkpoint).
    pub worst: f64,
}

impl Checkpoints {
    /// No checkpoints yet, against `floor`.
    pub fn new(floor: f64) -> Self {
        Checkpoints {
            floor,
            count: 0,
            below_floor: 0,
            worst: 1.0,
        }
    }

    /// Records one checkpoint's engine/optimum ratio.
    pub fn record(&mut self, ratio: f64) {
        self.count += 1;
        self.worst = self.worst.min(ratio);
        if ratio < self.floor - 1e-12 {
            self.below_floor += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmatch_dynamic::{DynamicConfig, DynamicMatcher, UpdateOp};

    #[test]
    fn a_below_floor_ratio_is_counted() {
        let mut ck = Checkpoints::new(0.5);
        ck.record(0.98);
        ck.record(0.5);
        assert_eq!(ck.below_floor, 0);
        ck.record(0.49);
        assert_eq!((ck.count, ck.below_floor), (3, 1));
        assert_eq!(ck.worst, 0.49);
    }

    #[test]
    fn a_changed_state_trips_the_digest_checks() {
        let mut eng = DynamicMatcher::new(4, DynamicConfig::default());
        eng.apply(UpdateOp::insert(0, 1, 5)).unwrap();
        let mut before = Digest::with_capacity(2);
        before.capture(eng.matching(), &eng.counters());
        let counters = eng.counters();
        assert!(same_recovery(&before, &counters, &before.clone(), &counters).is_ok());

        eng.apply(UpdateOp::insert(2, 3, 7)).unwrap();
        let mut after = Digest::with_capacity(2);
        after.capture(eng.matching(), &eng.counters());
        let err = same_recovery(&before, &counters, &after, &eng.counters()).unwrap_err();
        assert!(err.starts_with("recover"), "{err}");
        assert!(same_state("2t digest", &before, &after).is_err());

        // equal edges but different counters still trip
        let mut bumped = counters;
        bumped.augmentations_applied += 1;
        assert!(same_recovery(&before, &counters, &before.clone(), &bumped).is_err());
    }

    #[test]
    fn fact13_rejects_an_improvable_matching() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 2);
        g.add_edge(1, 2, 3);
        g.add_edge(2, 3, 2);
        let mut searcher = AugSearcher::new();
        let m = Matching::from_edges(4, [Edge::new(1, 2, 3)]).unwrap();
        let err = fact13("final", &g, &m, 3, &mut searcher).unwrap_err();
        assert!(err.contains("survives"), "{err}");
        let best = Matching::from_edges(4, [Edge::new(0, 1, 2), Edge::new(2, 3, 2)]).unwrap();
        assert!(fact13("final", &g, &best, 3, &mut searcher).is_ok());
        let stale = Matching::from_edges(4, [Edge::new(0, 3, 9)]).unwrap();
        assert!(fact13("final", &g, &stale, 3, &mut searcher)
            .unwrap_err()
            .contains("invalid"));
    }
}
