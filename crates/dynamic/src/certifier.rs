//! The certifier hook: checkpoint re-certification of the dynamic
//! engines against the exact bipartite oracle.
//!
//! The engines maintain a Fact 1.3 `(1 − 1/ℓ)` matching under churn; the
//! repo's quality claims compare it against the exact optimum at
//! checkpoints. On bipartite workloads this used to mean a cold blossom
//! or Hungarian solve per checkpoint — now an
//! [`IncrementalCertifier`](wmatch_oracle::IncrementalCertifier) rides the
//! stream and each checkpoint is a warm dual-repair re-solve from the
//! previous optimum, so checking every 1k ops costs what every 5k ops
//! used to. Every engine gets the hook from one provided method,
//! [`UpdateEngine::certify_checkpoint`](crate::UpdateEngine::certify_checkpoint),
//! which flushes any deferred repairs before it measures.

/// One checkpoint's verdict: the engine's maintained matching measured
/// against the exact, certificate-checked optimum.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct CheckpointCertificate {
    /// Exact maximum matching weight of the live graph (`Σ` dual labels,
    /// complementary slackness verified in-code by the oracle).
    pub optimum: i128,
    /// The engine's maintained matching weight at the checkpoint.
    pub engine_weight: i128,
    /// `engine_weight / optimum` (1.0 when the optimum is 0).
    pub ratio: f64,
}

#[cfg(test)]
mod tests {
    use wmatch_oracle::IncrementalCertifier;

    use crate::engine::{DynamicConfig, DynamicMatcher, RepairPolicy, UpdateEngine};
    use crate::update::UpdateOp;
    use crate::{RandomWalkConfig, RandomWalkMatcher, ShardedMatcher};

    #[test]
    fn checkpoint_ratio_respects_the_floor() {
        let mut eng = DynamicMatcher::new(4, DynamicConfig::default());
        // bipartite sides {0, 1} / {2, 3}
        let side = vec![false, false, true, true];
        let mut cert = IncrementalCertifier::new(side);
        eng.apply(UpdateOp::insert(0, 2, 5)).unwrap();
        eng.apply(UpdateOp::insert(1, 3, 7)).unwrap();
        let ck = eng.certify_checkpoint(&mut cert).unwrap();
        assert_eq!(ck.optimum, 12);
        assert!(ck.ratio >= 0.5 - 1e-9);

        eng.apply(UpdateOp::delete(1, 3)).unwrap();
        let ck = eng.certify_checkpoint(&mut cert).unwrap();
        assert_eq!(ck.optimum, 5);
        assert_eq!(cert.stats().warm_checkpoints, 1);
    }

    #[test]
    fn deferred_engines_flush_before_certifying() {
        // bipartite sides {0, 1} / {2, 3}
        let side = vec![false, false, true, true];
        let ops = [UpdateOp::insert(0, 2, 5), UpdateOp::insert(1, 3, 7)];

        // the window policy defers both repairs; the checkpoint must not
        // measure the unrepaired (empty) matching against the optimum
        let mut stale =
            DynamicMatcher::new(4, DynamicConfig::default()).with_policy(RepairPolicy::Window(10));
        let mut cert = IncrementalCertifier::new(side.clone());
        for &op in &ops {
            stale.apply(op).unwrap();
        }
        assert_eq!(stale.matching().weight(), 0, "both repairs deferred");
        let ck = stale.certify_checkpoint(&mut cert).unwrap();
        assert_eq!(ck.optimum, 12);
        assert_eq!(ck.engine_weight, 12, "checkpoint flushed first");
        assert!(ck.ratio >= 0.5 - 1e-9);

        let mut lazy =
            DynamicMatcher::new(4, DynamicConfig::default()).with_policy(RepairPolicy::Budget(1));
        let mut cert = IncrementalCertifier::new(side.clone());
        for &op in &ops {
            lazy.apply(op).unwrap();
        }
        let ck = lazy.certify_checkpoint(&mut cert).unwrap();
        assert_eq!(ck.optimum, 12);
        assert!(ck.ratio >= 0.5 - 1e-9);

        let mut walk = RandomWalkMatcher::new(4, RandomWalkConfig::default());
        let mut cert = IncrementalCertifier::new(side);
        for &op in &ops {
            walk.apply(op).unwrap();
        }
        let ck = walk.certify_checkpoint(&mut cert).unwrap();
        assert_eq!(ck.optimum, 12);
        assert!(ck.ratio >= 0.5 - 1e-9);
    }

    #[test]
    fn sharded_checkpoint_flushes_deferred_repairs() {
        // degraded-mode ingest defers both repairs; the checkpoint must
        // flush them rather than measure the empty matching
        let mut eng = ShardedMatcher::new(4, DynamicConfig::default(), 1);
        let mut cert = IncrementalCertifier::new(vec![false, false, true, true]);
        eng.apply_deferred(&[UpdateOp::insert(0, 2, 5), UpdateOp::insert(1, 3, 7)])
            .unwrap();
        assert_eq!(eng.matching().weight(), 0, "both repairs deferred");
        let ck = eng.certify_checkpoint(&mut cert).unwrap();
        assert_eq!(ck.optimum, 12);
        assert_eq!(ck.engine_weight, 12, "checkpoint flushed first");
        assert_eq!(eng.deferred_repairs(), 0);
    }
}
