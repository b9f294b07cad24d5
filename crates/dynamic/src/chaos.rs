//! Deterministic, seed-keyed fault injection for the dynamic engines.
//!
//! A [`ChaosInjector`] is installed on an engine (test and chaos-bench
//! builds only — production engines carry `None`) and decides, purely as
//! a function of its seed and a per-site stream index, when to inject
//! each fault class:
//!
//! * **Poisoned ops** — a well-formed update is replaced by a malformed
//!   one (out-of-range endpoint, zero weight, self-loop delete, delete of
//!   a never-inserted edge). The engine must reject it with a typed
//!   error and stay bit-identical to the run that never saw it.
//! * **Bit flips** — after a batch commits, one shard's matching entry
//!   is corrupted (its stored weight no longer matches any live edge).
//!   The invariant sentinel must catch it, quarantine the shard, and
//!   heal (WAL recovery or a warm rebuild epoch) instead of serving
//!   garbage.
//!
//! Every decision is keyed by `(seed, stream index)` through a splitmix
//! hash — never by call order, wall clock, or thread interleaving — so a
//! chaos run is exactly reproducible and a test can predict which ops a
//! twin injector will poison ([`ChaosInjector::would_poison`]).

use crate::dyngraph::DynGraph;
use crate::update::UpdateOp;
use wmatch_graph::Vertex;

/// Finalizer of splitmix64: the workspace's standard cheap mixer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `true` roughly once per `every` indices, deterministically in the
/// hash `h` (`every = 0` disables the site).
fn due(every: u64, h: u64) -> bool {
    every > 0 && h.is_multiple_of(every)
}

/// Per-site salts so the fault classes draw independent streams from one
/// seed.
const SALT_POISON: u64 = 0x706f_6973;
const SALT_FLIP: u64 = 0x666c_6970;

/// Cadences of the fault injector. All fault classes default to **off**
/// (`0`); the sentinel spot-check defaults to every batch.
///
/// Follows the workspace's config idiom: `Default` + chainable `with_*`
/// setters, `#[non_exhaustive]` so fields can grow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ChaosConfig {
    /// Seed of every injection decision.
    pub seed: u64,
    /// Poison roughly one in this many ops (0 = never).
    pub poison_every: u64,
    /// Corrupt a matching entry after roughly one in this many batches
    /// (0 = never).
    pub bitflip_every: u64,
    /// Run the invariant sentinel before every this-many-th batch
    /// (0 = never, 1 = every batch).
    pub sentinel_every: u64,
}

impl Default for ChaosConfig {
    /// Seed 0, all fault classes off, sentinel every batch.
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            poison_every: 0,
            bitflip_every: 0,
            sentinel_every: 1,
        }
    }
}

impl ChaosConfig {
    /// The default configuration (no faults, sentinel every batch).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the injection seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the op-poisoning cadence (0 = never).
    pub fn with_poison_every(mut self, poison_every: u64) -> Self {
        self.poison_every = poison_every;
        self
    }

    /// Sets the matching-corruption cadence in batches (0 = never).
    pub fn with_bitflip_every(mut self, bitflip_every: u64) -> Self {
        self.bitflip_every = bitflip_every;
        self
    }

    /// Sets the sentinel cadence in batches (0 = never, 1 = every batch).
    pub fn with_sentinel_every(mut self, sentinel_every: u64) -> Self {
        self.sentinel_every = sentinel_every;
        self
    }
}

/// What the injector has done so far — and what the recovery machinery
/// did about it. The first two are written by the injector itself; the
/// last two by the sentinel when it catches the damage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ChaosCounters {
    /// Ops replaced by malformed ones.
    pub poisoned_ops: u64,
    /// Matching entries corrupted after a commit.
    pub bit_flips: u64,
    /// Sentinel spot-checks that found a violated invariant.
    pub sentinel_trips: u64,
    /// Shards quarantined and healed after a sentinel trip.
    pub quarantines: u64,
}

impl ChaosCounters {
    /// Total faults injected across all classes (poison + flip) — the
    /// `faults_injected` telemetry the chaos tests assert on.
    pub fn faults_injected(&self) -> u64 {
        self.poisoned_ops + self.bit_flips
    }
}

/// The deterministic fault injector. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct ChaosInjector {
    cfg: ChaosConfig,
    /// Global op index — the poison-decision key.
    ops_seen: u64,
    /// Global batch index — the flip/sentinel-decision key.
    batches_seen: u64,
    /// Fault and recovery telemetry.
    pub counters: ChaosCounters,
}

impl ChaosInjector {
    /// An injector with the given cadences.
    pub fn new(cfg: ChaosConfig) -> Self {
        ChaosInjector {
            cfg,
            ops_seen: 0,
            batches_seen: 0,
            counters: ChaosCounters::default(),
        }
    }

    /// The injector's configuration.
    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }

    /// Whether the op at global stream index `index` gets poisoned —
    /// a pure function of the seed, so a twin injector (same config)
    /// predicts exactly which ops the engine's injector will replace.
    pub fn would_poison(&self, index: u64) -> bool {
        due(
            self.cfg.poison_every,
            mix(self.cfg.seed ^ SALT_POISON ^ index),
        )
    }

    /// Advances the op stream and, when the poison cadence fires,
    /// returns the malformed op to apply *instead of* `op`. The shape
    /// rotates through the malformed-op taxonomy: out-of-range endpoint,
    /// zero-weight insert, self-loop delete, and never-inserted delete
    /// (skipped — falling back to out-of-range — if the hash-chosen pair
    /// happens to have a live copy, so every poisoned op is *guaranteed*
    /// to be rejected).
    pub fn poison_op(&mut self, g: &DynGraph, op: UpdateOp) -> Option<UpdateOp> {
        let i = self.ops_seen;
        self.ops_seen += 1;
        if !self.would_poison(i) {
            return None;
        }
        let h = mix(self.cfg.seed ^ SALT_POISON ^ i ^ 0xbad);
        let n = g.vertex_count();
        let (u, v) = op.endpoints();
        let bad = match h % 4 {
            0 => UpdateOp::insert(n as Vertex, v, 1),
            1 => UpdateOp::insert(u, v, 0),
            2 => UpdateOp::delete(u, u),
            _ => {
                let a = (h >> 8) % n.max(1) as u64;
                let b = (a + 1) % n.max(1) as u64;
                let (a, b) = (a as Vertex, b as Vertex);
                if n >= 2 && !g.incident(a).any(|e| e.touches(b)) {
                    UpdateOp::delete(a, b)
                } else {
                    UpdateOp::delete(u, n as Vertex)
                }
            }
        };
        self.counters.poisoned_ops += 1;
        Some(bad)
    }

    /// Advances the batch stream; call exactly once per engine batch,
    /// *before* the flip/sentinel queries for that batch.
    pub fn begin_batch(&mut self) {
        self.batches_seen += 1;
    }

    /// The victim index (into a list of `candidates` matched vertices)
    /// whose matching entry gets bit-flipped after the current batch
    /// commits, if the corruption cadence fires.
    pub fn bitflip_victim(&mut self, candidates: usize) -> Option<usize> {
        let b = self.batches_seen;
        let h = mix(self.cfg.seed ^ SALT_FLIP ^ b);
        if candidates == 0 || !due(self.cfg.bitflip_every, h) {
            return None;
        }
        self.counters.bit_flips += 1;
        Some((mix(h) % candidates as u64) as usize)
    }

    /// Whether the sentinel spot-check runs before the *next* batch.
    pub fn sentinel_due(&self) -> bool {
        self.cfg.sentinel_every > 0
            && (self.batches_seen + 1).is_multiple_of(self.cfg.sentinel_every)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_seed_keyed_not_order_keyed() {
        let cfg = ChaosConfig::new().with_poison_every(3).with_seed(42);
        let g = DynGraph::new(8);
        let mut a = ChaosInjector::new(cfg);
        let b = ChaosInjector::new(cfg);
        let op = UpdateOp::insert(0, 1, 5);
        let pa: Vec<bool> = (0..64).map(|_| a.poison_op(&g, op).is_some()).collect();
        let pb: Vec<bool> = (0..64).map(|i| b.would_poison(i)).collect();
        assert_eq!(pa, pb, "poison_op and would_poison agree per index");
        assert!(pa.iter().any(|&x| x), "cadence 3 fires within 64 ops");
        assert!(!pa.iter().all(|&x| x), "cadence 3 is not every op");
        assert_eq!(
            a.counters.poisoned_ops,
            pa.iter().filter(|&&x| x).count() as u64
        );
    }

    #[test]
    fn poisoned_ops_are_always_malformed() {
        // against a clique-ish live graph every rotation must still
        // produce an op the engine rejects
        let mut g = DynGraph::new(6);
        for u in 0..5u32 {
            for v in (u + 1)..6u32 {
                g.insert(u, v, 3).unwrap();
            }
        }
        let cfg = ChaosConfig::new().with_poison_every(1).with_seed(7);
        let mut inj = ChaosInjector::new(cfg);
        for i in 0..40u32 {
            let op = UpdateOp::insert(i % 6, (i + 1) % 6, 4);
            let bad = inj.poison_op(&g, op).expect("cadence 1 poisons every op");
            let malformed = match bad {
                UpdateOp::Insert { u, v, weight } => {
                    (u as usize) >= 6 || (v as usize) >= 6 || weight == 0
                }
                UpdateOp::Delete { u, v } => {
                    (u as usize) >= 6
                        || (v as usize) >= 6
                        || u == v
                        || !g.incident(u).any(|e| e.touches(v))
                }
            };
            assert!(malformed, "op {i}: {bad} must be rejectable");
        }
    }

    #[test]
    fn batch_faults_fire_on_cadence() {
        let cfg = ChaosConfig::new().with_bitflip_every(3).with_seed(9);
        let mut inj = ChaosInjector::new(cfg);
        let mut flips = 0;
        for _ in 0..60 {
            inj.begin_batch();
            if let Some(vi) = inj.bitflip_victim(7) {
                assert!(vi < 7);
                flips += 1;
            }
        }
        assert!(flips > 0 && flips < 60, "flip cadence 3: got {flips}");
        assert_eq!(inj.counters.bit_flips, flips);
        assert_eq!(inj.counters.faults_injected(), flips);
    }

    #[test]
    fn zero_cadences_inject_nothing() {
        let g = DynGraph::new(4);
        let mut inj = ChaosInjector::new(ChaosConfig::default());
        for i in 0..32 {
            assert!(inj.poison_op(&g, UpdateOp::insert(0, 1, 1)).is_none());
            inj.begin_batch();
            assert!(inj.bitflip_victim(4).is_none());
            assert!(inj.sentinel_due(), "default sentinel cadence is 1");
            let _ = i;
        }
        assert_eq!(inj.counters.faults_injected(), 0);
    }
}
