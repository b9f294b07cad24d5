//! The uniform request contract: one validated parameter set that every
//! solver maps onto its own configuration.

use wmatch_graph::Matching;

use crate::error::SolveError;

/// Upper bound on [`SolveRequest::threads`]; larger values are rejected as
/// configuration errors rather than spawning an absurd worker pool.
/// `0` is *not* a count — it is the documented "one worker per available
/// core" sentinel shared with `MainAlgConfig::threads` in `wmatch-core`
/// and resolved by `wmatch_graph::pool::resolve_threads`.
pub const MAX_THREADS: usize = 1024;

/// Upper bound on the round and pass budgets; beyond this the budgets stop
/// being budgets.
pub const MAX_BUDGET: usize = 1_000_000;

/// Upper bound on [`SolveRequest::aug_depth`]: the repair search of the
/// dynamic solvers is exponential in the depth, so anything beyond this is
/// a configuration mistake, not a request.
pub const MAX_AUG_DEPTH: usize = 9;

/// Upper bound on [`SolveRequest::walk_len`]: the random-walk repair
/// engine's per-trial step cap. The walk's quality comes from its
/// dominance settle, not from walk length, so anything beyond this only
/// burns time.
pub const MAX_WALK_LEN: usize = 64;

/// How much work an approximate solver should invest beyond its defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Cheapest configuration that still meets the declared floor.
    Quick,
    /// The `practical` defaults of each algorithm (the tested sweet spot).
    Standard,
    /// Finer granularity and more trials (the `thorough` configurations).
    Thorough,
}

/// A validated solve request.
///
/// Build one with [`SolveRequest::new`] and the chainable `with_*`
/// setters; [`SolveRequest::validate`] (called by every solver on entry)
/// rejects out-of-range parameters with
/// [`SolveError::InvalidConfig`] instead of panicking deep inside the
/// algorithms.
///
/// # Example
///
/// ```
/// use wmatch_api::SolveRequest;
///
/// let req = SolveRequest::new().with_eps(0.2).with_seed(7).with_certify(true);
/// assert!(req.validate().is_ok());
/// assert!(SolveRequest::new().with_eps(0.0).validate().is_err());
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SolveRequest {
    /// Target approximation slack ε, strictly inside (0, 1). Approximate
    /// solvers derive their granularity/δ parameters from it.
    pub eps: f64,
    /// RNG seed for every randomized choice inside the solver.
    pub seed: u64,
    /// Maximum outer rounds (Algorithm 3 rounds, coreset iterations);
    /// must be ≥ 1.
    pub round_budget: usize,
    /// Maximum stream passes per unweighted black-box invocation (and the
    /// MPC analogue, coreset iterations per box); must be ≥ 1.
    pub pass_budget: usize,
    /// Worker threads for solvers with parallel layers (the Algorithm 3
    /// class sweep, Algorithm 4 candidate scoring, the MPC simulator's
    /// machine rounds): `1` = sequential, `0` = one worker per available
    /// core, at most [`MAX_THREADS`]. This is the same contract as
    /// `MainAlgConfig::threads` in `wmatch-core` (requests map onto it
    /// verbatim) and is resolved to a concrete count by
    /// `wmatch_graph::pool::resolve_threads`. The determinism invariant
    /// holds for every value: with a fixed [`SolveRequest::seed`], the
    /// returned matching is bit-identical for any `threads`. The dynamic
    /// solvers accept it but have no parallel layer.
    pub threads: usize,
    /// Maximum edges per repair augmentation for the dynamic solvers
    /// (their bounded-depth search; must lie in `1..=`[`MAX_AUG_DEPTH`]).
    /// With `aug_depth = 2ℓ − 1` the maintained matching certifies a
    /// `(1 − 1/ℓ)` approximation after every update (Fact 1.3); the
    /// default 3 backs the dynamic solvers' declared ½ floor. Ignored by
    /// non-dynamic solvers.
    pub aug_depth: usize,
    /// Vertex-partitioned shards for the `dynamic-sharded` solver: `1` =
    /// a single shard, `0` = one shard per available core, at most
    /// [`MAX_THREADS`]. The sharded engine's determinism contract mirrors
    /// `threads`: the committed matching is bit-identical to the
    /// single-shard engine for every shard count. Ignored by non-sharded
    /// solvers.
    pub shards: usize,
    /// Maximum steps per repair walk of the `dynamic-randomwalk` solver
    /// (must lie in `1..=`[`MAX_WALK_LEN`]). Longer walks can discover
    /// longer augmenting swaps but cost proportionally more per trial; the
    /// solver's ½ floor does not depend on it (it comes from the local-
    /// dominance settle after every update). Ignored by other solvers.
    pub walk_len: usize,
    /// Augmentations allowed per update for the `dynamic-lazy` solver
    /// (must lie in `1..=`[`MAX_BUDGET`]). When a single update needs more
    /// repair work than the budget allows, the leftover dirty region is
    /// carried into subsequent updates and settled by the end-of-stream
    /// flush. Ignored by other solvers.
    pub work_budget: usize,
    /// Deferred updates per batched repair of the `dynamic-stale` solver
    /// (must lie in `1..=`[`MAX_BUDGET`]; 1 repairs after every op like
    /// the eager engine). Between flushes the maintained matching is valid
    /// but uncertified — the Fact 1.3 floor holds at flush boundaries.
    /// Ignored by other solvers.
    pub staleness_bound: usize,
    /// Effort level for approximate solvers.
    pub effort: Effort,
    /// When set, the report carries an approximation
    /// [`Certificate`](crate::Certificate) computed against the exact
    /// oracle for the solver's objective (O(V³) — intended for tests and
    /// experiments, not hot paths).
    pub certify: bool,
    /// Optional warm-start matching for solvers that support improving an
    /// existing matching (Theorem 4.1 improves *any* matching).
    pub warm_start: Option<Matching>,
}

impl Default for SolveRequest {
    fn default() -> Self {
        SolveRequest {
            eps: 0.25,
            seed: 0,
            round_budget: 40,
            pass_budget: 8,
            threads: 1,
            aug_depth: 3,
            shards: 1,
            walk_len: 8,
            work_budget: 4,
            staleness_bound: 64,
            effort: Effort::Standard,
            certify: false,
            warm_start: None,
        }
    }
}

impl SolveRequest {
    /// The default request: ε = 0.25, seed 0, 40 rounds, 8 passes,
    /// sequential, standard effort, no certification.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the target slack ε (validated to lie strictly in (0, 1)).
    pub fn with_eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the outer round budget (validated ≥ 1).
    pub fn with_round_budget(mut self, round_budget: usize) -> Self {
        self.round_budget = round_budget;
        self
    }

    /// Sets the per-box pass budget (validated ≥ 1).
    pub fn with_pass_budget(mut self, pass_budget: usize) -> Self {
        self.pass_budget = pass_budget;
        self
    }

    /// Sets the worker-thread count (0 = one per available core,
    /// validated ≤ [`MAX_THREADS`]; see [`SolveRequest::threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The concrete worker count this request resolves to: `threads`
    /// itself, or the number of available cores when `threads == 0` —
    /// exactly what the solvers' worker pools will run with.
    ///
    /// # Example
    ///
    /// ```
    /// use wmatch_api::SolveRequest;
    ///
    /// assert_eq!(SolveRequest::new().with_threads(4).resolved_threads(), 4);
    /// assert!(SolveRequest::new().with_threads(0).resolved_threads() >= 1);
    /// ```
    pub fn resolved_threads(&self) -> usize {
        wmatch_graph::pool::resolve_threads(self.threads)
    }

    /// Sets the dynamic solvers' repair-augmentation depth (validated in
    /// `1..=`[`MAX_AUG_DEPTH`]; see [`SolveRequest::aug_depth`]).
    pub fn with_aug_depth(mut self, aug_depth: usize) -> Self {
        self.aug_depth = aug_depth;
        self
    }

    /// Sets the shard count for the sharded dynamic engine (0 = one per
    /// available core, validated ≤ [`MAX_THREADS`]; see
    /// [`SolveRequest::shards`]).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the random-walk solver's steps-per-walk cap (validated in
    /// `1..=`[`MAX_WALK_LEN`]; see [`SolveRequest::walk_len`]).
    pub fn with_walk_len(mut self, walk_len: usize) -> Self {
        self.walk_len = walk_len;
        self
    }

    /// Sets the lazy solver's augmentations-per-update budget (validated
    /// in `1..=`[`MAX_BUDGET`]; see [`SolveRequest::work_budget`]).
    pub fn with_work_budget(mut self, work_budget: usize) -> Self {
        self.work_budget = work_budget;
        self
    }

    /// Sets the stale solver's deferred-updates-per-flush bound (validated
    /// in `1..=`[`MAX_BUDGET`]; see [`SolveRequest::staleness_bound`]).
    pub fn with_staleness_bound(mut self, staleness_bound: usize) -> Self {
        self.staleness_bound = staleness_bound;
        self
    }

    /// Sets the effort level.
    pub fn with_effort(mut self, effort: Effort) -> Self {
        self.effort = effort;
        self
    }

    /// Enables or disables the approximation certificate.
    pub fn with_certify(mut self, certify: bool) -> Self {
        self.certify = certify;
        self
    }

    /// Sets a warm-start matching.
    pub fn with_warm_start(mut self, warm_start: Matching) -> Self {
        self.warm_start = Some(warm_start);
        self
    }

    /// Checks every parameter against its valid range.
    ///
    /// # Errors
    ///
    /// [`SolveError::InvalidConfig`] naming the first offending field.
    pub fn validate(&self) -> Result<(), SolveError> {
        if !self.eps.is_finite() || self.eps <= 0.0 || self.eps >= 1.0 {
            return Err(SolveError::InvalidConfig {
                field: "eps",
                reason: format!("must lie strictly in (0, 1), got {}", self.eps),
            });
        }
        if self.round_budget == 0 {
            return Err(SolveError::InvalidConfig {
                field: "round_budget",
                reason: "must be at least 1".into(),
            });
        }
        if self.round_budget > MAX_BUDGET {
            return Err(SolveError::InvalidConfig {
                field: "round_budget",
                reason: format!("must be at most {MAX_BUDGET}, got {}", self.round_budget),
            });
        }
        if self.pass_budget == 0 {
            return Err(SolveError::InvalidConfig {
                field: "pass_budget",
                reason: "must be at least 1".into(),
            });
        }
        if self.pass_budget > MAX_BUDGET {
            return Err(SolveError::InvalidConfig {
                field: "pass_budget",
                reason: format!("must be at most {MAX_BUDGET}, got {}", self.pass_budget),
            });
        }
        if self.threads > MAX_THREADS {
            return Err(SolveError::InvalidConfig {
                field: "threads",
                reason: format!(
                    "must be at most {MAX_THREADS} (0 = one per available core), got {}",
                    self.threads
                ),
            });
        }
        if self.aug_depth == 0 || self.aug_depth > MAX_AUG_DEPTH {
            return Err(SolveError::InvalidConfig {
                field: "aug_depth",
                reason: format!(
                    "must lie in 1..={MAX_AUG_DEPTH} (the repair search is exponential in it), \
                     got {}",
                    self.aug_depth
                ),
            });
        }
        if self.shards > MAX_THREADS {
            return Err(SolveError::InvalidConfig {
                field: "shards",
                reason: format!(
                    "must be at most {MAX_THREADS} (0 = one per available core), got {}",
                    self.shards
                ),
            });
        }
        if self.walk_len == 0 || self.walk_len > MAX_WALK_LEN {
            return Err(SolveError::InvalidConfig {
                field: "walk_len",
                reason: format!("must lie in 1..={MAX_WALK_LEN}, got {}", self.walk_len),
            });
        }
        if self.work_budget == 0 || self.work_budget > MAX_BUDGET {
            return Err(SolveError::InvalidConfig {
                field: "work_budget",
                reason: format!("must lie in 1..={MAX_BUDGET}, got {}", self.work_budget),
            });
        }
        if self.staleness_bound == 0 || self.staleness_bound > MAX_BUDGET {
            return Err(SolveError::InvalidConfig {
                field: "staleness_bound",
                reason: format!(
                    "must lie in 1..={MAX_BUDGET} (1 = repair after every op), got {}",
                    self.staleness_bound
                ),
            });
        }
        Ok(())
    }
}
