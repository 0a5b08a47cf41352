//! The engine proper: registry, cache, screening pipeline, queries.
//!
//! The cache holds, per oriented community pair, the screen score and
//! the exact score, each kept until either community changes; a cached
//! score is served without a join.
//!
//! Every query is a [`Query`] answered by [`CsjEngine::query`]: one
//! pair's similarity, the top-k of one community, or the broadcast
//! sweep. The multi-pair kinds split their work units into
//! mass-balanced shards on the supervised [`ShardExecutor`] and merge
//! them back in canonical order. A [`Budget`] bounds the work, and a
//! query that runs out *degrades gracefully*: it returns a [`Partial`]
//! with everything scored before the budget ran out, plus the shards'
//! [`Coverage`], instead of an error. Joins are panic-isolated per
//! candidate: one poisoned community is dropped from a ranking, or
//! listed in [`PairsSweep::failed`], while the rest of the query
//! completes normally.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use csj_core::plan::{Exactness, PlanInput, QueryPlan};
use csj_core::{
    community_mass, panic_message, plan_shards, run_prepared, Community, Coverage, CsjError,
    CsjMethod, CsjOptions, JoinOutcome, JoinTelemetry, PreparedCommunity, ShardLayout, Similarity,
    UserId,
};
use csj_obs::{ForensicRecord, MetricsSnapshot, QueryTrace};
use csj_shard::{ShardConfig, ShardExecutor, ShardOutcome};

use crate::budget::{exhausted_marker, Budget, BudgetExhausted, ExhaustReason, Partial};
use crate::error::EngineError;
use crate::fault::FaultPlan;
use crate::obs::{outcome_label, EngineObs, ObsConfig, QueryKind, QueryRecorder};

/// [`Registered::mass`] before it is computed (a real mass is far
/// smaller: counters are `u32` and communities fit in memory).
const STALE_MASS: u64 = u64::MAX;

/// Stable handle to a registered community.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CommunityHandle(pub u32);

/// Engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// The CSJ options every join runs with (eps, matcher, encoding...).
    pub options: CsjOptions,
    /// Method used for the fast screening phase (Section 3 prescribes an
    /// approximate method here).
    pub screen_method: CsjMethod,
    /// Method used for precise refinement (an exact method).
    pub refine_method: CsjMethod,
    /// Pairs whose *screened* similarity falls below this ratio are not
    /// refined (the paper's "similar-enough group" cut).
    pub screen_threshold: f64,
    /// Worker threads for multi-pair queries: the shard executor's pool
    /// size, and the only parallelism a query has (shards fan out
    /// across pairs; every join runs single-threaded). Every query uses
    /// the whole pool: ranked queries screen one shard per worker, and
    /// a broadcast sweep splits its pairs into several tasks per
    /// worker, so no worker idles behind a heavy task. The default is
    /// the machine's full `available_parallelism`: each worker is
    /// compute-bound with no blocking I/O, so there is nothing to win
    /// from running more threads than cores (they would only steal each
    /// other's cache) and nothing to win from running fewer. The
    /// calling thread is one of the workers; the others are spawned per
    /// query and each starts on a different CPU from the caller's (the
    /// next ones its affinity mask allows), without being pinned there.
    pub threads: usize,
    /// Observability: span recording, metrics, flight-recorder depth.
    pub obs: ObsConfig,
    /// Sharded execution of multi-pair queries: the shard count.
    pub shard: ShardConfig,
}

impl EngineConfig {
    /// Paper-flavoured defaults: screen with Ap-MinMax, refine with
    /// Ex-MinMax, 15% screening threshold (the paper's lower similarity
    /// band), eps from the caller.
    pub fn new(eps: u32) -> Self {
        Self {
            options: CsjOptions::new(eps),
            screen_method: CsjMethod::ApMinMax,
            refine_method: CsjMethod::ExMinMax,
            screen_threshold: 0.15,
            threads: std::thread::available_parallelism().map_or(4, |p| p.get()),
            obs: ObsConfig::default(),
            shard: ShardConfig::default(),
        }
    }
}

/// A scored community pair returned by queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairScore {
    /// The queried community.
    pub x: CommunityHandle,
    /// The other community.
    pub y: CommunityHandle,
    /// The (refined, exact) similarity.
    pub similarity: Similarity,
}

/// Sort pairs best first (stable, so ties keep their order).
fn best_first(pairs: &mut [PairScore]) {
    pairs.sort_by(|p, q| q.similarity.ratio().total_cmp(&p.similarity.ratio()));
}

/// One query against the engine: the three shapes of the paper's
/// screen → refine pipeline (Section 3). [`CsjEngine::query`] answers
/// each in its primary or its approximate form.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Similarity of one pair. `method: None` runs the engine's refine
    /// method through the exact cache; any other method runs one
    /// uncached join.
    Similarity {
        /// The queried community.
        x: CommunityHandle,
        /// The other community.
        y: CommunityHandle,
        /// Override method; `None` = the engine's refine method.
        method: Option<CsjMethod>,
    },
    /// The `k` registered communities most similar to `x`.
    TopK {
        /// The queried community.
        x: CommunityHandle,
        /// How many neighbours to return.
        k: usize,
    },
    /// Every admissible pair whose similarity reaches `threshold` (the
    /// broadcast sweep of scenario ii.b).
    PairsAbove {
        /// Similarity ratio cut in `[0, 1]`.
        threshold: f64,
        /// Where a truncated sweep stopped ([`PairsSweep::cursor`]);
        /// `None` starts at the first pair.
        resume: Option<PairsCursor>,
    },
}

impl Query {
    fn query_kind(&self) -> QueryKind {
        match self {
            Query::Similarity { .. } => QueryKind::Similarity,
            Query::TopK { .. } => QueryKind::TopK,
            Query::PairsAbove { .. } => QueryKind::PairsAbove,
        }
    }

    /// Stable kind label used in traces and metrics.
    pub fn kind(&self) -> &'static str {
        self.query_kind().label()
    }

    /// Whether the primary form answers exactly, so that the
    /// approximate form is a degradation of it: every query but a
    /// similarity pinned to an approximate method (or `Auto`).
    pub fn is_exact(&self) -> bool {
        match self {
            Query::Similarity {
                method: Some(method),
                ..
            } => method.is_exact(),
            _ => true,
        }
    }

    /// The method that answers the approximate form under `config`: the
    /// [`approximate_counterpart`](CsjMethod::approximate_counterpart)
    /// of a similarity query's method (the refine method when it names
    /// none), the screen method for the multi-pair kinds.
    pub fn approximate_method(&self, config: &EngineConfig) -> CsjMethod {
        match self {
            Query::Similarity { method, .. } => method
                .unwrap_or(config.refine_method)
                .approximate_counterpart(),
            _ => config.screen_method,
        }
    }
}

/// The answer to a [`Query`], by kind.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Answer to [`Query::Similarity`].
    Similarity(Similarity),
    /// Answer to [`Query::TopK`], best first.
    Ranking(Vec<PairScore>),
    /// Answer to [`Query::PairsAbove`].
    Pairs(PairsSweep),
}

impl Answer {
    /// Every pair of a multi-pair answer, best first, as a caller that
    /// does not resume reads it: a sweep's pairs past its cursor
    /// ([`PairsSweep::ahead`]) included.
    pub fn pairs(&self) -> Option<Vec<PairScore>> {
        match self {
            Answer::Similarity(_) => None,
            Answer::Ranking(ranking) => Some(ranking.clone()),
            Answer::Pairs(sweep) => {
                let mut pairs = sweep.pairs.clone();
                pairs.extend_from_slice(&sweep.ahead);
                best_first(&mut pairs);
                Some(pairs)
            }
        }
    }
}

/// Resume point of a truncated [`Query::PairsAbove`] sweep: the first
/// pair (in canonical order) the sweep did *not* process. Feed it back
/// as the query's `resume` to continue exactly where the budget ran out
/// or the lost shard's work begins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairsCursor {
    i: u32,
    j: u32,
}

/// Result of a (possibly budgeted) broadcast sweep.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PairsSweep {
    /// Pairs whose exact similarity reached the threshold, best first.
    pub pairs: Vec<PairScore>,
    /// Where to resume when the budget ran out or a shard was lost;
    /// `None` means the sweep covered every pair.
    pub cursor: Option<PairsCursor>,
    /// Pairs whose join panicked or hit an injected fault; the sweep
    /// carried on past them.
    pub failed: Vec<(CommunityHandle, CommunityHandle, EngineError)>,
    /// Pairs at or after `cursor` that reached the threshold anyway,
    /// best first: shards run side by side, so when one is lost or the
    /// budget runs out, others may have got past the cursor. A resumed
    /// sweep visits these pairs again, so a caller that resumes ignores
    /// this list; a caller that answers once adds it to `pairs` to keep
    /// every result that survived.
    pub ahead: Vec<PairScore>,
}

/// Aggregate engine statistics.
///
/// The cache keeps two scores per pair: the exact (refine) score and the
/// screen method's approximate score. `cached_pairs` and `cache_hits`
/// count the exact ones only; `screen_cache_hits` counts screens served
/// without a join.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Registered communities.
    pub communities: usize,
    /// Exact similarities currently cached.
    pub cached_pairs: usize,
    /// Joins executed since creation (screen + refine).
    pub joins_executed: u64,
    /// Exact-similarity cache hits served.
    pub cache_hits: u64,
    /// Screen scores served from the cache instead of a screen join.
    pub screen_cache_hits: u64,
    /// Kernel telemetry aggregated across every join the engine ran
    /// (cache hits contribute nothing — no kernel work happened).
    pub telemetry: JoinTelemetry,
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "communities:     {}", self.communities)?;
        writeln!(f, "cached pairs:    {}", self.cached_pairs)?;
        writeln!(f, "joins executed:  {}", self.joins_executed)?;
        writeln!(f, "cache hits:      {}", self.cache_hits)?;
        writeln!(f, "screen hits:     {}", self.screen_cache_hits)?;
        write!(f, "{}", self.telemetry)
    }
}

/// The cached scores of one oriented pair `(b, a)`, valid while both
/// communities are still at the versions they were computed at.
#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    version_b: u64,
    version_a: u64,
    /// The screen method's (approximate) score.
    screen: Option<Similarity>,
    /// The refine method's exact score.
    exact: Option<Similarity>,
}

/// One registered community plus its (lazily rebuilt) prepared encoding.
#[derive(Debug)]
struct Registered {
    /// `Arc` so prepared encodings and in-flight queries share the rows
    /// instead of cloning them; mutations go through [`Arc::make_mut`].
    community: Arc<Community>,
    version: u64,
    /// [`community_mass`] of the rows, computed when a query first
    /// needs it after registration or a mutation ([`STALE_MASS`]
    /// until then), so shard planning costs one lookup per community.
    mass: AtomicU64,
    /// Prepared MinMax encodings for the engine's (eps, parts); rebuilt
    /// lazily after mutations. `Arc` so parallel screening workers can
    /// share it without cloning the buffers, `Mutex` so concurrent
    /// `&self` queries can build it lazily.
    prepared: Mutex<Option<Arc<PreparedCommunity>>>,
}

/// The multi-community CSJ engine. Queries take `&self`, so an
/// `Arc<CsjEngine>` can serve concurrent callers directly (this is what
/// `csj-service` does); registry *mutations* (`register`, `upsert_user`,
/// `remove_user`) still take `&mut self` and therefore require exclusive
/// access.
///
/// ```
/// use csj_core::Community;
/// use csj_engine::{CsjEngine, EngineConfig};
///
/// let mut engine = CsjEngine::new(2, EngineConfig::new(1));
/// let x = engine.register(Community::from_rows("X", 2,
///     vec![(1u64, vec![3u32, 3]), (2, vec![9, 9])]).unwrap()).unwrap();
/// let y = engine.register(Community::from_rows("Y", 2,
///     vec![(7u64, vec![3u32, 4]), (8, vec![50, 50])]).unwrap()).unwrap();
/// let sim = engine.similarity(x, y).unwrap();
/// assert_eq!(sim.percent(), 50.0); // one of X's two users has a partner
/// ```
#[derive(Debug)]
pub struct CsjEngine {
    config: EngineConfig,
    d: usize,
    entries: Vec<Registered>,
    names: HashMap<String, u32>,
    /// Screen and exact scores keyed by the oriented pair (see
    /// [`Self::oriented`]); `Mutex` so concurrent `&self` queries share
    /// it.
    cache: Mutex<HashMap<(u32, u32), CacheEntry>>,
    joins_executed: AtomicU64,
    cache_hits: AtomicU64,
    screen_cache_hits: AtomicU64,
    /// Aggregated kernel telemetry; a `Mutex` (not per-field atomics) so
    /// parallel screening workers merge whole [`JoinTelemetry`] blocks
    /// consistently — histograms and maxima don't decompose into
    /// independent atomic adds.
    telemetry: Mutex<JoinTelemetry>,
    /// Metrics registry + flight recorder (see [`ObsConfig`]).
    obs: EngineObs,
    /// Test hooks: `None` unless [`CsjEngine::inject_faults`] /
    /// [`CsjEngine::inject_shard_faults`] set them.
    faults: Option<FaultPlan>,
    shard_faults: Option<Arc<csj_shard::ShardFaultPlan>>,
}

impl CsjEngine {
    /// Create an engine for `d`-dimensional communities.
    pub fn new(d: usize, config: EngineConfig) -> Self {
        assert!(d > 0, "dimensionality must be positive");
        let obs = EngineObs::new(&config.obs);
        Self {
            config,
            d,
            obs,
            entries: Vec::new(),
            names: HashMap::new(),
            cache: Mutex::new(HashMap::new()),
            joins_executed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            screen_cache_hits: AtomicU64::new(0),
            telemetry: Mutex::new(JoinTelemetry::default()),
            faults: None,
            shard_faults: None,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Register a community; names must be unique.
    pub fn register(&mut self, community: Community) -> Result<CommunityHandle, EngineError> {
        if community.d() != self.d {
            return Err(EngineError::DimensionMismatch {
                engine_d: self.d,
                got: community.d(),
            });
        }
        if self.names.contains_key(community.name()) {
            return Err(EngineError::DuplicateName(community.name().to_string()));
        }
        let handle = self.entries.len() as u32;
        self.names.insert(community.name().to_string(), handle);
        self.entries.push(Registered {
            mass: AtomicU64::new(STALE_MASS),
            community: Arc::new(community),
            version: 0,
            prepared: Mutex::new(None),
        });
        Ok(CommunityHandle(handle))
    }

    /// Register a community with an explicit entry version — the
    /// durability layer's recovery hook. Restoring a snapshot must
    /// reproduce the registry *bit-identically*, including the per-entry
    /// versions that key cache freshness, so replaying the WAL tail on
    /// top of the restored image continues the exact version sequence
    /// the live engine had. Identical validation to [`Self::register`];
    /// handles are assigned in call order, so restoring entries in
    /// snapshot order reproduces the original handles too.
    pub fn restore(
        &mut self,
        community: Community,
        version: u64,
    ) -> Result<CommunityHandle, EngineError> {
        let handle = self.register(community)?;
        self.entries[handle.0 as usize].version = version;
        Ok(handle)
    }

    /// The mutation version of a registered community: 0 at
    /// registration, bumped once per applied mutation. Exposed so the
    /// durability layer can fingerprint and snapshot the registry
    /// (cache entries are keyed by these versions).
    pub fn community_version(&self, handle: CommunityHandle) -> Result<u64, EngineError> {
        self.entries
            .get(handle.0 as usize)
            .map(|e| e.version)
            .ok_or(EngineError::UnknownCommunity(handle.0))
    }

    /// Whether a fresh prepared encoding is currently cached for
    /// `handle`. Observability for tests and the durability layer: a
    /// *failed* mutation must not evict a still-valid encoding.
    pub fn has_prepared(&self, handle: CommunityHandle) -> bool {
        self.entries
            .get(handle.0 as usize)
            .map(|e| {
                e.prepared
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .is_some()
            })
            .unwrap_or(false)
    }

    /// The engine's dimensionality — every registered community shares
    /// it.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Look up a community by name.
    pub fn find(&self, name: &str) -> Option<CommunityHandle> {
        self.names.get(name).map(|&h| CommunityHandle(h))
    }

    /// Borrow a registered community.
    pub fn community(&self, handle: CommunityHandle) -> Result<&Community, EngineError> {
        self.entries
            .get(handle.0 as usize)
            .map(|e| e.community.as_ref())
            .ok_or(EngineError::UnknownCommunity(handle.0))
    }

    /// All registered handles.
    pub fn handles(&self) -> impl Iterator<Item = CommunityHandle> + '_ {
        (0..self.entries.len() as u32).map(CommunityHandle)
    }

    /// Get (building if stale) the prepared state of a community: the
    /// MinMax encodings and quantized lanes every join method reads
    /// through `run_prepared`. It is shared (`Arc`) with in-flight
    /// queries, and shares the community rows with the registry rather
    /// than cloning them. Building happens under the slot's lock, so
    /// concurrent queries racing on a cold slot prepare it exactly once.
    fn prepared(&self, handle: u32) -> Arc<PreparedCommunity> {
        let entry = &self.entries[handle as usize];
        let mut slot = entry.prepared.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(prepared) = slot.as_ref() {
            return Arc::clone(prepared);
        }
        let built = Arc::new(PreparedCommunity::from_shared(
            Arc::clone(&entry.community),
            &self.config.options,
        ));
        *slot = Some(Arc::clone(&built));
        built
    }

    /// The [`community_mass`] of a registered community, computed once
    /// per version.
    fn mass(&self, handle: u32) -> u64 {
        let entry = &self.entries[handle as usize];
        let cached = entry.mass.load(Ordering::Relaxed);
        if cached != STALE_MASS {
            return cached;
        }
        let mass = community_mass(&entry.community);
        entry.mass.store(mass, Ordering::Relaxed);
        mass
    }

    /// Join an oriented prepared pair with `method` through
    /// [`run_prepared`], which validates the pair and reuses every
    /// cached piece of the prepared state. Runs under `opts` (which may
    /// carry a query budget's cancellation token); a join truncated by
    /// cancellation reports [`EngineError::Cancelled`] rather than an
    /// under-counted similarity.
    ///
    /// [`CsjMethod::Auto`] is resolved *here*, by the density rule under
    /// the caller's `exactness` requirement (refinement demands a
    /// lossless exact method even when the configured refine method is
    /// `Auto`, so the exact-similarity cache stays exact). A pinned
    /// method does no plan work. Every join hands its candidate count
    /// back to the caller in [`Scored`].
    fn join_prepared(
        &self,
        method: CsjMethod,
        exactness: Exactness,
        b: &PreparedCommunity,
        a: &PreparedCommunity,
        opts: &CsjOptions,
        rec: &QueryRecorder,
    ) -> Result<Scored, EngineError> {
        let plan = (method == CsjMethod::Auto)
            .then(|| QueryPlan::new(PlanInput::from_prepared(b, a, exactness)));
        let method = plan.map_or(method, |p| p.chosen);
        let start_us = rec.now_us();
        // A rejected pair (size constraint, mismatched preparation) ran
        // no join, so it is not counted.
        let JoinOutcome {
            similarity,
            telemetry,
            timings,
            cancelled,
            ..
        } = run_prepared(method, b, a, opts)?;
        self.joins_executed.fetch_add(1, Ordering::Relaxed);
        self.telemetry
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .merge(&telemetry);
        self.obs
            .on_join(method, &telemetry, &timings, cancelled, rec.trace_id());
        if let Some(plan) = &plan {
            let actual_us = timings.total().as_micros().min(u128::from(u64::MAX)) as u64;
            self.obs.on_plan(plan, actual_us);
            rec.record_plan(plan, actual_us, start_us);
        }
        let outcome = if cancelled { "cancelled" } else { "ok" };
        rec.record_join(
            method,
            b.len(),
            a.len(),
            &telemetry,
            &timings,
            outcome,
            start_us,
        );
        if cancelled {
            return Err(EngineError::Cancelled);
        }
        Ok(Scored {
            similarity,
            streamed: Some(telemetry.candidates_streamed),
        })
    }

    /// Fire any injected faults registered for `handle`. Called just
    /// before each join, inside the per-candidate isolation boundary.
    fn fault_hook(&self, handle: u32) -> Result<(), EngineError> {
        match &self.faults {
            Some(plan) => {
                let fired = plan.apply(handle);
                if fired.is_err() {
                    self.obs.on_fault();
                }
                fired
            }
            None => Ok(()),
        }
    }

    /// Run `join` inside the per-pair panic boundary: a panic is
    /// counted and surfaces as [`EngineError::JoinPanicked`] naming
    /// `handle`, never as an abort.
    fn isolated<T>(
        &self,
        handle: u32,
        join: impl FnOnce() -> Result<T, EngineError>,
    ) -> Result<T, EngineError> {
        catch_unwind(AssertUnwindSafe(join)).unwrap_or_else(|payload| {
            self.obs.on_join_panicked();
            Err(EngineError::JoinPanicked {
                handle,
                message: panic_message(payload),
            })
        })
    }

    /// Overwrite (or insert) a user's profile; invalidates cached
    /// similarities involving the community. In a live system this is
    /// the "counters increased by one" path of the paper's Section 1.1.
    pub fn upsert_user(
        &mut self,
        handle: CommunityHandle,
        user: UserId,
        vector: &[u32],
    ) -> Result<(), EngineError> {
        let idx = handle.0 as usize;
        let entry = self
            .entries
            .get_mut(idx)
            .ok_or(EngineError::UnknownCommunity(handle.0))?;
        // Validate before touching any state: a rejected vector must
        // leave the still-valid prepared encoding (and the version, and
        // therefore every cache entry) untouched.
        if vector.len() != entry.community.d() {
            return Err(EngineError::Csj(CsjError::VectorLength {
                expected: entry.community.d(),
                got: vector.len(),
            }));
        }
        // Drop the prepared encoding only once the mutation is certain:
        // it shares the community Arc, and releasing it lets make_mut
        // edit in place (refcount 1) instead of deep-copying the rows.
        *entry.prepared.get_mut().unwrap_or_else(|e| e.into_inner()) = None;
        let community = Arc::make_mut(&mut entry.community);
        match community.find_user(user) {
            Some(i) => community.set_vector(i, vector)?,
            None => community.push(user, vector)?,
        }
        self.bump_version(handle.0);
        Ok(())
    }

    /// Remove a user (unsubscribe); invalidates cached similarities.
    pub fn remove_user(
        &mut self,
        handle: CommunityHandle,
        user: UserId,
    ) -> Result<(), EngineError> {
        let idx = handle.0 as usize;
        let entry = self
            .entries
            .get_mut(idx)
            .ok_or(EngineError::UnknownCommunity(handle.0))?;
        // Resolve the user before invalidating anything: an unknown user
        // must not cost the community its prepared encoding.
        let i = entry
            .community
            .find_user(user)
            .ok_or(EngineError::UnknownUser(user))?;
        // Release the shared Arc before make_mut.
        *entry.prepared.get_mut().unwrap_or_else(|e| e.into_inner()) = None;
        Arc::make_mut(&mut entry.community).swap_remove_user(i);
        self.bump_version(handle.0);
        Ok(())
    }

    fn bump_version(&mut self, handle: u32) {
        let entry = &mut self.entries[handle as usize];
        entry.version += 1;
        *entry.mass.get_mut() = STALE_MASS;
        // Encodings and both cached scores of its pairs are stale now.
        *entry.prepared.get_mut().unwrap_or_else(|e| e.into_inner()) = None;
        self.cache
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|&(x, y), _| x != handle && y != handle);
    }

    /// Orient a pair as (smaller B, larger A) with their handles; equal
    /// sizes tie-break on the handle. Every join of a pair (screen or
    /// refine, from either side, ranked query or sweep) runs in this
    /// orientation, so the pair has one canonical cache slot: Ap
    /// methods are not symmetric on equal sizes, and a screen score
    /// must not depend on which side asked.
    fn oriented(&self, x: CommunityHandle, y: CommunityHandle) -> Result<(u32, u32), EngineError> {
        let cx = self.community(x)?;
        let cy = self.community(y)?;
        Ok(match cx.len().cmp(&cy.len()) {
            std::cmp::Ordering::Less => (x.0, y.0),
            std::cmp::Ordering::Greater => (y.0, x.0),
            std::cmp::Ordering::Equal => (x.0.min(y.0), x.0.max(y.0)),
        })
    }

    /// The cache entry of the oriented pair `(b, a)`, if the cache holds
    /// one that is still fresh (neither community changed since its
    /// scores were computed). One check covers both scores.
    fn cached(&self, b: u32, a: u32) -> Option<CacheEntry> {
        self.cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&(b, a))
            .filter(|e| {
                e.version_b == self.entries[b as usize].version
                    && e.version_a == self.entries[a as usize].version
            })
            .copied()
    }

    /// The cached exact similarity of the oriented pair `(b, a)`,
    /// counted as a cache hit when there is one.
    fn exact_hit(&self, b: u32, a: u32) -> Option<Similarity> {
        let similarity = self.cached(b, a).and_then(|e| e.exact)?;
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
        self.obs.on_cache_hit();
        Some(similarity)
    }

    /// Store one score of the oriented pair `(b, a)` with `set`, next to
    /// the other one if the entry is still fresh (a stale entry is
    /// replaced). Only completed joins are stored.
    fn store(&self, b: u32, a: u32, set: impl FnOnce(&mut CacheEntry)) {
        let fresh = CacheEntry {
            version_b: self.entries[b as usize].version,
            version_a: self.entries[a as usize].version,
            screen: None,
            exact: None,
        };
        let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        let entry = cache.entry((b, a)).or_insert(fresh);
        if (entry.version_b, entry.version_a) != (fresh.version_b, fresh.version_a) {
            *entry = fresh;
        }
        set(entry);
    }

    /// Answer `query`: the one entry point of every engine query.
    ///
    /// `exactness` picks the form. [`Exactness::Approximate`] runs the
    /// approximate form, whose every join is approximate:
    ///
    /// - a similarity runs its method's
    ///   [`approximate_counterpart`](CsjMethod::approximate_counterpart)
    ///   (the refine method's when it names none), uncached;
    /// - a top-k ranks every screened candidate by its screen score;
    /// - a sweep reports the pairs whose screen score reaches the
    ///   threshold, refining none.
    ///
    /// Approximate CSJ never over-counts and greedy maximal matchings
    /// reach at least half the maximum, so every approximate score lies
    /// in `[exact / 2, exact]` and every approximate sweep pair truly
    /// clears the threshold. Approximate forms never touch the exact
    /// cache; screen scores come from the cache and are stored there.
    ///
    /// [`Exactness::Exact`] and [`Exactness::Any`] run the primary form:
    /// the refine method (cached) for a similarity without a method, and
    /// the paper's screen → refine pipeline for the multi-pair kinds. A
    /// similarity with an explicit method runs it uncached; an explicit
    /// `Auto` resolves under `exactness`.
    ///
    /// The `budget` bounds the work. A similarity checks it once, before
    /// its join (a cached score is served whatever the budget); a
    /// multi-pair query checks it before every join. A query the budget
    /// stops returns everything it scored in time, with the exhaustion
    /// marker; a similarity that ran no join counts no matches. Multi-pair
    /// answers carry their shards' [`Coverage`]. An unknown handle or a
    /// similarity whose join panicked or faulted is an error; a
    /// multi-pair query contains such failures per pair.
    pub fn query(
        &self,
        query: &Query,
        exactness: Exactness,
        budget: &Budget,
    ) -> Result<Partial<Answer>, EngineError> {
        let approx = exactness == Exactness::Approximate;
        match *query {
            Query::Similarity { x, y, method } => {
                self.pair_similarity(x, y, method, exactness, budget)
            }
            Query::TopK { x, k } => self.top_k(x, k, approx, budget),
            Query::PairsAbove { threshold, resume } => {
                self.sweep(threshold, budget, resume, approx)
            }
        }
    }

    /// Exact similarity of a pair, cached: the unbudgeted primary form of
    /// [`Query::Similarity`] without a method.
    pub fn similarity(
        &self,
        x: CommunityHandle,
        y: CommunityHandle,
    ) -> Result<Similarity, EngineError> {
        let query = Query::Similarity { x, y, method: None };
        let Answer::Similarity(similarity) = self
            .query(&query, Exactness::Exact, &Budget::unlimited())?
            .value
        else {
            unreachable!("a similarity query answers with a similarity")
        };
        Ok(similarity)
    }

    /// Similarity of a pair computed with an explicit `method`: the
    /// unbudgeted primary form of [`Query::Similarity`]. The configured
    /// refine method uses the cache; any other method runs one uncached
    /// join, so an Ap-* answer never pollutes the exact cache.
    pub fn similarity_with(
        &self,
        x: CommunityHandle,
        y: CommunityHandle,
        method: CsjMethod,
    ) -> Result<Similarity, EngineError> {
        let query = Query::Similarity {
            x,
            y,
            method: Some(method),
        };
        let Answer::Similarity(similarity) = self
            .query(&query, Exactness::Any, &Budget::unlimited())?
            .value
        else {
            unreachable!("a similarity query answers with a similarity")
        };
        Ok(similarity)
    }

    /// The `k` registered communities most similar to `x`, by exact
    /// score: the unbudgeted primary form of [`Query::TopK`].
    pub fn top_k_similar(
        &self,
        x: CommunityHandle,
        k: usize,
    ) -> Result<Vec<PairScore>, EngineError> {
        let Answer::Ranking(ranking) = self
            .query(
                &Query::TopK { x, k },
                Exactness::Exact,
                &Budget::unlimited(),
            )?
            .value
        else {
            unreachable!("a top-k query answers with a ranking")
        };
        Ok(ranking)
    }

    /// Every admissible pair whose exact similarity reaches `threshold`:
    /// the unbudgeted primary form of [`Query::PairsAbove`]. The first
    /// pair whose join panicked or faulted, if any, is returned as its
    /// error.
    pub fn pairs_above(&self, threshold: f64) -> Result<Vec<PairScore>, EngineError> {
        let query = Query::PairsAbove {
            threshold,
            resume: None,
        };
        let Answer::Pairs(sweep) = self
            .query(&query, Exactness::Exact, &Budget::unlimited())?
            .value
        else {
            unreachable!("a sweep answers with pairs")
        };
        match sweep.failed.into_iter().next() {
            Some((_, _, e)) => Err(e),
            None => Ok(sweep.pairs),
        }
    }

    /// [`Query::Similarity`]: the similarity of one pair, traced. A
    /// budget that admits no join yields a zero score with the
    /// exhaustion marker.
    fn pair_similarity(
        &self,
        x: CommunityHandle,
        y: CommunityHandle,
        method: Option<CsjMethod>,
        exactness: Exactness,
        budget: &Budget,
    ) -> Result<Partial<Answer>, EngineError> {
        let rec = self.obs.start_query(QueryKind::Similarity);
        match self.score_pair(x, y, method, exactness, budget, &rec) {
            Ok(similarity) => {
                Ok(self.finish_partial(rec, Answer::Similarity(similarity), None, None))
            }
            Err(EngineError::Cancelled) => {
                let exhausted = BudgetExhausted {
                    reason: budget.exceeded(0).unwrap_or(ExhaustReason::Cancelled),
                    pairs_done: 0,
                    pairs_skipped: 1,
                };
                // B, the side the ratio counts, is the smaller community.
                let size = |h: CommunityHandle| self.entries[h.0 as usize].community.len();
                let unscored = Similarity::new(0, size(x).min(size(y)));
                Ok(self.finish_partial(rec, Answer::Similarity(unscored), None, Some(exhausted)))
            }
            Err(e) => Err(self.trace_failure(rec, e)),
        }
    }

    /// The score behind [`Self::pair_similarity`] of `x` and `y`: a
    /// cached exact score, or one join once the budget admits it
    /// ([`EngineError::Cancelled`] when it does not). The primary form
    /// with the refine method goes through the exact cache; every other
    /// join runs uncached inside the per-pair panic boundary.
    fn score_pair(
        &self,
        x: CommunityHandle,
        y: CommunityHandle,
        method: Option<CsjMethod>,
        exactness: Exactness,
        budget: &Budget,
        rec: &QueryRecorder,
    ) -> Result<Similarity, EngineError> {
        let (b, a) = self.oriented(x, y)?;
        let refine = self.config.refine_method;
        let approx = exactness == Exactness::Approximate;
        let method = method.unwrap_or(refine);
        let cached = !approx && method == refine;
        if cached {
            if let Some(similarity) = self.exact_hit(b, a) {
                return Ok(similarity);
            }
        }
        if !admits(budget, 0) {
            return Err(EngineError::Cancelled);
        }
        let opts = &self.config.options;
        if cached {
            let joins = AtomicU64::new(0);
            return Ok(self.refine_pair(x, y, None, opts, &joins, rec)?.similarity);
        }
        let method = if approx {
            method.approximate_counterpart()
        } else {
            method
        };
        let (pb, pa) = (self.prepared(b), self.prepared(a));
        self.isolated(y.0, || {
            self.fault_hook(b)?;
            self.fault_hook(a)?;
            self.join_prepared(method, exactness, &pb, &pa, opts, rec)
                .map(|scored| scored.similarity)
        })
    }

    /// Exact (refined) similarity of one pair under `qopts`, cached.
    /// `ready` is the oriented pair's encodings when the caller already
    /// holds them; otherwise they are looked up (and built if stale).
    /// The refine join runs inside the per-pair panic boundary
    /// ([`Self::isolated`], naming `y`). Increments `joins` when a join
    /// actually runs.
    fn refine_pair(
        &self,
        x: CommunityHandle,
        y: CommunityHandle,
        ready: Option<(&Arc<PreparedCommunity>, &Arc<PreparedCommunity>)>,
        qopts: &CsjOptions,
        joins: &AtomicU64,
        rec: &QueryRecorder,
    ) -> Result<Scored, EngineError> {
        let (b, a) = self.oriented(x, y)?;
        if let Some(similarity) = self.exact_hit(b, a) {
            return Ok(Scored::cached(similarity));
        }
        let (pb, pa) = match ready {
            Some((pb, pa)) => (Arc::clone(pb), Arc::clone(pa)),
            None => (self.prepared(b), self.prepared(a)),
        };
        let method = self.config.refine_method;
        let refined = self.isolated(y.0, || {
            self.fault_hook(b)?;
            self.fault_hook(a)?;
            // The result lands in the exact-similarity cache, so an
            // `Auto` refine method must resolve among exact methods.
            self.join_prepared(method, Exactness::Exact, &pb, &pa, qopts, rec)
        })?;
        joins.fetch_add(1, Ordering::Relaxed);
        self.store(b, a, |e| e.exact = Some(refined.similarity));
        Ok(refined)
    }

    /// The screen score of the oriented pair `(b, a)` (prepared as `pb`,
    /// `pa`): served from the cache while neither community changed,
    /// otherwise one `screen_method` join (fault hooks first) whose
    /// score is stored. A hit runs no join, fires no fault hook and
    /// counts nothing in `joins`; a miss counts its join once it
    /// completes. With [`CsjMethod::Auto`] the stored score is the one
    /// the chosen Ap method produced, still a sound lower bound. The
    /// caller provides the per-pair panic boundary.
    #[allow(clippy::too_many_arguments)]
    fn screen_pair(
        &self,
        b: u32,
        a: u32,
        pb: &PreparedCommunity,
        pa: &PreparedCommunity,
        qopts: &CsjOptions,
        joins: &AtomicU64,
        rec: &QueryRecorder,
    ) -> Result<Scored, EngineError> {
        if let Some(screened) = self.cached(b, a).and_then(|e| e.screen) {
            self.screen_cache_hits.fetch_add(1, Ordering::Relaxed);
            self.obs.on_screen_cache_hit();
            rec.note_screen_cache_hit();
            return Ok(Scored::cached(screened));
        }
        self.fault_hook(b)?;
        self.fault_hook(a)?;
        let screened = self.join_prepared(
            self.config.screen_method,
            Exactness::Approximate,
            pb,
            pa,
            qopts,
            rec,
        )?;
        joins.fetch_add(1, Ordering::Relaxed);
        self.store(b, a, |e| e.screen = Some(screened.similarity));
        Ok(screened)
    }

    /// Close out a query whose recorder saw a hard error: the trace (if
    /// recording) lands in the flight recorder with a `failed:` outcome.
    fn trace_failure(&self, rec: QueryRecorder, e: EngineError) -> EngineError {
        if let Some(trace) = rec.finish(format!("failed:{e}")) {
            self.obs.record_trace(trace);
        }
        e
    }

    /// Close out a completed (possibly exhausted) query: shard metrics
    /// and coverage of a multi-pair `run`, the exhaustion count and
    /// budget state on the filed trace, and the [`Partial`] it returns.
    fn finish_partial(
        &self,
        rec: QueryRecorder,
        value: Answer,
        run: Option<ShardRun>,
        exhausted: Option<BudgetExhausted>,
    ) -> Partial<Answer> {
        if let Some(run) = &run {
            debug_assert!(
                run.coverage.identity_holds(),
                "shard fate identity: {:?}",
                run.coverage
            );
            self.obs.on_shards(&run.coverage, &run.elapsed_us);
            rec.note_coverage(run.coverage);
        }
        if let Some(marker) = exhausted {
            self.obs.on_budget_exhausted(marker.reason);
            rec.note_budget(
                marker.reason.label(),
                marker.pairs_done,
                marker.pairs_skipped,
            );
        }
        if let Some(trace) = rec.finish(outcome_label(exhausted.map(|m| m.reason))) {
            self.obs.record_trace(trace);
        }
        Partial {
            value,
            exhausted,
            coverage: run.map(|run| run.coverage),
        }
    }

    /// Screening core of every ranked query, phase 1 of the paper's
    /// pipeline: split `candidates` into mass-balanced shards, screen
    /// each shard's members with the fast approximate method on the
    /// executor, and return each candidate's [`ScreenState`] in
    /// candidate order, so the outcome is the same for every shard
    /// count and steal order. Members of a lost shard count as skipped;
    /// the third value is how many of the skips the budget made (the
    /// rest are coverage loss). `joins` accumulates the query's join
    /// count across phases.
    ///
    /// Screen scores are cached per pair, next to the exact score, until
    /// either community changes: a repeated screen (from either side,
    /// or by a ranked query or sweep that screens the same pair) runs no
    /// join, counts none against a [`Budget`]'s join cap and fires no
    /// injected fault. Each pair is screened in one canonical
    /// orientation (smaller community as B, lower handle first on equal
    /// sizes), so its score does not depend on which side asked.
    fn screen_on_shards(
        &self,
        x: CommunityHandle,
        candidates: &[CommunityHandle],
        budget: &Budget,
        joins: &AtomicU64,
        rec: &QueryRecorder,
    ) -> Result<(Vec<ScreenState>, ShardRun, u64), EngineError> {
        self.community(x)?;
        let layout = self.shard_layout(candidates)?;
        // Prepare every participant once; the shards share the Arcs.
        let px = self.prepared(x.0);
        let prepared: Vec<Arc<PreparedCommunity>> =
            candidates.iter().map(|&c| self.prepared(c.0)).collect();
        let qopts = self
            .config
            .options
            .clone()
            .with_cancel(budget.cancel_token());
        let (values, mut run) = self.dispatch("screen", &layout.shards, budget, rec, |members| {
            members
                .iter()
                .map(|&idx| {
                    if !admits(budget, joins.load(Ordering::Relaxed)) {
                        return ScreenState::Skipped;
                    }
                    let cand = candidates[idx];
                    self.screen_one((x, &px), (cand, &prepared[idx]), &qopts, joins, rec)
                })
                .collect::<Vec<_>>()
        });
        let mut states: Vec<ScreenState> = Vec::with_capacity(candidates.len());
        states.resize_with(candidates.len(), || ScreenState::Skipped);
        let mut lost = 0u64;
        for (members, value) in layout.shards.iter().zip(values) {
            match value {
                Ok(value) => {
                    for (&idx, state) in members.iter().zip(value) {
                        states[idx] = state;
                    }
                }
                // Never started: the budget was cancelled first.
                Err(ShardOutcome::Cancelled) => {}
                Err(_) => lost += members.len() as u64,
            }
        }
        // Panics and faults degrade per candidate; anything else is a
        // real configuration/state error and fails the query (first in
        // candidate order).
        let mut skipped = 0u64;
        for state in &states {
            match state {
                ScreenState::Failed(e) if !e.is_per_pair() => return Err(e.clone()),
                ScreenState::Skipped => skipped += 1,
                _ => {}
            }
        }
        run.coverage.units_skipped = skipped;
        run.coverage.units_screened = candidates.len() as u64 - skipped;
        Ok((states, run, skipped - lost))
    }

    /// The screen score of `x` against `cand` (each with its prepared
    /// encoding), in the pair's canonical orientation and inside the
    /// per-pair panic boundary.
    fn screen_one(
        &self,
        (x, px): (CommunityHandle, &PreparedCommunity),
        (cand, pc): (CommunityHandle, &PreparedCommunity),
        qopts: &CsjOptions,
        joins: &AtomicU64,
        rec: &QueryRecorder,
    ) -> ScreenState {
        let screened = self.isolated(cand.0, || {
            let (b, a) = self.oriented(x, cand)?;
            let (pb, pa) = if b == x.0 { (px, pc) } else { (pc, px) };
            self.screen_pair(b, a, pb, pa, qopts, joins, rec)
        });
        match screened {
            Ok(screened) => ScreenState::Scored(screened.similarity),
            Err(EngineError::Csj(CsjError::SizeConstraint { .. })) => ScreenState::Inadmissible,
            Err(EngineError::Cancelled) => {
                joins.fetch_add(1, Ordering::Relaxed);
                ScreenState::Skipped
            }
            Err(e) => ScreenState::Failed(e),
        }
    }

    /// [`Query::TopK`]: screen every other registered community on the
    /// shards (candidates whose join panicked or faulted drop out), then
    /// rank and keep the best `k`. The approximate form ranks every
    /// screened candidate by its screen score. The primary form refines
    /// the candidates whose screen score clears
    /// [`EngineConfig::screen_threshold`] with the exact method
    /// (cached) on the calling thread, best screen score first, so
    /// `max_joins` accounting is deterministic, and ranks them by exact
    /// score. On exhaustion the ranking covers what was scored in time.
    fn top_k(
        &self,
        x: CommunityHandle,
        k: usize,
        approx: bool,
        budget: &Budget,
    ) -> Result<Partial<Answer>, EngineError> {
        let candidates: Vec<CommunityHandle> = self.handles().filter(|&h| h != x).collect();
        let joins = AtomicU64::new(0);
        let rec = self.obs.start_query(QueryKind::TopK);
        // `skipped` counts budget skips only: candidates of a lost shard
        // are coverage loss, reported through `Coverage`.
        let (states, run, mut skipped) =
            match self.screen_on_shards(x, &candidates, budget, &joins, &rec) {
                Ok(screened) => screened,
                Err(e) => return Err(self.trace_failure(rec, e)),
            };
        let mut done = run.coverage.units_screened;
        let mut screened: Vec<PairScore> = candidates
            .iter()
            .zip(states)
            .filter_map(|(&y, state)| match state {
                ScreenState::Scored(similarity) => Some(PairScore { x, y, similarity }),
                _ => None,
            })
            .collect();
        let mut ranked = if approx {
            screened
        } else {
            screened.retain(|p| p.similarity.ratio() >= self.config.screen_threshold);
            best_first(&mut screened);
            let refine_start = rec.now_us();
            let qopts = self
                .config
                .options
                .clone()
                .with_cancel(budget.cancel_token());
            let mut refined = Vec::with_capacity(screened.len());
            for (idx, shortlisted) in screened.iter().enumerate() {
                if budget.exceeded(joins.load(Ordering::Relaxed)).is_some() {
                    budget.cancel();
                    skipped += (screened.len() - idx) as u64;
                    break;
                }
                match self.refine_pair(x, shortlisted.y, None, &qopts, &joins, &rec) {
                    Ok(scored) => {
                        done += 1;
                        refined.push(PairScore {
                            similarity: scored.similarity,
                            ..*shortlisted
                        });
                    }
                    // The refine join was truncated mid-flight (external
                    // cancel): everything from here on is unprocessed.
                    Err(EngineError::Cancelled) => {
                        skipped += (screened.len() - idx) as u64;
                        break;
                    }
                    // Panic/fault: drop this candidate, keep ranking the rest.
                    Err(e) if e.is_per_pair() => done += 1,
                    Err(other) => return Err(self.trace_failure(rec, other)),
                }
            }
            rec.end_phase("refine", refine_start);
            refined
        };
        best_first(&mut ranked);
        ranked.truncate(k);
        let exhausted = exhausted_marker(budget, &joins, done, skipped);
        Ok(self.finish_partial(rec, Answer::Ranking(ranked), Some(run), exhausted))
    }

    /// [`Query::PairsAbove`], the broadcast sweep: every admissible pair
    /// among the registered communities whose similarity reaches
    /// `threshold`, from `resume` on.
    ///
    /// The primary form screens with the paper's two-phase strategy
    /// while screening pays: the cheap screening method first, refining
    /// only pairs whose screened similarity clears the skip bound.
    /// Approximate CSJ never over-counts and its greedy matchings are
    /// maximal (>= half the maximum), so a pair screened below
    /// `threshold / 2` cannot reach `threshold` exactly and is pruned.
    /// Where the screen prunes too little to repay its own joins, the
    /// sweep refines pairs directly instead; each shard task decides
    /// from the candidates its own joins streamed (see `DESIGN.md` §17,
    /// "When the sweep screens"). Either way every admissible pair whose
    /// exact similarity reaches `threshold` is returned with its exact
    /// score, so the answer does not depend on which plan ran. Cached
    /// screen scores are always used, and cached exact scores skip both
    /// joins. The approximate form (`approx`) reports each pair on its
    /// screen score alone.
    ///
    /// The canonical pairs from `resume` on run as mass-balanced shard
    /// tasks. The merge keeps the pairs before the first pair no shard
    /// processed (budget, cancellation or a lost shard) and returns that
    /// pair as [`PairsSweep::cursor`], so a truncated sweep and its
    /// resumption (with a fresh budget; refined pairs come from the
    /// cache) are disjoint and jointly exhaustive whatever order the
    /// shards ran in; hits past the cursor go to [`PairsSweep::ahead`].
    /// Pairs whose join panicked or faulted land in
    /// [`PairsSweep::failed`] and the sweep carries on.
    fn sweep(
        &self,
        threshold: f64,
        budget: &Budget,
        resume: Option<PairsCursor>,
        approx: bool,
    ) -> Result<Partial<Answer>, EngineError> {
        let joins = AtomicU64::new(0);
        let rec = self.obs.start_query(QueryKind::PairsAbove);
        let n = self.entries.len() as u32;
        let from = resume.unwrap_or(PairsCursor { i: 0, j: 1 });
        let total = Self::remaining_pairs(n, from);
        let masses: Vec<u64> = (0..n).map(|h| self.mass(h)).collect();
        let target = pair_task_target(self.effective_shards(total as usize), self.config.threads);
        let tasks = Self::plan_pair_tasks(&masses, (from.i, from.j), target);
        // Prepare every community here, before dispatch: the long-lived
        // encodings then live in the caller's allocator arena, and the
        // workers only run joins (DESIGN.md §17).
        let prepared: Vec<Arc<PreparedCommunity>> = (0..n).map(|h| self.prepared(h)).collect();
        let qopts = self
            .config
            .options
            .clone()
            .with_cancel(budget.cancel_token());
        let (values, mut run) = self.dispatch("sweep", &tasks, budget, &rec, |pairs| {
            let mut stop = false;
            // Each task learns from its own joins only, so its choices
            // do not depend on what sibling tasks ran before it.
            let mut plan = ScreenPlan::default();
            let states = pairs
                .iter()
                .map(|&(i, j)| {
                    // The first pair is admitted whenever the budget
                    // admits any work at all, whatever sibling shards
                    // have spent, so every resumed call advances.
                    let spent = if (i, j) == (from.i, from.j) {
                        0
                    } else {
                        joins.load(Ordering::Relaxed)
                    };
                    stop = stop || !admits(budget, spent);
                    if stop {
                        return SweptPair::Skipped;
                    }
                    let (x, y) = (CommunityHandle(i), CommunityHandle(j));
                    let swept = self.isolated(j, || {
                        self.sweep_pair(
                            x, y, threshold, &prepared, &qopts, &joins, &rec, &mut plan, approx,
                        )
                    });
                    match swept {
                        Ok(Some(score)) => SweptPair::Hit(score),
                        Ok(None) => SweptPair::Miss,
                        // A join truncated mid-flight: this pair was not
                        // fully processed.
                        Err(EngineError::Cancelled) => {
                            stop = true;
                            SweptPair::Skipped
                        }
                        Err(e) => SweptPair::Failed(e),
                    }
                })
                .collect::<Vec<_>>();
            rec.note_sweep_plan(plan.screened, plan.pruned, plan.direct_refines);
            states
        });
        // Each task's pairs are sorted and a shard stops for good at its
        // first skip, so a task contributes its processed prefix and at
        // most one candidate for the cursor (all of a lost shard's pairs
        // are unprocessed).
        let mut cursor: Option<(u32, u32)> = None;
        let mut processed: Vec<((u32, u32), SweptPair)> = Vec::new();
        for (pairs, value) in tasks.iter().zip(values) {
            let states = value.unwrap_or_default();
            let prefix = states
                .iter()
                .position(|s| matches!(s, SweptPair::Skipped))
                .unwrap_or(states.len());
            if let Some(&pair) = pairs.get(prefix) {
                cursor = Some(cursor.map_or(pair, |c| c.min(pair)));
            }
            processed.extend(pairs.iter().copied().zip(states).take(prefix));
        }
        // Canonical order, independent of layout and completion order
        // (pair keys are unique, so the unstable sort is total).
        processed.sort_unstable_by_key(|(pair, _)| *pair);
        let mut sweep = PairsSweep {
            cursor: cursor.map(|(i, j)| PairsCursor { i, j }),
            ..PairsSweep::default()
        };
        // Coverage counts every pair a shard processed; the exhaustion
        // marker counts the resumable split at the cursor.
        run.coverage.units_screened = processed.len() as u64;
        run.coverage.units_skipped = total - run.coverage.units_screened;
        let mut done = 0u64;
        for ((i, j), state) in processed {
            let before_cursor = cursor.is_none_or(|c| (i, j) < c);
            done += u64::from(before_cursor);
            match state {
                SweptPair::Hit(score) if before_cursor => sweep.pairs.push(score),
                SweptPair::Hit(score) => sweep.ahead.push(score),
                SweptPair::Failed(e) if before_cursor || !e.is_per_pair() => {
                    sweep
                        .failed
                        .push((CommunityHandle(i), CommunityHandle(j), e))
                }
                SweptPair::Failed(_) | SweptPair::Miss | SweptPair::Skipped => {}
            }
        }
        if let Some((_, _, e)) = sweep.failed.iter().find(|(_, _, e)| !e.is_per_pair()) {
            return Err(self.trace_failure(rec, e.clone()));
        }
        best_first(&mut sweep.pairs);
        best_first(&mut sweep.ahead);
        let skipped = sweep.cursor.map_or(0, |c| Self::remaining_pairs(n, c));
        debug_assert_eq!(done + skipped, total, "every pair is swept or skipped");
        let exhausted = exhausted_marker(budget, &joins, done, skipped);
        Ok(self.finish_partial(rec, Answer::Pairs(sweep), Some(run), exhausted))
    }

    /// One pair of the broadcast sweep: admissibility, then the exact
    /// score. A cached exact score runs no join. Otherwise the pair is
    /// screened when its screen score is cached (free) or `plan` says
    /// screening pays, and pruned when the screen is below the safe
    /// `threshold / 2` skip bound; a pair that is not pruned, or not
    /// screened, gets the exact refine (cached). `plan` records what
    /// the pair's joins streamed. With `approx` the screen *is* the
    /// answer (degraded mode): accept on the approximate score, skip
    /// refinement and the exact cache. `prepared` holds every
    /// community's encoding, by handle.
    #[allow(clippy::too_many_arguments)]
    fn sweep_pair(
        &self,
        x: CommunityHandle,
        y: CommunityHandle,
        threshold: f64,
        prepared: &[Arc<PreparedCommunity>],
        qopts: &CsjOptions,
        joins: &AtomicU64,
        rec: &QueryRecorder,
        plan: &mut ScreenPlan,
        approx: bool,
    ) -> Result<Option<PairScore>, EngineError> {
        let (b, a) = self.oriented(x, y)?;
        if csj_core::validate_sizes(
            self.entries[b as usize].community.len(),
            self.entries[a as usize].community.len(),
        )
        .is_err()
        {
            return Ok(None);
        }
        let (pb, pa) = (&prepared[b as usize], &prepared[a as usize]);
        let hit = |similarity: Similarity| {
            (similarity.ratio() >= threshold).then_some(PairScore { x, y, similarity })
        };
        if approx {
            plan.screened += 1;
            let screened = self.screen_pair(b, a, pb, pa, qopts, joins, rec)?;
            return Ok(hit(screened.similarity));
        }
        let cached = self.cached(b, a);
        let exact_cached = cached.is_some_and(|e| e.exact.is_some());
        // Phase 1: cheap screen, when it is free or pays.
        let mut screen = None;
        if !exact_cached && (cached.is_some_and(|e| e.screen.is_some()) || plan.screens()) {
            let screened = self.screen_pair(b, a, pb, pa, qopts, joins, rec)?;
            // Maximal matchings reach at least half the maximum, so a
            // screened ratio below threshold/2 proves the exact ratio is
            // below threshold.
            if screened.similarity.ratio() < threshold / 2.0 {
                plan.record_pruned(screened.streamed);
                return Ok(None);
            }
            screen = Some(screened.streamed);
        }
        // Phase 2: exact (cached).
        let refined = self.refine_pair(x, y, Some((pb, pa)), qopts, joins, rec)?;
        match screen {
            Some(screen) => plan.record_refined(screen, refined.streamed),
            None if !exact_cached => plan.record_direct(
                refined.streamed,
                refined.similarity.ratio() < threshold / 2.0,
            ),
            None => {}
        }
        Ok(hit(refined.similarity))
    }

    /// Number of pairs a sweep starting at `cursor` still has to visit
    /// (the cursor's own pair included).
    fn remaining_pairs(n: u32, cursor: PairsCursor) -> u64 {
        let n = u64::from(n);
        let rest = n.saturating_sub(u64::from(cursor.i) + 1);
        n.saturating_sub(u64::from(cursor.j)) + rest.saturating_sub(1) * rest / 2
    }

    /// Resolve the plan for one pair without running a join: the pair's
    /// measured density and the method the density rule picks under
    /// `exactness`. This is what `csj explain` surfaces, and exactly what
    /// an `Auto` join of the pair executes.
    pub fn plan_pair(
        &self,
        x: CommunityHandle,
        y: CommunityHandle,
        exactness: Exactness,
    ) -> Result<QueryPlan, EngineError> {
        let (b, a) = self.oriented(x, y)?;
        let (pb, pa) = (self.prepared(b), self.prepared(a));
        Ok(QueryPlan::new(PlanInput::from_prepared(
            &pb, &pa, exactness,
        )))
    }

    /// Point-in-time snapshot of every `csj_*` metric (counters,
    /// gauges, latency and depth histograms). Render it with
    /// [`MetricsSnapshot::to_prometheus`] or
    /// [`MetricsSnapshot::to_json`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.obs.snapshot(self.entries.len(), self.exact_cached())
    }

    /// How many pairs hold a cached exact similarity (screen-only
    /// entries excluded).
    fn exact_cached(&self) -> usize {
        let cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        cache.values().filter(|e| e.exact.is_some()).count()
    }

    /// Count `n` records quarantined by a data loader in the
    /// `csj_data_quarantined_total` metric. The loaders themselves are
    /// observability-free (they return a quarantine report); callers
    /// that loaded data *for this engine* fold the report in here.
    pub fn note_quarantined(&self, n: u64) {
        self.obs.on_quarantined(n);
    }

    /// The `n` most recent query traces from the flight recorder,
    /// oldest first. Empty when observability is disabled.
    pub fn traces(&self, n: usize) -> Vec<QueryTrace> {
        self.obs.traces(n)
    }

    /// The `n` most recent forensic records from the slow-query log
    /// (queries over [`ObsConfig::slow_capacity`]'s threshold or with a
    /// non-`completed` outcome), oldest first. Each record carries the
    /// full span tree — plan decision, per-join telemetry, budget
    /// state — of one pathological query.
    ///
    /// [`ObsConfig::slow_capacity`]: crate::ObsConfig::slow_capacity
    pub fn slow_queries(&self, n: usize) -> Vec<ForensicRecord> {
        self.obs.slow_queries(n)
    }

    /// Slow-query log statistics: `(offered, captured, threshold_us)`.
    pub fn slow_query_stats(&self) -> (u64, u64, u64) {
        let log = self.obs.slow_log();
        (log.offered(), log.captured(), log.threshold_us())
    }

    /// Engine statistics.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            communities: self.entries.len(),
            cached_pairs: self.exact_cached(),
            joins_executed: self.joins_executed.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            screen_cache_hits: self.screen_cache_hits.load(Ordering::Relaxed),
            telemetry: *self.telemetry.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }
}

/// Per-candidate state of a screening pass.
enum ScreenState {
    /// Screened: the approximate similarity.
    Scored(Similarity),
    /// Screened: the pair violates the size constraint.
    Inadmissible,
    /// The screen join panicked, faulted, or hit a hard error.
    Failed(EngineError),
    /// Never screened: the budget ran out, or the query was cancelled
    /// before its turn.
    Skipped,
}

/// Per-pair state of one shard task of a broadcast sweep.
enum SweptPair {
    /// The similarity reached the threshold.
    Hit(PairScore),
    /// Processed, below the threshold (or inadmissible).
    Miss,
    /// The pair's join panicked or faulted (or a hard error, surfaced
    /// at merge).
    Failed(EngineError),
    /// Never processed: the budget ran out or the query was cancelled.
    Skipped,
}

/// A pair's score and what it cost.
#[derive(Debug)]
struct Scored {
    similarity: Similarity,
    /// The candidates its join streamed
    /// ([`JoinTelemetry::candidates_streamed`]); `None` when the score
    /// came from the cache and no join ran.
    streamed: Option<u64>,
}

impl Scored {
    fn cached(similarity: Similarity) -> Self {
        Self {
            similarity,
            streamed: None,
        }
    }
}

/// One sweep task's choice, pair by pair, between the paper's
/// screen→refine and a direct exact refine (`DESIGN.md` §17, "When the
/// sweep screens"). Costs are candidates streamed, counted over the
/// task's own joins; scores served from the cache cost nothing and
/// teach nothing.
///
/// - `r`, the screen's price per refine candidate, is the ratio of
///   screen to refine candidates over the pairs the task both screened
///   and refined with a join each;
/// - screening costs the task's screen joins plus `r` times its direct
///   refines (the screens it skipped);
/// - screening saves the refines its pruning screens avoided (their
///   candidates over `r`), plus the direct refines whose exact ratio
///   came out below `threshold / 2`: the screen would have pruned
///   those, since an Ap score never exceeds the exact one.
///
/// The task screens while `r` is unknown (or zero) and while the saving
/// covers the cost, and refines directly otherwise. Every plan returns
/// the same pairs and scores; only the work differs.
#[derive(Debug, Default)]
struct ScreenPlan {
    /// Screen candidates of the pairs screened and refined by a join each.
    paired_screen: u64,
    /// Refine candidates of those same pairs.
    paired_refine: u64,
    /// Candidates of every screen join the task ran.
    screen_cost: u64,
    /// Candidates of the screen joins that pruned their pair.
    pruning: u64,
    /// Candidates of the direct refine joins.
    direct_cost: u64,
    /// Candidates of the direct refine joins whose exact ratio was below
    /// `threshold / 2`.
    direct_below: u64,
    /// Pairs screened (by a join or from the cache), for the trace.
    screened: u64,
    /// Screened pairs the screen pruned, for the trace.
    pruned: u64,
    /// Pairs refined without a screen, for the trace.
    direct_refines: u64,
}

impl ScreenPlan {
    /// Whether the next pair without a cached score is screened first.
    fn screens(&self) -> bool {
        if self.paired_screen == 0 || self.paired_refine == 0 {
            return true;
        }
        let r = self.paired_screen as f64 / self.paired_refine as f64;
        let cost = self.screen_cost as f64 + r * self.direct_cost as f64;
        let save = self.pruning as f64 / r + self.direct_below as f64;
        save >= cost
    }

    /// A screen pruned its pair; `screen` is its join's candidates
    /// (`None`: a cached score).
    fn record_pruned(&mut self, screen: Option<u64>) {
        self.screened += 1;
        self.pruned += 1;
        if let Some(screen) = screen {
            self.screen_cost += screen;
            self.pruning += screen;
        }
    }

    /// A screen let its pair through to the refine.
    fn record_refined(&mut self, screen: Option<u64>, refine: Option<u64>) {
        self.screened += 1;
        if let Some(screen) = screen {
            self.screen_cost += screen;
            if let Some(refine) = refine {
                self.paired_screen += screen;
                self.paired_refine += refine;
            }
        }
    }

    /// A pair was refined without a screen; `below_half` says its exact
    /// ratio was below `threshold / 2`.
    fn record_direct(&mut self, refine: Option<u64>, below_half: bool) {
        self.direct_refines += 1;
        if let Some(refine) = refine {
            self.direct_cost += refine;
            if below_half {
                self.direct_below += refine;
            }
        }
    }
}

/// Shard fates and per-shard latencies of one dispatch, for the
/// [`Coverage`] report and the `csj_shard_*` metrics. The dispatcher
/// fills in the fates; the query's merge fills in the unit counts.
struct ShardRun {
    coverage: Coverage,
    elapsed_us: Vec<u64>,
}

/// Shard planning and dispatch, the one execution path of every
/// multi-pair query. Work units are partitioned into mass-balanced
/// shards ([`plan_shards`] over [`community_mass`], so one giant
/// community cannot serialise the query behind it); each shard runs
/// once, inside its own panic boundary, on the [`ShardExecutor`] pool,
/// and lost shards shrink the attached [`Coverage`] report instead of
/// failing the query. See `DESIGN.md` §17.
impl CsjEngine {
    /// How many shards a query over `units` work units gets: the
    /// configured count ([`ShardConfig::shards`]; 0 = auto, one per
    /// engine thread), clamped to the unit count.
    fn effective_shards(&self, units: usize) -> usize {
        let want = if self.config.shard.shards > 0 {
            self.config.shard.shards
        } else {
            self.config.threads
        };
        want.clamp(1, units.max(1))
    }

    /// The skew-aware layout a ranked query over `candidates` runs on:
    /// members balanced by part-sum mass, not by count. This is what
    /// `csj explain` surfaces.
    pub fn shard_layout(&self, candidates: &[CommunityHandle]) -> Result<ShardLayout, EngineError> {
        let masses = candidates
            .iter()
            .map(|&c| {
                self.community(c)?;
                Ok(self.mass(c.0))
            })
            .collect::<Result<Vec<u64>, EngineError>>()?;
        Ok(plan_shards(
            &masses,
            self.effective_shards(candidates.len()),
        ))
    }

    /// Run `task` over every shard's member list on the shard executor
    /// (its pool is [`EngineConfig::threads`] wide). Join
    /// spans recorded while the shards run close as the `phase` span,
    /// followed by a `shards` phase with one span per shard. Returns
    /// each shard's value (for a shard that returned none, how it
    /// resolved) and its fates.
    fn dispatch<M: Sync, T: Send>(
        &self,
        phase: &'static str,
        shards: &[Vec<M>],
        budget: &Budget,
        rec: &QueryRecorder,
        task: impl Fn(&[M]) -> T + Sync,
    ) -> (Vec<Result<T, ShardOutcome>>, ShardRun) {
        let executor =
            ShardExecutor::new(self.config.threads).with_faults(self.shard_faults.clone());
        let start = rec.now_us();
        let reports = executor.run(shards.len(), &budget.cancel_token(), |shard| {
            task(&shards[shard])
        });
        rec.end_phase(phase, start);
        let mut run = ShardRun {
            coverage: Coverage::default(),
            elapsed_us: Vec::with_capacity(reports.len()),
        };
        let values = reports
            .into_iter()
            .map(|report| {
                let coverage = &mut run.coverage;
                coverage.dispatched += 1;
                match report.outcome {
                    ShardOutcome::Completed => coverage.completed += 1,
                    ShardOutcome::Panicked => coverage.failed += 1,
                    ShardOutcome::Cancelled => coverage.cancelled += 1,
                }
                let us = u64::try_from(report.elapsed.as_micros()).unwrap_or(u64::MAX);
                run.elapsed_us.push(us);
                rec.record_shard(
                    report.shard,
                    report.outcome.label(),
                    report.panic_message.as_deref(),
                    shards[report.shard].len(),
                    us,
                    start,
                );
                report.value.ok_or(report.outcome)
            })
            .collect();
        rec.end_phase("shards", start);
        (values, run)
    }

    /// Partition the all-pairs workload from `from` on: the communities
    /// that still have pairs (handles `from.0` and up) are grouped into
    /// `g` mass-balanced groups (the largest `g` with
    /// `g*(g+1)/2 <= target` tasks) and every group pair — diagonal
    /// included — becomes one task holding its canonical `(i < j)`
    /// pairs in lexicographic order. Each unordered pair at or after
    /// `from` lands in exactly one task; tasks are ordered by their
    /// first pair.
    fn plan_pair_tasks(masses: &[u64], from: (u32, u32), target: usize) -> Vec<Vec<(u32, u32)>> {
        let first = (from.0 as usize).min(masses.len());
        let active = &masses[first..];
        if active.len() < 2 {
            return Vec::new();
        }
        let mut g = 1usize;
        while (g + 1) * (g + 2) / 2 <= target && g < active.len() {
            g += 1;
        }
        let groups: Vec<Vec<usize>> = plan_shards(active, g)
            .shards
            .into_iter()
            .map(|members| members.into_iter().map(|m| m + first).collect())
            .collect();
        let mut tasks = Vec::new();
        for gi in 0..groups.len() {
            for gj in gi..groups.len() {
                let mut pairs: Vec<(u32, u32)> = Vec::new();
                if gi == gj {
                    let members = &groups[gi];
                    for (p, &u) in members.iter().enumerate() {
                        for &v in &members[p + 1..] {
                            pairs.push((u as u32, v as u32));
                        }
                    }
                } else {
                    for &u in &groups[gi] {
                        for &v in &groups[gj] {
                            let (lo, hi) = if u < v { (u, v) } else { (v, u) };
                            pairs.push((lo as u32, hi as u32));
                        }
                    }
                }
                pairs.retain(|&pair| pair >= from);
                pairs.sort_unstable();
                if !pairs.is_empty() {
                    tasks.push(pairs);
                }
            }
        }
        // The executor dequeues tasks in index order: the task holding
        // the sweep's first pair goes first, so a budget that admits
        // any work processes that pair.
        tasks.sort_unstable_by_key(|pairs| pairs[0]);
        tasks
    }
}

/// Pair tasks a sweep plans per shard when the pool has more than one
/// worker. Over-decomposition keeps every worker busy: one that drew
/// light tasks takes the next one instead of idling while another
/// finishes a heavy one (the LSF-Join argument for all-pairs work).
const PAIR_TASKS_PER_SHARD: usize = 4;

/// How many pair tasks a sweep over `shards` shards aims for on a pool
/// of `workers`: one per shard on a single worker, whose tasks run one
/// after another on the caller anyway, and [`PAIR_TASKS_PER_SHARD`] per
/// shard otherwise.
fn pair_task_target(shards: usize, workers: usize) -> usize {
    if workers > 1 {
        shards * PAIR_TASKS_PER_SHARD
    } else {
        shards
    }
}

/// Test hooks: fault plans for chaos tests. An engine no test touched
/// has none installed, and each hook then costs one `None` check.
impl CsjEngine {
    /// Test hook: install a chaos plan; subsequent joins hit its faults.
    #[doc(hidden)]
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Test hook: remove any installed chaos plan.
    #[doc(hidden)]
    pub fn clear_faults(&mut self) {
        self.faults = None;
    }

    /// Test hook: install a shard-boundary chaos plan; subsequent
    /// *sharded* queries dispatch their shards through it (kills,
    /// stalls, injected panics).
    #[doc(hidden)]
    pub fn inject_shard_faults(&mut self, plan: csj_shard::ShardFaultPlan) {
        self.shard_faults = Some(Arc::new(plan));
    }

    /// Test hook: remove any installed shard chaos plan.
    #[doc(hidden)]
    pub fn clear_shard_faults(&mut self) {
        self.shard_faults = None;
    }
}

/// Whether a shard may start its next work unit, `spent` joins into the
/// query: the budget still admits work and the query was not cancelled.
/// A passed deadline trips the budget's shared token, so in-flight joins
/// in sibling shards stop at their next per-row check too; a spent join
/// cap only stops new work, and joins already running finish.
fn admits(budget: &Budget, spent: u64) -> bool {
    match budget.exceeded(spent) {
        None => true,
        Some(ExhaustReason::MaxJoins) => false,
        Some(_) => {
            budget.cancel();
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The screen's partition of a candidate list.
    #[derive(Debug, Default, PartialEq)]
    struct ScreenOutcome {
        /// Scored at or above the screen threshold, best first.
        shortlisted: Vec<(CommunityHandle, Similarity)>,
        /// Scored below the screen threshold, in candidate order.
        rejected: Vec<(CommunityHandle, Similarity)>,
        inadmissible: Vec<CommunityHandle>,
        failed: Vec<(CommunityHandle, EngineError)>,
        skipped: Vec<CommunityHandle>,
    }

    impl CsjEngine {
        /// Screen `x` against `candidates` under `budget` (phase 1 of
        /// every top-k) and partition them by their [`ScreenState`].
        fn screen_with_budget(
            &self,
            x: CommunityHandle,
            candidates: &[CommunityHandle],
            budget: &Budget,
        ) -> Result<Partial<ScreenOutcome>, EngineError> {
            let joins = AtomicU64::new(0);
            let rec = self.obs.start_query(QueryKind::TopK);
            let (states, run, skipped) =
                self.screen_on_shards(x, candidates, budget, &joins, &rec)?;
            let done = run.coverage.units_screened;
            let mut out = ScreenOutcome::default();
            for (&cand, state) in candidates.iter().zip(states) {
                match state {
                    ScreenState::Scored(s) if s.ratio() >= self.config.screen_threshold => {
                        out.shortlisted.push((cand, s))
                    }
                    ScreenState::Scored(s) => out.rejected.push((cand, s)),
                    ScreenState::Inadmissible => out.inadmissible.push(cand),
                    ScreenState::Failed(e) => out.failed.push((cand, e)),
                    ScreenState::Skipped => out.skipped.push(cand),
                }
            }
            out.shortlisted
                .sort_by(|p, q| q.1.ratio().total_cmp(&p.1.ratio()));
            Ok(Partial {
                value: out,
                exhausted: exhausted_marker(budget, &joins, done, skipped),
                coverage: Some(run.coverage),
            })
        }

        fn screen(
            &self,
            x: CommunityHandle,
            candidates: &[CommunityHandle],
        ) -> Result<ScreenOutcome, EngineError> {
            Ok(self
                .screen_with_budget(x, candidates, &Budget::unlimited())?
                .value)
        }
    }

    /// The sweep of a [`Query::PairsAbove`] in the form `exactness` picks.
    fn sweep(
        engine: &CsjEngine,
        threshold: f64,
        exactness: Exactness,
        budget: &Budget,
        resume: Option<PairsCursor>,
    ) -> Partial<PairsSweep> {
        let query = Query::PairsAbove { threshold, resume };
        let partial = engine.query(&query, exactness, budget).unwrap();
        let Answer::Pairs(sweep) = partial.value else {
            panic!("a sweep answers with pairs");
        };
        Partial {
            value: sweep,
            exhausted: partial.exhausted,
            coverage: partial.coverage,
        }
    }

    fn community(name: &str, rows: &[[u32; 2]]) -> Community {
        Community::from_rows(
            name,
            2,
            rows.iter().enumerate().map(|(i, v)| (i as u64, v.to_vec())),
        )
        .expect("well-formed")
    }

    fn engine_with_three() -> (CsjEngine, CommunityHandle, CommunityHandle, CommunityHandle) {
        let mut engine = CsjEngine::new(2, EngineConfig::new(1));
        // anchor: 4 users; near: 3 of 4 match; far: none match.
        let anchor = community("anchor", &[[1, 1], [5, 5], [9, 9], [13, 13]]);
        let near = community("near", &[[1, 2], [5, 5], [9, 8], [100, 100]]);
        let far = community("far", &[[50, 0], [60, 0], [70, 0], [80, 0]]);
        let a = engine.register(anchor).unwrap();
        let n = engine.register(near).unwrap();
        let f = engine.register(far).unwrap();
        (engine, a, n, f)
    }

    #[test]
    fn register_and_lookup() {
        let (engine, a, _, _) = engine_with_three();
        assert_eq!(engine.find("anchor"), Some(a));
        assert_eq!(engine.find("nope"), None);
        assert_eq!(engine.community(a).unwrap().len(), 4);
        assert_eq!(engine.stats().communities, 3);
    }

    #[test]
    fn register_rejects_bad_input() {
        let mut engine = CsjEngine::new(2, EngineConfig::new(1));
        engine.register(community("x", &[[1, 1]])).unwrap();
        assert_eq!(
            engine.register(community("x", &[[2, 2]])),
            Err(EngineError::DuplicateName("x".into()))
        );
        let wrong_d = Community::new("y", 3);
        assert!(matches!(
            engine.register(wrong_d),
            Err(EngineError::DimensionMismatch {
                engine_d: 2,
                got: 3
            })
        ));
    }

    #[test]
    fn similarity_is_cached_and_symmetric() {
        let (engine, a, n, _) = engine_with_three();
        let s1 = engine.similarity(a, n).unwrap();
        assert_eq!(s1.matched, 3);
        let before = engine.stats().joins_executed;
        let s2 = engine.similarity(n, a).unwrap(); // symmetric: same cache slot
        assert_eq!(s1, s2);
        assert_eq!(engine.stats().joins_executed, before, "must be a cache hit");
        assert_eq!(engine.stats().cache_hits, 1);
    }

    #[test]
    fn joins_accumulate_telemetry() {
        let (mut engine, a, n, _) = engine_with_three();
        assert_eq!(engine.stats().telemetry, JoinTelemetry::default());

        engine.similarity(a, n).unwrap();
        let after_one = engine.stats().telemetry;
        assert!(after_one.rows_driven > 0, "screen+refine drove rows");
        assert!(after_one.events.matches >= 3, "three admissible pairs seen");
        assert!(after_one.matcher_flushes >= 1, "exact refinement flushed");

        // A cache hit runs no kernel, so telemetry must not move.
        engine.similarity(n, a).unwrap();
        assert_eq!(engine.stats().telemetry, after_one);

        // Invalidate and re-join: counters only ever grow.
        engine.upsert_user(n, 0, &[1, 2]).unwrap();
        engine.similarity(a, n).unwrap();
        let after_two = engine.stats().telemetry;
        assert!(after_two.rows_driven > after_one.rows_driven);
        assert!(after_two.cancel_polls >= after_one.cancel_polls);
    }

    #[test]
    fn updates_invalidate_cache() {
        let (mut engine, a, n, _) = engine_with_three();
        let s1 = engine.similarity(a, n).unwrap();
        assert_eq!(s1.matched, 3);
        // Move the non-matching 'near' user onto a matching profile.
        engine.upsert_user(n, 3, &[13, 13]).unwrap();
        let s2 = engine.similarity(a, n).unwrap();
        assert_eq!(s2.matched, 4, "update must be reflected");
        // Removing a matching user drops it again.
        engine.remove_user(n, 3).unwrap();
        let s3 = engine.similarity(a, n).unwrap();
        assert_eq!(s3.matched, 3);
        assert_eq!(
            engine.remove_user(n, 77).unwrap_err(),
            EngineError::UnknownUser(77)
        );
    }

    #[test]
    fn upsert_can_insert_new_users() {
        let (mut engine, a, _, _) = engine_with_three();
        engine.upsert_user(a, 999, &[2, 2]).unwrap();
        assert_eq!(engine.community(a).unwrap().len(), 5);
    }

    #[test]
    fn failed_upsert_keeps_prepared_encoding_and_version() {
        let (mut engine, a, n, _) = engine_with_three();
        engine.similarity(a, n).unwrap(); // warms both encodings + cache
        engine.screen(a, &[n]).unwrap();
        assert!(engine.has_prepared(n));
        let version = engine.community_version(n).unwrap();

        // Wrong-length vector: rejected, and the rejection must not
        // evict the still-valid encoding, bump the version, or drop the
        // cached similarity.
        let err = engine.upsert_user(n, 0, &[1, 2, 3]).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Csj(CsjError::VectorLength { .. })
        ));
        assert!(engine.has_prepared(n), "failed upsert evicted the encoding");
        assert_eq!(engine.community_version(n).unwrap(), version);
        let joins = engine.stats().joins_executed;
        engine.similarity(a, n).unwrap();
        assert_eq!(engine.stats().joins_executed, joins, "cache must survive");
        assert_screen_cached(&engine, a, n);
    }

    /// The screen score of `(a, n)` is still cached: a screen runs no
    /// join and is counted as a screen cache hit.
    fn assert_screen_cached(engine: &CsjEngine, a: CommunityHandle, n: CommunityHandle) {
        let before = engine.stats();
        engine.screen(a, &[n]).unwrap();
        let after = engine.stats();
        assert_eq!(
            after.joins_executed, before.joins_executed,
            "screen evicted"
        );
        assert_eq!(after.screen_cache_hits, before.screen_cache_hits + 1);
    }

    #[test]
    fn failed_remove_keeps_prepared_encoding_and_version() {
        let (mut engine, a, n, _) = engine_with_three();
        engine.similarity(a, n).unwrap();
        engine.screen(a, &[n]).unwrap();
        let version = engine.community_version(n).unwrap();
        assert_eq!(
            engine.remove_user(n, 424242).unwrap_err(),
            EngineError::UnknownUser(424242)
        );
        assert!(engine.has_prepared(n), "failed remove evicted the encoding");
        assert_eq!(engine.community_version(n).unwrap(), version);
        let joins = engine.stats().joins_executed;
        engine.similarity(a, n).unwrap();
        assert_eq!(engine.stats().joins_executed, joins, "cache must survive");
        assert_screen_cached(&engine, a, n);
    }

    #[test]
    fn updates_evict_only_the_touched_communitys_screen_scores() {
        let (mut engine, a, n, f) = engine_with_three();
        engine.screen(a, &[n, f]).unwrap();
        engine.screen(n, &[f]).unwrap();
        assert_eq!(engine.stats().joins_executed, 3);
        assert_eq!(engine.stats().cached_pairs, 0, "screens are not exact");

        // Touching `f` evicts its two pairs; (a, n) stays cached.
        engine.upsert_user(f, 0, &[1, 1]).unwrap();
        let before = engine.stats();
        engine.screen(a, &[n, f]).unwrap();
        engine.screen(n, &[f]).unwrap();
        let after = engine.stats();
        assert_eq!(after.joins_executed - before.joins_executed, 2);
        assert_eq!(after.screen_cache_hits - before.screen_cache_hits, 1);

        // Removing one of `n`'s users evicts (a, n) and (n, f) only.
        engine.remove_user(n, 3).unwrap();
        let before = engine.stats();
        engine.screen(f, &[a, n]).unwrap();
        let after = engine.stats();
        assert_eq!(after.joins_executed - before.joins_executed, 1);
        assert_eq!(after.screen_cache_hits - before.screen_cache_hits, 1);
    }

    #[test]
    fn warm_top_k_runs_no_joins_and_returns_the_cold_answer() {
        let (engine, a, n, f) = engine_with_three();
        let cold = engine.top_k_similar(a, 5).unwrap();
        let joins = engine.stats().joins_executed;
        assert_eq!(joins, 3, "two screens and one refine");

        let warm = engine.top_k_similar(a, 5).unwrap();
        assert_eq!(warm, cold);
        let stats = engine.stats();
        assert_eq!(stats.joins_executed, joins, "a warm top-k runs no join");
        assert_eq!(stats.screen_cache_hits, 2);
        assert_eq!(stats.cache_hits, 1, "exact hits keep their own count");
        assert_eq!(stats.cached_pairs, 1);

        // The trace says why the query ran no join.
        let trace = engine.traces(1).pop().expect("recorded");
        let hits = Some(&csj_obs::AttrValue::U64(2));
        assert_eq!(trace.root.get_attr("screen_cache_hits"), hits);
        let screen = trace.root.find("screen").expect("screen phase");
        assert_eq!(screen.get_attr("joins"), Some(&csj_obs::AttrValue::U64(0)));
        assert_eq!(screen.get_attr("screen_cache_hits"), hits);
        let snap = engine.metrics_snapshot();
        assert_eq!(snap.counter_value("csj_screen_cache_hits_total", &[]), 2);
        assert_eq!(snap.counter_value("csj_cache_hits_total", &[]), 1);

        // One slot per pair: screening from the other side hits it too.
        engine.screen(n, &[a]).unwrap();
        engine.screen(f, &[a]).unwrap();
        assert_eq!(engine.stats().joins_executed, joins);
        assert_eq!(engine.stats().screen_cache_hits, 4);
    }

    #[test]
    fn sweeps_reuse_cached_screens() {
        let (engine, _, _, _) = engine_with_three();
        let approx = sweep(
            &engine,
            0.5,
            Exactness::Approximate,
            &Budget::unlimited(),
            None,
        )
        .value;
        let joins = engine.stats().joins_executed;
        assert_eq!(joins, 3, "one screen per pair");
        assert_eq!(engine.stats().cached_pairs, 0, "exact cache untouched");
        let again = sweep(
            &engine,
            0.5,
            Exactness::Approximate,
            &Budget::unlimited(),
            None,
        )
        .value;
        assert_eq!(again, approx);
        assert_eq!(engine.stats().joins_executed, joins);

        // The exact sweep screens nothing again: it refines the one pair
        // above threshold / 2 and skips the others on their cached
        // screen scores; a resweep then runs no join at all.
        let exact = engine.pairs_above(0.5).unwrap();
        assert_eq!(engine.stats().joins_executed, joins + 1);
        assert_eq!(engine.pairs_above(0.5).unwrap(), exact);
        assert_eq!(engine.stats().joins_executed, joins + 1);
    }

    /// A plan whose three pruning screens (60 candidates each) and one
    /// screened refine (60 + 100) priced the screen at r = 0.6.
    fn plan_after_three_prunes() -> ScreenPlan {
        let mut plan = ScreenPlan::default();
        assert!(plan.screens(), "a fresh task screens");
        for _ in 0..3 {
            plan.record_pruned(Some(60));
            assert!(plan.screens(), "r is unknown until a pair is refined");
        }
        plan.record_refined(Some(60), Some(100));
        plan
    }

    #[test]
    fn sweep_plan_screens_first() {
        let plan = plan_after_three_prunes();
        // Saved 180 / 0.6 = 300 refine candidates for 240 screened.
        assert!(plan.screens());
        assert_eq!((plan.screened, plan.pruned, plan.direct_refines), (4, 3, 0));
    }

    #[test]
    fn sweep_plan_stops_screening_once_prunes_no_longer_pay() {
        let mut plan = plan_after_three_prunes();
        plan.record_refined(Some(60), Some(100));
        assert!(plan.screens(), "300 saved for 300 spent still pays");
        plan.record_refined(Some(60), Some(100));
        assert!(!plan.screens(), "300 saved for 360 spent");
    }

    #[test]
    fn sweep_plan_screens_again_when_low_direct_refines_pile_up() {
        let mut plan = plan_after_three_prunes();
        for _ in 0..2 {
            plan.record_refined(Some(60), Some(100));
        }
        // A direct refine above threshold / 2 adds r * 100 to the cost.
        plan.record_direct(Some(100), false);
        assert!(!plan.screens(), "300 saved for 420");
        // One below threshold / 2 adds the same cost and saves its 100.
        plan.record_direct(Some(100), true);
        plan.record_direct(Some(100), true);
        assert!(!plan.screens(), "500 saved for 540");
        plan.record_direct(Some(100), true);
        assert!(plan.screens(), "600 saved for 600");
        assert_eq!(plan.direct_refines, 4);
    }

    #[test]
    fn sweep_plan_ignores_cache_hits() {
        let mut plan = plan_after_three_prunes();
        for _ in 0..2 {
            plan.record_refined(Some(60), Some(100));
        }
        assert!(!plan.screens());
        for _ in 0..10 {
            plan.record_pruned(None);
            plan.record_direct(None, true);
            plan.record_refined(None, Some(100));
        }
        assert!(!plan.screens(), "cached scores cost and save nothing");
        assert_eq!(
            (plan.screened, plan.pruned, plan.direct_refines),
            (26, 13, 10)
        );
        // A refine served from the cache leaves r as it was.
        let mut fresh = ScreenPlan::default();
        fresh.record_refined(Some(60), None);
        fresh.record_pruned(Some(60));
        assert!(fresh.screens(), "r is still unknown");
    }

    /// Two equal-size communities whose Ap-MinMax score depends on which
    /// one is B, from a seeded search (such pairs are common, so the
    /// search ends within a few attempts).
    fn asymmetric_equal_pair() -> (Community, Community) {
        let mut state = 7u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let opts = CsjOptions::new(1);
        for _ in 0..10_000 {
            let mut make = |name: &str| {
                let rows = (0..8u64).map(|u| (u, (0..3).map(|_| next() % 4).collect::<Vec<u32>>()));
                Community::from_rows(name, 3, rows).expect("well-formed")
            };
            let (p, q) = (make("p"), make("q"));
            let ap = |b: &Community, a: &Community| {
                csj_core::run(CsjMethod::ApMinMax, b, a, &opts)
                    .expect("admissible")
                    .similarity
            };
            if ap(&p, &q) != ap(&q, &p) {
                return (p, q);
            }
        }
        panic!("no asymmetric equal-size pair found");
    }

    #[test]
    fn equal_size_pair_screens_the_same_from_both_sides() {
        let (p, q) = asymmetric_equal_pair();
        // A fresh engine per query, so no answer comes from a cache.
        let fresh = || {
            let mut engine = CsjEngine::new(3, EngineConfig::new(1));
            let hp = engine.register(p.clone()).unwrap();
            let hq = engine.register(q.clone()).unwrap();
            (engine, hp, hq)
        };
        let (engine, _, _) = fresh();
        let swept = sweep(
            &engine,
            0.0,
            Exactness::Approximate,
            &Budget::unlimited(),
            None,
        )
        .value
        .pairs;
        assert_eq!(swept.len(), 1);
        for p_asks in [true, false] {
            let (engine, hp, hq) = fresh();
            let (x, y) = if p_asks { (hp, hq) } else { (hq, hp) };
            let out = engine.screen(x, &[y]).unwrap();
            let (_, screened) = *out.shortlisted.iter().chain(&out.rejected).next().unwrap();
            assert_eq!(screened, swept[0].similarity, "p asks: {p_asks}");
        }
    }

    #[test]
    fn restore_reproduces_handles_and_versions() {
        let (mut engine, _, n, _) = engine_with_three();
        engine.upsert_user(n, 0, &[7, 7]).unwrap();
        engine.remove_user(n, 1).unwrap();
        assert_eq!(engine.community_version(n).unwrap(), 2);

        let mut restored = CsjEngine::new(2, EngineConfig::new(1));
        for h in engine.handles() {
            let c = engine.community(h).unwrap().clone();
            let v = engine.community_version(h).unwrap();
            assert_eq!(restored.restore(c, v).unwrap(), h, "handle order");
        }
        for h in engine.handles() {
            assert_eq!(
                restored.community_version(h).unwrap(),
                engine.community_version(h).unwrap()
            );
            assert_eq!(
                restored.community(h).unwrap().user_ids(),
                engine.community(h).unwrap().user_ids()
            );
        }
    }

    #[test]
    fn registry_shares_rows_with_prepared_encodings() {
        let (mut engine, a, _, _) = engine_with_three();
        let prepared = engine.prepared(a.0);
        // One preparation does not copy the community rows.
        assert!(Arc::ptr_eq(
            &prepared.shared_community(),
            &engine.entries[a.0 as usize].community
        ));
        // A mutation while the query still holds the Arc copies-on-write
        // for the registry; the in-flight query keeps the old snapshot.
        engine.upsert_user(a, 999, &[2, 2]).unwrap();
        assert_eq!(prepared.len(), 4, "in-flight snapshot is unchanged");
        assert_eq!(engine.community(a).unwrap().len(), 5);
    }

    #[test]
    fn screening_partitions_candidates() {
        let (engine, a, n, f) = engine_with_three();
        let outcome = engine.screen(a, &[n, f]).unwrap();
        assert_eq!(outcome.shortlisted.len(), 1);
        assert_eq!(outcome.shortlisted[0].0, n);
        assert_eq!(outcome.rejected, vec![(f, Similarity::new(0, 4))]);
        assert!(outcome.inadmissible.is_empty());
        assert!(outcome.failed.is_empty());
        assert!(outcome.skipped.is_empty());
    }

    #[test]
    fn screening_flags_inadmissible_sizes() {
        let mut engine = CsjEngine::new(2, EngineConfig::new(1));
        let big = community("big", &[[1, 1], [2, 2], [3, 3], [4, 4], [5, 5]]);
        let tiny = community("tiny", &[[1, 1]]);
        let b = engine.register(big).unwrap();
        let t = engine.register(tiny).unwrap();
        let outcome = engine.screen(b, &[t]).unwrap();
        assert_eq!(outcome.inadmissible, vec![t]);
    }

    #[test]
    fn top_k_ranks_by_exact_similarity() {
        let (engine, a, n, _) = engine_with_three();
        let top = engine.top_k_similar(a, 5).unwrap();
        assert_eq!(top.len(), 1, "only 'near' clears the screen threshold");
        assert_eq!(top[0].y, n);
        assert_eq!(top[0].similarity.matched, 3);
    }

    #[test]
    fn pairs_above_sweeps_all_admissible_pairs() {
        let (engine, a, n, f) = engine_with_three();
        let pairs = engine.pairs_above(0.5).unwrap();
        assert_eq!(pairs.len(), 1);
        let p = pairs[0];
        assert!((p.x == a && p.y == n) || (p.x == n && p.y == a));
        let _ = f;
    }

    #[test]
    fn unknown_handle_errors() {
        let (mut engine, a, _, _) = engine_with_three();
        let ghost = CommunityHandle(99);
        assert!(matches!(
            engine.similarity(a, ghost),
            Err(EngineError::UnknownCommunity(99))
        ));
        assert!(engine.screen(ghost, &[a]).is_err());
        assert!(engine.upsert_user(ghost, 1, &[1, 1]).is_err());
    }

    #[test]
    fn zero_join_budget_skips_all_candidates() {
        let (engine, a, n, f) = engine_with_three();
        let budget = Budget::unlimited().with_max_joins(0);
        let partial = engine.screen_with_budget(a, &[n, f], &budget).unwrap();
        assert!(partial.value.shortlisted.is_empty());
        assert!(partial.value.rejected.is_empty());
        assert_eq!(partial.value.skipped.len(), 2);
        let marker = partial.exhausted.expect("budget must be exhausted");
        assert_eq!(marker.reason, ExhaustReason::MaxJoins);
        assert_eq!(marker.pairs_done, 0);
        assert_eq!(marker.pairs_skipped, 2);
    }

    #[test]
    fn max_joins_budget_truncates_refinement() {
        let (engine, a, _, _) = engine_with_three();
        // Two screen joins exhaust the budget before refinement starts.
        let budget = Budget::unlimited().with_max_joins(2);
        let partial = engine
            .query(&Query::TopK { x: a, k: 2 }, Exactness::Exact, &budget)
            .unwrap();
        assert_eq!(
            partial.value,
            Answer::Ranking(Vec::new()),
            "no refine join was admitted"
        );
        let marker = partial.exhausted.expect("budget must be exhausted");
        assert_eq!(marker.reason, ExhaustReason::MaxJoins);
        assert_eq!(marker.pairs_done, 2);
        assert_eq!(marker.pairs_skipped, 1, "the shortlisted refine");
    }

    #[test]
    fn zero_deadline_sweep_degrades_and_resumes() {
        let (engine, _a, _n, _f) = engine_with_three();
        let spent = Budget::unlimited().with_deadline(Duration::ZERO);
        let partial = sweep(&engine, 0.5, Exactness::Exact, &spent, None);
        assert!(partial.value.pairs.is_empty());
        let marker = partial.exhausted.expect("budget must be exhausted");
        assert_eq!(marker.reason, ExhaustReason::Deadline);
        assert_eq!(marker.pairs_done, 0);
        assert_eq!(marker.pairs_skipped, 3, "all of C(3,2) pairs unprocessed");
        let cursor = partial.value.cursor.expect("resume point");

        // Resuming with a fresh unlimited budget completes the sweep and
        // matches the unbudgeted result exactly.
        let resumed = sweep(
            &engine,
            0.5,
            Exactness::Exact,
            &Budget::unlimited(),
            Some(cursor),
        );
        assert!(resumed.is_complete());
        assert!(resumed.value.cursor.is_none());
        assert!(resumed.value.failed.is_empty());
        let full = engine.pairs_above(0.5).unwrap();
        assert_eq!(resumed.value.pairs, full);
    }

    #[test]
    fn pre_cancelled_budget_reports_cancelled() {
        let (engine, a, n, f) = engine_with_three();
        let budget = Budget::unlimited();
        budget.cancel();
        let partial = engine.screen_with_budget(a, &[n, f], &budget).unwrap();
        assert_eq!(partial.value.skipped.len(), 2);
        assert_eq!(
            partial.exhausted.expect("exhausted").reason,
            ExhaustReason::Cancelled
        );
    }

    #[test]
    fn remaining_pairs_counts_the_tail() {
        // n = 4 handles, 6 pairs total.
        let all = CsjEngine::remaining_pairs(4, PairsCursor { i: 0, j: 1 });
        assert_eq!(all, 6);
        assert_eq!(CsjEngine::remaining_pairs(4, PairsCursor { i: 0, j: 3 }), 4);
        assert_eq!(CsjEngine::remaining_pairs(4, PairsCursor { i: 2, j: 3 }), 1);
    }

    /// Every canonical pair from `from` on, in lexicographic order.
    fn pairs_from(n: u32, from: (u32, u32)) -> Vec<(u32, u32)> {
        (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .filter(|&pair| pair >= from)
            .collect()
    }

    proptest::proptest! {
        /// The sweep's task grid covers every pair at or after the
        /// cursor exactly once, keeps each task in canonical order and
        /// queues tasks by their first pair, for any masses and cursor.
        #[test]
        fn pair_tasks_partition_the_remaining_pairs(
            masses in proptest::collection::vec(1u64..10_000, 0..24),
            cursor in (0u32..24, 0u32..24),
            workers in 1usize..6,
        ) {
            let n = masses.len() as u32;
            let from = (cursor.0, cursor.0 + 1 + cursor.1);
            let tasks = CsjEngine::plan_pair_tasks(&masses, from, pair_task_target(workers, workers));
            let mut seen: Vec<(u32, u32)> = tasks.iter().flatten().copied().collect();
            for task in &tasks {
                proptest::prop_assert!(!task.is_empty());
                proptest::prop_assert!(task.windows(2).all(|w| w[0] < w[1]), "task unsorted");
            }
            proptest::prop_assert!(tasks.windows(2).all(|w| w[0][0] < w[1][0]), "queue order");
            seen.sort_unstable();
            let expected = pairs_from(n, from);
            proptest::prop_assert_eq!(seen.len(), expected.len(), "a pair landed twice");
            proptest::prop_assert_eq!(seen, expected);
        }

        /// On a pool of more than one worker, a sweep starting at a row
        /// boundary gets at least two tasks per worker whenever it has
        /// that many pairs, so no worker idles for want of work.
        #[test]
        fn pair_tasks_give_each_worker_two(
            masses in proptest::collection::vec(1u64..10_000, 2..24),
            row in 0u32..24,
            workers in 2usize..6,
        ) {
            let n = masses.len() as u32;
            let from = (row % (n - 1), row % (n - 1) + 1);
            let tasks = CsjEngine::plan_pair_tasks(&masses, from, pair_task_target(workers, workers));
            let want = (2 * workers).min(pairs_from(n, from).len());
            proptest::prop_assert!(
                tasks.len() >= want,
                "{} tasks for {} workers over {} pairs", tasks.len(), workers, pairs_from(n, from).len()
            );
        }
    }

    #[test]
    fn one_worker_keeps_one_task_per_shard() {
        let masses = [5u64, 9, 2, 7, 3, 8];
        assert_eq!(
            CsjEngine::plan_pair_tasks(&masses, (0, 1), pair_task_target(1, 1)).len(),
            1
        );
        assert_eq!(
            CsjEngine::plan_pair_tasks(&masses, (0, 1), pair_task_target(2, 2)).len(),
            6
        );
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CsjEngine>();
    }

    #[test]
    fn concurrent_queries_share_the_engine() {
        let (engine, a, n, f) = engine_with_three();
        let expected = engine.similarity(a, n).unwrap();
        let engine = Arc::new(engine);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let engine = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10 {
                    assert_eq!(engine.similarity(a, n).unwrap(), expected);
                    let top = engine.top_k_similar(a, 5).unwrap();
                    assert_eq!(top[0].y, n);
                    let _ = engine.pairs_above(0.5).unwrap();
                    let _ = f;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = engine.stats();
        assert_eq!(stats.communities, 3);
        assert!(stats.cache_hits > 0, "cached pair must be reused");
    }

    #[test]
    fn similarity_admission_honours_the_budget() {
        let (engine, a, n, f) = engine_with_three();
        let exact = engine.similarity(a, n).unwrap();
        let joins = engine.stats().joins_executed;
        let spent = Budget::unlimited().with_max_joins(0);
        let ask = |y, method, exactness| {
            let query = Query::Similarity { x: a, y, method };
            engine.query(&query, exactness, &spent).unwrap()
        };

        // A cached score is served whatever the budget.
        let cached = ask(n, None, Exactness::Exact);
        assert_eq!(cached.value, Answer::Similarity(exact));
        assert!(cached.is_complete());

        // An uncached join is not admitted: no matches, typed exhaustion.
        for (y, method, exactness) in [
            (f, None, Exactness::Exact),
            (n, Some(CsjMethod::ExBaseline), Exactness::Any),
            (n, None, Exactness::Approximate),
        ] {
            let refused = ask(y, method, exactness);
            assert_eq!(refused.value, Answer::Similarity(Similarity::new(0, 4)));
            let marker = refused.exhausted.expect("typed exhaustion");
            assert_eq!(marker.reason, ExhaustReason::MaxJoins);
            assert_eq!((marker.pairs_done, marker.pairs_skipped), (0, 1));
        }
        assert_eq!(engine.stats().joins_executed, joins, "no join ran");
        let trace = engine.traces(1).pop().expect("recorded");
        assert_eq!(trace.outcome, "exhausted:max-joins");
        let snap = engine.metrics_snapshot();
        let by_reason = [("reason", "max-joins")];
        assert_eq!(
            snap.counter_value("csj_budget_exhausted_total", &by_reason),
            3
        );
    }

    #[test]
    fn screen_partition_names_each_failed_candidate() {
        let (mut engine, a, n, f) = engine_with_three();
        engine.inject_faults(FaultPlan::new().panic_on(n.0).error_on(f.0));
        let outcome = engine
            .screen(a, &[n, f])
            .expect("failures are per candidate");
        assert!(outcome.shortlisted.is_empty() && outcome.rejected.is_empty());
        assert!(outcome.inadmissible.is_empty() && outcome.skipped.is_empty());
        let [(panicked, panic), (faulted, fault)] = &outcome.failed[..] else {
            panic!("two failed candidates, got {:?}", outcome.failed);
        };
        assert_eq!((*panicked, *faulted), (n, f));
        match panic {
            EngineError::JoinPanicked { handle, message } => {
                assert_eq!(*handle, n.0);
                assert!(message.contains("injected fault"), "got: {message}");
            }
            other => panic!("expected JoinPanicked, got {other:?}"),
        }
        assert_eq!(*fault, EngineError::Faulted { handle: f.0 });

        // Healed, every candidate scores; nothing stale was cached.
        engine.clear_faults();
        let healthy = engine.screen(a, &[n, f]).unwrap();
        assert!(healthy.failed.is_empty());
        assert_eq!(healthy.shortlisted.len() + healthy.rejected.len(), 2);
    }

    #[test]
    fn similarity_with_counterpart_matches_and_skips_cache() {
        let (engine, a, n, _) = engine_with_three();
        let exact = engine.similarity_with(a, n, CsjMethod::ExMinMax).unwrap();
        assert_eq!(exact.matched, 3);
        assert_eq!(engine.stats().cached_pairs, 1, "exact path is cached");
        let ap = engine.similarity_with(a, n, CsjMethod::ApMinMax).unwrap();
        assert!(
            ap.matched <= exact.matched,
            "Ap never over-counts: {ap:?} vs {exact:?}"
        );
        assert!(
            2 * ap.matched >= exact.matched,
            "greedy matching is within 2x: {ap:?} vs {exact:?}"
        );
        assert_eq!(
            engine.stats().cached_pairs,
            1,
            "degraded join must not touch the exact cache"
        );
    }

    #[test]
    fn approx_sweep_is_a_sound_lower_bound() {
        let (engine, a, n, _) = engine_with_three();
        let approx = sweep(
            &engine,
            0.5,
            Exactness::Approximate,
            &Budget::unlimited(),
            None,
        );
        assert!(approx.is_complete());
        let exact = engine.pairs_above(0.5).unwrap();
        // Every pair the degraded sweep reports truly clears the
        // threshold (no false positives).
        for p in &approx.value.pairs {
            assert!(exact
                .iter()
                .any(|q| (q.x == p.x && q.y == p.y) || (q.x == p.y && q.y == p.x)));
            assert!(p.similarity.ratio() >= 0.5);
        }
        // On this dataset the Ap score finds the one similar pair too.
        assert_eq!(approx.value.pairs.len(), 1);
        let _ = (a, n);
    }

    #[test]
    fn panic_message_extracts_common_payloads() {
        let p = catch_unwind(|| panic!("plain &str")).unwrap_err();
        assert_eq!(panic_message(p), "plain &str");
        let p = catch_unwind(|| panic!("formatted {}", 42)).unwrap_err();
        assert_eq!(panic_message(p), "formatted 42");
        let p = catch_unwind(|| std::panic::panic_any(7u8)).unwrap_err();
        assert_eq!(panic_message(p), "opaque panic payload");
    }
}
