//! The serving layer: compile once, serve many.
//!
//! Sympiler's economics come from reuse — symbolic analysis is paid
//! once per sparsity pattern, then amortized over every numeric
//! factorization with that pattern. This module packages that reuse
//! for request-stream workloads (circuit transients, Newton loops,
//! parameter sweeps) where the caller cannot or should not manage
//! plan lifetimes by hand:
//!
//! * [`PlanCache`] — a concurrent cache of compiled [`SympilerLu`]
//!   plans keyed by a structural hash of `(pattern, options)`, with
//!   LRU eviction bounded by entry count and resident table bytes.
//!   Lookups return `Arc<CachedPlan>`: the plan's gather tables are
//!   shared, never cloned, and N threads factor against one plan
//!   concurrently (per-factorization state lives in a
//!   [`LuWorkspace`], not the plan).
//!
//!   **What the key covers.** The pattern — dimensions, every
//!   `col_ptr` word, every `row_idx` word, never a value — and the
//!   options' *compile key*: every [`SympilerOptions`] field that
//!   changes the compiled artefact, taken by exhaustive destructuring
//!   in `compile.rs` so a new field cannot be forgotten.
//!   `pivot_perturb` is in it (a perturbed plan carries a threshold —
//!   and escalation relies on the perturbed plan being its own entry).
//!   `profile` is not: the cache compiles every entry unprofiled and
//!   records its own traces through [`PlanCache::with_profiler`]. The
//!   four `recovery.*` fields are **run-time policy**: the service and
//!   `RobustLu` read them from the request, `compile` never does. Requests
//!   that differ only in those five fields share one plan.
//!
//!   **What a hit costs.** [`structural_hash`] folds the pattern's
//!   fingerprint ([`CscMatrix::pattern_fingerprint`], computed once per
//!   pattern allocation and kept in the shared pattern) with the
//!   compile key, so a request cloned from an earlier one never reads
//!   an index to find its plan; then one exact pattern check (identity
//!   first, chunked compare otherwise) and a compile-key comparison
//!   under the cache mutex. Moving the exact check outside the mutex
//!   (or sharding the lock) was measured and declined: it would save
//!   nothing uncontended — lookup minus hash is 7–8 µs.
//! * [`FactorService`] — a thread-pool front end accepting
//!   factor(+solve) requests, routing every request through one
//!   shared cache and per-worker workspaces.
//!
//! Batched numeric entry points live on the plan types themselves:
//! [`LuPlan::factor_batch`](crate::plan::lu::LuPlan::factor_batch)
//! (same-pattern batches, one matrix after another against one
//! workspace) and [`LuFactor::solve_batch`] (blocked multi-RHS
//! sweeps).
//!
//! Everything here is observational-layer honest: cached, batched,
//! and served results are **bitwise identical** to direct
//! [`SympilerLu::compile`] + [`SympilerLu::factor`] calls.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering as MemOrder};
use std::sync::mpsc::{self, TryRecvError, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::compile::{SympilerLu, SympilerOptions};
use crate::plan::lu::{LuFactor, LuPlanError, LuWorkspace};
use sympiler_obs::{Counter, Profiler, MAX_LANES};
use sympiler_sparse::CscMatrix;

/// Deterministic fault-injection hooks for the serving tier, used by
/// the robustness tests and `robust_bench` to prove that worker
/// failures neither hang a [`Ticket`] nor kill the [`FactorService`]
/// pool. Each `arm_*` call arms the *next* `n` jobs processed by any
/// worker; unarmed (the steady state) the hooks are two relaxed
/// atomic loads per job. Not part of the public API.
#[doc(hidden)]
pub mod fault {
    use std::sync::atomic::{AtomicUsize, Ordering};

    static PANICS: AtomicUsize = AtomicUsize::new(0);
    static DEATHS: AtomicUsize = AtomicUsize::new(0);

    /// Arm a *soft* fault: the next `n` jobs panic inside the
    /// worker's `catch_unwind` guard, so the ticket receives
    /// [`super::ServeError::WorkerPanic`] and the worker survives.
    pub fn arm_worker_panics(n: usize) {
        PANICS.store(n, Ordering::SeqCst);
    }

    /// Arm a *hard* fault: the next `n` jobs kill their worker thread
    /// outside the guard, so the ticket's reply sender is dropped
    /// (mapped to [`super::ServeError::Disconnected`]) and the pool
    /// respawns the worker on the next submit.
    pub fn arm_worker_deaths(n: usize) {
        DEATHS.store(n, Ordering::SeqCst);
    }

    /// Disarm both hooks (test hygiene between cases).
    pub fn disarm() {
        PANICS.store(0, Ordering::SeqCst);
        DEATHS.store(0, Ordering::SeqCst);
    }

    fn take(c: &AtomicUsize) -> bool {
        c.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok()
    }

    pub(super) fn maybe_panic() {
        if take(&PANICS) {
            panic!("injected worker panic (fault hook)");
        }
    }

    pub(super) fn maybe_die() {
        if take(&DEATHS) {
            panic!("injected worker death (fault hook)");
        }
    }
}

/// What a serving request can fail with — the typed surface a
/// [`Ticket`] resolves to. `Plan` wraps the numeric/compile errors of
/// the pipeline; the other variants are serving-infrastructure
/// failures, which is exactly why they are distinct: a caller retries
/// a `WorkerPanic` or `Timeout`, but not a `Plan(ZeroPivot)`.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Compilation or factorization failed (root cause via
    /// [`std::error::Error::source`]).
    Plan(LuPlanError),
    /// The worker processing this request panicked; the panic was
    /// isolated and the worker kept serving.
    WorkerPanic {
        /// The panic payload, when it was a string.
        detail: String,
    },
    /// The worker died (or the service was dropped) before replying —
    /// the reply channel disconnected. The request may or may not
    /// have executed.
    Disconnected,
    /// [`Ticket::wait_timeout`] gave up waiting.
    Timeout {
        /// How long the caller waited.
        waited: Duration,
    },
    /// The job queue already held [`QUEUE_CAPACITY`] requests: this one
    /// was refused at submit and never ran. Retry once tickets drain.
    Overloaded,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Plan(e) => write!(f, "serve: {e}"),
            ServeError::WorkerPanic { detail } => {
                write!(f, "serving worker panicked: {detail}")
            }
            ServeError::Disconnected => f.write_str("serving worker disconnected before replying"),
            ServeError::Timeout { waited } => {
                write!(f, "serve reply timed out after {waited:?}")
            }
            ServeError::Overloaded => {
                write!(
                    f,
                    "serving queue full ({QUEUE_CAPACITY} jobs): request refused"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Plan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LuPlanError> for ServeError {
    fn from(e: LuPlanError) -> Self {
        ServeError::Plan(e)
    }
}

/// Fixed FNV-1a offset basis and prime: no `RandomState`, so keys — and
/// the hit rates the benches report — repeat across runs and platforms.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds the pattern's fingerprint lanes
/// ([`CscMatrix::pattern_fingerprint`]) and the derived `Hash` of the
/// options' compile key
/// into the 64-bit cache key: FNV-1a over whole words, then the splitmix64
/// finalizer so every input bit reaches every key bit. `usize` fields
/// are widened to 64 bits, keeping keys equal across pointer widths.
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(FNV_PRIME);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The cache key: a 64-bit digest of the sparsity pattern (dimensions,
/// column pointers, row indices — **not** values) and of the options'
/// compile key — every field of [`SympilerOptions`] that changes the
/// compiled artefact, and none of the run-time recovery policy. Two
/// requests whose matrices share a pattern and whose compile keys
/// compare equal always hash equal; the converse is only
/// probabilistic, which is why [`PlanCache`] verifies candidates with
/// an exact pattern check and a compile-key comparison before
/// reporting a hit.
///
/// The pattern half is the fingerprint its shared pattern keeps, so
/// only the first hash of a pattern allocation reads its indices; a
/// request cloned from an earlier one costs a fold of four words and
/// the compile key.
pub fn structural_hash(a: &CscMatrix, opts: &SympilerOptions) -> u64 {
    let mut h = KeyHasher(FNV_OFFSET);
    for lane in a.pattern_fingerprint() {
        h.write_u64(lane);
    }
    opts.compile_key().hash(&mut h);
    h.finish()
}

/// Capacity bounds for a [`PlanCache`]. Eviction triggers when
/// **either** bound is exceeded and always keeps at least one entry
/// (a cache that cannot hold the plan it just compiled would thrash
/// forever).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum resident plans (0 = unbounded by count).
    pub max_entries: usize,
    /// Maximum summed [`table_bytes`](crate::plan::lu::LuPlan::table_bytes)
    /// across resident plans (0 = unbounded by size).
    pub max_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            max_entries: 64,
            max_bytes: 256 << 20, // 256 MiB of compiled tables
        }
    }
}

/// A cache-resident compiled plan: the [`SympilerLu`] plus the key
/// and options it was admitted under and its charged byte footprint.
/// Derefs to [`SympilerLu`], so `plan.factor(&a)`,
/// `plan.factor_with(&a, &mut ws)`, and `plan.factor_batch(&refs)`
/// all work directly on the `Arc<CachedPlan>` handles the cache hands
/// out — shared, immutable, never cloned per request.
#[derive(Debug)]
pub struct CachedPlan {
    lu: SympilerLu,
    key: u64,
    opts: SympilerOptions,
    bytes: usize,
}

impl CachedPlan {
    /// The structural hash this plan is filed under.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The options the plan was compiled with: the compiling request's
    /// with `profile` off. Its `recovery` policy is not cache identity,
    /// so later requests served by this plan may carry a different one.
    pub fn options(&self) -> &SympilerOptions {
        &self.opts
    }

    /// Bytes of compiled tables the cache charges this entry for.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The compiled pipeline itself (also reachable via `Deref`).
    pub fn lu(&self) -> &SympilerLu {
        &self.lu
    }
}

impl std::ops::Deref for CachedPlan {
    type Target = SympilerLu;
    fn deref(&self) -> &SympilerLu {
        &self.lu
    }
}

struct Entry {
    plan: Arc<CachedPlan>,
    last_use: u64,
}

#[derive(Default)]
struct CacheInner {
    /// Hash buckets: collisions coexist as a short in-bucket list and
    /// are disambiguated by exact pattern + options checks.
    buckets: HashMap<u64, Vec<Entry>>,
    entries: usize,
    bytes: usize,
    /// Keys some thread is compiling right now (a handful at most).
    /// Filed by hash alone: a waiter re-runs the exact lookup when the
    /// flight lands, so a colliding key costs it a wait, never a wrong
    /// plan.
    in_flight: Vec<u64>,
}

/// What a miss-aware lookup found, decided under one hold of the lock.
enum Lookup<'a> {
    /// A resident plan matches exactly.
    Hit(Arc<CachedPlan>),
    /// Nothing resident, nobody compiling: the caller compiles.
    Claimed(Flight<'a>),
    /// Another thread is compiling this key.
    InFlight,
}

/// The right (and duty) to compile one key. Dropping it — after
/// admitting the plan, on a compile error, or while unwinding from a
/// panic — retires the claim and wakes every waiter; a waiter that
/// then finds no plan resident claims the key and compiles itself.
struct Flight<'a> {
    cache: &'a PlanCache,
    key: u64,
}

impl Drop for Flight<'_> {
    fn drop(&mut self) {
        let mut inner = self.cache.lock_inner();
        if let Some(at) = inner.in_flight.iter().position(|&k| k == self.key) {
            inner.in_flight.swap_remove(at);
        }
        drop(inner);
        self.cache.landed.notify_all();
    }
}

/// Point-in-time counters of a [`PlanCache`] (monotonic except
/// `entries`/`bytes`, which track current residency).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered by a resident plan.
    pub hits: u64,
    /// Requests that had to compile.
    pub misses: u64,
    /// Plans evicted under capacity pressure.
    pub evictions: u64,
    /// Currently resident plans.
    pub entries: usize,
    /// Currently resident compiled-table bytes.
    pub bytes: usize,
}

impl CacheStats {
    /// `hits / (hits + misses)`, 0.0 before any traffic.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A concurrent, bounded cache of compiled LU pipelines, keyed by
/// [`structural_hash`] and verified exactly on every hit.
///
/// Compilation happens **outside** the cache lock — a slow compile on
/// one pattern never blocks hits on others — and is **single-flight**:
/// the first thread to miss on a key compiles it, threads that miss on
/// the same key meanwhile wait and take its plan, so N concurrent
/// identical misses cost one compile. Waiters count as misses (they
/// paid compile latency) and also under `serve.cache.coalesced`; if
/// the compile fails they compile for themselves. Eviction is LRU over
/// a global use tick, bounded by [`CacheConfig`].
///
/// ```
/// use std::sync::Arc;
/// use sympiler_core::serve::{CacheConfig, PlanCache};
/// use sympiler_core::SympilerOptions;
/// use sympiler_sparse::gen;
///
/// let cache = PlanCache::new(CacheConfig::default());
/// let mut a = gen::circuit_unsym(40, 4, 2, 7);
/// let opts = SympilerOptions::default();
///
/// let p1 = cache.get_or_compile(&a, &opts)?; // miss: compiles
/// for v in a.values_mut() {
///     *v *= 2.0; // values change, pattern fixed
/// }
/// let p2 = cache.get_or_compile(&a, &opts)?; // hit: same plan
/// assert!(Arc::ptr_eq(&p1, &p2));
///
/// let f = p2.factor(&a)?; // CachedPlan derefs to SympilerLu
/// assert!(f.l().nnz() > 0);
/// let s = cache.stats();
/// assert_eq!((s.hits, s.misses), (1, 1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct PlanCache {
    inner: Mutex<CacheInner>,
    /// Signalled whenever an in-flight compile retires.
    landed: Condvar,
    config: CacheConfig,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Observability sink: `serve.cache.*` counters land here. A
    /// disabled profiler (the default) makes every hook a no-op.
    profiler: Arc<Profiler>,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("PlanCache")
            .field("config", &self.config)
            .field("stats", &s)
            .finish()
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new(CacheConfig::default())
    }
}

impl PlanCache {
    /// An empty cache with the given capacity bounds and no profiler.
    pub fn new(config: CacheConfig) -> Self {
        Self::with_profiler(config, Arc::new(Profiler::disabled()))
    }

    /// An empty cache whose hit/miss/eviction counters also land on
    /// `profiler` as `serve.cache.hit` / `serve.cache.miss` /
    /// `serve.cache.eviction` — the same [`Profiler`] machinery the
    /// numeric phase records kernel counters into, so one snapshot
    /// carries both.
    pub fn with_profiler(config: CacheConfig, profiler: Arc<Profiler>) -> Self {
        Self {
            inner: Mutex::new(CacheInner::default()),
            landed: Condvar::new(),
            config,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            profiler,
        }
    }

    /// The capacity bounds this cache enforces.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Lock the cache state, recovering from poison: a thread that
    /// panicked mid-mutation (e.g. an injected worker fault during
    /// `admit`) may have left `entries`/`bytes` out of sync with the
    /// buckets, so on poison both are re-derived from the buckets —
    /// the buckets themselves are always structurally valid because
    /// every mutation either pushes a complete entry or removes one.
    fn lock_inner(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(|p| self.recover(p))
    }

    /// The poison recovery behind [`Self::lock_inner`].
    fn recover<'a>(
        &self,
        poisoned: PoisonError<MutexGuard<'a, CacheInner>>,
    ) -> MutexGuard<'a, CacheInner> {
        let mut inner = poisoned.into_inner();
        inner.entries = inner.buckets.values().map(Vec::len).sum();
        inner.bytes = inner.buckets.values().flatten().map(|e| e.plan.bytes).sum();
        self.inner.clear_poison();
        self.profiler.counter("serve.cache.poison_recovered").add(1);
        inner
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let (entries, bytes) = {
            let inner = self.lock_inner();
            (inner.entries, inner.bytes)
        };
        CacheStats {
            hits: self.hits.load(MemOrder::Relaxed),
            misses: self.misses.load(MemOrder::Relaxed),
            evictions: self.evictions.load(MemOrder::Relaxed),
            entries,
            bytes,
        }
    }

    /// Number of resident plans.
    pub fn len(&self) -> usize {
        self.lock_inner().entries
    }

    /// True when no plan is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every resident plan (counters keep their totals).
    pub fn clear(&self) {
        let mut inner = self.lock_inner();
        inner.buckets.clear();
        inner.entries = 0;
        inner.bytes = 0;
        self.publish_residency(&inner);
    }

    /// Mirror current residency onto the profiler as *live* gauges, so
    /// eviction pressure is visible in traces and metrics snapshots
    /// without polling [`stats`](Self::stats).
    fn publish_residency(&self, inner: &CacheInner) {
        self.profiler
            .set_gauge("serve.cache.entries", inner.entries as f64);
        self.profiler
            .set_gauge("serve.cache.bytes", inner.bytes as f64);
    }

    /// The plan for `(a's pattern, opts)` — resident if cached,
    /// compiled (and admitted) otherwise. A hit requires the exact
    /// compiled pattern and equal compile-relevant options (everything
    /// but `profile` and `recovery`), not just a matching hash; values
    /// of `a` are irrelevant. The plan is compiled unprofiled. Returns
    /// the same `Arc` to every concurrent caller of the same key, so
    /// gather tables exist once regardless of thread count.
    pub fn get_or_compile(
        &self,
        a: &CscMatrix,
        opts: &SympilerOptions,
    ) -> Result<Arc<CachedPlan>, LuPlanError> {
        self.get_or_compile_on_lane(a, opts, 0)
    }

    /// [`get_or_compile`](Self::get_or_compile), recording its
    /// `cache-lookup` / `compile-wait` / `compile` spans on the given lane —
    /// the entry point [`FactorService`] workers use so each request's
    /// cache time lands on that worker's own trace lane.
    pub fn get_or_compile_on_lane(
        &self,
        a: &CscMatrix,
        opts: &SympilerOptions,
        lane: usize,
    ) -> Result<Arc<CachedPlan>, LuPlanError> {
        // The span covers the hash: it is part of what a lookup costs.
        let span = self.profiler.begin(lane, "cache-lookup");
        let key = structural_hash(a, opts);
        let now = self.tick.fetch_add(1, MemOrder::Relaxed);
        let found = self.lookup(key, a, opts, now, false);
        let hit = matches!(found, Lookup::Hit(_));
        self.profiler.end_with(span, &[("hit", hit as u64 as f64)]);
        if let Lookup::Hit(plan) = found {
            self.hits.fetch_add(1, MemOrder::Relaxed);
            self.profiler.counter("serve.cache.hit").add(1);
            return Ok(plan);
        }
        self.misses.fetch_add(1, MemOrder::Relaxed);
        self.profiler.counter("serve.cache.miss").add(1);
        let flight = match found {
            Lookup::Claimed(flight) => flight,
            _ => {
                self.profiler.counter("serve.cache.coalesced").add(1);
                let span = self.profiler.begin(lane, "compile-wait");
                let landed = self.lookup(key, a, opts, now, true);
                self.profiler.end(span);
                match landed {
                    Lookup::Hit(plan) => return Ok(plan),
                    Lookup::Claimed(flight) => flight,
                    Lookup::InFlight => unreachable!("a waiting lookup hits or claims"),
                }
            }
        };
        // Compile outside the lock so a slow symbolic phase on one
        // pattern never serializes hits on others. Unprofiled whatever
        // the request says: `profile` is not in the key, so this entry
        // serves profiled and unprofiled requests alike.
        let opts = SympilerOptions {
            profile: false,
            ..opts.clone()
        };
        let span = self.profiler.begin(lane, "compile");
        let compiled = SympilerLu::compile(a, &opts);
        self.profiler
            .end_with(span, &[("ok", compiled.is_ok() as u64 as f64)]);
        let lu = compiled?;
        let plan = Arc::new(CachedPlan {
            key,
            opts,
            bytes: lu.table_bytes(),
            lu,
        });
        self.admit(now, Arc::clone(&plan));
        drop(flight);
        Ok(plan)
    }

    /// Under one hold of the lock: scan the key's bucket for an entry
    /// whose compiled pattern and options match exactly; failing that,
    /// claim the key if nobody is compiling it. With `wait`, a key in
    /// flight blocks until its compile retires and the scan repeats,
    /// so the answer is never [`Lookup::InFlight`].
    fn lookup(
        &self,
        key: u64,
        a: &CscMatrix,
        opts: &SympilerOptions,
        now: u64,
        wait: bool,
    ) -> Lookup<'_> {
        let compile_key = opts.compile_key();
        let mut inner = self.lock_inner();
        loop {
            if let Some(bucket) = inner.buckets.get_mut(&key) {
                for e in bucket.iter_mut() {
                    if e.plan.opts.compile_key() == compile_key
                        && e.plan.lu.plan().check_pattern(a).is_ok()
                    {
                        e.last_use = now;
                        return Lookup::Hit(e.plan.clone());
                    }
                }
            }
            if !inner.in_flight.contains(&key) {
                inner.in_flight.push(key);
                return Lookup::Claimed(Flight { cache: self, key });
            }
            if !wait {
                return Lookup::InFlight;
            }
            inner = self.landed.wait(inner).unwrap_or_else(|p| self.recover(p));
        }
    }

    /// Insert a freshly compiled plan under its key. The caller holds
    /// the key's [`Flight`], so no equivalent plan can be resident.
    fn admit(&self, now: u64, plan: Arc<CachedPlan>) {
        let mut inner = self.lock_inner();
        inner.entries += 1;
        inner.bytes += plan.bytes;
        inner.buckets.entry(plan.key).or_default().push(Entry {
            plan,
            last_use: now,
        });
        self.evict_locked(&mut inner);
        self.publish_residency(&inner);
    }

    /// LRU eviction down to the configured bounds, never below one
    /// resident entry. Called with the lock held.
    fn evict_locked(&self, inner: &mut CacheInner) {
        let over = |inner: &CacheInner| {
            (self.config.max_entries > 0 && inner.entries > self.config.max_entries)
                || (self.config.max_bytes > 0 && inner.bytes > self.config.max_bytes)
        };
        while inner.entries > 1 && over(inner) {
            // O(entries) scan for the oldest use tick — entry counts
            // are small (bounded by config), the scan is cheaper than
            // maintaining an ordered side structure under churn.
            let mut oldest: Option<(u64, u64)> = None; // (last_use, key)
            for (&key, bucket) in &inner.buckets {
                for e in bucket {
                    if oldest.is_none_or(|(t, _)| e.last_use < t) {
                        oldest = Some((e.last_use, key));
                    }
                }
            }
            let Some((tick, key)) = oldest else { break };
            let bucket = inner.buckets.get_mut(&key).expect("key from scan");
            let idx = bucket
                .iter()
                .position(|e| e.last_use == tick)
                .expect("entry from scan");
            let victim = bucket.swap_remove(idx);
            if bucket.is_empty() {
                inner.buckets.remove(&key);
            }
            inner.entries -= 1;
            inner.bytes -= victim.plan.bytes;
            self.evictions.fetch_add(1, MemOrder::Relaxed);
            self.profiler.counter("serve.cache.eviction").add(1);
            self.profiler.journal().emit(
                "cache.eviction",
                &[
                    ("bytes", victim.plan.bytes as f64),
                    ("resident", inner.entries as f64),
                ],
                &[("key", format!("{key:#018x}").as_str())],
            );
        }
    }
}

/// One unit of serving work: factor `a` under `opts` (through the
/// shared [`PlanCache`]), then solve for each supplied right-hand
/// side via the blocked multi-RHS sweep.
pub struct ServeRequest {
    /// The matrix to factor (values fresh per request, pattern
    /// typically shared across the stream).
    pub a: CscMatrix,
    /// Compile options — part of the cache key, except `profile`
    /// (served plans are compiled unprofiled; the service traces
    /// through its cache's profiler) and the `recovery` policy, which
    /// is read while this request runs.
    pub opts: SympilerOptions,
    /// Right-hand sides to solve after factoring (may be empty).
    pub rhs: Vec<Vec<f64>>,
}

/// What a [`ServeRequest`] produces.
pub struct ServeResponse {
    /// The numeric factorization, bitwise identical to an uncached
    /// `compile()` + `factor()` of the same request.
    pub factor: LuFactor,
    /// One solution per requested right-hand side, in order.
    pub solutions: Vec<Vec<f64>>,
}

/// How long [`Ticket::wait`] polls for its reply before it parks in
/// `recv`. Covers a hit (0.4–0.7 ms on the `serve_churn` patterns) with
/// room to spare; a compile outlasts it and parks. Picked from the
/// sweep in ARCHITECTURE.md, "Concurrency".
const WAIT_SPIN: Duration = Duration::from_millis(1);

/// How long a worker polls the job queue after each reply before it
/// parks: long enough for a client that answers a reply with its next
/// request, short enough that an idle pool stops spinning at once.
const QUEUE_SPIN: Duration = Duration::from_micros(200);

/// Whether a pool of `n_workers` may spin: only when it leaves a core
/// for the client. On fewer cores a spinning waiter takes the core its
/// own worker needs, so the pool parks at once, as a blocking channel
/// would.
fn spin_gate(n_workers: usize, cores: usize) -> bool {
    n_workers < cores
}

/// Call `poll` until it returns `Some` or `budget` has passed, giving
/// the core away between calls. A zero budget never polls: the caller
/// parks at once, exactly as a plain blocking receive.
fn poll_for<T>(budget: Duration, mut poll: impl FnMut() -> Option<T>) -> Option<T> {
    if budget.is_zero() {
        return None;
    }
    let start = Instant::now();
    loop {
        if let Some(v) = poll() {
            return Some(v);
        }
        if start.elapsed() >= budget {
            return None;
        }
        std::thread::yield_now();
    }
}

/// A pending [`FactorService`] reply.
pub struct Ticket {
    id: u64,
    rx: mpsc::Receiver<Result<ServeResponse, ServeError>>,
    /// [`WAIT_SPIN`] when the pool leaves a core spare, zero otherwise.
    spin: Duration,
    /// `serve.wait.parked`: waits whose poll budget ran out.
    parked: Counter,
}

impl Ticket {
    /// The request id assigned at submit time. Request ids are unique
    /// per service and appear as the `req` argument on the request's
    /// span tree and in journal events, so a slow or failed ticket can
    /// be matched to its trace.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Block until the worker finishes this request. Never hangs on a
    /// dead worker and never panics: a dropped reply sender (worker
    /// died mid-request, or the service was dropped with the request
    /// still queued) resolves to [`ServeError::Disconnected`].
    ///
    /// The reply is polled for up to a fixed budget before the thread
    /// parks, so a fast request is picked up without a sleep and a
    /// wake-up; a pool that leaves no core spare parks at once.
    pub fn wait(self) -> Result<ServeResponse, ServeError> {
        if let Some(result) = poll_for(self.spin, || self.poll()) {
            return result;
        }
        self.parked.add(1);
        self.rx.recv().unwrap_or(Err(ServeError::Disconnected))
    }

    /// [`Self::wait`] with a deadline: gives up with
    /// [`ServeError::Timeout`] when no reply lands within `dur`. The
    /// ticket is consumed either way — a timed-out request's eventual
    /// result is discarded, exactly like a dropped ticket's. Polling
    /// never runs past the deadline.
    pub fn wait_timeout(self, dur: Duration) -> Result<ServeResponse, ServeError> {
        let start = Instant::now();
        if let Some(result) = poll_for(self.spin.min(dur), || self.poll()) {
            return result;
        }
        self.parked.add(1);
        match self.rx.recv_timeout(dur.saturating_sub(start.elapsed())) {
            Ok(result) => result,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ServeError::Timeout { waited: dur }),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServeError::Disconnected),
        }
    }

    /// The reply if it has landed (or can never land), without blocking.
    fn poll(&self) -> Option<Result<ServeResponse, ServeError>> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(TryRecvError::Disconnected) => Some(Err(ServeError::Disconnected)),
            Err(TryRecvError::Empty) => None,
        }
    }
}

struct Job {
    /// Request id (service-wide, assigned at submit).
    id: u64,
    /// Submit timestamp on the cache profiler's clock, so the worker
    /// can backdate the request's root span and carve out queue-wait.
    submit_ns: u64,
    req: ServeRequest,
    reply: mpsc::Sender<Result<ServeResponse, ServeError>>,
}

/// Profiler lane for worker `slot`. Lane 0 stays the main/submit
/// lane; worker `s` records on lane `s + 1`. Slots beyond the lane
/// budget share the last lane (graceful degradation, never a panic).
fn worker_lane(slot: usize) -> usize {
    (slot + 1).min(MAX_LANES - 1)
}

/// A thread-pool front end over a shared [`PlanCache`]: submit
/// [`ServeRequest`]s, collect [`Ticket`]s, wait for
/// [`ServeResponse`]s. Every worker holds one long-lived
/// [`LuWorkspace`] and factors against cache-shared plans — steady
/// state does no symbolic work and no per-request table or
/// accumulator allocation. Dropping the service drains the queue and
/// joins the workers.
///
/// Fault tolerance: each request executes under `catch_unwind`, so a
/// panicking request resolves its own ticket to
/// [`ServeError::WorkerPanic`] and the worker keeps serving. Should a
/// worker thread die outright (a panic that escapes the request
/// guard), its in-flight ticket resolves to
/// [`ServeError::Disconnected`] (never a hang) and a sentinel guard
/// running during the very unwind spawns the replacement worker into
/// the same slot — queued and future requests are always drained, with
/// no reliance on a later `submit` noticing the death (the OS marks a
/// thread finished strictly *after* its ticket is woken, so
/// submit-side `is_finished` sweeps race and can strand a job). When
/// [`crate::robust::RecoveryPolicy::serve_escalate`] is set on a
/// request's options, a factorization failure is retried once through
/// the recovery ladder's cheap rungs (pivot perturbation + iterative
/// refinement) before the error is returned.
///
/// Hand-off: when the pool leaves a core spare (`n_workers + 1 ≤`
/// [`std::thread::available_parallelism`]), an idle worker polls the
/// queue for a short budget after each reply and a waiting client polls
/// its reply ([`Ticket::wait`]) before either parks, so a request
/// stream that keeps the pool busy crosses threads without a sleep and
/// a wake-up. Budgets that run out are counted as `serve.queue.parked`
/// and `serve.wait.parked` on the cache's profiler. With no core spare
/// both sides park at once.
pub struct FactorService {
    tx: Option<mpsc::SyncSender<Job>>,
    /// One slot per worker; a sentinel overwrites its own slot with
    /// the replacement handle when its worker dies. The dead thread's
    /// handle is dropped (detached) — it is already past doing work.
    workers: Registry,
    /// Kept so respawned workers can join the same queue. Holding a
    /// receiver clone here also means the job channel only disconnects
    /// at drop, never because every worker died at once.
    #[allow(dead_code)]
    rx: Arc<Mutex<mpsc::Receiver<Job>>>,
    cache: Arc<PlanCache>,
    /// Monotonic request-id source (ids are handed out at submit).
    req_seq: AtomicU64,
    /// Whether workers and waiters poll before parking ([`spin_gate`]).
    spin: bool,
    /// `serve.wait.parked`, handed to every ticket.
    wait_parked: Counter,
}

type Registry = Arc<Mutex<Vec<Option<std::thread::JoinHandle<()>>>>>;

/// Requests a [`FactorService`] queues before it refuses more with
/// [`ServeError::Overloaded`]. A constant, not an option: far above
/// the tickets a caller that waits on them keeps in flight
/// (`serve_bench` submits 200, or 1000 at bench scale, before its
/// first wait), so only a caller that stops waiting reaches it, and
/// the queue's memory stays bounded either way.
pub const QUEUE_CAPACITY: usize = 1024;

/// Declared first in every worker closure, so its `Drop` runs during
/// the unwind of any panic that escapes the request guard: it spawns
/// a replacement worker into the dying worker's slot. Normal worker
/// exit (queue disconnected at service drop) does not respawn —
/// `thread::panicking()` is false.
struct Sentinel {
    slot: usize,
    rx: Arc<Mutex<mpsc::Receiver<Job>>>,
    cache: Arc<PlanCache>,
    registry: Registry,
    spin: bool,
}

impl Drop for Sentinel {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.cache.profiler.counter("serve.worker.respawn").add(1);
            self.cache.profiler.journal().emit(
                "worker.respawn",
                &[("slot", self.slot as f64)],
                &[],
            );
            let fresh = FactorService::spawn_worker(
                self.slot,
                &self.rx,
                &self.cache,
                &self.registry,
                self.spin,
            );
            self.registry.lock().unwrap_or_else(PoisonError::into_inner)[self.slot] = Some(fresh);
        }
    }
}

impl FactorService {
    /// Spawn `n_workers` serving threads (at least one) over `cache`.
    pub fn new(n_workers: usize, cache: Arc<PlanCache>) -> Self {
        let (tx, rx) = mpsc::sync_channel::<Job>(QUEUE_CAPACITY);
        let rx = Arc::new(Mutex::new(rx));
        let n = n_workers.max(1);
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let spin = spin_gate(n, cores);
        let workers: Registry = Arc::new(Mutex::new((0..n).map(|_| None).collect()));
        {
            // Register under the lock: a worker dying instantly blocks
            // in its sentinel until every slot holds its first handle,
            // so a replacement can never be clobbered by this loop.
            let mut reg = workers.lock().unwrap();
            for slot in 0..n {
                reg[slot] = Some(Self::spawn_worker(slot, &rx, &cache, &workers, spin));
            }
        }
        Self {
            tx: Some(tx),
            workers,
            rx,
            wait_parked: cache.profiler.counter("serve.wait.parked"),
            cache,
            req_seq: AtomicU64::new(0),
            spin,
        }
    }

    fn spawn_worker(
        slot: usize,
        rx: &Arc<Mutex<mpsc::Receiver<Job>>>,
        cache: &Arc<PlanCache>,
        registry: &Registry,
        spin: bool,
    ) -> std::thread::JoinHandle<()> {
        let rx = Arc::clone(rx);
        let cache = Arc::clone(cache);
        let registry = Arc::clone(registry);
        // Name this worker's trace lane. Lane = slot + 1, so a
        // respawned worker re-claims the *same* tid and the trace
        // stays readable across sentinel restarts. Named here, not on
        // the new thread, so the lane has its name once the service
        // exists, whether or not this worker ever gets to run.
        let lane = worker_lane(slot);
        cache.profiler.name_lane(lane, &format!("worker-{slot}"));
        std::thread::spawn(move || {
            let sentinel = Sentinel {
                slot,
                rx: Arc::clone(&rx),
                cache: Arc::clone(&cache),
                registry,
                spin,
            };
            let budget = if spin { QUEUE_SPIN } else { Duration::ZERO };
            let parked = cache.profiler.counter("serve.queue.parked");
            let mut ws = LuWorkspace::new();
            loop {
                // Hold the queue lock only for the dequeue; recover
                // the lock if a sibling died while holding it. Poll
                // before parking; `None` once the service is dropped
                // and the queue drained.
                let job = {
                    let queue = rx.lock().unwrap_or_else(PoisonError::into_inner);
                    let polled = poll_for(budget, || match queue.try_recv() {
                        Ok(job) => Some(Some(job)),
                        Err(TryRecvError::Disconnected) => Some(None),
                        Err(TryRecvError::Empty) => None,
                    });
                    polled.unwrap_or_else(|| {
                        parked.add(1);
                        queue.recv().ok()
                    })
                };
                let Some(job) = job else { break };
                // Hard-fault hook: dies here, after the queue lock is
                // released but before any reply — the ticket sees a
                // disconnect, exactly like a real worker death.
                fault::maybe_die();
                // Per-request span tree: the root spans submit → reply
                // (backdated to submit time), with queue-wait as its
                // first child and the run phases (cache-lookup /
                // compile / factor / solve / escalate) nesting under
                // it as they execute on this lane.
                let prof = &cache.profiler;
                let root = prof.begin_at(lane, "request", job.submit_ns);
                let queue = prof.begin_at(lane, "queue-wait", job.submit_ns);
                prof.end(queue);
                // Isolate the request: a panic anywhere in compile/
                // factor/solve resolves this ticket instead of
                // unwinding the worker. The workspace is plain
                // buffers the next request overwrites from scratch,
                // so reusing it across a caught panic is sound.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    fault::maybe_panic();
                    Self::run(&cache, &mut ws, &job.req, lane, job.id)
                }))
                .unwrap_or_else(|payload| {
                    cache.profiler.counter("serve.worker.panic").add(1);
                    let detail = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".into());
                    cache.profiler.journal().emit(
                        "worker.panic",
                        &[("slot", slot as f64), ("req", job.id as f64)],
                        &[("detail", detail.as_str())],
                    );
                    Err(ServeError::WorkerPanic { detail })
                });
                prof.end_with(
                    root,
                    &[("req", job.id as f64), ("ok", result.is_ok() as u64 as f64)],
                );
                // A dropped ticket just discards the response.
                let _ = job.reply.send(result);
            }
            drop(sentinel); // normal exit: explicitly not a respawn
        })
    }

    /// The shared plan cache (e.g. for [`PlanCache::stats`]).
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// Number of serving threads. The pool size is fixed: dead workers
    /// are replaced in-slot by their sentinels.
    pub fn n_workers(&self) -> usize {
        self.workers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Enqueue a request; the returned [`Ticket`] resolves when a
    /// worker has factored (and solved) it. Each submission is stamped
    /// with a service-wide request id ([`Ticket::id`]) and its submit
    /// time, from which the worker derives the queue-wait span. Submit
    /// never blocks: with [`QUEUE_CAPACITY`] jobs already queued the
    /// ticket resolves at once to [`ServeError::Overloaded`] (counted
    /// as `serve.overloaded`).
    pub fn submit(&self, req: ServeRequest) -> Ticket {
        let id = self.req_seq.fetch_add(1, MemOrder::Relaxed);
        let submit_ns = self.cache.profiler.now_ns();
        let (reply, rx) = mpsc::channel();
        let job = Job {
            id,
            submit_ns,
            req,
            reply,
        };
        match self
            .tx
            .as_ref()
            .expect("sender lives until drop")
            .try_send(job)
        {
            Ok(()) => {}
            Err(TrySendError::Full(job)) => {
                self.cache.profiler.counter("serve.overloaded").add(1);
                // The ticket holds the receiver: this send cannot fail.
                let _ = job.reply.send(Err(ServeError::Overloaded));
            }
            Err(TrySendError::Disconnected(_)) => {
                panic!("service holds a receiver until drop")
            }
        }
        Ticket {
            id,
            rx,
            spin: if self.spin { WAIT_SPIN } else { Duration::ZERO },
            parked: self.wait_parked.clone(),
        }
    }

    /// Submit and wait: one factor (+ solves) through the pool.
    pub fn call(&self, req: ServeRequest) -> Result<ServeResponse, ServeError> {
        self.submit(req).wait()
    }

    fn run(
        cache: &PlanCache,
        ws: &mut LuWorkspace,
        req: &ServeRequest,
        lane: usize,
        req_id: u64,
    ) -> Result<ServeResponse, ServeError> {
        let prof = &cache.profiler;
        let plan = cache.get_or_compile_on_lane(&req.a, &req.opts, lane)?;
        let span = prof.begin(lane, "factor");
        let factored = plan.factor_with(&req.a, ws);
        prof.end_with(span, &[("ok", factored.is_ok() as u64 as f64)]);
        let factor = match factored {
            Ok(f) => f,
            Err(e) if req.opts.recovery.serve_escalate => {
                return Self::escalate(cache, ws, req, e, lane, req_id);
            }
            Err(e) => return Err(e.into()),
        };
        let perturb = factor.perturb_report();
        if !perturb.is_empty() {
            prof.journal().emit(
                "pivot.perturbed",
                &[
                    ("req", req_id as f64),
                    ("columns", perturb.columns.len() as f64),
                    ("threshold", perturb.threshold),
                ],
                &[],
            );
        }
        let solutions = if req.rhs.is_empty() {
            Vec::new()
        } else {
            let span = prof.begin(lane, "solve");
            let s = factor.solve_batch(&req.rhs);
            prof.end_with(span, &[("n_rhs", req.rhs.len() as f64)]);
            s
        };
        Ok(ServeResponse { factor, solutions })
    }

    /// Per-request retry with escalation (opted in via
    /// [`crate::robust::RecoveryPolicy::serve_escalate`]): re-factor
    /// through the same cache with static pivot perturbation forced
    /// on, then repair every requested solve by iterative refinement
    /// against the request's matrix. Succeeds only when every solve
    /// reaches the policy's berr tolerance; otherwise the *original*
    /// factor error is returned, so escalation never masks the root
    /// cause with a worse answer.
    fn escalate(
        cache: &PlanCache,
        ws: &mut LuWorkspace,
        req: &ServeRequest,
        original: LuPlanError,
        lane: usize,
        req_id: u64,
    ) -> Result<ServeResponse, ServeError> {
        let prof = &cache.profiler;
        cache.profiler.counter("serve.escalate").add(1);
        prof.journal().emit(
            "serve.escalate",
            &[("req", req_id as f64)],
            &[("cause", format!("{original}").as_str())],
        );
        let span = prof.begin(lane, "escalate");
        let result = Self::escalate_inner(cache, ws, req, &original, lane);
        prof.end_with(
            span,
            &[
                ("req", req_id as f64),
                ("recovered", result.is_ok() as u64 as f64),
            ],
        );
        if result.is_ok() {
            cache.profiler.counter("serve.escalate.recovered").add(1);
            prof.journal()
                .emit("serve.escalate.recovered", &[("req", req_id as f64)], &[]);
        }
        result
    }

    fn escalate_inner(
        cache: &PlanCache,
        ws: &mut LuWorkspace,
        req: &ServeRequest,
        original: &LuPlanError,
        lane: usize,
    ) -> Result<ServeResponse, ServeError> {
        let mut opts = req.opts.clone();
        if opts.pivot_perturb == 0.0 {
            // √ε-scale: the conventional static-perturbation setting.
            opts.pivot_perturb = 1e-8;
        }
        let Ok(plan) = cache.get_or_compile_on_lane(&req.a, &opts, lane) else {
            return Err(original.clone().into());
        };
        let Ok(factor) = plan.factor_with(&req.a, ws) else {
            return Err(original.clone().into());
        };
        let policy = &req.opts.recovery;
        let mut solutions = Vec::with_capacity(req.rhs.len());
        for b in &req.rhs {
            let (x, report) =
                factor.solve_refined(&req.a, b, policy.berr_tol, policy.max_refine_iters);
            if !report.converged {
                return Err(original.clone().into());
            }
            solutions.push(x);
        }
        Ok(ServeResponse { factor, solutions })
    }
}

impl Drop for FactorService {
    fn drop(&mut self) {
        // Closing the channel lets workers drain the queue and exit.
        drop(self.tx.take());
        // `self.workers` is an Arc shared with the sentinels, so lock
        // rather than get_mut. Take the handles out before joining —
        // a sentinel firing mid-drop writes its replacement into the
        // emptied slot; that replacement sees the closed channel and
        // exits on its own (its handle is simply never joined).
        let handles: Vec<_> = self
            .workers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter_mut()
            .filter_map(Option::take)
            .collect();
        for w in handles {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympiler_sparse::gen;

    fn opts() -> SympilerOptions {
        SympilerOptions::default()
    }

    /// The [`fault`] hooks are process-global — they arm the next jobs
    /// of *any* worker — so every test here that runs a
    /// [`FactorService`] holds this lock.
    fn service_lock() -> MutexGuard<'static, ()> {
        static SERVICE_TESTS: Mutex<()> = Mutex::new(());
        SERVICE_TESTS.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn structural_hash_is_pattern_and_options_keyed() {
        let a = gen::circuit_unsym(50, 4, 2, 3);
        let mut a2 = a.clone();
        for v in a2.values_mut() {
            *v *= -3.5; // values must not matter
        }
        assert_eq!(structural_hash(&a, &opts()), structural_hash(&a2, &opts()));
        let b = gen::circuit_unsym(50, 4, 2, 4); // different pattern
        assert_ne!(structural_hash(&a, &opts()), structural_hash(&b, &opts()));
        let other = SympilerOptions {
            ordering: crate::Ordering::Colamd,
            ..opts()
        };
        assert_ne!(structural_hash(&a, &opts()), structural_hash(&a, &other));
    }

    /// "Reproducible across runs" as a test: the constants are fixed,
    /// so these keys may only change when the hash itself is changed on
    /// purpose (and then every cached-key artefact changes with it).
    /// Re-recorded when `CompileKey` shed the four options LU compile
    /// never reads (`vs_block`, `vi_prune`, `max_supernode_width`,
    /// `vs_block_min_avg_size`): the hashed key went from 16 fields to
    /// 12. Re-recorded again when the compiler's thresholds
    /// (`peel_col_count`, `max_panel`, `relax_fill`, `relax_cols`)
    /// became constants and `profile` left the key: 12 fields to 7.
    /// Re-recorded once more when the tier choice became the
    /// compiler's (`low_level` and `block_lu` left the options): 7
    /// fields to 5.
    #[test]
    fn structural_hash_keys_are_pinned() {
        let empty = CscMatrix::try_new(0, 0, vec![0], vec![], vec![]).unwrap();
        let a = gen::circuit_unsym(50, 4, 2, 3);
        let colamd = SympilerOptions {
            ordering: crate::Ordering::Colamd,
            ..opts()
        };
        assert_eq!(structural_hash(&empty, &opts()), 0x3366_d05b_d739_4cbe);
        assert_eq!(structural_hash(&a, &opts()), 0x6bb2_d152_5450_f728);
        assert_eq!(structural_hash(&a, &colamd), 0x5644_6b4c_33d9_7a14);
    }

    /// The key reads the pattern's kept fingerprint: a clone (which
    /// shares it) and a pattern rebuilt from fresh arrays (which computes
    /// its own) key alike, one row index or `n_rows` apart do not.
    #[test]
    fn structural_hash_is_shared_by_clones_and_rebuilt_patterns() {
        use crate::plan::pattern::{moved_one_row, rebuilt};
        let a = gen::circuit_unsym(50, 4, 2, 3);
        let key = structural_hash(&a, &opts());
        assert_eq!(structural_hash(&a.clone(), &opts()), key);
        assert_eq!(structural_hash(&rebuilt(&a), &opts()), key);
        assert_ne!(structural_hash(&moved_one_row(&a), &opts()), key);
        let (_, n_cols, col_ptr, row_idx, values) = a.clone().into_parts();
        let taller = CscMatrix::try_new(n_cols + 1, n_cols, col_ptr, row_idx, values).unwrap();
        assert_ne!(structural_hash(&taller, &opts()), key);
    }

    /// Every option that changes the compiled LU plan is identity;
    /// `profile`, which the cache compiles off, the recovery policy,
    /// read only while a request runs, and option values that compile
    /// the same plan as others are not.
    #[test]
    fn compile_fields_key_the_cache_and_recovery_fields_do_not() {
        let a = gen::circuit_unsym(40, 4, 2, 5);
        let cache = PlanCache::new(CacheConfig::default());
        let base = cache.get_or_compile(&a, &opts()).unwrap();
        let compile_flips: [fn(&mut SympilerOptions); 5] = [
            |o| o.n_threads = 2,
            |o| o.ordering = crate::Ordering::Rcm,
            |o| o.mc64_scale = true,
            |o| o.pre_pivot = crate::PrePivot::Transversal,
            |o| o.pivot_perturb = 1e-8,
        ];
        for (k, flip) in compile_flips.iter().enumerate() {
            let mut flipped = opts();
            flip(&mut flipped);
            assert_ne!(
                structural_hash(&a, &flipped),
                structural_hash(&a, &opts()),
                "compile field {k} must reach the hash"
            );
            let p = cache.get_or_compile(&a, &flipped).unwrap();
            assert!(!Arc::ptr_eq(&p, &base), "compile field {k} must miss");
            assert_eq!(cache.len(), k + 2, "…and file a distinct entry");
        }
        // Not identity: `profile`, which the cache compiles off, the
        // run-time recovery policy, and values that compile the base
        // plan (0 threads run as 1, a −0.0 tolerance is off).
        let shared_flips: [fn(&mut SympilerOptions); 7] = [
            |o| o.n_threads = 0,
            |o| o.pivot_perturb = -0.0,
            |o| o.profile = true,
            |o| o.recovery.berr_tol = 1e-6,
            |o| o.recovery.max_refine_iters = 3,
            |o| o.recovery.allow_refactor = false,
            |o| o.recovery.serve_escalate = true,
        ];
        let misses = cache.stats().misses;
        for (k, flip) in shared_flips.iter().enumerate() {
            let mut flipped = opts();
            flip(&mut flipped);
            // `Debug`, not `==`: −0.0 == 0.0, but the field differs.
            assert_ne!(
                format!("{flipped:?}"),
                format!("{:?}", opts()),
                "flip {k} changes the options"
            );
            assert_eq!(
                structural_hash(&a, &flipped),
                structural_hash(&a, &opts()),
                "non-identity field {k} must not reach the hash"
            );
            let p = cache.get_or_compile(&a, &flipped).unwrap();
            assert!(Arc::ptr_eq(&p, &base), "field {k} shares the base plan");
        }
        assert_eq!(cache.stats().misses, misses, "no such flip compiled");
        // A profiled request that compiles files the unprofiled plan.
        let fresh = PlanCache::new(CacheConfig::default());
        let profiled = SympilerOptions {
            profile: true,
            ..opts()
        };
        let p = fresh.get_or_compile(&a, &profiled).unwrap();
        assert!(!p.profiler().is_enabled() && !p.options().profile);
    }

    /// A perturbation tolerance the plan cannot use is the request's
    /// error, typed, on every path to a compile — not a worker panic.
    #[test]
    fn a_bad_pivot_perturb_is_a_typed_plan_error() {
        let _serial = service_lock();
        let a = gen::circuit_unsym(40, 4, 2, 5);
        let cache = Arc::new(PlanCache::new(CacheConfig::default()));
        let service = FactorService::new(1, Arc::clone(&cache));
        for tol in [-1e-8, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let bad = SympilerOptions {
                pivot_perturb: tol,
                ..opts()
            };
            let named = |e: &LuPlanError| match e {
                LuPlanError::BadInput(m) => m.contains(&tol.to_string()),
                _ => false,
            };
            let e = SympilerLu::compile(&a, &bad).unwrap_err();
            assert!(named(&e), "{tol}: compile gave {e:?}");
            let e = cache.get_or_compile(&a, &bad).unwrap_err();
            assert!(named(&e), "{tol}: cache gave {e:?}");
            let reply = service.call(ServeRequest {
                a: a.clone(),
                opts: bad,
                rhs: vec![vec![1.0; 40]],
            });
            match reply {
                Err(ServeError::Plan(e)) => assert!(named(&e), "{tol}: service gave {e:?}"),
                Err(e) => panic!("{tol}: service gave {e}"),
                Ok(_) => panic!("{tol}: service factored"),
            }
        }
        assert!(cache.is_empty(), "no failed compile is filed");
    }

    /// A row index that matches the compiled one only after truncation
    /// to 32 bits is a different pattern. Planted under a colliding key
    /// (the hash alone would never bring the two together), the exact
    /// check must reject it: a miss, and a typed error from the compile
    /// that follows — a hit would let the factorization index a baked
    /// map out of bounds.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_row_index_equal_only_mod_2_pow_32_is_a_miss() {
        let good = gen::circuit_unsym(40, 4, 2, 5);
        let mut rows = good.row_idx().to_vec();
        let last = good.col_ptr()[1] - 1; // last entry of column 0
        rows[last] += 1 << 32;
        let bad = CscMatrix::from_parts_unchecked(
            good.n_rows() + (1 << 32),
            good.n_cols(),
            good.col_ptr().to_vec(),
            rows,
            good.values().to_vec(),
        );
        let cache = PlanCache::new(CacheConfig::default());
        let lu = SympilerLu::compile(&good, &opts()).unwrap();
        cache.admit(
            0,
            Arc::new(CachedPlan {
                key: structural_hash(&bad, &opts()),
                opts: opts(),
                bytes: lu.table_bytes(),
                lu,
            }),
        );
        let err = cache.get_or_compile(&bad, &opts()).unwrap_err();
        assert!(matches!(err, LuPlanError::BadInput(_)), "{err}");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 1));
    }

    #[test]
    fn same_pattern_different_options_are_distinct_entries() {
        let a = gen::circuit_unsym(40, 4, 2, 5);
        let cache = PlanCache::new(CacheConfig::default());
        let p1 = cache.get_or_compile(&a, &opts()).unwrap();
        let colamd = SympilerOptions {
            ordering: crate::Ordering::Colamd,
            ..opts()
        };
        let p2 = cache.get_or_compile(&a, &colamd).unwrap();
        assert!(!Arc::ptr_eq(&p1, &p2));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().misses, 2);
        // And each keeps answering its own options.
        assert!(Arc::ptr_eq(
            &p1,
            &cache.get_or_compile(&a, &opts()).unwrap()
        ));
        assert!(Arc::ptr_eq(
            &p2,
            &cache.get_or_compile(&a, &colamd).unwrap()
        ));
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn hash_collision_is_rejected_by_exact_checks() {
        // Plant a foreign plan under pattern `a`'s key: the lookup
        // must see through the colliding hash (exact pattern check
        // fails), compile the right plan, and keep both in one bucket.
        let a = gen::circuit_unsym(40, 4, 2, 5);
        let b = gen::circuit_unsym(30, 4, 2, 6);
        let key = structural_hash(&a, &opts());
        let cache = PlanCache::new(CacheConfig::default());
        let foreign_lu = SympilerLu::compile(&b, &opts()).unwrap();
        cache.admit(
            0,
            Arc::new(CachedPlan {
                key,
                opts: opts(),
                bytes: foreign_lu.table_bytes(),
                lu: foreign_lu,
            }),
        );
        let p = cache.get_or_compile(&a, &opts()).unwrap();
        assert_eq!(p.plan().n(), 40, "must not serve the colliding plan");
        assert_eq!(cache.stats().misses, 1, "collision is a miss, not a hit");
        assert_eq!(cache.len(), 2, "collided entries coexist in the bucket");
        // Now both resolve correctly.
        assert!(Arc::ptr_eq(&p, &cache.get_or_compile(&a, &opts()).unwrap()));
        assert_eq!(cache.get_or_compile(&b, &opts()).unwrap().plan().n(), 30);
    }

    /// Identity is a shortcut, never the key: a request cloned from the
    /// matrix an entry was compiled from and one carrying the same
    /// pattern in fresh arrays resolve to one plan — one compile — and
    /// answer to the same bits.
    #[test]
    fn a_clone_and_a_rebuilt_pattern_share_one_plan() {
        use crate::plan::pattern::rebuilt;
        let _serial = service_lock();
        let a = gen::circuit_unsym(60, 4, 2, 5);
        let cache = Arc::new(PlanCache::new(CacheConfig::default()));
        let service = FactorService::new(1, Arc::clone(&cache));
        let rhs = vec![(0..60).map(|i| 1.0 + (i % 7) as f64).collect::<Vec<_>>()];
        let serve = |a: CscMatrix| {
            let req = ServeRequest {
                a,
                opts: opts(),
                rhs: rhs.clone(),
            };
            let x = service.call(req).unwrap().solutions.remove(0);
            x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(serve(a.clone()), serve(rebuilt(&a)));
        let plan = cache.get_or_compile(&a.clone(), &opts()).unwrap();
        let other = cache.get_or_compile(&rebuilt(&a), &opts()).unwrap();
        assert!(Arc::ptr_eq(&plan, &other));
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.entries), (1, 3, 1));
    }

    /// A cache recording onto an enabled profiler.
    fn traced_cache() -> (Arc<Profiler>, PlanCache) {
        let prof = Arc::new(Profiler::enabled());
        let cache = PlanCache::with_profiler(CacheConfig::default(), Arc::clone(&prof));
        (prof, cache)
    }

    /// Run `n` concurrent `get_or_compile(a)` calls that all find the
    /// key in flight — `land` decides how the flight ends — and return
    /// their plans. The waiters are known to have seen the flight
    /// (each bumps `serve.cache.coalesced` before it blocks) before
    /// `land` runs.
    fn coalesce<F>(
        prof: &Profiler,
        cache: &PlanCache,
        a: &CscMatrix,
        n: u64,
        land: F,
    ) -> Vec<Arc<CachedPlan>>
    where
        F: FnOnce(Flight<'_>),
    {
        let key = structural_hash(a, &opts());
        let Lookup::Claimed(flight) = cache.lookup(key, a, &opts(), 0, false) else {
            panic!("an empty cache grants the claim");
        };
        std::thread::scope(|scope| {
            let waiters: Vec<_> = (0..n)
                .map(|_| scope.spawn(|| cache.get_or_compile(a, &opts()).unwrap()))
                .collect();
            while prof.counter_value("serve.cache.coalesced") < n {
                std::thread::yield_now();
            }
            land(flight);
            waiters.into_iter().map(|w| w.join().unwrap()).collect()
        })
    }

    #[test]
    fn waiters_take_the_plan_an_in_flight_compile_admits() {
        let (prof, cache) = traced_cache();
        let a = gen::circuit_unsym(40, 4, 2, 12);
        let lu = SympilerLu::compile(&a, &opts()).unwrap();
        let admitted = Arc::new(CachedPlan {
            key: structural_hash(&a, &opts()),
            opts: opts(),
            bytes: lu.table_bytes(),
            lu,
        });
        let plans = coalesce(&prof, &cache, &a, 3, |flight| {
            cache.admit(0, Arc::clone(&admitted));
            drop(flight);
        });
        assert!(plans.iter().all(|p| Arc::ptr_eq(p, &admitted)));
        let snap = prof.snapshot("coalesce");
        assert_eq!(snap.spans_named("compile").count(), 0, "nobody recompiled");
        assert_eq!(snap.spans_named("compile-wait").count(), 3);
        let s = cache.stats();
        assert_eq!(
            (s.hits, s.misses, s.entries),
            (0, 3, 1),
            "waiters are misses"
        );
    }

    #[test]
    fn a_failed_flight_hands_the_compile_to_exactly_one_waiter() {
        let (prof, cache) = traced_cache();
        let a = gen::circuit_unsym(40, 4, 2, 13);
        // The flight retires with nothing admitted, as a compile error
        // or a panic would leave it.
        let plans = coalesce(&prof, &cache, &a, 3, |flight| drop(flight));
        assert!(plans.iter().all(|p| Arc::ptr_eq(p, &plans[0])));
        let snap = prof.snapshot("coalesce");
        assert_eq!(snap.spans_named("compile").count(), 1);
        assert_eq!(prof.counter_value("serve.cache.coalesced"), 3);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn concurrent_identical_misses_compile_once() {
        let (prof, cache) = traced_cache();
        let a = gen::circuit_unsym(60, 4, 2, 14);
        let start = std::sync::Barrier::new(4);
        let plans: Vec<_> = std::thread::scope(|scope| {
            let callers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        cache.get_or_compile(&a, &opts()).unwrap()
                    })
                })
                .collect();
            callers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        assert!(plans.iter().all(|p| Arc::ptr_eq(p, &plans[0])));
        // Whatever the interleaving: one claim, the rest wait or hit.
        let snap = prof.snapshot("coalesce");
        assert_eq!(snap.spans_named("compile").count(), 1);
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 4);
        assert_eq!(
            s.misses,
            1 + prof.counter_value("serve.cache.coalesced"),
            "every miss but the compiler's own was coalesced"
        );
    }

    #[test]
    fn lru_eviction_under_entry_pressure() {
        let mats: Vec<_> = (0..3)
            .map(|s| gen::circuit_unsym(30 + s, 4, 2, s as u64))
            .collect();
        let cache = PlanCache::new(CacheConfig {
            max_entries: 2,
            max_bytes: 0,
        });
        cache.get_or_compile(&mats[0], &opts()).unwrap();
        cache.get_or_compile(&mats[1], &opts()).unwrap();
        // Touch 0 so 1 becomes the LRU victim.
        cache.get_or_compile(&mats[0], &opts()).unwrap();
        cache.get_or_compile(&mats[2], &opts()).unwrap();
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (2, 1));
        // 0 and 2 are resident (hits); 1 was evicted (miss).
        let before = cache.stats().misses;
        cache.get_or_compile(&mats[0], &opts()).unwrap();
        cache.get_or_compile(&mats[2], &opts()).unwrap();
        assert_eq!(cache.stats().misses, before);
        cache.get_or_compile(&mats[1], &opts()).unwrap();
        assert_eq!(cache.stats().misses, before + 1, "LRU victim was 1");
    }

    #[test]
    fn byte_bound_evicts_and_stats_track_residency() {
        let a = gen::circuit_unsym(60, 4, 2, 1);
        let b = gen::circuit_unsym(70, 4, 2, 2);
        let probe = PlanCache::new(CacheConfig::default());
        let pa = probe.get_or_compile(&a, &opts()).unwrap();
        // Bound below the two plans' combined footprint: admitting the
        // second must evict the first.
        let cache = PlanCache::new(CacheConfig {
            max_entries: 0,
            max_bytes: pa.bytes() + pa.bytes() / 2,
        });
        cache.get_or_compile(&a, &opts()).unwrap();
        assert_eq!(cache.stats().bytes, pa.bytes());
        cache.get_or_compile(&b, &opts()).unwrap();
        let s = cache.stats();
        assert_eq!(s.entries, 1, "byte bound holds one plan");
        assert!(s.evictions >= 1);
        // Never evicts below one entry even when oversized.
        let tiny = PlanCache::new(CacheConfig {
            max_entries: 0,
            max_bytes: 1,
        });
        tiny.get_or_compile(&a, &opts()).unwrap();
        assert_eq!(tiny.len(), 1);
    }

    #[test]
    fn cache_counters_land_on_the_profiler() {
        let prof = Arc::new(Profiler::enabled());
        let cache = PlanCache::with_profiler(CacheConfig::default(), Arc::clone(&prof));
        let a = gen::circuit_unsym(40, 4, 2, 9);
        cache.get_or_compile(&a, &opts()).unwrap();
        cache.get_or_compile(&a, &opts()).unwrap();
        assert_eq!(prof.counter_value("serve.cache.miss"), 1);
        assert_eq!(prof.counter_value("serve.cache.hit"), 1);
    }

    #[test]
    fn residency_gauges_are_live_and_evictions_are_journalled() {
        let prof = Arc::new(Profiler::enabled());
        let cache = PlanCache::with_profiler(
            CacheConfig {
                max_entries: 1,
                max_bytes: 0,
            },
            Arc::clone(&prof),
        );
        let a = gen::circuit_unsym(30, 4, 2, 1);
        let b = gen::circuit_unsym(31, 4, 2, 2);
        let pa = cache.get_or_compile(&a, &opts()).unwrap();
        let snap = prof.snapshot("after-a");
        assert_eq!(snap.gauge("serve.cache.entries"), Some(1.0));
        assert_eq!(snap.gauge("serve.cache.bytes"), Some(pa.bytes() as f64));
        // Admitting b evicts a (max one entry): the live gauges track
        // the new residency and the eviction lands in the journal.
        let pb = cache.get_or_compile(&b, &opts()).unwrap();
        let snap = prof.snapshot("after-b");
        assert_eq!(snap.gauge("serve.cache.entries"), Some(1.0));
        assert_eq!(snap.gauge("serve.cache.bytes"), Some(pb.bytes() as f64));
        let events = prof.journal().events();
        let ev = events
            .iter()
            .find(|e| e.kind == "cache.eviction")
            .expect("eviction journalled");
        assert!(ev
            .fields
            .iter()
            .any(|(k, v)| k == "bytes" && *v == pa.bytes() as f64));
        assert!(ev
            .notes
            .iter()
            .any(|(k, v)| k == "key" && v.starts_with("0x")));
        // clear() zeroes the live gauges.
        cache.clear();
        let snap = prof.snapshot("cleared");
        assert_eq!(snap.gauge("serve.cache.entries"), Some(0.0));
        assert_eq!(snap.gauge("serve.cache.bytes"), Some(0.0));
    }

    #[test]
    fn request_ids_are_unique_and_traced_on_worker_lanes() {
        let _serial = service_lock();
        let prof = Arc::new(Profiler::enabled());
        let cache = Arc::new(PlanCache::with_profiler(
            CacheConfig::default(),
            Arc::clone(&prof),
        ));
        let service = FactorService::new(2, Arc::clone(&cache));
        let a = gen::circuit_unsym(40, 4, 2, 9);
        let tickets: Vec<Ticket> = (0..6)
            .map(|_| {
                service.submit(ServeRequest {
                    a: a.clone(),
                    opts: opts(),
                    rhs: vec![vec![1.0; 40]],
                })
            })
            .collect();
        let ids: Vec<u64> = tickets.iter().map(Ticket::id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5], "ids are assigned in order");
        for t in tickets {
            t.wait().unwrap();
        }
        let snap = prof.snapshot("serve");
        // Every request produced a root span on a *worker* lane with
        // its id attached, and the tree accounts for queue-wait,
        // cache, factor, and solve time.
        let roots: Vec<_> = snap.spans_named("request").collect();
        assert_eq!(roots.len(), 6);
        let mut seen: Vec<u64> = roots
            .iter()
            .map(|s| {
                assert!(s.lane >= 1, "request spans live on worker lanes");
                s.args
                    .iter()
                    .find(|(k, _)| k == "req")
                    .expect("req id arg")
                    .1 as u64
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        for name in ["queue-wait", "cache-lookup", "factor", "solve"] {
            assert_eq!(
                snap.spans_named(name).count(),
                6,
                "each request records a {name} child"
            );
        }
        assert_eq!(snap.spans_named("compile").count(), 1, "one miss compiles");
        // Worker lanes carry stable thread names.
        assert_eq!(snap.thread_name(1), Some("worker-0"));
        assert_eq!(snap.thread_name(2), Some("worker-1"));
        // Children nest inside their roots in time: each root span
        // contains at least queue-wait, cache-lookup, and factor.
        for root in &roots {
            let end = root.start_ns + root.dur_ns;
            let children = snap
                .spans
                .iter()
                .filter(|s| {
                    s.lane == root.lane
                        && s.name != "request"
                        && s.start_ns >= root.start_ns
                        && s.start_ns + s.dur_ns <= end
                })
                .count();
            assert!(children >= 3, "request tree has its phase children");
        }
    }

    /// A pool spins only when it leaves a core for the client; on any
    /// box, a pool as wide as the machine parks at once, as a blocking
    /// channel would.
    #[test]
    fn the_spin_gate_is_closed_without_a_spare_core() {
        for cores in 1..=16 {
            for n_workers in 1..=17 {
                assert_eq!(
                    spin_gate(n_workers, cores),
                    cores.saturating_sub(n_workers) >= 1,
                    "{n_workers} workers on {cores} cores"
                );
            }
        }
        let _serial = service_lock();
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let cache = Arc::new(PlanCache::new(CacheConfig::default()));
        let a = gen::circuit_unsym(40, 4, 2, 9);
        for n_workers in [cores - 1, cores, cores + 1] {
            let service = FactorService::new(n_workers, Arc::clone(&cache));
            let open = n_workers.max(1) < cores;
            assert_eq!(service.spin, open, "{n_workers} workers on {cores} cores");
            let ticket = service.submit(ServeRequest {
                a: a.clone(),
                opts: opts(),
                rhs: Vec::new(),
            });
            let budget = if open { WAIT_SPIN } else { Duration::ZERO };
            assert_eq!(ticket.spin, budget);
            ticket.wait().unwrap();
        }
    }

    /// A compile outlasts the waiter's poll budget, so the wait parks
    /// and the profiled service counts it.
    #[test]
    fn a_wait_on_a_cold_compile_parks_and_is_counted() {
        let _serial = service_lock();
        let prof = Arc::new(Profiler::enabled());
        let cache = Arc::new(PlanCache::with_profiler(
            CacheConfig::default(),
            Arc::clone(&prof),
        ));
        let service = FactorService::new(1, cache);
        let a = gen::circuit_unsym(20000, 1, 0, 31);
        service
            .call(ServeRequest {
                a,
                opts: opts(),
                rhs: Vec::new(),
            })
            .unwrap();
        assert_eq!(prof.counter_value("serve.cache.miss"), 1);
        assert!(prof.counter_value("serve.wait.parked") >= 1);
        // With nothing more to do, the worker's poll budget runs out and
        // it parks on the empty queue.
        let start = Instant::now();
        while prof.counter_value("serve.queue.parked") == 0 {
            assert!(start.elapsed() < Duration::from_secs(10), "never parked");
            std::thread::yield_now();
        }
    }

    /// Silences the panics the [`fault`] hooks inject while it lives;
    /// every other panic still reaches the hook it replaced.
    struct QuietFaults(Arc<PanicHook>);

    type PanicHook = dyn Fn(&std::panic::PanicHookInfo<'_>) + Send + Sync;

    impl QuietFaults {
        fn install() -> Self {
            let prev: Arc<PanicHook> = Arc::from(std::panic::take_hook());
            let next = Arc::clone(&prev);
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains("(fault hook)"));
                if !injected {
                    next(info);
                }
            }));
            Self(prev)
        }
    }

    impl Drop for QuietFaults {
        fn drop(&mut self) {
            // A panicking thread may not swap hooks; the filter stays.
            if std::thread::panicking() {
                return;
            }
            let prev = Arc::clone(&self.0);
            std::panic::set_hook(Box::new(move |info| prev(info)));
        }
    }

    /// splitmix64: a seeded stream for the stress schedule.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// How long this thread has been runnable but not running (Linux
    /// schedstat); zero where the kernel does not say. A timed wait is
    /// held to its deadline net of this: on a box busy with other tests
    /// the scheduler can keep any thread off the CPU for a time slice
    /// or two, and no wait can return while it is.
    fn run_queue_delay() -> Duration {
        std::fs::read_to_string("/proc/thread-self/schedstat")
            .ok()
            .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
            .map_or(Duration::ZERO, Duration::from_nanos)
    }

    /// One seeded run of the stress schedule against an `n_workers`
    /// pool: submits, waits, timed waits, dropped tickets and armed
    /// faults interleaved, then a service dropped with tickets queued.
    /// Every waited ticket must resolve to its own request's solution,
    /// bitwise as the direct path computes it, or to an infrastructure
    /// `ServeError`; no request may be answered twice.
    fn stress_run(seed: u64, n_workers: usize) {
        const WAITS: [Option<Duration>; 4] = [
            None,
            Some(Duration::ZERO),
            Some(Duration::from_micros(50)),
            Some(Duration::from_secs(30)),
        ];
        let bases: Vec<CscMatrix> = (0..2)
            .map(|s| gen::circuit_unsym(60, 4, 2, 21 + s))
            .collect();
        let direct: Vec<SympilerLu> = bases
            .iter()
            .map(|a| SympilerLu::compile(a, &opts()).unwrap())
            .collect();
        let b: Vec<f64> = (0..60).map(|i| 1.0 + (i % 5) as f64).collect();
        let prof = Arc::new(Profiler::enabled());
        let cache = Arc::new(PlanCache::with_profiler(
            CacheConfig::default(),
            Arc::clone(&prof),
        ));
        let service = FactorService::new(n_workers, cache);
        let mut rng = Rng(seed);
        // (ticket, the direct path's solution bits)
        let mut pending: Vec<(Ticket, Vec<u64>)> = Vec::new();
        let (mut armed_panics, mut armed_deaths) = (0, 0);
        let (mut panics, mut deaths, mut ok_ids) = (0, 0, Vec::new());
        let mut resolve = |(ticket, want): (Ticket, Vec<u64>), wait: Option<Duration>| {
            let id = ticket.id();
            let queued = run_queue_delay();
            let t = Instant::now();
            let result = match wait {
                None => ticket.wait(),
                Some(d) => ticket.wait_timeout(d),
            };
            if let Some(d) = wait {
                let took = t.elapsed();
                let descheduled = run_queue_delay().saturating_sub(queued);
                assert!(
                    took.saturating_sub(descheduled) <= d + Duration::from_millis(5),
                    "wait_timeout({d:?}) took {took:?}, {descheduled:?} of it \
                     runnable but descheduled ({n_workers} workers)"
                );
            }
            match result {
                Ok(resp) => {
                    let got: Vec<u64> = resp.solutions[0].iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "request {id} got another request's answer");
                    ok_ids.push(id);
                }
                Err(ServeError::WorkerPanic { .. }) => panics += 1,
                Err(ServeError::Disconnected) => deaths += 1,
                Err(ServeError::Timeout { waited }) => {
                    assert_eq!(Some(waited), wait, "only a timed wait times out")
                }
                Err(e) => panic!("request {id}: {e}"),
            }
        };
        let submit = |rng: &mut Rng, pending: &mut Vec<(Ticket, Vec<u64>)>| {
            let p = rng.below(2) as usize;
            let mut a = bases[p].clone();
            let scale = 1.0 + rng.below(64) as f64 / 16.0;
            a.values_mut().iter_mut().for_each(|v| *v *= scale);
            let want = direct[p].factor(&a).unwrap().solve(&b);
            let ticket = service.submit(ServeRequest {
                a,
                opts: opts(),
                rhs: vec![b.clone()],
            });
            pending.push((ticket, want.iter().map(|v| v.to_bits()).collect()));
        };
        for _ in 0..80 {
            match rng.below(16) {
                0..=6 => submit(&mut rng, &mut pending),
                7..=12 if !pending.is_empty() => {
                    let at = rng.below(pending.len() as u64) as usize;
                    let wait = WAITS[rng.below(WAITS.len() as u64) as usize];
                    resolve(pending.swap_remove(at), wait);
                }
                13 if !pending.is_empty() => {
                    let at = rng.below(pending.len() as u64) as usize;
                    drop(pending.swap_remove(at));
                }
                14 => {
                    fault::arm_worker_panics(1);
                    armed_panics += 1;
                }
                15 => {
                    fault::arm_worker_deaths(1);
                    armed_deaths += 1;
                }
                _ => {}
            }
        }
        // Drop the service with a burst still queued: the queue drains.
        for _ in 0..6 {
            submit(&mut rng, &mut pending);
        }
        drop(service);
        for entry in pending.drain(..) {
            let wait = WAITS[rng.below(WAITS.len() as u64) as usize];
            resolve(entry, wait);
        }
        fault::disarm();
        assert!(panics <= armed_panics && deaths <= armed_deaths);
        // Exactly once: a worker ends a request's root span, naming the
        // request, just before it replies, so no request id may carry
        // two, and every ticket that resolved to a solution carries one.
        // (A replacement spawned while the service dropped is never
        // joined and may still be running a dropped ticket's request:
        // its root span is open and names nobody yet.)
        let snap = prof.snapshot("stress");
        let mut answered: Vec<u64> = snap
            .spans_named("request")
            .filter_map(|s| s.args.iter().find(|(k, _)| k == "req"))
            .map(|&(_, id)| id as u64)
            .collect();
        answered.sort_unstable();
        let before = answered.len();
        answered.dedup();
        assert_eq!(answered.len(), before, "a request was answered twice");
        assert!(ok_ids.iter().all(|id| answered.binary_search(id).is_ok()));
    }

    #[test]
    fn every_waited_ticket_resolves_exactly_once_under_faults_and_drops() {
        let _serial = service_lock();
        let _quiet = QuietFaults::install();
        // Nothing may outlive the global deadline: a lost wake-up or a
        // stranded job shows up here as a timeout, not a hung suite.
        let (done, finished) = mpsc::channel();
        let run = std::thread::spawn(move || {
            for seed in 0..4 {
                for n_workers in 1..=3 {
                    stress_run(0x5eed_0000 + 4 * seed + n_workers as u64, n_workers);
                }
            }
            let _ = done.send(());
        });
        match finished.recv_timeout(Duration::from_secs(120)) {
            Ok(()) => run.join().unwrap(),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                fault::disarm();
                std::panic::resume_unwind(run.join().unwrap_err())
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                fault::disarm();
                panic!("the stress run outlived its 120 s deadline")
            }
        }
    }
}
