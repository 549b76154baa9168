//! Compiled-query cache.
//!
//! Building the graph × NFA [`Product`] dominates the cost of evaluating
//! a path expression; the same expression is typically issued many times
//! against the same (or an unchanged) graph. [`QueryCache`] memoizes the
//! compiled form — NFA plus product — keyed by the [`NfaSignature`] of
//! the *minimized* automaton ([`Nfa::compile_min`], applied after
//! [`crate::simplify::simplify`]) together with a **generation stamp** of
//! the graph. Minimal DFAs are canonical per language, so not just
//! rewrite-equal spellings like `(r*)*` and `r*` but any two expressions
//! denoting the same path language — `a/(b+c)` and `a/b + a/c`, say —
//! share one entry; and any mutation of the graph (which bumps its
//! generation) invalidates every entry compiled against the old contents.
//!
//! Generations only grow, so the cache remembers the newest one it has
//! seen: the first insert at a newer generation drops every older entry
//! (no lookup can reach them any more), and a compile that finishes at an
//! older generation is handed to its caller without being cached.
//! Within one generation, eviction is LRU over a logical tick counter;
//! capacity is configurable
//! (`QueryCache::with_capacity`, default 64; `QueryCache::from_env` reads
//! the `KGQ_CACHE_CAP` environment variable — values that do not parse
//! as a positive integer fall back with a one-time warning, and `0` is
//! clamped to 1, the smallest capacity the LRU supports). A cache is
//! meant to be bound to one graph's history: generation stamps are
//! strictly increasing per mutation *within one graph*, not globally
//! unique across graphs.
//!
//! ## Sharing across threads
//!
//! Every method takes `&self`: the mutable state (map, LRU ticks,
//! counters) lives behind an internal mutex, so one cache can be shared
//! by reference — or inside an `Arc` — across concurrent clients (the
//! `kgq serve` server holds exactly one per store snapshot). The lock is
//! held only for lookups and inserts, **never during compilation**: a
//! miss releases the lock, compiles, then re-locks to insert, so a slow
//! (or budget-tripping) compile cannot stall other clients' cache hits.
//! Two threads racing on the same miss may both compile; the first
//! insert wins and the loser adopts the winner's entry, so hits after
//! the race share one product. Generation stamps make the snapshot
//! contract hold under concurrency too: entries compiled against
//! generation `g` are unreachable from any lookup at `g' ≠ g`, so a
//! store mutation (which bumps the generation) can never leak a stale
//! product to a reader of the new snapshot.

use crate::automata::{MinimizedNfa, Nfa, NfaSignature};
use crate::eval::Evaluator;
use crate::expr::PathExpr;
use crate::govern::{fault_point, isolate, EvalError, Governor};
use crate::model::PathGraph;
use crate::product::Product;
use crate::simplify::simplify;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, Once};

/// Default number of compiled queries retained.
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

/// Environment variable overriding the cache capacity.
pub const CACHE_CAP_ENV: &str = "KGQ_CACHE_CAP";

/// A query compiled against a specific graph generation: the canonical
/// expression, its NFA, and the evaluator over the (shared) graph × NFA
/// product, whose reachability kernel is built on first scan and then
/// served to every later hit.
pub struct CompiledQuery {
    expr: PathExpr,
    nfa: Nfa,
    evaluator: Evaluator,
}

impl std::fmt::Debug for CompiledQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledQuery")
            .field("expr", &self.expr)
            .field("product_states", &self.evaluator.product().state_count())
            .finish_non_exhaustive()
    }
}

impl CompiledQuery {
    /// The canonicalized expression this entry was compiled from.
    pub fn expr(&self) -> &PathExpr {
        &self.expr
    }

    /// The minimized automaton of the canonical expression.
    pub fn nfa(&self) -> &Nfa {
        &self.nfa
    }

    /// The shared graph × NFA product.
    pub fn product(&self) -> &Arc<Product> {
        self.evaluator.shared_product()
    }

    /// The cached evaluator (no rebuild of the product or the kernel).
    pub fn evaluator(&self) -> &Evaluator {
        &self.evaluator
    }
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct CacheKey {
    generation: u64,
    sig: NfaSignature,
}

/// A point-in-time snapshot of cache effectiveness counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required compilation.
    pub misses: u64,
    /// Entries dropped to stay within capacity or because a newer
    /// generation made them unreachable.
    pub evictions: u64,
    /// Queries the static analyzer proved empty, answered with no
    /// compilation at all (see [`QueryCache::note_short_circuit`]).
    pub short_circuits: u64,
    /// Compiled queries currently held.
    pub len: usize,
    /// Configured capacity.
    pub capacity: usize,
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits={} misses={} evictions={} short_circuits={} entries={}/{}",
            self.hits, self.misses, self.evictions, self.short_circuits, self.len, self.capacity
        )
    }
}

struct Entry {
    compiled: Arc<CompiledQuery>,
    last_used: u64,
}

/// The lock-protected mutable state: map, LRU clock, counters.
struct Inner {
    tick: u64,
    /// The newest generation any insert has carried.
    newest: u64,
    map: HashMap<CacheKey, Entry>,
    hits: u64,
    misses: u64,
    evictions: u64,
    short_circuits: u64,
}

/// LRU cache of [`CompiledQuery`] entries keyed by
/// `(graph generation, canonicalized expression)`.
///
/// Share-safe: all methods take `&self` (see the module docs for the
/// locking discipline), so a `QueryCache` can back one CLI invocation
/// and a multi-client server with the same code.
pub struct QueryCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl Default for QueryCache {
    fn default() -> QueryCache {
        QueryCache::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl QueryCache {
    /// A cache retaining [`DEFAULT_CACHE_CAPACITY`] compiled queries.
    pub fn new() -> QueryCache {
        QueryCache::default()
    }

    /// A cache retaining at most `capacity` compiled queries
    /// (`capacity` is clamped to at least 1 — an LRU of capacity 0
    /// could never answer a hit).
    pub fn with_capacity(capacity: usize) -> QueryCache {
        QueryCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                tick: 0,
                newest: 0,
                map: HashMap::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
                short_circuits: 0,
            }),
        }
    }

    /// A cache sized by the `KGQ_CACHE_CAP` environment variable, falling
    /// back to [`DEFAULT_CACHE_CAPACITY`] when unset or unparseable and
    /// clamping `0` to 1 (the smallest capacity the LRU supports). A
    /// value that is set but not a usable positive integer is reported
    /// once per process on stderr, naming the bad value and the
    /// fallback, instead of being silently ignored.
    pub fn from_env() -> QueryCache {
        static WARN: Once = Once::new();
        let capacity = match std::env::var(CACHE_CAP_ENV) {
            Err(_) => DEFAULT_CACHE_CAPACITY,
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(0) => {
                    WARN.call_once(|| {
                        eprintln!(
                            "warning: {CACHE_CAP_ENV}=0 is not a usable capacity; \
                             clamping to 1 (the smallest LRU capacity)"
                        );
                    });
                    0 // with_capacity clamps to 1
                }
                Ok(n) => n,
                Err(_) => {
                    WARN.call_once(|| {
                        eprintln!(
                            "warning: {CACHE_CAP_ENV}=`{v}` is not a positive integer; \
                             using the default capacity of {DEFAULT_CACHE_CAPACITY}"
                        );
                    });
                    DEFAULT_CACHE_CAPACITY
                }
            },
        };
        QueryCache::with_capacity(capacity)
    }

    /// Acquires the internal lock. A poisoned mutex is recovered rather
    /// than propagated: compilation runs *outside* the lock (and under
    /// [`isolate`] on the governed paths), so the map is structurally
    /// consistent at every unlock point even if a holder panicked.
    fn inner(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Returns the compiled form of `expr` against `g` at `generation`,
    /// compiling (and caching) it on a miss. The expression is
    /// canonicalized with [`simplify`] and then keyed by its minimal
    /// automaton's signature, so every spelling of one path language
    /// shares one entry. Compilation happens outside the internal lock;
    /// concurrent misses on one key may compile twice, but only one
    /// entry survives and all callers share it from then on.
    pub fn get_or_compile<G: PathGraph>(
        &self,
        g: &G,
        generation: u64,
        expr: &PathExpr,
    ) -> Arc<CompiledQuery> {
        match self.get_or_compile_governed(g, generation, expr, &Governor::unlimited()) {
            Ok(compiled) => compiled,
            Err(EvalError::Panic(msg)) => panic!("{msg}"),
            Err(e) => unreachable!("unlimited compile interrupted: {e}"),
        }
    }

    /// Governed [`QueryCache::get_or_compile`]: compilation runs under
    /// `gov`'s budget with panics isolated, and is **panic- and
    /// cancel-safe with respect to the cache** — compilation completes
    /// *before* anything is inserted, so an interrupted, cancelled, or
    /// panicking compile leaves the map untouched (no partial entry to
    /// poison later hits); only the hit/miss counters record the attempt.
    pub fn get_or_compile_governed<G: PathGraph>(
        &self,
        g: &G,
        generation: u64,
        expr: &PathExpr,
        gov: &Governor,
    ) -> Result<Arc<CompiledQuery>, EvalError> {
        let expr = simplify(expr);
        let MinimizedNfa { nfa, signature, .. } = Nfa::compile_min(&expr);
        let key = CacheKey {
            generation,
            sig: signature,
        };
        if let Some(compiled) = self.lookup(&key) {
            return Ok(compiled);
        }
        let product = isolate(|| {
            fault_point!("cache::compile");
            Product::build_governed(g, &nfa, gov)
        })?;
        let evaluator = Evaluator::from_product(Arc::new(product));
        Ok(self.insert_if_absent(
            key,
            Arc::new(CompiledQuery {
                expr,
                nfa,
                evaluator,
            }),
        ))
    }

    /// The lookup half: under the lock, touch + count a hit, or count a
    /// miss and return `None` (the caller compiles outside the lock).
    fn lookup(&self, key: &CacheKey) -> Option<Arc<CompiledQuery>> {
        let mut inner = self.inner();
        inner.tick += 1;
        let tick = inner.tick;
        let found = inner.map.get_mut(key).map(|entry| {
            entry.last_used = tick;
            Arc::clone(&entry.compiled)
        });
        match found {
            Some(compiled) => {
                inner.hits += 1;
                Some(compiled)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// The insert half: under the lock, adopt a racing thread's entry if
    /// one appeared since [`QueryCache::lookup`], otherwise evict to
    /// capacity and insert `compiled`. Returns the entry that won. A key
    /// older than the newest generation seen is returned uncached; the
    /// first key of a newer generation first drops every older entry.
    fn insert_if_absent(&self, key: CacheKey, compiled: Arc<CompiledQuery>) -> Arc<CompiledQuery> {
        let mut inner = self.inner();
        if key.generation < inner.newest {
            return compiled;
        }
        if key.generation > inner.newest {
            inner.newest = key.generation;
            inner.evictions += inner.map.len() as u64;
            inner.map.clear();
        }
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.map.get_mut(&key) {
            // A racing compile of the same key landed first; share it so
            // every caller holds the same product from here on. The race
            // was already counted as two misses — honest, since both
            // threads did compile.
            entry.last_used = tick;
            return Arc::clone(&entry.compiled);
        }
        if inner.map.len() >= self.capacity {
            if let Some(key) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&key);
                inner.evictions += 1;
            }
        }
        inner.map.insert(
            key,
            Entry {
                compiled: Arc::clone(&compiled),
                last_used: tick,
            },
        );
        compiled
    }

    /// Drops every cached entry (counters are kept).
    pub fn clear(&self) {
        self.inner().map.clear();
    }

    /// Number of compiled queries currently held.
    pub fn len(&self) -> usize {
        self.inner().map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.inner().map.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.inner().hits
    }

    /// Lookups that required compilation.
    pub fn misses(&self) -> u64 {
        self.inner().misses
    }

    /// Entries dropped to stay within capacity or because a newer
    /// generation made them unreachable.
    pub fn evictions(&self) -> u64 {
        self.inner().evictions
    }

    /// Analyzer short-circuits recorded by
    /// [`QueryCache::note_short_circuit`].
    pub fn short_circuits(&self) -> u64 {
        self.inner().short_circuits
    }

    /// Records that a caller answered a provably-empty query without
    /// compiling anything, so `--verbose` and `STATS` account for it.
    pub fn note_short_circuit(&self) {
        self.inner().short_circuits += 1;
    }

    /// Snapshot of the effectiveness counters (printed by the CLI under
    /// `--verbose` and served by the `STATS` endpoint).
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            short_circuits: inner.short_circuits,
            len: inner.map.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::govern::Interrupt;
    use crate::model::LabeledView;
    use crate::parser::parse_expr;
    use kgq_graph::generate::gnm_labeled;

    fn setup() -> (kgq_graph::LabeledGraph, PathExpr, PathExpr) {
        let mut g = gnm_labeled(12, 30, &["a", "b"], &["p", "q"], 3);
        let e1 = parse_expr("(p+q)*", g.consts_mut()).unwrap();
        // A syntactic variant canonicalizing to the same expression.
        let e2 = parse_expr("((p+q)*)*", g.consts_mut()).unwrap();
        (g, e1, e2)
    }

    #[test]
    fn hit_skips_recompilation_and_shares_the_product() {
        let (g, e1, _) = setup();
        let view = LabeledView::new(&g);
        let cache = QueryCache::new();
        let c1 = cache.get_or_compile(&view, 0, &e1);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let c2 = cache.get_or_compile(&view, 0, &e1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // Same Arc: the product was not rebuilt.
        assert!(Arc::ptr_eq(c1.product(), c2.product()));
    }

    #[test]
    fn hits_share_one_kernel() {
        let (g, e1, _) = setup();
        let view = LabeledView::new(&g);
        let cache = QueryCache::new();
        cache.get_or_compile(&view, 0, &e1).evaluator().pairs();
        let c1 = cache.get_or_compile(&view, 0, &e1);
        let c2 = cache.get_or_compile(&view, 0, &e1);
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
        // The kernel the first scan built is the one both hits serve.
        assert!(std::ptr::eq(
            c1.evaluator().kernel(),
            c2.evaluator().kernel()
        ));
    }

    #[test]
    fn canonicalization_merges_equivalent_spellings() {
        let (g, e1, e2) = setup();
        let view = LabeledView::new(&g);
        let cache = QueryCache::new();
        let c1 = cache.get_or_compile(&view, 0, &e1);
        let c2 = cache.get_or_compile(&view, 0, &e2);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(Arc::ptr_eq(c1.product(), c2.product()));
    }

    #[test]
    fn signature_keying_merges_beyond_rewrites() {
        // `a/(p+q)` vs `a/p + a/q`: no rewrite rule relates them, but
        // their minimal DFAs — and hence signatures — coincide.
        let mut g = gnm_labeled(12, 30, &["a", "b"], &["p", "q"], 3);
        let d1 = parse_expr("a/(p+q)", g.consts_mut()).unwrap();
        let d2 = parse_expr("a/p + a/q", g.consts_mut()).unwrap();
        assert_ne!(simplify(&d1), simplify(&d2), "rewrites must not merge");
        let view = LabeledView::new(&g);
        let cache = QueryCache::new();
        let c1 = cache.get_or_compile(&view, 0, &d1);
        let c2 = cache.get_or_compile(&view, 0, &d2);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!(Arc::ptr_eq(c1.product(), c2.product()));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
    }

    #[test]
    fn from_env_reads_the_capacity_override() {
        // Temporarily set the env var; tests in this binary run in one
        // process, so restore it before returning.
        std::env::set_var(CACHE_CAP_ENV, "7");
        let cache = QueryCache::from_env();
        std::env::remove_var(CACHE_CAP_ENV);
        assert_eq!(cache.capacity(), 7);
        assert_eq!(QueryCache::from_env().capacity(), DEFAULT_CACHE_CAPACITY);
    }

    #[test]
    fn from_env_clamps_zero_and_rejects_garbage() {
        // `0` is clamped to the smallest usable capacity…
        std::env::set_var(CACHE_CAP_ENV, "0");
        let cache = QueryCache::from_env();
        assert_eq!(cache.capacity(), 1);
        // …and garbage falls back to the default. Both paths emit a
        // one-time stderr warning (not capturable here; the CLI test
        // suite asserts the message text).
        std::env::set_var(CACHE_CAP_ENV, "lots");
        let cache = QueryCache::from_env();
        std::env::remove_var(CACHE_CAP_ENV);
        assert_eq!(cache.capacity(), DEFAULT_CACHE_CAPACITY);
    }

    #[test]
    fn warm_results_are_identical_to_cold_evaluation() {
        let (g, e1, _) = setup();
        let view = LabeledView::new(&g);
        let cold = Evaluator::new(&view, &e1).pairs();
        let cache = QueryCache::new();
        cache.get_or_compile(&view, 0, &e1);
        let warm = cache.get_or_compile(&view, 0, &e1).evaluator().pairs();
        assert_eq!(cold, warm);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn generation_bump_invalidates() {
        let (g, e1, _) = setup();
        let view = LabeledView::new(&g);
        let cache = QueryCache::new();
        let c1 = cache.get_or_compile(&view, 0, &e1);
        let c2 = cache.get_or_compile(&view, 1, &e1);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert!(!Arc::ptr_eq(c1.product(), c2.product()));
    }

    #[test]
    fn cancelled_compile_then_retry_matches_cold_run() {
        use crate::govern::{Budget, CancelToken};
        let (g, e1, _) = setup();
        let view = LabeledView::new(&g);
        // Cold reference: a plain compile on an untouched cache.
        let cold = Evaluator::new(&view, &e1).pairs();
        let cache = QueryCache::new();
        let cancel = CancelToken::new();
        cancel.cancel();
        let gov = Governor::with_cancel(&Budget::default(), cancel);
        let err = cache
            .get_or_compile_governed(&view, 0, &e1, &gov)
            .unwrap_err();
        assert!(matches!(err, EvalError::Interrupted(Interrupt::Cancelled)));
        // The cancelled compile inserted nothing — no partial entry can
        // poison a later hit.
        assert!(cache.is_empty());
        // Retrying on the same cache is byte-identical to the cold run.
        let retry = cache
            .get_or_compile_governed(&view, 0, &e1, &Governor::unlimited())
            .unwrap();
        assert_eq!(retry.evaluator().pairs(), cold);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        // And the entry now behaves as a normal cached hit.
        let again = cache
            .get_or_compile_governed(&view, 0, &e1, &Governor::unlimited())
            .unwrap();
        assert!(Arc::ptr_eq(again.product(), retry.product()));
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn step_exhausted_compile_leaves_the_cache_clean() {
        use crate::govern::Budget;
        let (g, e1, _) = setup();
        let view = LabeledView::new(&g);
        let gov = Governor::new(&Budget::default().with_max_steps(1));
        let cache = QueryCache::new();
        let err = cache
            .get_or_compile_governed(&view, 0, &e1, &gov)
            .unwrap_err();
        assert!(matches!(err, EvalError::Interrupted(Interrupt::StepBudget)));
        assert!(cache.is_empty());
        let ok = cache
            .get_or_compile_governed(&view, 0, &e1, &Governor::unlimited())
            .unwrap();
        assert_eq!(ok.evaluator().pairs(), Evaluator::new(&view, &e1).pairs());
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let (g, _, _) = setup();
        let mut g = g;
        let ea = parse_expr("p", g.consts_mut()).unwrap();
        let eb = parse_expr("q", g.consts_mut()).unwrap();
        let ec = parse_expr("p/q", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let cache = QueryCache::with_capacity(2);
        cache.get_or_compile(&view, 0, &ea);
        cache.get_or_compile(&view, 0, &eb);
        // Touch `ea` so `eb` becomes LRU, then insert a third entry.
        cache.get_or_compile(&view, 0, &ea);
        cache.get_or_compile(&view, 0, &ec);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        // `ea` survived (hit), `eb` was evicted (miss).
        cache.get_or_compile(&view, 0, &ea);
        assert_eq!(cache.hits(), 2);
        cache.get_or_compile(&view, 0, &eb);
        assert_eq!(cache.misses(), 4);
    }

    /// The shared-cache concurrency contract (ISSUE 6 satellite):
    /// N threads hammering one cache across a generation bump never see
    /// a stale entry (no product compiled at generation 0 is ever
    /// returned for a generation-1 lookup), racing misses converge on a
    /// single shared entry, and every thread's results are byte-identical
    /// to a solo evaluation.
    #[test]
    fn concurrent_lookups_share_entries_and_respect_generation_bumps() {
        use std::collections::HashSet;
        let mut g = gnm_labeled(24, 90, &["a", "b"], &["p", "q"], 5);
        let exprs: Vec<PathExpr> = ["p", "q", "(p+q)*", "p/q", "q/p*"]
            .iter()
            .map(|t| parse_expr(t, g.consts_mut()).unwrap())
            .collect();
        let view = LabeledView::new(&g);
        let solo: Vec<_> = exprs
            .iter()
            .map(|e| Evaluator::new(&view, e).pairs())
            .collect();
        let cache = QueryCache::new();
        const THREADS: usize = 8;
        const ROUNDS: usize = 20;

        // Every product a lookup returned, held alive so that no address
        // can be reused between the two generations' pointer sets.
        let run_generation = |generation: u64| -> Vec<Arc<Product>> {
            let mut products = Vec::new();
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|t| {
                        let cache = &cache;
                        let view = &view;
                        let exprs = &exprs;
                        let solo = &solo;
                        s.spawn(move || {
                            let mut seen = Vec::new();
                            for round in 0..ROUNDS {
                                let i = (t + round) % exprs.len();
                                let c = cache.get_or_compile(view, generation, &exprs[i]);
                                assert_eq!(
                                    c.evaluator().pairs(),
                                    solo[i],
                                    "thread {t} expr {i} diverged from the solo run"
                                );
                                seen.push(Arc::clone(c.product()));
                            }
                            seen
                        })
                    })
                    .collect();
                for h in handles {
                    products.extend(h.join().expect("no worker panic"));
                }
            });
            products
        };
        let ptrs = |products: &[Arc<Product>]| -> HashSet<usize> {
            products.iter().map(|p| Arc::as_ptr(p) as usize).collect()
        };

        let gen0 = run_generation(0);
        // Racing misses converged: one product per expression survives
        // as the shared entry (transient race losers may appear in the
        // observed pointer set, but the *cache* holds exactly one entry
        // per signature).
        assert_eq!(cache.len(), exprs.len());

        // "Bump": all clients move to generation 1, as after a store
        // mutation. No generation-0 product may ever be served again.
        let gen1 = run_generation(1);
        let survivors: HashSet<usize> = ptrs(&gen1).intersection(&ptrs(&gen0)).copied().collect();
        assert!(
            survivors.is_empty(),
            "stale products served after the generation bump: {survivors:?}"
        );
        // The first generation-1 insert dropped every generation-0 entry.
        assert_eq!(cache.len(), exprs.len());
        assert_eq!(cache.evictions(), exprs.len() as u64);
    }

    /// A newer generation drops every older entry on its first insert,
    /// counting each as an eviction; a compile that finishes at an older
    /// generation is still answered correctly but never cached.
    #[test]
    fn older_generations_are_dropped_and_late_compiles_are_not_cached() {
        let (mut g, _, _) = setup();
        let ea = parse_expr("p", g.consts_mut()).unwrap();
        let eb = parse_expr("q", g.consts_mut()).unwrap();
        let view = LabeledView::new(&g);
        let cache = QueryCache::new();
        cache.get_or_compile(&view, 3, &ea);
        cache.get_or_compile(&view, 3, &eb);
        assert_eq!((cache.len(), cache.evictions()), (2, 0));
        cache.get_or_compile(&view, 4, &ea);
        assert_eq!((cache.len(), cache.evictions()), (1, 2));

        // A reader still on generation 3 compiles late: it gets a correct
        // answer, the cache keeps only the generation-4 entry, and the
        // next generation-3 lookup misses again.
        let late = cache.get_or_compile(&view, 3, &eb);
        assert_eq!(late.evaluator().pairs(), Evaluator::new(&view, &eb).pairs());
        assert_eq!((cache.len(), cache.evictions()), (1, 2));
        let misses = cache.misses();
        let again = cache.get_or_compile(&view, 3, &eb);
        assert_eq!(cache.misses(), misses + 1);
        assert!(!Arc::ptr_eq(late.product(), again.product()));
        assert_eq!(cache.len(), 1);
    }

    /// Concurrent governed compiles where some clients' budgets trip:
    /// tripped compiles leave the map untouched and other clients still
    /// converge on healthy shared entries.
    #[test]
    fn concurrent_governed_misses_with_trips_leave_healthy_entries() {
        use crate::govern::Budget;
        let (g, e1, _) = setup();
        let view = LabeledView::new(&g);
        let solo = Evaluator::new(&view, &e1).pairs();
        let cache = QueryCache::new();
        std::thread::scope(|s| {
            for t in 0..8 {
                let cache = &cache;
                let view = &view;
                let e1 = &e1;
                let solo = &solo;
                s.spawn(move || {
                    let budget = if t % 2 == 0 {
                        Budget::default().with_max_steps(1) // trips during compile
                    } else {
                        Budget::default()
                    };
                    let gov = Governor::new(&budget);
                    match cache.get_or_compile_governed(view, 0, e1, &gov) {
                        Ok(c) => assert_eq!(&c.evaluator().pairs(), solo),
                        Err(EvalError::Interrupted(Interrupt::StepBudget)) => {}
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                });
            }
        });
        // The tripped compiles never inserted; the successful ones share
        // one healthy entry.
        assert_eq!(cache.len(), 1);
        let c = cache
            .get_or_compile_governed(&view, 0, &e1, &Governor::unlimited())
            .unwrap();
        assert_eq!(c.evaluator().pairs(), solo);
    }
}
