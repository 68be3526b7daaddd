//! The [`DataStore`] seam: row-chunked columnar dataset access.
//!
//! Sufficient statistics are additive over disjoint row ranges, so every
//! counting backend can run chunk-at-a-time and merge per-chunk counts —
//! no consumer actually needs a single resident column array (Scutari,
//! arXiv 1406.7648 makes the same observation for data-partitioned
//! parallelism; the paper's transposed-storage argument is about access
//! *streams* over row ranges, which shard cleanly).
//!
//! Two backends implement the seam:
//!
//! * [`Dataset`] itself — the fully-resident layout, exposed as one
//!   chunk covering all rows. Zero new cost: the chunk borrows the
//!   dataset's columns and its cached [`BitmapIndex`].
//! * [`ChunkedStore`] — fixed `FASTBN_CHUNK_ROWS`-row ranges materialized
//!   on demand from a [`ChunkSource`], held under a configurable
//!   resident-bytes budget with LRU eviction. Chunks are `Arc`-shared, so
//!   eviction never invalidates a chunk a reader still holds.
//!
//! Byte-identity is the invariant: for any chunk size, per-chunk counts
//! merged in chunk order equal the resident counts cell-for-cell (see
//! `crates/data/tests/store_agreement.rs`).

use crate::bitmap::BitmapIndex;
use crate::dataset::{DataError, Dataset};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Environment variable selecting a forced chunk size (rows per chunk)
/// for the learner entry points: when set, resident datasets are wrapped
/// in a [`ChunkedStore`] before learning. Used by CI to drive every
/// example and determinism suite through the chunked backend.
pub const CHUNK_ROWS_ENV: &str = "FASTBN_CHUNK_ROWS";

/// Environment variable bounding the resident-chunk byte budget used by
/// the [`CHUNK_ROWS_ENV`] wrapping path (default: unbounded).
pub const CHUNK_BUDGET_ENV: &str = "FASTBN_CHUNK_BUDGET_BYTES";

/// Row-chunked columnar dataset access.
///
/// Global metadata (dims, arities, per-column state frequencies and
/// observed-state lists) is always resident and cheap; sample values are
/// reached only through [`DataStore::chunk`], which may materialize
/// storage on demand.
///
/// Counts obtained by filling per-chunk tables in chunk order and
/// summing must be byte-identical to a resident fill — every implementor
/// presents the same rows in the same order, partitioned by
/// [`DataStore::chunk_range`].
pub trait DataStore: Send + Sync {
    /// Number of variables (features / BN nodes).
    fn n_vars(&self) -> usize;

    /// Total number of samples across all chunks.
    fn n_samples(&self) -> usize;

    /// Declared arity of variable `v`.
    fn arity(&self, v: usize) -> usize;

    /// All declared arities.
    fn arities(&self) -> &[u8];

    /// Variable names.
    fn names(&self) -> &[String];

    /// Number of row chunks (at least 1; a store with zero samples still
    /// reports one empty chunk so fill loops need no special case).
    fn n_chunks(&self) -> usize;

    /// The sample range `[start, end)` of chunk `i`, without
    /// materializing it — cost models price chunk word counts from this.
    fn chunk_range(&self, i: usize) -> Range<usize>;

    /// Chunk `i`'s columns (and per-chunk bitmap index), materializing
    /// on demand. The returned handle stays valid even if the store
    /// evicts the chunk afterwards.
    fn chunk(&self, i: usize) -> ChunkRef<'_>;

    /// Per-column **global** state frequencies (all chunks):
    /// `state_frequencies()[v][s]` is the number of samples with
    /// `column(v) == s`.
    fn state_frequencies(&self) -> &[Vec<u64>];

    /// The states of `v` observed anywhere in the data (nonzero global
    /// frequency), ascending.
    fn observed_states(&self, v: usize) -> &[usize];

    /// Number of observed states of `v`, at least 1.
    fn observed_arity(&self, v: usize) -> usize {
        self.observed_states(v).len().max(1)
    }

    /// The fully-resident [`Dataset`] behind this store, if there is one.
    ///
    /// Engines use this as a fast path: a resident store is filled with
    /// the historical single-pass loops (including row-major layout
    /// support) instead of the chunk-merge path.
    fn as_resident(&self) -> Option<&Dataset> {
        None
    }
}

impl std::fmt::Debug for dyn DataStore + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataStore")
            .field("n_vars", &self.n_vars())
            .field("n_samples", &self.n_samples())
            .field("n_chunks", &self.n_chunks())
            .finish()
    }
}

/// A [`Dataset`] is the degenerate store: one chunk covering all rows.
///
/// Every existing `&Dataset` call site coerces to `&dyn DataStore`
/// unchanged, and engines recover the historical zero-copy paths through
/// [`DataStore::as_resident`].
impl DataStore for Dataset {
    fn n_vars(&self) -> usize {
        Dataset::n_vars(self)
    }

    fn n_samples(&self) -> usize {
        Dataset::n_samples(self)
    }

    fn arity(&self, v: usize) -> usize {
        Dataset::arity(self, v)
    }

    fn arities(&self) -> &[u8] {
        Dataset::arities(self)
    }

    fn names(&self) -> &[String] {
        Dataset::names(self)
    }

    fn n_chunks(&self) -> usize {
        1
    }

    fn chunk_range(&self, i: usize) -> Range<usize> {
        assert_eq!(i, 0, "resident dataset has exactly one chunk");
        0..Dataset::n_samples(self)
    }

    fn chunk(&self, i: usize) -> ChunkRef<'_> {
        assert_eq!(i, 0, "resident dataset has exactly one chunk");
        ChunkRef::Resident(self)
    }

    fn state_frequencies(&self) -> &[Vec<u64>] {
        Dataset::state_frequencies(self)
    }

    fn observed_states(&self, v: usize) -> &[usize] {
        Dataset::observed_states(self, v)
    }

    fn as_resident(&self) -> Option<&Dataset> {
        Some(self)
    }
}

// ---------------------------------------------------------------------------
// Chunks
// ---------------------------------------------------------------------------

/// One materialized row chunk: contiguous per-variable columns over a
/// local sample range, plus a lazily built per-chunk bitmap index.
#[derive(Debug)]
pub struct ChunkData {
    start: usize,
    len: usize,
    arities: Arc<[u8]>,
    /// `col_major[v * len + local_s]`
    col_major: Vec<u8>,
    bitmaps: OnceLock<BitmapIndex>,
}

impl ChunkData {
    fn new(start: usize, len: usize, arities: Arc<[u8]>, col_major: Vec<u8>) -> Self {
        debug_assert_eq!(col_major.len(), arities.len() * len);
        Self {
            start,
            len,
            arities,
            col_major,
            bitmaps: OnceLock::new(),
        }
    }

    /// Absolute sample index of this chunk's first row.
    #[inline]
    pub fn start(&self) -> usize {
        self.start
    }

    /// Rows in this chunk.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the chunk holds zero rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Variable `v`'s values over this chunk's rows (local indexing).
    #[inline]
    pub fn column(&self, v: usize) -> &[u8] {
        &self.col_major[v * self.len..(v + 1) * self.len]
    }

    /// The per-chunk bitmap index (bit `i` set iff local row `i` has the
    /// state), built on first use and cached for the chunk's lifetime.
    pub fn bitmap_index(&self) -> &BitmapIndex {
        self.bitmaps
            .get_or_init(|| BitmapIndex::build_cols(self.len, &self.arities, &self.col_major))
    }
}

/// A handle to one chunk's columns, either borrowed from a resident
/// dataset (zero-cost) or `Arc`-shared out of a [`ChunkedStore`] cache.
#[derive(Clone, Debug)]
pub enum ChunkRef<'a> {
    /// The whole resident dataset as a single chunk.
    Resident(&'a Dataset),
    /// A materialized chunk, shared with the store's cache.
    Owned(Arc<ChunkData>),
}

impl ChunkRef<'_> {
    /// Absolute sample index of the chunk's first row.
    #[inline]
    pub fn start(&self) -> usize {
        match self {
            ChunkRef::Resident(_) => 0,
            ChunkRef::Owned(c) => c.start(),
        }
    }

    /// Rows in the chunk.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            ChunkRef::Resident(d) => d.n_samples(),
            ChunkRef::Owned(c) => c.len(),
        }
    }

    /// Whether the chunk holds zero rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Variable `v`'s values over the chunk's rows (local indexing).
    #[inline]
    pub fn column(&self, v: usize) -> &[u8] {
        match self {
            ChunkRef::Resident(d) => d.column(v),
            ChunkRef::Owned(c) => c.column(v),
        }
    }

    /// The chunk's bitmap index over its local rows (the dataset-level
    /// cached index for a resident chunk).
    pub fn bitmap_index(&self) -> &BitmapIndex {
        match self {
            ChunkRef::Resident(d) => d.bitmap_index(),
            ChunkRef::Owned(c) => c.bitmap_index(),
        }
    }
}

// ---------------------------------------------------------------------------
// Chunk sources
// ---------------------------------------------------------------------------

/// Backing storage a [`ChunkedStore`] materializes chunks from.
///
/// The store never holds more than the budgeted chunks resident; the
/// source is re-read on every (re)materialization, so implementations
/// must return the same bytes for the same range every time (counts are
/// only reproducible over an immutable source).
pub trait ChunkSource: Send + Sync {
    /// Append variable `v`'s values for the sample range `rows` to `out`.
    fn load(&self, v: usize, rows: Range<usize>, out: &mut Vec<u8>);
}

/// A [`ChunkSource`] over in-memory columns — the stand-in for on-disk
/// or memory-mapped sources, and the backend of
/// [`ChunkedStore::from_dataset`].
#[derive(Clone, Debug)]
pub struct MemorySource {
    columns: Vec<Vec<u8>>,
}

impl MemorySource {
    /// Wrap per-variable columns (must be equal-length; validated by
    /// [`ChunkedStore::new`]).
    pub fn new(columns: Vec<Vec<u8>>) -> Self {
        Self { columns }
    }
}

impl ChunkSource for MemorySource {
    fn load(&self, v: usize, rows: Range<usize>, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.columns[v][rows]);
    }
}

// ---------------------------------------------------------------------------
// ChunkedStore
// ---------------------------------------------------------------------------

struct ChunkCache {
    resident: HashMap<usize, Arc<ChunkData>>,
    /// Chunk ids in recency order, least-recently-used first.
    lru: Vec<usize>,
    bytes: usize,
}

/// The out-of-core backend: fixed-size row chunks materialized on demand
/// from a [`ChunkSource`], held under `budget_bytes` with LRU eviction.
///
/// * Chunk `i` covers rows `[i·chunk_rows, min((i+1)·chunk_rows, m))`.
/// * A chunk's budget charge is fixed at materialization time:
///   `n_vars · len` column bytes plus the worst-case per-chunk bitmap
///   (`Σ_v arity(v) · ⌈len/64⌉ · 8` bytes), so lazily building the
///   bitmap later never changes accounting.
/// * Eviction drops the cache's `Arc`; outstanding [`ChunkRef`]s keep
///   their chunk alive until released.
/// * Global state frequencies / observed-state lists are computed once
///   at construction by streaming the source.
///
/// Materializations and evictions are counted per store (for tests) and
/// in the global metrics registry (`fastbn.data.chunk.materializations`,
/// `fastbn.data.chunk.evictions`, gauge `fastbn.data.chunk.resident_bytes`).
pub struct ChunkedStore {
    n_vars: usize,
    n_samples: usize,
    arities: Arc<[u8]>,
    arities_vec: Vec<u8>,
    names: Vec<String>,
    chunk_rows: usize,
    budget_bytes: usize,
    source: Box<dyn ChunkSource>,
    state_freqs: Vec<Vec<u64>>,
    obs_states: Vec<Vec<usize>>,
    cache: Mutex<ChunkCache>,
    materializations: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for ChunkedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkedStore")
            .field("n_vars", &self.n_vars)
            .field("n_samples", &self.n_samples)
            .field("chunk_rows", &self.chunk_rows)
            .field("budget_bytes", &self.budget_bytes)
            .finish()
    }
}

impl ChunkedStore {
    /// Build a chunked store over `source`.
    ///
    /// `chunk_rows` is the fixed rows-per-chunk (the last chunk may be
    /// shorter); `budget_bytes` bounds resident chunk storage (at least
    /// the requested chunk always stays resident, even if it alone
    /// exceeds the budget). Use `usize::MAX` for an unbounded cache.
    pub fn new(
        names: Vec<String>,
        arities: Vec<u8>,
        n_samples: usize,
        source: Box<dyn ChunkSource>,
        chunk_rows: usize,
        budget_bytes: usize,
    ) -> Result<Self, DataError> {
        let n_vars = arities.len();
        if n_vars == 0 {
            return Err(DataError::NoVariables);
        }
        if !names.is_empty() && names.len() != n_vars {
            return Err(DataError::NameCountMismatch {
                names: names.len(),
                vars: n_vars,
            });
        }
        for (v, &a) in arities.iter().enumerate() {
            if a == 0 {
                return Err(DataError::BadArity { var: v, arity: a });
            }
        }
        assert!(chunk_rows >= 1, "chunk_rows must be at least 1");
        let names = if names.is_empty() {
            (0..n_vars).map(|v| format!("V{v}")).collect()
        } else {
            names
        };

        // One streaming pass over the source per column: global state
        // frequencies (validating every value against its arity on the
        // way), then the observed-state lists derived from them.
        let mut state_freqs: Vec<Vec<u64>> =
            arities.iter().map(|&a| vec![0u64; a as usize]).collect();
        let mut buf = Vec::with_capacity(chunk_rows.min(n_samples.max(1)));
        for (v, freqs) in state_freqs.iter_mut().enumerate() {
            let mut start = 0usize;
            while start < n_samples {
                let end = (start + chunk_rows).min(n_samples);
                buf.clear();
                source.load(v, start..end, &mut buf);
                assert_eq!(
                    buf.len(),
                    end - start,
                    "chunk source returned {} rows for var {v} range {start}..{end}",
                    buf.len()
                );
                for (i, &val) in buf.iter().enumerate() {
                    if val >= arities[v] {
                        return Err(DataError::ValueOutOfRange {
                            var: v,
                            sample: start + i,
                            value: val,
                            arity: arities[v],
                        });
                    }
                    freqs[val as usize] += 1;
                }
                start = end;
            }
        }
        let obs_states = state_freqs
            .iter()
            .map(|counts| {
                counts
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(s, _)| s)
                    .collect()
            })
            .collect();

        Ok(Self {
            n_vars,
            n_samples,
            arities: Arc::from(arities.as_slice()),
            arities_vec: arities,
            names,
            chunk_rows,
            budget_bytes,
            source,
            state_freqs,
            obs_states,
            cache: Mutex::new(ChunkCache {
                resident: HashMap::new(),
                lru: Vec::new(),
                bytes: 0,
            }),
            materializations: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    /// Chunk a resident dataset (columns are copied into a
    /// [`MemorySource`]). The main entry for tests and the
    /// `FASTBN_CHUNK_ROWS` wrapping path.
    pub fn from_dataset(data: &Dataset, chunk_rows: usize, budget_bytes: usize) -> Self {
        let columns = (0..data.n_vars())
            .map(|v| data.column(v).to_vec())
            .collect();
        Self::new(
            data.names().to_vec(),
            data.arities().to_vec(),
            data.n_samples(),
            Box::new(MemorySource::new(columns)),
            chunk_rows,
            budget_bytes,
        )
        .expect("a valid dataset is a valid chunk source")
    }

    /// When [`CHUNK_ROWS_ENV`] is set, wrap `data` in a chunked store
    /// with that chunk size (budget from [`CHUNK_BUDGET_ENV`], default
    /// unbounded). Returns `None` when the variable is unset.
    ///
    /// # Panics
    /// Panics on an unparsable or zero value — misconfiguration should
    /// fail loudly, not silently learn from the resident path.
    pub fn from_env(data: &Dataset) -> Option<Self> {
        let raw = std::env::var(CHUNK_ROWS_ENV).ok()?;
        let rows: usize = raw
            .parse()
            .unwrap_or_else(|_| panic!("{CHUNK_ROWS_ENV}={raw:?} is not a chunk row count"));
        assert!(rows >= 1, "{CHUNK_ROWS_ENV} must be at least 1");
        let budget = match std::env::var(CHUNK_BUDGET_ENV) {
            Ok(raw) => raw
                .parse()
                .unwrap_or_else(|_| panic!("{CHUNK_BUDGET_ENV}={raw:?} is not a byte count")),
            Err(_) => usize::MAX,
        };
        Some(Self::from_dataset(data, rows, budget))
    }

    /// The fixed rows-per-chunk.
    #[inline]
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// The resident-chunk byte budget.
    #[inline]
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Chunks materialized so far (a chunk re-loaded after eviction
    /// counts again).
    pub fn materializations(&self) -> u64 {
        self.materializations.load(Ordering::Relaxed)
    }

    /// Chunks evicted so far under budget pressure.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Bytes currently charged against the budget.
    pub fn resident_bytes(&self) -> usize {
        self.cache.lock().expect("chunk cache poisoned").bytes
    }

    /// Budget charge of a chunk of `len` rows: column bytes plus the
    /// worst-case bitmap payload (charged up front so the lazy bitmap
    /// build never changes accounting after the fact).
    fn chunk_cost(&self, len: usize) -> usize {
        let total_states: usize = self.arities_vec.iter().map(|&a| a as usize).sum();
        self.n_vars * len + total_states * len.div_ceil(64) * 8
    }

    fn materialize(&self, i: usize) -> Arc<ChunkData> {
        let range = DataStore::chunk_range(self, i);
        let len = range.len();
        let mut col_major = Vec::with_capacity(self.n_vars * len);
        for v in 0..self.n_vars {
            let before = col_major.len();
            self.source.load(v, range.clone(), &mut col_major);
            assert_eq!(
                col_major.len() - before,
                len,
                "chunk source returned a short column for var {v}"
            );
        }
        Arc::new(ChunkData::new(
            range.start,
            len,
            Arc::clone(&self.arities),
            col_major,
        ))
    }
}

impl Drop for ChunkedStore {
    fn drop(&mut self) {
        let cache = self.cache.get_mut().expect("chunk cache poisoned");
        if cache.bytes > 0 {
            fastbn_obs::gauge!("fastbn.data.chunk.resident_bytes").sub(cache.bytes as i64);
        }
    }
}

impl DataStore for ChunkedStore {
    fn n_vars(&self) -> usize {
        self.n_vars
    }

    fn n_samples(&self) -> usize {
        self.n_samples
    }

    fn arity(&self, v: usize) -> usize {
        self.arities_vec[v] as usize
    }

    fn arities(&self) -> &[u8] {
        &self.arities_vec
    }

    fn names(&self) -> &[String] {
        &self.names
    }

    fn n_chunks(&self) -> usize {
        self.n_samples.div_ceil(self.chunk_rows).max(1)
    }

    fn chunk_range(&self, i: usize) -> Range<usize> {
        assert!(i < self.n_chunks(), "chunk {i} out of range");
        let start = (i * self.chunk_rows).min(self.n_samples);
        let end = (start + self.chunk_rows).min(self.n_samples);
        start..end
    }

    fn chunk(&self, i: usize) -> ChunkRef<'_> {
        assert!(i < self.n_chunks(), "chunk {i} out of range");
        let mut cache = self.cache.lock().expect("chunk cache poisoned");
        if let Some(chunk) = cache.resident.get(&i) {
            let chunk = Arc::clone(chunk);
            // Refresh recency: move `i` to the most-recent end.
            if let Some(pos) = cache.lru.iter().position(|&id| id == i) {
                cache.lru.remove(pos);
            }
            cache.lru.push(i);
            return ChunkRef::Owned(chunk);
        }

        // Materialize under the lock: loads are cheap relative to the
        // fill work that follows, and holding the lock keeps concurrent
        // fills from double-loading the same chunk.
        let chunk = self.materialize(i);
        let cost = self.chunk_cost(chunk.len());
        self.materializations.fetch_add(1, Ordering::Relaxed);
        fastbn_obs::counter!("fastbn.data.chunk.materializations").inc();

        // Evict least-recently-used chunks until the newcomer fits (it
        // is always admitted, even if alone over budget).
        while !cache.lru.is_empty() && cache.bytes.saturating_add(cost) > self.budget_bytes {
            let victim = cache.lru.remove(0);
            if let Some(evicted) = cache.resident.remove(&victim) {
                let freed = self.chunk_cost(evicted.len());
                cache.bytes -= freed;
                self.evictions.fetch_add(1, Ordering::Relaxed);
                fastbn_obs::counter!("fastbn.data.chunk.evictions").inc();
                fastbn_obs::gauge!("fastbn.data.chunk.resident_bytes").sub(freed as i64);
            }
        }
        cache.bytes += cost;
        fastbn_obs::gauge!("fastbn.data.chunk.resident_bytes").add(cost as i64);
        cache.resident.insert(i, Arc::clone(&chunk));
        cache.lru.push(i);
        ChunkRef::Owned(chunk)
    }

    fn state_frequencies(&self) -> &[Vec<u64>] {
        &self.state_freqs
    }

    fn observed_states(&self, v: usize) -> &[usize] {
        &self.obs_states[v]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Dataset {
        Dataset::from_columns(
            vec!["a".into(), "b".into()],
            vec![2, 3],
            vec![vec![0, 1, 0, 1, 1, 0, 1], vec![2, 0, 1, 2, 2, 0, 1]],
        )
        .unwrap()
    }

    #[test]
    fn dataset_is_a_single_chunk_store() {
        let d = data();
        let store: &dyn DataStore = &d;
        assert_eq!(store.n_chunks(), 1);
        assert_eq!(store.chunk_range(0), 0..7);
        let c = store.chunk(0);
        assert_eq!(c.len(), 7);
        assert_eq!(c.start(), 0);
        assert_eq!(c.column(1), d.column(1));
        assert!(store.as_resident().is_some());
    }

    #[test]
    fn chunked_store_partitions_the_rows() {
        let d = data();
        let store = ChunkedStore::from_dataset(&d, 3, usize::MAX);
        assert_eq!(store.n_chunks(), 3);
        assert_eq!(store.chunk_range(0), 0..3);
        assert_eq!(store.chunk_range(1), 3..6);
        assert_eq!(store.chunk_range(2), 6..7);
        let mut rebuilt = vec![Vec::new(); 2];
        for i in 0..store.n_chunks() {
            let c = store.chunk(i);
            assert_eq!(c.start(), store.chunk_range(i).start);
            for (v, col) in rebuilt.iter_mut().enumerate() {
                col.extend_from_slice(c.column(v));
            }
        }
        for (v, col) in rebuilt.iter().enumerate() {
            assert_eq!(col, d.column(v), "var {v}");
        }
    }

    #[test]
    fn global_metadata_matches_resident() {
        let d = data();
        let store = ChunkedStore::from_dataset(&d, 2, usize::MAX);
        assert_eq!(store.state_frequencies(), d.state_frequencies());
        for v in 0..d.n_vars() {
            assert_eq!(
                DataStore::observed_states(&store, v),
                d.observed_states(v),
                "var {v}"
            );
        }
    }

    #[test]
    fn per_chunk_bitmaps_cover_local_rows() {
        let d = data();
        let store = ChunkedStore::from_dataset(&d, 3, usize::MAX);
        for i in 0..store.n_chunks() {
            let c = store.chunk(i);
            let idx = c.bitmap_index();
            for v in 0..2 {
                for s in 0..d.arity(v) {
                    let pop: u32 = idx.words(v, s).iter().map(|w| w.count_ones()).sum();
                    let expect = c.column(v).iter().filter(|&&x| x as usize == s).count();
                    assert_eq!(pop as usize, expect, "chunk {i} var {v} state {s}");
                }
            }
        }
    }

    #[test]
    fn lru_eviction_respects_the_budget() {
        let d = data();
        let store = ChunkedStore::from_dataset(&d, 2, usize::MAX);
        let one_chunk = store.chunk_cost(2);
        // Budget for exactly two 2-row chunks.
        let store = ChunkedStore::from_dataset(&d, 2, 2 * one_chunk);
        let _c0 = store.chunk(0);
        let _c1 = store.chunk(1);
        assert_eq!(store.materializations(), 2);
        assert_eq!(store.evictions(), 0);
        assert!(store.resident_bytes() <= 2 * one_chunk);
        // Touch 0 so it is most recent, then load 2: chunk 1 is evicted.
        let _again = store.chunk(0);
        let _c2 = store.chunk(2);
        assert_eq!(store.evictions(), 1);
        // Chunk 0 is still cached (no new materialization)...
        let m = store.materializations();
        let _hit = store.chunk(0);
        assert_eq!(store.materializations(), m);
        // ...but chunk 1 must be re-materialized.
        let _miss = store.chunk(1);
        assert_eq!(store.materializations(), m + 1);
    }

    #[test]
    fn evicted_chunk_handles_stay_valid() {
        let d = data();
        let probe = ChunkedStore::from_dataset(&d, 2, usize::MAX);
        let tiny = probe.chunk_cost(2); // budget: one chunk at a time
        let store = ChunkedStore::from_dataset(&d, 2, tiny);
        let c0 = store.chunk(0);
        let _c1 = store.chunk(1); // evicts chunk 0 from the cache
        assert!(store.evictions() >= 1);
        assert_eq!(c0.column(0), &d.column(0)[0..2], "handle outlives eviction");
    }

    #[test]
    fn empty_store_reports_one_empty_chunk() {
        let store = ChunkedStore::new(
            vec![],
            vec![2],
            0,
            Box::new(MemorySource::new(vec![vec![]])),
            4,
            usize::MAX,
        )
        .unwrap();
        assert_eq!(store.n_chunks(), 1);
        assert_eq!(store.chunk_range(0), 0..0);
        assert!(store.chunk(0).is_empty());
    }

    #[test]
    fn source_values_validated_against_arity() {
        let err = ChunkedStore::new(
            vec![],
            vec![2],
            3,
            Box::new(MemorySource::new(vec![vec![0, 5, 1]])),
            2,
            usize::MAX,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            DataError::ValueOutOfRange {
                value: 5,
                sample: 1,
                ..
            }
        ));
    }
}
