//! Shared warm basis stores and the cross-session store registry.
//!
//! Jigsaw's economy is fingerprint-level reuse of Monte Carlo work. PR 4's
//! snapshots stretched that reuse across *process restarts*; this module
//! stretches it across *users of one process*: a [`SharedBasisStore`] is a
//! cheaply-cloneable handle to one in-memory [`ShardedBasisStore`] that any
//! number of sweeps and [`crate::interactive::InteractiveSession`]s can
//! attach to concurrently, so the Nth client's what-if queries resolve
//! against bases the first client paid for.
//!
//! The [`StoreRegistry`] maps a [`StoreKey`] — a caller-defined scope (for
//! the session server: catalog plus compiled-scenario identity) and the
//! basis-identity [`config_fingerprint`](crate::basis::config_fingerprint)
//! — to the one shared store for that key. Two sessions whose keys agree
//! build byte-compatible bases by construction (the fingerprint covers
//! every knob that affects basis identity), so sharing is always sound.
//!
//! ## Locking and determinism
//!
//! The store sits behind one `RwLock`: estimates take read locks, basis
//! insertion / refinement / sweeps take write locks, and interactive
//! sessions keep Monte Carlo world evaluation *outside* any lock. Which
//! bases exist depends only on which work was done, not on interleaving —
//! a matched basis yields the same mapped metrics no matter which client
//! created it — so concurrent clients never diverge on values; only
//! *telemetry attribution* (who paid, who rode warm) depends on arrival
//! order. The one deliberate exception: a full *sweep* holds the write
//! lock for its whole run. That serializes every other client of the
//! scenario behind it, and that serialization is load-bearing — it is what
//! makes a sweep's resolve sequence independent of session interleaving
//! (the bit-identity guarantee) and the second concurrent sweep of a
//! scenario all warm hits. Finer-grained sweep locking (per-wave windows)
//! is future work.
//!
//! Everything a session is *attached* with — [`SharedBasisStore::generation`]
//! and [`SharedBasisStore::n_shards`] — reads no lock at all, so a client
//! can attach to a store while it is being swept; only its first touch
//! waits for the sweep.
//!
//! ## Generations
//!
//! Replacing the store wholesale (the server's `LOAD` command) invalidates
//! every `BasisId` handed out before it. [`SharedBasisStore::replace`]
//! bumps a generation counter; long-lived attachments (interactive
//! sessions) compare generations and drop their cached basis links instead
//! of dereferencing stale ids.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use crate::basis::snapshot::SnapshotError;
use crate::basis::ShardedBasisStore;
use crate::config::JigsawConfig;
use crate::mapping::MappingFamily;

/// Handles to the shared-store global instruments (see `jigsaw_obs`);
/// registered once, lock-free to update, purely observational.
struct StoreObs {
    replacements: jigsaw_obs::Counter,
    stores_created: jigsaw_obs::Counter,
    snapshot_save_us: jigsaw_obs::Histogram,
    snapshot_save_bytes: jigsaw_obs::Histogram,
}

fn store_obs() -> &'static StoreObs {
    static OBS: OnceLock<StoreObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let g = jigsaw_obs::global();
        StoreObs {
            replacements: g.counter("jigsaw_store_replacements_total", &[]),
            stores_created: g.counter("jigsaw_store_created_total", &[]),
            snapshot_save_us: g.histogram("jigsaw_store_snapshot_save_us", &[]),
            snapshot_save_bytes: g.histogram("jigsaw_store_snapshot_save_bytes", &[]),
        }
    })
}

/// Refresh the per-column committed-basis gauges from `store`. Called on
/// the tail of every mutating access; aggregated over all shared stores in
/// the process (per-scenario splits live in the `STATS`/`SWEPT` frames).
fn publish_bases(store: &ShardedBasisStore) {
    if !jigsaw_obs::enabled() {
        return;
    }
    let g = jigsaw_obs::global();
    for (c, n) in store.bases_per_column().into_iter().enumerate() {
        g.gauge("jigsaw_store_bases", &[("col", &c.to_string())]).set(n as i64);
    }
}

/// Interior of a [`SharedBasisStore`].
struct Inner {
    store: RwLock<ShardedBasisStore>,
    /// Replacement generation. Written only under the write lock, so a load
    /// made while holding either lock names exactly the store behind it.
    generation: AtomicU64,
    /// One shard per output column, fixed for the handle's lifetime
    /// ([`SharedBasisStore::replace`] keeps it).
    n_shards: usize,
}

/// A cheaply-cloneable handle to one warm [`ShardedBasisStore`] shared by
/// any number of sweeps and interactive sessions.
pub struct SharedBasisStore {
    inner: Arc<Inner>,
}

impl Clone for SharedBasisStore {
    fn clone(&self) -> Self {
        SharedBasisStore { inner: Arc::clone(&self.inner) }
    }
}

impl std::fmt::Debug for SharedBasisStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedBasisStore")
            .field("generation", &self.generation())
            .field("bases_per_column", &self.bases_per_column())
            .field("handles", &Arc::strong_count(&self.inner))
            .finish()
    }
}

impl SharedBasisStore {
    /// A fresh (cold) shared store with one shard per output column.
    pub fn new(n_cols: usize, cfg: &JigsawConfig, family: Arc<dyn MappingFamily>) -> Self {
        Self::from_store(ShardedBasisStore::new(n_cols, cfg, family))
    }

    /// Wrap an existing store (e.g. one loaded from a snapshot) for sharing.
    pub fn from_store(store: ShardedBasisStore) -> Self {
        store_obs().stores_created.inc();
        SharedBasisStore {
            inner: Arc::new(Inner {
                n_shards: store.n_shards(),
                store: RwLock::new(store),
                generation: AtomicU64::new(0),
            }),
        }
    }

    /// Number of live handles to this store (sessions attached + registry).
    pub fn handles(&self) -> usize {
        Arc::strong_count(&self.inner)
    }

    /// The replacement generation: bumped by [`Self::replace`], never by
    /// ordinary inserts/refinements. Attachments use it to notice wholesale
    /// store swaps that invalidate their cached `BasisId`s. Takes no lock.
    pub fn generation(&self) -> u64 {
        self.inner.generation.load(Ordering::SeqCst)
    }

    /// Number of shards (output columns). Takes no lock.
    pub fn n_shards(&self) -> usize {
        self.inner.n_shards
    }

    /// Basis count per column.
    pub fn bases_per_column(&self) -> Vec<usize> {
        self.read().bases_per_column()
    }

    /// Run `f` with shared (read-locked) access to the store.
    pub fn with_store<R>(&self, f: impl FnOnce(&ShardedBasisStore) -> R) -> R {
        f(&self.read())
    }

    /// Like [`Self::with_store`], but `f` also receives the generation
    /// observed **under the same lock acquisition** as the store reference.
    /// Holders of long-lived `BasisId`s must use this (not a separate
    /// [`Self::generation`] call, which races with [`Self::replace`]) to
    /// decide whether their cached ids still refer to this store.
    pub fn with_store_versioned<R>(&self, f: impl FnOnce(u64, &ShardedBasisStore) -> R) -> R {
        let store = self.read();
        f(self.generation(), &store)
    }

    /// Like [`Self::with_store_mut`], but with the generation observed
    /// under the same lock acquisition (see [`Self::with_store_versioned`]).
    pub fn with_store_mut_versioned<R>(
        &self,
        f: impl FnOnce(u64, &mut ShardedBasisStore) -> R,
    ) -> R {
        let mut store = self.write();
        let out = f(self.generation(), &mut store);
        publish_bases(&store);
        out
    }

    /// Run `f` with exclusive (write-locked) access to the store. Session
    /// bookkeeping (resolve/insert/refine) should keep world evaluation
    /// outside the closure; a full sweep deliberately runs inside it — see
    /// the module docs on why that serialization is load-bearing.
    pub fn with_store_mut<R>(&self, f: impl FnOnce(&mut ShardedBasisStore) -> R) -> R {
        let mut store = self.write();
        let out = f(&mut store);
        publish_bases(&store);
        out
    }

    /// Replace the store wholesale (snapshot `LOAD`), returning the previous
    /// contents. Bumps the generation so attached sessions drop their now-
    /// dangling basis links instead of dereferencing them. The replacement
    /// must have the same shard count (attachments index shards by column).
    pub fn replace(&self, store: ShardedBasisStore) -> ShardedBasisStore {
        assert_eq!(store.n_shards(), self.n_shards(), "a replacement keeps the shard count");
        let mut current = self.write();
        let generation = self.inner.generation.fetch_add(1, Ordering::SeqCst) + 1;
        let old = std::mem::replace(&mut *current, store);
        store_obs().replacements.inc();
        publish_bases(&current);
        jigsaw_obs::event!("store.replace", generation = generation);
        old
    }

    /// Serialize the current contents (see
    /// [`ShardedBasisStore::to_snapshot_bytes`]) under a read lock.
    pub fn to_snapshot_bytes(
        &self,
        cfg: &JigsawConfig,
        family_name: &str,
    ) -> Result<Vec<u8>, SnapshotError> {
        let t0 = std::time::Instant::now();
        let bytes = self.read().to_snapshot_bytes(cfg, family_name)?;
        let obs = store_obs();
        obs.snapshot_save_us.record_duration(t0.elapsed());
        obs.snapshot_save_bytes.record(bytes.len() as u64);
        Ok(bytes)
    }

    /// Reclaim exclusive ownership of the store. Fails (returning the
    /// handle) while any other handle is alive.
    pub fn try_into_store(self) -> Result<ShardedBasisStore, SharedBasisStore> {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => Ok(inner.store.into_inner().expect("shared basis store lock poisoned")),
            Err(inner) => Err(SharedBasisStore { inner }),
        }
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, ShardedBasisStore> {
        self.inner.store.read().expect("shared basis store lock poisoned")
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, ShardedBasisStore> {
        self.inner.store.write().expect("shared basis store lock poisoned")
    }
}

/// Identity of one shared store in a [`StoreRegistry`].
///
/// `scope` names *what* the bases describe (for the session server: the
/// catalog name plus a hash of the compiled scenario, since bases are only
/// meaningful for the simulation that produced them); `config_fp` is the
/// basis-identity [`config_fingerprint`](crate::basis::config_fingerprint),
/// so sessions under different matching regimes never share.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// Caller-defined scope (catalog + scenario identity).
    pub scope: String,
    /// Basis-identity config fingerprint.
    pub config_fp: u64,
}

/// A concurrent map from [`StoreKey`] to the one [`SharedBasisStore`] for
/// that key — the server-side registry that lets every client of a scenario
/// ride the same warm store.
#[derive(Default)]
pub struct StoreRegistry {
    entries: RwLock<HashMap<StoreKey, SharedBasisStore>>,
}

impl StoreRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The store for `key`, if one exists.
    pub fn get(&self, key: &StoreKey) -> Option<SharedBasisStore> {
        self.entries.read().expect("store registry lock poisoned").get(key).cloned()
    }

    /// The store for `key`, creating it with `init` on first use. Two
    /// concurrent callers with the same key always receive handles to the
    /// same store.
    pub fn get_or_create(
        &self,
        key: StoreKey,
        init: impl FnOnce() -> SharedBasisStore,
    ) -> SharedBasisStore {
        if let Some(found) = self.get(&key) {
            return found;
        }
        let mut entries = self.entries.write().expect("store registry lock poisoned");
        entries.entry(key).or_insert_with(init).clone()
    }

    /// Number of registered stores.
    pub fn len(&self) -> usize {
        self.entries.read().expect("store registry lock poisoned").len()
    }

    /// True when no store is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The registered keys (unordered).
    pub fn keys(&self) -> Vec<StoreKey> {
        self.entries.read().expect("store registry lock poisoned").keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::Fingerprint;
    use crate::mapping::AffineFamily;
    use jigsaw_pdb::OutputMetrics;

    fn cfg() -> JigsawConfig {
        JigsawConfig::paper().with_fingerprint_len(4).with_n_samples(8)
    }

    fn insert_basis(shared: &SharedBasisStore, col: usize, v: &[f64]) {
        shared.with_store_mut(|s| {
            s.shard_mut(col)
                .insert(Fingerprint::new(v.to_vec()), OutputMetrics::from_samples(v.to_vec()));
        });
    }

    #[test]
    fn clones_share_one_store() {
        let c = cfg();
        let a = SharedBasisStore::new(1, &c, Arc::new(AffineFamily));
        let b = a.clone();
        insert_basis(&a, 0, &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(b.bases_per_column(), vec![1], "clone must see the insert");
        assert_eq!(a.handles(), 2);
    }

    #[test]
    fn replace_bumps_generation_and_returns_old() {
        let c = cfg();
        let shared = SharedBasisStore::new(2, &c, Arc::new(AffineFamily));
        insert_basis(&shared, 0, &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(shared.generation(), 0);
        let old = shared.replace(ShardedBasisStore::new(2, &c, Arc::new(AffineFamily)));
        assert_eq!(old.bases_per_column(), vec![1, 0]);
        assert_eq!(shared.generation(), 1);
        assert_eq!(shared.bases_per_column(), vec![0, 0]);
    }

    #[test]
    fn inserts_do_not_bump_generation() {
        let c = cfg();
        let shared = SharedBasisStore::new(1, &c, Arc::new(AffineFamily));
        insert_basis(&shared, 0, &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(shared.generation(), 0);
    }

    #[test]
    fn attachment_reads_take_no_lock() {
        let c = cfg();
        let shared = SharedBasisStore::new(2, &c, Arc::new(AffineFamily));
        // Under the write lock a sweep holds, what `attach` reads still
        // answers (a lock here would deadlock this thread).
        shared.with_store_mut(|_| {
            assert_eq!(shared.n_shards(), 2);
            assert_eq!(shared.generation(), 0);
        });
    }

    #[test]
    fn try_into_store_needs_exclusivity() {
        let c = cfg();
        let a = SharedBasisStore::new(1, &c, Arc::new(AffineFamily));
        let b = a.clone();
        let a = match a.try_into_store() {
            Err(handle) => handle,
            Ok(_) => panic!("b is still alive; unwrap must fail"),
        };
        drop(b);
        match a.try_into_store() {
            Ok(store) => assert_eq!(store.n_shards(), 1),
            Err(_) => panic!("exclusive handle must unwrap"),
        }
    }

    #[test]
    fn snapshot_bytes_roundtrip_through_shared_handle() {
        let c = cfg();
        let shared = SharedBasisStore::new(1, &c, Arc::new(AffineFamily));
        insert_basis(&shared, 0, &[0.5, 1.5, 2.5, 3.5]);
        let bytes = shared.to_snapshot_bytes(&c, "affine").unwrap();
        let loaded =
            ShardedBasisStore::from_snapshot_bytes(&bytes, &c, Arc::new(AffineFamily), 1).unwrap();
        assert_eq!(loaded.bases_per_column(), vec![1]);
    }

    #[test]
    fn registry_shares_per_key_and_isolates_across_keys() {
        let c = cfg();
        let reg = StoreRegistry::new();
        let key = |scope: &str| StoreKey { scope: scope.into(), config_fp: 7 };
        let a =
            reg.get_or_create(key("s1"), || SharedBasisStore::new(1, &c, Arc::new(AffineFamily)));
        let b = reg.get_or_create(key("s1"), || panic!("must reuse the existing store"));
        insert_basis(&a, 0, &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(b.bases_per_column(), vec![1], "same key shares one store");
        let other =
            reg.get_or_create(key("s2"), || SharedBasisStore::new(1, &c, Arc::new(AffineFamily)));
        assert_eq!(other.bases_per_column(), vec![0], "different scope is cold");
        assert_eq!(reg.len(), 2);
        assert!(!reg.is_empty());
        assert!(reg.get(&key("s3")).is_none());
        let mut scopes: Vec<String> = reg.keys().into_iter().map(|k| k.scope).collect();
        scopes.sort();
        assert_eq!(scopes, vec!["s1", "s2"]);
    }

    #[test]
    fn concurrent_attachments_land_every_insert() {
        let c = cfg();
        let shared = SharedBasisStore::new(1, &c, Arc::new(AffineFamily));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let handle = shared.clone();
                scope.spawn(move || {
                    // Distinct non-affine shapes so nothing matches anything.
                    let v = [0.0, 1.0, (t * t) as f64 + 2.0, (t * t * t) as f64 + 9.0];
                    insert_basis(&handle, 0, &v);
                });
            }
        });
        assert_eq!(shared.bases_per_column(), vec![4]);
    }
}
