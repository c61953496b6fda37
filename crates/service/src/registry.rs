//! The multi-tenant instance registry: `name → Arc<SesInstance>`.
//!
//! A server boots with a set of *named* instances — some built in memory
//! (the workload default), some registered as paths to packed files
//! (`ses pack` output, see `ses_core::store`). Packed entries are **lazy**:
//! the file is opened on the first request that names the instance, behind
//! a per-entry once-cell, and can be evicted again to give the memory back
//! (the next touch reopens the file). Registry lookups are short
//! lock-hold-and-clone operations, so shards resolve instances on the
//! request path without serializing behind a load.
//!
//! Unknown names surface as
//! [`ses_core::Error::UnknownInstance`] listing everything registered —
//! the wire layer turns that into a structured 404.

use serde::{Deserialize, Serialize};
use ses_core::{store, SesInstance};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

/// Where a registry entry's instance comes from.
#[derive(Debug, Clone)]
enum InstanceSource {
    /// Registered as an already-built in-memory instance.
    Builtin,
    /// Registered as a path to a packed instance file, opened lazily.
    Packed(PathBuf),
}

/// One registry entry: its source plus the lazily-filled handle.
#[derive(Debug)]
struct Slot {
    source: InstanceSource,
    cell: Mutex<Option<Arc<SesInstance>>>,
}

/// A point-in-time description of one registry entry, serialized by the
/// server's `GET /instances` endpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceInfo {
    /// The registered name.
    pub name: String,
    /// `"builtin"` for in-memory entries, the file path for packed ones.
    pub source: String,
    /// Whether the instance is currently resident in memory.
    pub loaded: bool,
    /// `|U|` if loaded, else 0.
    pub users: usize,
    /// `|E|` if loaded, else 0.
    pub events: usize,
    /// `|T|` if loaded, else 0.
    pub intervals: usize,
    /// `|C|` if loaded, else 0.
    pub competing: usize,
}

/// Thread-safe map of named instances with lazy loading and eviction.
#[derive(Debug, Default)]
pub struct InstanceRegistry {
    slots: Mutex<BTreeMap<String, Arc<Slot>>>,
}

/// A poisoned registry lock only means another thread panicked mid-insert
/// of an `Arc` — the map itself is still structurally sound, so recover
/// the guard instead of propagating the poison onto the request path.
fn recover<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

impl InstanceRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an already-built instance under `name` (replacing any
    /// previous entry with that name).
    pub fn register(&self, name: impl Into<String>, instance: Arc<SesInstance>) {
        let slot = Slot {
            source: InstanceSource::Builtin,
            cell: Mutex::new(Some(instance)),
        };
        recover(&self.slots).insert(name.into(), Arc::new(slot));
    }

    /// Registers a packed instance file under `name`; the file is not
    /// touched until the first [`InstanceRegistry::get`] for it.
    pub fn register_path(&self, name: impl Into<String>, path: impl Into<PathBuf>) {
        let slot = Slot {
            source: InstanceSource::Packed(path.into()),
            cell: Mutex::new(None),
        };
        recover(&self.slots).insert(name.into(), Arc::new(slot));
    }

    /// Resolves `name` to its instance, cold-opening a packed file on first
    /// touch. Unknown names yield
    /// [`ses_core::Error::UnknownInstance`]; a failed open yields
    /// [`ses_core::Error::Store`] (and stays unloaded, so a fixed file can
    /// be retried without re-registering).
    pub fn get(&self, name: &str) -> Result<Arc<SesInstance>, ses_core::Error> {
        // Clone the slot handle out of the map lock before doing anything
        // else: `names()` below re-locks the map, and the packed open can
        // be slow — neither may run under the `slots` guard.
        let found = recover(&self.slots).get(name).map(Arc::clone);
        let slot = match found {
            Some(slot) => slot,
            None => {
                return Err(ses_core::Error::UnknownInstance {
                    name: name.to_owned(),
                    known: self.names(),
                })
            }
        };
        // The per-slot cell serializes the lazy load: concurrent first
        // touches open the file once, later touches clone the Arc.
        let mut cell = recover(&slot.cell);
        if let Some(inst) = cell.as_ref() {
            return Ok(Arc::clone(inst));
        }
        match &slot.source {
            InstanceSource::Builtin => Err(ses_core::Error::UnknownInstance {
                name: name.to_owned(),
                known: self.names(),
            }),
            InstanceSource::Packed(path) => {
                let inst = {
                    let _span = ses_obs::span(ses_obs::Stage::Load);
                    store::open_path(path).map_err(ses_core::Error::Store)?
                };
                *cell = Some(Arc::clone(&inst));
                Ok(inst)
            }
        }
    }

    /// The registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        recover(&self.slots).keys().cloned().collect()
    }

    /// Describes every entry (name order) without loading anything.
    pub fn describe(&self) -> Vec<InstanceInfo> {
        let slots: Vec<(String, Arc<Slot>)> = recover(&self.slots)
            .iter()
            .map(|(name, slot)| (name.clone(), Arc::clone(slot)))
            .collect();
        slots
            .into_iter()
            .map(|(name, slot)| {
                let loaded = recover(&slot.cell).clone();
                let source = match &slot.source {
                    InstanceSource::Builtin => "builtin".to_owned(),
                    InstanceSource::Packed(path) => path.display().to_string(),
                };
                match loaded {
                    Some(inst) => InstanceInfo {
                        name,
                        source,
                        loaded: true,
                        users: inst.num_users(),
                        events: inst.num_events(),
                        intervals: inst.num_intervals(),
                        competing: inst.num_competing(),
                    },
                    None => InstanceInfo {
                        name,
                        source,
                        loaded: false,
                        users: 0,
                        events: 0,
                        intervals: 0,
                        competing: 0,
                    },
                }
            })
            .collect()
    }

    /// Drops the resident handle of a *packed* entry so its memory can be
    /// reclaimed once in-flight sessions release their clones; the next
    /// [`InstanceRegistry::get`] reopens the file. Builtin entries have no
    /// backing file to reload from and are left alone. Returns whether a
    /// resident handle was actually dropped.
    pub fn evict(&self, name: &str) -> bool {
        let slot = match recover(&self.slots).get(name) {
            Some(slot) => Arc::clone(slot),
            None => return false,
        };
        if matches!(slot.source, InstanceSource::Builtin) {
            return false;
        }
        let dropped = recover(&slot.cell).take().is_some();
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_core::testkit;

    #[test]
    fn builtin_register_get_and_names() {
        let registry = InstanceRegistry::new();
        let inst = testkit::small_instance(1);
        registry.register("default", Arc::clone(&inst));
        registry.register("tenant-a", testkit::small_instance(2));
        assert_eq!(registry.names(), vec!["default", "tenant-a"]);
        let got = registry.get("default").unwrap();
        assert!(Arc::ptr_eq(&got, &inst));
    }

    #[test]
    fn unknown_name_lists_registered() {
        let registry = InstanceRegistry::new();
        registry.register("default", testkit::small_instance(1));
        let err = registry.get("nope").unwrap_err();
        match err {
            ses_core::Error::UnknownInstance { name, known } => {
                assert_eq!(name, "nope");
                assert_eq!(known, vec!["default"]);
            }
            other => panic!("expected UnknownInstance, got {other:?}"),
        }
    }

    #[test]
    fn packed_entry_loads_lazily_and_evicts() {
        let inst = testkit::small_instance(3);
        let path = std::env::temp_dir().join("ses-registry-test-lazy.sesstore");
        ses_core::store::pack_to_path(&inst, &path).unwrap();

        let registry = InstanceRegistry::new();
        registry.register_path("packed", &path);
        let info = &registry.describe()[0];
        assert!(!info.loaded, "must not load before first touch");
        assert_eq!(info.source, path.display().to_string());

        let got = registry.get("packed").unwrap();
        assert_eq!(got.num_users(), inst.num_users());
        let again = registry.get("packed").unwrap();
        assert!(Arc::ptr_eq(&got, &again), "second get must hit the cell");
        assert!(registry.describe()[0].loaded);

        assert!(registry.evict("packed"));
        assert!(!registry.describe()[0].loaded);
        let reopened = registry.get("packed").unwrap();
        assert_eq!(reopened.num_users(), inst.num_users());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn builtin_entries_do_not_evict() {
        let registry = InstanceRegistry::new();
        registry.register("default", testkit::small_instance(4));
        assert!(!registry.evict("default"));
        assert!(registry.get("default").is_ok());
        assert!(!registry.evict("missing"));
    }

    #[test]
    fn failed_open_is_a_store_error_and_retries() {
        let path = std::env::temp_dir().join("ses-registry-test-broken.sesstore");
        std::fs::write(&path, b"not a packed instance").unwrap();
        let registry = InstanceRegistry::new();
        registry.register_path("broken", &path);
        let err = registry.get("broken").unwrap_err();
        assert!(matches!(err, ses_core::Error::Store(_)), "{err:?}");
        assert!(!registry.describe()[0].loaded, "failure must not cache");

        // Fix the file in place: the same entry now loads.
        let inst = testkit::small_instance(5);
        ses_core::store::pack_to_path(&inst, &path).unwrap();
        assert!(registry.get("broken").is_ok());
        std::fs::remove_file(&path).ok();
    }
}
