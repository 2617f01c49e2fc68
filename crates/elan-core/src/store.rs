//! A replicated key-value store standing in for etcd (§V-D).
//!
//! The application master persists its state machine to distributed
//! storage before acting on transitions, so a crashed AM can be replaced
//! and resume where it left off. This module provides a deterministic
//! in-process equivalent with versioned writes and compare-and-swap.

use std::collections::HashMap;
use std::fmt;

/// A versioned value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Versioned<T> {
    /// Monotone per-key version, starting at 1 for the first write.
    pub version: u64,
    /// The stored value.
    pub value: T,
}

/// Errors from conditional store operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// Compare-and-swap lost the race: the expected version is stale.
    VersionConflict {
        /// The version the caller expected.
        expected: u64,
        /// The version actually stored.
        actual: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::VersionConflict { expected, actual } => {
                write!(f, "version conflict: expected {expected}, stored {actual}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// A linearizable, versioned key-value store (the simulated etcd).
///
/// # Examples
///
/// ```
/// use elan_core::store::ReplicatedStore;
///
/// let mut store: ReplicatedStore<String> = ReplicatedStore::new();
/// let v1 = store.put("am/job-1", "Idle".to_string());
/// assert_eq!(v1, 1);
/// let read = store.get("am/job-1").unwrap();
/// assert_eq!(read.value, "Idle");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplicatedStore<T> {
    entries: HashMap<String, Versioned<T>>,
}

impl<T: Clone> ReplicatedStore<T> {
    /// Creates an empty store.
    pub fn new() -> Self {
        ReplicatedStore {
            entries: HashMap::new(),
        }
    }

    /// Unconditionally writes `value`, returning the new version.
    pub fn put(&mut self, key: impl Into<String>, value: T) -> u64 {
        let key = key.into();
        let version = self.entries.get(&key).map_or(0, |v| v.version) + 1;
        self.entries.insert(key, Versioned { version, value });
        version
    }

    /// Writes only if the stored version matches `expected` (0 = absent).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::VersionConflict`] when the expectation fails.
    pub fn compare_and_put(
        &mut self,
        key: impl Into<String>,
        expected: u64,
        value: T,
    ) -> Result<u64, StoreError> {
        let key = key.into();
        let actual = self.entries.get(&key).map_or(0, |v| v.version);
        if actual != expected {
            return Err(StoreError::VersionConflict { expected, actual });
        }
        Ok(self.put(key, value))
    }

    /// Reads the versioned value at `key`.
    pub fn get(&self, key: &str) -> Option<&Versioned<T>> {
        self.entries.get(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_increase_per_key() {
        let mut s = ReplicatedStore::new();
        assert_eq!(s.put("a", 1), 1);
        assert_eq!(s.put("a", 2), 2);
        assert_eq!(s.put("b", 9), 1);
        assert_eq!(s.get("a").unwrap().value, 2);
    }

    #[test]
    fn cas_succeeds_on_expected_version() {
        let mut s = ReplicatedStore::new();
        s.put("k", 1);
        assert_eq!(s.compare_and_put("k", 1, 2), Ok(2));
        assert_eq!(
            s.compare_and_put("k", 1, 3),
            Err(StoreError::VersionConflict {
                expected: 1,
                actual: 2
            })
        );
    }

    #[test]
    fn cas_with_zero_creates_fresh_keys() {
        let mut s = ReplicatedStore::new();
        assert_eq!(s.compare_and_put("new", 0, 5), Ok(1));
        assert!(s.compare_and_put("new", 0, 6).is_err());
    }

    #[test]
    fn crash_recovery_via_clone() {
        // The AM clones the store into "stable storage"; a new AM resumes
        // from the snapshot with identical contents.
        let mut live = ReplicatedStore::new();
        live.put("am/state", "Pending".to_string());
        let stable = live.clone();
        drop(live); // the AM crashes
        let recovered = stable;
        assert_eq!(recovered.get("am/state").unwrap().value, "Pending");
    }
}
