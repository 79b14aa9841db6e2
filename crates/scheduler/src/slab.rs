//! Dense id-indexed storage for per-request state.
//!
//! Request ids are dense trace indices in every driver, so the scheduler's
//! per-slice bookkeeping — one lookup per slice on both batch formation and
//! completion, the simulator's hottest non-prediction path — indexes a
//! vector instead of hashing. The API mirrors the `HashMap` subset it
//! replaces (`insert`/`get`/`get_mut`/`remove`/`len` plus `[&id]`), so it
//! is a drop-in swap; a sparse caller only pays empty-slot padding up to
//! its largest id.

use crate::request::RequestId;
use std::ops::Index;

/// A map from [`RequestId`] to `T` backed by a dense vector.
#[derive(Debug, Clone)]
pub struct IdSlab<T> {
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> Default for IdSlab<T> {
    fn default() -> Self {
        IdSlab::new()
    }
}

impl<T> IdSlab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        IdSlab {
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Inserts `value` under `id`, returning the previous value if any.
    pub fn insert(&mut self, id: RequestId, value: T) -> Option<T> {
        let idx = id as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let prev = self.slots[idx].replace(value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Borrows the value under `id`.
    pub fn get(&self, id: &RequestId) -> Option<&T> {
        self.slots.get(*id as usize).and_then(Option::as_ref)
    }

    /// Mutably borrows the value under `id`.
    pub fn get_mut(&mut self, id: &RequestId) -> Option<&mut T> {
        self.slots.get_mut(*id as usize).and_then(Option::as_mut)
    }

    /// Removes and returns the value under `id`.
    pub fn remove(&mut self, id: &RequestId) -> Option<T> {
        let removed = self.slots.get_mut(*id as usize).and_then(Option::take);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Iterates occupied values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab holds no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T> Index<&RequestId> for IdSlab<T> {
    type Output = T;

    fn index(&self, id: &RequestId) -> &T {
        self.get(id).expect("no entry for request id")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s: IdSlab<&str> = IdSlab::new();
        assert!(s.is_empty());
        assert_eq!(s.insert(5, "a"), None);
        assert_eq!(s.insert(0, "b"), None);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(&5), Some(&"a"));
        assert_eq!(s[&0], "b");
        assert_eq!(s.insert(5, "c"), Some("a"));
        assert_eq!(s.len(), 2);
        assert_eq!(s.remove(&5), Some("c"));
        assert_eq!(s.remove(&5), None);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(&99), None);
    }

    #[test]
    #[should_panic(expected = "no entry")]
    fn index_missing_panics() {
        let s: IdSlab<u32> = IdSlab::new();
        let _ = s[&3];
    }
}
