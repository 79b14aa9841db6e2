//! Windowed id-indexed storage for per-request state.
//!
//! Request ids are trace indices in every driver, so the scheduler's
//! per-slice bookkeeping — one lookup per slice on both batch formation and
//! completion, the simulator's hottest non-prediction path — indexes a
//! vector instead of hashing. The vector is a window whose base id moves
//! past retired ids: it spans the ids from the oldest live entry to the
//! newest, so a replay keeps it about as wide as its work in flight.

use crate::request::RequestId;
use std::ops::Index;

/// A map from [`RequestId`] to `T` over a sliding id window, with the API
/// of the `HashMap` subset it replaced.
#[derive(Debug, Clone)]
pub struct IdSlab<T> {
    /// `slots[i]` holds the entry for id `base + i`.
    slots: Vec<Option<T>>,
    base: RequestId,
    /// First slot that may be occupied. The vacated slots before it are
    /// trimmed once they make up half the vector, so a trim moves at most
    /// as many slots as were vacated.
    head: usize,
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
            base: 0,
            head: 0,
            len: 0,
        }
    }

    /// Inserts `value` under `id`, returning the previous value if any. An
    /// id below the window grows it at the front.
    pub fn insert(&mut self, id: RequestId, value: T) -> Option<T> {
        if self.slots.is_empty() {
            self.base = id;
        }
        if id < self.base {
            let grow = (self.base - id) as usize;
            self.slots
                .splice(..0, std::iter::repeat_with(|| None).take(grow));
            (self.base, self.head) = (id, 0);
        }
        let idx = (id - self.base) as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let prev = self.slots[idx].replace(value);
        if prev.is_none() {
            self.len += 1;
            self.head = self.head.min(idx);
        }
        prev
    }

    /// Borrows the value under `id`.
    pub fn get(&self, id: &RequestId) -> Option<&T> {
        self.slots
            .get(id.checked_sub(self.base)? as usize)?
            .as_ref()
    }

    /// Mutably borrows the value under `id`.
    pub fn get_mut(&mut self, id: &RequestId) -> Option<&mut T> {
        self.slots
            .get_mut(id.checked_sub(self.base)? as usize)?
            .as_mut()
    }

    /// Removes and returns the value under `id`. Removing the lowest live
    /// entry moves the window's front past the vacated slots.
    pub fn remove(&mut self, id: &RequestId) -> Option<T> {
        let idx = id.checked_sub(self.base)? as usize;
        let removed = self.slots.get_mut(idx)?.take()?;
        self.len -= 1;
        while self.slots.get(self.head).is_some_and(Option::is_none) {
            self.head += 1;
        }
        if self.head * 2 >= self.slots.len() {
            self.slots.drain(..self.head);
            self.base += self.head as RequestId;
            self.head = 0;
        }
        Some(removed)
    }

    /// Iterates occupied values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots[self.head..].iter().flatten()
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

    #[test]
    fn removing_the_front_advances_the_base() {
        let mut s: IdSlab<u64> = IdSlab::new();
        for id in 100..110 {
            s.insert(id, id);
        }
        assert_eq!(s.base, 100);
        for id in 100..106 {
            assert_eq!(s.remove(&id), Some(id));
        }
        assert!(s.base > 100, "vacated front slots are trimmed");
        assert!(s.slots.len() <= 2 * 4, "the window spans only live ids");
        assert_eq!(
            s.values().copied().collect::<Vec<_>>(),
            [106, 107, 108, 109]
        );
        // Removing from the middle leaves the base alone.
        let base = s.base;
        s.remove(&108);
        assert_eq!(s.base, base);
    }

    #[test]
    fn retired_ids_read_as_absent() {
        let mut s: IdSlab<u64> = IdSlab::new();
        for id in 0..8 {
            s.insert(id, id);
        }
        for id in 0..6 {
            s.remove(&id);
        }
        for id in 0..6 {
            assert_eq!(s.get(&id), None);
            assert!(s.get_mut(&id).is_none());
            assert_eq!(s.remove(&id), None);
        }
        assert_eq!(s[&6], 6);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn insert_below_the_base_grows_the_front() {
        let mut s: IdSlab<u64> = IdSlab::new();
        for id in 40..50 {
            s.insert(id, id);
        }
        for id in 40..48 {
            s.remove(&id);
        }
        assert_eq!(s.base, 48);
        // A requeued old id lands below the base.
        assert_eq!(s.insert(3, 3), None);
        assert_eq!(s.base, 3);
        assert_eq!(s.get(&3), Some(&3));
        assert_eq!(s.get(&48), Some(&48));
        assert_eq!(s.len(), 3);
        // Ascending order survives the front growth.
        assert_eq!(s.values().copied().collect::<Vec<_>>(), [3, 48, 49]);
        s.insert(45, 45);
        s.insert(0, 0);
        assert_eq!(s.values().copied().collect::<Vec<_>>(), [0, 3, 45, 48, 49]);
        // Descending inserts all land.
        let mut d: IdSlab<u64> = IdSlab::new();
        for id in (0..1000).rev() {
            d.insert(id, id);
        }
        assert_eq!(d.len(), 1000);
        assert!(d.values().copied().eq(0..1000));
        // Removing the front walks the base past every vacated slot.
        for id in 0..999 {
            d.remove(&id);
        }
        assert!(d.values().copied().eq([999]));
        assert!(
            d.base > 900 && d.slots.len() <= 2,
            "the window follows the live id"
        );
    }

    #[test]
    fn an_emptied_slab_rebases() {
        let mut s: IdSlab<u64> = IdSlab::new();
        s.insert(7, 7);
        s.remove(&7);
        s.insert(1_000_000, 1);
        assert_eq!(s.slots.len(), 1, "no padding back to the old window");
        assert_eq!(s[&1_000_000], 1);
    }
}
