//! Differential pin: the pairing-heap [`EventQueue`] must pop the exact
//! event stream the seed's binary-heap [`BaselineQueue`] pops, FIFO ties
//! included.

use proptest::prelude::*;
use vidur_core::event::EventQueue;
use vidur_core::time::SimTime;
use vidur_oracle::BaselineQueue;

proptest! {
    /// Differential oracle: interleaved push/pop programs produce the
    /// exact same event stream from the pairing heap as from the
    /// baseline binary heap. Times are drawn from a tiny range so
    /// equal-timestamp ties are dense.
    #[test]
    fn matches_baseline_queue(
        ops in proptest::collection::vec((0u64..16, proptest::bool::ANY), 1..300)
    ) {
        let mut fast = EventQueue::new();
        let mut base = BaselineQueue::new();
        let mut tag = 0u64;
        for &(t, is_pop) in &ops {
            if is_pop {
                prop_assert_eq!(fast.pop(), base.pop());
            } else {
                fast.push(SimTime::from_nanos(t), tag);
                base.push(SimTime::from_nanos(t), tag);
                tag += 1;
            }
        }
        while let Some(got) = fast.pop() {
            prop_assert_eq!(Some(got), base.pop());
        }
        prop_assert!(base.pop().is_none());
    }
}
