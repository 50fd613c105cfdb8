//! Round-robin arbitration.
//!
//! Every arbitration point in the router (the per-input-port v:1 first
//! stage, the per-output-port p:1 second stage(s), and VC allocation) uses a
//! rotating-priority round-robin arbiter: after a grant the pointer advances
//! past the winner, giving starvation freedom among persistent requesters.
//!
//! Requesters are passed as a `u128` bitmask (bit `i` set when requester
//! `i` bids), so a pick is a mask, a `trailing_zeros` and at most one
//! wrap-around — no per-candidate predicate calls.

use serde::{Deserialize, Serialize};

/// Most requesters one arbiter can serve (bits of the request mask).
pub const MAX_REQUESTERS: usize = 128;

/// A rotating-priority round-robin arbiter over `n` requesters.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RrArbiter {
    next: usize,
}

impl RrArbiter {
    /// Creates an arbiter with priority starting at requester 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grants to the first set bit of `requests` (searching from the
    /// rotating pointer, wrapping at `n`), advancing the pointer past the
    /// winner. Bits at or above `n` are ignored.
    ///
    /// Returns `None` when no requester bids (pointer unchanged).
    ///
    /// # Examples
    /// ```
    /// use heteronoc_noc::router::arbiter::RrArbiter;
    /// let mut a = RrArbiter::new();
    /// assert_eq!(a.grant_mask(3, 0b101), Some(0));
    /// // Priority rotated past 0; index 1 does not bid, so 2 wins next.
    /// assert_eq!(a.grant_mask(3, 0b101), Some(2));
    /// assert_eq!(a.grant_mask(3, 0), None);
    /// ```
    pub fn grant_mask(&mut self, n: usize, requests: u128) -> Option<usize> {
        let i = self.peek_mask(n, requests)?;
        self.advance_past(i, n);
        Some(i)
    }

    /// Like [`RrArbiter::grant_mask`] but does not move the pointer; used
    /// to *peek* a nomination that a later pipeline stage may reject.
    pub fn peek_mask(&self, n: usize, requests: u128) -> Option<usize> {
        debug_assert!(n <= MAX_REQUESTERS);
        if n == 0 {
            return None;
        }
        let live = if n >= MAX_REQUESTERS {
            requests
        } else {
            requests & ((1u128 << n) - 1)
        };
        if live == 0 {
            return None;
        }
        // `next` is always below `n` except after `from_pointer` or a
        // change of `n`; the division only runs then.
        let start = if self.next < n {
            self.next
        } else {
            self.next % n
        };
        let from_start = live & (u128::MAX << start);
        let pick = if from_start != 0 { from_start } else { live };
        Some(pick.trailing_zeros() as usize)
    }

    /// Rotating-pointer position, for checkpoint serialization.
    pub(crate) fn pointer(&self) -> usize {
        self.next
    }

    /// Rebuilds an arbiter from a pointer captured by
    /// [`RrArbiter::pointer`].
    pub(crate) fn from_pointer(next: usize) -> Self {
        Self { next }
    }

    /// Advances the pointer past `winner` (after a peeked nomination is
    /// committed).
    pub fn advance_past(&mut self, winner: usize, n: usize) {
        debug_assert!(n > 0 && winner < n);
        self.next = if winner + 1 == n { 0 } else { winner + 1 };
    }

    /// Reference form of [`RrArbiter::grant_mask`]: the first index from
    /// the pointer for which `eligible` holds.
    #[cfg(test)]
    fn grant<F: FnMut(usize) -> bool>(&mut self, n: usize, mut eligible: F) -> Option<usize> {
        if n == 0 {
            return None;
        }
        let start = self.next % n;
        for k in 0..n {
            let i = (start + k) % n;
            if eligible(i) {
                self.next = (i + 1) % n;
                return Some(i);
            }
        }
        None
    }

    /// Reference form of [`RrArbiter::peek_mask`].
    #[cfg(test)]
    fn peek<F: FnMut(usize) -> bool>(&self, n: usize, mut eligible: F) -> Option<usize> {
        if n == 0 {
            return None;
        }
        let start = self.next % n;
        (0..n).map(|k| (start + k) % n).find(|&i| eligible(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_robin_is_fair_under_persistent_requests() {
        let mut a = RrArbiter::new();
        let mut wins = [0usize; 4];
        for _ in 0..400 {
            let w = a.grant_mask(4, 0b1111).unwrap();
            wins[w] += 1;
        }
        assert_eq!(wins, [100, 100, 100, 100]);
    }

    #[test]
    fn skips_ineligible() {
        let mut a = RrArbiter::new();
        for _ in 0..10 {
            let w = a.grant_mask(4, 0b1010).unwrap();
            assert!(w % 2 == 1);
        }
    }

    #[test]
    fn empty_or_none() {
        let mut a = RrArbiter::new();
        assert_eq!(a.grant_mask(0, !0), None);
        assert_eq!(a.grant_mask(5, 0), None);
        // Bits at or above `n` never bid.
        assert_eq!(a.grant_mask(5, 1 << 5), None);
    }

    #[test]
    fn peek_does_not_rotate() {
        let mut a = RrArbiter::new();
        assert_eq!(a.peek_mask(3, 0b111), Some(0));
        assert_eq!(a.peek_mask(3, 0b111), Some(0));
        a.advance_past(0, 3);
        assert_eq!(a.peek_mask(3, 0b111), Some(1));
    }

    #[test]
    fn full_width_mask_wraps() {
        let mut a = RrArbiter::from_pointer(127);
        assert_eq!(a.grant_mask(128, 1 | 1 << 127), Some(127));
        assert_eq!(a.pointer(), 0);
        assert_eq!(a.grant_mask(128, 1 | 1 << 127), Some(0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The mask picks equal the predicate references for every width,
        /// pointer (including stale ones at or above `n`) and mask.
        #[test]
        fn mask_forms_match_closure_references(
            n in 1usize..=128,
            pointer in 0usize..300,
            lo in any::<u64>(),
            hi in any::<u64>(),
            density in 0u32..4,
        ) {
            // Thin the mask out so sparse and empty request sets occur.
            let mut requests = (u128::from(hi) << 64) | u128::from(lo);
            for _ in 0..density {
                requests &= requests.rotate_left(37);
            }
            let bids = |i: usize| requests & (1u128 << i) != 0;
            let a = RrArbiter::from_pointer(pointer);
            prop_assert_eq!(a.peek_mask(n, requests), a.peek(n, bids));
            let (mut by_mask, mut by_closure) = (a.clone(), a);
            for _ in 0..3 {
                prop_assert_eq!(by_mask.grant_mask(n, requests), by_closure.grant(n, bids));
                prop_assert_eq!(by_mask.pointer(), by_closure.pointer());
            }
        }
    }
}
