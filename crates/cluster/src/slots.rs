//! A slot set: free-GPU capacity as a step function over the
//! timeline.
//!
//! [`TreeSlotSet`] keeps the number of free GPUs at every future
//! instant as a sorted vector of `(segment start, capacity that holds
//! until the next start)` breakpoints (the classic *slot set* of
//! batch-scheduler backfilling literature; the name is kept from the
//! ordered-map representation it replaced). Claiming a window finds
//! its two ends by binary search, inserts at most two breakpoints and
//! decrements the segments in between; releasing restores them;
//! adjacent segments with equal capacity coalesce back into one, so the
//! vector stays proportional to the number of *distinct* capacity
//! steps, not the number of operations. A node-local profile holds a
//! handful of segments, so the `O(n)` shift of an insert moves a few
//! words, and no operation allocates unless the vector outgrows the
//! room it was built with.
//!
//! The final segment always extends to `+∞` at full capacity — every
//! claim must have a finite end — so [`TreeSlotSet::earliest_fit`]
//! always terminates: a window that fits nowhere among the booked
//! segments fits in the infinite tail.
//!
//! ```
//! use hrp_cluster::slots::TreeSlotSet;
//!
//! let mut slots = TreeSlotSet::new(4);
//! slots.claim(0.0, 10.0, 3); // a 3-GPU placement until t = 10
//! assert_eq!(slots.capacity_at(5.0), 1);
//! // A 2-GPU, 4-second window first fits when the placement ends.
//! assert_eq!(slots.earliest_fit(0.0, 2, 4.0), 10.0);
//! slots.release(0.0, 10.0, 3);
//! assert_eq!(slots.earliest_fit(0.0, 2, 4.0), 0.0);
//! ```

use std::fmt;

/// Free-GPU capacity over the timeline as a coalesced step function.
///
/// See the [module docs](self) for the representation and the
/// worked example.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeSlotSet {
    total: usize,
    /// `(segment start, free capacity until the next start)`, sorted
    /// by start under [`f64::total_cmp`]. The first start is `-∞`; the
    /// last segment extends to `+∞` and (by the finite-claim rule)
    /// always carries `total`.
    segs: Vec<(f64, usize)>,
}

impl TreeSlotSet {
    /// An empty timeline: `total` GPUs free at every instant.
    ///
    /// # Panics
    /// Panics if `total` is zero.
    #[must_use]
    pub fn new(total: usize) -> Self {
        assert!(total >= 1, "a slot set needs at least one GPU");
        // Room for the handful of segments a node-local profile
        // holds, so that filling one does not regrow it.
        let mut fresh = Self {
            total,
            segs: Vec::with_capacity(8),
        };
        fresh.reset();
        fresh
    }

    /// Forget every claim — all GPUs free at every instant again, as
    /// from [`TreeSlotSet::new`] — and keep the room the set has grown
    /// to, so that a set refilled over and over stops allocating.
    pub fn reset(&mut self) {
        self.segs.clear();
        self.segs.push((f64::NEG_INFINITY, self.total));
    }

    /// Number of capacity segments currently held (a coalescing
    /// diagnostic: adjacent segments never share a capacity).
    #[must_use]
    pub fn n_segments(&self) -> usize {
        self.segs.len()
    }

    /// Free capacity at instant `t`.
    #[must_use]
    pub fn capacity_at(&self, t: f64) -> usize {
        self.segs[self.index_at(t)].1
    }

    /// Index of the segment covering `t`.
    fn index_at(&self, t: f64) -> usize {
        self.segs
            .partition_point(|(start, _)| start.total_cmp(&t).is_le())
            .checked_sub(1)
            .expect("first segment starts at -inf")
    }

    /// Ensure a breakpoint exists exactly at `t` (splitting the
    /// segment covering it), so a range update can start or stop
    /// there; returns its index.
    fn split(&mut self, t: f64) -> usize {
        let at = self.index_at(t);
        if self.segs[at].0.total_cmp(&t).is_eq() {
            return at;
        }
        self.segs.insert(at + 1, (t, self.segs[at].1));
        at + 1
    }

    /// Apply `change` to the capacity of every segment of
    /// `[start, end)` (it also gets the segment's start, for its
    /// panic message), then drop every breakpoint of `[start, end]`
    /// whose capacity equals the preceding segment's, restoring the
    /// coalescing invariant.
    fn update(&mut self, start: f64, end: f64, change: impl Fn(&mut usize, f64)) {
        assert!(
            start.is_finite() && end.is_finite() && start < end,
            "slot window [{start}, {end}) must be finite and non-empty"
        );
        // `start` is finite, so `lo >= 1`: a predecessor always exists.
        let lo = self.split(start);
        let hi = self.split(end);
        for (t, cap) in &mut self.segs[lo..hi] {
            change(cap, *t);
        }
        let mut kept = lo;
        for k in lo..=hi {
            if self.segs[k].1 != self.segs[kept - 1].1 {
                self.segs[kept] = self.segs[k];
                kept += 1;
            }
        }
        self.segs.drain(kept..=hi);
    }

    /// Subtract `gpus` from every instant of `[start, end)`.
    ///
    /// # Panics
    /// Panics if the window is empty or unbounded, or if any covered
    /// segment has fewer than `gpus` free (the caller double-booked).
    pub fn claim(&mut self, start: f64, end: f64, gpus: usize) {
        self.update(start, end, |cap, t| {
            assert!(
                *cap >= gpus,
                "double-booked: {gpus} GPUs claimed at t = {t} with only {cap} free"
            );
            *cap -= gpus;
        });
    }

    /// Add `gpus` back to every instant of `[start, end)`.
    ///
    /// # Panics
    /// Panics if the window is empty or unbounded, or if the release
    /// would push any segment above the cluster total (releasing
    /// capacity that was never claimed).
    pub fn release(&mut self, start: f64, end: f64, gpus: usize) {
        let total = self.total;
        self.update(start, end, |cap, t| {
            assert!(
                *cap + gpus <= total,
                "over-release: {gpus} GPUs freed at t = {t} with {cap}/{total} already free"
            );
            *cap += gpus;
        });
    }

    /// Earliest `t ≥ after` at which `gpus` GPUs stay free for the
    /// whole window `[t, t + duration)`.
    ///
    /// One forward walk over the segments from the one covering
    /// `after`: a candidate start slides past every blocking segment
    /// it meets, and the full-capacity tail guarantees termination.
    ///
    /// # Panics
    /// Panics if `gpus` exceeds the cluster total (no window could
    /// ever fit) or `duration` is not a positive finite time.
    #[must_use]
    pub fn earliest_fit(&self, after: f64, gpus: usize, duration: f64) -> f64 {
        assert!(
            gpus <= self.total,
            "a {gpus}-GPU window can never fit on {} GPUs",
            self.total
        );
        assert!(
            duration.is_finite() && duration > 0.0 && after.is_finite(),
            "earliest_fit needs a finite start and positive duration"
        );
        let mut cand = after;
        let mut at = self.index_at(after);
        loop {
            // The tail holds the full total, so a blocked segment
            // always has a finite end to restart from.
            let end = self.segs.get(at + 1).map_or(f64::INFINITY, |next| next.0);
            if self.segs[at].1 < gpus {
                cand = end;
            } else if end >= cand + duration {
                return cand;
            }
            at += 1;
        }
    }
}

/// One `[start, end) free/total` row per segment — a plan to read, in
/// the manner of oar's slot-set tables:
///
/// ```
/// use hrp_cluster::slots::TreeSlotSet;
///
/// let mut slots = TreeSlotSet::new(4);
/// slots.claim(0.0, 10.0, 3);
/// slots.claim(10.0, 12.5, 1);
/// assert_eq!(
///     slots.to_string(),
///     "[-inf, 0) 4/4\n[0, 10) 1/4\n[10, 12.5) 3/4\n[12.5, inf) 4/4\n"
/// );
/// ```
impl fmt::Display for TreeSlotSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ends = self.segs.iter().skip(1).map(|next| next.0);
        for ((start, free), end) in self.segs.iter().zip(ends.chain([f64::INFINITY])) {
            writeln!(f, "[{start}, {end}) {free}/{}", self.total)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_set_is_one_full_segment() {
        let s = TreeSlotSet::new(4);
        assert_eq!(s.n_segments(), 1);
        assert_eq!(s.capacity_at(0.0), 4);
        assert_eq!(s.capacity_at(1e12), 4);
        assert_eq!(s.earliest_fit(3.0, 4, 100.0), 3.0);
    }

    #[test]
    fn claim_release_round_trip_restores_the_tree() {
        let mut s = TreeSlotSet::new(4);
        let fresh = s.clone();
        s.claim(1.0, 5.0, 2);
        s.claim(3.0, 8.0, 1);
        assert_eq!(s.capacity_at(4.0), 1);
        s.release(3.0, 8.0, 1);
        s.release(1.0, 5.0, 2);
        assert_eq!(s, fresh, "round trip must coalesce back to one segment");
    }

    #[test]
    fn reset_is_a_fresh_set() {
        let mut s = TreeSlotSet::new(4);
        s.claim(1.0, 5.0, 2);
        s.claim(3.0, 8.0, 2);
        s.reset();
        assert_eq!(s, TreeSlotSet::new(4));
        assert_eq!(s.earliest_fit(0.0, 4, 1.0), 0.0);
    }

    #[test]
    fn adjacent_equal_segments_coalesce() {
        let mut s = TreeSlotSet::new(2);
        s.claim(0.0, 5.0, 1);
        s.claim(5.0, 10.0, 1);
        // [0, 10) at capacity 1 is one segment plus the -inf head and
        // the tail boundary at 10.
        assert_eq!(s.n_segments(), 3);
        assert_eq!(s.capacity_at(5.0), 1);
    }

    #[test]
    fn earliest_fit_slides_past_holes_too_short() {
        let mut s = TreeSlotSet::new(2);
        // Busy [0, 10) and [12, 20) with both GPUs; the [10, 12) hole
        // is too short for a 3-second window.
        s.claim(0.0, 10.0, 2);
        s.claim(12.0, 20.0, 2);
        assert_eq!(s.earliest_fit(0.0, 1, 3.0), 20.0);
        // ... but a 2-second window backfills into the hole.
        assert_eq!(s.earliest_fit(0.0, 1, 2.0), 10.0);
    }

    #[test]
    #[should_panic(expected = "double-booked")]
    fn over_claim_panics() {
        let mut s = TreeSlotSet::new(2);
        s.claim(0.0, 10.0, 2);
        s.claim(5.0, 6.0, 1);
    }

    #[test]
    #[should_panic(expected = "over-release")]
    fn over_release_panics() {
        let mut s = TreeSlotSet::new(2);
        s.release(0.0, 1.0, 1);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn unbounded_claims_are_rejected() {
        let mut s = TreeSlotSet::new(2);
        s.claim(0.0, f64::INFINITY, 1);
    }
}
