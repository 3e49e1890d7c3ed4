//! The incremental, budget-bounded linear compressor.

use crate::Lmad;

/// What the compressor keeps about the part of the stream it could *not*
/// describe with descriptors: per-dimension min, max and granularity
/// (the gcd of all deltas from the minimum), plus a discard count.
///
/// This is the paper's "record some overall information such as max,
/// min, and granularity" fallback once the LMAD budget is exhausted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverflowSummary {
    /// Number of points discarded after the budget was exhausted.
    pub discarded: u64,
    /// Per-dimension minimum over discarded points.
    pub min: Vec<i64>,
    /// Per-dimension maximum over discarded points.
    pub max: Vec<i64>,
    /// Per-dimension gcd of deltas from the minimum (0 when all
    /// discarded points share a value in that dimension).
    pub granularity: Vec<u64>,
}

impl OverflowSummary {
    fn new(point: &[i64]) -> Self {
        OverflowSummary {
            discarded: 1,
            min: point.to_vec(),
            max: point.to_vec(),
            granularity: vec![0; point.len()],
        }
    }

    fn absorb(&mut self, point: &[i64]) {
        self.discarded += 1;
        let dims = self
            .min
            .iter_mut()
            .zip(&mut self.max)
            .zip(&mut self.granularity);
        for (((min, max), g), &p) in dims.zip(point) {
            // A granularity of 1 is final (every gcd with 1 is 1), so
            // only the bounds still move.
            if p < *min {
                // Re-anchor the granularity on the new minimum.
                if *g != 1 {
                    *g = gcd(*g, (*min - p).unsigned_abs());
                }
                *min = p;
            }
            *max = (*max).max(p);
            if *g != 1 {
                *g = gcd(*g, (p - *min).unsigned_abs());
            }
        }
    }

    /// Serialized size in bytes (min, max, granularity per dimension plus
    /// the discard count).
    #[must_use]
    pub fn encoded_bytes(&self) -> u64 {
        (self.min.len() as u64) * 24 + 8
    }
}

/// The point `lmad` would absorb next: `start + stride * count`, with
/// the same wrapping arithmetic as [`Lmad::element`] in release builds.
fn continuation(lmad: &Lmad) -> impl Iterator<Item = i64> + '_ {
    let count = lmad.count as i64;
    lmad.start
        .iter()
        .zip(&lmad.stride)
        .map(move |(&s, &d)| s.wrapping_add(d.wrapping_mul(count)))
}

/// Advances a cached continuation by one stride.
fn step(next: &mut [i64], stride: &[i64]) {
    for (n, &d) in next.iter_mut().zip(stride) {
        *n = n.wrapping_add(d);
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// An incremental linear compressor over an `n`-dimensional point
/// stream, bounded to a fixed number of descriptors.
///
/// Push points in stream order; each either extends the *current* (most
/// recent) descriptor or opens a new one. When opening a descriptor
/// would exceed the budget, the point — and everything after it — is
/// discarded into the [`OverflowSummary`], making the profile lossy.
///
/// The fraction of points captured ([`LinearCompressor::captured`] over
/// [`LinearCompressor::seen`]) is the per-stream ingredient of the
/// paper's *sample quality* metric (Table 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinearCompressor {
    dims: usize,
    budget: usize,
    lmads: Vec<Lmad>,
    /// Continuation cache, `dims` entries per descriptor: the point
    /// `start + stride * count` each descriptor would absorb next, so
    /// [`LinearCompressor::push`] compares slices instead of
    /// materializing every descriptor's last element. Derived from
    /// `lmads` alone (rebuilt on load, never serialized).
    next: Vec<i64>,
    overflow: Option<OverflowSummary>,
    seen: u64,
}

impl LinearCompressor {
    /// Creates a compressor for `dims`-dimensional points holding at
    /// most `budget` descriptors.
    ///
    /// # Panics
    ///
    /// Panics if `dims` or `budget` is zero.
    #[must_use]
    pub fn new(dims: usize, budget: usize) -> Self {
        assert!(dims > 0, "need at least one dimension");
        assert!(budget > 0, "need a budget of at least one descriptor");
        LinearCompressor {
            dims,
            budget,
            lmads: Vec::new(),
            next: Vec::new(),
            overflow: None,
            seen: 0,
        }
    }

    /// Number of dimensions of the point stream.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The configured descriptor budget.
    #[must_use]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Rebuilds a compressor from serialized parts (crate-internal; the
    /// deserializer validates consistency before calling this).
    pub(crate) fn from_parts(
        dims: usize,
        budget: usize,
        lmads: Vec<Lmad>,
        overflow: Option<OverflowSummary>,
        seen: u64,
    ) -> Self {
        let next = lmads.iter().flat_map(continuation).collect();
        LinearCompressor {
            dims,
            budget,
            lmads,
            next,
            overflow,
            seen,
        }
    }

    /// Appends the next point of the stream.
    ///
    /// The point is absorbed by the first descriptor it continues,
    /// searching from the most recent to the oldest (the paper's
    /// compressor "attempts to describe the stream using its linear
    /// descriptors"); this keeps interleaved patterns — e.g. a loop
    /// alternating between two strided sequences — within two
    /// descriptors instead of one per iteration. A descriptor whose
    /// stride is not yet committed (one point) only absorbs the point
    /// when it is the most recent, so older descriptors never swallow
    /// arbitrary points.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.dims()`.
    pub fn push(&mut self, point: &[i64]) {
        assert_eq!(point.len(), self.dims, "point dimensionality mismatch");
        self.seen += 1;
        if let Some(summary) = &mut self.overflow {
            summary.absorb(point);
            return;
        }
        // Committed descriptors first, most recent first.
        let cached = self
            .lmads
            .iter_mut()
            .zip(self.next.chunks_exact_mut(self.dims));
        for (lmad, next) in cached.rev() {
            if lmad.count >= 2 && *next == *point {
                lmad.count += 1;
                step(next, &lmad.stride);
                return;
            }
        }
        // Then the most recent descriptor's stride commitment.
        if let Some(cur) = self.lmads.last_mut() {
            if cur.count == 1 {
                cur.extend_with(point);
                let last = self.next.len() - self.dims;
                for (n, c) in self.next[last..].iter_mut().zip(continuation(cur)) {
                    *n = c;
                }
                return;
            }
        }
        if self.lmads.len() == self.budget {
            self.overflow = Some(OverflowSummary::new(point));
        } else {
            self.lmads.push(Lmad::singleton(point));
            self.next.extend_from_slice(point);
        }
    }

    /// The descriptors collected so far, in stream order.
    #[must_use]
    pub fn lmads(&self) -> &[Lmad] {
        &self.lmads
    }

    /// The overflow summary, present once the budget was exhausted.
    #[must_use]
    pub fn overflow(&self) -> Option<&OverflowSummary> {
        self.overflow.as_ref()
    }

    /// Total points pushed.
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Points captured in descriptors (not discarded).
    #[must_use]
    pub fn captured(&self) -> u64 {
        self.seen - self.overflow.as_ref().map_or(0, |s| s.discarded)
    }

    /// `true` when every pushed point is described by a descriptor.
    #[must_use]
    pub fn fully_captured(&self) -> bool {
        self.overflow.is_none()
    }

    /// Reconstructs every captured point, descriptor by descriptor.
    ///
    /// The multiset of returned points equals the multiset of captured
    /// stream points; interleaved patterns are regrouped by descriptor,
    /// so the order within the result is per-descriptor, not stream
    /// order (stream order is recoverable from a time dimension when
    /// one is present).
    #[must_use]
    pub fn reconstruct(&self) -> Vec<Vec<i64>> {
        self.lmads.iter().flat_map(Lmad::points).collect()
    }

    /// Serialized profile size in bytes for this stream's descriptors
    /// and summary.
    #[must_use]
    pub fn encoded_bytes(&self) -> u64 {
        self.lmads.iter().map(Lmad::encoded_bytes).sum::<u64>()
            + self
                .overflow
                .as_ref()
                .map_or(0, OverflowSummary::encoded_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The allocating algorithm the continuation cache replaced, kept as
    /// the differential reference: every push materializes each
    /// descriptor's last element through [`Lmad::continues_with`], and
    /// every overflow point runs both gcds.
    #[derive(Debug)]
    struct Reference {
        budget: usize,
        lmads: Vec<Lmad>,
        overflow: Option<OverflowSummary>,
        seen: u64,
    }

    impl Reference {
        fn new(budget: usize) -> Self {
            Reference {
                budget,
                lmads: Vec::new(),
                overflow: None,
                seen: 0,
            }
        }

        fn absorb(summary: &mut OverflowSummary, point: &[i64]) {
            summary.discarded += 1;
            for (d, &p) in point.iter().enumerate() {
                if p < summary.min[d] {
                    let shift = (summary.min[d] - p).unsigned_abs();
                    summary.granularity[d] = gcd(summary.granularity[d], shift);
                    summary.min[d] = p;
                }
                summary.max[d] = summary.max[d].max(p);
                let delta = (p - summary.min[d]).unsigned_abs();
                summary.granularity[d] = gcd(summary.granularity[d], delta);
            }
        }

        fn push(&mut self, point: &[i64]) {
            self.seen += 1;
            if let Some(summary) = &mut self.overflow {
                Self::absorb(summary, point);
                return;
            }
            for lmad in self.lmads.iter_mut().rev() {
                if lmad.count >= 2 && lmad.continues_with(point) {
                    lmad.extend_with(point);
                    return;
                }
            }
            if let Some(cur) = self.lmads.last_mut() {
                if cur.count == 1 {
                    cur.extend_with(point);
                    return;
                }
            }
            if self.lmads.len() == self.budget {
                self.overflow = Some(OverflowSummary::new(point));
            } else {
                self.lmads.push(Lmad::singleton(point));
            }
        }

        fn assert_matches(&self, c: &LinearCompressor) {
            assert_eq!(c.lmads(), self.lmads.as_slice());
            assert_eq!(c.overflow(), self.overflow.as_ref());
            assert_eq!(c.seen(), self.seen);
        }
    }

    /// Point streams that reach every compressor path: linear runs
    /// (which extend), interleaved runs (which extend an older
    /// descriptor), and repeats and jumps (which open descriptors and
    /// eventually overflow).
    fn arb_stream(dims: usize) -> impl Strategy<Value = Vec<Vec<i64>>> {
        let run = (
            proptest::collection::vec(-40i64..40, dims),
            proptest::collection::vec(-4i64..4, dims),
            1u64..12,
            any::<bool>(),
        );
        proptest::collection::vec(run, 0..12).prop_map(|runs| {
            let mut pts: Vec<Vec<i64>> = Vec::new();
            for (start, stride, count, interleave) in runs {
                let at = |k: u64| -> Vec<i64> {
                    start
                        .iter()
                        .zip(&stride)
                        .map(|(&s, &d)| s + d * k as i64)
                        .collect()
                };
                if interleave && pts.len() >= 2 {
                    // Weave this run between the points already there.
                    let mut woven = Vec::new();
                    for (k, p) in pts.drain(..).enumerate() {
                        woven.push(p);
                        if (k as u64) < count {
                            woven.push(at(k as u64));
                        }
                    }
                    pts = woven;
                } else {
                    pts.extend((0..count).map(at));
                }
            }
            pts
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn cached_continuations_match_the_allocating_reference(
            dims in 1usize..=3,
            budget in 1usize..8,
            seed_stream in arb_stream(3),
            cut in 0usize..64,
        ) {
            let pts: Vec<Vec<i64>> = seed_stream.iter().map(|p| p[..dims].to_vec()).collect();
            let mut c = LinearCompressor::new(dims, budget);
            let mut reference = Reference::new(budget);
            let cut = cut.min(pts.len());
            for p in &pts[..cut] {
                c.push(p);
                reference.push(p);
            }
            reference.assert_matches(&c);
            // Checkpoint mid-stream: the reloaded compressor rebuilds its
            // cache from the descriptors and keeps agreeing.
            let mut bytes = Vec::new();
            c.write_to(&mut bytes).unwrap();
            let mut c = LinearCompressor::read_from(&mut bytes.as_slice()).unwrap();
            for p in &pts[cut..] {
                c.push(p);
                reference.push(p);
                reference.assert_matches(&c);
            }
        }
    }

    #[test]
    fn paper_offset_stream_example() {
        let mut c = LinearCompressor::new(1, 30);
        for x in [2i64, 5, 8, 11, 14, 15, 16, 17, 18] {
            c.push(&[x]);
        }
        assert_eq!(c.lmads().len(), 2);
        assert_eq!(
            c.lmads()[0],
            Lmad {
                start: vec![2],
                stride: vec![3],
                count: 5
            }
        );
        assert_eq!(
            c.lmads()[1],
            Lmad {
                start: vec![15],
                stride: vec![1],
                count: 4
            }
        );
        assert!(c.fully_captured());
    }

    #[test]
    fn reconstruct_is_exact_for_captured_stream() {
        let mut c = LinearCompressor::new(2, 8);
        let pts: Vec<Vec<i64>> = (0..10)
            .map(|k| vec![k, 100 - 2 * k])
            .chain((0..5).map(|k| vec![7 * k, 3]))
            .collect();
        for p in &pts {
            c.push(p);
        }
        assert_eq!(c.reconstruct(), pts);
    }

    #[test]
    fn interleaved_sequences_extend_committed_descriptors() {
        // Two strided sequences whose strides are established first
        // (two points each) and then interleave: multi-descriptor
        // extension routes every following point to its own sequence,
        // keeping the whole stream in two LMADs. (From a cold-start
        // strict alternation the greedy stride pairing cannot untangle
        // them — that would need lookahead the paper's compressor does
        // not have either.)
        let mut c = LinearCompressor::new(2, 30);
        c.push(&[0, 0]);
        c.push(&[2, 2]); // seq A stride (2, 2) committed
        c.push(&[1000, 1]);
        c.push(&[1003, 3]); // seq B stride (3, 2) committed
        for k in 2i64..100 {
            c.push(&[2 * k, 2 * k]);
            c.push(&[1000 + 3 * k, 2 * k + 1]);
        }
        assert_eq!(c.lmads().len(), 2);
        assert!(c.fully_captured());
        assert_eq!(c.lmads()[0].count, 100);
        assert_eq!(c.lmads()[1].count, 100);
    }

    #[test]
    fn budget_exhaustion_discards_and_summarizes() {
        // Alternating points never extend, so each pair costs a
        // descriptor: budget 2 fills after 2 direction changes.
        let mut c = LinearCompressor::new(1, 2);
        for x in [0i64, 100, 0, 100, 0, 100] {
            c.push(&[x]);
        }
        assert!(!c.fully_captured());
        let summary = c.overflow().expect("overflowed");
        assert!(summary.discarded > 0);
        assert_eq!(summary.min, vec![0]);
        assert_eq!(summary.max, vec![100]);
        assert_eq!(summary.granularity, vec![100]);
        assert_eq!(c.captured() + summary.discarded, c.seen());
    }

    #[test]
    fn granularity_is_gcd_of_deltas() {
        let mut c = LinearCompressor::new(1, 1);
        // First two points are captured ([0, 12] with stride 12), the
        // wild rest is summarized.
        for x in [0i64, 12, 30, 18, 42] {
            c.push(&[x]);
        }
        let summary = c.overflow().expect("overflowed");
        assert_eq!(summary.min, vec![18]);
        assert_eq!(summary.max, vec![42]);
        assert_eq!(summary.granularity, vec![12]);
    }

    #[test]
    fn granularity_reanchors_on_new_minimum() {
        let mut c = LinearCompressor::new(1, 1);
        for x in [0i64, 1, 50, 20, 8] {
            c.push(&[x]);
        }
        let summary = c.overflow().expect("overflowed");
        assert_eq!(summary.min, vec![8]);
        assert_eq!(
            summary.granularity,
            vec![6],
            "gcd(50-8, 20-8) = gcd(42, 12) = 6"
        );
    }

    #[test]
    fn single_linear_stream_is_one_descriptor() {
        let mut c = LinearCompressor::new(3, 30);
        for k in 0i64..1000 {
            c.push(&[k, 8 * k + 4, 2 * k]);
        }
        assert_eq!(c.lmads().len(), 1);
        assert_eq!(c.lmads()[0].count, 1000);
        assert_eq!(c.captured(), 1000);
    }

    #[test]
    fn encoded_bytes_counts_descriptors_and_summary() {
        let mut c = LinearCompressor::new(1, 1);
        c.push(&[0]);
        assert_eq!(c.encoded_bytes(), 24);
        c.push(&[5]);
        c.push(&[100]); // overflow
        assert_eq!(c.encoded_bytes(), 24 + 32);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_dims_panics() {
        let mut c = LinearCompressor::new(2, 4);
        c.push(&[1]);
    }
}
