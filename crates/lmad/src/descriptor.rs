//! The LMAD descriptor type.

/// A linear memory access descriptor: the arithmetic sequence of points
/// `start + stride * k` for `k = 0, 1, …, count - 1` in an
/// `n`-dimensional integer space.
///
/// `start` and `stride` have one entry per stream dimension (the paper's
/// `n × 1` vectors); a descriptor with `count == 1` has an all-zero
/// stride by convention (its stride is fixed when a second point
/// arrives).
///
/// Fields are public: an LMAD is passive data exchanged between the
/// compressor, the solver and the post-processors.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Lmad {
    /// First point of the sequence, one entry per dimension.
    pub start: Vec<i64>,
    /// Per-dimension step between consecutive points.
    pub stride: Vec<i64>,
    /// Number of points described (≥ 1).
    pub count: u64,
}

impl Lmad {
    /// Creates a single-point descriptor at `point`.
    ///
    /// # Panics
    ///
    /// Panics if `point` is empty.
    #[must_use]
    pub fn singleton(point: &[i64]) -> Self {
        assert!(!point.is_empty(), "an LMAD needs at least one dimension");
        Lmad {
            start: point.to_vec(),
            stride: vec![0; point.len()],
            count: 1,
        }
    }

    /// Number of dimensions.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.start.len()
    }

    /// The `k`-th point of the sequence.
    ///
    /// # Panics
    ///
    /// Panics if `k >= count`.
    #[must_use]
    pub fn element(&self, k: u64) -> Vec<i64> {
        assert!(
            k < self.count,
            "element {k} out of range (count {})",
            self.count
        );
        self.start
            .iter()
            .zip(&self.stride)
            .map(|(&s, &d)| s + d * i64::try_from(k).expect("count fits i64"))
            .collect()
    }

    /// The last point of the sequence.
    #[must_use]
    pub fn last(&self) -> Vec<i64> {
        self.element(self.count - 1)
    }

    /// The value of dimension `dim` at index `k` (no bounds check on `k`
    /// beyond `count`).
    ///
    /// # Panics
    ///
    /// Panics if `k >= count` or `dim` is out of range.
    #[must_use]
    pub fn value_at(&self, dim: usize, k: u64) -> i64 {
        assert!(k < self.count);
        self.start[dim] + self.stride[dim] * i64::try_from(k).expect("count fits i64")
    }

    /// Whether `point` is the natural continuation of this sequence
    /// (what the next element would be).
    ///
    /// A `count == 1` descriptor continues with *any* point — its stride
    /// is not yet committed.
    #[must_use]
    pub fn continues_with(&self, point: &[i64]) -> bool {
        debug_assert_eq!(point.len(), self.dims());
        if self.count == 1 {
            return true;
        }
        let last = self.last();
        last.iter()
            .zip(&self.stride)
            .zip(point)
            .all(|((&l, &d), &p)| l + d == p)
    }

    /// Absorbs `point` as the next element.
    ///
    /// For a `count == 1` descriptor this fixes the stride; otherwise the
    /// caller must have verified [`Lmad::continues_with`].
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `point` does not continue the sequence.
    pub fn extend_with(&mut self, point: &[i64]) {
        debug_assert!(self.continues_with(point));
        if self.count == 1 {
            for ((d, &p), &s) in self.stride.iter_mut().zip(point).zip(&self.start) {
                *d = p - s;
            }
        }
        self.count += 1;
    }

    /// Iterates over all points of the sequence.
    pub fn points(&self) -> impl Iterator<Item = Vec<i64>> + '_ {
        (0..self.count).map(|k| self.element(k))
    }

    /// Serialized size in bytes: 8 bytes per start and stride entry plus
    /// 8 bytes for the count.
    #[must_use]
    pub fn encoded_bytes(&self) -> u64 {
        (self.dims() as u64) * 16 + 8
    }
}

impl std::fmt::Display for Lmad {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:?}, {:?}, {}]", self.start, self.stride, self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_has_zero_stride() {
        let l = Lmad::singleton(&[5, 7]);
        assert_eq!(l.count, 1);
        assert_eq!(l.stride, vec![0, 0]);
        assert_eq!(l.element(0), vec![5, 7]);
    }

    #[test]
    fn extend_fixes_stride_then_steps() {
        let mut l = Lmad::singleton(&[2]);
        l.extend_with(&[5]);
        assert_eq!(l.stride, vec![3]);
        assert!(l.continues_with(&[8]));
        assert!(!l.continues_with(&[9]));
        l.extend_with(&[8]);
        assert_eq!(l.count, 3);
        assert_eq!(l.last(), vec![8]);
    }

    #[test]
    fn multidimensional_elements() {
        let l = Lmad {
            start: vec![0, 100],
            stride: vec![1, -4],
            count: 4,
        };
        assert_eq!(l.element(3), vec![3, 88]);
        assert_eq!(l.points().count(), 4);
        assert_eq!(l.value_at(1, 2), 92);
    }

    #[test]
    fn count_one_continues_with_anything() {
        let l = Lmad::singleton(&[10]);
        assert!(l.continues_with(&[-3]));
    }

    #[test]
    fn encoded_bytes_scale_with_dims() {
        assert_eq!(Lmad::singleton(&[0]).encoded_bytes(), 24);
        assert_eq!(Lmad::singleton(&[0, 0, 0]).encoded_bytes(), 56);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn element_out_of_range_panics() {
        let _ = Lmad::singleton(&[0]).element(1);
    }
}
