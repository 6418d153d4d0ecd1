//! Axis-aligned hyper-rectangles (minimum bounding rectangles).

/// An axis-aligned `d`-dimensional rectangle `[lo, hi]` (closed on both
/// sides), the building block of the R-tree and ε-KDB structures.
#[derive(Clone, Debug, PartialEq)]
pub struct Rect {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl Rect {
    /// The empty rectangle in `d` dimensions: `lo = +∞`, `hi = −∞`. Growing
    /// it by any point or rectangle yields that point/rectangle.
    pub fn empty(dims: usize) -> Rect {
        Rect {
            lo: vec![f64::INFINITY; dims],
            hi: vec![f64::NEG_INFINITY; dims],
        }
    }

    /// A degenerate rectangle covering exactly one point.
    pub fn point(p: &[f64]) -> Rect {
        Rect {
            lo: p.to_vec(),
            hi: p.to_vec(),
        }
    }

    /// Builds a rectangle from explicit bounds. Panics (debug) when
    /// dimensions differ.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Rect {
        debug_assert_eq!(lo.len(), hi.len());
        Rect { lo, hi }
    }

    /// Dimensionality.
    #[inline]
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Lower corner.
    #[inline]
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper corner.
    #[inline]
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// True when no point has been added yet (any inverted side).
    pub fn is_empty(&self) -> bool {
        self.lo.iter().zip(&self.hi).any(|(l, h)| l > h)
    }

    /// Grows the rectangle to cover `p`.
    pub fn grow_point(&mut self, p: &[f64]) {
        debug_assert_eq!(p.len(), self.dims());
        for ((lo, hi), &v) in self.lo.iter_mut().zip(self.hi.iter_mut()).zip(p) {
            if v < *lo {
                *lo = v;
            }
            if v > *hi {
                *hi = v;
            }
        }
    }

    /// Grows the rectangle to cover `other`.
    pub fn grow_rect(&mut self, other: &Rect) {
        for i in 0..self.dims() {
            if other.lo[i] < self.lo[i] {
                self.lo[i] = other.lo[i];
            }
            if other.hi[i] > self.hi[i] {
                self.hi[i] = other.hi[i];
            }
        }
    }

    /// True when `p` lies inside the (closed) rectangle.
    pub fn contains_point(&self, p: &[f64]) -> bool {
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(p)
            .all(|((lo, hi), v)| lo <= v && v <= hi)
    }

    /// True when `other` lies entirely inside `self`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(other.lo.iter().zip(&other.hi))
            .all(|((alo, ahi), (blo, bhi))| alo <= blo && bhi <= ahi)
    }

    /// L∞ minimum distance between the rectangles (0 when they intersect).
    ///
    /// Node pruning in RSJ uses `mindist_linf(a, b) > ε` because the ε-ball
    /// of every Lp metric is contained in the L∞ ε-cube, making the prune
    /// safe for all supported metrics.
    pub fn mindist_linf(&self, other: &Rect) -> f64 {
        let mut m = 0.0f64;
        for i in 0..self.dims() {
            let gap = (other.lo[i] - self.hi[i])
                .max(self.lo[i] - other.hi[i])
                .max(0.0);
            if gap > m {
                m = gap;
            }
        }
        m
    }

    /// Volume (product of side lengths); 0 for empty rectangles.
    pub fn volume(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.lo.iter().zip(&self.hi).map(|(l, h)| h - l).product()
    }

    /// Volume the rectangle would gain if grown to cover `other`.
    pub fn enlargement(&self, other: &Rect) -> f64 {
        let mut grown = self.clone();
        grown.grow_rect(other);
        grown.volume() - self.volume()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_grows_to_point() {
        let mut r = Rect::empty(2);
        assert!(r.is_empty());
        assert_eq!(r.volume(), 0.0);
        r.grow_point(&[0.5, 0.25]);
        assert!(!r.is_empty());
        assert_eq!(r, Rect::point(&[0.5, 0.25]));
        assert_eq!(r.volume(), 0.0); // degenerate but non-empty
    }

    #[test]
    fn grow_rect_and_containment() {
        let mut r = Rect::point(&[0.0, 0.0]);
        r.grow_rect(&Rect::point(&[1.0, 2.0]));
        assert!(r.contains_point(&[0.5, 1.0]));
        assert!(!r.contains_point(&[1.5, 1.0]));
        assert!(r.contains_rect(&Rect::new(vec![0.2, 0.2], vec![0.8, 1.8])));
        assert!(!r.contains_rect(&Rect::new(vec![0.2, 0.2], vec![0.8, 2.5])));
    }

    #[test]
    fn mindist_values() {
        let a = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let b = Rect::new(vec![2.0, 0.5], vec![3.0, 0.6]); // gap 1 on x only
        assert_eq!(a.mindist_linf(&b), 1.0);
        let c = Rect::new(vec![2.0, 3.0], vec![3.0, 4.0]); // gaps (1, 2)
        assert_eq!(a.mindist_linf(&c), 2.0);
        assert_eq!(a.mindist_linf(&a), 0.0);
    }

    #[test]
    fn volume_and_enlargement() {
        let a = Rect::new(vec![0.0, 0.0], vec![2.0, 3.0]);
        assert_eq!(a.volume(), 6.0);
        let b = Rect::new(vec![0.0, 0.0], vec![4.0, 3.0]);
        assert_eq!(a.enlargement(&b), 6.0);
        assert_eq!(b.enlargement(&a), 0.0);
    }
}
