//! Lazily paged arrays for per-row state.
//!
//! The mechanisms keep state per DRAM row (PRAC/Chronus counters, the
//! oracle's disturbance counts) and the LLC keeps one entry per line, so a
//! dense array costs memory proportional to the geometry even though one
//! simulation touches only a few hundred rows. [`PagedVec`] stores
//! fixed-size pages that are allocated on their first write; every element
//! of an absent page reads as `T::default()`.

use std::ops::Range;

/// Elements per page (a power of two).
pub const PAGE_LEN: usize = 1024;
const PAGE_SHIFT: u32 = PAGE_LEN.trailing_zeros();
const PAGE_MASK: usize = PAGE_LEN - 1;

/// A fixed-length array whose pages are allocated on first write.
#[derive(Debug, Clone)]
pub struct PagedVec<T> {
    /// Page `p` holds elements `p * PAGE_LEN ..`; the last page is cut to
    /// the array's length, so an index past the end panics once its page
    /// exists.
    pages: Vec<Option<Box<[T]>>>,
    len: usize,
}

impl<T: Copy + Default + PartialEq> PagedVec<T> {
    /// An array of `len` default elements; allocates only the page table.
    pub fn new(len: usize) -> Self {
        Self {
            pages: vec![None; len.div_ceil(PAGE_LEN)],
            len,
        }
    }

    /// Element `i`; `T::default()` if its page was never written.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        debug_assert!(i < self.len, "index {i} out of range {}", self.len);
        match &self.pages[i >> PAGE_SHIFT] {
            Some(page) => page[i & PAGE_MASK],
            None => T::default(),
        }
    }

    /// Mutable access to element `i`, allocating its page if needed.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        &mut self.page_mut(i >> PAGE_SHIFT)[i & PAGE_MASK]
    }

    /// Writes element `i`. Writing the default into an absent page
    /// allocates nothing.
    #[inline]
    pub fn set(&mut self, i: usize, value: T) {
        if value == T::default() && self.pages[i >> PAGE_SHIFT].is_none() {
            debug_assert!(i < self.len, "index {i} out of range {}", self.len);
            return;
        }
        *self.get_mut(i) = value;
    }

    /// Resets every element of `range` to the default, visiting only the
    /// pages that exist.
    pub fn reset_range(&mut self, range: Range<usize>) {
        assert!(
            range.end <= self.len,
            "range end {} > {}",
            range.end,
            self.len
        );
        let mut i = range.start;
        while i < range.end {
            let p = i >> PAGE_SHIFT;
            let page_end = ((p + 1) << PAGE_SHIFT).min(range.end);
            if let Some(page) = &mut self.pages[p] {
                page[i & PAGE_MASK..=(page_end - 1) & PAGE_MASK].fill(T::default());
            }
            i = page_end;
        }
    }

    /// The elements of `range` as one mutable slice, allocating their page
    /// if needed. The range must lie within one page.
    #[inline]
    pub fn slice_mut(&mut self, range: Range<usize>) -> &mut [T] {
        let p = range.start >> PAGE_SHIFT;
        assert!(
            range.start < range.end && (range.end - 1) >> PAGE_SHIFT == p,
            "slice {range:?} spans pages"
        );
        &mut self.page_mut(p)[range.start & PAGE_MASK..=(range.end - 1) & PAGE_MASK]
    }

    fn page_mut(&mut self, p: usize) -> &mut [T] {
        let len = self.len;
        self.pages[p].get_or_insert_with(|| {
            vec![T::default(); (len - (p << PAGE_SHIFT)).min(PAGE_LEN)].into()
        })
    }

    #[cfg(test)]
    fn allocated_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_pages_read_default() {
        let v = PagedVec::<u32>::new(5 * PAGE_LEN);
        assert_eq!(v.get(0), 0);
        assert_eq!(v.get(3 * PAGE_LEN + 7), 0);
        assert_eq!(v.allocated_pages(), 0);
    }

    #[test]
    fn default_writes_and_resets_allocate_nothing() {
        let mut v = PagedVec::<u32>::new(4 * PAGE_LEN);
        v.set(10, 0);
        v.set(3 * PAGE_LEN, 0);
        v.reset_range(0..4 * PAGE_LEN);
        assert_eq!(v.allocated_pages(), 0);
        v.set(PAGE_LEN + 1, 9);
        assert_eq!(v.allocated_pages(), 1);
        assert_eq!(v.get(PAGE_LEN + 1), 9);
        assert_eq!(v.get(PAGE_LEN), 0);
    }

    #[test]
    fn writes_land_on_both_sides_of_a_page_boundary() {
        let mut v = PagedVec::<u32>::new(3 * PAGE_LEN);
        *v.get_mut(PAGE_LEN - 1) += 1;
        *v.get_mut(PAGE_LEN) += 2;
        assert_eq!(v.allocated_pages(), 2);
        assert_eq!(v.get(PAGE_LEN - 1), 1);
        assert_eq!(v.get(PAGE_LEN), 2);
        assert_eq!(v.get(PAGE_LEN + 1), 0);
    }

    #[test]
    fn reset_range_spans_pages_and_stops_at_its_ends() {
        let mut v = PagedVec::<u32>::new(3 * PAGE_LEN);
        for i in [
            PAGE_LEN - 2,
            PAGE_LEN - 1,
            PAGE_LEN,
            2 * PAGE_LEN,
            2 * PAGE_LEN + 1,
        ] {
            v.set(i, 5);
        }
        v.reset_range(PAGE_LEN - 1..2 * PAGE_LEN + 1);
        assert_eq!(v.get(PAGE_LEN - 2), 5, "before the range");
        assert_eq!(v.get(PAGE_LEN - 1), 0);
        assert_eq!(v.get(PAGE_LEN), 0);
        assert_eq!(v.get(2 * PAGE_LEN), 0);
        assert_eq!(v.get(2 * PAGE_LEN + 1), 5, "after the range");
        v.reset_range(7..7);
        assert_eq!(v.get(PAGE_LEN - 2), 5, "empty range is a no-op");
    }

    #[test]
    fn short_last_page_is_cut_to_length() {
        let mut v = PagedVec::<u32>::new(PAGE_LEN + 3);
        v.set(PAGE_LEN + 2, 4);
        assert_eq!(v.get(PAGE_LEN + 2), 4);
        v.reset_range(PAGE_LEN..PAGE_LEN + 3);
        assert_eq!(v.get(PAGE_LEN + 2), 0);
    }

    #[test]
    #[should_panic]
    fn index_past_the_end_panics_once_its_page_exists() {
        let mut v = PagedVec::<u32>::new(PAGE_LEN + 3);
        v.set(PAGE_LEN, 1);
        *v.get_mut(PAGE_LEN + 3) = 1;
    }

    #[test]
    fn slice_mut_returns_one_page_window() {
        let mut v = PagedVec::<u32>::new(2 * PAGE_LEN);
        v.slice_mut(PAGE_LEN + 8..PAGE_LEN + 16)
            .iter_mut()
            .for_each(|x| *x = 3);
        assert_eq!(v.get(PAGE_LEN + 7), 0);
        assert_eq!(v.get(PAGE_LEN + 8), 3);
        assert_eq!(v.get(PAGE_LEN + 15), 3);
        assert_eq!(v.get(PAGE_LEN + 16), 0);
        assert_eq!(v.allocated_pages(), 1);
    }

    #[test]
    #[should_panic(expected = "spans pages")]
    fn slice_mut_rejects_a_window_across_pages() {
        let mut v = PagedVec::<u32>::new(2 * PAGE_LEN);
        v.slice_mut(PAGE_LEN - 4..PAGE_LEN + 4);
    }
}
