//! Misra–Gries frequent-item counting with a spillover counter.
//!
//! Graphene and ABACuS both build on this structure [Misra & Gries '82;
//! Park+, MICRO'20]. The table guarantees that any row activated `n` times
//! within an epoch has an estimated count of at least `n − spillover`, so
//! a mechanism that triggers at estimated count `T` can never let a true
//! count exceed `T + spillover_max` undetected.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use chronus_dram::RowId;

/// One Misra–Gries summary.
///
/// Slots fill as a prefix and only `clear` empties them, so the table is a
/// `Vec` that grows by push up to `capacity` plus a `row → slot` index:
/// building a summary allocates nothing, and hits and inserts cost O(1)
/// however large the modelled table is.
#[derive(Debug, Clone)]
pub struct MisraGries {
    /// `(row, estimated count)` per occupied slot, in slot order.
    entries: Vec<(RowId, u32)>,
    /// Slot of every tracked row.
    index: HashMap<RowId, usize>,
    capacity: usize,
    spillover: u32,
}

impl MisraGries {
    /// A summary with `capacity` counters.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "need at least one counter");
        Self {
            entries: Vec::new(),
            index: HashMap::new(),
            capacity,
            spillover: 0,
        }
    }

    /// Observes one activation of `row`; returns the row's new estimated
    /// count.
    pub fn observe(&mut self, row: RowId) -> u32 {
        let free = self.entries.len();
        match self.index.entry(row) {
            Entry::Occupied(slot) => {
                let e = &mut self.entries[*slot.get()];
                e.1 += 1;
                return e.1;
            }
            Entry::Vacant(slot) if free < self.capacity => {
                let est = self.spillover + 1;
                slot.insert(free);
                self.entries.push((row, est));
                return est;
            }
            Entry::Vacant(_) => {}
        }
        // Table full: if some entry equals the spillover count, replace the
        // lowest-index one; otherwise increment the spillover.
        let spill = self.spillover;
        if let Some(slot) = self.entries.iter().position(|e| e.1 == spill) {
            self.index.remove(&self.entries[slot].0);
            self.index.insert(row, slot);
            self.entries[slot] = (row, spill + 1);
            return spill + 1;
        }
        self.spillover += 1;
        self.spillover
    }

    /// The row's estimated count, if tracked.
    pub fn estimate(&self, row: RowId) -> Option<u32> {
        self.index.get(&row).map(|&slot| self.entries[slot].1)
    }

    /// Resets `row`'s counter to the current spillover level (post-refresh
    /// re-arm, as Graphene does).
    pub fn reset_row(&mut self, row: RowId) {
        if let Some(&slot) = self.index.get(&row) {
            self.entries[slot].1 = self.spillover;
        }
    }

    /// Clears the whole summary (epoch reset every `tREFW`).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
        self.spillover = 0;
    }

    /// Current spillover counter.
    pub fn spillover(&self) -> u32 {
        self.spillover
    }

    /// Number of counters.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The linear-scan table the indexed one replaced, kept as the
    /// reference: one `Option` slot per counter, every lookup a scan.
    struct LinearMg {
        entries: Vec<Option<(RowId, u32)>>,
        spillover: u32,
    }

    impl LinearMg {
        fn new(capacity: usize) -> Self {
            Self {
                entries: vec![None; capacity],
                spillover: 0,
            }
        }

        /// Returns the new estimate and the row evicted to make room.
        fn observe(&mut self, row: RowId) -> (u32, Option<RowId>) {
            for e in self.entries.iter_mut().flatten() {
                if e.0 == row {
                    e.1 += 1;
                    return (e.1, None);
                }
            }
            if let Some(slot) = self.entries.iter_mut().find(|e| e.is_none()) {
                let est = self.spillover + 1;
                *slot = Some((row, est));
                return (est, None);
            }
            let spill = self.spillover;
            if let Some(e) = self.entries.iter_mut().flatten().find(|e| e.1 == spill) {
                let evicted = e.0;
                *e = (row, spill + 1);
                return (spill + 1, Some(evicted));
            }
            self.spillover += 1;
            (self.spillover, None)
        }

        fn estimate(&self, row: RowId) -> Option<u32> {
            self.entries
                .iter()
                .flatten()
                .find(|e| e.0 == row)
                .map(|e| e.1)
        }

        fn reset_row(&mut self, row: RowId) {
            let spill = self.spillover;
            if let Some(e) = self.entries.iter_mut().flatten().find(|e| e.0 == row) {
                e.1 = spill;
            }
        }

        fn clear(&mut self) {
            self.entries.iter_mut().for_each(|e| *e = None);
            self.spillover = 0;
        }
    }

    const ROWS: u32 = 24;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn indexed_table_matches_linear_reference(
            capacity in 1usize..8,
            ops in prop::collection::vec((0u32..40, 0u32..ROWS), 1..400)
        ) {
            let mut mg = MisraGries::new(capacity);
            let mut reference = LinearMg::new(capacity);
            for (step, &(op, row)) in ops.iter().enumerate() {
                match op {
                    0 => {
                        mg.clear();
                        reference.clear();
                    }
                    1..=4 => {
                        mg.reset_row(row);
                        reference.reset_row(row);
                    }
                    _ => {
                        let before: Vec<_> = (0..ROWS).map(|r| mg.estimate(r)).collect();
                        let est = mg.observe(row);
                        let evicted = (0..ROWS)
                            .find(|&r| before[r as usize].is_some() && mg.estimate(r).is_none());
                        prop_assert_eq!((est, evicted), reference.observe(row), "step {}", step);
                    }
                }
                prop_assert_eq!(mg.spillover(), reference.spillover, "step {}", step);
                for r in 0..ROWS {
                    prop_assert_eq!(mg.estimate(r), reference.estimate(r), "step {} row {}", step, r);
                }
                let slots: Vec<_> = reference.entries.iter().flatten().copied().collect();
                prop_assert_eq!(&mg.entries, &slots, "step {}: slot layout", step);
            }
        }
    }

    #[test]
    fn tracks_frequent_rows_exactly_when_table_fits() {
        let mut mg = MisraGries::new(4);
        for _ in 0..10 {
            mg.observe(1);
        }
        for _ in 0..3 {
            mg.observe(2);
        }
        assert_eq!(mg.estimate(1), Some(10));
        assert_eq!(mg.estimate(2), Some(3));
        assert_eq!(mg.spillover(), 0);
    }

    #[test]
    fn spillover_grows_under_many_distinct_rows() {
        let mut mg = MisraGries::new(2);
        for row in 0..100u32 {
            mg.observe(row);
        }
        assert!(mg.spillover() > 0);
    }

    #[test]
    fn undercount_bounded_by_spillover() {
        // Classic MG guarantee: est ≥ true − spillover. Hammer one row
        // amid noise and check its estimate.
        let mut mg = MisraGries::new(4);
        let mut true_count = 0u32;
        for i in 0..500u32 {
            mg.observe(1000);
            true_count += 1;
            mg.observe(i % 97); // noise
        }
        let est = mg.estimate(1000).unwrap_or(0);
        assert!(
            est + mg.spillover() >= true_count,
            "est {est} + spill {} < true {true_count}",
            mg.spillover()
        );
    }

    #[test]
    fn reset_rearms_at_spillover_level() {
        let mut mg = MisraGries::new(2);
        for _ in 0..9 {
            mg.observe(5);
        }
        mg.reset_row(5);
        assert_eq!(mg.estimate(5), Some(mg.spillover()));
    }

    #[test]
    fn clear_resets_everything() {
        let mut mg = MisraGries::new(2);
        for row in 0..50u32 {
            mg.observe(row);
        }
        mg.clear();
        assert_eq!(mg.spillover(), 0);
        assert_eq!(mg.estimate(0), None);
    }
}
