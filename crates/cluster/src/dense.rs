//! Compact id interning for the simulation hot path.
//!
//! The event loop addresses per-server and per-file-set state millions of
//! times per run. Keying that state by `BTreeMap<Id, …>` costs an ordered
//! tree walk per touch; interning the (fixed) id universe once at setup
//! turns every touch into a `Vec` index. Sorted interning order means
//! dense index order *is* id order, so iterating a dense table yields
//! exactly the sequence a `BTreeMap` would — report and CSV boundaries
//! stay byte-identical without any re-sorting.

/// An id type that can be interned: copyable, totally ordered, and
/// projectable to a raw integer (used for the O(1) contiguous fast path).
pub(crate) trait DenseId: Copy + Ord {
    /// The raw integer behind the id.
    fn raw(self) -> u64;
}

impl DenseId for anu_core::ServerId {
    fn raw(self) -> u64 {
        u64::from(self.0)
    }
}

impl DenseId for anu_core::FileSetId {
    fn raw(self) -> u64 {
        self.0
    }
}

/// A frozen, sorted id universe mapping ids to dense indices `0..len`.
///
/// Ids are typically contiguous from zero (server ids in configs, file
/// sets in generated workloads), in which case `index` is a bounds check
/// and an equality compare; non-contiguous universes fall back to binary
/// search. Either way, index order equals sorted id order.
pub(crate) struct Interner<K> {
    ids: Vec<K>,
}

impl<K: DenseId> Interner<K> {
    /// Intern `ids` (deduplicated, sorted).
    pub fn new(mut ids: Vec<K>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        Interner { ids }
    }

    /// Number of interned ids.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Dense index of `id`, or `None` if it was never interned.
    #[inline]
    pub fn try_index(&self, id: K) -> Option<usize> {
        let raw = id.raw() as usize;
        // Contiguous-from-zero fast path: the id *is* its index.
        if self.ids.get(raw).is_some_and(|&k| k == id) {
            return Some(raw);
        }
        self.ids.binary_search(&id).ok()
    }

    /// Dense index of `id`.
    ///
    /// # Panics
    /// Panics if `id` was never interned — on the simulation paths this
    /// means an event or policy referenced an id outside the universe
    /// fixed at setup, which is a contract violation worth halting on.
    #[inline]
    pub fn index(&self, id: K) -> usize {
        self.try_index(id)
            // anu-lint: allow(panic) -- ids outside the setup-time universe are a caller bug
            .expect("id outside the interned universe")
    }

    /// The id at dense index `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> K {
        self.ids[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anu_core::{FileSetId, ServerId};

    #[test]
    fn contiguous_ids_use_identity_indexing() {
        let i = Interner::new((0..5).map(ServerId).collect());
        for k in 0..5 {
            assert_eq!(i.index(ServerId(k)), k as usize);
            assert_eq!(i.get(k as usize), ServerId(k));
        }
        assert_eq!(i.try_index(ServerId(5)), None);
    }

    #[test]
    fn sparse_ids_fall_back_to_search() {
        let i = Interner::new(vec![FileSetId(10), FileSetId(3), FileSetId(700)]);
        assert_eq!(i.len(), 3);
        assert_eq!(i.index(FileSetId(3)), 0);
        assert_eq!(i.index(FileSetId(10)), 1);
        assert_eq!(i.index(FileSetId(700)), 2);
        assert_eq!(i.try_index(FileSetId(4)), None);
        let ids: Vec<FileSetId> = (0..i.len()).map(|x| i.get(x)).collect();
        assert_eq!(ids, [FileSetId(3), FileSetId(10), FileSetId(700)]);
    }

    #[test]
    fn duplicates_are_collapsed() {
        let i = Interner::new(vec![ServerId(1), ServerId(1), ServerId(0)]);
        assert_eq!(i.len(), 2);
        assert_eq!(i.index(ServerId(1)), 1);
    }

    #[test]
    #[should_panic(expected = "outside the interned universe")]
    fn unknown_id_panics() {
        let i = Interner::new(vec![ServerId(0)]);
        let _ = i.index(ServerId(9));
    }
}
