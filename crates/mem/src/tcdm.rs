//! Tightly-coupled data memory (TCDM) of an accelerator cluster.

use mpsoc_sim::{BankedResource, Cycle};
use serde::{Deserialize, Serialize};

use crate::{Addr, MemoryError, WordStore};

/// How TCDM bank conflicts are modeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum BankMode {
    /// Conflict-free: every access is granted immediately.
    ///
    /// This models the optimized kernels of the paper, whose per-core data
    /// layout is arranged so that the 8 worker cores never collide on the
    /// 32 banks (4 banks per core, stride-1 streams). It is the default
    /// for calibrated experiments.
    #[default]
    Ideal,
    /// Word-interleaved banking with FCFS per-bank arbitration: concurrent
    /// same-bank accesses serialize and count as conflicts. Used by the
    /// banking ablation and stress tests.
    Banked,
}

/// A cluster's TCDM: word data plus per-bank access timing.
///
/// Addresses are *local* word indices (0-based); the SoC layer translates
/// global physical addresses through the
/// [`MemoryMap`](crate::MemoryMap) before calling in here.
///
/// # Example
///
/// ```
/// use mpsoc_mem::{BankMode, Tcdm};
/// use mpsoc_sim::Cycle;
///
/// let mut tcdm = Tcdm::new(1024, 32, BankMode::Banked);
/// tcdm.write_f64(5, 2.0).unwrap();
/// assert_eq!(tcdm.read_f64(5).unwrap(), 2.0);
///
/// // Two same-cycle accesses to word 0 and word 32 hit the same bank:
/// let a = tcdm.access(0, Cycle::ZERO);
/// let b = tcdm.access(32, Cycle::ZERO);
/// assert_eq!(a, Cycle::ZERO);
/// assert_eq!(b, Cycle::new(1));
/// assert_eq!(tcdm.conflicts(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Tcdm {
    data: WordStore,
    banks: BankedResource,
    mode: BankMode,
}

impl Tcdm {
    /// Creates a TCDM with `words` words striped over `banks` banks.
    ///
    /// # Panics
    ///
    /// Panics if `words` or `banks` is zero.
    pub fn new(words: u64, banks: usize, mode: BankMode) -> Self {
        assert!(words > 0, "TCDM cannot be empty");
        Tcdm {
            data: WordStore::new(Addr::new(0), words),
            banks: BankedResource::new(banks, Cycle::new(1)),
            mode,
        }
    }

    /// Capacity in words.
    pub fn len_words(&self) -> u64 {
        self.data.len_words()
    }

    /// `true` when the TCDM holds no words (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of banks.
    pub fn bank_count(&self) -> usize {
        self.banks.bank_count()
    }

    /// The banking mode in effect.
    pub fn mode(&self) -> BankMode {
        self.mode
    }

    /// The bank a local word index maps to (word-interleaved).
    pub fn bank_of(&self, word: u64) -> usize {
        (word % self.banks.bank_count() as u64) as usize
    }

    /// Requests a single-word access at time `at`; returns the grant time.
    /// In [`BankMode::Ideal`] the grant is always immediate.
    #[inline]
    pub fn access(&mut self, word: u64, at: Cycle) -> Cycle {
        match self.mode {
            BankMode::Ideal => at,
            BankMode::Banked => {
                let bank = self.bank_of(word);
                self.banks.acquire(bank, at)
            }
        }
    }

    /// Conflicted accesses observed so far (always zero in ideal mode).
    pub fn conflicts(&self) -> u64 {
        self.banks.conflicts()
    }

    /// Reads a double at local word index `word`.
    ///
    /// # Errors
    ///
    /// [`MemoryError::OutOfBounds`] if the index is out of range.
    #[inline]
    pub fn read_f64(&self, word: u64) -> Result<f64, MemoryError> {
        self.data.read_f64(Addr::new(0).add_words(word))
    }

    /// Writes a double at local word index `word`.
    ///
    /// # Errors
    ///
    /// [`MemoryError::OutOfBounds`] if the index is out of range.
    #[inline]
    pub fn write_f64(&mut self, word: u64, value: f64) -> Result<(), MemoryError> {
        self.data.write_f64(Addr::new(0).add_words(word), value)
    }

    /// Reads a raw word at local word index `word`.
    ///
    /// # Errors
    ///
    /// [`MemoryError::OutOfBounds`] if the index is out of range.
    pub fn read_u64(&self, word: u64) -> Result<u64, MemoryError> {
        self.data.read_u64(Addr::new(0).add_words(word))
    }

    /// Writes a raw word at local word index `word`.
    ///
    /// # Errors
    ///
    /// [`MemoryError::OutOfBounds`] if the index is out of range.
    pub fn write_u64(&mut self, word: u64, value: u64) -> Result<(), MemoryError> {
        self.data.write_u64(Addr::new(0).add_words(word), value)
    }

    /// The raw words, indexed by local word, lent only in
    /// [`BankMode::Ideal`]: there no access waits on arbitration, so an
    /// access that skips [`Tcdm::access`] changes no timing. In
    /// [`BankMode::Banked`] every access must be arbitrated, and this
    /// returns `None`.
    pub fn ideal_words(&mut self) -> Option<&mut [u64]> {
        match self.mode {
            BankMode::Ideal => Some(self.data.words_mut()),
            BankMode::Banked => None,
        }
    }

    /// Bulk-copies `count` doubles from a main-memory store into local
    /// words starting at `dst_word` (the data half of a DMA-in).
    ///
    /// # Errors
    ///
    /// Propagates range errors from either side.
    pub fn dma_in(
        &mut self,
        main: &WordStore,
        src: Addr,
        dst_word: u64,
        count: u64,
    ) -> Result<(), MemoryError> {
        self.data
            .copy_words_from(main, src, Addr::new(0).add_words(dst_word), count)
    }

    /// Bulk-copies `count` doubles from local words starting at `src_word`
    /// into a main-memory store (the data half of a DMA-out).
    ///
    /// # Errors
    ///
    /// Propagates range errors from either side.
    pub fn dma_out(
        &self,
        main: &mut WordStore,
        src_word: u64,
        dst: Addr,
        count: u64,
    ) -> Result<(), MemoryError> {
        main.copy_words_from(&self.data, Addr::new(0).add_words(src_word), dst, count)
    }

    /// Resets timing state (bank reservations) while keeping data.
    pub fn reset_timing(&mut self) {
        self.banks.reset();
    }

    /// Zeroes all data and resets timing.
    pub fn clear(&mut self) {
        self.data.clear();
        self.banks.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_mode_never_stalls() {
        let mut t = Tcdm::new(64, 32, BankMode::Ideal);
        for w in 0..64 {
            assert_eq!(t.access(w, Cycle::new(5)), Cycle::new(5));
        }
        assert_eq!(t.conflicts(), 0);
    }

    #[test]
    fn banked_mode_serializes_same_bank() {
        let mut t = Tcdm::new(128, 32, BankMode::Banked);
        assert_eq!(t.access(3, Cycle::ZERO), Cycle::ZERO);
        assert_eq!(t.access(35, Cycle::ZERO), Cycle::new(1)); // 35 % 32 == 3
        assert_eq!(t.access(4, Cycle::ZERO), Cycle::ZERO); // different bank
        assert_eq!(t.conflicts(), 1);
        assert!(t.ideal_words().is_none(), "a banked TCDM lends nothing");
    }

    #[test]
    fn bank_mapping_is_word_interleaved() {
        let t = Tcdm::new(128, 32, BankMode::Banked);
        assert_eq!(t.bank_of(0), 0);
        assert_eq!(t.bank_of(31), 31);
        assert_eq!(t.bank_of(32), 0);
        assert_eq!(t.bank_count(), 32);
    }

    #[test]
    fn data_round_trip_and_bounds() {
        let mut t = Tcdm::new(8, 4, BankMode::Ideal);
        t.write_f64(7, 1.5).unwrap();
        assert_eq!(t.read_f64(7).unwrap(), 1.5);
        t.write_u64(0, 42).unwrap();
        assert_eq!(t.read_u64(0).unwrap(), 42);
        let words = t.ideal_words().expect("an ideal TCDM lends its words");
        assert_eq!(
            (words.len(), words[0], f64::from_bits(words[7])),
            (8, 42, 1.5)
        );
        words[1] = 2.5f64.to_bits();
        assert_eq!(t.read_f64(1).unwrap(), 2.5);
        assert!(t.read_f64(8).is_err());
        assert!(t.write_f64(8, 0.0).is_err());
        assert_eq!(t.len_words(), 8);
        assert!(!t.is_empty());
    }

    #[test]
    fn dma_round_trip_through_main_store() {
        let mut main = WordStore::new(Addr::new(0x8000_0000), 16);
        main.write_f64_slice(Addr::new(0x8000_0000), &[1.0, 2.0, 3.0, 4.0])
            .unwrap();
        let mut t = Tcdm::new(8, 4, BankMode::Ideal);
        t.dma_in(&main, Addr::new(0x8000_0008), 0, 3).unwrap();
        assert_eq!(t.read_f64(0).unwrap(), 2.0);
        assert_eq!(t.read_f64(2).unwrap(), 4.0);
        t.write_f64(1, 99.0).unwrap();
        t.dma_out(&mut main, 0, Addr::new(0x8000_0040), 3).unwrap();
        assert_eq!(
            main.read_f64_slice(Addr::new(0x8000_0040), 3).unwrap(),
            vec![2.0, 99.0, 4.0]
        );
    }

    #[test]
    fn clear_and_reset() {
        let mut t = Tcdm::new(8, 4, BankMode::Banked);
        t.write_f64(0, 5.0).unwrap();
        t.access(0, Cycle::ZERO);
        t.access(4, Cycle::ZERO);
        assert_eq!(t.conflicts(), 1);
        t.reset_timing();
        assert_eq!(t.conflicts(), 0);
        assert_eq!(t.read_f64(0).unwrap(), 5.0);
        t.clear();
        assert_eq!(t.read_f64(0).unwrap(), 0.0);
    }

    #[test]
    fn default_bank_mode_is_ideal() {
        assert_eq!(BankMode::default(), BankMode::Ideal);
    }
}
