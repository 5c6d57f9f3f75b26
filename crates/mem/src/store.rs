//! Flat word-granular backing store.

use crate::{Addr, MemoryError};

/// A bounds-checked array of 64-bit words anchored at a base address.
///
/// `WordStore` carries the *data* of a memory; timing is layered on top by
/// [`MainMemory`](crate::MainMemory) and [`Tcdm`](crate::Tcdm). Words can
/// be viewed as raw bits (`u64`) or as doubles (`f64`); the store keeps
/// raw bits internally so integer payloads (descriptors, flags) round-trip
/// exactly.
///
/// # Example
///
/// ```
/// use mpsoc_mem::{Addr, WordStore};
///
/// # fn main() -> Result<(), mpsoc_mem::MemoryError> {
/// let mut store = WordStore::new(Addr::new(0x1000), 16);
/// store.write_f64(Addr::new(0x1008), 2.5)?;
/// assert_eq!(store.read_f64(Addr::new(0x1008))?, 2.5);
/// assert_eq!(store.read_u64(Addr::new(0x1000))?, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct WordStore {
    base: Addr,
    words: Vec<u64>,
}

impl WordStore {
    /// Creates a zero-initialized store of `words` words based at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not word-aligned.
    pub fn new(base: Addr, words: u64) -> Self {
        assert!(base.is_word_aligned(), "store base must be word-aligned");
        WordStore {
            base,
            words: vec![0; words as usize],
        }
    }

    /// Base address of the store.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Capacity in words.
    pub fn len_words(&self) -> u64 {
        self.words.len() as u64
    }

    /// `true` when the store holds no words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// One-past-the-end address.
    pub fn end(&self) -> Addr {
        self.base.add_words(self.len_words())
    }

    /// `true` when `addr` lies inside the store.
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.base && addr < self.end()
    }

    #[inline]
    fn index(&self, addr: Addr) -> Result<usize, MemoryError> {
        if !addr.is_word_aligned() {
            return Err(MemoryError::Misaligned { addr });
        }
        match addr.word_offset_from(self.base) {
            Some(w) if w < self.len_words() => Ok(w as usize),
            _ => Err(MemoryError::OutOfBounds {
                addr,
                base: self.base,
                words: self.len_words(),
            }),
        }
    }

    /// Reads the raw word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Misaligned`] or [`MemoryError::OutOfBounds`].
    #[inline]
    pub fn read_u64(&self, addr: Addr) -> Result<u64, MemoryError> {
        Ok(self.words[self.index(addr)?])
    }

    /// Writes the raw word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Misaligned`] or [`MemoryError::OutOfBounds`].
    #[inline]
    pub fn write_u64(&mut self, addr: Addr, value: u64) -> Result<(), MemoryError> {
        let i = self.index(addr)?;
        self.words[i] = value;
        Ok(())
    }

    /// Reads the word at `addr` as a double.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Misaligned`] or [`MemoryError::OutOfBounds`].
    #[inline]
    pub fn read_f64(&self, addr: Addr) -> Result<f64, MemoryError> {
        self.read_u64(addr).map(f64::from_bits)
    }

    /// Writes a double at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Misaligned`] or [`MemoryError::OutOfBounds`].
    #[inline]
    pub fn write_f64(&mut self, addr: Addr, value: f64) -> Result<(), MemoryError> {
        self.write_u64(addr, value.to_bits())
    }

    /// Atomically adds `delta` to the raw word at `addr`, returning the
    /// *new* value (matching RISC-V AMO semantics used by the software
    /// barrier).
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Misaligned`] or [`MemoryError::OutOfBounds`].
    pub fn fetch_add_u64(&mut self, addr: Addr, delta: u64) -> Result<u64, MemoryError> {
        let i = self.index(addr)?;
        self.words[i] = self.words[i].wrapping_add(delta);
        Ok(self.words[i])
    }

    /// Copies `values` into consecutive words starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns an error if any part of the destination is out of bounds;
    /// nothing is written in that case.
    pub fn write_f64_slice(&mut self, addr: Addr, values: &[f64]) -> Result<(), MemoryError> {
        let start = self.index(addr)?;
        let end_addr = addr.add_words(values.len() as u64);
        if end_addr > self.end() {
            return Err(MemoryError::OutOfBounds {
                addr: end_addr,
                base: self.base,
                words: self.len_words(),
            });
        }
        for (slot, value) in self.words[start..start + values.len()]
            .iter_mut()
            .zip(values)
        {
            *slot = value.to_bits();
        }
        Ok(())
    }

    /// Reads `count` consecutive doubles starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns an error if any part of the source is out of bounds.
    pub fn read_f64_slice(&self, addr: Addr, count: u64) -> Result<Vec<f64>, MemoryError> {
        let start = self.index(addr)?;
        let end_addr = addr.add_words(count);
        if end_addr > self.end() {
            return Err(MemoryError::OutOfBounds {
                addr: end_addr,
                base: self.base,
                words: self.len_words(),
            });
        }
        Ok(self.words[start..start + count as usize]
            .iter()
            .map(|&bits| f64::from_bits(bits))
            .collect())
    }

    /// Copies `count` words from `src` in `from` to `dst` in `self`.
    /// Used by the DMA model to move data between memories.
    ///
    /// # Errors
    ///
    /// Returns an error if either range is out of bounds; the destination
    /// is untouched in that case.
    pub fn copy_words_from(
        &mut self,
        from: &WordStore,
        src: Addr,
        dst: Addr,
        count: u64,
    ) -> Result<(), MemoryError> {
        let src_start = from.index(src)?;
        if src.add_words(count) > from.end() {
            return Err(MemoryError::OutOfBounds {
                addr: src.add_words(count),
                base: from.base,
                words: from.len_words(),
            });
        }
        let dst_start = self.index(dst)?;
        if dst.add_words(count) > self.end() {
            return Err(MemoryError::OutOfBounds {
                addr: dst.add_words(count),
                base: self.base,
                words: self.len_words(),
            });
        }
        let (src_slice, dst_slice) = (
            &from.words[src_start..src_start + count as usize],
            &mut self.words[dst_start..dst_start + count as usize],
        );
        dst_slice.copy_from_slice(src_slice);
        Ok(())
    }

    /// The raw words, word `i` at `base + 8·i`.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Zeroes the entire store.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> WordStore {
        WordStore::new(Addr::new(0x100), 8)
    }

    #[test]
    fn round_trip_u64_and_f64() {
        let mut s = store();
        s.write_u64(Addr::new(0x100), 0xdead).unwrap();
        assert_eq!(s.read_u64(Addr::new(0x100)).unwrap(), 0xdead);
        s.write_f64(Addr::new(0x108), -1.25).unwrap();
        assert_eq!(s.read_f64(Addr::new(0x108)).unwrap(), -1.25);
        // NaN bit patterns survive because storage is raw bits.
        let weird = f64::from_bits(0x7ff8_0000_0000_1234);
        s.write_f64(Addr::new(0x110), weird).unwrap();
        assert_eq!(
            s.read_f64(Addr::new(0x110)).unwrap().to_bits(),
            weird.to_bits()
        );
    }

    #[test]
    fn bounds_and_alignment_errors() {
        let mut s = store();
        assert!(matches!(
            s.read_u64(Addr::new(0x0)),
            Err(MemoryError::OutOfBounds { .. })
        ));
        assert!(matches!(
            s.read_u64(s.end()),
            Err(MemoryError::OutOfBounds { .. })
        ));
        assert!(matches!(
            s.write_u64(Addr::new(0x104), 1),
            Err(MemoryError::Misaligned { .. })
        ));
    }

    #[test]
    fn contains_and_geometry() {
        let s = store();
        assert_eq!(s.base(), Addr::new(0x100));
        assert_eq!(s.len_words(), 8);
        assert_eq!(s.end(), Addr::new(0x140));
        assert!(s.contains(Addr::new(0x100)));
        assert!(s.contains(Addr::new(0x13f)));
        assert!(!s.contains(Addr::new(0x140)));
        assert!(!s.is_empty());
    }

    #[test]
    fn fetch_add_returns_new_value() {
        let mut s = store();
        assert_eq!(s.fetch_add_u64(Addr::new(0x100), 1).unwrap(), 1);
        assert_eq!(s.fetch_add_u64(Addr::new(0x100), 4).unwrap(), 5);
        assert_eq!(s.read_u64(Addr::new(0x100)).unwrap(), 5);
    }

    #[test]
    fn slice_round_trip() {
        let mut s = store();
        let data = [1.0, 2.0, 3.0];
        s.write_f64_slice(Addr::new(0x110), &data).unwrap();
        assert_eq!(s.read_f64_slice(Addr::new(0x110), 3).unwrap(), data);
    }

    #[test]
    fn slice_overflow_rejected_without_partial_write() {
        let mut s = store();
        let data = vec![9.0; 9];
        assert!(s.write_f64_slice(Addr::new(0x100), &data).is_err());
        // Nothing was written.
        assert_eq!(s.read_u64(Addr::new(0x100)).unwrap(), 0);
        assert!(s.read_f64_slice(Addr::new(0x100), 9).is_err());
    }

    #[test]
    fn copy_words_between_stores() {
        let mut a = WordStore::new(Addr::new(0x0), 4);
        let mut b = WordStore::new(Addr::new(0x1000), 4);
        a.write_f64_slice(Addr::new(0x0), &[1.0, 2.0, 3.0, 4.0])
            .unwrap();
        b.copy_words_from(&a, Addr::new(0x8), Addr::new(0x1000), 2)
            .unwrap();
        assert_eq!(b.read_f64_slice(Addr::new(0x1000), 2).unwrap(), [2.0, 3.0]);
        // Out-of-range copies are rejected.
        assert!(b
            .copy_words_from(&a, Addr::new(0x18), Addr::new(0x1000), 2)
            .is_err());
        assert!(b
            .copy_words_from(&a, Addr::new(0x0), Addr::new(0x1018), 2)
            .is_err());
    }

    #[test]
    fn clear_zeroes() {
        let mut s = store();
        s.write_u64(Addr::new(0x100), 7).unwrap();
        s.clear();
        assert_eq!(s.read_u64(Addr::new(0x100)).unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "word-aligned")]
    fn unaligned_base_panics() {
        let _ = WordStore::new(Addr::new(0x101), 4);
    }
}
