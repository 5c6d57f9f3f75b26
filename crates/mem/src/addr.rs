//! Typed physical addresses.

use std::fmt;
use std::ops::{Add, Sub};

use serde::{Deserialize, Serialize};

/// Size of the native data word in bytes. Everything the accelerator
/// touches is double-precision, so the word is 8 bytes.
pub const WORD_BYTES: u64 = 8;

/// A physical byte address in the SoC address space.
///
/// `Addr` is a transparent newtype over `u64` ([C-NEWTYPE]): it prevents
/// byte addresses, word indices and plain integers from being mixed up in
/// the memory models.
///
/// # Example
///
/// ```
/// use mpsoc_mem::Addr;
///
/// let base = Addr::new(0x8000_0000);
/// let third_word = base.add_words(3);
/// assert_eq!(third_word.as_u64(), 0x8000_0018);
/// assert_eq!(third_word.word_offset_from(base), Some(3));
/// ```
///
/// [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte value.
    #[inline]
    pub const fn new(bytes: u64) -> Self {
        Addr(bytes)
    }

    /// The raw byte address.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// `true` when the address is aligned to the native word size.
    ///
    /// ```
    /// # use mpsoc_mem::Addr;
    /// assert!(Addr::new(16).is_word_aligned());
    /// assert!(!Addr::new(12).is_word_aligned());
    /// ```
    #[inline]
    pub const fn is_word_aligned(self) -> bool {
        self.0 % WORD_BYTES == 0
    }

    /// The address `words` native words beyond `self`.
    #[inline]
    pub const fn add_words(self, words: u64) -> Addr {
        Addr(self.0 + words * WORD_BYTES)
    }

    /// The address `bytes` bytes beyond `self`.
    #[inline]
    pub const fn add_bytes(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }

    /// Distance from `base` in whole words, `None` if `self < base` or the
    /// offset is not word-aligned.
    #[inline]
    pub fn word_offset_from(self, base: Addr) -> Option<u64> {
        let delta = self.0.checked_sub(base.0)?;
        (delta % WORD_BYTES == 0).then_some(delta / WORD_BYTES)
    }

    /// Byte distance from `base`, `None` if `self < base`.
    pub fn byte_offset_from(self, base: Addr) -> Option<u64> {
        self.0.checked_sub(base.0)
    }
}

impl From<u64> for Addr {
    fn from(value: u64) -> Self {
        Addr(value)
    }
}

impl From<Addr> for u64 {
    fn from(value: Addr) -> Self {
        value.0
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl Add<u64> for Addr {
    type Output = Addr;
    /// Byte offset addition.
    fn add(self, rhs: u64) -> Addr {
        Addr(self.0 + rhs)
    }
}

impl Sub<Addr> for Addr {
    type Output = u64;
    /// Byte distance between two addresses.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs > self`.
    fn sub(self, rhs: Addr) -> u64 {
        self.0 - rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_arithmetic() {
        let a = Addr::new(0x1000);
        assert_eq!(a.add_words(2), Addr::new(0x1010));
        assert_eq!(a.add_bytes(4), Addr::new(0x1004));
        assert_eq!(a.add_words(2).word_offset_from(a), Some(2));
        assert_eq!(a.add_bytes(4).word_offset_from(a), None);
        assert_eq!(a.word_offset_from(a.add_words(1)), None);
    }

    #[test]
    fn alignment() {
        assert!(Addr::new(0).is_word_aligned());
        assert!(Addr::new(8).is_word_aligned());
        assert!(!Addr::new(7).is_word_aligned());
    }

    #[test]
    fn conversions_and_display() {
        let a = Addr::from(0xdead_beef_u64);
        assert_eq!(u64::from(a), 0xdead_beef);
        assert_eq!(a.to_string(), "0xdeadbeef");
        assert_eq!(format!("{a:x}"), "deadbeef");
        assert_eq!(format!("{a:X}"), "DEADBEEF");
    }

    #[test]
    fn operators() {
        let a = Addr::new(100);
        assert_eq!(a + 24, Addr::new(124));
        assert_eq!(Addr::new(124) - a, 24);
        assert_eq!(a.byte_offset_from(Addr::new(90)), Some(10));
        assert_eq!(Addr::new(90).byte_offset_from(a), None);
    }
}
