//! Physical addresses and cache-block addresses.
//!
//! The suite models a byte-addressed physical memory with 64-byte cache
//! blocks and 4 KB pages (the paper's SPARC/Solaris configuration). Two
//! newtypes keep the two granularities from being confused:
//! [`Address`] is a byte address, [`Block`] is a cache-block (line) address.

use std::fmt;

/// Cache-block size in bytes. Fixed at 64 B, as in the paper's systems.
pub const BLOCK_BYTES: u64 = 64;

/// Page size in bytes. Fixed at 4 KB (Solaris/SPARC base page).
pub const PAGE_BYTES: u64 = 4096;

/// Number of cache blocks per page.
pub const BLOCKS_PER_PAGE: u64 = PAGE_BYTES / BLOCK_BYTES;

/// A byte-granularity physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(u64);

impl Address {
    /// Creates an address from a raw byte value.
    pub const fn new(raw: u64) -> Self {
        Address(raw)
    }

    /// Returns the raw byte value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the cache block containing this address.
    pub const fn block(self) -> Block {
        Block(self.0 / BLOCK_BYTES)
    }

    /// Returns the page number containing this address.
    pub const fn page(self) -> u64 {
        self.0 / PAGE_BYTES
    }

    /// Returns the byte offset of this address within its cache block.
    pub const fn block_offset(self) -> u64 {
        self.0 % BLOCK_BYTES
    }

    /// Returns the address advanced by `bytes`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds on overflow.
    pub fn offset(self, bytes: u64) -> Address {
        Address(self.0 + bytes)
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Address {
    fn from(raw: u64) -> Self {
        Address(raw)
    }
}

/// A cache-block (line) address: a byte address divided by [`BLOCK_BYTES`].
///
/// Miss traces and all temporal-stream analysis operate at block granularity,
/// matching the paper (streams are sequences of *block* addresses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Block(u64);

impl Block {
    /// The largest raw block number: the block holding the highest byte
    /// address. Readers of untrusted traces and ingest frames reject
    /// anything larger.
    pub const MAX_RAW: u64 = u64::MAX / BLOCK_BYTES;

    /// Creates a block address from a raw block number.
    pub const fn new(raw: u64) -> Self {
        Block(raw)
    }

    /// Returns the block containing the given byte address.
    pub const fn containing(addr: Address) -> Self {
        addr.block()
    }

    /// Returns the raw block number.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the first byte address of this block.
    pub const fn base_address(self) -> Address {
        Address(self.0 * BLOCK_BYTES)
    }

    /// Returns the page number containing this block.
    pub const fn page(self) -> u64 {
        self.0 / BLOCKS_PER_PAGE
    }

    /// Returns the signed block-granularity distance `self - other`.
    ///
    /// Used by the stride detector; saturates at `i64` bounds.
    pub fn stride_from(self, other: Block) -> i64 {
        let a = self.0 as i128;
        let b = other.0 as i128;
        (a - b).clamp(i64::MIN as i128, i64::MAX as i128) as i64
    }

    /// Returns the block advanced by a signed number of blocks.
    pub fn offset(self, blocks: i64) -> Block {
        Block(self.0.wrapping_add_signed(blocks))
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk:{:#x}", self.0)
    }
}

impl From<Address> for Block {
    fn from(addr: Address) -> Self {
        addr.block()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_of_address() {
        assert_eq!(Address::new(0).block(), Block::new(0));
        assert_eq!(Address::new(63).block(), Block::new(0));
        assert_eq!(Address::new(64).block(), Block::new(1));
        assert_eq!(Address::new(4096).block(), Block::new(64));
    }

    #[test]
    fn max_raw_block_holds_the_highest_address() {
        assert_eq!(Address::new(u64::MAX).block(), Block::new(Block::MAX_RAW));
        assert_eq!(
            Block::new(Block::MAX_RAW).base_address(),
            Address::new(u64::MAX - (BLOCK_BYTES - 1))
        );
    }

    #[test]
    fn page_of_address_and_block() {
        assert_eq!(Address::new(4095).page(), 0);
        assert_eq!(Address::new(4096).page(), 1);
        assert_eq!(Block::new(63).page(), 0);
        assert_eq!(Block::new(64).page(), 1);
    }

    #[test]
    fn block_base_roundtrip() {
        let b = Block::new(17);
        assert_eq!(b.base_address().block(), b);
        assert_eq!(b.base_address().block_offset(), 0);
    }

    #[test]
    fn stride_between_blocks() {
        assert_eq!(Block::new(10).stride_from(Block::new(7)), 3);
        assert_eq!(Block::new(7).stride_from(Block::new(10)), -3);
        assert_eq!(Block::new(5).stride_from(Block::new(5)), 0);
    }

    #[test]
    fn block_signed_offset() {
        assert_eq!(Block::new(10).offset(-3), Block::new(7));
        assert_eq!(Block::new(10).offset(3), Block::new(13));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Address::new(0x40).to_string(), "0x40");
        assert_eq!(Block::new(0x40).to_string(), "blk:0x40");
        assert_eq!(format!("{:x}", Address::new(255)), "ff");
    }
}
