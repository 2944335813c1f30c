//! Fixed-size pages with little-endian integer accessors and a slotted
//! record layout used by heap files.

use ingot_common::{Error, PageId, Result};

/// Size of every page, in bytes. Matches the classic 8 KiB DBMS page.
pub const PAGE_SIZE: usize = 8192;

/// Byte offset where slot entries begin.
pub(crate) const HEADER_SIZE: usize = 16;
/// Bytes per slot entry: offset (u16) + length (u16).
pub(crate) const SLOT_SIZE: usize = 4;
/// Largest record an empty page accepts.
pub(crate) const MAX_RECORD: usize = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE;

// Header layout:
//   [0..2)   slot_count   u16
//   [2..4)   data_start   u16 (lowest byte offset used by record data)
//   [4..12)  next_page    u64 (overflow-chain link; PageId::INVALID if none)
//   [12..16) reserved

/// An 8 KiB page.
///
/// The slotted-record helpers (`insert_record` etc.) implement the heap page
/// format; B-Tree nodes use the raw byte accessors and their own layout.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// A zeroed page, formatted as an empty slotted page.
    pub fn new() -> Self {
        let mut p = Page {
            data: Box::new([0u8; PAGE_SIZE]),
        };
        p.set_u16(2, PAGE_SIZE as u16); // data_start: data region empty
        p.set_next_page(PageId::INVALID);
        p
    }

    /// Raw bytes.
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Raw bytes, mutable.
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.data
    }

    /// Build a page from raw bytes (backend read path).
    pub fn from_bytes(bytes: [u8; PAGE_SIZE]) -> Self {
        Page {
            data: Box::new(bytes),
        }
    }

    // ---- integer accessors -------------------------------------------------
    //
    // Total functions: offsets beyond the page read as zero and writes out of
    // range are ignored. In-range offsets are guaranteed by construction at
    // every call site (header constants, slot offsets below the slot array
    // bound); the checked forms exist so a *corrupt* page read from disk can
    // never panic the engine — it decodes as empty instead.

    /// Read a `u16` at `off` (0 when out of range).
    #[inline]
    pub fn u16_at(&self, off: usize) -> u16 {
        let mut b = [0u8; 2];
        if let Some(src) = self.data.get(off..off + 2) {
            b.copy_from_slice(src);
        }
        u16::from_le_bytes(b)
    }

    /// Write a `u16` at `off` (ignored when out of range).
    #[inline]
    pub fn set_u16(&mut self, off: usize, v: u16) {
        if let Some(dst) = self.data.get_mut(off..off + 2) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Read a `u32` at `off` (0 when out of range).
    #[inline]
    pub fn u32_at(&self, off: usize) -> u32 {
        let mut b = [0u8; 4];
        if let Some(src) = self.data.get(off..off + 4) {
            b.copy_from_slice(src);
        }
        u32::from_le_bytes(b)
    }

    /// Write a `u32` at `off` (ignored when out of range).
    #[inline]
    pub fn set_u32(&mut self, off: usize, v: u32) {
        if let Some(dst) = self.data.get_mut(off..off + 4) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Read a `u64` at `off` (0 when out of range).
    #[inline]
    pub fn u64_at(&self, off: usize) -> u64 {
        let mut b = [0u8; 8];
        if let Some(src) = self.data.get(off..off + 8) {
            b.copy_from_slice(src);
        }
        u64::from_le_bytes(b)
    }

    /// Write a `u64` at `off` (ignored when out of range).
    #[inline]
    pub fn set_u64(&mut self, off: usize, v: u64) {
        if let Some(dst) = self.data.get_mut(off..off + 8) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }

    // ---- slotted-page header ----------------------------------------------

    /// Number of slots (including tombstones).
    #[inline]
    pub fn slot_count(&self) -> u16 {
        self.u16_at(0)
    }

    fn set_slot_count(&mut self, n: u16) {
        self.set_u16(0, n);
    }

    fn data_start(&self) -> u16 {
        self.u16_at(2)
    }

    fn set_data_start(&mut self, v: u16) {
        self.set_u16(2, v);
    }

    /// The overflow-chain successor of this page.
    pub fn next_page(&self) -> PageId {
        PageId(self.u64_at(4))
    }

    /// Link this page to an overflow successor.
    pub fn set_next_page(&mut self, id: PageId) {
        self.set_u64(4, id.raw());
    }

    fn slot_off(slot: u16) -> usize {
        HEADER_SIZE + slot as usize * SLOT_SIZE
    }

    #[inline]
    fn slot(&self, slot: u16) -> (u16, u16) {
        let off = Self::slot_off(slot);
        (self.u16_at(off), self.u16_at(off + 2))
    }

    fn set_slot(&mut self, slot: u16, offset: u16, len: u16) {
        let off = Self::slot_off(slot);
        self.set_u16(off, offset);
        self.set_u16(off + 2, len);
    }

    /// Free bytes available for one more record of `len` bytes (including a
    /// possibly-new slot entry).
    pub fn fits(&self, len: usize) -> bool {
        // Reusing a tombstone slot would need only `len`, but be conservative.
        self.free_space() >= len + SLOT_SIZE
    }

    /// Remaining free bytes in the page (0 on a corrupt header).
    pub fn free_space(&self) -> usize {
        let slots_end = HEADER_SIZE + self.slot_count() as usize * SLOT_SIZE;
        (self.data_start() as usize).saturating_sub(slots_end)
    }

    // ---- record operations --------------------------------------------------

    /// Insert a record, returning its slot number, or `None` if it does not
    /// fit. Tombstoned slots are reused when the record fits their region or
    /// fresh space is available.
    pub fn insert_record(&mut self, rec: &[u8]) -> Option<u16> {
        if rec.len() > MAX_RECORD {
            return None;
        }
        if !self.fits(rec.len()) {
            return None;
        }
        let Some(new_start) = (self.data_start() as usize).checked_sub(rec.len()) else {
            return None; // corrupt data_start; treat as full
        };
        let dst = self.data.get_mut(new_start..new_start + rec.len())?;
        dst.copy_from_slice(rec);
        self.set_data_start(new_start as u16);

        // Reuse a tombstone slot if present, else append a new slot.
        let n = self.slot_count();
        let slot = (0..n).find(|&s| self.slot(s).1 == 0).unwrap_or_else(|| {
            self.set_slot_count(n + 1);
            n
        });
        self.set_slot(slot, new_start as u16, rec.len() as u16);
        Some(slot)
    }

    /// Read the record in `slot`, or `None` for tombstones / out-of-range.
    #[inline]
    pub fn record(&self, slot: u16) -> Option<&[u8]> {
        self.record_range(slot).and_then(|at| self.data.get(at))
    }

    /// Where the record in `slot` lies in [`Page::bytes`], or `None` for
    /// tombstones / out-of-range.
    #[inline]
    pub(crate) fn record_range(&self, slot: u16) -> Option<std::ops::Range<usize>> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, len) = self.slot(slot);
        let at = off as usize..off as usize + len as usize;
        // Checked: a corrupt slot entry reads as a tombstone, not a panic
        // (also avoids the u16 overflow `off + len` could hit).
        (len != 0 && at.end <= PAGE_SIZE).then_some(at)
    }

    /// Tombstone the record in `slot`. The data region is not compacted; the
    /// space is reclaimed only on page rebuild (MODIFY), like a real heap.
    pub fn delete_record(&mut self, slot: u16) -> Result<()> {
        if slot >= self.slot_count() || self.slot(slot).1 == 0 {
            return Err(Error::storage(format!("no record in slot {slot}")));
        }
        self.set_slot(slot, 0, 0);
        Ok(())
    }

    /// Replace the record in `slot` if the new bytes fit in the page
    /// (in-place when not longer than the old record, otherwise appended to
    /// free space). Returns `false` when the page cannot hold the new value.
    pub fn update_record(&mut self, slot: u16, rec: &[u8]) -> Result<bool> {
        if slot >= self.slot_count() || self.slot(slot).1 == 0 {
            return Err(Error::storage(format!("no record in slot {slot}")));
        }
        let (off, len) = self.slot(slot);
        if rec.len() <= len as usize {
            let off = off as usize;
            match self.data.get_mut(off..off + rec.len()) {
                Some(dst) => dst.copy_from_slice(rec),
                None => return Err(Error::storage(format!("corrupt slot {slot}"))),
            }
            self.set_slot(slot, off as u16, rec.len() as u16);
            return Ok(true);
        }
        if self.free_space() < rec.len() {
            return Ok(false);
        }
        let Some(new_start) = (self.data_start() as usize).checked_sub(rec.len()) else {
            return Ok(false);
        };
        match self.data.get_mut(new_start..new_start + rec.len()) {
            Some(dst) => dst.copy_from_slice(rec),
            None => return Ok(false),
        }
        self.set_data_start(new_start as u16);
        self.set_slot(slot, new_start as u16, rec.len() as u16);
        Ok(true)
    }

    /// Iterate over live records as `(slot, bytes)`.
    pub fn records(&self) -> impl Iterator<Item = (u16, &[u8])> {
        (0..self.slot_count()).filter_map(move |s| self.record(s).map(|r| (s, r)))
    }

    /// Number of live (non-tombstoned) records.
    pub fn live_records(&self) -> usize {
        self.records().count()
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("slots", &self.slot_count())
            .field("free", &self.free_space())
            .field("next", &self.next_page())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_read_roundtrip() {
        let mut p = Page::new();
        let s1 = p.insert_record(b"hello").unwrap();
        let s2 = p.insert_record(b"world!").unwrap();
        assert_eq!(p.record(s1).unwrap(), b"hello");
        assert_eq!(p.record(s2).unwrap(), b"world!");
        assert_eq!(p.live_records(), 2);
    }

    #[test]
    fn delete_makes_tombstone_and_slot_is_reused() {
        let mut p = Page::new();
        let s1 = p.insert_record(b"aaaa").unwrap();
        let _s2 = p.insert_record(b"bbbb").unwrap();
        p.delete_record(s1).unwrap();
        assert!(p.record(s1).is_none());
        assert_eq!(p.live_records(), 1);
        let s3 = p.insert_record(b"cccc").unwrap();
        assert_eq!(s3, s1, "tombstone slot should be reused");
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut p = Page::new();
        let rec = [7u8; 128];
        let mut n = 0;
        while p.insert_record(&rec).is_some() {
            n += 1;
        }
        assert!(n >= 60, "8K page should hold at least 60 x 132B, held {n}");
        assert!(!p.fits(128));
        assert!(p.insert_record(&[0u8; PAGE_SIZE]).is_none());
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut p = Page::new();
        let s = p.insert_record(b"0123456789").unwrap();
        assert!(p.update_record(s, b"abc").unwrap());
        assert_eq!(p.record(s).unwrap(), b"abc");
        assert!(p.update_record(s, b"a-much-longer-record").unwrap());
        assert_eq!(p.record(s).unwrap(), b"a-much-longer-record");
    }

    #[test]
    fn overflow_link_roundtrip() {
        let mut p = Page::new();
        assert!(!p.next_page().is_valid());
        p.set_next_page(PageId(42));
        assert_eq!(p.next_page(), PageId(42));
    }

    #[test]
    fn corrupt_page_is_total_not_panicking() {
        // Every byte 0xFF: slot offsets, lengths and data_start are garbage.
        // All accessors must degrade (empty/ignored), never panic.
        let mut p = Page::from_bytes([0xFF; PAGE_SIZE]);
        assert_eq!(p.u16_at(PAGE_SIZE), 0, "OOB read is zero");
        p.set_u16(PAGE_SIZE, 7); // OOB write ignored
        assert!(p.record(0).is_none(), "corrupt slot reads as tombstone");
        assert_eq!(p.free_space(), 0);
        assert!(p.insert_record(b"x").is_none());
        assert!(p.update_record(0, b"y").is_err());
    }

    #[test]
    fn update_reports_no_space() {
        let mut p = Page::new();
        let s = p.insert_record(&[1u8; 16]).unwrap();
        // Fill the page completely.
        while p.insert_record(&[2u8; 256]).is_some() {}
        let huge = [3u8; 4096];
        assert!(!p.update_record(s, &huge).unwrap());
    }
}
