//! Sandbox linear memory (§3.2 of the paper).
//!
//! The backing buffer holds exactly the committed bytes (`pages × 64 KiB`),
//! so the slice check Rust performs on every access *is* the Wasm bounds
//! check: an access whose effective address range does not lie inside the
//! buffer traps with [`Trap::OutOfBounds`]. There is no other semantics.

use crate::value::Trap;
use sledge_wasm::PAGE_SIZE;
use std::sync::Arc;

// An effective address is a 33-bit sum (`u32` address + `u32` offset) plus an
// access width; it must not wrap in `usize`.
const _: () = assert!(usize::BITS >= 64, "effective addresses need 64-bit usize");

/// Error constructing a [`LinearMemory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryError {
    /// `min_pages` exceeds `max_pages`: the memory could never grow to its
    /// own minimum.
    MinExceedsMax { min_pages: u32, max_pages: u32 },
}

impl std::fmt::Display for MemoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemoryError::MinExceedsMax {
                min_pages,
                max_pages,
            } => write!(
                f,
                "memory min_pages ({min_pages}) exceeds max_pages ({max_pages})"
            ),
        }
    }
}

impl std::error::Error for MemoryError {}

/// A precomputed image of a module's initialized linear memory: every data
/// segment replayed, in order, into one flat byte span starting at address
/// zero. Built once at translation and shared by all of the module's
/// instances; it is both the fast path for cold instantiation and the
/// restore source for `LinearMemory::reset_from` when a warm sandbox is
/// recycled instead of torn down.
#[derive(Debug, Clone)]
pub struct MemoryTemplate {
    image: Arc<[u8]>,
}

impl Default for MemoryTemplate {
    fn default() -> Self {
        MemoryTemplate {
            image: Vec::new().into(),
        }
    }
}

impl MemoryTemplate {
    /// Precompute the initialized-memory image from a module's data
    /// segments (`(offset, bytes)` pairs, replayed in order so overlapping
    /// segments keep their last-writer-wins semantics).
    pub(crate) fn build(data: &[(u32, Arc<[u8]>)]) -> Self {
        let end = data
            .iter()
            .map(|(off, bytes)| *off as usize + bytes.len())
            .max()
            .unwrap_or(0);
        let mut image = vec![0u8; end];
        for (off, bytes) in data {
            image[*off as usize..*off as usize + bytes.len()].copy_from_slice(bytes);
        }
        MemoryTemplate {
            image: image.into(),
        }
    }

    /// The flat initialized span (address 0 up to the end of the highest
    /// data segment).
    pub fn image(&self) -> &[u8] {
        &self.image
    }

    /// Whether the module initializes no memory at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.image.is_empty()
    }
}

/// A sandbox's linear memory.
#[derive(Debug)]
pub struct LinearMemory {
    /// The committed bytes, exactly: `data.len() == pages × PAGE_SIZE`.
    data: Vec<u8>,
    /// Initial page count, the size the memory snaps back to on
    /// [`LinearMemory::reset_from`].
    min_pages: u32,
    max_pages: u32,
    /// One past the highest byte any store (guest or host-side) has touched
    /// since allocation or the last reset; never above `data.len()`. Reset
    /// only has to re-zero `template_len..hwm` instead of the whole buffer.
    hwm: usize,
    /// Lowest byte index any *host-side* [`Self::write_bytes`] has touched
    /// since allocation or the last reset (`usize::MAX` when none). Guest
    /// stores are covered by the module's static write-footprint
    /// certificate; host writes (request payloads) are the only writer that
    /// certificate cannot see, so the footprint-based partial resets guard
    /// on this mark. Guest store hot paths never touch it.
    host_lo: usize,
}

/// The guest effective address `addr + offset`, a 33-bit sum.
#[inline(always)]
fn effective(addr: u32, offset: u32) -> usize {
    addr as usize + offset as usize
}

impl LinearMemory {
    /// Allocate a zeroed memory of `min_pages`, growable to `max_pages`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::MinExceedsMax`] when `min_pages > max_pages`.
    pub(crate) fn new(min_pages: u32, max_pages: u32) -> Result<Self, MemoryError> {
        if min_pages > max_pages {
            return Err(MemoryError::MinExceedsMax {
                min_pages,
                max_pages,
            });
        }
        Ok(LinearMemory {
            data: vec![0u8; min_pages as usize * PAGE_SIZE],
            min_pages,
            max_pages,
            hwm: 0,
            host_lo: usize::MAX,
        })
    }

    /// Current size in pages.
    pub fn pages(&self) -> u32 {
        (self.data.len() / PAGE_SIZE) as u32
    }

    /// Committed size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.data.len()
    }

    /// Grow by `delta` zeroed pages. Returns the previous page count, or
    /// `-1` if the maximum would be exceeded.
    pub(crate) fn grow(&mut self, delta: u32) -> i32 {
        let old = self.pages();
        match old.checked_add(delta) {
            Some(new) if new <= self.max_pages && new <= 65536 => {
                self.data.resize(new as usize * PAGE_SIZE, 0);
                old as i32
            }
            _ => -1,
        }
    }

    /// Guest load of `N` bytes at `addr + offset`.
    #[inline(always)]
    pub(crate) fn load<const N: usize>(&self, addr: u32, offset: u32) -> Result<[u8; N], Trap> {
        let ea = effective(addr, offset);
        match self.data.get(ea..ea + N) {
            Some(bytes) => Ok(bytes.try_into().expect("the slice is N bytes long")),
            None => Err(Trap::OutOfBounds),
        }
    }

    /// Guest store of `N` bytes at `addr + offset`. A trapping store writes
    /// nothing.
    #[inline(always)]
    pub(crate) fn store<const N: usize>(
        &mut self,
        addr: u32,
        offset: u32,
        bytes: [u8; N],
    ) -> Result<(), Trap> {
        let ea = effective(addr, offset);
        let dst = self.data.get_mut(ea..ea + N).ok_or(Trap::OutOfBounds)?;
        dst.copy_from_slice(&bytes);
        self.hwm = self.hwm.max(ea + N);
        Ok(())
    }

    /// Host-side checked read (used by the runtime to extract responses
    /// etc.).
    ///
    /// # Errors
    ///
    /// Returns [`Trap::OutOfBounds`] if the range exceeds committed memory.
    pub fn read_bytes(&self, addr: u32, len: u32) -> Result<&[u8], Trap> {
        let start = addr as usize;
        self.data
            .get(start..start + len as usize)
            .ok_or(Trap::OutOfBounds)
    }

    /// Host-side checked write into guest memory.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::OutOfBounds`] if the range exceeds committed memory.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), Trap> {
        let start = addr as usize;
        let end = start
            .checked_add(bytes.len())
            .filter(|&e| e <= self.data.len())
            .ok_or(Trap::OutOfBounds)?;
        self.data[start..end].copy_from_slice(bytes);
        self.hwm = self.hwm.max(end);
        if !bytes.is_empty() {
            self.host_lo = self.host_lo.min(start);
        }
        Ok(())
    }

    /// Forget the host-write low mark. Called once right after instantiation
    /// writes the template image through [`Self::write_bytes`]: the template
    /// is by definition part of the pristine state, so it must not count as
    /// an uncertified host write.
    pub(crate) fn clear_host_write_mark(&mut self) {
        self.host_lo = usize::MAX;
    }

    /// One past the highest byte index any store has touched since
    /// allocation or the last `reset_from`.
    pub fn high_water_mark(&self) -> usize {
        self.hwm
    }

    /// Restore this memory to the pristine post-instantiation state described
    /// by `image` (see [`MemoryTemplate`]) without reallocating: truncate
    /// back to `min_pages`, zero only the dirtied span below that beyond the
    /// template, then memcpy the template over the front. Truncation keeps
    /// the allocation, and a later [`Self::grow`] zero-fills every byte it
    /// exposes again, so no byte of this invocation survives into the next.
    pub(crate) fn reset_from(&mut self, image: &[u8]) {
        let min_len = self.min_pages as usize * PAGE_SIZE;
        self.data.truncate(min_len);
        let dirty_end = self.hwm.min(min_len);
        if dirty_end > image.len() {
            self.data[image.len()..dirty_end].fill(0);
        }
        self.data[..image.len()].copy_from_slice(image);
        self.hwm = image.len();
        self.host_lo = usize::MAX;
    }

    /// Elide the reset entirely: the memory is *already* pristine. Sound only
    /// when the entry point's effect certificate proved it writes nothing
    /// (`Pure`), and the runtime state confirms nothing uncertified happened:
    /// no `memory.grow` took effect, no host-side write landed, and no store
    /// raised the high-water mark past the template span. Returns `false`
    /// (nothing elided, caller must fall back to [`Self::reset_from`]) if any
    /// guard fails.
    pub(crate) fn reset_elided(&mut self, image: &[u8]) -> bool {
        self.pages() == self.min_pages && self.host_lo == usize::MAX && self.hwm <= image.len()
    }

    /// Reset using a static write-footprint certificate: every guest store
    /// this instance could have executed lies in `[lo, ∞)`, so the span
    /// `[template_len, lo)` is provably still zero and needs no re-zeroing.
    /// Only the certified span's tail (`[max(lo, template_len), hwm)`) is
    /// zeroed before the template memcpy. Guards: pages must not have grown
    /// (this path does not truncate) and no host-side write may have landed
    /// below `lo` (host writes are invisible to the certificate). Returns
    /// `false` without touching memory if a guard fails.
    pub(crate) fn reset_from_span(&mut self, image: &[u8], lo: usize) -> bool {
        if self.pages() != self.min_pages || self.host_lo < lo {
            return false;
        }
        let dirty_start = lo.max(image.len());
        if self.hwm > dirty_start {
            self.data[dirty_start..self.hwm].fill(0);
        }
        self.data[..image.len()].copy_from_slice(image);
        self.hwm = image.len();
        self.host_lo = usize::MAX;
        true
    }

    /// Approximate resident size of this memory in bytes (for footprint
    /// reporting): the allocation, which a reset keeps.
    pub(crate) fn footprint_bytes(&self) -> usize {
        self.data.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sledge_testkit::{cases, Rng};

    #[test]
    fn software_bounds_trap_past_limit() {
        let m = LinearMemory::new(1, 4).unwrap();
        assert!(m.load::<4>(65532, 0).is_ok());
        assert_eq!(m.load::<4>(65533, 0), Err(Trap::OutOfBounds));
        assert_eq!(m.load::<1>(0, u32::MAX), Err(Trap::OutOfBounds));
    }

    /// An address drawn near the interesting edges: zero, the committed
    /// size, and the top of the 32-bit space.
    fn edge_u32(rng: &mut Rng, size: usize) -> u32 {
        let base = *rng.pick(&[0, size as u32, u32::MAX]);
        base.wrapping_add(rng.range(0, 16) as u32).wrapping_sub(8)
    }

    #[test]
    fn accesses_succeed_iff_in_bounds_and_match_a_vec_model() {
        cases(256, 0x6d65_6d6f_7279, |rng| {
            let mut m = LinearMemory::new(1, 2).unwrap();
            if rng.flip() {
                assert_eq!(m.grow(1), 1);
            }
            let mut model = vec![0u8; m.size_bytes()];
            for _ in 0..64 {
                let (addr, offset) = if rng.flip() {
                    (edge_u32(rng, model.len()), edge_u32(rng, 0))
                } else {
                    (rng.next_u64() as u32, rng.next_u64() as u32)
                };
                let ea = addr as u64 + offset as u64;
                let width = *rng.pick(&[1u64, 2, 4, 8]);
                let fits = ea + width <= m.size_bytes() as u64;
                let at = ea as usize..(ea + width) as usize;
                let got = match width {
                    1 => m.load::<1>(addr, offset).map(|b| b.to_vec()),
                    2 => m.load::<2>(addr, offset).map(|b| b.to_vec()),
                    4 => m.load::<4>(addr, offset).map(|b| b.to_vec()),
                    _ => m.load::<8>(addr, offset).map(|b| b.to_vec()),
                };
                match got {
                    Ok(bytes) => {
                        assert!(fits, "load at {ea}+{width} must trap");
                        assert_eq!(bytes, model[at.clone()]);
                    }
                    Err(t) => {
                        assert!(!fits, "load at {ea}+{width} must not trap");
                        assert_eq!(t, Trap::OutOfBounds);
                    }
                }
                let v = rng.next_u64().to_le_bytes();
                let stored = match width {
                    1 => m.store::<1>(addr, offset, [v[0]]),
                    2 => m.store::<2>(addr, offset, [v[0], v[1]]),
                    4 => m.store::<4>(addr, offset, [v[0], v[1], v[2], v[3]]),
                    _ => m.store::<8>(addr, offset, v),
                };
                assert_eq!(stored.is_ok(), fits, "store at {ea}+{width}");
                if fits {
                    model[at].copy_from_slice(&v[..width as usize]);
                }
            }
            assert_eq!(m.read_bytes(0, model.len() as u32).unwrap(), &model[..]);
        });
        // The largest effective address there is: no wrap into bounds.
        let m = LinearMemory::new(1, 1).unwrap();
        assert_eq!(m.load::<8>(u32::MAX, u32::MAX), Err(Trap::OutOfBounds));
    }

    #[test]
    fn grow_respects_max() {
        let mut m = LinearMemory::new(1, 3).unwrap();
        assert_eq!(m.grow(1), 1);
        assert_eq!(m.pages(), 2);
        assert_eq!(m.grow(2), -1);
        assert_eq!(m.grow(1), 2);
        assert_eq!(m.grow(1), -1);
        assert_eq!(m.size_bytes(), 3 * PAGE_SIZE);
    }

    #[test]
    fn grow_preserves_contents_and_mask() {
        let mut m = LinearMemory::new(1, 64).unwrap();
        m.write_bytes(100, &[1, 2, 3]).unwrap();
        assert_eq!(m.grow(31), 1);
        assert_eq!(m.read_bytes(100, 3).unwrap(), &[1, 2, 3]);
        // New region readable and zeroed.
        assert_eq!(m.read_bytes(31 * PAGE_SIZE as u32, 4).unwrap(), &[0; 4]);
    }

    #[test]
    fn host_read_write_checked() {
        let mut m = LinearMemory::new(1, 1).unwrap();
        m.write_bytes(0, b"hello").unwrap();
        assert_eq!(m.read_bytes(0, 5).unwrap(), b"hello");
        assert!(m.write_bytes(65533, b"oops").is_err());
        assert!(m.read_bytes(65536, 1).is_err());
    }

    #[test]
    fn min_exceeding_max_is_rejected() {
        let err = LinearMemory::new(4, 2).unwrap_err();
        assert_eq!(
            err,
            MemoryError::MinExceedsMax {
                min_pages: 4,
                max_pages: 2
            }
        );
        assert!(err.to_string().contains("min_pages"));
    }

    #[test]
    fn template_replays_segments_in_order() {
        let t = MemoryTemplate::build(&[
            (4, Arc::from(&b"abcd"[..])),
            (6, Arc::from(&b"XY"[..])),
            (0, Arc::from(&b"hi"[..])),
        ]);
        assert_eq!(t.image().len(), 8);
        assert_eq!(t.image(), b"hi\0\0abXY");
        assert!(MemoryTemplate::default().is_empty());
    }

    #[test]
    fn stores_raise_high_water_mark() {
        let mut m = LinearMemory::new(1, 4).unwrap();
        assert_eq!(m.high_water_mark(), 0);
        m.store::<4>(100, 0, [1; 4]).unwrap();
        assert_eq!(m.high_water_mark(), 104);
        m.store::<2>(10, 0, [2; 2]).unwrap();
        assert_eq!(m.high_water_mark(), 104);
        m.write_bytes(200, &[3; 8]).unwrap();
        assert_eq!(m.high_water_mark(), 208);
    }

    #[test]
    fn trapped_store_writes_nothing_and_keeps_high_water_mark() {
        let mut m = LinearMemory::new(1, 4).unwrap();
        m.store::<4>(100, 0, [1; 4]).unwrap();
        let before = m.read_bytes(0, PAGE_SIZE as u32).unwrap().to_vec();
        // Straddling the end, just past it, and a 33-bit effective address.
        for (addr, offset) in [(65532, 1), (65536, 0), (u32::MAX, 7)] {
            assert_eq!(m.store::<8>(addr, offset, [9; 8]), Err(Trap::OutOfBounds));
            assert_eq!(m.high_water_mark(), 104);
        }
        assert_eq!(m.read_bytes(0, PAGE_SIZE as u32).unwrap(), &before[..]);
    }

    #[test]
    fn reset_restores_template_and_zeroes_dirt() {
        let t = MemoryTemplate::build(&[(0, Arc::from(&b"seed"[..]))]);
        let mut m = LinearMemory::new(1, 8).unwrap();
        m.write_bytes(0, t.image()).unwrap();
        // Dirty both inside and beyond the template span.
        m.write_bytes(1, b"XXX").unwrap();
        m.write_bytes(5000, &[7; 16]).unwrap();
        m.reset_from(t.image());
        assert_eq!(m.read_bytes(0, 4).unwrap(), b"seed");
        assert_eq!(m.read_bytes(5000, 16).unwrap(), &[0; 16]);
        assert_eq!(m.high_water_mark(), t.image().len());
    }

    #[test]
    fn reset_shrinks_grown_memory_back_to_min() {
        let mut m = LinearMemory::new(1, 64).unwrap();
        assert_eq!(m.grow(31), 1);
        let high = 20 * PAGE_SIZE as u32;
        m.store::<4>(high, 0, [5; 4]).unwrap();
        m.store::<4>(8, 0, [6; 4]).unwrap();
        m.reset_from(&[]);
        assert_eq!(m.pages(), 1);
        assert_eq!(m.size_bytes(), PAGE_SIZE);
        assert_eq!(m.high_water_mark(), 0);
        // The formerly grown region traps again, for the guest and the host.
        assert_eq!(m.load::<4>(high, 0), Err(Trap::OutOfBounds));
        assert!(m.read_bytes(high, 4).is_err());
        assert_eq!(m.read_bytes(8, 4).unwrap(), &[0; 4]);
        // Growing again exposes zeroes, never the previous invocation's bytes.
        assert_eq!(m.grow(31), 1);
        assert_eq!(m.load::<4>(high, 0), Ok([0; 4]));
    }

    #[test]
    fn elided_reset_guards() {
        let t = MemoryTemplate::build(&[(0, Arc::from(&b"seed"[..]))]);
        let mut m = LinearMemory::new(1, 8).unwrap();
        m.write_bytes(0, t.image()).unwrap();
        m.clear_host_write_mark();
        // Pristine: elision allowed.
        assert!(m.reset_elided(t.image()));
        // A host write poisons elision until a real reset clears the mark.
        m.write_bytes(100, &[1; 4]).unwrap();
        assert!(!m.reset_elided(t.image()));
        m.reset_from(t.image());
        assert!(m.reset_elided(t.image()));
        // Growth poisons elision.
        assert_eq!(m.grow(1), 1);
        assert!(!m.reset_elided(t.image()));
        m.reset_from(t.image());
        assert!(m.reset_elided(t.image()));
        // A guest store past the template span raises hwm and poisons it.
        m.store::<4>(500, 0, [9; 4]).unwrap();
        assert!(!m.reset_elided(t.image()));
    }

    #[test]
    fn span_reset_skips_proven_zero_gap_and_restores() {
        let t = MemoryTemplate::build(&[(0, Arc::from(&b"seed"[..]))]);
        let mut m = LinearMemory::new(1, 8).unwrap();
        m.write_bytes(0, t.image()).unwrap();
        m.clear_host_write_mark();
        // Certified footprint [0x100, …): dirty only inside it.
        m.store::<8>(0x100, 0, [7; 8]).unwrap();
        m.store::<4>(0x200, 0, [8; 4]).unwrap();
        assert!(m.reset_from_span(t.image(), 0x100));
        assert_eq!(m.read_bytes(0, 4).unwrap(), b"seed");
        assert_eq!(m.read_bytes(0x100, 8).unwrap(), &[0; 8]);
        assert_eq!(m.read_bytes(0x200, 4).unwrap(), &[0; 4]);
        assert_eq!(m.high_water_mark(), t.image().len());
    }

    #[test]
    fn span_reset_guards_against_host_writes_and_growth() {
        let t = MemoryTemplate::build(&[(0, Arc::from(&b"seed"[..]))]);
        let mut m = LinearMemory::new(1, 8).unwrap();
        m.write_bytes(0, t.image()).unwrap();
        m.clear_host_write_mark();
        // Host write below the certified span: refuse the partial reset.
        m.write_bytes(0x80, &[1; 4]).unwrap();
        assert!(!m.reset_from_span(t.image(), 0x100));
        // The refusal must not have touched anything.
        assert_eq!(m.read_bytes(0x80, 4).unwrap(), &[1; 4]);
        m.reset_from(t.image());
        // Host write at/above the span is fine.
        m.write_bytes(0x100, &[2; 4]).unwrap();
        assert!(m.reset_from_span(t.image(), 0x100));
        assert_eq!(m.read_bytes(0x100, 4).unwrap(), &[0; 4]);
        // Growth: refuse.
        assert_eq!(m.grow(1), 1);
        assert!(!m.reset_from_span(t.image(), 0x100));
    }

    #[test]
    fn load_store_roundtrip() {
        let mut m = LinearMemory::new(1, 1).unwrap();
        m.store::<8>(16, 0, 0xDEAD_BEEF_CAFE_F00Du64.to_le_bytes())
            .unwrap();
        let got = m.load::<8>(8, 8).unwrap();
        assert_eq!(u64::from_le_bytes(got), 0xDEAD_BEEF_CAFE_F00D);
    }
}
