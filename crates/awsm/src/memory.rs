//! Sandbox linear memory with configurable bounds-check strategies (§3.2 of
//! the paper).
//!
//! The backing buffer is always a power-of-two capacity plus an 8-byte red
//! zone, so the mask-based strategies can translate any 32-bit guest address
//! into a host-safe index with a single `and` — the software analogue of the
//! paper's "4 GiB aligned virtual span" trick.

use crate::value::Trap;
use sledge_wasm::PAGE_SIZE;
use std::sync::Arc;

/// How loads and stores are bounds-checked. See DESIGN.md §3/§4 for the
/// mapping onto the paper's configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundsStrategy {
    /// No explicit check (sandbox intentionally broken; overhead studies
    /// only). Accesses are masked so the *host* stays memory-safe, but guest
    /// out-of-bounds accesses silently wrap instead of trapping.
    None,
    /// Explicit compare-and-branch on every access (`…-bounds-chk`).
    Software,
    /// Software check plus emulated Intel MPX bounds-register traffic
    /// (`…-mpx`); reproduces MPX being *slower* than plain software checks.
    MpxEmulated,
    /// Virtual-memory-style elision: single mask, no branch. The default,
    /// corresponding to "Sledge+aWsm". Out-of-bounds accesses beyond the
    /// committed region wrap within the reserved span rather than faulting
    /// (documented substitution).
    #[default]
    GuardRegion,
}

impl BoundsStrategy {
    /// Short human-readable name used in benchmark tables.
    pub fn label(self) -> &'static str {
        match self {
            BoundsStrategy::None => "no-checks",
            BoundsStrategy::Software => "bounds-chk",
            BoundsStrategy::MpxEmulated => "mpx",
            BoundsStrategy::GuardRegion => "vm-guard",
        }
    }
}

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
/// restore source for [`LinearMemory::reset_from`] when a warm sandbox is
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
    pub fn build(data: &[(u32, Arc<[u8]>)]) -> Self {
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

    /// Length of the initialized span in bytes.
    pub fn len(&self) -> usize {
        self.image.len()
    }

    /// Whether the module initializes no memory at all.
    pub fn is_empty(&self) -> bool {
        self.image.is_empty()
    }
}

const RED_ZONE: usize = 8;
/// Number of entries in the emulated MPX bounds-table. Sized like a real
/// MPX bound table (large, cache-unfriendly): the cited MPX analysis
/// attributes most of MPX's overhead to bound-table cache misses, so the
/// emulation must actually generate that cache pressure (512 KiB here).
const MPX_SHADOW: usize = 1 << 16;

/// A sandbox's linear memory.
#[derive(Debug)]
pub struct LinearMemory {
    data: Vec<u8>,
    pages: u32,
    /// Initial page count, the size the memory snaps back to on
    /// [`LinearMemory::reset_from`].
    min_pages: u32,
    max_pages: u32,
    /// Capacity mask (`capacity - 1`); capacity is a power of two.
    mask: usize,
    /// Committed byte limit = `pages * PAGE_SIZE`.
    limit: usize,
    /// High-water mark of dirtied *host* indices: one past the highest byte
    /// any store (guest or host-side) has touched since allocation or the
    /// last reset. Reset only has to re-zero `template_len..hwm` instead of
    /// the whole buffer.
    hwm: usize,
    /// Lowest byte index any *host-side* [`Self::write_bytes`] has touched
    /// since allocation or the last reset (`usize::MAX` when none). Guest
    /// stores are covered by the module's static write-footprint
    /// certificate; host writes (request payloads) are the only writer that
    /// certificate cannot see, so the footprint-based partial resets guard
    /// on this mark. Guest store hot paths never touch it.
    host_lo: usize,
    strategy: BoundsStrategy,
    /// Emulated MPX bounds table (read on every access in MPX mode).
    /// Allocated lazily so non-MPX sandboxes don't pay for it.
    mpx_shadow: Box<[u64]>,
}

fn capacity_for(limit: usize) -> usize {
    limit.next_power_of_two().max(PAGE_SIZE)
}

impl LinearMemory {
    /// Allocate a memory of `min_pages`, growable to `max_pages`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::MinExceedsMax`] when `min_pages > max_pages`.
    pub fn new(
        min_pages: u32,
        max_pages: u32,
        strategy: BoundsStrategy,
    ) -> Result<Self, MemoryError> {
        if min_pages > max_pages {
            return Err(MemoryError::MinExceedsMax {
                min_pages,
                max_pages,
            });
        }
        let limit = min_pages as usize * PAGE_SIZE;
        let cap = capacity_for(limit);
        Ok(LinearMemory {
            data: vec![0u8; cap + RED_ZONE],
            pages: min_pages,
            min_pages,
            max_pages,
            mask: cap - 1,
            limit,
            hwm: 0,
            host_lo: usize::MAX,
            strategy,
            mpx_shadow: if strategy == BoundsStrategy::MpxEmulated {
                vec![u64::MAX; MPX_SHADOW].into_boxed_slice()
            } else {
                Box::default()
            },
        })
    }

    /// Current size in pages.
    pub fn pages(&self) -> u32 {
        self.pages
    }

    /// Committed size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.limit
    }

    /// The configured bounds strategy.
    pub fn strategy(&self) -> BoundsStrategy {
        self.strategy
    }

    /// Grow by `delta` pages. Returns the previous page count, or `-1` if
    /// the maximum would be exceeded.
    pub fn grow(&mut self, delta: u32) -> i32 {
        let new_pages = match self.pages.checked_add(delta) {
            Some(p) if p <= self.max_pages && p <= 65536 => p,
            _ => return -1,
        };
        let old = self.pages;
        self.pages = new_pages;
        self.limit = new_pages as usize * PAGE_SIZE;
        let cap = capacity_for(self.limit);
        if cap + RED_ZONE > self.data.len() {
            self.data.resize(cap + RED_ZONE, 0);
        }
        self.mask = cap - 1;
        old as i32
    }

    /// Resolve a guest effective address (`addr + offset`) for an access of
    /// `len` bytes under bounds policy `B`, yielding a host index whose
    /// `len`-byte access is in-bounds for the backing buffer.
    #[inline(always)]
    pub(crate) fn resolve<B: Bounds>(
        &self,
        addr: u32,
        offset: u32,
        len: u32,
    ) -> Result<usize, Trap> {
        B::resolve(self, addr, offset, len)
    }

    /// Load `N` bytes.
    #[inline(always)]
    pub(crate) fn load<B: Bounds, const N: usize>(
        &self,
        addr: u32,
        offset: u32,
    ) -> Result<[u8; N], Trap> {
        let i = self.resolve::<B>(addr, offset, N as u32)?;
        let mut out = [0u8; N];
        out.copy_from_slice(&self.data[i..i + N]);
        Ok(out)
    }

    /// Store `N` bytes.
    #[inline(always)]
    pub(crate) fn store<B: Bounds, const N: usize>(
        &mut self,
        addr: u32,
        offset: u32,
        bytes: [u8; N],
    ) -> Result<(), Trap> {
        let i = self.resolve::<B>(addr, offset, N as u32)?;
        self.data[i..i + N].copy_from_slice(&bytes);
        // Track the *resolved* host index: mask-based strategies can wrap an
        // out-of-bounds guest address anywhere in the allocation, and those
        // bytes must be re-zeroed on reset too.
        self.hwm = self.hwm.max(i + N);
        Ok(())
    }

    /// Host-side checked read (always software-checked; used by the runtime
    /// to extract responses etc.).
    ///
    /// # Errors
    ///
    /// Returns [`Trap::OutOfBounds`] if the range exceeds committed memory.
    pub fn read_bytes(&self, addr: u32, len: u32) -> Result<&[u8], Trap> {
        let start = addr as usize;
        let end = start
            .checked_add(len as usize)
            .filter(|&e| e <= self.limit)
            .ok_or(Trap::OutOfBounds)?;
        Ok(&self.data[start..end])
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
            .filter(|&e| e <= self.limit)
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

    /// One past the highest host byte index any store has touched since
    /// allocation or the last [`Self::reset_from`].
    pub fn high_water_mark(&self) -> usize {
        self.hwm
    }

    /// Restore this memory to the pristine post-instantiation state described
    /// by `image` (see [`MemoryTemplate`]) without reallocating: zero only the
    /// dirtied span beyond the template, then memcpy the template over the
    /// front. Pages snap back to `min_pages`; a buffer enlarged by
    /// `memory.grow` keeps its larger allocation (the shrunk mask confines
    /// all subsequent accesses, so correctness is unaffected).
    pub(crate) fn reset_from(&mut self, image: &[u8]) {
        let dirty_end = self.hwm.min(self.data.len());
        if dirty_end > image.len() {
            self.data[image.len()..dirty_end].fill(0);
        }
        self.data[..image.len()].copy_from_slice(image);
        self.pages = self.min_pages;
        self.limit = self.min_pages as usize * PAGE_SIZE;
        self.mask = capacity_for(self.limit) - 1;
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
        self.pages == self.min_pages && self.host_lo == usize::MAX && self.hwm <= image.len()
    }

    /// Reset using a static write-footprint certificate: every guest store
    /// this instance could have executed lies in `[lo, ∞)`, so the span
    /// `[template_len, lo)` is provably still zero and needs no re-zeroing.
    /// Only the certified span's tail (`[max(lo, template_len), hwm)`) is
    /// zeroed before the template memcpy. Guards: pages must not have grown
    /// (the certificate's wrap-freedom argument assumes the minimum-size
    /// mask) and no host-side write may have landed below `lo` (host writes
    /// are invisible to the certificate). Returns `false` without touching
    /// memory if a guard fails.
    pub(crate) fn reset_from_span(&mut self, image: &[u8], lo: usize) -> bool {
        if self.pages != self.min_pages || self.host_lo < lo {
            return false;
        }
        let dirty_start = lo.max(image.len());
        let dirty_end = self.hwm.min(self.data.len());
        if dirty_end > dirty_start {
            self.data[dirty_start..dirty_end].fill(0);
        }
        self.data[..image.len()].copy_from_slice(image);
        self.hwm = image.len();
        self.host_lo = usize::MAX;
        true
    }

    /// Approximate resident size of this memory in bytes (for footprint
    /// reporting).
    pub fn footprint_bytes(&self) -> usize {
        self.data.len()
    }
}

/// A bounds-checking policy, monomorphized into the interpreter hot loop.
pub(crate) trait Bounds {
    fn resolve(mem: &LinearMemory, addr: u32, offset: u32, len: u32) -> Result<usize, Trap>;
}

/// Mask-only: used by both `None` and `GuardRegion` strategies.
pub(crate) struct MaskBounds;
impl Bounds for MaskBounds {
    #[inline(always)]
    fn resolve(mem: &LinearMemory, addr: u32, offset: u32, _len: u32) -> Result<usize, Trap> {
        Ok((addr as usize).wrapping_add(offset as usize) & mem.mask)
    }
}

/// Explicit compare-and-branch.
pub(crate) struct SoftwareBounds;
impl Bounds for SoftwareBounds {
    #[inline(always)]
    fn resolve(mem: &LinearMemory, addr: u32, offset: u32, len: u32) -> Result<usize, Trap> {
        let ea = addr as u64 + offset as u64;
        if ea + len as u64 > mem.limit as u64 {
            return Err(Trap::OutOfBounds);
        }
        Ok(ea as usize)
    }
}

/// Software check plus emulated MPX bounds-table traffic (bndldx + bndcl +
/// bndcu): a dependent volatile load from a shadow table and two compares,
/// reproducing the cost structure measured in the MPX analysis the paper
/// cites.
pub(crate) struct MpxBounds;
impl Bounds for MpxBounds {
    #[inline(always)]
    fn resolve(mem: &LinearMemory, addr: u32, offset: u32, len: u32) -> Result<usize, Trap> {
        let ea = addr as u64 + offset as u64;
        // bndldx is a two-level table walk (bound directory → bound table):
        // emulate with two *dependent* loads into a bound-table-sized
        // region. The MPX analysis the paper cites (Oleksenko et al.)
        // attributes the bulk of MPX's overhead to exactly this table's
        // cache pressure.
        debug_assert_eq!(mem.mpx_shadow.len(), MPX_SHADOW);
        let slot1 = (ea.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize & (MPX_SHADOW - 1);
        // SAFETY: slots are masked into the shadow array, which is allocated
        // at full size whenever the MPX strategy is active.
        let dir = unsafe { std::ptr::read_volatile(mem.mpx_shadow.as_ptr().add(slot1)) };
        let slot2 = (dir ^ ea) as usize & (MPX_SHADOW - 1);
        let upper = unsafe { std::ptr::read_volatile(mem.mpx_shadow.as_ptr().add(slot2)) };
        let limit = (mem.limit as u64).min(upper | dir);
        // bndcl + bndcu: lower and upper bound checks.
        if ea + len as u64 > limit {
            return Err(Trap::OutOfBounds);
        }
        Ok(ea as usize)
    }
}

/// Strategy dispatched at access time via a runtime match — used by the
/// naive execution tier, modelling engines that do not specialize their
/// sandboxing code.
pub(crate) struct DynBounds;
impl Bounds for DynBounds {
    #[inline(always)]
    fn resolve(mem: &LinearMemory, addr: u32, offset: u32, len: u32) -> Result<usize, Trap> {
        match mem.strategy {
            BoundsStrategy::None | BoundsStrategy::GuardRegion => {
                MaskBounds::resolve(mem, addr, offset, len)
            }
            BoundsStrategy::Software => SoftwareBounds::resolve(mem, addr, offset, len),
            BoundsStrategy::MpxEmulated => MpxBounds::resolve(mem, addr, offset, len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn software_bounds_trap_past_limit() {
        let m = LinearMemory::new(1, 4, BoundsStrategy::Software).unwrap();
        assert!(m.resolve::<SoftwareBounds>(65532, 0, 4).is_ok());
        assert_eq!(
            m.resolve::<SoftwareBounds>(65533, 0, 4),
            Err(Trap::OutOfBounds)
        );
        assert_eq!(
            m.resolve::<SoftwareBounds>(0, u32::MAX, 1),
            Err(Trap::OutOfBounds)
        );
    }

    #[test]
    fn mask_bounds_stay_in_allocation() {
        let m = LinearMemory::new(1, 4, BoundsStrategy::GuardRegion).unwrap();
        // Far out-of-bounds wraps but never escapes the buffer.
        let i = m.resolve::<MaskBounds>(u32::MAX, u32::MAX, 8).unwrap();
        assert!(i + 8 <= m.data.len());
    }

    #[test]
    fn mpx_checks_like_software() {
        let m = LinearMemory::new(1, 4, BoundsStrategy::MpxEmulated).unwrap();
        assert!(m.resolve::<MpxBounds>(100, 0, 8).is_ok());
        assert_eq!(m.resolve::<MpxBounds>(65536, 0, 1), Err(Trap::OutOfBounds));
    }

    #[test]
    fn grow_respects_max() {
        let mut m = LinearMemory::new(1, 3, BoundsStrategy::Software).unwrap();
        assert_eq!(m.grow(1), 1);
        assert_eq!(m.pages(), 2);
        assert_eq!(m.grow(2), -1);
        assert_eq!(m.grow(1), 2);
        assert_eq!(m.grow(1), -1);
        assert_eq!(m.size_bytes(), 3 * PAGE_SIZE);
    }

    #[test]
    fn grow_preserves_contents_and_mask() {
        let mut m = LinearMemory::new(1, 64, BoundsStrategy::Software).unwrap();
        m.write_bytes(100, &[1, 2, 3]).unwrap();
        assert_eq!(m.grow(31), 1);
        assert_eq!(m.read_bytes(100, 3).unwrap(), &[1, 2, 3]);
        // New region readable and zeroed.
        assert_eq!(m.read_bytes(31 * PAGE_SIZE as u32, 4).unwrap(), &[0; 4]);
    }

    #[test]
    fn host_read_write_checked() {
        let mut m = LinearMemory::new(1, 1, BoundsStrategy::GuardRegion).unwrap();
        m.write_bytes(0, b"hello").unwrap();
        assert_eq!(m.read_bytes(0, 5).unwrap(), b"hello");
        assert!(m.write_bytes(65533, b"oops").is_err());
        assert!(m.read_bytes(65536, 1).is_err());
    }

    #[test]
    fn min_exceeding_max_is_rejected() {
        let err = LinearMemory::new(4, 2, BoundsStrategy::Software).unwrap_err();
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
        assert_eq!(t.len(), 8);
        assert_eq!(t.image(), b"hi\0\0abXY");
        assert!(MemoryTemplate::default().is_empty());
    }

    #[test]
    fn stores_raise_high_water_mark() {
        let mut m = LinearMemory::new(1, 4, BoundsStrategy::Software).unwrap();
        assert_eq!(m.high_water_mark(), 0);
        m.store::<SoftwareBounds, 4>(100, 0, [1; 4]).unwrap();
        assert_eq!(m.high_water_mark(), 104);
        m.store::<SoftwareBounds, 2>(10, 0, [2; 2]).unwrap();
        assert_eq!(m.high_water_mark(), 104);
        m.write_bytes(200, &[3; 8]).unwrap();
        assert_eq!(m.high_water_mark(), 208);
    }

    #[test]
    fn masked_store_hwm_uses_resolved_index() {
        let mut m = LinearMemory::new(1, 4, BoundsStrategy::GuardRegion).unwrap();
        // Out-of-bounds guest address wraps under the mask; the dirty mark
        // must cover where the bytes actually landed.
        m.store::<MaskBounds, 8>(u32::MAX, 7, [9; 8]).unwrap();
        let i = m.resolve::<MaskBounds>(u32::MAX, 7, 8).unwrap();
        assert_eq!(m.high_water_mark(), i + 8);
    }

    #[test]
    fn reset_restores_template_and_zeroes_dirt() {
        let t = MemoryTemplate::build(&[(0, Arc::from(&b"seed"[..]))]);
        let mut m = LinearMemory::new(1, 8, BoundsStrategy::Software).unwrap();
        m.write_bytes(0, t.image()).unwrap();
        // Dirty both inside and beyond the template span.
        m.write_bytes(1, b"XXX").unwrap();
        m.write_bytes(5000, &[7; 16]).unwrap();
        m.reset_from(t.image());
        assert_eq!(m.read_bytes(0, 4).unwrap(), b"seed");
        assert_eq!(m.read_bytes(5000, 16).unwrap(), &[0; 16]);
        assert_eq!(m.high_water_mark(), t.len());
    }

    #[test]
    fn reset_shrinks_grown_memory_back_to_min() {
        let mut m = LinearMemory::new(1, 64, BoundsStrategy::Software).unwrap();
        assert_eq!(m.grow(31), 1);
        m.write_bytes(20 * PAGE_SIZE as u32, &[5; 4]).unwrap();
        let cap_after_grow = m.data.len();
        m.reset_from(&[]);
        assert_eq!(m.pages(), 1);
        assert_eq!(m.size_bytes(), PAGE_SIZE);
        // Allocation is retained, but the committed window shrinks and the
        // dirtied high region is zeroed.
        assert_eq!(m.data.len(), cap_after_grow);
        assert!(m.read_bytes(20 * PAGE_SIZE as u32, 4).is_err());
        assert!(m.data[20 * PAGE_SIZE..20 * PAGE_SIZE + 4]
            .iter()
            .all(|&b| b == 0));
        // Accesses are confined by the shrunk mask again.
        let i = m.resolve::<MaskBounds>(u32::MAX, 0, 1).unwrap();
        assert!(i < capacity_for(PAGE_SIZE) + RED_ZONE);
    }

    #[test]
    fn elided_reset_guards() {
        let t = MemoryTemplate::build(&[(0, Arc::from(&b"seed"[..]))]);
        let mut m = LinearMemory::new(1, 8, BoundsStrategy::Software).unwrap();
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
        m.store::<SoftwareBounds, 4>(500, 0, [9; 4]).unwrap();
        assert!(!m.reset_elided(t.image()));
    }

    #[test]
    fn span_reset_skips_proven_zero_gap_and_restores() {
        let t = MemoryTemplate::build(&[(0, Arc::from(&b"seed"[..]))]);
        let mut m = LinearMemory::new(1, 8, BoundsStrategy::Software).unwrap();
        m.write_bytes(0, t.image()).unwrap();
        m.clear_host_write_mark();
        // Certified footprint [0x100, …): dirty only inside it.
        m.store::<SoftwareBounds, 8>(0x100, 0, [7; 8]).unwrap();
        m.store::<SoftwareBounds, 4>(0x200, 0, [8; 4]).unwrap();
        assert!(m.reset_from_span(t.image(), 0x100));
        assert_eq!(m.read_bytes(0, 4).unwrap(), b"seed");
        assert_eq!(m.read_bytes(0x100, 8).unwrap(), &[0; 8]);
        assert_eq!(m.read_bytes(0x200, 4).unwrap(), &[0; 4]);
        assert_eq!(m.high_water_mark(), t.len());
    }

    #[test]
    fn span_reset_guards_against_host_writes_and_growth() {
        let t = MemoryTemplate::build(&[(0, Arc::from(&b"seed"[..]))]);
        let mut m = LinearMemory::new(1, 8, BoundsStrategy::Software).unwrap();
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
        let mut m = LinearMemory::new(1, 1, BoundsStrategy::Software).unwrap();
        m.store::<SoftwareBounds, 8>(16, 0, 0xDEAD_BEEF_CAFE_F00Du64.to_le_bytes())
            .unwrap();
        let got = m.load::<SoftwareBounds, 8>(8, 8).unwrap();
        assert_eq!(u64::from_le_bytes(got), 0xDEAD_BEEF_CAFE_F00D);
    }
}
