/**
 * @file
 * Architecture descriptor for radix page tables.
 *
 * Every ISA-specific paging fact lives here in one plain-data
 * descriptor: level count, per-level index extraction, the granule
 * (translation page) size, and the PTE field layout — where the
 * pointer field sits, which bit means present/valid, how
 * writable/user are encoded (x86 R/W vs ARM AP[2], which is
 * active-low), and how a block/large-page leaf is marked (x86 PS is
 * set for blocks; the ARMv8-A type bit is *clear* for blocks).
 *
 * The walker, address-space builder, TLB, kernel mapping paths, the
 * CTA screens and the PTE-crafting attacks all consume the
 * descriptor instead of Intel constants, so the paper's monotonic-
 * pointer argument can be exercised on any backend whose PFN field
 * is the pointer.
 *
 * `kX86_64` follows the Intel SDM 4-level layout (pinned bit for bit
 * by test_arch); the AArch64 descriptors follow the ARMv8-A stage-1
 * translation-table format (DDI 0487, D8) for 4 KiB / 16 KiB /
 * 64 KiB granules.
 */

#ifndef CTAMEM_PAGING_ARCH_HH
#define CTAMEM_PAGING_ARCH_HH

#include <cstdint>
#include <string>

#include "common/bitops.hh"
#include "common/types.hh"
#include "paging/pte.hh"

namespace ctamem::paging {

/** Instruction-set families with a paging backend. */
enum class Isa : std::uint8_t { X86_64, AArch64 };

/**
 * One paging architecture, fully described.  Plain aggregate — no
 * virtual dispatch — so descriptor methods inline into the walk hot
 * path exactly like the old free functions did.
 */
struct Arch
{
    Isa isa = Isa::X86_64;
    const char *name = "x86_64"; //!< registry/manifest token

    unsigned levels = 4;       //!< radix depth (root level == levels)
    unsigned granuleShift = 12; //!< log2(translation granule bytes)
    unsigned indexBits = 9;     //!< VA index bits consumed per level
    unsigned maxLeafLevel = 3;  //!< highest level a block leaf may use

    /** @name Descriptor bit layout */
    /** @{ */
    unsigned presentBit = 0;  //!< x86 P / ARM valid
    unsigned writableBit = 1; //!< x86 R/W / ARM AP[2]
    /** Set bit means *read-only* (ARM AP[2]) instead of writable. */
    bool writableLowActive = false;
    unsigned userBit = 2;     //!< x86 U/S / ARM AP[1] (EL0 access)
    unsigned accessedBit = 5; //!< x86 A / ARM AF
    unsigned dirtyBit = 6;    //!< x86 D / ARM software dirty
    unsigned nxBit = 63;      //!< x86 NX / ARM UXN
    unsigned blockBit = 7;    //!< x86 PS / ARM descriptor type bit
    /** Clear bit means block (ARM type bit) instead of set (x86 PS). */
    bool blockLowActive = false;
    /** Effective permissions AND across levels (x86); ARM table
     *  descriptors carry no permission bits, so leaves decide. */
    bool hierarchicalPerms = true;
    unsigned pointerLo = 12; //!< pointer (output-address) field lo bit
    unsigned pointerHi = 51; //!< pointer field hi bit, inclusive
    /** @} */

    /** @name Granule geometry */
    /** @{ */
    constexpr std::uint64_t granuleBytes() const
    {
        return 1ULL << granuleShift;
    }

    constexpr std::uint64_t granuleMask() const
    {
        return granuleBytes() - 1;
    }

    /** 8-byte descriptors per table page. */
    constexpr std::uint64_t entriesPerTable() const
    {
        return granuleBytes() / sizeof(std::uint64_t);
    }

    /** Buddy order of one table/data granule in 4 KiB frames. */
    constexpr unsigned tableOrder() const
    {
        return granuleShift - pageShift;
    }

    /** 4 KiB frames per granule. */
    constexpr std::uint64_t granuleFrames() const
    {
        return 1ULL << tableOrder();
    }

    /** Table index of @p vaddr at @p level (levels() = root .. 1). */
    constexpr std::uint64_t tableIndex(VAddr vaddr, unsigned level) const
    {
        const unsigned shift =
            granuleShift + indexBits * (level - 1);
        return (vaddr >> shift) & ((1ULL << indexBits) - 1);
    }

    /** Bytes mapped by one entry at @p level. */
    constexpr std::uint64_t levelCoverage(unsigned level) const
    {
        return 1ULL << (granuleShift + indexBits * (level - 1));
    }
    /** @} */

    /** @name Descriptor decoding */
    /** @{ */
    constexpr bool present(std::uint64_t raw) const
    {
        return bit(raw, presentBit);
    }

    constexpr bool writable(std::uint64_t raw) const
    {
        return bit(raw, writableBit) != writableLowActive;
    }

    constexpr bool user(std::uint64_t raw) const
    {
        return bit(raw, userBit);
    }

    constexpr bool noExecute(std::uint64_t raw) const
    {
        return bit(raw, nxBit);
    }

    /**
     * Raw block-marker predicate, no level guard: the x86 "PS bit
     * set" / ARM "type bit clear" test the descent paths apply at
     * every level (descent through a marked entry is blocked even
     * where a block leaf would be architecturally invalid).
     */
    constexpr bool blockMarked(std::uint64_t raw) const
    {
        return bit(raw, blockBit) != blockLowActive;
    }

    /** True iff the entry at @p level is a block (large-page) leaf. */
    constexpr bool blockAt(std::uint64_t raw, unsigned level) const
    {
        return level > 1 && level <= maxLeafLevel && blockMarked(raw);
    }

    /** True iff the entry at @p level terminates the walk. */
    constexpr bool leafAt(std::uint64_t raw, unsigned level) const
    {
        return level == 1 || blockAt(raw, level);
    }

    /**
     * The pointer field as a *4 KiB frame number* — the global Pfn
     * unit, whatever the granule (granule > 4 KiB descriptors hold
     * the frame number's high bits; the low bits are zero because
     * granules occupy naturally aligned frame runs).
     */
    constexpr Pfn pfn(std::uint64_t raw) const
    {
        return bits(raw, pointerHi, pointerLo)
               << (pointerLo - pageShift);
    }

    constexpr std::uint64_t setPfn(std::uint64_t raw, Pfn pfn) const
    {
        return insertBits(raw, pointerHi, pointerLo,
                          pfn >> (pointerLo - pageShift));
    }

    /** Mask of the raw descriptor bits holding the pointer field. */
    constexpr std::uint64_t pointerFieldMask() const
    {
        return insertBits(0, pointerHi, pointerLo, ~0ULL);
    }
    /** @} */

    /** @name Descriptor encoding */
    /** @{ */
    /**
     * A next-level table descriptor.  Table entries carry the most
     * permissive flags (the Linux convention on x86; ARM table
     * descriptors have no permission bits at all).
     */
    constexpr std::uint64_t makeTable(Pfn pfn) const
    {
        std::uint64_t raw = 1ULL << presentBit;
        if (isa == Isa::X86_64) {
            raw |= 1ULL << writableBit;
            raw |= 1ULL << userBit;
        } else {
            // ARM: bits[1:0] = 0b11 marks a table descriptor.
            raw |= 1ULL << blockBit;
        }
        return setPfn(raw, pfn);
    }

    /** A leaf (page or block) descriptor at @p level. */
    constexpr std::uint64_t
    makeLeaf(Pfn pfn, const PageFlags &flags, unsigned level) const
    {
        std::uint64_t raw = 1ULL << presentBit;
        if (flags.writable != writableLowActive)
            raw |= 1ULL << writableBit;
        if (flags.user)
            raw |= 1ULL << userBit;
        if (flags.noExecute)
            raw |= 1ULL << nxBit;
        // x86: PS set on blocks only.  ARM: type bit set on level-1
        // page descriptors, clear on blocks.
        if (blockLowActive ? (level == 1) : (level > 1))
            raw |= 1ULL << blockBit;
        // A valid ARM descriptor needs the access flag or the walk
        // takes an access-flag fault; x86 leaves A for the hardware.
        if (isa == Isa::AArch64)
            raw |= 1ULL << accessedBit;
        return setPfn(raw, pfn);
    }
    /** @} */

    bool operator==(const Arch &other) const
    {
        return isa == other.isa && levels == other.levels &&
               granuleShift == other.granuleShift;
    }
};

/** The x86-64 backend: Intel SDM 4-level paging. */
inline constexpr Arch kX86_64{};

/** ARMv8-A, 4 KiB granule, 4 levels (48-bit VA). */
inline constexpr Arch kAArch64_4K{
    .isa = Isa::AArch64,
    .name = "aarch64/4k",
    .levels = 4,
    .granuleShift = 12,
    .indexBits = 9,
    .maxLeafLevel = 3, // blocks at 2 MiB and 1 GiB
    .presentBit = 0,
    .writableBit = 7, // AP[2]: set = read-only
    .writableLowActive = true,
    .userBit = 6,      // AP[1]: set = EL0 accessible
    .accessedBit = 10, // AF
    .dirtyBit = 55,    // software bit
    .nxBit = 54,       // UXN
    .blockBit = 1,     // type bit: clear = block
    .blockLowActive = true,
    .hierarchicalPerms = false,
    .pointerLo = 12,
    .pointerHi = 47,
};

/** ARMv8-A, 16 KiB granule, 4 levels (47-bit VA). */
inline constexpr Arch kAArch64_16K{
    .isa = Isa::AArch64,
    .name = "aarch64/16k",
    .levels = 4,
    .granuleShift = 14,
    .indexBits = 11,
    .maxLeafLevel = 2, // blocks at 32 MiB only
    .presentBit = 0,
    .writableBit = 7,
    .writableLowActive = true,
    .userBit = 6,
    .accessedBit = 10,
    .dirtyBit = 55,
    .nxBit = 54,
    .blockBit = 1,
    .blockLowActive = true,
    .hierarchicalPerms = false,
    .pointerLo = 14,
    .pointerHi = 47,
};

/** ARMv8-A, 64 KiB granule, 3 levels (42-bit VA). */
inline constexpr Arch kAArch64_64K{
    .isa = Isa::AArch64,
    .name = "aarch64/64k",
    .levels = 3,
    .granuleShift = 16,
    .indexBits = 13,
    .maxLeafLevel = 2, // blocks at 512 MiB only
    .presentBit = 0,
    .writableBit = 7,
    .writableLowActive = true,
    .userBit = 6,
    .accessedBit = 10,
    .dirtyBit = 55,
    .nxBit = 54,
    .blockBit = 1,
    .blockLowActive = true,
    .hierarchicalPerms = false,
    .pointerLo = 16,
    .pointerHi = 47,
};

/** Every built-in descriptor, for --list and the property suites. */
inline constexpr const Arch *kAllArches[] = {
    &kX86_64, &kAArch64_4K, &kAArch64_16K, &kAArch64_64K};

/**
 * The built-in descriptor for (@p isa, @p granule_bytes).  Fatal on
 * combinations no backend provides (x86-64 is 4 KiB only; AArch64
 * supports 4/16/64 KiB granules).
 */
const Arch &resolveArch(Isa isa, std::uint64_t granule_bytes);

/** Manifest token for an ISA ("x86_64" / "aarch64"). */
const char *isaName(Isa isa);

/** Parse an ISA token; nullptr-semantics via the bool. */
bool parseIsa(const std::string &name, Isa &out);

} // namespace ctamem::paging

#endif // CTAMEM_PAGING_ARCH_HH
