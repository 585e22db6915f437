/**
 * @file
 * DRAM cell types and the per-row cell-type map.
 *
 * Modern DRAM shares one sense amplifier between two bitlines
 * (Section 2.1 of the paper); rows on the complementary bitline store
 * inverted charge, giving two cell populations:
 *
 *  - true-cells: charged = '1'; charge leakage induces '1'->'0' only.
 *  - anti-cells: charged = '0'; leakage induces '0'->'1' only.
 *
 * Each physical row is uniformly one type, and types alternate every N
 * rows (N = 512 commonly reported), or in some modules appear with a
 * very large true:anti ratio (Section 2.2).
 */

#ifndef CTAMEM_DRAM_CELL_TYPES_HH
#define CTAMEM_DRAM_CELL_TYPES_HH

#include <cstdint>

namespace ctamem::dram {

/** The two DRAM cell populations. */
enum class CellType : std::uint8_t { True, Anti };

/** Human-readable cell-type name. */
const char *cellTypeName(CellType type);

/** The value a cell of @p type reads as once its charge has leaked. */
constexpr std::uint8_t
dischargedBit(CellType type)
{
    return type == CellType::True ? 0 : 1;
}

/** The value a cell of @p type holds while charged. */
constexpr std::uint8_t
chargedBit(CellType type)
{
    return type == CellType::True ? 1 : 0;
}

/** How cell types are laid out across the rows of a bank. */
enum class CellLayoutKind : std::uint8_t
{
    /** Types alternate every `period` rows (true first). */
    AlternatingTrueFirst,
    /** Types alternate every `period` rows (anti first). */
    AlternatingAntiFirst,
    /**
     * `ratio` true rows followed by one anti row, repeating — models
     * the 1000:1 modules of Section 2.2.
     */
    MostlyTrue,
    /**
     * Every row is a true-cell row.  Pinned to 4: parameterized test
     * names print a layout's raw value.
     */
    AllTrue = 4,
    /** Every row is an anti-cell row. */
    AllAnti,
};

/**
 * Pure function from in-bank row index to cell type, parameterized by
 * the layout kind.  Kept trivially copyable so every subsystem can
 * hold one by value.
 */
class CellTypeMap
{
  public:
    /** Default: alternating every 512 rows, true-cells first. */
    CellTypeMap()
        : kind_(CellLayoutKind::AlternatingTrueFirst), period_(512)
    {}

    CellTypeMap(CellLayoutKind kind, std::uint64_t period)
        : kind_(kind), period_(period ? period : 1)
    {}

    /** Alternating layout with @p period rows per stripe. */
    static CellTypeMap
    alternating(std::uint64_t period, bool true_first = true)
    {
        return CellTypeMap(true_first ?
                               CellLayoutKind::AlternatingTrueFirst :
                               CellLayoutKind::AlternatingAntiFirst,
                           period);
    }

    /** `ratio`:1 true:anti layout. */
    static CellTypeMap
    mostlyTrue(std::uint64_t ratio)
    {
        return CellTypeMap(CellLayoutKind::MostlyTrue, ratio + 1);
    }

    static CellTypeMap
    uniform(CellType type)
    {
        return CellTypeMap(type == CellType::True ?
                               CellLayoutKind::AllTrue :
                               CellLayoutKind::AllAnti,
                           1);
    }

    /** Cell type of in-bank physical row @p row. */
    CellType
    rowType(std::uint64_t row) const
    {
        switch (kind_) {
          case CellLayoutKind::AlternatingTrueFirst:
            return (row / period_) % 2 == 0 ? CellType::True :
                                              CellType::Anti;
          case CellLayoutKind::AlternatingAntiFirst:
            return (row / period_) % 2 == 0 ? CellType::Anti :
                                              CellType::True;
          case CellLayoutKind::MostlyTrue:
            return (row % period_) == period_ - 1 ? CellType::Anti :
                                                    CellType::True;
          case CellLayoutKind::AllTrue:
            return CellType::True;
          case CellLayoutKind::AllAnti:
            return CellType::Anti;
        }
        return CellType::True;
    }

  private:
    CellLayoutKind kind_;
    std::uint64_t period_;
};

} // namespace ctamem::dram

#endif // CTAMEM_DRAM_CELL_TYPES_HH
