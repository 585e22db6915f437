/**
 * @file
 * The RowHammer disturbance engine.
 *
 * Repeated activation of an aggressor row accelerates charge leakage
 * in its device-adjacent victim rows.  The engine applies the module's
 * stable per-cell fault model: a vulnerable cell flips when (a) the
 * hammer intensity reaches the cell's trip threshold, (b) the cell
 * currently stores the value its flip direction consumes, and (c) no
 * mitigation suppressed the disturbance.
 *
 * The data path is row-granular and bit-parallel: each disturbed row
 * is described by a RowVulnProfile — one record per vulnerable cell
 * holding its bit offset, flip direction and trip hash — and a hammer
 * pass groups the tripped cells into per-64-cell-word masks and
 * applies them with AND/XOR/popcount against the store's
 * readU64()/writeU64() fast path.  Profiles are pure functions of the
 * module seed, so they are cached per (bank, device row) and shared
 * process-wide between engines that simulate identical modules.
 *
 * Mitigations (PARA, ANVIL, refresh boosting, SoftTRR...) observe
 * activations through the DisturbanceObserver interface, implemented
 * in src/defense/ — the DRAM layer stays independent of defense
 * policy.
 *
 * One engine turns activations into flips against a simulated
 * refresh clock (RefTiming).  A burst adds pressure to its
 * aggressor's device neighbours, a REF lets TRR-style mitigations
 * target-refresh rows (DisturbanceObserver::onRef), and a row turns
 * its pressure into flips only when it is refreshed.  Two front ends:
 *
 *  - hammerRow/hammerDoubleSided: one *saturated* refresh window —
 *    each aggressor gets an activationsPerPass burst and the REF
 *    closing its window, then the disturbed rows are evaluated; the
 *    right granularity for uniform attacks, where only counts matter;
 *  - activate/refTick: the caller schedules bursts inside tREFI
 *    intervals, and each row is evaluated in its own refresh slot —
 *    what makes activation *timing and ordering* matter to the
 *    Blacksmith-style pattern fuzzer (src/fuzz/).
 */

#ifndef CTAMEM_DRAM_HAMMER_HH
#define CTAMEM_DRAM_HAMMER_HH

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "dram/module.hh"

namespace ctamem::dram {

/**
 * Geometry of the simulated refresh clock driving activate/refTick.
 * Defaults follow JEDEC shape: a 64 ms retention window split into
 * 8192 tREFI intervals (~7.8 us each), with room for ~160 activations
 * per interval — so a pattern saturating every interval issues ~1.3M
 * activations per window, a saturated window's activationsPerPass.
 */
struct RefTiming
{
    /** REF commands per retention window (64 ms / tREFI). */
    std::uint64_t refsPerWindow = 8192;
    /** Activation budget of one tREFI interval. */
    std::uint64_t actsPerInterval = 160;

    bool operator==(const RefTiming &) const = default;
};

/** One bit flip produced by a hammer pass. */
struct FlipEvent
{
    Addr addr;          //!< logical physical address of the byte
    unsigned bit;       //!< bit index within the byte
    FlipDirection dir;  //!< direction the value moved
};

/**
 * Outcome of one hammer pass.  Individual flips go to the engine's
 * event sink (RowHammerEngine::setEventSink), when one is set.
 */
struct HammerResult
{
    std::uint64_t flips10 = 0; //!< '1'->'0' flips applied
    std::uint64_t flips01 = 0; //!< '0'->'1' flips applied
    bool suppressed = false;   //!< a mitigation voided or refreshed

    std::uint64_t total() const { return flips10 + flips01; }
};

/**
 * One burst of activations on an aggressor row, as seen by a
 * mitigation.  A saturated window's bursts are phase zero of their
 * interval.  Observers learn a burst's tREFI interval by counting
 * their onRef() calls.
 */
struct DisturbanceEvent
{
    std::uint64_t bank = 0;
    std::uint64_t aggressorRow = 0; //!< device row being activated
    std::uint64_t activations = 0;
    std::uint64_t phase = 0; //!< burst position in its interval
};

/** Hook for RowHammer mitigations; one call per aggressor burst. */
class DisturbanceObserver
{
  public:
    virtual ~DisturbanceObserver() = default;

    /**
     * Observe one aggressor burst.
     * @return true when the mitigation neutralized this burst (e.g.
     *         refreshed its victims): the engine drops its pressure.
     */
    virtual bool onHammer(const DisturbanceEvent &event) = 0;

    /**
     * One REF command retired.  TRR-capable mitigations append the
     * device rows they target-refresh with this REF to
     * @p refresh_rows; the engine clears those rows' accumulated
     * disturbance pressure.  Default: no targeted refreshes.
     */
    virtual void onRef(std::vector<std::uint64_t> & /*refresh_rows*/) {}
};

/**
 * Fault profile of one device row: one record per vulnerable cell, in
 * ascending bit-offset order, split into parallel arrays.  A pure
 * function of (module seed, error stats, row base address, cell
 * type), which is what makes process-wide sharing sound.  A device
 * row vacated by re-mapping has no cells.
 */
struct RowVulnProfile
{
    /** cellTrips bits 0..52: the trip hash. */
    static constexpr std::uint64_t kTripHash = (1ULL << 53) - 1;
    /** cellTrips bit 63: the cell flips '1'->'0'. */
    static constexpr std::uint64_t kDir10 = 1ULL << 63;
    /** Largest row whose bit offsets fit cellBits' 32 bits. */
    static constexpr std::uint64_t kMaxRowBytes = 512 * MiB;

    Addr base = 0; //!< logical address of the row's first byte
    CellType type = CellType::True;
    /** Bit offset in the row (byte * 8 + bit) of each cell. */
    std::vector<std::uint32_t> cellBits;
    /**
     * Each cell's FaultModel::tripHash (its trip threshold times
     * 2^53, exact) under kTripHash, its direction under kDir10.
     */
    std::vector<std::uint64_t> cellTrips;

    std::size_t vulnerableCells() const { return cellBits.size(); }

    /**
     * Visit the cells whose trip hash is at most @p limit word by
     * word: @p fn(word, lanes, dir10) gets each 8-byte word of the row
     * holding one of them, in ascending order, with their lanes and
     * the subset of them flipping '1'->'0'.  Lane k is the cell
     * backing bit k of a little-endian u64 load at base + word * 8.
     */
    template <typename Fn>
    void
    forEachWord(std::uint64_t limit, Fn &&fn) const
    {
        std::uint32_t word = 0;
        std::uint64_t lanes = 0;
        std::uint64_t dir10 = 0;
        for (std::size_t i = 0; i < cellBits.size(); ++i) {
            if ((cellTrips[i] & kTripHash) > limit)
                continue;
            const std::uint32_t cell_word = cellBits[i] >> 6;
            if (lanes && cell_word != word) {
                fn(word, lanes, dir10);
                lanes = 0;
                dir10 = 0;
            }
            word = cell_word;
            const std::uint64_t lane = 1ULL << (cellBits[i] & 63);
            lanes |= lane;
            dir10 |= cellTrips[i] & kDir10 ? lane : 0;
        }
        if (lanes)
            fn(word, lanes, dir10);
    }

    /** forEachWord over every vulnerable cell of the row. */
    template <typename Fn>
    void
    forEachWord(Fn &&fn) const
    {
        forEachWord(kTripHash, fn);
    }
};

/** Applies RowHammer disturbance to a DramModule. */
class RowHammerEngine
{
  public:
    /** Effective intensity of a single-sided hammer pass. */
    static constexpr double singleSidedIntensity = 0.2;
    /** Effective intensity of a double-sided hammer pass. */
    static constexpr double doubleSidedIntensity = 1.0;
    /** Activations per pass (one refresh window of tight reads). */
    static constexpr std::uint64_t activationsPerPass = 1'300'000;

    explicit RowHammerEngine(DramModule &module,
                             DisturbanceObserver *observer = nullptr)
        : module_(module), observer_(observer)
    {
        // Sized for a templating sweep over a few hundred rows; the
        // map only rehashes on campaigns far beyond that.
        profiles_.reserve(256);
        passesId_ = stats_.registerCounter("passes");
        suppressedPassesId_ = stats_.registerCounter("suppressedPasses");
        flips10Id_ = stats_.registerCounter("flips10");
        flips01Id_ = stats_.registerCounter("flips01");
        timedActivationsId_ =
            stats_.registerCounter("timedActivations");
        refTicksId_ = stats_.registerCounter("refTicks");
        trrRefreshesId_ = stats_.registerCounter("trrRefreshes");
    }

    /** The module this engine disturbs. */
    DramModule &module() { return module_; }
    const DramModule &module() const { return module_; }

    /** @name Flip-event recording (opt-in)
     *
     * No sink by default: campaign loops only consume flip *counts*.
     * Tools and tests that inspect individual flips set a sink, and
     * the engine appends every flip of every pass to it (the Drammer
     * templating scan and attack_lab use it).
     */
    /** @{ */
    void setEventSink(std::vector<FlipEvent> *sink) { sink_ = sink; }
    std::vector<FlipEvent> *eventSink() const { return sink_; }
    /** @} */

    /**
     * Hammer logical row @p row of @p bank for one saturated refresh
     * window.  Disturbs the device-adjacent rows at single-sided
     * intensity.
     */
    HammerResult hammerRow(std::uint64_t bank, std::uint64_t row);

    /**
     * Double-sided hammer for one saturated refresh window: activate
     * the logical rows directly above and below @p victim_row; the
     * sandwiched victim sees full intensity, the outer neighbours
     * single-sided intensity.  A mitigation that voids one
     * aggressor's burst leaves the other's single-sided disturbance.
     */
    HammerResult hammerDoubleSided(std::uint64_t bank,
                                   std::uint64_t victim_row);

    /** @name REF-interval timed hammering
     *
     * activate() issues one aggressor burst inside the current tREFI
     * interval, refTick() retires one REF command.  Pressure is kept
     * per victim row as (below, above) neighbour activations; device
     * row r is evaluated by the REF whose interval index matches
     * r % refsPerWindow, then starts from full charge again.
     *
     * activationsPerPass paired (double-sided) activations reach
     * doubleSidedIntensity, as many one-sided ones
     * singleSidedIntensity — a saturated window — and anything
     * sparser or interrupted by TRR lands proportionally lower.
     */
    /** @{ */
    void setRefTiming(const RefTiming &timing) { refTiming_ = timing; }
    const RefTiming &refTiming() const { return refTiming_; }

    /**
     * Issue @p activations activations of logical row @p row within
     * the current tREFI interval, as burst number @p phase of that
     * interval.  Announces one DisturbanceEvent; a suppressing
     * observer voids the burst's pressure.
     */
    void activate(std::uint64_t bank, std::uint64_t row,
                  std::uint64_t activations, std::uint64_t phase,
                  HammerResult &result);

    /**
     * Retire one REF command: give the observer its sampling
     * opportunity (onRef), clear the pressure of its target-refreshed
     * rows, then refresh the rows whose slot this interval is —
     * evaluating their accumulated pressure into flips first.
     */
    void refTick(std::uint64_t bank, HammerResult &result);

    /**
     * Evaluate all outstanding pressure in @p bank as if each row's
     * refresh slot arrived now (end of a timed run), in ascending
     * device-row order.
     */
    void drainPressure(std::uint64_t bank, HammerResult &result);

    /** Victim rows currently carrying unevaluated pressure. */
    std::size_t pendingPressureRows() const { return pendingRows_; }
    /** @} */

    /**
     * Fault profile of a device row (lazily built, cached, shared
     * between engines over identical modules).  Stable against row
     * re-mapping: the cached entry revalidates against the current
     * logical base.
     */
    const RowVulnProfile &rowProfile(std::uint64_t bank,
                                     std::uint64_t device_row);

    /** Counters: passes, flips10, flips01, suppressedPasses. */
    StatGroup &stats() { return stats_; }

  private:
    /** Apply disturbance of @p intensity to one device row. */
    void disturbDeviceRow(std::uint64_t bank, std::uint64_t device_row,
                          double intensity, HammerResult &result);

    /**
     * Announce a burst on device row @p aggressor and, unless the
     * observer voids it, add it to the neighbours' pressure.
     * @return false when voided (@p result.suppressed is then set).
     */
    bool burst(std::uint64_t bank, std::uint64_t aggressor,
               std::uint64_t activations, std::uint64_t phase,
               HammerResult &result);

    /**
     * The observer's onRef: clear its target rows' pressure, setting
     * @p result.suppressed when a cleared row carried any.
     */
    void targetedRefresh(std::uint64_t bank, HammerResult &result);

    /**
     * One saturated refresh window over @p aggressors (device rows,
     * ascending and two apart): a burst and a REF per aggressor, then
     * the disturbed rows are evaluated.
     */
    HammerResult
    saturatedWindow(std::uint64_t bank,
                    std::initializer_list<std::uint64_t> aggressors);

    /**
     * Neighbour-activation pressure accumulated on one victim row
     * since its last refresh: activations of the device row below it
     * and of the device row above it, tracked separately so paired
     * (double-sided) pressure can be told from one-sided.
     */
    struct RowPressure
    {
        std::uint64_t below = 0; //!< activations of the row beneath
        std::uint64_t above = 0; //!< activations of the row on top

        bool pending() const { return below != 0 || above != 0; }
    };

    /** Effective disturbance intensity of accumulated pressure. */
    double pressureIntensity(const RowPressure &pressure) const;

    /** @p bank's pressure table; empty before its first activation. */
    std::span<RowPressure>
    bankPressure(std::uint64_t bank)
    {
        if (bank >= pressure_.size())
            return {};
        return pressure_[bank];
    }

    /** Clear one row's pressure unevaluated (a targeted refresh). */
    void clearPressure(RowPressure &pressure);

    /**
     * Convert the pressure of @p device_row (its slot in @p bank's
     * table) into flips and clear it: the one place flips happen.
     */
    void evaluatePressure(std::uint64_t bank, std::uint64_t device_row,
                          RowPressure &pressure, HammerResult &result);

    DramModule &module_;
    DisturbanceObserver *observer_;
    std::unordered_map<std::uint64_t,
                       std::shared_ptr<const RowVulnProfile>>
        profiles_;
    std::vector<std::uint32_t> scanBuffer_; //!< profile-build scratch
    std::vector<FlipEvent> *sink_ = nullptr;

    // Refresh-clock state.
    RefTiming refTiming_;
    std::uint64_t refInterval_ = 0;
    /**
     * Outstanding pressure: one table per bank, indexed by device
     * row, allocated on the bank's first burst.
     */
    std::vector<std::vector<RowPressure>> pressure_;
    std::size_t pendingRows_ = 0; //!< rows with nonzero pressure
    std::vector<std::uint64_t> trrScratch_; //!< onRef refresh targets

    StatGroup stats_;
    StatId passesId_;
    StatId suppressedPassesId_;
    StatId flips10Id_;
    StatId flips01Id_;
    StatId timedActivationsId_;
    StatId refTicksId_;
    StatId trrRefreshesId_;
};

/** @name Process-wide row-profile cache controls
 *
 * Row profiles are shared between engines through one process-wide
 * cache (see hammer.cc).  Long-running multi-config services sweep
 * arbitrarily many distinct modules through one process, so the cache
 * is LRU-bounded: these hooks set the bound and read the counters the
 * service exports.
 */
/** @{ */

/** Counters and occupancy of the shared row-profile cache. */
struct ProfileCacheStats
{
    std::uint64_t hits = 0;      //!< profile served from the cache
    std::uint64_t misses = 0;    //!< profile had to be (re)built
    std::uint64_t evictions = 0; //!< LRU entries dropped at capacity
    std::size_t entries = 0;     //!< profiles currently cached
    std::size_t capacity = 0;    //!< current entry cap
};

ProfileCacheStats profileCacheStats();

/**
 * Cap the shared profile cache at @p max_entries (spread across its
 * shards, at least one per shard) and at 8,192 vulnerable cells per
 * entry of that cap.  Shrinking evicts LRU entries immediately.
 * Engines keep shared_ptr references to profiles they hold, so
 * eviction never invalidates a live profile.
 */
void profileCacheSetCapacity(std::size_t max_entries);

/** @} */

} // namespace ctamem::dram

#endif // CTAMEM_DRAM_HAMMER_HH
