/**
 * @file
 * Lightweight statistics collection: named counters and a streaming
 * mean/variance accumulator.  Every subsystem exposes its observable
 * behaviour through these so tests and benches can assert on it.
 */

#ifndef CTAMEM_COMMON_STATS_HH
#define CTAMEM_COMMON_STATS_HH

#include <cmath>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace ctamem {

/** A monotonically increasing event counter. */
class Counter
{
  public:
    void increment(std::uint64_t by = 1) { value_ += by; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Streaming mean/variance accumulator (Welford), mergeable with
 * Chan's parallel-combine rule.  It never forms sum-of-squares, so
 * merging partial chunks is numerically stable;
 * the parallel Monte-Carlo runner folds per-chunk accumulators in
 * chunk-index order to get bit-identical results at any thread count.
 */
class MomentAccumulator
{
  public:
    void
    record(double x)
    {
        ++count_;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(count_);
        m2_ += delta * (x - mean_);
    }

    /** Fold another accumulator into this one (Chan et al.). */
    void
    merge(const MomentAccumulator &other)
    {
        if (other.count_ == 0)
            return;
        if (count_ == 0) {
            *this = other;
            return;
        }
        const double na = static_cast<double>(count_);
        const double nb = static_cast<double>(other.count_);
        const double delta = other.mean_ - mean_;
        count_ += other.count_;
        const double total = static_cast<double>(count_);
        mean_ += delta * (nb / total);
        m2_ += other.m2_ + delta * delta * (na * nb / total);
    }

    std::uint64_t count() const { return count_; }
    double mean() const { return mean_; }

    /** Population variance (M2 / n). */
    double
    variance() const
    {
        return count_ ? m2_ / static_cast<double>(count_) : 0.0;
    }

    /** Standard error of the mean. */
    double
    stderrOfMean() const
    {
        return count_ ? std::sqrt(variance() /
                                  static_cast<double>(count_))
                      : 0.0;
    }

  private:
    std::uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
};

/** Handle to one interned counter of a StatGroup. */
using StatId = std::uint32_t;

/**
 * A named bag of counters, for subsystems with many event types.
 *
 * Counters are interned: hot paths register a name once (usually at
 * construction) and bump the returned StatId through at(), a plain
 * vector index — no string hashing or map walk per event.  The
 * string-keyed counter()/value()/dump() views stay available for
 * tests and reports.  References returned by counter()/at() are
 * invalidated by the next registration of a *new* name.
 */
class StatGroup
{
  public:
    /** Intern @p name, creating its counter on first use. */
    StatId
    registerCounter(const std::string &name)
    {
        auto it = index_.find(name);
        if (it != index_.end())
            return it->second;
        const StatId id = static_cast<StatId>(slots_.size());
        slots_.emplace_back();
        index_.emplace(name, id);
        return id;
    }

    /** The counter behind a registered handle (unchecked, hot). */
    Counter &at(StatId id) { return slots_[id]; }
    const Counter &at(StatId id) const { return slots_[id]; }

    std::size_t size() const { return slots_.size(); }

    Counter &
    counter(const std::string &name)
    {
        return slots_[registerCounter(name)];
    }

    std::uint64_t
    value(const std::string &name) const
    {
        auto it = index_.find(name);
        return it == index_.end() ? 0 : slots_[it->second].value();
    }

    void
    dump(std::ostream &os) const
    {
        for (const auto &[name, id] : index_)
            os << name << " = " << slots_[id].value() << '\n';
    }

    void
    reset()
    {
        for (Counter &counter : slots_)
            counter.reset();
    }

  private:
    /** name -> slot; ordered so dump() stays alphabetical. */
    std::map<std::string, StatId> index_;
    std::vector<Counter> slots_;
};

} // namespace ctamem

#endif // CTAMEM_COMMON_STATS_HH
