/**
 * @file
 * The campaign service: a long-running server loop that accepts
 * scenario manifests over the framed pipe protocol (svc/wire.hh),
 * expands them into campaign cells, and executes the cells across a
 * ThreadPool — streaming each cell's result back as it finishes and
 * a manifest-ordered CampaignReport when the whole submission is
 * done.
 *
 * Two mechanisms make the service cheaper than one-shot runs:
 *
 *  - results are memoized in a two-tier content-addressed cache
 *    (svc/cache.hh): resubmitting a manifest — the common loop while
 *    editing one — replays stored rows verbatim, and the replayed
 *    report is bit-identical to the cold run's;
 *  - backpressure: a submission whose cells would push the in-flight
 *    count past the queue capacity is rejected up front with a
 *    "queue-full" frame instead of being buffered unboundedly.
 *
 * A cache miss is a plain sim::runCell: the machine boots cold from
 * the cell's config, since a boot is a pure function of the config
 * and costs less than restoring a snapshot would.
 */

#ifndef CTAMEM_SVC_SERVER_HH
#define CTAMEM_SVC_SERVER_HH

#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>

#include "runtime/thread_pool.hh"
#include "svc/cache.hh"

namespace ctamem::svc {

/** Construction parameters of a CampaignService. */
struct ServiceConfig
{
    /** Worker threads; 0 = runtime::defaultWorkerCount(). */
    unsigned workers = 0;
    /** Max cells in flight; submissions beyond it are rejected. */
    std::size_t queueCapacity = 64;
    /** In-memory result-cache entries. */
    std::size_t memCacheEntries = 1024;
    /** Disk cache directory; empty disables the disk tier. */
    std::string cacheDir = ".ctamem-cache";
};

/** Service-level counters (cache counters live in CacheStats). */
struct ServiceCounters
{
    std::uint64_t jobsAccepted = 0;
    std::uint64_t jobsRejected = 0;
    std::uint64_t cellsExecuted = 0; //!< ran a machine
    std::uint64_t cellsCached = 0;   //!< served from the result cache
};

/** The campaign server.  One instance serves one session at a time. */
class CampaignService
{
  public:
    explicit CampaignService(const ServiceConfig &config = {});
    ~CampaignService();

    CampaignService(const CampaignService &) = delete;
    CampaignService &operator=(const CampaignService &) = delete;

    /**
     * Serve framed requests from @p in until end-of-stream or a
     * shutdown request, writing responses to @p out.  Returns after
     * every in-flight cell has drained.
     */
    void serve(std::istream &in, std::ostream &out);

    /** Outcome of one cell dispatch. */
    struct CellOutcome
    {
        sim::CellResult result;
        bool cached = false;
    };

    /**
     * Run one cell through the cache and sim::runCell — the unit of
     * work serve() dispatches per cell, exposed for benches and
     * tests.
     */
    CellOutcome runCellCached(const sim::CampaignCell &cell);

    ResultCache &cache() { return cache_; }
    ServiceCounters counters() const;
    const ServiceConfig &config() const { return config_; }

    /** The "stats" response body. */
    json::Json statsJson();

  private:
    /** Shared state of one accepted submission. */
    struct Job;

    void handleSubmit(const json::Json &request, std::ostream &out);

    /** Block until no cells are in flight. */
    void waitIdle();

    ServiceConfig config_;
    ResultCache cache_;
    runtime::ThreadPool pool_;

    mutable std::mutex countersMutex_;
    ServiceCounters counters_;

    /** In-flight cell accounting (backpressure + drain). */
    std::mutex pendingMutex_;
    std::condition_variable idle_;
    std::size_t pendingCells_ = 0;

    /** Serializes response frames from workers and the serve loop. */
    std::mutex outMutex_;
};

} // namespace ctamem::svc

#endif // CTAMEM_SVC_SERVER_HH
