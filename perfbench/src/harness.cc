#include "harness.hh"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/json.hh"
#include "common/rng.hh"
#include "cta/theorem.hh"
#include "dram/hammer.hh"
#include "sim/scenario.hh"
#include "sim/scenarios.hh"

namespace perfbench {

double
secondsBetween(Clock::time_point start, Clock::time_point end)
{
    return std::chrono::duration<double>(end - start).count();
}

double
secondsSince(Clock::time_point start)
{
    return secondsBetween(start, Clock::now());
}

Clock::time_point
plusSeconds(Clock::time_point start, double seconds)
{
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
}

double
threadCpuSeconds()
{
    timespec now = {};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) +
           static_cast<double>(now.tv_nsec) * 1e-9;
}

std::uint64_t
inputSeed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index)
{
    return ctamem::deriveSeed(ctamem::deriveSeed(seed, stream), index);
}

std::uint64_t
replicaSeed(std::uint64_t seed, std::uint64_t replica)
{
    return replica == 0 ? ctamem::seeds::kMachine
                        : inputSeed(seed, streams::kCampaign, replica);
}

std::size_t
samplesBeyond(std::size_t n, double pct)
{
    const auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
    return n - std::min(rank, n);
}

double
percentile(std::vector<double> values, double pct)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t beyond = samplesBeyond(values.size(), pct);
    const std::size_t rank = values.size() - beyond;
    return values[rank == 0 ? 0 : rank - 1];
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

void
Digest::add(std::string_view bytes)
{
    for (const char c : bytes) {
        hash_ ^= static_cast<unsigned char>(c);
        hash_ *= 0x100000001b3ULL;
    }
    // Length-delimit so ("ab","c") and ("a","bc") differ.
    add(static_cast<std::uint64_t>(bytes.size()));
}

void
Digest::add(std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        hash_ ^= (value >> (8 * i)) & 0xff;
        hash_ *= 0x100000001b3ULL;
    }
}

std::string
Digest::hex() const
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << hash_;
    return os.str();
}

std::string
deterministicFields(const ctamem::sim::CellResult &cell)
{
    ctamem::sim::CellResult copy = cell;
    copy.wallSeconds = 0.0;
    return ctamem::sim::toJson(copy).dump();
}

std::map<std::string, GoldenCell>
loadGolden(const std::string &path)
{
    std::map<std::string, GoldenCell> cells;
    const ctamem::json::Json doc = ctamem::json::Json::parseFile(path);
    for (const ctamem::json::Json::Member &member : doc.members()) {
        if (!member.value.isObject())
            continue; // "_note" and friends
        GoldenCell cell;
        cell.outcome = member.value.at("unit").asString();
        cell.flips = static_cast<std::uint64_t>(
            member.value.at("value").asDouble());
        cell.passes = member.value.at("iterations").asU64();
        cells.emplace(member.key, cell);
    }
    return cells;
}

std::string
goldenKey(const ctamem::sim::CampaignCell &cell)
{
    return std::string(ctamem::sim::attackToken(cell.attack)) + "__" +
           ctamem::defense::defenseToken(cell.config.defense);
}

std::string
goldenMismatch(const ctamem::sim::CellResult &cell,
               const std::map<std::string, GoldenCell> &golden)
{
    std::string text = ctamem::attack::outcomeName(cell.result.outcome);
    if (cell.anvilTriggered)
        text += "*";
    const std::string key = goldenKey(cell.cell);
    auto it = golden.find(key);
    if (it != golden.end() && it->second.outcome == text &&
        it->second.flips == cell.result.flipsInduced &&
        it->second.passes == cell.result.hammerPasses)
        return {};
    return key + " is " + text + " / " +
           std::to_string(cell.result.flipsInduced) + " flips / " +
           std::to_string(cell.result.hammerPasses) +
           " passes, not as in BENCH_table1.json";
}

std::string
theoremGap(ctamem::sim::Machine &machine,
           ctamem::attack::Outcome outcome,
           const std::vector<ctamem::dram::FlipEvent> &flips)
{
    ctamem::kernel::Kernel &kernel = machine.kernel();
    const ctamem::cta::TheoremAudit audit = kernel.auditTheorem();
    if (!audit.tablesAboveLwm || !audit.tablesInTrueCells)
        return "a page table outside the true-cell zone";
    const ctamem::paging::Arch &arch = kernel.arch();
    bool open = false;
    for (const ctamem::dram::FlipEvent &flip : flips) {
        const ctamem::Pfn pfn = ctamem::addrToPfn(flip.addr);
        if (!kernel.isPageTableFrame(pfn))
            continue;
        const unsigned bit = (flip.addr % 8) * 8 + flip.bit;
        const bool pointer = (arch.pointerFieldMask() >> bit) & 1;
        if (kernel.tableLevel(pfn) > 1)
            open |= pointer || bit == arch.blockBit;
        else
            open |= pointer &&
                    flip.dir == ctamem::dram::FlipDirection::ZeroToOne;
    }
    if (open)
        return "";
    if (!audit.pointersBelowLwm)
        return "a leaf PTE points at or above the low water mark";
    if (outcome == ctamem::attack::Outcome::Escalated ||
        outcome == ctamem::attack::Outcome::SelfReference) {
        return std::string(ctamem::attack::outcomeName(outcome)) +
               " with only '1'->'0' flips in leaf tables";
    }
    return "";
}

RequestStream::RequestStream(std::uint64_t seed)
    : seed_(seed), rng_(inputSeed(seed, streams::kSvc, 0))
{}

std::size_t
RequestStream::next()
{
    if (requests_++ % kNewCellEvery != 0) {
        const std::size_t pool = std::min(cells_.size(), kRepeatWindow);
        return cells_.size() - 1 - rng_.below(pool);
    }

    if (nextInSeed_ == grid_.size()) {
        // Every cell of the current machine seed is out: add a seed
        // and walk its grid in a fresh seeded order.
        const std::uint64_t k = machineSeeds_++;
        std::vector<ctamem::sim::MachineConfig> configs =
            ctamem::sim::scenarios::table1Configs();
        for (ctamem::sim::MachineConfig &config : configs)
            config.seed = k == 0 ? ctamem::seeds::kMachine
                                 : inputSeed(seed_, streams::kSvc, k);
        ctamem::sim::Campaign campaign;
        campaign.addGrid(configs, ctamem::sim::scenarios::table1Attacks());
        grid_ = campaign.cells();
        order_.resize(grid_.size());
        for (std::size_t i = 0; i < order_.size(); ++i)
            order_[i] = i;
        for (std::size_t i = order_.size(); i > 1; --i)
            std::swap(order_[i - 1], order_[rng_.below(i)]);
        nextInSeed_ = 0;
    }
    cells_.push_back(grid_[order_[nextInSeed_++]]);
    return cells_.size() - 1;
}

void
emptyProfileCache()
{
    const std::size_t capacity = ctamem::dram::profileCacheStats().capacity;
    ctamem::dram::profileCacheSetCapacity(1);
    ctamem::dram::profileCacheSetCapacity(capacity);
}

std::uint32_t
threadIndex()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t index = next.fetch_add(1);
    return index;
}

Tracer::Tracer() : origin_(Clock::now()) {}

void
Tracer::record(const std::string &name, const char *layer,
               Clock::time_point start, Clock::time_point end)
{
    const double seconds = secondsBetween(start, end);
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(Event{name, layer, threadIndex(),
                            secondsBetween(origin_, start) * 1e6,
                            seconds * 1e6, 0});
    samples_[name].push_back(seconds);
}

void
Tracer::recordAggregate(const std::string &name, const char *layer,
                        Clock::time_point start, Clock::time_point end,
                        std::uint64_t calls)
{
    const double seconds = secondsBetween(start, end);
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(Event{name, layer, threadIndex(),
                            secondsBetween(origin_, start) * 1e6,
                            seconds * 1e6, calls});
    samples_[name].push_back(seconds /
                             static_cast<double>(std::max<std::uint64_t>(
                                 calls, 1)));
}

std::vector<double>
Tracer::samples(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = samples_.find(name);
    return it == samples_.end() ? std::vector<double>{} : it->second;
}

bool
Tracer::has(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = samples_.find(name);
    return it != samples_.end() && !it->second.empty();
}

std::size_t
Tracer::eventCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

namespace {

/** JSON string literal of @p text. */
std::string
quote(std::string_view text)
{
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

} // namespace

std::string
Tracer::chromeTrace() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream os;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const Event &event : events_) {
        os << (first ? "\n" : ",\n") << "{\"name\":" << quote(event.name)
           << ",\"cat\":" << quote(event.layer)
           << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << event.tid
           << ",\"ts\":" << formatNumber(event.startUs)
           << ",\"dur\":" << formatNumber(event.durUs);
        if (event.calls)
            os << ",\"args\":{\"calls\":" << event.calls << "}";
        os << "}";
        first = false;
    }
    os << "\n]}\n";
    return os.str();
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path);
    out << chromeTrace();
    return static_cast<bool>(out);
}

void
MetricSet::set(const std::string &name, double value,
               const std::string &unit)
{
    for (Entry &entry : entries_) {
        if (entry.name == name) {
            entry.value = value;
            entry.unit = unit;
            return;
        }
    }
    entries_.push_back(Entry{name, value, unit});
}

bool
MetricSet::has(const std::string &name) const
{
    return std::any_of(entries_.begin(), entries_.end(),
                       [&](const Entry &e) { return e.name == name; });
}

double
MetricSet::value(const std::string &name) const
{
    for (const Entry &entry : entries_)
        if (entry.name == name)
            return entry.value;
    return 0.0;
}

std::string
formatNumber(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buf[64];
    const auto result = std::to_chars(buf, buf + sizeof buf, value);
    return std::string(buf, result.ptr);
}

std::string
MetricSet::toJson() const
{
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (const Entry &entry : entries_) {
        os << (first ? "" : ", ") << quote(entry.name)
           << ": {\"value\": " << formatNumber(entry.value)
           << ", \"unit\": " << quote(entry.unit) << "}";
        first = false;
    }
    os << "}";
    return os.str();
}

std::string
MetricSet::table() const
{
    std::ostringstream os;
    for (const Entry &entry : entries_) {
        os << "  " << std::left << std::setw(34) << entry.name
           << std::right << std::setw(16) << formatNumber(entry.value)
           << "  " << entry.unit << '\n';
    }
    return os.str();
}

std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const MetricSet &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": " << metrics.toJson() << "}";
    return os.str();
}

namespace {

std::string
procFile(int pid, const char *name)
{
    const std::string dir =
        pid ? "/proc/" + std::to_string(pid) : std::string("/proc/self");
    return dir + "/" + name;
}

} // namespace

void
resetPeakRss(int pid)
{
    std::ofstream(procFile(pid, "clear_refs")) << "5";
}

double
peakRssMb(int pid)
{
    std::ifstream status(procFile(pid, "status"));
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // KiB -> MiB
    }
    return 0.0;
}

} // namespace perfbench
