#include "svc/snapshot.hh"

#include <string>

#include "common/log.hh"
#include "common/rng.hh"
#include "sim/scenario.hh"

namespace ctamem::svc {

namespace {

/** "CTAMSNAP" read as a little-endian u64. */
constexpr std::uint64_t kMagic = 0x50414e534d415443ULL;

/** Little-endian append-only blob writer. */
class Writer
{
  public:
    void
    u32(std::uint32_t value)
    {
        for (int shift = 0; shift < 32; shift += 8)
            bytes_.push_back((value >> shift) & 0xff);
    }

    void
    u64(std::uint64_t value)
    {
        for (int shift = 0; shift < 64; shift += 8)
            bytes_.push_back((value >> shift) & 0xff);
    }

    void
    str(const std::string &value)
    {
        u32(static_cast<std::uint32_t>(value.size()));
        bytes_.insert(bytes_.end(), value.begin(), value.end());
    }

    std::vector<std::uint8_t>
    finish()
    {
        const std::uint64_t checksum =
            hashBytes(bytes_.data(), bytes_.size());
        u64(checksum);
        return std::move(bytes_);
    }

  private:
    std::vector<std::uint8_t> bytes_;
};

/** Bounds-checked little-endian blob reader. */
class Reader
{
  public:
    Reader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {}

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t value = 0;
        for (int shift = 0; shift < 32; shift += 8)
            value |= std::uint32_t{data_[pos_++]} << shift;
        return value;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t value = 0;
        for (int shift = 0; shift < 64; shift += 8)
            value |= std::uint64_t{data_[pos_++]} << shift;
        return value;
    }

    std::string
    str()
    {
        const std::uint32_t size = u32();
        need(size);
        std::string value(reinterpret_cast<const char *>(data_ + pos_),
                          size);
        pos_ += size;
        return value;
    }

    std::size_t remaining() const { return size_ - pos_; }

  private:
    void
    need(std::size_t count)
    {
        if (size_ - pos_ < count)
            throw SnapshotError("snapshot blob truncated");
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

} // namespace

MachineSnapshot
captureSnapshot(sim::Machine &machine)
{
    kernel::Kernel &kernel = machine.kernel();
    const StatGroup &engine = machine.engine().stats();
    if (kernel.processCount() != 0 || !kernel.pageTableFrames().empty() ||
        engine.value("passes") != 0 ||
        engine.value("timedActivations") != 0 ||
        engine.value("refTicks") != 0) {
        fatal("captureSnapshot: only a freshly booted machine can be "
              "snapshotted (", kernel.processCount(), " processes, ",
              kernel.pageTableFrames().size(), " page-table frames, ",
              engine.value("passes"), " hammer passes, ",
              engine.value("timedActivations"), " timed activations, ",
              engine.value("refTicks"), " REF ticks)");
    }
    return {machine.config()};
}

std::unique_ptr<sim::Machine>
restoreMachine(const MachineSnapshot &snapshot)
{
    return std::make_unique<sim::Machine>(snapshot.config);
}

std::vector<std::uint8_t>
serialize(const MachineSnapshot &snapshot)
{
    Writer writer;
    writer.u64(kMagic);
    writer.u32(kSnapshotVersion);
    writer.str(sim::toJson(snapshot.config).dump());
    return writer.finish();
}

MachineSnapshot
deserialize(const std::uint8_t *data, std::size_t size)
{
    if (size < 8 + 4 + 8)
        throw SnapshotError("snapshot blob truncated");

    // Validate the checksum before interpreting anything else: every
    // corruption mode, not just ones that trip a bounds check, must
    // be rejected.
    std::uint64_t stored = 0;
    for (int i = 0; i < 8; ++i)
        stored |= std::uint64_t{data[size - 8 + i]} << (8 * i);
    if (hashBytes(data, size - 8) != stored)
        throw SnapshotError("snapshot blob checksum mismatch");

    Reader reader(data, size - 8);
    if (reader.u64() != kMagic)
        throw SnapshotError("not a snapshot blob (bad magic)");
    const std::uint32_t version = reader.u32();
    if (version != kSnapshotVersion) {
        throw SnapshotError("snapshot blob version " +
                            std::to_string(version) +
                            " is not supported (this build writes " +
                            std::to_string(kSnapshotVersion) + ")");
    }

    MachineSnapshot snapshot;
    try {
        snapshot.config = sim::machineConfigFromJson(
            json::Json::parse(reader.str()));
    } catch (const json::JsonError &err) {
        throw SnapshotError(std::string("snapshot config: ") +
                            err.what());
    }

    if (reader.remaining() != 0)
        throw SnapshotError("snapshot blob has trailing bytes");
    return snapshot;
}

} // namespace ctamem::svc
