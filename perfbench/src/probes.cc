/**
 * @file
 * Layer probes of the traced run: timed calls into one layer's public
 * functions on inputs derived from the workload seed.  A span metric
 * comes from the workload's own calls when it made them.  Otherwise a
 * probe fills it, but only on the workloads whose time the layer is
 * expected to move; on the others the metric, like a counter of a
 * layer the workload never crosses, reads zero: the bypass evidence.
 */

#include <algorithm>
#include <functional>

#include "common/json.hh"
#include "defense/trr_sampler.hh"
#include "dram/hammer.hh"
#include "fuzz/fuzzer.hh"
#include "sim/scenario.hh"
#include "sim/scenarios.hh"
#include "svc/cache.hh"
#include "svc/snapshot.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using namespace ctamem;

/** Time @p body as one span named @p name. */
template <typename F>
void
timed(Tracer &tracer, const std::string &name, const char *layer, F &&body)
{
    const Clock::time_point start = Clock::now();
    body();
    tracer.record(name, layer, start, Clock::now());
}

/** Time @p calls iterations of @p body as one aggregate span. */
template <typename F>
void
aggregated(Tracer &tracer, const std::string &name, const char *layer,
           std::uint64_t calls, F &&body)
{
    const Clock::time_point start = Clock::now();
    for (std::uint64_t i = 0; i < calls; ++i)
        body(i);
    tracer.recordAggregate(name, layer, start, Clock::now(), calls);
}

/** Keeps a probe loop's result alive past the optimizer. */
volatile std::uint64_t gSink = 0;

std::uint64_t
probeSeed(const Options &options, std::uint64_t index)
{
    return inputSeed(options.seed, streams::kProbe, index);
}

sim::MachineConfig
probeConfig(const Options &options, defense::DefenseKind kind,
            std::uint64_t index)
{
    sim::MachineConfig config;
    config.defense = kind;
    config.seed = probeSeed(options, index);
    return config;
}

/** A process with @p pages touched anonymous pages; returns its base. */
VAddr
populate(kernel::Kernel &kernel, int pid, std::uint64_t pages)
{
    paging::PageFlags prot;
    prot.writable = true;
    prot.user = true;
    const VAddr base = kernel.mmapAnon(pid, pages * 4096, prot);
    for (std::uint64_t p = 0; p < pages; ++p)
        kernel.touchUser(pid, base + p * 4096);
    return base;
}

/** A one-bank module on a seed no workload uses. */
dram::DramConfig
probeModule(const Options &options, std::uint64_t index)
{
    dram::DramConfig config;
    config.capacity = 256 * MiB;
    config.banks = 1;
    config.errors.pf = 1e-3;
    config.seed = probeSeed(options, index) | (1ULL << 63);
    return config;
}

/** Row profiles built cold. */
void
probeProfileBuild(const Options &options, Tracer &tracer)
{
    dram::DramModule module(probeModule(options, 30));
    dram::RowHammerEngine engine(module);
    for (std::uint64_t row = 8; row < 24; ++row)
        timed(tracer, "dram.profile.build", "dram",
              [&] { engine.rowProfile(0, module.deviceRow(0, row)); });
}

/** Double-sided passes on rows whose profiles are already derived. */
void
probeHammerPass(const Options &options, Tracer &tracer)
{
    dram::DramModule module(probeModule(options, 32));
    dram::RowHammerEngine engine(module);
    for (std::uint64_t victim = 10; victim < 20; ++victim) {
        engine.hammerDoubleSided(0, victim); // derive the neighbours
        for (int i = 0; i < 5; ++i)
            timed(tracer, "dram.hammer.pass", "dram",
                  [&] { engine.hammerDoubleSided(0, victim); });
    }
}

/** Raw store words, half reads and half writes. */
void
probeStoreWord(const Options &options, Tracer &tracer)
{
    dram::DramModule module(probeModule(options, 33));
    constexpr std::uint64_t kFrames = 256;
    std::vector<Addr> addrs(4096);
    Rng rng(probeSeed(options, 31));
    for (Addr &addr : addrs)
        addr = rng.below(kFrames) * 4096 + rng.below(512) * 8;
    for (std::uint64_t f = 0; f < kFrames; ++f)
        module.writeU64(f * 4096, f);
    std::uint64_t sink = 0;
    aggregated(tracer, "dram.store.word", "dram", 1 << 21,
               [&](std::uint64_t i) {
                   const Addr addr = addrs[i & 4095];
                   if (i & 1)
                       module.writeU64(addr, sink);
                   else
                       sink += module.readU64(addr);
               });
    gSink = sink;
}

void
probePaging(const Options &options, Tracer &tracer)
{
    sim::Machine machine(
        probeConfig(options, defense::DefenseKind::None, 40));
    kernel::Kernel &kernel = machine.kernel();
    const int pid = kernel.createProcess("probe");
    constexpr std::uint64_t kPages = 1024;
    const VAddr base = populate(kernel, pid, kPages);
    const Pfn root = kernel.process(pid).rootPfn;

    std::vector<VAddr> addrs(4096);
    Rng rng(probeSeed(options, 41));
    for (VAddr &addr : addrs)
        addr = base + rng.below(kPages) * 4096 + rng.below(4096);
    paging::Mmu &mmu = kernel.mmu();
    std::uint64_t sink = 0;
    aggregated(tracer, "paging.walk", "paging", 1 << 18,
               [&](std::uint64_t i) {
                   sink += mmu.walker()
                               .walk(root, addrs[i & 4095],
                                     paging::AccessType::Read,
                                     paging::Privilege::User)
                               .phys;
               });
    aggregated(tracer, "paging.translate", "paging", 1 << 20,
               [&](std::uint64_t i) {
                   sink += mmu.translate(root, addrs[i & 4095],
                                         paging::AccessType::Read,
                                         paging::Privilege::User)
                               .phys;
               });
    gSink = sink;
}

void
probeAlloc(const Options &options, Tracer &tracer)
{
    sim::Machine machine(
        probeConfig(options, defense::DefenseKind::Cta, 50));
    kernel::Kernel &kernel = machine.kernel();
    const int pid = kernel.createProcess("probe");
    aggregated(tracer, "mm.alloc", "mm", 1 << 14, [&](std::uint64_t) {
        if (const std::optional<Pfn> pfn = kernel.pteAllocOne(1, pid))
            kernel.pteFree(*pfn);
    });
}

void
probeFuzz(const Options &options, Tracer &tracer)
{
    const fuzz::FuzzParams params = armsRaceParams(probeSeed(options, 70));
    const fuzz::PatternFuzzer fuzzer(armsRaceTarget(), params);
    const fuzz::PatternBuilder builder(params.builder, params.timing);
    Rng rng(probeSeed(options, 71));
    std::vector<fuzz::HammeringPattern> patterns;
    for (int i = 0; i < 8; ++i)
        patterns.push_back(builder.random(rng));
    for (const fuzz::HammeringPattern &pattern : patterns)
        timed(tracer, "fuzz.eval", "fuzz",
              [&] { fuzzer.evaluate(pattern); });
    std::uint64_t sink = 0;
    aggregated(tracer, "fuzz.build", "fuzz", 3000, [&](std::uint64_t i) {
        const fuzz::HammeringPattern &a = patterns[i % 8];
        const fuzz::HammeringPattern &b = patterns[(i + 3) % 8];
        sink += builder.mutate(builder.crossover(a, b, rng), rng).hash();
        sink += builder.random(rng).hash();
    });
    gSink = sink;
}

/** Table-1 cells over a probe seed, each with a plausible result. */
std::vector<sim::CellResult>
probeResults(const Options &options, std::uint64_t index)
{
    std::vector<sim::MachineConfig> configs =
        sim::scenarios::table1Configs();
    for (sim::MachineConfig &config : configs)
        config.seed = probeSeed(options, index);
    sim::Campaign campaign;
    campaign.addGrid(configs, sim::scenarios::table1Attacks());
    std::vector<sim::CellResult> results;
    Rng rng(probeSeed(options, index + 1));
    for (const sim::CampaignCell &cell : campaign.cells()) {
        sim::CellResult result;
        result.cell = cell;
        result.result.hammerPasses = rng.below(1000);
        result.result.flipsInduced = rng.below(100000);
        result.result.attackTime = rng.below(1ULL << 40);
        result.result.detail = "probe";
        result.wallSeconds = rng.uniform();
        results.push_back(result);
    }
    return results;
}

void
probeCache(const Options &options, Tracer &tracer)
{
    const std::string dir = scratchDir(options, "probe-cache");
    {
        svc::ResultCache cache(1024, dir);
        const std::vector<sim::CellResult> results =
            probeResults(options, 90);
        std::vector<std::string> keys;
        for (const sim::CellResult &result : results)
            keys.push_back(svc::cellCacheKey(result.cell));
        for (std::size_t i = 0; i < results.size(); ++i) {
            const json::Json value = sim::toJson(results[i]);
            timed(tracer, "svc.cache.insert", "svc",
                  [&] { cache.insert(keys[i], value); });
        }
        for (int round = 0; round < 5; ++round)
            for (const std::string &key : keys)
                timed(tracer, "svc.cache.lookup", "svc",
                      [&] { cache.lookup(key); });
    }
    removeTree(dir);
}

void
probeSnapshot(const Options &options, Tracer &tracer)
{
    for (const auto kind :
         {defense::DefenseKind::None, defense::DefenseKind::Cta}) {
        sim::Machine machine(probeConfig(options, kind, 100));
        for (int i = 0; i < 3; ++i) {
            std::vector<std::uint8_t> blob;
            timed(tracer, "svc.snapshot.capture", "svc", [&] {
                blob = svc::serialize(svc::captureSnapshot(machine));
            });
            timed(tracer, "svc.snapshot.restore", "svc", [&] {
                svc::restoreMachine(svc::deserialize(blob));
            });
        }
    }
}

/** One span-derived metric and the probe that may feed it. */
struct SpanMetric
{
    std::string metric;
    std::string span;
    double scale; //!< seconds -> unit
    const char *unit;
    /** Workloads that probe the layer when they did not call it. */
    std::vector<std::string> probedOn = {};
    std::function<void()> probe = {};
};

} // namespace

void
timedWindowProbe(const fuzz::HammeringPattern &pattern, Tracer &tracer,
                 MetricSet &layers)
{
    const fuzz::FuzzTarget target = armsRaceTarget();
    const fuzz::FuzzParams params = armsRaceParams(1);
    dram::DramModule module(target.dram);
    std::uint64_t acts = 0;
    std::uint64_t ticks = 0;
    std::uint64_t refreshes = 0;
    for (int i = 0; i < 5; ++i) {
        defense::TrrSamplerObserver observer(
            1, 2, deriveSeed(seeds::kMachine, seeds::kTrrSamplerStream));
        dram::RowHammerEngine engine(module, &observer);
        engine.setRefTiming(params.timing);
        fuzz::PatternRun run;
        run.bank = target.bank;
        run.baseRow = target.baseRow;
        run.windows = params.windows;
        timed(tracer, "dram.timed.window", "dram",
              [&] { fuzz::runPattern(engine, pattern, run); });
        acts += engine.stats().value("timedActivations");
        ticks += engine.stats().value("refTicks");
        refreshes += engine.stats().value("trrRefreshes");
    }
    layers.set("dram.timed_window_ms",
               median(tracer.samples("dram.timed.window")) * 1e3, "ms");
    layers.set("dram.timed_acts", static_cast<double>(acts), "count");
    layers.set("dram.ref_ticks", static_cast<double>(ticks), "count");
    layers.set("dram.trr_refreshes", static_cast<double>(refreshes),
               "count");
}

void
runLayerProbes(const Options &options, Tracer &tracer, MetricSet &layers)
{
    const std::string campaign = "campaign-cold";
    const std::string svc = "svc-session";
    const std::string fuzz = "fuzz-search";
    const std::string tables = "paper-tables";
    const auto paging = [&] { probePaging(options, tracer); };
    const auto fuzzProbe = [&] { probeFuzz(options, tracer); };
    const auto cache = [&] { probeCache(options, tracer); };
    const auto snapshot = [&] { probeSnapshot(options, tracer); };

    // Spans without a probe come from the workloads' own calls:
    // campaign-cold boots, attacks and audits; svc-session's client;
    // paper-tables' suites and MC specs.
    std::vector<SpanMetric> metrics = {
        {"sim.boot_ms.base", "sim.boot.base", 1e3, "ms"},
        {"sim.boot_ms.cta", "sim.boot.cta", 1e3, "ms"},
        {"dram.profile_build_ms", "dram.profile.build", 1e3, "ms",
         {campaign, svc, fuzz},
         [&] { probeProfileBuild(options, tracer); }},
        {"dram.hammer_pass_us", "dram.hammer.pass", 1e6, "us", {campaign},
         [&] { probeHammerPass(options, tracer); }},
        {"dram.store_word_ns", "dram.store.word", 1e9, "ns",
         {tables, campaign}, [&] { probeStoreWord(options, tracer); }},
        {"paging.walk_ns", "paging.walk", 1e9, "ns", {tables}, paging},
        {"paging.translate_ns", "paging.translate", 1e9, "ns", {tables},
         paging},
        {"kernel.touch_ns.none", "kernel.touch.none", 1e9, "ns"},
        {"kernel.touch_ns.cta", "kernel.touch.cta", 1e9, "ns"},
        {"mm.alloc_ns", "mm.alloc", 1e9, "ns", {tables, campaign},
         [&] { probeAlloc(options, tracer); }},
        {"cta.audit_ms", "cta.audit", 1e3, "ms"},
        {"fuzz.eval_ms", "fuzz.eval", 1e3, "ms", {fuzz}, fuzzProbe},
        {"fuzz.build_us", "fuzz.build", 1e6, "us", {fuzz}, fuzzProbe},
        {"svc.ping_us", "svc.ping", 1e6, "us"},
        {"svc.hit_us", "svc.hit", 1e6, "us"},
        {"svc.miss_ms", "svc.miss", 1e3, "ms"},
        {"svc.client_us", "svc.client", 1e6, "us"},
        {"svc.cache_lookup_us", "svc.cache.lookup", 1e6, "us", {svc},
         cache},
        {"svc.cache_insert_us", "svc.cache.insert", 1e6, "us", {svc},
         cache},
        {"svc.snapshot_restore_ms", "svc.snapshot.restore", 1e3, "ms",
         {svc}, snapshot},
        {"svc.snapshot_capture_ms", "svc.snapshot.capture", 1e3, "ms",
         {svc}, snapshot},
        {"common.json_encode_us", "common.json.encode", 1e6, "us"},
        {"common.json_parse_us", "common.json.parse", 1e6, "us"},
    };
    for (const sim::AttackKind kind : sim::scenarios::table1Attacks()) {
        const std::string token = sim::attackToken(kind);
        metrics.push_back(
            {"attack.run_ms." + token, "attack.run." + token, 1e3, "ms"});
    }

    for (const SpanMetric &m : metrics) {
        const bool probed =
            std::find(m.probedOn.begin(), m.probedOn.end(),
                      options.workload) != m.probedOn.end();
        if (probed && !tracer.has(m.span))
            m.probe();
        // The median of no samples is 0.
        layers.set(m.metric, median(tracer.samples(m.span)) * m.scale,
                   m.unit);
    }
    for (const char *kind : {"batched", "is"}) {
        const double perTrial =
            median(tracer.samples(std::string("model.mc.") + kind));
        layers.set(std::string("model.mc_trials_per_s.") + kind,
                   perTrial > 0 ? 1.0 / perTrial : 0.0, "1/s");
    }

    // Counters of layers the workload never crossed read zero.
    if (!layers.has("dram.hammer_passes"))
        MachineCounters{}.addTo(layers);
    const struct
    {
        const char *name;
        double value;
        const char *unit;
    } untouched[] = {
        {"dram.profile_builds", 0.0, "count"},
        {"dram.profile_hit_rate", 0.0, "ratio"},
        {"dram.timed_window_ms", 0.0, "ms"},
        {"dram.timed_acts", 0.0, "count"},
        {"dram.ref_ticks", 0.0, "count"},
        {"dram.trr_refreshes", 0.0, "count"},
        {"svc.hit_rate", 0.0, "ratio"},
        {"svc.mem_hits", 0.0, "count"},
        {"svc.disk_hits", 0.0, "count"},
        {"svc.dup_exec_frac", 0.0, "ratio"},
        {"svc.snapshot_restores", 0.0, "count"},
        {"svc.snapshot_captures", 0.0, "count"},
        {"fuzz.best_flips", 0.0, "count"},
        {"fuzz.first_bypass_gen", -1.0, "generations"},
        {"model.mc_ess", 0.0, "trials"},
    };
    for (const auto &counter : untouched)
        if (!layers.has(counter.name))
            layers.set(counter.name, counter.value, counter.unit);
}

} // namespace perfbench
