/**
 * @file
 * Tests of the sandbox-escape substrate and its monotone-encoding
 * countermeasure (Table 1's opcode-flip attack class).
 */

#include <gtest/gtest.h>

#include "common/bitops.hh"
#include "dram/hammer.hh"
#include "dram/module.hh"
#include "ext/sandbox.hh"
#include "theorem_oracle.hh"

namespace ctamem::ext {
namespace {

using dram::CellType;
using dram::CellTypeMap;
using dram::DramConfig;
using dram::DramModule;

DramConfig
sbConfig(double pf = 1e-2)
{
    DramConfig config;
    config.capacity = 64 * MiB;
    config.rowBytes = 128 * KiB;
    config.banks = 1;
    config.cellMap = CellTypeMap::uniform(CellType::True);
    config.errors.pf = pf;
    config.seed = 41;
    return config;
}

constexpr Addr codeBase = 1 * 128 * KiB;
constexpr std::uint64_t programBytes = 64 * KiB;

TEST(Sandbox, EncodingsRoundTrip)
{
    for (const OpcodeEncoding encoding :
         {OpcodeEncoding::Naive, OpcodeEncoding::Monotone}) {
        for (const Op op : {Op::Nop, Op::LoadImm, Op::Add, Op::Store,
                            Op::Jmp, Op::Halt, Op::HostCall}) {
            EXPECT_EQ(decodeOp(encodeOp(op, encoding), encoding), op);
        }
        EXPECT_EQ(decodeOp(0xee, encoding), Op::Invalid);
    }
}

TEST(Sandbox, NaiveHostCallIsOneFlipFromAdd)
{
    const std::uint8_t add = encodeOp(Op::Add, OpcodeEncoding::Naive);
    const std::uint8_t host =
        encodeOp(Op::HostCall, OpcodeEncoding::Naive);
    EXPECT_EQ(hammingDistance(add, host), 1u);
    EXPECT_TRUE(cta::reachableByDownFlips(add, host));
}

TEST(Sandbox, MonotoneHostCallIsNotDownReachable)
{
    // No unprivileged opcode can reach HostCall by clearing bits.
    const std::uint8_t host =
        encodeOp(Op::HostCall, OpcodeEncoding::Monotone);
    for (const Op op : {Op::Nop, Op::LoadImm, Op::Add, Op::Store,
                        Op::Jmp, Op::Halt}) {
        const std::uint8_t code =
            encodeOp(op, OpcodeEncoding::Monotone);
        EXPECT_FALSE(cta::reachableByDownFlips(code, host))
            << "opcode " << int(code);
    }
}

TEST(Sandbox, BenignProgramVerifiesAndRuns)
{
    DramModule module(sbConfig());
    Sandbox sandbox(module, codeBase, OpcodeEncoding::Monotone);
    sandbox.writeBenignProgram(programBytes);
    EXPECT_TRUE(sandbox.verify(programBytes));
    const SandboxRun run = sandbox.run(programBytes);
    EXPECT_FALSE(run.escaped);
    EXPECT_FALSE(run.crashed);
    EXPECT_GT(run.steps, 0u);
}

TEST(Sandbox, VerifierRejectsPrivilegedPrograms)
{
    DramModule module(sbConfig());
    Sandbox sandbox(module, codeBase, OpcodeEncoding::Naive);
    sandbox.writeBenignProgram(programBytes);
    module.writeByte(codeBase + 16,
                     encodeOp(Op::HostCall, OpcodeEncoding::Naive));
    EXPECT_FALSE(sandbox.verify(programBytes));
}

TEST(Sandbox, HammerEscapesNaiveEncoding)
{
    DramModule module(sbConfig());
    dram::RowHammerEngine engine(module);
    Sandbox sandbox(module, codeBase, OpcodeEncoding::Naive);
    sandbox.writeBenignProgram(programBytes);
    ASSERT_TRUE(sandbox.verify(programBytes));

    engine.hammerDoubleSided(0, 1); // the program's row
    // Post-flip: some Add (0x13) decayed to HostCall (0x03).
    EXPECT_FALSE(sandbox.verify(programBytes));
    const SandboxRun run = sandbox.run(programBytes);
    EXPECT_TRUE(run.escaped || run.crashed);
    // With 16k instructions and Pf=1e-2, an escape (not just a
    // crash) is expected on this seed.
    EXPECT_TRUE(run.escaped);
}

TEST(Sandbox, MonotoneEncodingNeverEscapes)
{
    DramModule module(sbConfig());
    dram::RowHammerEngine engine(module);
    Sandbox sandbox(module, codeBase, OpcodeEncoding::Monotone);
    sandbox.writeBenignProgram(programBytes);
    ASSERT_TRUE(sandbox.verify(programBytes));

    engine.hammerDoubleSided(0, 1);
    const SandboxRun run = sandbox.run(programBytes);
    EXPECT_FALSE(run.escaped); // crashes allowed, escapes impossible
    // Exhaustive: no post-hammer byte decodes as HostCall.
    for (Addr pc = 0; pc < programBytes; pc += 4) {
        EXPECT_NE(decodeOp(module.readByte(codeBase + pc),
                           OpcodeEncoding::Monotone),
                  Op::HostCall);
    }
}

TEST(Sandbox, MonotoneGuaranteeHoldsAcrossSeeds)
{
    // Property: under any down-flip corruption of a verified
    // program, the monotone encoding cannot produce HostCall.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        DramConfig config = sbConfig(5e-2);
        config.seed = seed;
        DramModule module(config);
        dram::RowHammerEngine engine(module);
        Sandbox sandbox(module, codeBase, OpcodeEncoding::Monotone);
        sandbox.writeBenignProgram(programBytes, seed);
        engine.hammerDoubleSided(0, 1);
        EXPECT_FALSE(sandbox.run(programBytes).escaped)
            << "seed " << seed;
    }
}

} // namespace
} // namespace ctamem::ext
