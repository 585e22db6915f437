#include "dram/fault_model.hh"

#include <cmath>

#if defined(__x86_64__) && defined(__GNUC__)
// GCC 12 flags the deliberately undefined register inside
// _mm512_srli_epi64 as maybe-uninitialized wherever it inlines.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#define CTAMEM_HAVE_AVX512_SCAN 1
#endif

namespace ctamem::dram {

namespace {

/** Retention distribution at 20 C: 128 ms floor + Exp(mean 2 s). */
constexpr double retentionFloorSec = 0.128;
constexpr double retentionMeanSec = 2.0;

#ifdef CTAMEM_HAVE_AVX512_SCAN

/**
 * Eight-lane splitmix64 over consecutive cell indices.  vpmullq
 * (AVX-512DQ) gives the two 64-bit multiplies of the mixer natively,
 * and the unsigned-compare mask register is exactly the 8 mask bits
 * a word scan needs — the whole vulnerability mask of a 64-cell word
 * falls out of 8 vector steps.  Bit-identical to the scalar chain by
 * construction: same adds, same xors, same multiplies.
 */
__attribute__((target("avx512f,avx512dq"))) void
scanAvx512(std::uint64_t base, std::uint64_t idx0, std::uint64_t lt,
           std::size_t words, std::uint64_t *out)
{
    const __m512i vbase = _mm512_set1_epi64(
        static_cast<long long>(base));
    const __m512i vgamma = _mm512_set1_epi64(
        static_cast<long long>(0x9e3779b97f4a7c15ULL));
    const __m512i vmul1 = _mm512_set1_epi64(
        static_cast<long long>(0xbf58476d1ce4e5b9ULL));
    const __m512i vmul2 = _mm512_set1_epi64(
        static_cast<long long>(0x94d049bb133111ebULL));
    const __m512i vlt = _mm512_set1_epi64(static_cast<long long>(lt));
    const __m512i lane = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
    const __m512i veight = _mm512_set1_epi64(8);

    // Running (cell index + M) vector: +8 per octet, no per-step
    // broadcast from a scalar register.
    __m512i vidx = _mm512_add_epi64(
        _mm512_set1_epi64(
            static_cast<long long>(idx0 + kStableHashMix)),
        lane);
    for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t mask = 0;
        // Two interleaved octet chains: the mixer is a serial
        // dependency chain dominated by vpmullq latency, so a single
        // chain leaves the multiplier idle most of the time.
        for (unsigned j = 0; j < 8; j += 2) {
            __m512i a = _mm512_xor_si512(vbase, vidx);
            __m512i b = _mm512_xor_si512(
                vbase, _mm512_add_epi64(vidx, veight));
            vidx = _mm512_add_epi64(
                vidx, _mm512_add_epi64(veight, veight));
            // Two splitmix64 rounds: the key-folding round over the
            // cell index plus stableHash's terminal finalizer.
            for (int round = 0; round < 2; ++round) {
                a = _mm512_add_epi64(a, vgamma);
                b = _mm512_add_epi64(b, vgamma);
                a = _mm512_mullo_epi64(
                    _mm512_xor_si512(a, _mm512_srli_epi64(a, 30)),
                    vmul1);
                b = _mm512_mullo_epi64(
                    _mm512_xor_si512(b, _mm512_srli_epi64(b, 30)),
                    vmul1);
                a = _mm512_mullo_epi64(
                    _mm512_xor_si512(a, _mm512_srli_epi64(a, 27)),
                    vmul2);
                b = _mm512_mullo_epi64(
                    _mm512_xor_si512(b, _mm512_srli_epi64(b, 27)),
                    vmul2);
                a = _mm512_xor_si512(a, _mm512_srli_epi64(a, 31));
                b = _mm512_xor_si512(b, _mm512_srli_epi64(b, 31));
            }
            const __mmask8 hit_a = _mm512_cmplt_epu64_mask(
                _mm512_srli_epi64(a, 11), vlt);
            const __mmask8 hit_b = _mm512_cmplt_epu64_mask(
                _mm512_srli_epi64(b, 11), vlt);
            mask |= (static_cast<std::uint64_t>(hit_a) |
                     (static_cast<std::uint64_t>(hit_b) << 8))
                    << (j * 8);
        }
        out[w] = mask;
    }
}

bool
haveAvx512Scan()
{
    static const bool have = __builtin_cpu_supports("avx512f") &&
                             __builtin_cpu_supports("avx512dq");
    return have;
}

#endif // CTAMEM_HAVE_AVX512_SCAN

/** Portable scalar fallback of the bulk scan. */
void
scanScalar(std::uint64_t base, std::uint64_t idx0, std::uint64_t lt,
           std::size_t words, std::uint64_t *out)
{
    for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t mask = 0;
        for (unsigned k = 0; k < 64; ++k) {
            const std::uint64_t h =
                splitmix64(splitmix64(
                    base ^ (idx0 + w * 64 + k + kStableHashMix))) >>
                11;
            mask |= static_cast<std::uint64_t>(h < lt) << k;
        }
        out[w] = mask;
    }
}

} // namespace

void
FaultModel::vulnMaskRow(Addr addr, std::size_t words,
                        std::uint64_t *out) const
{
#ifdef CTAMEM_HAVE_AVX512_SCAN
    if (haveAvx512Scan()) {
        scanAvx512(vulnBase_, addr * 8, vulnLt_, words, out);
        return;
    }
#endif
    scanScalar(vulnBase_, addr * 8, vulnLt_, words, out);
}

SimTime
FaultModel::retentionTime(Addr addr, unsigned bit, double celsius) const
{
    const double u = toUnit(cellHash(retBase_, cellIndex(addr, bit)));
    // Inverse-CDF sample of the exponential tail; clamp u away from 1
    // so log1p stays finite.
    const double clamped = u > 0.999999999999 ? 0.999999999999 : u;
    const double base_sec =
        retentionFloorSec - retentionMeanSec * std::log1p(-clamped);
    // Retention roughly doubles for every 10 C drop below 20 C.
    const double scale = std::exp2((20.0 - celsius) / 10.0);
    return static_cast<SimTime>(base_sec * scale *
                                static_cast<double>(seconds));
}

} // namespace ctamem::dram
