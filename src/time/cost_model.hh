/**
 * @file
 * Virtual-time cost model calibrated to the paper's environment:
 * 8 DECstation-5000/240 (40 MHz MIPS) nodes on a 100-Mbps ATM LAN under
 * Ultrix 4.3 (Section 6 of the paper). All protocol actions charge the
 * virtual clock through these constants, so reported "execution times"
 * are deterministic functions of protocol activity plus application
 * work, independent of host speed.
 */

#ifndef DSM_TIME_COST_MODEL_HH
#define DSM_TIME_COST_MODEL_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace dsm {

/** All values in virtual nanoseconds (or ns per unit). */
struct CostModel
{
    /**
     * Fixed one-way software + wire overhead of one message
     * (programmed I/O into FIFOs, AAL3/4 fragmentation, SIGIO
     * delivery). TreadMarks-era small-message latency on this platform
     * was just under a millisecond round trip.
     */
    std::uint64_t msgFixedNs = 450'000;

    /** Per-byte wire cost: 100 Mbps = 12.5 MB/s = 80 ns/byte. */
    std::uint64_t perByteNs = 80;

    /** mprotect + SIGSEGV delivery + handler entry under Ultrix. */
    std::uint64_t pageFaultNs = 150'000;

    /** Copying one 4-byte word when creating a twin. */
    std::uint64_t perWordTwinNs = 30;

    /** Comparing one word of twin vs. current copy when diffing. */
    std::uint64_t perWordDiffNs = 35;

    /** Scanning one block's timestamp or dirty word. */
    std::uint64_t perWordScanNs = 25;

    /** Applying one received word (diff run or timestamp run). */
    std::uint64_t perWordApplyNs = 20;

    /** Compiler-instrumented dirty-bit store (vector to template). */
    std::uint64_t dirtyStoreNs = 250;

    /** Handling a lock request/forward/grant at a node. */
    std::uint64_t lockHandlingNs = 30'000;

    /** Handling a barrier arrival/departure at a node. */
    std::uint64_t barrierHandlingNs = 30'000;

    /** One application work unit (roughly one inner-loop iteration
     *  including a floating-point operation at 40 MHz). */
    std::uint64_t workUnitNs = 25;

    /** One-way transit time of a message of @p bytes total size. */
    std::uint64_t
    transitNs(std::size_t bytes) const
    {
        return msgFixedNs + static_cast<std::uint64_t>(bytes) * perByteNs;
    }

    /** Multi-line human-readable rendering for bench headers. */
    std::string toString() const;
};

} // namespace dsm

#endif // DSM_TIME_COST_MODEL_HH
