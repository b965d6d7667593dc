/**
 * @file
 * The shared SPMD conformance kernels — a halo-exchange stencil, a
 * distributed task queue, and a migratory counter ring (the Table 3
 * sharing patterns in miniature). Every kernel is integer-valued,
 * partitioned over *workers* (node x thread), and
 * schedule-independent, so its final shared state is bit-exact across
 * protocols, policies, and — since the crash-tolerance PR — across
 * chaos kills and message drops. test_protocol_conformance.cc runs
 * them across protocol legs; test_checkpoint.cc runs them against
 * the fault-injection and checkpoint/recovery machinery.
 */

#ifndef DSM_TESTS_CONFORMANCE_KERNELS_HH
#define DSM_TESTS_CONFORMANCE_KERNELS_HH

#include <cstddef>
#include <vector>

#include "core/cluster.hh"
#include "core/shared_array.hh"

namespace dsm {
namespace kernels {

constexpr LockId kQueueLock = 1;
constexpr LockId kPayloadLock = 2;
constexpr LockId kRingLock = 3;
constexpr LockId kBandLockBase = 10;

inline bool
isEc(Runtime &rt)
{
    return rt.clusterConfig().runtime.model == Model::EC;
}

// ---------------------------------------------------------------------
// Kernel 1: halo-exchange stencil (the SOR pattern). Each node owns a
// band of an int64 grid; per step it reads the neighbour edge cells
// under their band locks, then rewrites its band under its own lock.
// Enough steps that, at 2 nodes and 1 KiB pages, a homeless LRC halo
// miss stops carrying the neighbour's other pages: each receives about
// 1 KiB per step riding along, against a bound of one miss's cost
// (13,125 B; DESIGN.md §10).

constexpr int kCells = 768;
constexpr int kSteps = 32;

inline std::size_t
stencilBytes()
{
    return std::size_t{kCells} * sizeof(std::int64_t);
}

inline void
stencilKernel(Runtime &rt)
{
    const bool ec = isEc(rt);
    const int np = rt.nworkers();
    const int self = rt.worker();
    const int lo = self * kCells / np;
    const int hi = (self + 1) * kCells / np;
    auto band_lock = [](int p) {
        return static_cast<LockId>(kBandLockBase + p);
    };

    auto grid = SharedArray<std::int64_t>::alloc(rt, kCells, 4, "grid");
    if (ec) {
        for (int p = 0; p < np; ++p) {
            const int plo = p * kCells / np;
            const int phi = (p + 1) * kCells / np;
            rt.bindLock(band_lock(p), {grid.range(plo, phi - plo)});
        }
    }
    {
        std::vector<std::int64_t> init(kCells);
        for (int i = 0; i < kCells; ++i)
            init[i] = (i * 37) % 1001 - 500;
        rt.initBuf(grid.base(), init.data(), kCells);
    }
    BarrierId barrier = 0;
    rt.barrier(barrier++);

    std::vector<std::int64_t> band(hi - lo + 2);
    for (int step = 0; step < kSteps; ++step) {
        // Phase A: read the halo (the previous step's values — a
        // barrier below separates it from this step's writes).
        std::int64_t left = 0, right = 0;
        if (self > 0) {
            if (ec)
                rt.acquire(band_lock(self - 1), AccessMode::Read);
            left = grid.get(lo - 1);
            if (ec)
                rt.release(band_lock(self - 1));
        }
        if (self < np - 1) {
            if (ec)
                rt.acquire(band_lock(self + 1), AccessMode::Read);
            right = grid.get(hi);
            if (ec)
                rt.release(band_lock(self + 1));
        }
        grid.load(lo, band.data() + 1, hi - lo);
        band[0] = left;
        band[hi - lo + 1] = right;
        rt.barrier(barrier++);

        // Phase B: rewrite the band under the band lock.
        std::vector<std::int64_t> next(hi - lo);
        for (int i = 0; i < hi - lo; ++i) {
            next[i] = band[i] + band[i + 1] - (band[i + 2] >> 1) +
                      step;
        }
        rt.chargeWork(hi - lo);
        if (ec)
            rt.acquire(band_lock(self), AccessMode::Write);
        grid.store(lo, next.data(), hi - lo);
        if (ec)
            rt.release(band_lock(self));
        rt.barrier(barrier++);
    }

    // Node 0 collects the whole grid through the protocol.
    if (rt.worker() == 0) {
        for (int p = 0; p < np; ++p) {
            if (ec) {
                rt.acquire(band_lock(p), AccessMode::Read);
                rt.release(band_lock(p));
            }
        }
        for (int i = 0; i < kCells; ++i)
            grid.get(i);
    }
    rt.barrier(barrier++);
}

// ---------------------------------------------------------------------
// Kernel 2: distributed task queue (the Quicksort pattern). Workers
// pull jobs from a lock-protected queue and post deterministic results;
// which worker runs which job varies by schedule, the results do not.

constexpr int kJobs = 40;
constexpr int kPayloadWords = 32;

inline std::size_t
taskQueueBytes()
{
    return (1 + kJobs + std::size_t{kJobs} * kPayloadWords) *
           sizeof(std::int64_t);
}

inline void
taskQueueKernel(Runtime &rt)
{
    const bool ec = isEc(rt);
    auto queue =
        SharedArray<std::int64_t>::alloc(rt, 1 + kJobs, 4, "queue");
    auto payload = SharedArray<std::int64_t>::alloc(
        rt, std::size_t{kJobs} * kPayloadWords, 4, "payload");
    if (ec) {
        rt.bindLock(kQueueLock, {queue.wholeRange()});
        rt.bindLock(kPayloadLock, {payload.wholeRange()});
    }
    rt.barrier(0);

    // Node 0 publishes every job's payload under the payload lock.
    if (rt.worker() == 0) {
        if (ec)
            rt.acquire(kPayloadLock, AccessMode::Write);
        std::vector<std::int64_t> words(kPayloadWords);
        for (int j = 0; j < kJobs; ++j) {
            for (int w = 0; w < kPayloadWords; ++w)
                words[w] = j * 1000 + w * w;
            payload.store(std::size_t{static_cast<std::size_t>(j)} *
                              kPayloadWords,
                          words.data(), kPayloadWords);
        }
        if (ec)
            rt.release(kPayloadLock);
    }
    rt.barrier(1);

    for (;;) {
        rt.acquire(kQueueLock, AccessMode::Write);
        const std::int64_t job = queue.get(0);
        if (job < kJobs)
            queue.set(0, job + 1);
        rt.release(kQueueLock);
        if (job >= kJobs)
            break;

        if (ec)
            rt.acquire(kPayloadLock, AccessMode::Read);
        std::int64_t sum = 0;
        for (int w = 0; w < kPayloadWords; ++w)
            sum += payload.get(job * kPayloadWords + w);
        if (ec)
            rt.release(kPayloadLock);
        rt.chargeWork(kPayloadWords);

        rt.acquire(kQueueLock, AccessMode::Write);
        queue.set(1 + job, sum * 3 - job);
        rt.release(kQueueLock);
    }
    rt.barrier(2);

    if (rt.worker() == 0) {
        if (ec) {
            rt.acquire(kQueueLock, AccessMode::Read);
            rt.release(kQueueLock);
            rt.acquire(kPayloadLock, AccessMode::Read);
            rt.release(kPayloadLock);
        }
        for (std::size_t i = 0; i < queue.size(); ++i)
            queue.get(i);
        for (std::size_t i = 0; i < payload.size(); ++i)
            payload.get(i);
    }
    rt.barrier(3);
}

// ---------------------------------------------------------------------
// Kernel 3: migratory counter ring (the IS bucket pattern — the
// table3-style lock-serialized loop). One node per round increments
// every slot under the ring lock; everyone asserts the running total.

constexpr int kSlots = 96;
constexpr int kRounds = 12;

inline std::size_t
ringBytes()
{
    return std::size_t{kSlots} * sizeof(std::int64_t);
}

inline void
ringKernel(Runtime &rt)
{
    const bool ec = isEc(rt);
    auto slots = SharedArray<std::int64_t>::alloc(rt, kSlots, 4, "ring");
    if (ec)
        rt.bindLock(kRingLock, {slots.wholeRange()});
    rt.barrier(0);

    for (int round = 0; round < kRounds; ++round) {
        rt.acquire(kRingLock, AccessMode::Write);
        if (round % rt.nworkers() == rt.worker()) {
            for (int i = 0; i < kSlots; ++i)
                slots.set(i, slots.get(i) + i + round);
        }
        rt.release(kRingLock);
        rt.barrier(1 + round);
    }

    if (rt.worker() == 0) {
        if (ec) {
            rt.acquire(kRingLock, AccessMode::Read);
            rt.release(kRingLock);
        }
        for (int i = 0; i < kSlots; ++i)
            slots.get(i);
    }
    rt.barrier(100);
}

} // namespace kernels
} // namespace dsm

#endif // DSM_TESTS_CONFORMANCE_KERNELS_HH
