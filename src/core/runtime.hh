/**
 * @file
 * The public DSM programming interface shared by the EC and LRC
 * runtimes: symmetric shared allocation, lock acquire/release,
 * barriers, and the typed access layer through which applications read
 * and write shared memory.
 *
 * The access layer substitutes for two mechanisms of the original
 * systems at once (see DESIGN.md):
 *  - compiler instrumentation: write<T>() executes the dirty-bit code
 *    a modified gcc would have emitted after each shared store;
 *  - the VM system: each access checks the software page table and
 *    triggers the protocol fault handler exactly where mprotect +
 *    SIGSEGV would have.
 *
 * writeBuf()/readBuf() are the "loop-split" bulk forms (Section 4.1's
 * instrumentation optimization): one trap covers a whole range.
 */

#ifndef DSM_CORE_RUNTIME_HH
#define DSM_CORE_RUNTIME_HH

#include <cstring>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "core/config.hh"
#include "core/node_locks.hh"
#include "mem/region_table.hh"
#include "mem/shared_arena.hh"
#include "net/endpoint.hh"
#include "sync/barrier_service.hh"
#include "sync/lock_service.hh"

namespace dsm {

class CheckpointCoordinator;
class FailureDetector;

class Runtime
{
  public:
    /** Wiring of one node's per-node services. */
    struct Deps
    {
        NodeId self = 0;
        int nprocs = 1;
        int threadsPerNode = 1;
        SharedArena *arena = nullptr;
        Endpoint *endpoint = nullptr;
        LockService *locks = nullptr;
        BarrierService *barriers = nullptr;
        RegionTable *regions = nullptr;
        NodeLocks *nodeLocks = nullptr;
        const ClusterConfig *cluster = nullptr;
    };

    explicit Runtime(const Deps &deps);
    virtual ~Runtime() = default;

    Runtime(const Runtime &) = delete;
    Runtime &operator=(const Runtime &) = delete;

    /**
     * Allocate shared memory. All nodes must perform identical
     * allocation sequences (SPMD), so the returned GlobalAddr is valid
     * cluster-wide.
     *
     * @param block_size Granularity of write trapping for this region
     *        (4 or 8 bytes; 8 models double-word compiler
     *        instrumentation as used by Water and 3D-FFT).
     */
    GlobalAddr sharedAlloc(std::size_t bytes, std::size_t align = 8,
                           std::uint32_t block_size = 4,
                           const std::string &name = "");

    /**
     * EC only: associate @p lock with shared data (possibly several
     * non-contiguous ranges, as 3D-FFT requires). Must be called
     * identically on every node before the lock is used.
     */
    virtual void bindLock(LockId lock, std::vector<Range> ranges) = 0;

    /**
     * EC only: change a lock's binding (task queues, memory re-use).
     * Caller must hold @p lock in Write mode. The next transfer
     * conservatively carries all bound data (Section 7.1, Rebinding).
     */
    virtual void rebindLock(LockId lock, std::vector<Range> ranges) = 0;

    /** Acquire @p lock. Read mode = EC read-only lock. */
    void acquire(LockId lock, AccessMode mode = AccessMode::Write);

    /**
     * Acquire @p lock exclusively with the declared intent to rebind
     * it: the grant transfers ownership but carries no data update
     * (the old binding's data is about to become meaningless, and
     * applying it could overwrite live memory under the new use of
     * the region). EC only; LRC treats it as a plain acquire.
     */
    virtual void acquireForRebind(LockId lock) { acquire(lock); }

    void release(LockId lock);

    void barrier(BarrierId barrier);

    /** Typed shared-memory read. */
    template <typename T>
    T
    read(GlobalAddr addr)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T v;
        doRead(addr, &v, sizeof(T));
        return v;
    }

    /** Typed shared-memory write (one instrumented store). */
    template <typename T>
    void
    write(GlobalAddr addr, const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        doWrite(addr, &v, sizeof(T), false);
    }

    /** Bulk read of @p n elements. */
    template <typename T>
    void
    readBuf(GlobalAddr addr, T *dst, std::size_t n)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        doRead(addr, dst, n * sizeof(T));
    }

    /** Bulk write of @p n elements (split-loop instrumentation). */
    template <typename T>
    void
    writeBuf(GlobalAddr addr, const T *src, std::size_t n)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        doWrite(addr, src, n * sizeof(T), true);
    }

    /**
     * SPMD-identical initialization of shared data *before the first
     * synchronization*: writes the local copy directly with no write
     * trapping and no communication. This is the initialized-data-
     * segment idiom of the original systems — every node computes the
     * same initial image, so all copies stay consistent.
     */
    template <typename T>
    void
    initBuf(GlobalAddr addr, const T *src, std::size_t n)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        initRaw(addr, src, n * sizeof(T));
    }

    template <typename T>
    void
    initWrite(GlobalAddr addr, const T &v)
    {
        initBuf(addr, &v, 1);
    }

    /**
     * Charge @p units of application work to the virtual clock (one
     * unit ~ one inner-loop iteration on the modeled 40-MHz CPU).
     */
    void chargeWork(std::uint64_t units);

    /**
     * Back off inside an app-level empty-poll loop (a task-queue scan
     * that found nothing). Always charges the historical 400-unit
     * polling backoff to the virtual clock, so modeled time is knob-
     * independent. With DSM_BLOCKING_DEQ armed it additionally parks
     * the calling worker on the endpoint's activity futex after an
     * adaptive spin — wall-clock leaves the poll loop instead of
     * burning it, which is what collapses the QS message-count spread
     * (every wasted poll can steal a core from the service thread and
     * perturb message interleavings).
     */
    void pollIdle();

    NodeId self() const { return id; }
    int nprocs() const { return numProcs; }

    /**
     * SPMD worker identity: with SMP nodes (threadsPerNode T > 1) the
     * applications partition over workers, not nodes. Worker w =
     * node * T + threadId; at T == 1 worker() == self() and
     * nworkers() == nprocs(), so single-thread programs are unchanged.
     */
    int
    worker() const
    {
        ThreadContext *ctx = ThreadContext::current();
        return ctx ? ctx->worker : id;
    }

    /** Total SPMD workers in the cluster: nprocs * threadsPerNode. */
    int nworkers() const { return numProcs * threadsT; }

    /** Node-local thread id of the calling worker (0 at T == 1). */
    int
    threadId() const
    {
        ThreadContext *ctx = ThreadContext::current();
        return ctx ? ctx->threadId : 0;
    }

    /** Application threads per node. */
    int threadsPerNode() const { return threadsT; }

    /** The node's lock service (test introspection). */
    LockService &lockService() { return *locks; }

    NodeStats &stats() { return ep->stats(); }
    VirtualClock &clock() { return ep->clock(); }
    const CostModel &costModel() const { return ep->costModel(); }
    const ClusterConfig &clusterConfig() const { return *cluster; }

    /** Paper-style configuration name (EC-ci, LRC-diff, ...). */
    virtual std::string name() const = 0;

    /** Current length of the SPMD allocation log (Cluster::run seeds
     *  each worker's ThreadContext::allocCursor with it, so threads
     *  skip allocations performed before the run started). */
    std::uint32_t
    allocLogSize()
    {
        std::lock_guard<std::mutex> g(allocMu);
        return static_cast<std::uint32_t>(allocLog.size());
    }

    /** Service-thread dispatch for runtime-specific messages
     *  (LRC diff/timestamp fetches). */
    virtual void handleMessage(Message &msg);

    /**
     * Install the coordinated-checkpoint hook (core/checkpoint.hh).
     * When set, every barrier() first runs the checkpoint rendezvous —
     * the natural consistent cut of these protocols — before the
     * protocol's own pre-barrier work. Null (the default) leaves
     * barrier() exactly on the historical path.
     */
    void setCheckpoint(CheckpointCoordinator *coordinator)
    {
        ckptCoord = coordinator;
    }

    /**
     * Install the cluster's failure detector (may be null). A runtime
     * with a detector can take typed-degradation paths on blocking
     * fetches — LRC re-hosts pages homed at a down node from its
     * persisted checkpoint frontier instead of waiting out the
     * outage.
     */
    void setFailureDetector(FailureDetector *fd) { detector = fd; }

    /**
     * Snapshot serialization, invoked at a barrier cut with the node's
     * service thread stopped and all application threads parked at the
     * checkpoint rendezvous (so no protocol state is in motion and
     * service-thread-owned structures are safe to read). The base
     * captures what every protocol shares — the arena image and the
     * SPMD allocation log; derived runtimes append their protocol
     * state and must call the base first, in both directions.
     */
    virtual void serialize(WireWriter &w) const;
    virtual void restoreFrom(WireReader &r);

    /**
     * Chaos kill: destroy this node's protocol state before a
     * restoreFrom, so the recovery test proves the snapshot — not
     * surviving memory — rebuilt the node. The base scribbles the
     * arena image and drops the allocation log.
     */
    virtual void wipeForRecovery();

    /**
     * The node's logical-time frontier at a cut, recorded in the
     * checkpoint manifest. LRC reports its vector time; EC has no
     * vector clock (consistency rides on lock incarnations), so the
     * base returns empty.
     */
    virtual std::vector<std::uint32_t> vectorFrontier() const
    {
        return {};
    }

  protected:
    /**
     * Hook run on the application thread just before joining a
     * barrier, outside any runtime lock — the place for blocking
     * protocol work that must precede the arrival message (LRC uses it
     * to validate pages ahead of barrier-time garbage collection).
     */
    virtual void preBarrier() {}

    /**
     * Access-layer hook: perform a shared read of @p size bytes into
     * @p dst, running any consistency actions (LRC access-miss
     * fetches) first. The implementation owns all locking.
     */
    virtual void doRead(GlobalAddr addr, void *dst, std::size_t size) = 0;

    /**
     * Access-layer hook: perform a shared write, running write
     * trapping (dirty bits, twin faults) and the copy atomically with
     * respect to the service thread. @p bulk marks writeBuf
     * (split-loop instrumentation).
     */
    virtual void doWrite(GlobalAddr addr, const void *src,
                         std::size_t size, bool bulk) = 0;

    /**
     * The untrapped initialization store behind initBuf/initWrite:
     * every thread of a node executes the same SPMD init sequence, so
     * the copies are serialized per page (memory shard locks) and the
     * repeats rewrite identical bytes.
     */
    void initRaw(GlobalAddr addr, const void *src, std::size_t size);

    NodeId id;
    int numProcs;
    int threadsT;
    SharedArena *arena;
    Endpoint *ep;
    LockService *locks;
    BarrierService *barriers;
    RegionTable *regions;
    NodeLocks *nl;
    const ClusterConfig *cluster;
    /** Cluster failure detector; null = no liveness tracking. */
    FailureDetector *detector = nullptr;

  private:
    /**
     * SPMD allocation log: all threads of a node perform identical
     * sharedAlloc sequences; the first to reach position i performs
     * the allocation, later threads replay the logged address (their
     * position lives in ThreadContext::allocCursor). Threads without a
     * context append directly, which is the T == 1 behavior.
     */
    mutable std::mutex allocMu;
    std::vector<GlobalAddr> allocLog;

    /** Coordinated-checkpoint hook; null = checkpointing off. */
    CheckpointCoordinator *ckptCoord = nullptr;
};

} // namespace dsm

#endif // DSM_CORE_RUNTIME_HH
