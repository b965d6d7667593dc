/**
 * @file
 * Coordinated checkpointing and chaos-kill recovery (see DESIGN.md
 * section 5). Barriers are the natural consistent cut of both
 * protocols: every application thread is about to synchronize, no
 * acquire or page fetch is mid-flight, and the consistency model
 * requires nothing of the instant between a node's last release and
 * its barrier arrival. The coordinator exploits this:
 *
 *  - Runtime::barrier() calls atBarrier() before any protocol
 *    pre-barrier work. All T application threads of the node
 *    rendezvous locally; the last one in is the leader.
 *  - The leader stops the node's endpoint: the service thread drains
 *    the inbox up to the self-addressed Shutdown marker and joins.
 *    The MPSC inbox ring itself is the holdback queue — anything a
 *    peer sends after the marker parks in the ring untouched.
 *  - With no live mutators (siblings parked, service thread joined —
 *    a happens-before edge over all service-thread-owned state), the
 *    leader serializes the full node image through the protocol's own
 *    wire formats: arena + alloc log, protocol state (EC lock
 *    bindings / LRC vectors, interval log, diff store, home table),
 *    lock service, barrier service.
 *  - If this node is the chaos victim at this epoch, the leader then
 *    wipes every bit of that state (arena scribbled 0xDB) and
 *    restores it from the snapshot just taken — in file-backed mode
 *    from the file, proving the persisted blob alone rebuilds the
 *    node.
 *  - The endpoint restarts; the new service thread drains the parked
 *    messages — the node "replays forward" from the cut. Restart
 *    depends on no peer, so a checkpointing cluster cannot deadlock
 *    on its own coordinator.
 *
 * Every node runs this same uniform sequence; the victim merely adds
 * the wipe+restore leg. Peers that sent requests to the node while it
 * was down simply see a slow responder: their messages waited in the
 * ring ("parked outbound traffic" from their point of view), and the
 * fault-injection retransmit path covers the case where drops are
 * also armed.
 */

#ifndef DSM_CORE_CHECKPOINT_HH
#define DSM_CORE_CHECKPOINT_HH

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/config.hh"
#include "net/endpoint.hh"
#include "net/network.hh"
#include "sync/barrier_service.hh"
#include "sync/lock_service.hh"

namespace dsm {

class Runtime;
class FaultInjector;
class FailureDetector;

class CheckpointCoordinator
{
  public:
    /** Snapshot blob header. */
    static constexpr std::uint64_t kMagic = 0x44534d434b505431ull; // DSMCKPT1
    static constexpr std::uint32_t kVersion = 2;
    /** Incremental (changed-runs) blob header. */
    static constexpr std::uint64_t kDeltaMagic =
        0x44534d434b504431ull; // DSMCKPD1

    /** A materialized (anchor + deltas) persisted node image. */
    struct PersistedImage
    {
        std::vector<std::byte> image;
        std::uint64_t epoch = 0; ///< 0 = nothing persisted
        /** Vector-time frontier of the cut ("-" manifest = empty). */
        std::vector<std::uint32_t> frontier;
    };

    /**
     * Load the newest persisted image of @p node from @p dir by
     * walking its manifest: latest full anchor, then each delta in
     * epoch order, materialized via applyDelta. Bit-identical to the
     * full blob the node would have written with deltas off. Returns
     * epoch 0 when the node never persisted a cut. Static so a
     * surviving node can re-host pages homed at a dead peer.
     */
    static PersistedImage loadLatestImage(const std::string &dir,
                                          NodeId node);

    /**
     * Encode @p cur as changed word runs against @p prev (SIMD scan;
     * a verbatim tail covers bytes past the common word-aligned
     * prefix, so images may change length between cuts).
     */
    static std::vector<std::byte>
    makeDelta(const std::vector<std::byte> &prev,
              const std::vector<std::byte> &cur, std::uint64_t base_epoch);

    /** Invert makeDelta: rebuild the full image from @p prev and the
     *  delta blob. Asserts the recorded base epoch is @p base_epoch
     *  (pass 0 to skip the check). */
    static std::vector<std::byte>
    applyDelta(const std::vector<std::byte> &prev,
               const std::vector<std::byte> &delta,
               std::uint64_t base_epoch);

    /**
     * @param config The cluster's resolved configuration: checkpoint
     *        cadence, delta anchors, snapshot directory, and the kill
     *        and outage plans. Must outlive the coordinator.
     * @param injector Silence lever; required when an outage is armed.
     * @param detector Keeps our own liveness fresh across a long cut
     *        so peers do not false-positive a checkpointing node (may
     *        be null).
     */
    CheckpointCoordinator(NodeId self, const ClusterConfig &config,
                          FaultInjector *injector,
                          FailureDetector *detector, Network &network,
                          Endpoint &endpoint, LockService &locks,
                          BarrierService &barriers);

    /** The per-barrier hook Runtime::barrier() runs first. All of the
     *  node's application threads must call it (SPMD). */
    void atBarrier(Runtime &rt, BarrierId barrier);

    /** Size of the most recent snapshot blob (0 = none taken). */
    std::uint64_t lastBlobBytes() const { return lastBytes; }

    /** Wall-clock nanoseconds of the most recent wipe+restore
     *  (0 = no recovery ran). */
    std::uint64_t lastRestoreNs() const { return restoreNs; }

    /** Checkpoints taken by this node. */
    std::uint64_t epochsTaken() const { return epochsDone; }

  private:
    /** Leader half: stop, snapshot, maybe kill+restore, restart. */
    void checkpointAsLeader(Runtime &rt);

    std::vector<std::byte> snapshot(Runtime &rt) const;
    void restore(Runtime &rt, const std::vector<std::byte> &blob);

    /** The image a wipe at this instant restores from: the in-memory
     *  tier, or (dir set) the persisted blob / materialized delta
     *  chain — proving persistence alone rebuilds the node. */
    std::vector<std::byte> restoreSource() const;

    /** Tier-1 persistence: blob file plus a manifest line with the
     *  cut's kind (full | delta), base epoch and vector-time
     *  frontier. */
    void persist(Runtime &rt, const std::vector<std::byte> &blob,
                 bool full) const;
    std::vector<std::byte> loadPersisted() const;

    std::string blobPath() const;

    NodeId id;
    const ClusterConfig &cfg;
    FaultInjector *injector;
    FailureDetector *detector;
    Network &net;
    Endpoint &ep;
    LockService &locks;
    BarrierService &barriers;

    /** Local thread rendezvous (mirrors the barrier service's). */
    std::mutex mu;
    std::condition_variable cv;
    int arrived = 0;
    std::uint64_t generation = 0;

    /** Count of barrier() invocations on this node (leader-counted;
     *  SPMD-identical across nodes by construction). */
    std::uint64_t barrierSeq = 0;
    /** Checkpoints actually taken (the manifest epoch). */
    std::uint64_t epochsDone = 0;
    /** First persist of this run truncates the node's manifest: a
     *  reused DSM_CKPT_DIR (bench sweeps run many clusters against
     *  one directory) would otherwise leave a previous run's chain as
     *  the "latest" and loadLatestImage would restore stale state. */
    mutable bool manifestOwned = false;

    /** In-memory snapshot tier (always kept, newest only). With
     *  deltas on this is still the *materialized* full image — the
     *  delta blob is what goes on the wire/disk and into lastBytes. */
    std::vector<std::byte> lastBlob;
    /** Stored size of the most recent cut: the full blob, or the
     *  delta blob when this cut was incremental. */
    std::uint64_t lastBytes = 0;
    std::uint64_t restoreNs = 0;
};

} // namespace dsm

#endif // DSM_CORE_CHECKPOINT_HH
