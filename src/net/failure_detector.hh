/**
 * @file
 * Per-peer liveness tracking for the self-healing cluster. Every
 * endpoint's service thread stamps its own liveness (heartbeat) and
 * the liveness of any peer whose message it delivers (heard); a
 * periodic tick scans the stamps against a deadline and flips the
 * expired peer's inbox to PeerDown on the Network — automatically,
 * where PR 6 could only do it under test-harness control.
 *
 * State machine per peer (DESIGN.md §7):
 *
 *   healthy --deadline missed--> down --fresh stamp--> recovering
 *      ^                                                   |
 *      +------------- recoverySeq bump consumed -----------+
 *
 * ("suspect" is the half-open interval between the last stamp and the
 * deadline — no explicit state, just elapsed time.) Transitions are
 * CAS-guarded on a shared down mask so exactly one observer counts
 * each detection/recovery, no matter how many service threads race.
 *
 * The detector is deliberately shared-memory: nodes in this tier are
 * threads in one process, so a heartbeat is a stamp, not a message.
 * What makes it honest is the fault injector: a silenced node's
 * heartbeat() is a no-op (its "messages" would never arrive), so a
 * 100%-drop outage looks exactly like a dead peer to everyone else.
 */

#ifndef DSM_NET_FAILURE_DETECTOR_HH
#define DSM_NET_FAILURE_DETECTOR_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/fault_injector.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace dsm {

class Network;

class FailureDetector
{
  public:
    /**
     * @param net Cluster network (markNodeDown / clearNodeDown sink).
     * @param nnodes Number of nodes.
     * @param deadline_ns Liveness deadline: a peer whose last stamp is
     *        older than this is declared down.
     * @param injector Optional fault injector; a silenced node's own
     *        heartbeats are suppressed so injected outages are
     *        detected like real ones.
     */
    FailureDetector(Network &net, int nnodes, std::uint64_t deadline_ns,
                    FaultInjector *injector);

    /** Stamp my own liveness (no-op while I am silenced). */
    void heartbeat(NodeId self);

    /**
     * Stamp @p src's liveness on an actually-delivered message. When
     * the stamp revives a peer previously declared down, performs the
     * recovery transition (clears the inbox flag, bumps the peer's
     * recoverySeq) and counts it into @p stats.
     */
    void heard(NodeId src, NodeStats &stats);

    /**
     * Deadline scan: declare expired peers down (flip their inbox via
     * Network::markNodeDown) and revive freshly stamped ones. Counts
     * transitions this call performed into @p stats — the CAS on the
     * down mask makes each transition count exactly once cluster-wide.
     */
    void tick(NodeId self, NodeStats &stats);

    bool
    isDown(NodeId node) const
    {
        return (downMask.load(std::memory_order_acquire) >> node) & 1;
    }

    bool
    anyDown() const
    {
        return downMask.load(std::memory_order_acquire) != 0;
    }

    std::uint64_t deadlineNs() const { return deadline; }

    /**
     * Monotonic recovery epoch of @p node: bumped on every down ->
     * healthy transition. Endpoints keep a local cursor per peer and
     * run their recovery hooks (orphaned-lock re-forwarding) when it
     * advances — every endpoint observes every recovery exactly once,
     * regardless of which service thread performed the transition.
     */
    std::uint64_t
    recoverySeqOf(NodeId node) const
    {
        return peers[node].recoverySeq.load(std::memory_order_acquire);
    }

  private:
    std::uint64_t nowNs() const;

    struct alignas(64) PeerSlot
    {
        std::atomic<std::uint64_t> lastHeardNs{0};
        std::atomic<std::uint64_t> recoverySeq{0};
    };

    /** down-mask transition helpers; true = this call won the CAS. */
    bool declareDown(NodeId node);
    bool declareRecovered(NodeId node);

    Network &net;
    FaultInjector *injector; ///< not owned; may be null
    std::uint64_t deadline;
    std::chrono::steady_clock::time_point epoch;
    std::vector<PeerSlot> peers;
    std::atomic<std::uint64_t> downMask{0};
};

} // namespace dsm

#endif // DSM_NET_FAILURE_DETECTOR_HH
