/**
 * @file
 * The simulated cluster interconnect. Reliable in-order delivery per
 * sender/receiver pair over per-node inboxes; a configurable cost model
 * computes virtual arrival times. Real loss is the fault injector's
 * (net/fault_injector.hh): it drops messages and the Endpoint
 * retransmits, as the paper's "operation-specific user-level
 * protocols to insure delivery" do (Section 6).
 *
 * Each node's inbox is a bounded lock-free MPSC ring
 * (net/mpsc_ring.hh — futex-parked consumer, no mutex on the send
 * path). The ring ticket stamps every message with a delivery-ordered
 * sequence number and every receive asserts it increases per
 * (src, dst) pair, so the documented in-order-per-pair guarantee is
 * checked on every delivery.
 */

#ifndef DSM_NET_NETWORK_HH
#define DSM_NET_NETWORK_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "net/fault_injector.hh"
#include "net/message.hh"
#include "net/mpsc_ring.hh"
#include "net/transport.hh"
#include "time/cost_model.hh"
#include "util/stats.hh"

namespace dsm {

class Network final : public Transport
{
  public:
    /**
     * @param nnodes Number of nodes.
     * @param costModel Timing constants for transit computation.
     * @param ringCapacity Slots per inbox ring.
     */
    Network(int nnodes, const CostModel &costModel,
            std::size_t ringCapacity = MpscRing::kDefaultCapacity);

    /**
     * Send @p msg (src/dst/vtSendNs must be filled in). Computes the
     * arrival virtual time and enqueues into the destination inbox.
     * Thread safe.
     *
     * @param senderStats Counters of the sending node (bytes and
     *        messages are recorded there).
     */
    void send(Message &&msg, NodeStats &senderStats) override;

    /**
     * Blocking receive of the next message for @p node, in enqueue
     * order (asserted per sender/receiver pair via Message::pairSeq).
     * Must be called by one thread per node at a time. Returns false
     * if the network was shut down and the inbox is drained.
     */
    bool recv(NodeId node, Message &out) override;

    /**
     * recv() with a typed status: returns RingPop::PeerDown (without
     * blocking) when @p node's inbox is empty and the node is marked
     * dead via markNodeDown — the path recovery-aware consumers use so
     * a dead peer cannot park them forever.
     */
    RingPop recvStatus(NodeId node, Message &out) override;

    /**
     * recv() with a deadline: returns RingPop::Timeout once
     * @p timeout_ns elapses with @p node's inbox still empty. The
     * periodic-wake primitive of a failure-detecting service loop;
     * ignores the node's own peer-down flag (see MpscRing::popTimed).
     */
    RingPop recvTimed(NodeId node, Message &out,
                      std::uint64_t timeout_ns) override;

    /**
     * Mark @p node dead (chaos kill in progress): status-aware
     * receives on its inbox stop blocking, while sends to it keep
     * buffering in the inbox — the "parked outbound traffic" the
     * restored node drains when it replays forward.
     */
    void markNodeDown(NodeId node) override;

    /** Recovery complete: @p node's inbox blocks normally again. */
    void clearNodeDown(NodeId node) override;

    /**
     * Install the fault-injection layer between send() and the
     * inboxes. Null (the default) keeps the send path bit-identical
     * to a build without the layer — one pointer test.
     */
    void setFaultInjector(FaultInjector *injector) override
    {
        faults = injector;
    }

    /**
     * Register (or, with null, deregister) @p node's direct reply
     * sink. While registered, send() offers every reply for @p node
     * to it first — subject to the per-pair ordering guard below —
     * and only refused replies enter the inbox. Serialized against
     * in-flight sends: after a null store returns, no sender can
     * still be inside the receiver.
     *
     * Ordering guard: a reply is only bypassed while the sender has
     * zero other messages outstanding in the destination's inbox
     * (per-(src, dst) counter, incremented before the inbox push and
     * decremented by noteDispatched after the receiver finished the
     * handler). This pins the network's in-order-per-pair guarantee
     * across the two delivery paths: a bypassed reply can never
     * overtake an earlier HomeMigrate install or LockForward-chain
     * message from the same sender still sitting in the ring (the
     * EndpointTest *NeverOvertakes* choreographies pin both).
     */
    void setReplyReceiver(NodeId node, ReplyReceiver *receiver) override;

    /**
     * Record that @p dst fully dispatched one inbox message from
     * @p src (handler completed): re-arms the reply-bypass ordering
     * guard for the pair. Called by the owning Endpoint only; a
     * consumer that drains the inbox without it (raw recv loops,
     * checkpoint quiesce) merely leaves the guard engaged, refusing
     * future bypasses for the pair — the safe direction.
     */
    void noteDispatched(NodeId dst, NodeId src) override;

    /**
     * Switch every inbox ring's empty-wait spin to the dynamically
     * sized budget (DSM_BLOCKING_DEQ; see MpscRing::setAdaptiveSpin).
     * Call before any consumer starts.
     */
    void setAdaptiveInboxSpin(bool on) override;

    /** Wake all receivers and make subsequent recv() return false. */
    void shutdown() override;

    int nnodes() const override { return static_cast<int>(inboxes.size()); }

    const CostModel &costModel() const override { return cm; }

    /** Total messages accepted. */
    std::uint64_t totalMessages() const override;

  private:
    struct Inbox
    {
        Inbox(int nnodes, std::size_t capacity)
            : ring(capacity), lastDelivered(nnodes, 0)
        {}

        MpscRing ring;
        /** Last pairSeq delivered per source (consumer-side; guards
         *  the in-order-per-pair invariant). */
        std::vector<std::uint64_t> lastDelivered;
    };

    /** One node's reply sink, guarded by its own mutex so
     *  deregistration (endpoint stop/teardown) synchronizes with
     *  senders mid-delivery. */
    struct ReceiverSlot
    {
        std::mutex mu;
        ReplyReceiver *receiver = nullptr;
    };

    CostModel cm;
    FaultInjector *faults = nullptr; ///< not owned; null = layer off
    std::vector<std::unique_ptr<Inbox>> inboxes;
    std::vector<std::unique_ptr<ReceiverSlot>> replySlots;
    std::atomic<std::uint64_t> accepted{0};
    /** Per-(src, dst) count of inbox messages accepted but not yet
     *  fully dispatched — the reply-bypass ordering guard. */
    std::vector<std::atomic<std::uint32_t>> pairOutstanding;

    std::size_t
    pairIndex(NodeId src, NodeId dst) const
    {
        return static_cast<std::size_t>(src) * inboxes.size() + dst;
    }
};

} // namespace dsm

#endif // DSM_NET_NETWORK_HH
