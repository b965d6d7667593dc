/**
 * @file
 * The cluster interconnect abstraction. Two tiers implement it:
 *
 *  - tier 0, `Network` (net/network.hh): the in-process interconnect —
 *    every node is a thread group in one address space and messages
 *    move through per-node lock-free MPSC rings. This is the
 *    historical substrate every result so far was measured on.
 *  - tier 1, `SocketTransport` (net/socket_transport.hh): every node
 *    is its own OS process; messages cross real Unix-domain or TCP
 *    sockets as length-prefixed frames carrying the same serde wire
 *    payloads. The process launcher (driver/proc_launcher.hh) forks
 *    the node processes and rendezvouses them through a socket
 *    directory.
 *
 * Endpoint — and through it every runtime, lock service and barrier
 * service — talks only to this interface, so the whole protocol stack
 * is transport-neutral: the cross-protocol conformance suite runs
 * bit-identically on both tiers (the correctness anchor of the
 * socket backend).
 *
 * Semantics every implementation must provide:
 *  - reliable in-order delivery per (src, dst) pair;
 *  - virtual-time arrival stamps computed from the shared CostModel
 *    at send time (the modeled wire is identical on both tiers);
 *  - the reply-bypass ordering guard: a reply may skip the inbox only
 *    while its sender has no earlier message to the same destination
 *    still undispatched (noteDispatched re-arms the pair);
 *  - the fault-injection hook between send() and delivery.
 */

#ifndef DSM_NET_TRANSPORT_HH
#define DSM_NET_TRANSPORT_HH

#include <cstdint>
#include <vector>

#include "net/fault_injector.hh"
#include "net/message.hh"
#include "net/mpsc_ring.hh"
#include "time/cost_model.hh"
#include "util/stats.hh"

namespace dsm {

/**
 * The modeled wire both tiers charge a send with: stamp @p msg's
 * virtual arrival time and count the transmission in @p senderStats.
 */
void chargeModeledWire(Message &msg, const CostModel &cm,
                       NodeStats &senderStats);

/**
 * The in-order-per-pair check both tiers run on every inbox pop:
 * @p msg's pairSeq must exceed the last one @p dst received from the
 * same source (@p lastDelivered, indexed by source; updated here).
 * Unstamped (pairSeq 0) messages are exempt.
 */
void checkDeliveryOrder(const Message &msg, NodeId dst,
                        std::vector<std::uint64_t> &lastDelivered);

/**
 * Sink for replies delivered straight to the destination's parked
 * caller, skipping the inbox and the service-thread hop (the reply
 * wake is the hottest hand-off in the system: every call() pays inbox
 * push + service-thread wake + pending-map route + caller wake for a
 * message whose sole consumer is already known). Implemented by
 * Endpoint.
 */
class ReplyReceiver
{
  public:
    virtual ~ReplyReceiver() = default;

    /**
     * Try to hand @p msg to the caller parked on its reply token.
     * Returns false — leaving @p msg intact — when no caller is
     * parked (e.g. the destination is quiesced at a checkpoint cut);
     * the message then takes the ordinary inbox path.
     */
    virtual bool tryDeliverReply(Message &msg) = 0;
};

class Transport
{
  public:
    virtual ~Transport() = default;

    /**
     * Send @p msg (src/dst/vtSendNs must be filled in). Computes the
     * arrival virtual time and delivers toward the destination inbox.
     * Thread safe.
     *
     * @param senderStats Counters of the sending node (bytes and
     *        messages are recorded there).
     */
    virtual void send(Message &&msg, NodeStats &senderStats) = 0;

    /**
     * Blocking receive of the next message for @p node, in enqueue
     * order (asserted per sender/receiver pair via Message::pairSeq).
     * Must be called by one thread per node at a time. Returns false
     * if the transport was shut down and the inbox is drained. A
     * process-per-node transport only serves its own node's inbox.
     */
    virtual bool recv(NodeId node, Message &out) = 0;

    /**
     * recv() with a typed status: returns RingPop::PeerDown (without
     * blocking) when @p node's inbox is empty and the node is marked
     * dead via markNodeDown — the path recovery-aware consumers use so
     * a dead peer cannot park them forever.
     */
    virtual RingPop recvStatus(NodeId node, Message &out) = 0;

    /**
     * recv() with a deadline: returns RingPop::Timeout once
     * @p timeout_ns elapses with @p node's inbox still empty. The
     * periodic-wake primitive of a failure-detecting service loop.
     */
    virtual RingPop recvTimed(NodeId node, Message &out,
                              std::uint64_t timeout_ns) = 0;

    /**
     * Mark @p node dead (chaos kill / outage in progress):
     * status-aware receives on its inbox stop blocking, while sends
     * to it keep buffering — the "parked outbound traffic" a restored
     * node drains when it replays forward.
     */
    virtual void markNodeDown(NodeId node) = 0;

    /** Recovery complete: @p node's inbox blocks normally again. */
    virtual void clearNodeDown(NodeId node) = 0;

    /**
     * Install the fault-injection layer between send() and the
     * inboxes. Null (the default) keeps the send path bit-identical
     * to a build without the layer — one pointer test.
     */
    virtual void setFaultInjector(FaultInjector *injector) = 0;

    /**
     * Register (or, with null, deregister) @p node's direct reply
     * sink. While registered, replies for @p node are offered to it
     * first — subject to the per-pair ordering guard — and only
     * refused replies enter the inbox. Serialized against in-flight
     * deliveries: after a null store returns, no delivering thread
     * can still be inside the receiver.
     */
    virtual void setReplyReceiver(NodeId node,
                                  ReplyReceiver *receiver) = 0;

    /**
     * Record that @p dst fully dispatched one inbox message from
     * @p src (handler completed): re-arms the reply-bypass ordering
     * guard for the pair. Called by the owning Endpoint only.
     */
    virtual void noteDispatched(NodeId dst, NodeId src) = 0;

    /**
     * Switch every owned inbox ring's empty-wait spin to the
     * dynamically sized budget (DSM_BLOCKING_DEQ). Call before any
     * consumer starts.
     */
    virtual void setAdaptiveInboxSpin(bool on) = 0;

    /** Wake all receivers and make subsequent recv() return false. */
    virtual void shutdown() = 0;

    /** Cluster size (nodes, not processes-owned-here). */
    virtual int nnodes() const = 0;

    virtual const CostModel &costModel() const = 0;

    /** Total messages accepted by this transport instance (a
     *  process-per-node transport counts its own sends only). */
    virtual std::uint64_t totalMessages() const = 0;
};

} // namespace dsm

#endif // DSM_NET_TRANSPORT_HH
