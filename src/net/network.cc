#include "net/network.hh"

#include "util/logging.hh"

namespace dsm {

Network::Network(int nnodes, const CostModel &cost_model,
                 std::size_t ring_capacity)
    : cm(cost_model)
{
    DSM_ASSERT(nnodes > 0, "network needs at least one node");
    inboxes.reserve(nnodes);
    for (int i = 0; i < nnodes; ++i) {
        inboxes.push_back(std::make_unique<Inbox>(nnodes, ring_capacity));
        replySlots.push_back(std::make_unique<ReceiverSlot>());
    }
    pairOutstanding = std::vector<std::atomic<std::uint32_t>>(
        static_cast<std::size_t>(nnodes) * nnodes);
}

void
Network::send(Message &&msg, NodeStats &sender_stats)
{
    DSM_ASSERT(msg.dst >= 0 && msg.dst < nnodes(), "bad destination %d",
               msg.dst);
    DSM_ASSERT(msg.src >= 0 && msg.src < nnodes(), "bad source %d",
               msg.src);
    DSM_ASSERT(msg.type != MsgType::Invalid, "untyped message");

    chargeModeledWire(msg, cm, sender_stats);
    accepted.fetch_add(1);

    // Fault-injection layer: the message went on the (modeled) wire —
    // it was counted and charged — but never reaches the destination
    // inbox. The Endpoint deadline/retransmit path recovers it. One
    // pointer test when the layer is off.
    if (faults && faults->dropMessage(msg)) {
        sender_stats.messagesDropped++;
        return;
    }

    // Reply bypass: hand the reply straight to the parked caller
    // instead of paying inbox push + service-thread wake + futex
    // route. All wire accounting above already happened; only the
    // simulation-metadata pairSeq stamp is skipped (bypassed replies
    // never pass recv(), so the in-order-per-pair assert never sees
    // them). Guarded by the per-pair outstanding counter: while this
    // sender still has undispatched messages in the destination's
    // inbox (a HomeMigrate install, a forwarded lock chain), the
    // reply must queue behind them — the counter was incremented
    // before those pushes, so any happens-before-ordered reply
    // observes it nonzero until the receiver's handler finished
    // (noteDispatched's release decrement pairs with this acquire
    // load). Under fault injection the slot
    // additionally refuses occupied tokens, funnelling duplicate
    // retransmitted replies to the service thread's dedup window.
    if (msg.isReply) {
        ReceiverSlot &slot = *replySlots[msg.dst];
        std::lock_guard<std::mutex> g(slot.mu);
        if (slot.receiver) {
            if (pairOutstanding[pairIndex(msg.src, msg.dst)].load(
                    std::memory_order_acquire) == 0 &&
                slot.receiver->tryDeliverReply(msg)) {
                sender_stats.repliesBypassed++;
                return;
            }
            sender_stats.replyBypassRefusals++;
        }
    }

    // From here the message is committed to the inbox: engage the
    // ordering guard before the push so the increment is visible to
    // any later reply send ordered after this one. Shutdown skips it
    // (teardown never dispatches through the endpoint).
    if (msg.type != MsgType::Shutdown) {
        pairOutstanding[pairIndex(msg.src, msg.dst)].fetch_add(
            1, std::memory_order_relaxed);
    }

    // The ring ticket doubles as the pair sequence stamp (push assigns
    // it): tickets are claimed in delivery order, so the per-pair
    // subsequence is strictly increasing — exactly the documented
    // guarantee. A zero ticket (shutdown) drops the message, matching
    // the teardown semantics of recv().
    inboxes[msg.dst]->ring.push(std::move(msg));
}

bool
Network::recv(NodeId node, Message &out)
{
    DSM_ASSERT(node >= 0 && node < nnodes(), "bad node %d", node);
    Inbox &box = *inboxes[node];
    if (!box.ring.pop(out))
        return false;
    checkDeliveryOrder(out, node, box.lastDelivered);
    return true;
}

RingPop
Network::recvStatus(NodeId node, Message &out)
{
    DSM_ASSERT(node >= 0 && node < nnodes(), "bad node %d", node);
    Inbox &box = *inboxes[node];
    const RingPop status = box.ring.popWithStatus(out);
    if (status == RingPop::Ok)
        checkDeliveryOrder(out, node, box.lastDelivered);
    return status;
}

RingPop
Network::recvTimed(NodeId node, Message &out, std::uint64_t timeout_ns)
{
    DSM_ASSERT(node >= 0 && node < nnodes(), "bad node %d", node);
    Inbox &box = *inboxes[node];
    const RingPop status = box.ring.popTimed(out, timeout_ns);
    if (status == RingPop::Ok)
        checkDeliveryOrder(out, node, box.lastDelivered);
    return status;
}

void
Network::setReplyReceiver(NodeId node, ReplyReceiver *receiver)
{
    DSM_ASSERT(node >= 0 && node < nnodes(), "bad node %d", node);
    ReceiverSlot &slot = *replySlots[node];
    std::lock_guard<std::mutex> g(slot.mu);
    slot.receiver = receiver;
}

void
Network::noteDispatched(NodeId dst, NodeId src)
{
    pairOutstanding[pairIndex(src, dst)].fetch_sub(
        1, std::memory_order_release);
}

void
Network::setAdaptiveInboxSpin(bool on)
{
    for (auto &box : inboxes)
        box->ring.setAdaptiveSpin(on);
}

void
Network::markNodeDown(NodeId node)
{
    DSM_ASSERT(node >= 0 && node < nnodes(), "bad node %d", node);
    inboxes[node]->ring.setPeerDown(true);
}

void
Network::clearNodeDown(NodeId node)
{
    DSM_ASSERT(node >= 0 && node < nnodes(), "bad node %d", node);
    inboxes[node]->ring.setPeerDown(false);
}

void
Network::shutdown()
{
    for (auto &box : inboxes)
        box->ring.shutdown();
}

std::uint64_t
Network::totalMessages() const
{
    return accepted.load();
}

} // namespace dsm
