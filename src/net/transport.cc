#include "net/transport.hh"

#include "util/logging.hh"

namespace dsm {

void
chargeModeledWire(Message &msg, const CostModel &cm,
                  NodeStats &sender_stats)
{
    const std::size_t bytes = msg.wireSize();
    msg.vtArriveNs = msg.vtSendNs + cm.transitNs(bytes);
    sender_stats.messagesSent++;
    sender_stats.bytesSent += bytes;
}

void
checkDeliveryOrder(const Message &msg, NodeId dst,
                   std::vector<std::uint64_t> &last_delivered)
{
    if (msg.pairSeq == 0)
        return;
    std::uint64_t &last = last_delivered[msg.src];
    DSM_ASSERT(msg.pairSeq > last,
               "out-of-order delivery %d->%d: pairSeq %llu after %llu",
               msg.src, dst, static_cast<unsigned long long>(msg.pairSeq),
               static_cast<unsigned long long>(last));
    last = msg.pairSeq;
}

} // namespace dsm
