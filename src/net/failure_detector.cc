#include "net/failure_detector.hh"

#include "net/network.hh"
#include "util/logging.hh"

namespace dsm {

FailureDetector::FailureDetector(Network &net, int nnodes,
                                 std::uint64_t deadline_ns,
                                 FaultInjector *injector)
    : net(net), injector(injector), deadline(deadline_ns),
      epoch(std::chrono::steady_clock::now()), peers(nnodes)
{
    DSM_ASSERT(deadline_ns > 0, "failure detector needs a deadline");
    DSM_ASSERT(nnodes <= 64, "down mask is 64 bits wide");
    // Everyone starts healthy with a full deadline of grace.
    const std::uint64_t now = nowNs();
    for (PeerSlot &slot : peers)
        slot.lastHeardNs.store(now, std::memory_order_relaxed);
}

std::uint64_t
FailureDetector::nowNs()
    const
{
    return static_cast<std::uint64_t>(
        std::chrono::nanoseconds(std::chrono::steady_clock::now() -
                                 epoch)
            .count());
}

void
FailureDetector::heartbeat(NodeId self)
{
    // A silenced node's traffic never arrives anywhere, so its
    // in-process heartbeat must not arrive either — otherwise the
    // injected outage would be undetectable.
    if (injector && injector->silenced(self))
        return;
    peers[self].lastHeardNs.store(nowNs(), std::memory_order_release);
}

bool
FailureDetector::declareDown(NodeId node)
{
    const std::uint64_t bit = std::uint64_t{1} << node;
    std::uint64_t mask = downMask.load(std::memory_order_acquire);
    while (!(mask & bit)) {
        if (downMask.compare_exchange_weak(mask, mask | bit,
                                           std::memory_order_acq_rel)) {
            net.markNodeDown(node);
            return true;
        }
    }
    return false;
}

bool
FailureDetector::declareRecovered(NodeId node)
{
    const std::uint64_t bit = std::uint64_t{1} << node;
    std::uint64_t mask = downMask.load(std::memory_order_acquire);
    while (mask & bit) {
        if (downMask.compare_exchange_weak(mask, mask & ~bit,
                                           std::memory_order_acq_rel)) {
            net.clearNodeDown(node);
            peers[node].recoverySeq.fetch_add(
                1, std::memory_order_acq_rel);
            return true;
        }
    }
    return false;
}

void
FailureDetector::heard(NodeId src, NodeStats &stats)
{
    peers[src].lastHeardNs.store(nowNs(), std::memory_order_release);
    if (isDown(src) && declareRecovered(src))
        stats.peerDownRecoveries++;
}

void
FailureDetector::tick(NodeId self, NodeStats &stats)
{
    const std::uint64_t now = nowNs();
    for (NodeId n = 0; n < static_cast<NodeId>(peers.size()); ++n) {
        if (n == self)
            continue;
        const std::uint64_t last =
            peers[n].lastHeardNs.load(std::memory_order_acquire);
        const bool expired = now > last && now - last > deadline;
        if (expired && !isDown(n)) {
            if (declareDown(n))
                stats.peerDownDetections++;
        } else if (!expired && isDown(n)) {
            if (declareRecovered(n))
                stats.peerDownRecoveries++;
        }
    }
}

} // namespace dsm
