#include "net/fault_injector.hh"

#include "util/logging.hh"

namespace dsm {

namespace {

/** splitmix64 finalizer: a cheap, well-distributed 64-bit mix. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

FaultInjector::FaultInjector(std::uint64_t seed, double drop_rate)
    : seed(seed), rate(drop_rate)
{
    DSM_ASSERT(drop_rate >= 0 && drop_rate < 1, "bad drop rate %f",
               drop_rate);
}

bool
FaultInjector::droppable(MsgType type)
{
    switch (type) {
    // Direct request/reply RPCs: the requester owns the round trip
    // end to end, so the Endpoint deadline + retransmit path recovers
    // a drop of either direction.
    case MsgType::BarrierArrive:
    case MsgType::BarrierDepart:
    case MsgType::DiffBatchRequest:
    case MsgType::DiffBatchReply:
    case MsgType::PageTsBatchRequest:
    case MsgType::PageTsBatchReply:
        return true;
    // Chain-routed or one-way traffic: a LockRequest is answered via
    // LockForward at a *third* node, home flushes forward along stale
    // mapping chains, HomeMigrate is a broadcast — none has a single
    // owner that could retransmit, so a drop would wedge the protocol
    // instead of exercising recovery. Shutdown is infrastructure.
    case MsgType::LockRequest:
    case MsgType::LockForward:
    case MsgType::LockGrant:
    case MsgType::HomeDiffFlush:
    case MsgType::HomePageRequest:
    case MsgType::HomePageReply:
    case MsgType::HomeMigrate:
    case MsgType::Shutdown:
    case MsgType::Invalid:
    case MsgType::NumTypes:
        return false;
    }
    return false;
}

void
FaultInjector::setSilenced(NodeId node, bool is_silenced)
{
    const std::uint64_t bit = std::uint64_t{1} << node;
    if (is_silenced)
        silencedMask.fetch_or(bit, std::memory_order_acq_rel);
    else
        silencedMask.fetch_and(~bit, std::memory_order_acq_rel);
}

bool
FaultInjector::dropMessage(const Message &msg)
{
    if (!droppable(msg.type))
        return false;
    // Silence first: it overrides both the rate gate and the attempt
    // immunity (a silenced peer's retransmits are as dead as its first
    // sends — that is what makes the outage total).
    if (anySilenced()) {
        const std::uint64_t mask =
            silencedMask.load(std::memory_order_acquire);
        if (((mask >> msg.src) & 1) || ((mask >> msg.dst) & 1)) {
            droppedCount.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
    }
    if (rate <= 0)
        return false;
    if (msg.attempt >= kAttemptImmunity)
        return false; // bounded retries always get through
    const std::uint64_t n =
        decisionSeq.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t h = mix64(seed ^ mix64(n));
    h = mix64(h ^ (static_cast<std::uint64_t>(msg.src) << 40) ^
              (static_cast<std::uint64_t>(msg.dst) << 20) ^
              static_cast<std::uint64_t>(msg.type));
    // Top 53 bits -> uniform double in [0, 1).
    const double u =
        static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
    if (u >= rate)
        return false;
    droppedCount.fetch_add(1, std::memory_order_relaxed);
    return true;
}

} // namespace dsm
