/**
 * @file
 * Deterministic, seeded fault injection between Network::send and the
 * destination inbox. Two fault classes:
 *
 *  - message drops: a configurable fraction of *droppable* messages is
 *    discarded before it reaches the inbox. Only direct request/reply
 *    RPCs are droppable — chain-routed traffic (lock forwarding,
 *    home flush/migrate chains) has no end-to-end retransmit owner, so
 *    dropping it would hang the run rather than exercise recovery.
 *    The Endpoint's deadline + bounded-retransmit path (enabled by the
 *    same knob) recovers dropped requests and replies.
 *  - node kill: the CheckpointCoordinator (core/checkpoint.hh) reads
 *    the armed (node, epoch) pair and wipes + restores the victim at
 *    that barrier cut.
 *
 * Decisions hash (seed, src, dst, type, sequence) through a
 * splitmix64 mix, so a run with one seed drops the same messages every
 * time modulo thread interleaving, and the nightly chaos workflow can
 * rotate seeds to cover different drop patterns.
 */

#ifndef DSM_NET_FAULT_INJECTOR_HH
#define DSM_NET_FAULT_INJECTOR_HH

#include <atomic>
#include <cstdint>

#include "net/message.hh"

namespace dsm {

class FaultInjector
{
  public:
    /**
     * @param seed Seed for the drop hash (DSM_FAULT_SEED).
     * @param drop_rate Fraction of droppable messages discarded,
     *        in [0, 1) (DSM_FAULT_MSG_DROP).
     */
    FaultInjector(std::uint64_t seed, double drop_rate);

    /**
     * Retransmit attempts at or past this index are never dropped:
     * every request is delivered after a bounded number of tries, so
     * fault injection can never hang a run, only slow it.
     */
    static constexpr std::uint8_t kAttemptImmunity = 3;

    /** True iff dropping @p type cannot wedge the protocol (direct
     *  request/reply RPCs with an end-to-end retransmit owner). */
    static bool droppable(MsgType type);

    /** Decide the fate of @p msg at send time: true = discard it. */
    bool dropMessage(const Message &msg);

    /**
     * Silence @p node (or lift the silence): while set, every
     * droppable message with @p node as source or destination is
     * discarded unconditionally — no rate hash, *no attempt immunity*
     * (a 100%-drop outage must defeat the bounded-retry guarantee, or
     * it would not be an outage). Non-droppable chain traffic still
     * flows, so the protocol cannot wedge; the failure detector is
     * what turns the silence into a typed PeerDown. Thread safe.
     */
    void setSilenced(NodeId node, bool silenced);

    /** Is @p node currently silenced? */
    bool
    silenced(NodeId node) const
    {
        return (silencedMask.load(std::memory_order_acquire) >>
                node) & 1;
    }

    /** Any node silenced? (fast path gate) */
    bool
    anySilenced() const
    {
        return silencedMask.load(std::memory_order_acquire) != 0;
    }

    /** Messages discarded so far (diagnostic). */
    std::uint64_t dropped() const
    {
        return droppedCount.load(std::memory_order_relaxed);
    }

  private:
    std::uint64_t seed;
    double rate;
    /** Per-decision sequence so identical (src, dst, type) triples
     *  do not share one fate. */
    std::atomic<std::uint64_t> decisionSeq{0};
    std::atomic<std::uint64_t> droppedCount{0};
    /** Bit per node: all its droppable traffic is discarded. */
    std::atomic<std::uint64_t> silencedMask{0};
};

} // namespace dsm

#endif // DSM_NET_FAULT_INJECTOR_HH
