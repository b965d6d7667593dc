/**
 * @file
 * The message types exchanged by the DSM runtimes. One enum covers
 * both models; each runtime only handles the subset it uses.
 */

#ifndef DSM_NET_MESSAGE_HH
#define DSM_NET_MESSAGE_HH

#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace dsm {

enum class MsgType : std::uint8_t
{
    Invalid = 0,

    // Lock protocol (shared by EC and LRC; Section 6 of the paper).
    LockRequest,   ///< requester -> manager
    LockForward,   ///< manager -> last owner
    LockGrant,     ///< owner -> requester (reply; carries consistency
                   ///< payload: EC data / LRC write notices)

    // Barrier protocol.
    BarrierArrive, ///< node -> barrier manager
    BarrierDepart, ///< manager -> node (reply; LRC: interval records)

    // LRC access-miss servicing.
    DiffBatchRequest, ///< faulting node -> writer: several pages' worth
                      ///< of missing intervals in one round trip
    DiffBatchReply,
    PageTsBatchRequest, ///< faulting node -> writer: timestamp runs for
                        ///< several pages in one round trip
    PageTsBatchReply,
    PageCopyRequest, ///< faulting node -> keeper: whole committed copies
                     ///< of pages it discarded at barrier GC
    PageCopyReply,

    // Home-based LRC (pages have homes that absorb diffs eagerly).
    HomeDiffFlush,   ///< writer -> home: diffs of one closed interval
    HomePageRequest, ///< faulting node -> home (forwarded on stale maps)
    HomePageReply,   ///< home -> faulting node: full up-to-date copy
    HomeMigrate,     ///< old home -> every peer: one entry per page of
                     ///< a migration batch (mapping update, plus the
                     ///< page copy + home state for its new home)

    // Infrastructure.
    Shutdown,      ///< cluster teardown of the service loop

    NumTypes,
};

/** Human-readable message type name. */
const char *toString(MsgType type);

/**
 * A network message. Fixed header plus opaque payload. The header
 * size approximates the AAL3/4 + protocol header overhead and is
 * charged on the wire.
 */
struct Message
{
    NodeId src = -1;
    NodeId dst = -1;
    MsgType type = MsgType::Invalid;
    bool isReply = false;
    /** Token routing a reply back to the blocked requester; 0 = none. */
    std::uint64_t replyToken = 0;
    /** Sender's virtual clock at send time. */
    std::uint64_t vtSendNs = 0;
    /** Computed arrival virtual time (set by the network). */
    std::uint64_t vtArriveNs = 0;
    /**
     * Delivery-order stamp assigned by the inbox ring (its ticket;
     * 0 = unstamped). Simulation metadata, not
     * on the modeled wire; recv() asserts it increases per (src, dst)
     * pair — the in-order-per-pair delivery guarantee.
     */
    std::uint64_t pairSeq = 0;
    /**
     * Transmission attempt of this request (0 = first send). Only the
     * Endpoint retransmit path under fault injection ever sets it;
     * simulation metadata, not on the modeled wire. The injector never
     * drops a late attempt, which bounds the retry storm and makes
     * delivery certain.
     */
    std::uint8_t attempt = 0;
    std::vector<std::byte> payload;

    /** Modeled wire header bytes. */
    static constexpr std::size_t kHeaderBytes = 32;

    /** Total modeled size on the wire. */
    std::size_t wireSize() const { return kHeaderBytes + payload.size(); }
};

} // namespace dsm

#endif // DSM_NET_MESSAGE_HH
