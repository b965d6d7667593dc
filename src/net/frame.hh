/**
 * @file
 * Length-prefixed framing for the socket transport. A byte stream
 * between two peers carries a sequence of frames:
 *
 *     u32 length   — bytes that follow the prefix (little endian)
 *     u8  kind     — FrameKind
 *     ... body     — kind-specific, encoded with the serde writers
 *
 * Body layouts:
 *  - Hello:   u32 magic, u16 version, i32 sender node id, i32 cluster
 *             size. First frame on every connection, both directions;
 *             identifies the peer and rejects cross-run or cross-size
 *             mismatches at accept time.
 *  - Data:    the Message header fields that travel (src, dst, type,
 *             isReply, attempt, replyToken, vtSendNs, vtArriveNs)
 *             followed by the raw payload bytes. pairSeq deliberately
 *             does NOT travel: it is simulation metadata assigned by
 *             the receiver's local inbox ring at push time, exactly as
 *             on the in-process tier.
 *  - Goodbye: i32 sender node id, u8 round. The two-round termination
 *             rendezvous of the process-per-node launcher: round 1 =
 *             "my workers joined" (no new request chains can start),
 *             round 2 = "I saw everyone's round 1" (nothing I write
 *             after this; a round-2 goodbye therefore seals its
 *             stream — every earlier frame on it has been read once
 *             the receiver decodes it).
 *
 * The decoder is incremental: feed() accepts arbitrary chunkings of
 * the stream (partial length prefixes, frames split at any byte,
 * multiple frames per read) and next() yields complete frames in
 * order. A length prefix above kMaxFrameBytes poisons the decoder —
 * the connection carries garbage and must be torn down, never
 * allocated for.
 */

#ifndef DSM_NET_FRAME_HH
#define DSM_NET_FRAME_HH

#include <cstdint>
#include <span>
#include <vector>

#include "net/message.hh"

namespace dsm {

enum class FrameKind : std::uint8_t
{
    Invalid = 0,
    Hello,
    Data,
    Goodbye,
};

/** Handshake magic ("DSM1" little-endian) — rejects strangers and
 *  byte-order mismatches in the first four body bytes. */
constexpr std::uint32_t kFrameMagic = 0x314d5344;

/** Framing protocol version; bumped on any layout change. */
constexpr std::uint16_t kFrameVersion = 1;

/** Hard ceiling on one frame's post-prefix length. Generously above
 *  any legitimate message (pages are KBs; the largest, a migration
 *  batch, carries one page copy per moved page) while
 *  keeping a corrupt length prefix from turning into a giant
 *  allocation. */
constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/** One decoded frame. For Data, `msg` is fully populated except
 *  pairSeq; for Hello/Goodbye, `node` (and Hello's `nnodes`). */
struct Frame
{
    FrameKind kind = FrameKind::Invalid;
    NodeId node = -1; ///< Hello/Goodbye: the peer's node id
    int nnodes = 0;   ///< Hello: the peer's idea of the cluster size
    int round = 0;    ///< Goodbye: termination round (1 or 2)
    Message msg;      ///< Data: the carried message
};

/** Encode @p msg as a Data frame (length prefix included). */
std::vector<std::byte> encodeDataFrame(const Message &msg);

/** Encode the connection-opening handshake frame. */
std::vector<std::byte> encodeHelloFrame(NodeId self, int nnodes);

/** Encode the run-termination frame for @p round (1 or 2). */
std::vector<std::byte> encodeGoodbyeFrame(NodeId self, int round);

/**
 * Incremental frame decoder for one connection's byte stream.
 * Single-consumer: the connection's reader thread owns it.
 */
class FrameDecoder
{
  public:
    /** Append @p chunk (any size, including empty) to the stream. */
    void feed(std::span<const std::byte> chunk);

    /**
     * Decode the next complete frame into @p out. Returns false when
     * the buffered bytes do not yet form a complete frame (read more
     * and feed again) or the decoder is poisoned.
     */
    bool next(Frame &out);

    /**
     * Stream integrity lost: an oversized or malformed frame was
     * seen. Poisoning is sticky — feed() discards and next() refuses
     * from then on; the owner must drop the connection.
     */
    bool poisoned() const { return poisonedFlag; }

    /** Bytes buffered but not yet consumed by next(). */
    std::size_t buffered() const { return buf.size() - pos; }

  private:
    std::vector<std::byte> buf;
    std::size_t pos = 0; ///< consumed prefix of buf
    bool poisonedFlag = false;
};

} // namespace dsm

#endif // DSM_NET_FRAME_HH
