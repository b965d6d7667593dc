#include "net/socket_transport.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <thread>

#include "net/frame.hh"
#include "util/logging.hh"

namespace dsm {

namespace {

/** A full read() wrapper tolerating EINTR; 0 = EOF, -1 = error. */
ssize_t
readSome(int fd, std::byte *buf, std::size_t cap)
{
    for (;;) {
        const ssize_t n = ::read(fd, buf, cap);
        if (n >= 0)
            return n;
        if (errno == EINTR)
            continue;
        return -1;
    }
}

} // namespace

SocketTransport::SocketTransport(NodeId self, int nnodes,
                                 const CostModel &cost_model,
                                 SocketKind kind, std::string dir_,
                                 std::size_t ring_capacity)
    : cm(cost_model), id(self), numNodes(nnodes), sockKind(kind),
      dir(std::move(dir_))
{
    DSM_ASSERT(nnodes > 0, "transport needs at least one node");
    DSM_ASSERT(self >= 0 && self < nnodes, "bad self id %d", self);
    inbox = std::make_unique<MpscRing>(ring_capacity);
    lastDelivered.assign(nnodes, 0);
    srcOutstanding = std::vector<std::atomic<std::uint32_t>>(nnodes);
    out.reserve(nnodes);
    for (int i = 0; i < nnodes; ++i)
        out.push_back(std::make_unique<OutStream>());
    goodbyeRound.assign(nnodes, 0);
    goodbyeRound[id] = 2; // self never needs a wire goodbye

    // Writes to a peer that exited early must surface as an errno,
    // not a process-killing SIGPIPE (MSG_NOSIGNAL covers send(); this
    // covers any stray write path).
    ::signal(SIGPIPE, SIG_IGN);

    if (sockKind == SocketKind::Unix) {
        listenFd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        DSM_ASSERT(listenFd >= 0, "socket(AF_UNIX): %s",
                   std::strerror(errno));
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        const std::string path = listenPath();
        DSM_ASSERT(path.size() < sizeof(addr.sun_path),
                   "rendezvous path too long: %s", path.c_str());
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        ::unlink(path.c_str());
        DSM_ASSERT(::bind(listenFd,
                          reinterpret_cast<const sockaddr *>(&addr),
                          sizeof(addr)) == 0,
                   "bind(%s): %s", path.c_str(), std::strerror(errno));
    } else {
        listenFd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        DSM_ASSERT(listenFd >= 0, "socket(AF_INET): %s",
                   std::strerror(errno));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = 0; // ephemeral
        DSM_ASSERT(::bind(listenFd,
                          reinterpret_cast<const sockaddr *>(&addr),
                          sizeof(addr)) == 0,
                   "bind(loopback): %s", std::strerror(errno));
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        DSM_ASSERT(::getsockname(listenFd,
                                 reinterpret_cast<sockaddr *>(&bound),
                                 &len) == 0,
                   "getsockname: %s", std::strerror(errno));
        listenPort = ntohs(bound.sin_port);
        // Publish the port atomically: peers polling the directory
        // must never read a half-written file.
        const std::string tmp =
            dir + "/node-" + std::to_string(id) + ".port.tmp";
        const std::string final_path =
            dir + "/node-" + std::to_string(id) + ".port";
        FILE *f = std::fopen(tmp.c_str(), "w");
        DSM_ASSERT(f != nullptr, "fopen(%s): %s", tmp.c_str(),
                   std::strerror(errno));
        std::fprintf(f, "%u\n", static_cast<unsigned>(listenPort));
        std::fclose(f);
        DSM_ASSERT(std::rename(tmp.c_str(), final_path.c_str()) == 0,
                   "rename(%s): %s", final_path.c_str(),
                   std::strerror(errno));
    }
    DSM_ASSERT(::listen(listenFd, numNodes + 8) == 0, "listen: %s",
               std::strerror(errno));
    if (numNodes > 1)
        acceptThread = std::thread([this] { acceptLoop(); });
}

SocketTransport::~SocketTransport()
{
    closing.store(true, std::memory_order_release);
    if (listenFd >= 0) {
        // Unblocks a still-accepting accept thread.
        ::shutdown(listenFd, SHUT_RDWR);
        ::close(listenFd);
        listenFd = -1;
    }
    for (auto &o : out) {
        std::lock_guard<std::mutex> g(o->mu);
        if (o->fd >= 0) {
            ::shutdown(o->fd, SHUT_RDWR);
            ::close(o->fd);
            o->fd = -1;
        }
    }
    {
        std::lock_guard<std::mutex> g(readersMu);
        for (int fd : readerFds)
            ::shutdown(fd, SHUT_RD); // wakes blocked readers with EOF
    }
    if (acceptThread.joinable())
        acceptThread.join();
    for (auto &t : readers) {
        if (t.joinable())
            t.join();
    }
    // Close after the joins: a reader owns its fd while running, and
    // closing early could recycle the descriptor under it.
    for (int fd : readerFds)
        ::close(fd);
    if (sockKind == SocketKind::Unix)
        ::unlink(listenPath().c_str());
    else
        ::unlink((dir + "/node-" + std::to_string(id) + ".port").c_str());
}

std::string
SocketTransport::listenPath() const
{
    return dir + "/node-" + std::to_string(id) + ".sock";
}

void
SocketTransport::connectPeers(int timeout_ms)
{
    using Clock = std::chrono::steady_clock;
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);

    for (NodeId peer = 0; peer < numNodes; ++peer) {
        if (peer == id)
            continue;
        int fd = -1;
        for (;;) {
            DSM_ASSERT(Clock::now() < deadline,
                       "node %d: rendezvous with node %d timed out",
                       id, peer);
            if (sockKind == SocketKind::Unix) {
                fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
                DSM_ASSERT(fd >= 0, "socket: %s", std::strerror(errno));
                sockaddr_un addr{};
                addr.sun_family = AF_UNIX;
                const std::string path =
                    dir + "/node-" + std::to_string(peer) + ".sock";
                std::strncpy(addr.sun_path, path.c_str(),
                             sizeof(addr.sun_path) - 1);
                if (::connect(fd,
                              reinterpret_cast<const sockaddr *>(&addr),
                              sizeof(addr)) == 0)
                    break;
            } else {
                // Poll for the peer's published port, then dial it.
                const std::string path =
                    dir + "/node-" + std::to_string(peer) + ".port";
                unsigned port = 0;
                if (FILE *f = std::fopen(path.c_str(), "r")) {
                    if (std::fscanf(f, "%u", &port) != 1)
                        port = 0;
                    std::fclose(f);
                }
                if (port != 0) {
                    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC,
                                  0);
                    DSM_ASSERT(fd >= 0, "socket: %s",
                               std::strerror(errno));
                    sockaddr_in addr{};
                    addr.sin_family = AF_INET;
                    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
                    addr.sin_port =
                        htons(static_cast<std::uint16_t>(port));
                    if (::connect(
                            fd,
                            reinterpret_cast<const sockaddr *>(&addr),
                            sizeof(addr)) == 0) {
                        const int one = 1;
                        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY,
                                     &one, sizeof(one));
                        break;
                    }
                } else {
                    fd = -1;
                }
            }
            if (fd >= 0)
                ::close(fd);
            // Peer not bound yet (or its backlog raced us): back off
            // briefly and retry — start order is unconstrained.
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        out[peer]->fd = fd;
        writeTo(peer, encodeHelloFrame(id, numNodes));
    }

    // Rendezvous barrier: every peer must have dialed us too, or the
    // first inbound request would race the reader that delivers it.
    std::unique_lock<std::mutex> g(goodbyeMu);
    const bool ok = goodbyeCv.wait_until(g, deadline, [&] {
        return hellosSeen == numNodes - 1;
    });
    DSM_ASSERT(ok, "node %d: only %d/%d peers dialed in", id,
               hellosSeen, numNodes - 1);
}

void
SocketTransport::acceptLoop()
{
    int spawned = 0;
    while (spawned < numNodes - 1 &&
           !closing.load(std::memory_order_acquire)) {
        const int fd = ::accept4(listenFd, nullptr, nullptr,
                                 SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // listener closed at teardown
        }
        if (sockKind == SocketKind::Tcp) {
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof(one));
        }
        std::lock_guard<std::mutex> g(readersMu);
        readerFds.push_back(fd);
        readers.emplace_back([this, fd] { readerLoop(fd); });
        ++spawned;
    }
}

void
SocketTransport::readerLoop(int fd)
{
    FrameDecoder decoder;
    std::vector<std::byte> chunk(64 * 1024);
    NodeId peer = -1; // learned from the hello frame

    for (;;) {
        const ssize_t n = readSome(fd, chunk.data(), chunk.size());
        if (n <= 0)
            break; // EOF or teardown
        decoder.feed(std::span<const std::byte>(
            chunk.data(), static_cast<std::size_t>(n)));
        Frame frame;
        while (decoder.next(frame)) {
            if (peer == -1) {
                DSM_ASSERT(frame.kind == FrameKind::Hello,
                           "node %d: stream opened without hello", id);
                DSM_ASSERT(frame.nnodes == numNodes,
                           "node %d: peer %d joined with cluster size "
                           "%d != %d",
                           id, frame.node, frame.nnodes, numNodes);
                DSM_ASSERT(frame.node >= 0 && frame.node < numNodes &&
                               frame.node != id,
                           "node %d: bad hello id %d", id, frame.node);
                peer = frame.node;
                std::lock_guard<std::mutex> g(goodbyeMu);
                ++hellosSeen;
                goodbyeCv.notify_all();
                continue;
            }
            switch (frame.kind) {
            case FrameKind::Data:
                DSM_ASSERT(frame.msg.src == peer &&
                               frame.msg.dst == id,
                           "node %d: misrouted frame %d->%d on "
                           "stream from %d",
                           id, frame.msg.src, frame.msg.dst, peer);
                deliverLocal(std::move(frame.msg));
                break;
            case FrameKind::Goodbye:
                noteGoodbye(peer, frame.round);
                break;
            default:
                panic("node %d: unexpected %u frame from %d mid-run",
                      id, static_cast<unsigned>(frame.kind), peer);
            }
        }
        DSM_ASSERT(!decoder.poisoned(),
                   "node %d: corrupt stream from node %d", id, peer);
    }
}

void
SocketTransport::writeTo(NodeId peer, const std::vector<std::byte> &bytes)
{
    OutStream &o = *out[peer];
    std::lock_guard<std::mutex> g(o.mu);
    DSM_ASSERT(o.fd >= 0, "node %d: send to %d before connectPeers",
               id, peer);
    std::size_t done = 0;
    while (done < bytes.size()) {
        const ssize_t n =
            ::send(o.fd, bytes.data() + done, bytes.size() - done,
                   MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            // The two-round goodbye protocol guarantees no legal
            // write races a peer's exit; a broken stream mid-run is a
            // real failure, not a shutdown artifact.
            panic("node %d: write to node %d failed: %s", id, peer,
                  std::strerror(errno));
        }
        done += static_cast<std::size_t>(n);
    }
}

void
SocketTransport::send(Message &&msg, NodeStats &sender_stats)
{
    DSM_ASSERT(msg.dst >= 0 && msg.dst < numNodes, "bad destination %d",
               msg.dst);
    DSM_ASSERT(msg.src == id, "node %d sending as %d", id, msg.src);
    DSM_ASSERT(msg.type != MsgType::Invalid, "untyped message");

    // Identical modeled wire to the in-process tier.
    chargeModeledWire(msg, cm, sender_stats);
    accepted.fetch_add(1);

    // Send-side fault injection, exactly as on tier 0: the message
    // was charged but never reaches the wire; the endpoint
    // deadline/retransmit path recovers it.
    if (faults && faults->dropMessage(msg)) {
        sender_stats.messagesDropped++;
        return;
    }

    if (msg.dst == id) {
        deliverLocal(std::move(msg));
        return;
    }
    writeTo(msg.dst, encodeDataFrame(msg));
}

void
SocketTransport::deliverLocal(Message &&msg)
{
    // Receiver-side reply bypass. Tier 0 runs this check in the
    // sender's thread against the shared per-pair counters; here the
    // counters live with the receiver, so the reader thread (or a
    // self-send) applies the same guard at the same point in the
    // delivery order — after this sender's earlier frames, before its
    // later ones.
    if (msg.isReply) {
        std::lock_guard<std::mutex> g(replyMu);
        if (replyReceiver != nullptr &&
            srcOutstanding[msg.src].load(std::memory_order_acquire) ==
                0 &&
            replyReceiver->tryDeliverReply(msg)) {
            return;
        }
    }
    if (msg.type != MsgType::Shutdown) {
        srcOutstanding[msg.src].fetch_add(1,
                                          std::memory_order_relaxed);
    }
    inbox->push(std::move(msg));
}

bool
SocketTransport::recv(NodeId node, Message &out_msg)
{
    DSM_ASSERT(node == id, "node %d serving inbox of %d", id, node);
    if (!inbox->pop(out_msg))
        return false;
    checkDeliveryOrder(out_msg, node, lastDelivered);
    return true;
}

RingPop
SocketTransport::recvStatus(NodeId node, Message &out_msg)
{
    DSM_ASSERT(node == id, "node %d serving inbox of %d", id, node);
    const RingPop status = inbox->popWithStatus(out_msg);
    if (status == RingPop::Ok)
        checkDeliveryOrder(out_msg, node, lastDelivered);
    return status;
}

RingPop
SocketTransport::recvTimed(NodeId node, Message &out_msg,
                           std::uint64_t timeout_ns)
{
    DSM_ASSERT(node == id, "node %d serving inbox of %d", id, node);
    const RingPop status = inbox->popTimed(out_msg, timeout_ns);
    if (status == RingPop::Ok)
        checkDeliveryOrder(out_msg, node, lastDelivered);
    return status;
}

void
SocketTransport::markNodeDown(NodeId node)
{
    DSM_ASSERT(node == id,
               "socket transport cannot mark remote node %d down "
               "(in-process feature; node %d)",
               node, id);
    inbox->setPeerDown(true);
}

void
SocketTransport::clearNodeDown(NodeId node)
{
    DSM_ASSERT(node == id, "bad node %d", node);
    inbox->setPeerDown(false);
}

void
SocketTransport::setReplyReceiver(NodeId node, ReplyReceiver *receiver)
{
    DSM_ASSERT(node == id,
               "socket transport registering receiver for remote "
               "node %d",
               node);
    std::lock_guard<std::mutex> g(replyMu);
    replyReceiver = receiver;
}

void
SocketTransport::noteDispatched(NodeId dst, NodeId src)
{
    DSM_ASSERT(dst == id, "dispatch note for remote node %d", dst);
    srcOutstanding[src].fetch_sub(1, std::memory_order_release);
}

void
SocketTransport::setAdaptiveInboxSpin(bool on)
{
    inbox->setAdaptiveSpin(on);
}

void
SocketTransport::shutdown()
{
    inbox->shutdown();
}

void
SocketTransport::noteGoodbye(NodeId peer, int round)
{
    std::lock_guard<std::mutex> g(goodbyeMu);
    if (goodbyeRound[peer] < round)
        goodbyeRound[peer] = static_cast<std::uint8_t>(round);
    goodbyeCv.notify_all();
}

void
SocketTransport::finishRun()
{
    const auto waitRound = [&](int round) {
        std::unique_lock<std::mutex> g(goodbyeMu);
        const bool ok = goodbyeCv.wait_for(
            g, std::chrono::seconds(120), [&] {
                for (NodeId p = 0; p < numNodes; ++p) {
                    if (goodbyeRound[p] < round)
                        return false;
                }
                return true;
            });
        DSM_ASSERT(ok, "node %d: round-%d goodbye rendezvous timed out",
                   id, round);
    };
    for (NodeId peer = 0; peer < numNodes; ++peer) {
        if (peer != id)
            writeTo(peer, encodeGoodbyeFrame(id, 1));
    }
    waitRound(1);
    for (NodeId peer = 0; peer < numNodes; ++peer) {
        if (peer != id)
            writeTo(peer, encodeGoodbyeFrame(id, 2));
    }
    waitRound(2);
}

} // namespace dsm
